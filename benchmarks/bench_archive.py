"""ARCHIVE — the storage layer's first baseline: day-store v1 vs v2.

Re-encodes the session benchmark world in both day-store formats and
times the three operations every workload sits on:

- **write**: registry + paths + every day record, writer to finalize;
- **full read**: a fresh reader decoding every day — the full-study
  read path that gates parallel workers and `repro analyze` alike;
- **range reads**: many small ``iter_days(start, stop)`` windows — the
  random-access pattern of ordinal-range work units and longitudinal
  queries, where v1 must scan-and-seek from day zero and v2 positions
  through its footer index in O(1).

The decoded records are asserted identical across formats before any
number is reported.  Everything lands in ``BENCH_archive.json``
(override with ``REPRO_BENCH_ARCHIVE_OUT``), and the run fails when
v2's full-read speedup drops below ``REPRO_BENCH_MIN_ARCHIVE_SPEEDUP``
(default 3x — the storage-format acceptance bar).
"""

import json
import os
import random
import time
from pathlib import Path

from repro.scenario.archive import (
    ArchiveReader,
    ArchiveWriter,
    reencode_archive,
)

MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_MIN_ARCHIVE_SPEEDUP", "3"))
OUT_PATH = Path(
    os.environ.get("REPRO_BENCH_ARCHIVE_OUT", "BENCH_archive.json")
)

#: Random-access workload: this many small windows of this many days.
RANGE_READS = 120
RANGE_LENGTH = 3


def _rewrite(directory, format, source, records):
    """Re-encode ``source``'s world into ``directory`` as ``format``.

    Same copy loop as ``repro convert`` (shared helper); the
    pre-materialized ``records`` keep the timing pure write.
    """
    writer = ArchiveWriter(directory, format=format)
    reencode_archive(source, writer, records=records)


#: Timing passes per measurement; the best pass is reported, so a
#: stray page-cache miss or GC pause cannot decide the gate.
PASSES = 3


def _full_read(directory) -> tuple[float, int]:
    """Best wall clock of a fresh reader decoding the whole archive."""
    best = float("inf")
    rows = 0
    for _ in range(PASSES):
        started = time.perf_counter()
        reader = ArchiveReader(directory)
        rows = 0
        for record in reader.iter_days():
            rows += len(record.rows)
        best = min(best, time.perf_counter() - started)
    return best, rows


def _range_reads(directory, num_days) -> float:
    """Best wall clock of many small windows on a persistent reader."""
    reader = ArchiveReader(directory)
    rng = random.Random(20011108)
    starts = [rng.randrange(max(1, num_days)) for _ in range(RANGE_READS)]
    best = float("inf")
    for _ in range(PASSES):
        started = time.perf_counter()
        for start in starts:
            for _record in reader.iter_days(start, start + RANGE_LENGTH):
                pass
        best = min(best, time.perf_counter() - started)
    return best


def test_day_store_formats(paper_archive, tmp_path_factory):
    base = tmp_path_factory.mktemp("bench-archive-formats")
    source = ArchiveReader(paper_archive)
    records = list(source.iter_days())
    num_days = len(records)

    timings: dict[str, float] = {}
    directories = {}
    for format in ("v1", "v2"):
        directory = base / format
        started = time.perf_counter()
        _rewrite(directory, format, source, records)
        timings[f"{format}_write_seconds"] = time.perf_counter() - started
        directories[format] = directory

    # Formats must be indistinguishable before they are comparable.
    assert list(ArchiveReader(directories["v1"]).iter_days()) == records
    assert list(ArchiveReader(directories["v2"]).iter_days()) == records

    row_counts = {}
    for format in ("v1", "v2"):
        seconds, rows = _full_read(directories[format])
        timings[f"{format}_full_read_seconds"] = seconds
        row_counts[format] = rows
    assert row_counts["v1"] == row_counts["v2"]

    for format in ("v1", "v2"):
        timings[f"{format}_range_read_seconds"] = _range_reads(
            directories[format], num_days
        )

    full_read_speedup = (
        timings["v1_full_read_seconds"] / timings["v2_full_read_seconds"]
    )
    range_read_speedup = (
        timings["v1_range_read_seconds"] / timings["v2_range_read_seconds"]
    )
    payload = {
        "num_days": num_days,
        "total_rows": row_counts["v1"],
        "min_full_read_speedup": MIN_SPEEDUP,
        "range_reads": RANGE_READS,
        "range_length": RANGE_LENGTH,
        "v1_days_bin_bytes": (
            directories["v1"] / "days.bin"
        ).stat().st_size,
        "v2_days_bin_bytes": (
            directories["v2"] / "days.bin"
        ).stat().st_size,
        "full_read_speedup": round(full_read_speedup, 3),
        "range_read_speedup": round(range_read_speedup, 3),
        **{key: round(value, 4) for key, value in timings.items()},
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2))
    print(
        f"\n[archive] {num_days} days, {row_counts['v1']} rows: "
        f"full read v1 {timings['v1_full_read_seconds']:.3f}s / "
        f"v2 {timings['v2_full_read_seconds']:.3f}s "
        f"({full_read_speedup:.1f}x), "
        f"range reads {range_read_speedup:.1f}x, "
        f"days.bin {payload['v1_days_bin_bytes']} -> "
        f"{payload['v2_days_bin_bytes']} bytes; payload -> {OUT_PATH}"
    )

    # The acceptance bar: the v2 full-study read path must beat v1 by
    # the pinned factor (the numbers are recorded above either way).
    assert full_read_speedup >= MIN_SPEEDUP, (
        f"v2 full read only {full_read_speedup:.2f}x faster than v1 "
        f"(floor {MIN_SPEEDUP}x)"
    )
