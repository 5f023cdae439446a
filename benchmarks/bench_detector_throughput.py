"""PERF-DET — detector throughput: reference path and columnar ablation.

Two benches share this module:

- ``test_detector_throughput`` times the reference full-table detector
  over synthetic snapshots of increasing size, verifying throughput
  stays in the range that makes the 1279-day study tractable and that
  cost scales roughly linearly.
- ``test_columnar_vs_object_day_scan`` re-encodes the session archive
  in both day-store formats and races the columnar scan against the
  reference ``detect_day`` over object day records, twice per format:
  the raw decode→detect scan and the full serial ``analyze`` fold.
  The two paths must produce equal detections and equal
  :class:`StudyResults` before any number is reported.  Everything
  lands in ``BENCH_detect.json`` (override with
  ``REPRO_BENCH_DETECT_OUT``), and the run fails when the v2 columnar
  scan speedup drops below ``REPRO_BENCH_MIN_DETECT_SPEEDUP`` (default
  3x — the CI floor; locally the scan runs ~4x and analyze ~3x).
"""

import datetime
import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis.sources import detections_from_archive
from repro.api import MoasService
from repro.core.detector import detect_day, detect_snapshot
from repro.netbase.aspath import ASPath
from repro.netbase.prefix import Prefix
from repro.netbase.rib import PeerId, RibSnapshot, Route
from repro.scenario.archive import (
    ArchiveReader,
    ArchiveWriter,
    reencode_archive,
)
from repro.util.rng import RngStreams

MIN_SCAN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_MIN_DETECT_SPEEDUP", "3")
)
DETECT_OUT_PATH = Path(
    os.environ.get("REPRO_BENCH_DETECT_OUT", "BENCH_detect.json")
)

#: Timing passes per measurement; the best pass is reported, so a
#: stray page-cache miss or GC pause cannot decide the gate.
PASSES = 3


def synthetic_snapshot(num_prefixes: int, conflict_share: float = 0.02):
    rng = RngStreams(7).python("bench-detector")
    peers = [PeerId(asn=asn) for asn in (701, 1239, 3561, 7018)]
    routes = []
    for index in range(num_prefixes):
        prefix = Prefix((10 << 24) + (index << 8), 24, strict=False)
        origin = 1000 + index % 5000
        for peer in peers:
            path = ASPath.from_sequence([peer.asn, 42, origin])
            routes.append(Route(prefix, path, peer))
        if rng.random() < conflict_share:
            hijacker = 64000 + index % 500
            routes.append(
                Route(
                    prefix,
                    ASPath.from_sequence([peers[0].asn, hijacker]),
                    peers[0],
                )
            )
    return RibSnapshot.from_routes(datetime.date(2001, 4, 6), routes)


@pytest.mark.parametrize("num_prefixes", [2_000, 10_000, 50_000])
def test_detector_throughput(benchmark, num_prefixes):
    snapshot = synthetic_snapshot(num_prefixes)
    detection = benchmark(detect_snapshot, snapshot)

    assert detection.prefixes_scanned == num_prefixes
    assert detection.num_conflicts > 0

    stats = benchmark.stats.stats
    per_route = stats.mean / snapshot.num_routes()
    print(
        f"\n[perf-det] {num_prefixes} prefixes, "
        f"{snapshot.num_routes()} routes: {stats.mean * 1e3:.1f} ms "
        f"({1 / per_route:,.0f} routes/s)"
    )
    # Tractability floor: at least 100k routes/s in the reference path.
    assert 1 / per_route > 100_000


def _object_detections(directory: str):
    """The reference stream: ``detect_day`` over object day records."""
    reader = ArchiveReader(directory)
    try:
        for record in reader.iter_days():
            yield detect_day(record, reader)
    finally:
        reader.close()


def _detections(directory: str, columnar: bool):
    """The production columnar stream, or the object reference stream."""
    if columnar:
        return detections_from_archive(directory)
    return _object_detections(directory)


def _time_scan(directory: str, columnar: bool) -> float:
    """Best wall clock of one full decode→detect sweep (fresh reader)."""
    best = float("inf")
    for _ in range(PASSES):
        started = time.perf_counter()
        for _detection in _detections(directory, columnar):
            pass
        best = min(best, time.perf_counter() - started)
    return best


def _time_analyze(directory: str, columnar: bool) -> float:
    """Best wall clock of the serial end-to-end analyze fold."""
    best = float("inf")
    for _ in range(PASSES):
        service = MoasService()
        started = time.perf_counter()
        service.feed(_detections(directory, columnar))
        service.results()
        best = min(best, time.perf_counter() - started)
    return best


def test_columnar_vs_object_day_scan(paper_archive, tmp_path_factory):
    base = tmp_path_factory.mktemp("bench-detect-formats")
    source = ArchiveReader(paper_archive)
    records = list(source.iter_days())
    num_days = len(records)
    total_rows = sum(len(record.rows) for record in records)

    directories = {}
    for format in ("v1", "v2"):
        directory = base / format
        writer = ArchiveWriter(directory, format=format)
        reencode_archive(source, writer, records=records)
        directories[format] = str(directory)

    # The two scan paths must be indistinguishable before they are
    # comparable — detections and full StudyResults, on both formats.
    for directory in directories.values():
        object_detections = list(_detections(directory, columnar=False))
        columnar_detections = list(_detections(directory, columnar=True))
        assert columnar_detections == object_detections
        object_service = MoasService()
        object_service.feed(object_detections)
        columnar_service = MoasService()
        columnar_service.feed(columnar_detections)
        assert columnar_service.results() == object_service.results()

    timings: dict[str, float] = {}
    for format, directory in directories.items():
        timings[f"{format}_object_scan_seconds"] = _time_scan(
            directory, columnar=False
        )
        timings[f"{format}_columnar_scan_seconds"] = _time_scan(
            directory, columnar=True
        )
        timings[f"{format}_object_analyze_seconds"] = _time_analyze(
            directory, columnar=False
        )
        timings[f"{format}_columnar_analyze_seconds"] = _time_analyze(
            directory, columnar=True
        )

    speedups = {
        f"{format}_{operation}_speedup": round(
            timings[f"{format}_object_{operation}_seconds"]
            / timings[f"{format}_columnar_{operation}_seconds"],
            3,
        )
        for format in ("v1", "v2")
        for operation in ("scan", "analyze")
    }
    columnar_scan = timings["v2_columnar_scan_seconds"]
    payload = {
        "num_days": num_days,
        "total_rows": total_rows,
        "passes": PASSES,
        "min_v2_scan_speedup": MIN_SCAN_SPEEDUP,
        "v2_columnar_days_per_second": round(num_days / columnar_scan, 1),
        "v2_columnar_rows_per_second": round(total_rows / columnar_scan, 1),
        **speedups,
        **{key: round(value, 4) for key, value in timings.items()},
    }
    DETECT_OUT_PATH.write_text(json.dumps(payload, indent=2))
    print(
        f"\n[detect] {num_days} days, {total_rows} rows: "
        f"v2 scan obj {timings['v2_object_scan_seconds']:.3f}s / "
        f"col {columnar_scan:.3f}s "
        f"({speedups['v2_scan_speedup']:.1f}x, "
        f"{payload['v2_columnar_days_per_second']:,.0f} days/s), "
        f"v2 analyze {speedups['v2_analyze_speedup']:.1f}x, "
        f"v1 scan {speedups['v1_scan_speedup']:.1f}x; "
        f"payload -> {DETECT_OUT_PATH}"
    )

    # The acceptance bar: the columnar v2 scan must beat the object
    # reference by the pinned factor (numbers are recorded above
    # either way).
    assert speedups["v2_scan_speedup"] >= MIN_SCAN_SPEEDUP, (
        f"columnar v2 scan only {speedups['v2_scan_speedup']:.2f}x "
        f"faster than the object path (floor {MIN_SCAN_SPEEDUP}x)"
    )
