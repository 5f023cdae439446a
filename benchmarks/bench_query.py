"""QUERY — episode-index latency at million-episode scale + speedup.

Three gates for the ``repro query`` engine:

1. **Latency**: build a synthetic million-episode index (env-tunable
   via ``REPRO_BENCH_QUERY_EPISODES``), save and reload it, then drive
   point and range queries through it; point p99 must stay at or below
   ``REPRO_BENCH_QUERY_MAX_POINT_P99_MS`` (default 10 ms) — the
   O(log n) promise measured, not assumed.
2. **Cold answer**: what a fresh ``repro query`` process pays before
   its bisect — ``EpisodeIndex.load`` of the million-episode file plus
   the first point answer — must stay at or below
   ``REPRO_BENCH_QUERY_MAX_COLD_S`` (default 2.0 s).
3. **Speedup**: on a real simulated archive, answering one prefix's
   history from a resident index (the serve daemon's path; the
   one-time load cost is reported alongside) must beat the full-study
   fold that ``analyze`` would otherwise pay by at least
   ``REPRO_BENCH_QUERY_MIN_SPEEDUP`` (default 100×).

The measured distribution (build/save/load wall clock, cold load plus
first answer, whole-file CRC-32 time, index file size and bytes per
episode, point/range p50/p99, fold-vs-index speedup) is written to
``BENCH_query.json`` (override with ``REPRO_BENCH_QUERY_OUT``) so CI
publishes the query-performance trajectory run over run.
"""

import datetime
import json
import os
import random
import time
import zlib
from pathlib import Path

from repro.analysis.export import episode_record
from repro.analysis.index import EpisodeIndex, IndexRecord
from repro.api.service import MoasService
from repro.netbase.prefix import Prefix
from repro.scenario.world import ScenarioConfig, simulate_study

EPISODES = int(
    os.environ.get("REPRO_BENCH_QUERY_EPISODES", "1000000")
)
POINT_QUERIES = int(
    os.environ.get("REPRO_BENCH_QUERY_POINT_QUERIES", "2000")
)
RANGE_QUERIES = int(
    os.environ.get("REPRO_BENCH_QUERY_RANGE_QUERIES", "500")
)
MAX_POINT_P99_MS = float(
    os.environ.get("REPRO_BENCH_QUERY_MAX_POINT_P99_MS", "10")
)
MIN_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_QUERY_MIN_SPEEDUP", "100")
)
MAX_COLD_S = float(
    os.environ.get("REPRO_BENCH_QUERY_MAX_COLD_S", "2.0")
)
SCALE = float(os.environ.get("REPRO_BENCH_QUERY_SCALE", "0.02"))
OUT_PATH = Path(
    os.environ.get("REPRO_BENCH_QUERY_OUT", "BENCH_query.json")
)

STUDY_START = datetime.date(1997, 11, 8).toordinal()
STUDY_DAYS = 1279

VERDICT_KINDS = (
    "organic",
    "exact_hijack",
    "subprefix_hijack",
    "route_leak",
)
RPKI_STATES = ("valid", "invalid", "not_found")


def percentile(sorted_values: list[float], fraction: float) -> float:
    """The ``fraction`` percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        int(fraction * (len(sorted_values) - 1) + 0.5),
    )
    return sorted_values[index]


def synthetic_records(count: int, rng: random.Random):
    """``count`` IndexRecords in sort_key order, streamed.

    Origin sets and verdict vocabulary draw from small pools — MOAS
    origin sets repeat heavily in the wild, which is exactly what the
    index's interning tables exploit.
    """
    origin_pool = [
        tuple(sorted(rng.sample(range(1, 70000), rng.randint(2, 4))))
        for _ in range(1024)
    ]
    for position in range(count):
        network = position << 12  # strictly ascending keys
        length = 20 + 4 * (position % 3)
        first = STUDY_START + rng.randrange(STUDY_DAYS - 1)
        span = min(rng.randrange(120), STUDY_DAYS - 1 - (first - STUDY_START))
        origins = origin_pool[rng.randrange(len(origin_pool))]
        has_verdict = position % 3 == 0
        yield IndexRecord(
            prefix=Prefix(network, length, strict=False),
            first_day=datetime.date.fromordinal(first),
            last_day=datetime.date.fromordinal(first + span),
            days_observed=max(1, span // 2),
            origins=origins,
            max_origins_single_day=len(origins),
            ongoing=position % 7 == 0,
            rpki_state=(
                RPKI_STATES[position % 3] if position % 2 == 0 else None
            ),
            verdict_kind=(
                VERDICT_KINDS[position % 4] if has_verdict else None
            ),
            verdict_tags=("short-lived",) if has_verdict else (),
            suspicion=(position % 100) / 100 if has_verdict else None,
            perpetrators=origins[:1] if has_verdict else (),
        )


def test_million_episode_latency_and_fold_speedup(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("bench-query")
    rng = random.Random(20011108)

    # -- build / save / load at scale ------------------------------------
    started = time.perf_counter()
    index = EpisodeIndex.from_records(
        synthetic_records(EPISODES, rng),
        days_indexed=STUDY_DAYS,
        last_day=datetime.date.fromordinal(
            STUDY_START + STUDY_DAYS - 1
        ),
    )
    build_seconds = time.perf_counter() - started

    path = scratch / "episodes.idx"
    started = time.perf_counter()
    index.save(path)
    save_seconds = time.perf_counter() - started
    size_bytes = path.stat().st_size

    raw = path.read_bytes()
    started = time.perf_counter()
    zlib.crc32(raw)
    crc_seconds = time.perf_counter() - started
    del raw

    # A cold `repro query`: load the file, answer one point query.
    started = time.perf_counter()
    index = EpisodeIndex.load(path)
    load_seconds = time.perf_counter() - started
    first_answer = index.query(Prefix(0, 20, strict=False))
    million_cold_seconds = time.perf_counter() - started
    assert first_answer is not None
    assert len(index) == EPISODES

    # -- point queries (hits and misses interleaved) ---------------------
    targets = []
    for _ in range(POINT_QUERIES):
        position = rng.randrange(EPISODES)
        network = position << 12
        length = 20 + 4 * (position % 3)
        if rng.random() < 0.2:  # a guaranteed miss: off-lattice length
            length += 1
        targets.append(Prefix(network, length, strict=False))
    point_ms: list[float] = []
    hits = 0
    for prefix in targets:
        started = time.perf_counter()
        answer = index.query(prefix)
        point_ms.append((time.perf_counter() - started) * 1000)
        if answer is not None:
            hits += 1
    point_ms.sort()

    # -- range queries ----------------------------------------------------
    range_ms: list[float] = []
    for _ in range(RANGE_QUERIES):
        position = rng.randrange(EPISODES)
        prefix = Prefix(
            position << 12, 20 + 4 * (position % 3), strict=False
        )
        start_ord = STUDY_START + rng.randrange(STUDY_DAYS)
        window = (
            datetime.date.fromordinal(start_ord),
            datetime.date.fromordinal(
                min(
                    start_ord + rng.randrange(90),
                    STUDY_START + STUDY_DAYS - 1,
                )
            ),
        )
        started = time.perf_counter()
        answer = index.query(prefix, window=window)
        range_ms.append((time.perf_counter() - started) * 1000)
        assert answer is not None
    range_ms.sort()

    # -- speedup vs the full-study fold on a real archive -----------------
    # The baseline is what `analyze` pays for one answer today: fold
    # the full 1997-2001 study window (at benchmark scale), then read
    # the episode.  The indexed path answers cold: load + query.
    archive = scratch / "archive"
    simulate_study(archive, ScenarioConfig(scale=SCALE))

    started = time.perf_counter()
    service = MoasService()
    service.feed(archive)
    results = service.results()
    probe = sorted(
        results.episodes, key=lambda prefix: prefix.sort_key()
    )[0]
    baseline_answer = episode_record(results, probe)
    fold_seconds = time.perf_counter() - started

    real_index_path = archive / "episodes.idx"
    service.build_index(real_index_path)
    started = time.perf_counter()
    cold = EpisodeIndex.load(real_index_path)
    indexed_answer = cold.query(probe)
    cold_seconds = time.perf_counter() - started
    assert indexed_answer.record.episode_dict() == baseline_answer

    # The gated speedup is the resident-index answer — the serve
    # daemon's path, and what any repeated querying amortizes to.
    # The one-time load cost is reported alongside, not gated.
    warm_samples = []
    for _ in range(100):
        started = time.perf_counter()
        cold.query(probe)
        warm_samples.append(time.perf_counter() - started)
    warm_seconds = sorted(warm_samples)[len(warm_samples) // 2]
    speedup = fold_seconds / warm_seconds

    payload = {
        "episodes": EPISODES,
        "index_size_bytes": size_bytes,
        "bytes_per_episode": round(size_bytes / EPISODES, 2),
        "build_seconds": round(build_seconds, 3),
        "save_seconds": round(save_seconds, 3),
        "load_seconds": round(load_seconds, 3),
        "cold_load_and_answer_seconds": round(million_cold_seconds, 3),
        "whole_file_crc_seconds": round(crc_seconds, 4),
        "point_queries": POINT_QUERIES,
        "point_hits": hits,
        "point_ms": {
            "p50": round(percentile(point_ms, 0.50), 4),
            "p99": round(percentile(point_ms, 0.99), 4),
            "max": round(point_ms[-1], 4),
        },
        "range_queries": RANGE_QUERIES,
        "range_ms": {
            "p50": round(percentile(range_ms, 0.50), 4),
            "p99": round(percentile(range_ms, 0.99), 4),
            "max": round(range_ms[-1], 4),
        },
        "fold_baseline_seconds": round(fold_seconds, 3),
        "cold_indexed_answer_seconds": round(cold_seconds, 6),
        "resident_answer_seconds": round(warm_seconds, 9),
        "speedup_vs_full_fold": round(speedup, 1),
        "floors": {
            "max_point_p99_ms": MAX_POINT_P99_MS,
            "min_speedup": MIN_SPEEDUP,
            "max_cold_s": MAX_COLD_S,
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2))
    print(
        f"\n[query] {EPISODES} episodes, {size_bytes / 1e6:.1f} MB "
        f"({payload['bytes_per_episode']} B/episode); build "
        f"{build_seconds:.1f}s, save {save_seconds:.2f}s, CRC "
        f"{crc_seconds * 1000:.0f}ms, load + first answer "
        f"{million_cold_seconds:.2f}s; point p50 "
        f"{payload['point_ms']['p50']}ms p99 "
        f"{payload['point_ms']['p99']}ms, range p99 "
        f"{payload['range_ms']['p99']}ms; resident answer "
        f"{warm_seconds * 1e6:.0f}us (cold {cold_seconds * 1000:.1f}ms) "
        f"vs fold {fold_seconds:.1f}s = {speedup:.0f}x (floors: p99 "
        f"<= {MAX_POINT_P99_MS}ms, cold <= {MAX_COLD_S}s, >= "
        f"{MIN_SPEEDUP}x); payload -> "
        f"{OUT_PATH}"
    )

    assert hits > 0 and hits < POINT_QUERIES, (
        "the point-query mix must include both hits and misses"
    )
    assert million_cold_seconds <= MAX_COLD_S, (
        f"cold load + first answer took {million_cold_seconds:.2f} s at "
        f"{EPISODES} episodes; the pinned ceiling is {MAX_COLD_S} s"
    )
    point_p99 = percentile(point_ms, 0.99)
    assert point_p99 <= MAX_POINT_P99_MS, (
        f"point-query p99 {point_p99:.3f} ms above the pinned "
        f"ceiling {MAX_POINT_P99_MS} ms"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"resident indexed answer is only {speedup:.1f}x faster than "
        f"the full fold; the pinned floor is {MIN_SPEEDUP}x"
    )
