"""EVALUATION — verdict-engine quality on the canned incident suite.

Generates a fully-observed 100-day world carrying the canned incident
script (one labeled incident of every kind), runs ``evaluate`` serially
and in parallel, and gates on attribution quality:

- serial and ``--workers 2`` scoring must be identical (the engine's
  core invariant extended to verdicts);
- every injected incident kind must be detected at least once;
- aggregate (micro) F1 over the incident kinds must not regress below
  the pinned floor — the canary for anyone "improving" a heuristic.

The full scoring payload is written to ``BENCH_evaluation.json``
(override with ``REPRO_BENCH_EVAL_OUT``) so CI publishes the
per-kind precision/recall trajectory run over run.  The floor is
``REPRO_BENCH_MIN_F1`` (default 0.6; the canned suite scores ~0.75 —
headroom for stochastic world-to-world variation, not for regressions).
"""

import datetime
import json
import os
import time
from pathlib import Path

from repro.api.service import MoasService
from repro.scenario.incidents import IncidentKind, IncidentScript
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar

#: The suite is a fixed-size workload (quality gate, not a scale
#: benchmark), so it does not follow REPRO_BENCH_SCALE: the incident
#: mix needs a world big enough to realize every kind.
EVAL_SCALE = float(os.environ.get("REPRO_BENCH_EVAL_SCALE", "0.02"))
MIN_F1 = float(os.environ.get("REPRO_BENCH_MIN_F1", "0.6"))
OUT_PATH = Path(
    os.environ.get("REPRO_BENCH_EVAL_OUT", "BENCH_evaluation.json")
)

CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1998, 2, 15)
)  # 100 days


def test_canned_suite_attribution_quality(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench-evaluation") / "archive"
    config = ScenarioConfig(
        scale=EVAL_SCALE,
        calendar=CALENDAR,
        paper_archive_gaps=False,
        incidents=IncidentScript.canned(CALENDAR.num_days),
    )
    summary = simulate_study(directory, config)
    assert summary["incidents_unrealized"] == 0, (
        "canned suite did not fully realize; raise REPRO_BENCH_EVAL_SCALE"
    )

    started = time.perf_counter()
    serial = MoasService().evaluate(directory)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    parallel = MoasService(workers=2).evaluate(directory)
    parallel_seconds = time.perf_counter() - started
    assert serial.result.to_dict() == parallel.result.to_dict(), (
        "parallel evaluation diverged from serial"
    )

    result = serial.result
    payload = {
        "scale": EVAL_SCALE,
        "days": CALENDAR.num_days,
        "incidents_injected": summary["incidents_injected"],
        "min_f1_floor": MIN_F1,
        "serial_seconds": round(serial_seconds, 4),
        "parallel_seconds": round(parallel_seconds, 4),
        **result.to_dict(),
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2))
    print(
        f"\n[evaluation] micro F1 {result.micro_f1:.3f} "
        f"(floor {MIN_F1}), macro F1 {result.macro_f1:.3f}, "
        f"{result.injected_detected}/{result.num_injected} injected "
        f"incidents detected; payload -> {OUT_PATH}"
    )

    # Every injected kind detected at least once (the acceptance bar).
    for kind in IncidentKind:
        detected, injected = result.injected_coverage.get(
            kind.value, (0, 0)
        )
        assert injected > 0, f"{kind.value} missing from the canned suite"
        assert detected >= 1, (
            f"{kind.value}: 0/{injected} injected incidents detected"
        )

    assert result.micro_f1 >= MIN_F1, (
        f"aggregate F1 {result.micro_f1:.3f} regressed below the "
        f"pinned floor {MIN_F1}"
    )
