"""RPKI — validation quality and overhead on the canned incident suite.

Generates a fully-observed 100-day world carrying the canned incident
script *with an RPKI shadow* (``ScenarioConfig.rpki``), then gates on
two promises:

- **invalid-state detection floor** — every injected incident whose
  RPKI shadow makes it detectable (exact-prefix hijacks, flapping
  faults, private leaks, sub-prefix fragments) must have its verdict
  rolled up ``invalid``, at or above ``REPRO_BENCH_MIN_INVALID``
  (default 0.9); the anycast incident under its covering multi-origin
  ROA set must stay ``valid``.  This is the canary for anyone touching
  validation, issuance, or the verdict rollup.
- **analyze overhead** — RFC 6811 validation rides the streaming fold,
  so turning ``--rpki`` on must cost less than
  ``REPRO_BENCH_MAX_RPKI_OVERHEAD`` (default 0.10 = 10%) of end-to-end
  analyze wall clock, measured as the best mean-of-3 over five rounds
  to damp scheduler noise.  Each round times the plain and the RPKI
  analyze back to back, alternating which goes first, so a swing in
  CPU speed during the run reaches both sides alike.  Set the cap to
  ``0`` to record the numbers without gating (the
  ``REPRO_BENCH_MIN_SPEEDUP=0`` escape hatch pattern, for noisy
  runners).

Beside the gates it records the ROA layer, without a bound: the
``RoaTable.load`` time of the world's ``roas.json``, the bytes of a
checkpoint of the RPKI session and of the rows file it names, the time
of the first save to a new directory and of a later one, and the
resume time from the rows file and with the table given.  It asserts
that a session resumed from the checkpoint file alone has the
uninterrupted session's ``rpki_episode_states``, so the version-4
rows file is exercised on a world whose ROAs carry windows.

The measured payload lands in ``BENCH_rpki.json`` (override with
``REPRO_BENCH_RPKI_OUT``) so CI publishes the trajectory run over run.
"""

import datetime
import json
import os
import time
from pathlib import Path

from repro.api.service import MoasService, roa_rows_path
from repro.netbase.rpki import RoaTable
from repro.scenario.incidents import IncidentKind, IncidentScript
from repro.scenario.rpki import RpkiConfig
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar

#: Quality gate, not a scale benchmark: the incident mix needs a world
#: big enough to realize every kind (mirrors bench_evaluation).
RPKI_SCALE = float(os.environ.get("REPRO_BENCH_RPKI_SCALE", "0.02"))
MIN_INVALID = float(os.environ.get("REPRO_BENCH_MIN_INVALID", "0.9"))
MAX_OVERHEAD = float(
    os.environ.get("REPRO_BENCH_MAX_RPKI_OVERHEAD", "0.10")
)
OUT_PATH = Path(os.environ.get("REPRO_BENCH_RPKI_OUT", "BENCH_rpki.json"))

CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1998, 2, 15)
)  # 100 days

#: Incident kinds whose RPKI shadow guarantees an invalid rollup.
INVALID_KINDS = (
    IncidentKind.EXACT_HIJACK,
    IncidentKind.FLAPPING_FAULT,
    IncidentKind.PRIVATE_LEAK,
    IncidentKind.SUBPREFIX_HIJACK,
)


def _interleaved_best(
    runs: int, plain, rpki, *, inner: int = 3
) -> tuple[float, float]:
    """Best mean-of-``inner`` wall clock of each action over ``runs``
    rounds, both timed in every round.

    The analyze base is tens of milliseconds at bench scale, so a
    single run is inside scheduler noise; averaging a small inner loop
    and keeping the best round gives a stable ratio.  Within a round
    the two actions run back to back, and the one that goes first
    alternates between rounds, so neither side is timed only in a
    slower stretch of the run.
    """
    best = {plain: float("inf"), rpki: float("inf")}
    for round_number in range(runs):
        order = (plain, rpki) if round_number % 2 == 0 else (rpki, plain)
        for action in order:
            started = time.perf_counter()
            for _ in range(inner):
                action()
            best[action] = min(
                best[action], (time.perf_counter() - started) / inner
            )
    return best[plain], best[rpki]


def _best_of(runs: int, action) -> tuple[float, object]:
    """Best wall clock of ``runs`` calls of ``action``, and its last
    result."""
    best = float("inf")
    for _ in range(runs):
        started = time.perf_counter()
        result = action()
        best = min(best, time.perf_counter() - started)
    return best, result


def test_rpki_validation_quality_and_overhead(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench-rpki") / "archive"
    config = ScenarioConfig(
        scale=RPKI_SCALE,
        calendar=CALENDAR,
        paper_archive_gaps=False,
        incidents=IncidentScript.canned(CALENDAR.num_days),
        rpki=RpkiConfig(),
    )
    summary = simulate_study(directory, config)
    assert summary["incidents_unrealized"] == 0, (
        "canned suite did not fully realize; raise REPRO_BENCH_RPKI_SCALE"
    )
    assert summary["roas_issued"] > 0

    # -- validation quality over the injected incidents -------------------
    report = MoasService().evaluate(directory)  # auto-loads roas.json
    states = {
        label.prefix: report.verdicts[label.prefix].rpki_state
        for label in report.labels
    }
    gated = [
        label for label in report.labels if label.kind in INVALID_KINDS
    ]
    invalid_hits = sum(
        1 for label in gated if states[label.prefix] == "invalid"
    )
    invalid_rate = invalid_hits / len(gated) if gated else 0.0
    anycast_states = [
        states[label.prefix]
        for label in report.labels
        if label.kind is IncidentKind.ANYCAST
    ]

    # -- end-to-end analyze overhead --------------------------------------
    # The table is loaded once up front (as one `repro analyze --rpki`
    # run does); the gate measures the steady-state validation cost on
    # the feed path, not JSON parsing.
    load_seconds, table = _best_of(5, lambda: RoaTable.load(directory))

    def analyze_plain():
        service = MoasService()
        service.feed(directory)
        return service.results()

    def analyze_rpki():
        service = MoasService(roa_table=table)
        service.feed(directory)
        return service.results()

    analyze_plain(), analyze_rpki()  # warm readers and caches
    plain_seconds, rpki_seconds = _interleaved_best(
        5, analyze_plain, analyze_rpki
    )
    overhead = (rpki_seconds - plain_seconds) / plain_seconds

    # -- the ROA layer of a checkpoint: recorded, not gated ---------------
    live = MoasService(roa_table=table)
    live.feed(directory)
    checkpoint = tmp_path_factory.mktemp("bench-rpki-checkpoint") / "study.ckpt"
    first_save_seconds, _ = _best_of(1, lambda: live.save_checkpoint(checkpoint))
    save_seconds, _ = _best_of(5, lambda: live.save_checkpoint(checkpoint))
    from_rows_seconds, resumed = _best_of(
        5, lambda: MoasService.load_checkpoint(checkpoint)
    )
    with_table_seconds, _ = _best_of(
        5, lambda: MoasService.load_checkpoint(checkpoint, roa_table=directory)
    )
    resumed_states = resumed.results().rpki_episode_states
    live_states = live.results().rpki_episode_states

    payload = {
        "scale": RPKI_SCALE,
        "days": CALENDAR.num_days,
        "roas_issued": summary["roas_issued"],
        "incidents_injected": summary["incidents_injected"],
        "min_invalid_floor": MIN_INVALID,
        "invalid_rate": round(invalid_rate, 4),
        "invalid_detected": invalid_hits,
        "invalid_gated": len(gated),
        "anycast_states": anycast_states,
        "rpki_states": report.result.rpki_states,
        "max_overhead": MAX_OVERHEAD,
        "plain_seconds": round(plain_seconds, 4),
        "rpki_seconds": round(rpki_seconds, 4),
        "overhead": round(overhead, 4),
        "roa_load_seconds": round(load_seconds, 4),
        "checkpoint_bytes": checkpoint.stat().st_size,
        "rows_file_bytes": roa_rows_path(checkpoint, table.digest).stat().st_size,
        "first_save_seconds": round(first_save_seconds, 4),
        "save_seconds": round(save_seconds, 4),
        "resume_from_rows_seconds": round(from_rows_seconds, 4),
        "resume_with_table_seconds": round(with_table_seconds, 4),
        "resumed_rpki_states_equal": resumed_states == live_states,
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2))
    print(
        f"\n[rpki] invalid {invalid_hits}/{len(gated)} "
        f"(floor {MIN_INVALID}), anycast {anycast_states}, "
        f"analyze {plain_seconds:.2f}s -> {rpki_seconds:.2f}s "
        f"({overhead:+.1%}, cap {MAX_OVERHEAD:.0%}); "
        f"payload -> {OUT_PATH}"
    )

    assert resumed_states and resumed_states == live_states, (
        "a session resumed from the checkpoint and its rows file lost "
        "the uninterrupted session's RPKI rollups"
    )
    assert gated, "canned suite lost its invalid-detectable incidents"
    assert invalid_rate >= MIN_INVALID, (
        f"invalid-state detection {invalid_rate:.2f} regressed below "
        f"the pinned floor {MIN_INVALID}"
    )
    assert anycast_states and all(
        state == "valid" for state in anycast_states
    ), f"anycast episodes must stay valid, got {anycast_states}"
    if MAX_OVERHEAD > 0:
        assert overhead < MAX_OVERHEAD, (
            f"RPKI validation overhead {overhead:.1%} exceeds the "
            f"{MAX_OVERHEAD:.0%} analyze budget"
        )
