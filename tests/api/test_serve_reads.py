"""Serve's fresh reads against cold rebuilds, at every day boundary.

A fresh read after a fold re-derives only what the folds fed: the
session's results, its verdicts, its episode index and its
``/v1/verdicts`` rows each keep what they derived and the last fed day
they derived at, and redo only the prefixes the episode tracker's
``fed_since`` hands them from that day (the records fed since and, for
the readers of the ongoing flag, those then ongoing), plus those whose
verdict reads the study length.  ``/v1/verdicts`` joins per-verdict
JSON fragments.  These tests feed a ``ServeApp`` and read every route
every day, comparing each answer with one rebuilt from nothing:
results and verdicts of a session restored from the checkpoint payload
(which carries nothing kept), a cold ``EpisodeIndex.build`` and
``Response.json``.
The same holds for a session loaded from a legacy sharded checkpoint,
whose tracker lists records in shard order rather than first-seen
order.  ``test_serve_touched.py`` reads on drawn days instead, so the
readers fall behind by different amounts.
"""

from __future__ import annotations

import datetime

import pytest

from repro.analysis.index import EpisodeIndex
from repro.api.serve import Response, ServeApp
from repro.api.service import MoasService
from repro.api.sources import open_source
from repro.netbase.rpki import RoaTable
from repro.scenario.incidents import IncidentKind, IncidentScript
from repro.scenario.rpki import RpkiConfig
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar
from tests.fixtures import legacy_checkpoint_writer as legacy

CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1997, 12, 17)
)  # 40 days

#: ``/v1/verdicts`` filters: none, a threshold, a kind, and one that
#: matches nothing.
VERDICT_QUERIES = (
    {},
    {"min_suspicion": 0.6},
    {"kind": "anycast"},
    {"kind": "organic", "min_suspicion": 2.0},
)


def incident_script() -> IncidentScript:
    """The canned incidents, an anycast incident that ends after 8
    days, and a one-to-three-day hijack every other day.

    The anycast prefix's wide origin set stops being fed, so its
    anycast call must lapse as the study grows; the hijacks end
    episodes all through the study, so most fresh indexes are patched
    rather than built (a small world's organic conflicts mostly stand
    for the whole window).
    """
    script = IncidentScript.canned(CALENDAR.num_days).add(
        IncidentKind.ANYCAST, 3, duration=8
    )
    for start in range(2, CALENDAR.num_days - 2, 2):
        script = script.add(
            IncidentKind.EXACT_HIJACK, start, duration=1 + start % 3
        )
    return script


@pytest.fixture(scope="module", params=["v1", "v2"])
def reads_archive(request, tmp_path_factory):
    """A 40-day archive with a small ROA set and
    :func:`incident_script`."""
    directory = (
        tmp_path_factory.mktemp(f"reads-{request.param}") / "archive"
    )
    simulate_study(
        directory,
        ScenarioConfig(
            scale=0.02,
            calendar=CALENDAR,
            paper_archive_gaps=False,
            archive_format=request.param,
            incidents=incident_script(),
            # Few ROAs, many of them stale or misissued: every RPKI
            # state occurs, and restoring the table each day is cheap.
            rpki=RpkiConfig(
                coverage=0.1, stale_fraction=0.3, misissue_fraction=0.2
            ),
        ),
    )
    return directory


def cold_state(app: ServeApp):
    """Memo-free results and verdicts of the app's session, restored
    from its checkpoint payload (which carries no memo)."""
    service = MoasService.resume(app.service.snapshot_state())
    return service.results(), service.verdicts(app._registry)


def cold_verdicts(days: int, verdicts: dict, query: dict) -> Response:
    """``/v1/verdicts`` as one ``Response.json`` over the row dicts."""
    min_suspicion = query.get("min_suspicion", 0.0)
    kind = query.get("kind")
    rows = [
        verdict.to_dict()
        for _prefix, verdict in sorted(
            verdicts.items(), key=lambda item: item[0].sort_key()
        )
        if verdict.suspicion >= min_suspicion
        and (kind is None or verdict.kind == kind)
    ]
    return Response.json(
        {"days_fed": days, "count": len(rows), "verdicts": rows},
        headers={"X-Repro-Days": str(days)},
    )


def expected_reads(days, detection, results, verdicts, index):
    """``target -> Response`` for the routes a fresh read re-derives."""
    headers = {
        "X-Repro-Days": str(days),
        "X-Repro-Last-Day": detection.day.isoformat(),
    }
    expected = {}
    for query in VERDICT_QUERIES:
        target = "/v1/verdicts?" + "&".join(
            f"{name}={value}" for name, value in query.items()
        )
        expected[target] = cold_verdicts(days, verdicts, query)
    prefixes = [
        index.record_at(0).prefix,
        index.record_at(len(index) - 1).prefix,
    ]
    if detection.conflicts:
        prefixes.append(detection.conflicts[0].prefix)
    start = CALENDAR.start.isoformat()
    for prefix in prefixes:
        expected[f"/v1/episodes/{prefix}"] = Response.json(
            index.lookup(prefix).episode_dict(), headers=headers
        )
        for suffix, window in (
            ("", {}),
            (f"?day={detection.day}", {"day": detection.day}),
            (
                f"?range={start}:{detection.day}",
                {"window": (CALENDAR.start, detection.day)},
            ),
        ):
            expected[f"/v1/history/{prefix}{suffix}"] = Response.json(
                index.query(prefix, **window).to_dict(), headers=headers
            )
    return expected


def test_fresh_reads_equal_cold_rebuilds_at_every_day(reads_archive):
    app = ServeApp(
        MoasService(roa_table=reads_archive), archive=reads_archive
    )
    unread = ServeApp(
        MoasService(roa_table=reads_archive), archive=reads_archive
    )
    held = []
    detections = list(open_source(reads_archive).detections())
    for days, detection in enumerate(detections, start=1):
        app.fold_detection(detection)
        unread.fold_detection(detection)
        results, verdicts = cold_state(app)
        index = EpisodeIndex.build(results, verdicts=verdicts)
        served_days, served_index = app.current_index()
        assert served_days == days
        served_results = app.service.results()
        assert served_results == results
        assert served_index.to_bytes() == index.to_bytes(), days
        served = app.service.verdicts(app._registry)
        assert served == verdicts
        assert list(served.items()) == list(verdicts.items())
        for target, response in expected_reads(
            days, detection, results, verdicts, index
        ).items():
            assert app.handle("GET", target) == response, (days, target)
        if days % 10 == 0:
            held.append(
                (served_results, served, served_index, results, verdicts, index)
            )
    assert app.days_fed == len(detections) == CALENDAR.num_days
    # The memos never reach a checkpoint.
    assert app.service.snapshot_state() == unread.service.snapshot_state()
    # Snapshot isolation: what a reader got at day d still reads as
    # day d after every later fold.
    for served_results, served, served_index, results, verdicts, index in held:
        assert served_results == results
        assert served == verdicts
        assert served_index.to_bytes() == index.to_bytes()


@pytest.mark.parametrize(
    "layout", legacy.LAYOUTS[:2], ids=legacy.layout_id
)
def test_fresh_reads_after_a_legacy_resume_equal_cold_rebuilds(
    reads_archive, layout
):
    detections = list(open_source(reads_archive).detections())
    half = len(detections) // 2
    service = MoasService.resume(
        legacy.shard_payload(
            detections[:half],
            *layout,
            roa_table=RoaTable.load(reads_archive),
        )
    )
    app = ServeApp(service, archive=reads_archive)
    for days, detection in enumerate(detections[half:], start=half + 1):
        app.fold_detection(detection)
        results, verdicts = cold_state(app)
        index = EpisodeIndex.build(results, verdicts=verdicts)
        served_days, served_index = app.current_index()
        assert served_days == days
        assert app.service.results() == results
        assert served_index.to_bytes() == index.to_bytes(), days
        assert app.service.verdicts(app._registry) == verdicts
        for target, response in expected_reads(
            days, detection, results, verdicts, index
        ).items():
            assert app.handle("GET", target) == response, (days, target)
    assert app.days_fed == len(detections)


def test_cold_builds_only_when_most_records_changed(
    reads_archive, monkeypatch
):
    """A fresh index is patched unless most records changed."""
    calls = []
    real_build = EpisodeIndex.build
    real_rederived = EpisodeIndex.rederived

    def build(results, verdicts=None):
        calls.append("build")
        return real_build(results, verdicts=verdicts)

    def rederived(index, results, verdicts, prefixes):
        calls.append("rederived")
        return real_rederived(index, results, verdicts, prefixes)

    monkeypatch.setattr(EpisodeIndex, "build", staticmethod(build))
    monkeypatch.setattr(EpisodeIndex, "rederived", rederived)
    app = ServeApp(
        MoasService(roa_table=reads_archive), archive=reads_archive
    )
    for detection in open_source(reads_archive).detections():
        app.fold_detection(detection)
        app.current_index()
        app.current_index()
    assert len(calls) == CALENDAR.num_days
    assert calls[0] == "build"
    # Once ended episodes outnumber ongoing ones, every day's index is
    # patched.
    assert calls[-15:] == ["rederived"] * 15
