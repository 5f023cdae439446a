"""A resumed serve session answers and alerts as an uninterrupted one.

The checkpoint carries the one per-prefix fold — episode records with
their class votes and RPKI rollups — and the conflict origin map the
alerts derive from.  So a ``ServeApp`` checkpointed after any day N and
resumed with ``MoasService.load_checkpoint`` must give every route the
uninterrupted app's status, body and ``X-Repro-Days``, both at day N
and once the stream is done, and raise the same alerts, in the same
order, from day N+1 on.  A daemon-level example stops a
``BackgroundServer`` mid-ingestion and restarts it on its shutdown
checkpoint without ``--rpki``: the ROA table comes back from the rows
file the checkpoint names.

Example counts come from the hypothesis profile (``dev`` for tier-1,
``ci`` for the dedicated property leg).
"""

from __future__ import annotations

import datetime
import json
import time

import pytest
from hypothesis import given, strategies as st

from repro.api.renderers import available_renderings
from repro.api.serve import BackgroundServer, ServeApp, ServeConfig
from repro.api.service import MoasService, roa_rows_path
from repro.api.sources import open_source
from repro.netbase.rpki import RoaTable
from repro.scenario.incidents import IncidentScript
from repro.scenario.rpki import RpkiConfig
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar
from tests.api.test_serve import http_get, wait_for_ingest

CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1997, 12, 7)
)  # 30 days


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A 30-day ``--rpki`` archive with the canned incident suite."""
    directory = tmp_path_factory.mktemp("resume") / "archive"
    simulate_study(
        directory,
        ScenarioConfig(
            scale=0.02,
            calendar=CALENDAR,
            paper_archive_gaps=False,
            incidents=IncidentScript.canned(CALENDAR.num_days),
            rpki=RpkiConfig(
                coverage=0.3, stale_fraction=0.3, misissue_fraction=0.2
            ),
        ),
    )
    return directory


@pytest.fixture(scope="module")
def detections(archive):
    return list(open_source(archive).detections())


def fresh_app(archive) -> ServeApp:
    return ServeApp(MoasService(roa_table=archive), archive=archive)


def targets(detections) -> list[str]:
    """Every route the resume must answer alike."""
    found = [
        f"/v1/figure/{figure}?format={format}"
        for figure, formats in sorted(available_renderings().items())
        if figure != "evaluation"
        for format in formats
    ]
    found += [
        "/v1/verdicts",
        "/v1/verdicts?min_suspicion=0.6",
        "/v1/verdicts?kind=exact_hijack",
        "/v1/verdicts?kind=organic&min_suspicion=0.3",
    ]
    found += [f"/v1/evaluation?format={fmt}" for fmt in ("ascii", "csv", "json")]
    prefixes: list = []
    for detection in detections:
        for conflict in detection.conflicts[:2]:
            if conflict.prefix not in prefixes:
                prefixes.append(conflict.prefix)
    middle = detections[len(detections) // 2].day
    for prefix in prefixes[:: max(1, len(prefixes) // 8)]:
        found += [
            f"/v1/episodes/{prefix}",
            f"/v1/history/{prefix}",
            f"/v1/history/{prefix}?day={middle}",
            f"/v1/history/{prefix}?range={CALENDAR.start}:{middle}",
        ]
    return found


def answers(app: ServeApp, routes: list[str]) -> dict:
    """``target -> (status, X-Repro-Days, body)`` of every route."""
    found = {}
    for target in routes:
        response = app.handle("GET", target)
        found[target] = (
            response.status,
            response.headers.get("X-Repro-Days"),
            response.body,
        )
    return found


@pytest.fixture(scope="module")
def uninterrupted(archive, detections):
    """``(alerts per day, final answers)`` of an app fed every day."""
    app = fresh_app(archive)
    alerts = [
        [alert.to_dict() for alert in app.fold_detection(detection)]
        for detection in detections
    ]
    return alerts, answers(app, targets(detections))


@given(st.data())
def test_resumed_app_answers_and_alerts_like_the_uninterrupted_one(
    archive, detections, uninterrupted, tmp_path_factory, data
):
    expected_alerts, expected_answers = uninterrupted
    routes = targets(detections)
    day = data.draw(st.integers(0, len(detections)), label="resume after day")
    before = fresh_app(archive)
    for detection in detections[:day]:
        before.fold_detection(detection)
    path = before.service.save_checkpoint(
        tmp_path_factory.mktemp("ckpt") / "serve.ckpt"
    )
    resumed = ServeApp(MoasService.load_checkpoint(path), archive=archive)
    assert not resumed.service.resumed_legacy
    assert answers(resumed, routes) == answers(before, routes)
    alerts = [
        [alert.to_dict() for alert in resumed.fold_detection(detection)]
        for detection in detections[day:]
    ]
    assert alerts == expected_alerts[day:]
    assert answers(resumed, routes) == expected_answers


def wait_for_days(url: str, days: int, timeout: float = 120) -> None:
    """Poll ``/v1/status`` until at least ``days`` days folded."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _status, _headers, body = http_get(url + "/v1/status")
        if json.loads(body)["days_fed"] >= days:
            return
        time.sleep(0.02)
    raise AssertionError(f"daemon did not reach {days} days")


def test_daemon_restarted_on_its_shutdown_checkpoint(
    archive, detections, tmp_path
):
    routes = ("/v1/verdicts", "/v1/evaluation")

    def bodies(url: str) -> dict:
        return {route: http_get(url + route)[2] for route in routes}

    with BackgroundServer(ServeConfig(archive=archive, port=0)) as url:
        wait_for_ingest(url)
        straight = bodies(url)
    config = ServeConfig(
        archive=archive,
        port=0,
        checkpoint=tmp_path / "serve.ckpt",
        ingest_delay=0.02,
    )
    server = BackgroundServer(config)
    url = server.start()
    try:
        wait_for_days(url, len(detections) // 3)
    finally:
        server.stop()
    stopped = MoasService.load_checkpoint(config.checkpoint)
    stopped_at = stopped.days_fed
    assert 0 < stopped_at < len(detections)
    # The table was the archive's; its rows sit beside the checkpoint.
    table = RoaTable.load(archive)
    assert stopped.roa_table == table
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        roa_rows_path(config.checkpoint, table.digest).name,
        "serve.ckpt",
    ]
    assert config.rpki is None
    with BackgroundServer(config) as url:
        status = wait_for_ingest(url)
        assert status["rpki"] is True
        assert status["days_fed"] == len(detections)
        assert status["ingest"]["days_ingested"] == (
            len(detections) - stopped_at
        )
        assert bodies(url) == straight
