"""Serve's readers, each keeping the day it last derived at, against
cold rebuilds.

Four readers in the session keep what they derived and re-derive only
what ``fed_since`` hands them from the last fed day they derived at
(the records fed since and, for the ones whose answers read the
ongoing flag, those then ongoing), plus the verdict engine's
wide-origin records: the study state's results, its verdict engine,
its episode index and its ``/v1/verdicts`` rows.  Each hands out the
same object until a day is fed.  A route reads only some of them, so
when hypothesis draws which days are fed and which routes are read on
which day, the readers fall behind by different amounts — a
figure-only read, say, never moves the index's day.  Every answer, and
the index itself, must equal what a new ``ServeApp`` over a session
restored from the checkpoint payload answers: that one has nothing to
keep and builds everything cold.  ``ServeApp`` keeps only the
evaluation it scored, so a session put in its place is answered as a
new app answers it.

The cold rebuilds share what is not derived session state: the ROA
table, which a payload lists row by row, and the registry's shapes
(:func:`shared_shapes`).  Both are immutable, so sharing them changes
no answer; it only keeps a drawn example, and so a shrink, cheap.
"""

from __future__ import annotations

import datetime
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.index import EpisodeIndex
from repro.api.renderers import available_renderings
from repro.api.serve import ServeApp, _verdict_fragment
from repro.api.service import MoasService
from repro.api.sources import open_source
from repro.core import verdict as verdict_module
from repro.core.detector import DailyConflict, DayDetection
from repro.core.verdict import Verdict
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import RoaTable
from repro.scenario.rpki import RpkiConfig
from repro.scenario.world import ScenarioConfig, simulate_study
from tests.api.test_serve_reads import CALENDAR, VERDICT_QUERIES, incident_script

#: Every ``/v1/figure`` rendering the app serves.
FIGURES = sorted(
    (figure, format)
    for figure, formats in available_renderings().items()
    if figure != "evaluation"
    for format in formats
)

#: A prefix no episode has.
ABSENT = Prefix.parse("203.0.113.0/24")


@pytest.fixture(scope="module")
def touched_archive(tmp_path_factory):
    """The 40-day v2 world of ``test_serve_reads``: an anycast incident
    that lapses, hijacks that end all through the study, and ROAs."""
    directory = tmp_path_factory.mktemp("touched") / "archive"
    simulate_study(
        directory,
        ScenarioConfig(
            scale=0.02,
            calendar=CALENDAR,
            paper_archive_gaps=False,
            archive_format="v2",
            incidents=incident_script(),
            rpki=RpkiConfig(
                coverage=0.1, stale_fraction=0.3, misissue_fraction=0.2
            ),
        ),
    )
    return directory


@pytest.fixture(scope="module")
def touched_detections(touched_archive):
    return list(open_source(touched_archive).detections())


@pytest.fixture(scope="module")
def touched_roas(touched_archive):
    """The archive's ROA table, loaded once for every example."""
    return RoaTable.load(touched_archive)


@pytest.fixture(scope="module")
def served_app(touched_archive):
    """A factory of fresh apps sharing the archive's answer keys."""
    keys = ServeApp(MoasService(), archive=touched_archive)

    def make(service: MoasService) -> ServeApp:
        app = ServeApp(service)
        app.archive = keys.archive
        app._registry, app._injected, app._organic = (
            keys._registry,
            keys._injected,
            keys._organic,
        )
        return app

    return make


@pytest.fixture(scope="module")
def shared_shapes():
    """Each registry's shapes derived once for every app of the module.

    ``_shapes`` (the owner map and the structural tags) is a pure
    function of the registry, which the verdict engine treats as
    immutable and only reads: the memo returns what the first
    derivation returned, held with its registry so a recycled id never
    matches.
    """
    derive = verdict_module._shapes
    memo: dict[int, tuple] = {}

    def shapes(registry):
        kept = memo.get(id(registry))
        if kept is None or kept[0] is not registry:
            kept = memo[id(registry)] = (registry, derive(registry))
        return kept[1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verdict_module, "_shapes", shapes)
        yield


def cold_app(app: ServeApp, make) -> ServeApp:
    """An app over the session restored from ``app``'s checkpoint
    payload, which carries no kept derivation.

    The ROA table is an immutable input, not derived state: the
    payload is taken with the table detached from the tracker, so its
    rows are neither written nor parsed again, and the restored
    session is handed the same table.
    """
    tracker = app.service._state._tracker
    table, tracker.roa_table = tracker.roa_table, None
    try:
        payload = app.service.snapshot_state()
    finally:
        tracker.roa_table = table
    service = MoasService.resume(payload)
    service.roa_table = service._state._tracker.roa_table = table
    return make(service)


def targets(data, app: ServeApp, cold: ServeApp) -> list[str]:
    """Drawn request targets over the routes a fresh read re-derives."""
    episodes = sorted(cold.service.results().episodes) or [ABSENT]
    prefix = st.sampled_from([*episodes, ABSENT])
    day = CALENDAR.start + datetime.timedelta(
        days=data.draw(st.integers(0, CALENDAR.num_days - 1))
    )
    route = st.one_of(
        st.sampled_from(FIGURES).map(
            lambda pair: f"/v1/figure/{pair[0]}?format={pair[1]}"
        ),
        st.sampled_from(VERDICT_QUERIES).map(
            lambda query: "/v1/verdicts?"
            + "&".join(f"{name}={value}" for name, value in query.items())
        ),
        prefix.map(lambda prefix: f"/v1/episodes/{prefix}"),
        st.tuples(
            prefix, st.sampled_from(["", f"?day={day}", f"?range={day}:{day}"])
        ).map(lambda pair: f"/v1/history/{pair[0]}{pair[1]}"),
        st.sampled_from(["json", "csv"]).map(
            lambda format: f"/v1/evaluation?format={format}"
        ),
    )
    return data.draw(st.lists(route, min_size=1, max_size=3))


def assert_reads_equal_cold(data, app: ServeApp, make) -> None:
    cold = cold_app(app, make)
    chosen = targets(data, app, cold)
    for target in chosen:
        assert app.handle("GET", target) == cold.handle("GET", target), target
    if any(target.startswith(("/v1/episodes", "/v1/history")) for target in chosen):
        assert (
            app.current_index()[1].to_bytes()
            == cold.current_index()[1].to_bytes()
        )


@given(st.data())
def test_interleaved_reads_equal_cold_rebuilds(
    served_app, touched_roas, touched_detections, shared_shapes, data
):
    app = served_app(MoasService(roa_table=touched_roas))
    for detection in touched_detections:
        # Skipped days make the drawn stream: episodes flap and end,
        # and the anycast incident lapses sooner or later.
        if data.draw(st.integers(0, 4), label="skip") == 0:
            continue
        app.fold_detection(detection)
        if data.draw(st.booleans(), label="read"):
            assert_reads_equal_cold(data, app, served_app)
    if app.days_fed:
        cold = cold_app(app, served_app)
        assert (
            app.current_index()[1].to_bytes()
            == cold.current_index()[1].to_bytes()
        )
        assert app.service.verdicts(app._registry) == cold.service.verdicts(
            cold._registry
        )
        assert app.service.results() == cold.service.results()


def test_a_loaded_checkpoint_goes_cold(
    served_app, touched_archive, touched_detections, tmp_path, monkeypatch
):
    """A session loaded from a checkpoint mid-stream is another
    session: the next index is built cold, later ones are patched, and
    every answer equals a cold rebuild."""
    app = served_app(MoasService(roa_table=touched_archive))
    half = len(touched_detections) // 2
    for detection in touched_detections[:half]:
        app.fold_detection(detection)
        app.current_index()
        app.handle("GET", "/v1/verdicts")
    app.service = MoasService.load_checkpoint(
        app.service.save_checkpoint(tmp_path / "serve.ckpt")
    )
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
    for detection in touched_detections[half:]:
        app.fold_detection(detection)
        cold = cold_app(app, served_app)
        for target in ("/v1/verdicts", "/v1/figure/summary?format=json"):
            assert app.handle("GET", target) == cold.handle("GET", target)
        results = cold.service.results()
        verdicts = cold.service.verdicts(cold._registry)
        assert (
            app.current_index()[1].to_bytes()
            == real_build(results, verdicts=verdicts).to_bytes()
        )
    assert calls[0] == "build"
    assert calls[-10:] == ["rederived"] * 10


def detection_of(day: datetime.date, conflicts) -> DayDetection:
    return DayDetection(
        day=day,
        conflicts=tuple(conflicts),
        prefixes_scanned=len(conflicts),
        as_set_excluded=0,
    )


def test_patched_reads_follow_lapses_and_endings(monkeypatch):
    """Most records stand still, so every fresh index is patched; the
    wide-origin prefix's anycast call lapses as the study grows, and
    the daily conflicts end one after another, all unfed."""
    start = datetime.date(1998, 1, 1)
    standing = [Prefix(0x0A000000 | (n << 8), 24) for n in range(60)]
    wide = Prefix.parse("192.0.2.0/24")
    daily = [Prefix(0x0B000000 | (n << 8), 24) for n in range(30)]
    rederived = []
    real_rederived = EpisodeIndex.rederived

    def spy(index, results, verdicts, prefixes):
        rederived.append(len(results.episodes))
        return real_rederived(index, results, verdicts, prefixes)

    monkeypatch.setattr(EpisodeIndex, "rederived", spy)
    app = ServeApp(MoasService())
    for offset in range(30):
        conflicts = [
            DailyConflict(prefix=prefix, origins=frozenset((1, 2)))
            for prefix in daily[offset : offset + 2]
        ]
        if offset == 0:
            conflicts += [
                DailyConflict(prefix=prefix, origins=frozenset((3, 4)))
                for prefix in standing
            ]
        if offset < 6:
            conflicts.append(
                DailyConflict(prefix=wide, origins=frozenset(range(5, 10)))
            )
        app.fold_detection(
            detection_of(start + datetime.timedelta(days=offset), conflicts)
        )
        cold = ServeApp(MoasService.resume(app.service.snapshot_state()))
        for target in (
            "/v1/verdicts",
            f"/v1/history/{wide}",
            f"/v1/episodes/{daily[offset]}",
            "/v1/figure/summary?format=json",
        ):
            assert app.handle("GET", target) == cold.handle("GET", target)
        assert (
            app.current_index()[1].to_bytes()
            == cold.current_index()[1].to_bytes()
        )
    # Only the first index and the next, when the standing conflicts
    # all end, are built cold.
    assert len(rederived) == 28
    assert app.service.verdicts()[wide].kind != "anycast"


def test_a_session_of_another_stream_goes_cold(
    served_app, touched_archive, touched_detections, monkeypatch
):
    """``app.service`` replaced by a session fed a different stream
    over the same days: the other stream also has one-day conflicts on
    the first day.  Asked from the old session's last day, the new one
    would hand over only the records fed since and those then ongoing,
    few enough to patch, so an index or verdict rows kept across the
    swap would lack those conflicts in every later answer; the new
    session keeps its own, so its first index is built cold."""
    app = served_app(MoasService(roa_table=touched_archive))
    other = MoasService(roa_table=touched_archive)
    one_day = [
        DailyConflict(
            prefix=Prefix(0xC6120000 | (n << 8), 24), origins=frozenset((1, 2))
        )
        for n in range(40)
    ]
    assert not {conflict.prefix for conflict in one_day}.intersection(
        conflict.prefix
        for detection in touched_detections
        for conflict in detection.conflicts
    )
    half = len(touched_detections) // 2
    for offset, detection in enumerate(touched_detections[:half]):
        app.fold_detection(detection)
        other.feed_day(
            detection_of(
                detection.day,
                [*detection.conflicts, *(one_day if offset == 0 else ())],
            )
        )
        app.current_index()
        app.handle("GET", "/v1/verdicts")
    app.service = other
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
    made = []  # how each of the app's indexes was made
    for detection in touched_detections[half:]:
        app.fold_detection(detection)
        del calls[:]
        index = app.current_index()[1]
        made += calls
        cold = cold_app(app, served_app)
        for target in (
            "/v1/verdicts",
            "/v1/verdicts?min_suspicion=0.6",
            "/v1/figure/summary?format=json",
            "/v1/evaluation?format=json",
            *(
                f"/v1/{route}/{prefix}"
                for route in ("episodes", "history")
                for prefix in sorted(cold.service.results().episodes)[::5]
            ),
        ):
            assert app.handle("GET", target) == cold.handle("GET", target)
        assert index.to_bytes() == cold.current_index()[1].to_bytes()
    assert made[0] == "build"
    assert made[-10:] == ["rederived"] * 10


def test_a_swapped_session_is_answered_as_a_new_app_answers_it(
    served_app, touched_archive, touched_detections
):
    """``app.service`` replaced by a session of another stream fed as
    many days, and read with no fold in between: every route, and the
    index, answers what a new app over that session answers, though
    the app read every route at the same day count of the old one."""
    app = served_app(MoasService(roa_table=touched_archive))
    other = MoasService(roa_table=touched_archive)
    # One-day conflicts every third day: more episodes, other counts
    # and extra short-lived verdicts in every answer.
    extra = [
        DailyConflict(
            prefix=Prefix(0xC6120000 | (n << 8), 24), origins=frozenset((1, 2))
        )
        for n in range(40)
    ]
    half = len(touched_detections) // 2
    for offset, detection in enumerate(touched_detections[:half]):
        app.fold_detection(detection)
        other.feed_day(
            detection_of(
                detection.day,
                [
                    *detection.conflicts,
                    *(extra[offset : offset + 4] if offset % 3 == 0 else ()),
                ],
            )
        )
    episodes = sorted(other.results().episodes)
    chosen = [*episodes[::7], *(conflict.prefix for conflict in extra[:4])]
    reads = [
        *(f"/v1/figure/{figure}?format={format}" for figure, format in FIGURES),
        *(
            "/v1/verdicts?"
            + "&".join(f"{name}={value}" for name, value in query.items())
            for query in VERDICT_QUERIES
        ),
        "/v1/evaluation?format=json",
        "/v1/evaluation?format=csv",
        *(
            f"/v1/{route}/{prefix}"
            for route in ("episodes", "history")
            for prefix in chosen
        ),
    ]
    for target in reads:
        app.handle("GET", target)
    app.current_index()
    app.service = other
    fresh = served_app(other)
    cold = cold_app(app, served_app)
    for target in reads:
        answer = app.handle("GET", target)
        assert answer == fresh.handle("GET", target), target
        assert answer == cold.handle("GET", target), target
    assert (
        app.current_index()[1].to_bytes()
        == fresh.current_index()[1].to_bytes()
        == cold.current_index()[1].to_bytes()
    )


def test_daily_reads_keep_the_order_at_one_entry_per_record():
    """A long stream read every day, by some readers only, never grows
    the last-fed order past one entry per record, and the readers that
    fell behind still answer what a cold app answers."""
    prefixes = [Prefix(0x0A000000 | (n << 8), 24) for n in range(60)]
    start = datetime.date(1998, 1, 1)
    app = ServeApp(MoasService())
    tracker = app.service._state._tracker
    routes = ("/v1/figure/summary?format=json", "/v1/verdicts", None)
    for offset in range(400):
        live = prefixes[offset % 7 : 10 + offset % 53 : 1 + offset % 3]
        app.fold_detection(
            detection_of(
                start + datetime.timedelta(days=offset),
                [
                    DailyConflict(
                        prefix=prefix,
                        origins=frozenset((1, 2 + (offset + n) % 4)),
                    )
                    for n, prefix in enumerate(live)
                ],
            )
        )
        route = routes[offset % len(routes)]
        if route is not None:
            assert app.handle("GET", route).status == 200
        if offset % 50 == 0:
            app.current_index()
        assert len(tracker._order) == len(tracker)
    cold = ServeApp(MoasService.resume(app.service.snapshot_state()))
    for route in routes[:2]:
        assert app.handle("GET", route) == cold.handle("GET", route)
    assert (
        app.current_index()[1].to_bytes() == cold.current_index()[1].to_bytes()
    )


# -- /v1/verdicts fragments ------------------------------------------------

texts = st.text(min_size=1, max_size=12)
asn_sets = st.frozensets(st.integers(0, 2**32 - 1), max_size=4)


@given(
    st.builds(
        Verdict,
        prefix=st.builds(
            lambda network, length: Prefix(network, length, strict=False),
            st.integers(0, 2**32 - 1),
            st.integers(0, 32),
        ),
        kind=texts,
        tags=st.frozensets(texts, max_size=4),
        suspicion=st.one_of(
            st.sampled_from([0.0, 1.0, 0.5]),
            st.floats(0, 1).map(lambda value: round(value, 4)),
        ),
        days_observed=st.integers(0, 10**6),
        origins=asn_sets,
        perpetrators=asn_sets,
        rpki_state=st.one_of(st.none(), texts),
    )
)
def test_fragment_equals_json_dumps(verdict):
    expected = "    " + json.dumps(verdict.to_dict(), indent=2).replace(
        "\n", "\n    "
    )
    assert _verdict_fragment(verdict) == expected.encode()
