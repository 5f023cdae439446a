"""Property harness for the checkpointable per-prefix accumulators.

For *arbitrary* detection streams, the one per-prefix fold (the
:class:`~repro.core.episodes.EpisodeTracker` records a
:class:`~repro.core.verdict.VerdictEngine` judges) must equal a
per-conflict-day reference fold (its identity memo, and the steady
RPKI rollup it carries, are pure memoization, also across a mid-stream
resume), the day diff the tracker's pass returns must be exactly what
changed since the previous fed day, and both the tracker and
:class:`~repro.analysis.pipeline.StudyState` must survive a JSON
checkpoint round trip exactly.  A legacy sharded checkpoint of any
stream, in any layout the removed writer supported and listed in any
order, must load to the serial state and keep folding like it.  The
module also holds ``MERGE_ALGEBRA_REGISTRY``, which ``repro check``
reads statically.

Example counts come from the hypothesis profile (``dev`` for tier-1,
``ci`` for the dedicated property leg).
"""

import dataclasses
import datetime
import importlib
import json

import pytest
from hypothesis import given, strategies as st

from repro.analysis.pipeline import StudyPipeline, StudyState
from repro.api.service import MoasService
from repro.core.detector import DailyConflict, DayDetection
from repro.core.episodes import EpisodeTracker
from repro.core.verdict import VerdictEngine
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import Roa, RoaTable
from tests.core.test_verdict import ReferenceFold, roundtrip
from tests.fixtures import legacy_checkpoint_writer as legacy

#: Every checkpointable per-prefix state class in the project.  `repro
#: check` reads this tuple statically: the wire-symmetry rule
#: fingerprints each class's ``state_dict`` keys against the checkpoint
#: schema snapshot in ``tests/fixtures/checkpoint_schema.json``, and the
#: merge-algebra rule requires any class that defines ``merge`` under
#: ``src/`` to be listed here.
MERGE_ALGEBRA_REGISTRY = (
    "repro.analysis.pipeline.StudyState",
    "repro.core.episodes.EpisodeTracker",
)

START = datetime.date(1998, 1, 1)

prefixes = st.builds(
    lambda network, length: Prefix(network, length, strict=False),
    st.integers(0, 2**32 - 1),
    st.integers(8, 28),
)

origin_sets = st.frozensets(st.integers(1, 70000), min_size=2, max_size=5)


@st.composite
def detection_streams(draw, start=START):
    """A chronological stream of synthetic daily detections from
    ``start``; a day may have no conflict."""
    num_days = draw(st.integers(1, 12))
    detections = []
    for index in range(num_days):
        by_prefix = draw(
            st.dictionaries(prefixes, origin_sets, max_size=8)
        )
        conflicts = tuple(
            DailyConflict(prefix=prefix, origins=origins)
            for prefix, origins in sorted(
                by_prefix.items(), key=lambda item: item[0].sort_key()
            )
        )
        detections.append(
            DayDetection(
                day=start + datetime.timedelta(days=index),
                conflicts=conflicts,
                prefixes_scanned=len(conflicts) + 3,
                as_set_excluded=draw(st.integers(0, 2)),
            )
        )
    return detections


@st.composite
def roa_tables(draw):
    """A small ROA database over the same prefix space."""
    rows = draw(
        st.lists(
            st.builds(
                lambda prefix, slack, origin: Roa(
                    prefix, min(32, prefix.length + slack), origin
                ),
                prefixes,
                st.integers(0, 4),
                st.integers(1, 70000),
            ),
            max_size=6,
        )
    )
    return RoaTable(rows)


#: ``(count, scheme)`` of a legacy sharded layout.
legacy_layouts = st.tuples(st.integers(2, 8), st.sampled_from(legacy.SCHEMES))


def feed_state(detections, roa_table=None):
    state = StudyPipeline().start(roa_table=roa_table)
    for detection in detections:
        state.feed_day(detection)
    return state


def feed_engine(detections, roa_table=None):
    engine = VerdictEngine(roa_table=roa_table)
    for detection in detections:
        engine.feed_day(detection)
    return engine


#: Small enough that transit hops often hit another origin, so all three
#: Section V classes (and unclassifiable conflicts) turn up.
asns = st.integers(1, 8)


@st.composite
def conflict_variants(draw):
    """``(origins, paths_by_origin)`` of one conflict; paths may be absent."""
    origins = draw(
        st.frozensets(st.one_of(asns, st.just(64512)), min_size=2, max_size=4)
    )
    if draw(st.integers(0, 3)) == 0:
        return origins, ()
    paths = []
    for origin in sorted(origins):
        hops = draw(st.lists(st.lists(asns, max_size=3), max_size=2))
        paths.append((origin, tuple((*path, origin) for path in hops)))
    return origins, tuple(paths)


#: One prefix's move on one day (see :func:`play`) and a variant pick.
moves = st.tuples(
    st.sampled_from(["absent", "same", "twin", "switch", "new"]),
    st.integers(0, 2),
)


@st.composite
def conflict_plans(draw):
    """Per-prefix conflict variants plus each day's move for each prefix."""
    chosen = draw(st.lists(prefixes, min_size=1, max_size=4, unique=True))
    chosen.sort(key=lambda prefix: prefix.sort_key())
    variants = [
        (prefix, draw(st.lists(conflict_variants(), min_size=1, max_size=3)))
        for prefix in chosen
    ]
    days = draw(
        st.lists(
            st.lists(moves, min_size=len(chosen), max_size=len(chosen)),
            min_size=1,
            max_size=14,
        )
    )
    return variants, days


def play(plan):
    """Yield a plan's detections, keeping only live conflicts referenced.

    Each prefix has a current object, maybe an equal twin of it, and
    maybe a spare.  Per day: ``absent`` leaves the prefix out; ``same``
    shows the current object again; ``twin`` shows an equal but distinct
    copy of it; ``switch`` swaps the current object with the spare
    (made from the picked variant if there is none), so two distinct
    objects can alternate; ``new`` drops every object of the prefix,
    which die, for a fresh one of the picked variant.  Consumers must
    drop each detection before asking for the next.
    """
    variants, days = plan
    #: prefix -> [current, twin or None, spare or None]
    live: dict[Prefix, list] = {}
    for index, day_moves in enumerate(days):
        today = []
        for (prefix, options), (move, pick) in zip(variants, day_moves):
            if move == "absent":
                continue
            origins, paths = options[pick % len(options)]
            entry = live.get(prefix)
            if move == "switch" and entry is not None:
                if entry[2] is None:
                    entry[2] = DailyConflict(prefix, origins, paths)
                entry[:] = [entry[2], None, entry[0]]
            elif move == "new" or entry is None:
                if entry is not None:
                    entry.clear()  # the replaced objects die here
                entry = live[prefix] = [
                    DailyConflict(prefix, origins, paths), None, None
                ]
            if move == "twin":
                if entry[1] is None:
                    entry[1] = dataclasses.replace(entry[0])
                today.append(entry[1])
            else:
                today.append(entry[0])
        yield DayDetection(
            day=START + datetime.timedelta(days=index),
            conflicts=tuple(today),
            prefixes_scanned=len(today) + 3,
            as_set_excluded=0,
        )


@st.composite
def plan_roa_tables(draw, plan):
    """A small ROA database over a plan's prefixes and their covers,
    whose windows open and close on days inside the plan's stream, so
    conflicts cross steady thresholds and meet expiring ROAs.

    Each drawn grant covers one of the plan's prefixes, at most four
    bits shorter and with a drawn max-length slack, and authorizes
    every origin of one of its variants (so whole conflicts validate),
    one of them, or another AS, all under one window.
    """
    variants, days = plan
    last = len(days) - 1
    stream_days = st.integers(0, last).map(
        lambda offset: START + datetime.timedelta(days=offset)
    )
    rows = []
    for _grant in range(draw(st.integers(0, 4))):
        prefix, options = draw(st.sampled_from(variants))
        cover = prefix.supernet(
            new_length=draw(st.integers(max(0, prefix.length - 4), prefix.length))
        )
        max_length = min(32, cover.length + draw(st.integers(0, 6)))
        origins, _paths = draw(st.sampled_from(options))
        grant = draw(st.sampled_from(["all", "one", "other"]))
        if grant == "all":
            granted = sorted(origins)
        elif grant == "one":
            granted = [draw(st.sampled_from(sorted(origins)))]
        else:
            granted = [draw(st.one_of(asns, st.just(64512)))]
        valid_from = draw(st.one_of(st.none(), stream_days, stream_days))
        valid_until = draw(st.one_of(st.none(), st.none(), stream_days))
        if valid_from is not None and valid_until is not None:
            valid_from, valid_until = sorted((valid_from, valid_until))
        rows.extend(
            Roa(cover, max_length, origin, valid_from, valid_until)
            for origin in granted
        )
    return RoaTable(rows)


@st.composite
def plans_with_tables(draw):
    """A :func:`conflict_plans` plan and a :func:`plan_roa_tables`
    table over it."""
    plan = draw(conflict_plans())
    return plan, draw(plan_roa_tables(plan))


class TestVerdictEngineIdentityMemo:
    """The fold classifies distinct objects once, yet equals the
    per-conflict-day reference fold on any stream of recurring, twin,
    alternating, replaced and pathless conflicts, under ROAs that open
    and expire inside the stream."""

    @given(plans_with_tables(), st.integers(0, 14))
    def test_engine_equals_per_conflict_day_reference(
        self, plan_and_table, restore_day
    ):
        plan, table = plan_and_table
        reference = ReferenceFold(roa_table=table)
        serial = VerdictEngine(roa_table=table)
        for index, detection in enumerate(play(plan)):
            if index == restore_day:  # resume mid-stream, memo empty
                serial = roundtrip(serial)
            for fold in (reference, serial):
                fold.feed_day(detection)
            del detection  # let replaced conflicts die before the next day
        expected = reference.state_dict()
        assert serial.tracker.state_dict() == expected
        assert roundtrip(serial).tracker.state_dict() == expected
        assert serial.finalize() == reference.finalize()


def tracker_roundtrip(tracker: EpisodeTracker) -> EpisodeTracker:
    """``tracker`` taken through a JSON checkpoint (its memo empty)."""
    return EpisodeTracker.from_state(
        json.loads(json.dumps(tracker.state_dict()))
    )


class TestDayDiff:
    """:meth:`EpisodeTracker.observe_day` returns exactly the change
    since the previous fed day: the conflicts that are not the object
    their prefix was fed then, in detection order, and the prefixes fed
    then and not today.  Applied to the previous day's ``{prefix:
    origins}`` map it gives today's.  Right after a restore the memo is
    empty, so every conflict of the next day is changed."""

    @given(conflict_plans(), st.integers(0, 14))
    def test_diff_is_the_change_since_the_previous_day(
        self, plan, restore_day
    ):
        tracker = EpisodeTracker()
        objects: dict[Prefix, DailyConflict] = {}
        for index, detection in enumerate(play(plan)):
            restored = index == restore_day
            if restored:
                tracker = tracker_roundtrip(tracker)
            changed, departed = tracker.observe_day(
                detection.day, detection.conflicts
            )
            today = {conflict.prefix: conflict for conflict in detection.conflicts}
            expected = [
                conflict
                for conflict in detection.conflicts
                if restored or objects.get(conflict.prefix) is not conflict
            ]
            # By identity: an equal twin is a changed object too.
            assert list(map(id, changed)) == list(map(id, expected))
            assert len(departed) == len(set(departed))
            assert set(departed) == objects.keys() - today.keys()
            origins = {
                prefix: conflict.origins for prefix, conflict in objects.items()
            }
            for prefix in departed:
                del origins[prefix]
            for conflict in changed:
                origins[conflict.prefix] = conflict.origins
            assert origins == {
                prefix: conflict.origins for prefix, conflict in today.items()
            }
            objects = today
            del detection, today, changed, expected


class TestMergeAlgebraRegistry:
    """The registry contract `repro check` enforces statically."""

    @pytest.mark.parametrize("dotted", MERGE_ALGEBRA_REGISTRY)
    def test_registered_class_has_full_algebra(self, dotted):
        module_name, _, class_name = dotted.rpartition(".")
        cls = getattr(importlib.import_module(module_name), class_name)
        assert callable(cls.state_dict)
        assert callable(cls.from_state)

    @given(detection_streams(), roa_tables())
    def test_engine_state_survives_json_roundtrip(self, detections, table):
        engine = feed_engine(detections, roa_table=table)
        clone = roundtrip(engine)
        assert clone.finalize() == engine.finalize()
        assert clone.tracker.state_dict() == engine.tracker.state_dict()

    @given(detection_streams(), roa_tables())
    def test_study_state_survives_json_roundtrip(self, detections, table):
        state = feed_state(detections, roa_table=table)
        payload = json.loads(json.dumps(state.state_dict()))
        clone = StudyState.from_state(payload, roa_table=table)
        assert clone.results() == state.results()
        assert clone.state_dict() == state.state_dict()


def per_conflict_tally(detections) -> dict:
    """The per-year prefix-length tally counted one conflict-day at a
    time, in the checkpoint's string-keyed layout: every day creates
    its year's bucket, and only the lengths seen get a key."""
    sums: dict[str, dict[str, int]] = {}
    for detection in detections:
        bucket = sums.setdefault(str(detection.day.year), {})
        for conflict in detection.conflicts:
            key = str(conflict.prefix.length)
            bucket[key] = bucket.get(key, 0) + 1
    return sums


def v3_payload(state: StudyState) -> dict:
    """``state`` as a version-3 checkpoint payload, which embedded the
    ROA rows where version 4 names the table by digest."""
    payload = state.state_dict()
    tracker = {
        key: value for key, value in payload["tracker"].items() if key != "roa_digest"
    }
    table = state.roa_table
    tracker["roas"] = (
        [roa.to_dict() for roa in table] if table is not None else None
    )
    return {
        "version": 3,
        "pipeline": state.pipeline.config_dict(),
        "state": {**payload, "tracker": tracker},
    }


#: Late December: a stream from here may cross into the next year.
YEAR_END = datetime.date(1998, 12, 26)


class TestLiveLengthTally:
    """The per-length tally the fold keeps from the live conflict map
    equals the per-conflict-day tally, over streams with zero-conflict
    days that cross a year boundary, also after a resume from a
    version-3 or a legacy checkpoint in the middle of a year."""

    @given(
        detection_streams(start=YEAR_END),
        roa_tables(),
        st.integers(0, 12),
        st.sampled_from(["none", "v3", "legacy"]),
    )
    def test_live_tally_equals_the_per_conflict_tally(
        self, detections, table, split, resume
    ):
        head, tail = detections[:split], detections[split:]
        if resume == "v3":
            service = MoasService.resume(
                v3_payload(feed_state(head, roa_table=table))
            )
            assert service.checkpoint_version == 3
        elif resume == "legacy":
            service = MoasService.resume(
                legacy.shard_payload(head, 2, "hash", roa_table=table)
            )
            assert service.resumed_legacy
        else:
            service = MoasService(roa_table=table)
            service.feed(head)
        service.feed(tail)
        expected = per_conflict_tally(detections)
        assert service.snapshot_state()["state"]["length_sums"] == expected
        assert service.results().length_distribution == (
            feed_state(detections).results().length_distribution
        )


class TestLegacyShardMerge:
    """Legacy sharded checkpoints merge once, at load, into the serial
    state: the property the removed partition suites proved for the
    in-process merge, now for the only place shards still enter."""

    @given(
        detection_streams(),
        legacy_layouts,
        st.randoms(use_true_random=False),
    )
    def test_any_layout_loads_to_serial(self, detections, layout, rng):
        count, scheme = layout
        payload = legacy.shard_payload(detections, count, scheme)
        rng.shuffle(payload["shards"])  # manifest order must not matter
        loaded = MoasService.resume(payload).results()
        assert loaded == feed_state(detections).results()

    @given(detection_streams(), roa_tables(), legacy_layouts)
    def test_layout_with_roa_table_loads_to_serial(
        self, detections, table, layout
    ):
        serial = feed_state(detections, roa_table=table).results()
        loaded = MoasService.resume(
            legacy.shard_payload(detections, *layout, roa_table=table)
        )
        assert loaded.roa_table == table
        assert loaded.results() == serial
        assert loaded.results().rpki_episode_states == (
            serial.rpki_episode_states
        )

    @given(detection_streams(), legacy_layouts, st.integers(0, 12))
    def test_loaded_state_keeps_folding_like_serial(
        self, detections, layout, split
    ):
        split = min(split, len(detections))
        service = MoasService.resume(
            legacy.shard_payload(detections[:split], *layout)
        )
        service.feed(detections[split:])
        assert service.results() == feed_state(detections).results()
        restored = StudyState.from_state(
            json.loads(json.dumps(service.snapshot_state()["state"]))
        )
        assert restored.results() == service.results()
