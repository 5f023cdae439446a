"""Differential/property harness for the merge algebra.

The PR 4 golden suite pins a handful of fixed workers x shards layouts
over generated worlds; this module generalizes the invariant with
hypothesis: for *arbitrary* detection streams, *any* shard partition of
the prefix space — any shard count, either scheme, merged in any order
— must reproduce the serial result exactly, for both
:class:`~repro.analysis.pipeline.StudyState` and
:class:`~repro.core.verdict.VerdictEngine`, and ``merge`` itself must
be associative.

Example counts come from the hypothesis profile (``dev`` for tier-1,
``ci`` for the dedicated slow leg); the deepest sweeps are additionally
marked ``slow``.
"""

import dataclasses
import datetime
import importlib
import json

import pytest
from hypothesis import given, strategies as st

from repro.analysis.pipeline import StudyPipeline, StudyState
from repro.core.detector import DailyConflict, DayDetection
from repro.core.verdict import VerdictEngine
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import Roa, RoaTable
from repro.netbase.sharding import ShardSpec
from tests.core.test_verdict import ReferenceFold, roundtrip

#: Every shard-combinable state class in the project.  `repro check`'s
#: merge-algebra rule reads this tuple statically: a class that defines
#: ``merge`` anywhere under ``src/`` must be listed here, which forces
#: it through the differential tests below (and through the checkpoint
#: schema snapshot in ``tests/fixtures/checkpoint_schema.json``).
MERGE_ALGEBRA_REGISTRY = (
    "repro.analysis.pipeline.StudyState",
    "repro.core.episodes.EpisodeTracker",
    "repro.core.verdict.VerdictEngine",
)

START = datetime.date(1998, 1, 1)

prefixes = st.builds(
    lambda network, length: Prefix(network, length, strict=False),
    st.integers(0, 2**32 - 1),
    st.integers(8, 28),
)

origin_sets = st.frozensets(st.integers(1, 70000), min_size=2, max_size=5)


@st.composite
def detection_streams(draw):
    """A chronological stream of synthetic daily detections."""
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
                day=START + datetime.timedelta(days=index),
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


partitions = st.tuples(
    st.integers(2, 5), st.sampled_from(["hash", "range"])
)


def feed_state(detections, shard=None, roa_table=None):
    state = StudyPipeline().start(shard=shard, roa_table=roa_table)
    for detection in detections:
        state.feed_day(detection)
    return state


def feed_engine(detections, shard=None, roa_table=None):
    engine = VerdictEngine(shard=shard, roa_table=roa_table)
    for detection in detections:
        engine.feed_day(detection)
    return engine


class TestStudyStatePartitions:
    @given(detection_streams(), partitions, st.randoms(use_true_random=False))
    def test_any_partition_reproduces_serial(
        self, detections, partition, rng
    ):
        count, scheme = partition
        serial = feed_state(detections).results()
        shards = list(ShardSpec.partition(count, scheme))
        rng.shuffle(shards)  # merge order must not matter
        states = [
            feed_state(detections, shard=shard) for shard in shards
        ]
        assert StudyState.merged(states).results() == serial

    @given(detection_streams(), roa_tables())
    def test_partition_with_roa_table_reproduces_serial(
        self, detections, table
    ):
        serial = feed_state(detections, roa_table=table).results()
        states = [
            feed_state(detections, shard=shard, roa_table=table)
            for shard in ShardSpec.partition(3)
        ]
        merged = StudyState.merged(states).results()
        assert merged == serial
        assert merged.rpki_episode_states == serial.rpki_episode_states

    @given(detection_streams())
    def test_merge_is_associative(self, detections):
        a, b, c = (
            feed_state(detections, shard=shard)
            for shard in ShardSpec.partition(3)
        )
        left = a.merge(b).merge(c)
        right = a.merge(b.merge(c))
        assert left.results() == right.results()
        assert left.shard == right.shard

    @pytest.mark.slow
    @given(
        detection_streams(),
        st.integers(2, 8),
        st.sampled_from(["hash", "range"]),
        st.randoms(use_true_random=False),
    )
    def test_deep_partition_sweep(self, detections, count, scheme, rng):
        serial = feed_state(detections).results()
        shards = list(ShardSpec.partition(count, scheme))
        rng.shuffle(shards)
        states = [
            feed_state(detections, shard=shard) for shard in shards
        ]
        # Fold in pairs from a shuffled order: a different merge tree
        # than the left fold StudyState.merged performs.
        while len(states) > 1:
            states = [
                states[i].merge(states[i + 1])
                if i + 1 < len(states)
                else states[i]
                for i in range(0, len(states), 2)
            ]
        assert states[0].results() == serial


class TestVerdictEnginePartitions:
    @given(detection_streams(), partitions, st.randoms(use_true_random=False))
    def test_any_partition_reproduces_serial(
        self, detections, partition, rng
    ):
        count, scheme = partition
        serial = feed_engine(detections).finalize()
        shards = list(ShardSpec.partition(count, scheme))
        rng.shuffle(shards)
        engines = [
            feed_engine(detections, shard=shard) for shard in shards
        ]
        assert VerdictEngine.merged(engines).finalize() == serial

    @given(detection_streams(), roa_tables())
    def test_partition_with_roa_table_reproduces_serial(
        self, detections, table
    ):
        serial = feed_engine(detections, roa_table=table).finalize()
        engines = [
            feed_engine(detections, shard=shard, roa_table=table)
            for shard in ShardSpec.partition(4)
        ]
        merged = VerdictEngine.merged(engines)
        assert merged.finalize() == serial
        assert merged.roa_table == table

    @given(detection_streams())
    def test_merge_is_associative(self, detections):
        a, b, c = (
            feed_engine(detections, shard=shard)
            for shard in ShardSpec.partition(3)
        )
        assert a.merge(b).merge(c).finalize() == a.merge(
            b.merge(c)
        ).finalize()

    @pytest.mark.slow
    @given(
        detection_streams(),
        st.integers(2, 8),
        st.sampled_from(["hash", "range"]),
        roa_tables(),
    )
    def test_deep_partition_sweep_with_rpki(
        self, detections, count, scheme, table
    ):
        serial = feed_engine(detections, roa_table=table).finalize()
        engines = [
            feed_engine(detections, shard=shard, roa_table=table)
            for shard in ShardSpec.partition(count, scheme)
        ]
        assert VerdictEngine.merged(engines).finalize() == serial


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


def evidence_by_prefix(state: dict) -> dict:
    return {(network, length): row for network, length, row in state["evidence"]}


class TestVerdictEngineIdentityMemo:
    """The engine classifies distinct objects once, yet equals the
    per-conflict-day reference fold on any stream of recurring, twin,
    alternating, replaced and pathless conflicts."""

    @given(conflict_plans(), roa_tables(), partitions, st.integers(0, 14))
    def test_engine_equals_per_conflict_day_reference(
        self, plan, table, partition, restore_day
    ):
        count, scheme = partition
        reference = ReferenceFold(roa_table=table)
        serial = VerdictEngine(roa_table=table)
        shards = [
            VerdictEngine(shard=shard, roa_table=table)
            for shard in ShardSpec.partition(count, scheme)
        ]
        for index, detection in enumerate(play(plan)):
            if index == restore_day:  # resume mid-stream, memo empty
                serial = roundtrip(serial)
                shards = [roundtrip(engine) for engine in shards]
            for fold in (reference, serial, *shards):
                fold.feed_day(detection)
            del detection  # let replaced conflicts die before the next day
        expected = reference.state_dict()
        assert serial.state_dict() == expected
        assert roundtrip(serial).state_dict() == expected
        verdicts = reference.finalize()
        assert serial.finalize() == verdicts
        merged = VerdictEngine.merged(shards)
        assert evidence_by_prefix(merged.state_dict()) == evidence_by_prefix(
            expected
        )
        assert merged.finalize() == verdicts


class TestMergeAlgebraRegistry:
    """The registry contract `repro check` enforces statically."""

    @pytest.mark.parametrize("dotted", MERGE_ALGEBRA_REGISTRY)
    def test_registered_class_has_full_algebra(self, dotted):
        module_name, _, class_name = dotted.rpartition(".")
        cls = getattr(importlib.import_module(module_name), class_name)
        assert callable(cls.merge)
        assert callable(cls.state_dict)
        assert callable(cls.from_state)

    @given(detection_streams(), roa_tables())
    def test_engine_state_survives_json_roundtrip(self, detections, table):
        engine = feed_engine(detections, roa_table=table)
        payload = json.loads(json.dumps(engine.state_dict()))
        clone = VerdictEngine.from_state(payload)
        assert clone.finalize() == engine.finalize()
        assert clone.state_dict() == engine.state_dict()

    @given(detection_streams(), partitions)
    def test_restored_engines_still_merge(self, detections, partition):
        """from_state output is a full citizen of the merge algebra."""
        count, scheme = partition
        serial = feed_engine(detections).finalize()
        engines = [
            VerdictEngine.from_state(
                json.loads(
                    json.dumps(
                        feed_engine(detections, shard=shard).state_dict()
                    )
                )
            )
            for shard in ShardSpec.partition(count, scheme)
        ]
        assert VerdictEngine.merged(engines).finalize() == serial
