"""Tests for the unified per-episode verdict engine.

The engine judges :class:`~repro.core.episodes.EpisodeTracker` records,
so its evidence is the one per-prefix fold; :class:`ReferenceFold` is
the per-conflict-day reference that fold is checked against.
"""

import datetime
import gc
import json
import weakref
from collections import Counter

import pytest

from repro.core import classifier as classifier_module
from repro.core import verdict as verdict_module
from repro.core.classifier import ConflictClass, classify_conflict
from repro.core.detector import DailyConflict, DayDetection
from repro.core.episodes import EpisodeTracker
from repro.core.verdict import (
    ANYCAST_MIN_SHARE,
    KIND_ORGANIC,
    TAG_FLAPPING,
    TAG_FOREIGN_AGGREGATE,
    TAG_FOREIGN_SUBPREFIX,
    TAG_IXP,
    TAG_LONG_LIVED,
    TAG_ORIG_TRAN_AS,
    TAG_PRIVATE_ASN,
    TAG_SHORT_LIVED,
    TAG_WIDE_ORIGIN_SET,
    VerdictEngine,
)
from repro.netbase.prefix import Prefix
from repro.scenario.archive import (
    FLAG_AS_SET_TAIL,
    FLAG_EXCHANGE_POINT,
    RegistryEntry,
)

DAY0 = datetime.date(1998, 1, 1)


class ReferenceFold:
    """The per-conflict-day verdict fold, kept here as the test oracle.

    Classifies every conflict-day afresh and memoizes nothing.  Its
    :meth:`state_dict` is the payload an engine's
    ``tracker.state_dict()`` must equal after the same days, and
    :meth:`finalize` judges that evidence through a fresh engine.
    """

    def __init__(self, *, roa_table=None):
        self.roa_table = roa_table
        self.days = []
        self.evidence: dict[Prefix, dict] = {}

    def feed_day(self, detection: DayDetection) -> None:
        self.days.append(detection.day)
        for daily in detection.conflicts:
            prefix = daily.prefix
            row = self.evidence.get(prefix)
            if row is None:
                row = self.evidence[prefix] = {
                    "first_day": detection.day,
                    "days": 0,
                    "origins": set(),
                    "max_width": 0,
                    "class_votes": Counter(),
                    "rpki_state": None,
                }
            row["last_day"] = detection.day
            row["days"] += 1
            row["origins"] |= daily.origins
            row["max_width"] = max(row["max_width"], len(daily.origins))
            try:
                row["class_votes"][classify_conflict(daily)] += 1
            except ValueError:
                pass
            if self.roa_table is not None:
                row["rpki_state"] = self.roa_table.fold_episode_state(
                    row["rpki_state"], prefix, daily.origins, day=detection.day
                )

    def state_dict(self) -> dict:
        return {
            "days": [day.isoformat() for day in self.days],
            "roas": (
                [roa.to_dict() for roa in self.roa_table]
                if self.roa_table is not None
                else None
            ),
            "prefixes": [
                [
                    prefix.network,
                    prefix.length,
                    row["first_day"].isoformat(),
                    row["last_day"].isoformat(),
                    row["days"],
                    sorted(row["origins"]),
                    row["max_width"],
                    [row["class_votes"][found] for found in ConflictClass],
                    (
                        row["rpki_state"].value
                        if row["rpki_state"] is not None
                        else None
                    ),
                ]
                for prefix, row in self.evidence.items()
            ],
        }

    def finalize(self, registry=None):
        tracker = EpisodeTracker.from_state(self.state_dict())
        return VerdictEngine(tracker=tracker).finalize(registry=registry)


def roundtrip(engine: VerdictEngine) -> VerdictEngine:
    """``engine`` over its tracker taken through a JSON checkpoint."""
    return VerdictEngine(
        tracker=EpisodeTracker.from_state(
            json.loads(json.dumps(engine.tracker.state_dict()))
        )
    )


def counting(monkeypatch, name: str, module=verdict_module) -> list:
    """Record every call to ``<module>.<name>``."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def classifications(monkeypatch) -> list:
    """Record every conflict the class memo classifies."""
    return counting(monkeypatch, "classify_conflict", classifier_module)


def conflict(prefix: str, *origins: int, paths=None) -> DailyConflict:
    if paths is None:
        paths = {origin: ((origin + 100, origin),) for origin in origins}
    return DailyConflict(
        prefix=Prefix.parse(prefix),
        origins=frozenset(origins),
        paths_by_origin=tuple(sorted(paths.items())),
    )


def detection(day_offset: int, *conflicts: DailyConflict) -> DayDetection:
    return DayDetection(
        day=DAY0 + datetime.timedelta(days=day_offset),
        conflicts=tuple(conflicts),
        prefixes_scanned=1000,
        as_set_excluded=0,
    )


def feed_pattern(engine: VerdictEngine, prefix: str, pattern: str, **kw):
    """Feed one conflicted-prefix presence pattern ('x' = in conflict)."""
    for offset, mark in enumerate(pattern):
        if mark == "x":
            engine.feed_day(detection(offset, conflict(prefix, **kw) if kw
                                      else conflict(prefix, 1, 2)))
        else:
            engine.feed_day(detection(offset))


class TestTags:
    def test_short_lived_is_exact_hijack(self):
        engine = VerdictEngine()
        feed_pattern(engine, "10.0.0.0/8", "xxx" + "." * 47)
        verdict = engine.finalize()[Prefix.parse("10.0.0.0/8")]
        assert TAG_SHORT_LIVED in verdict.tags
        assert verdict.kind == "exact_hijack"
        assert not verdict.benign
        assert verdict.days_observed == 3

    def test_long_lived_organic_is_benign(self):
        engine = VerdictEngine()
        feed_pattern(engine, "10.0.0.0/8", "x" * 50)
        verdict = engine.finalize()[Prefix.parse("10.0.0.0/8")]
        assert TAG_LONG_LIVED in verdict.tags
        assert verdict.kind == KIND_ORGANIC
        assert verdict.benign

    def test_private_asn_origin_is_private_leak(self):
        engine = VerdictEngine()
        engine.feed_day(detection(0, conflict("10.0.0.0/8", 7, 64512)))
        verdict = engine.finalize()[Prefix.parse("10.0.0.0/8")]
        assert TAG_PRIVATE_ASN in verdict.tags
        assert verdict.kind == "private_leak"

    def test_ixp_prefix_wins_over_everything(self):
        engine = VerdictEngine()
        engine.feed_day(detection(0, conflict("198.32.1.0/24", 7, 64512)))
        verdict = engine.finalize()[Prefix.parse("198.32.1.0/24")]
        assert TAG_IXP in verdict.tags
        assert verdict.kind == "ixp_conflict"
        assert verdict.benign

    def test_wide_standing_conflict_is_anycast(self):
        engine = VerdictEngine()
        feed_pattern(engine, "10.0.0.0/8", "x" * 40 + "." * 10)
        # Re-feed with five origins to get the wide tag.
        wide = VerdictEngine()
        for offset in range(50):
            if offset < 40:
                wide.feed_day(
                    detection(offset, conflict("10.0.0.0/8", 1, 2, 3, 4, 5))
                )
            else:
                wide.feed_day(detection(offset))
        verdict = wide.finalize()[Prefix.parse("10.0.0.0/8")]
        assert TAG_WIDE_ORIGIN_SET in verdict.tags
        assert verdict.kind == "anycast"
        assert verdict.benign

    def test_flapping_pattern_detected(self):
        engine = VerdictEngine()
        feed_pattern(engine, "10.0.0.0/8", "x..x..x..x..x" + "." * 37)
        verdict = engine.finalize()[Prefix.parse("10.0.0.0/8")]
        assert TAG_FLAPPING in verdict.tags
        assert verdict.kind == "flapping_fault"

    def test_orig_tran_as_class_vote_tagged(self):
        paths = {1: ((9, 2, 1),), 2: ((9, 2),)}  # origin 2 transits for 1
        engine = VerdictEngine()
        for offset in range(40):
            engine.feed_day(
                detection(offset, conflict("10.0.0.0/8", 1, 2, paths=paths))
            )
        verdict = engine.finalize()[Prefix.parse("10.0.0.0/8")]
        assert TAG_ORIG_TRAN_AS in verdict.tags
        assert verdict.kind == KIND_ORGANIC

    @pytest.mark.parametrize(
        "first,second,winner",
        [
            ("orig-tran-as", "split-view", "split-view"),
            ("split-view", "distinct-paths", "split-view"),
            ("orig-tran-as", "distinct-paths", "orig-tran-as"),
        ],
    )
    def test_class_vote_tie_goes_to_the_greater_class_value(
        self, first, second, winner
    ):
        paths = {
            "orig-tran-as": ORIG_TRAN_PATHS,
            "split-view": {1: ((9, 1),), 2: ((9, 2),)},
            "distinct-paths": {1: ((8, 1),), 2: ((9, 2),)},
        }
        engine = VerdictEngine()
        for offset in range(4):
            kind = (first, second)[offset % 2]
            engine.feed_day(
                detection(offset, conflict("10.0.0.0/8", 1, 2, paths=paths[kind]))
            )
        tags = engine.finalize()[Prefix.parse("10.0.0.0/8")].tags
        assert tags & {"orig-tran-as", "split-view", "distinct-paths"} == {
            winner
        }

    def test_perpetrator_attribution_with_registry(self):
        engine = VerdictEngine()
        engine.feed_day(detection(0, conflict("10.0.0.0/8", 7, 666)))
        registry = [
            RegistryEntry(Prefix.parse("10.0.0.0/8"), owner=7,
                          created_day=0, flags=0)
        ]
        verdict = engine.finalize(registry=registry)[
            Prefix.parse("10.0.0.0/8")
        ]
        assert verdict.perpetrators == {666}


class TestStructuralShapes:
    def test_foreign_subprefix_flagged(self):
        registry = [
            RegistryEntry(Prefix.parse("20.0.0.0/8"), 7, 0, 0),
            RegistryEntry(Prefix.parse("20.1.0.0/16"), 666, 40, 0),
        ]
        verdicts = VerdictEngine().finalize(registry=registry)
        fragment = verdicts[Prefix.parse("20.1.0.0/16")]
        assert TAG_FOREIGN_SUBPREFIX in fragment.tags
        assert fragment.kind == "subprefix_hijack"
        assert not fragment.benign
        assert fragment.perpetrators == {666}
        assert Prefix.parse("20.0.0.0/8") not in verdicts

    def test_foreign_aggregate_flagged(self):
        registry = [
            RegistryEntry(Prefix.parse("20.1.0.0/16"), 7, 0, 0),
            RegistryEntry(Prefix.parse("20.0.0.0/8"), 666, 40, 0),
        ]
        verdicts = VerdictEngine().finalize(registry=registry)
        aggregate = verdicts[Prefix.parse("20.0.0.0/8")]
        assert TAG_FOREIGN_AGGREGATE in aggregate.tags
        assert aggregate.kind == "faulty_aggregation"

    def test_own_subprefix_not_flagged(self):
        registry = [
            RegistryEntry(Prefix.parse("20.0.0.0/8"), 7, 0, 0),
            RegistryEntry(Prefix.parse("20.1.0.0/16"), 7, 40, 0),
        ]
        assert VerdictEngine().finalize(registry=registry) == {}

    def test_as_set_and_ixp_registrations_skipped(self):
        registry = [
            RegistryEntry(Prefix.parse("20.1.0.0/16"), 7, 0, 0),
            RegistryEntry(
                Prefix.parse("20.0.0.0/8"), 8, 40, FLAG_AS_SET_TAIL
            ),
            RegistryEntry(
                Prefix.parse("198.32.5.0/24"), 9, 40, FLAG_EXCHANGE_POINT
            ),
        ]
        assert VerdictEngine().finalize(registry=registry) == {}

    def test_pre_study_nesting_ignored(self):
        registry = [
            RegistryEntry(Prefix.parse("20.0.0.0/8"), 7, 0, 0),
            RegistryEntry(Prefix.parse("20.1.0.0/16"), 8, 0, 0),
        ]
        assert VerdictEngine().finalize(registry=registry) == {}


ORIG_TRAN_PATHS = {1: ((9, 2, 1),), 2: ((9, 2),)}  # origin 2 transits for 1


def feed_all(folds, conflicts, start=0):
    """Feed one detection per conflict (day ``start`` on) to every fold."""
    for offset, daily in enumerate(conflicts, start):
        day = detection(offset, daily)
        for fold in folds:
            fold.feed_day(day)


class TestIdentityMemo:
    """Each distinct conflict object is classified once, and the one
    fold still counts its vote on every conflict-day."""

    def test_recurring_object_classified_once(self, monkeypatch):
        calls = classifications(monkeypatch)
        recurring = conflict("10.0.0.0/8", 1, 2, paths=ORIG_TRAN_PATHS)
        engine, reference = VerdictEngine(), ReferenceFold()
        feed_all((engine, reference), [recurring] * 30)
        assert len(calls) == 1
        assert engine.tracker.state_dict() == reference.state_dict()

    def test_restored_engine_reuses_the_class_memo(self, monkeypatch):
        """The class memo is per conflict object, not per tracker: a
        tracker restored from a checkpoint classifies a conflict it
        meets again no more."""
        recurring = conflict("10.0.0.0/8", 1, 2, paths=ORIG_TRAN_PATHS)
        engine, reference = VerdictEngine(), ReferenceFold()
        feed_all((engine, reference), [recurring] * 20)
        calls = classifications(monkeypatch)
        restored = roundtrip(engine)
        feed_all((restored, reference), [recurring] * 10, start=20)
        assert calls == []
        assert restored.tracker.state_dict() == reference.state_dict()
        verdict = restored.finalize()[Prefix.parse("10.0.0.0/8")]
        assert verdict.days_observed == 30
        assert TAG_ORIG_TRAN_AS in verdict.tags

    def test_equal_but_distinct_objects_each_vote(self, monkeypatch):
        calls = classifications(monkeypatch)
        first = conflict("10.0.0.0/8", 1, 2)
        twin = conflict("10.0.0.0/8", 1, 2)
        assert first == twin and first is not twin
        engine, reference = VerdictEngine(), ReferenceFold()
        feed_all((engine, reference), [first, twin] * 3)
        assert len(calls) == 2  # each object once, however they alternate
        assert engine.tracker.state_dict() == reference.state_dict()

    def test_replacement_object_is_classified_afresh(self):
        engine, reference = VerdictEngine(), ReferenceFold()
        old = conflict("10.0.0.0/8", 1, 2, paths=ORIG_TRAN_PATHS)
        probe = weakref.ref(old)
        feed_all((engine, reference), [old] * 3)
        del old
        gc.collect()
        assert probe() is None  # the engine pins no conflict
        # A new object, likely at the dead one's address, of another
        # class: its votes must count as that class.
        feed_all((engine, reference), [conflict("10.0.0.0/8", 1, 2)] * 5, 3)
        assert engine.tracker.state_dict() == reference.state_dict()
        verdict = engine.finalize()[Prefix.parse("10.0.0.0/8")]
        assert "distinct-paths" in verdict.tags

    def test_pathless_conflict_casts_no_vote(self, monkeypatch):
        calls = classifications(monkeypatch)
        pathless = conflict("10.0.0.0/8", 1, 2, paths={})
        engine, reference = VerdictEngine(), ReferenceFold()
        feed_all((engine, reference), [pathless] * 5)
        assert len(calls) == 1
        assert engine.tracker.state_dict() == reference.state_dict()
        assert engine.tracker.state_dict()["prefixes"][0][7] == [0, 0, 0]


class TestRegistryShapes:
    """finalize derives a registry's owners and shapes once per object."""

    REGISTRY = [
        RegistryEntry(Prefix.parse("20.0.0.0/8"), 7, 0, 0),
        RegistryEntry(Prefix.parse("20.1.0.0/16"), 666, 40, 0),
    ]

    def test_same_registry_object_derived_once(self, monkeypatch):
        calls = counting(monkeypatch, "_structural_tags")
        engine = VerdictEngine()
        engine.feed_day(detection(0, conflict("20.0.0.0/8", 7, 666)))
        first = engine.finalize(registry=self.REGISTRY)
        assert engine.finalize(registry=self.REGISTRY) == first
        assert len(calls) == 1
        assert first[Prefix.parse("20.0.0.0/8")].perpetrators == {666}
        assert first[Prefix.parse("20.1.0.0/16")].kind == "subprefix_hijack"

    def test_new_registry_object_derived_again(self, monkeypatch):
        calls = counting(monkeypatch, "_structural_tags")
        engine = VerdictEngine()
        engine.feed_day(detection(0, conflict("20.0.0.0/8", 7, 666)))
        engine.finalize(registry=self.REGISTRY)
        # The aggregate changes hands: the /16 is now its owner's own.
        transferred = [
            RegistryEntry(Prefix.parse("20.0.0.0/8"), 666, 0, 0),
            RegistryEntry(Prefix.parse("20.1.0.0/16"), 666, 40, 0),
        ]
        verdicts = engine.finalize(registry=transferred)
        assert len(calls) == 2
        assert verdicts[Prefix.parse("20.0.0.0/8")].perpetrators == {7}
        assert Prefix.parse("20.1.0.0/16") not in verdicts


class TestVerdictMemo:
    """finalize reuses a prefix's verdict while its evidence is unfed."""

    def test_unfed_prefix_keeps_its_verdict_object(self):
        engine = VerdictEngine()
        feed_all((engine,), [conflict("10.0.0.0/8", 1, 2)] * 3)
        first = engine.finalize()
        # The same dict until a day is fed ...
        assert engine.finalize() is first
        # ... and a new one after it, which keeps the verdict of a
        # prefix not fed since.
        engine.feed_day(detection(3))
        second = engine.finalize()
        assert second is not first
        assert second == first
        assert list(second.items()) == list(first.items())
        prefix = Prefix.parse("10.0.0.0/8")
        assert second[prefix] is first[prefix]
        assert engine.finalize()[prefix] is first[prefix]
        engine.feed_day(detection(4, conflict("10.0.0.0/8", 1, 2)))
        fed = engine.finalize()[prefix]
        assert fed.days_observed == 4
        assert fed == roundtrip(engine).finalize()[prefix]

    def test_wide_origin_set_lapses_from_anycast_unfed(self):
        """The anycast call reads the study length: recomputed unfed."""
        prefix = Prefix.parse("10.0.0.0/8")
        engine = VerdictEngine()
        feed_all((engine,), [conflict("10.0.0.0/8", 1, 2, 3, 4)] * 10)
        assert engine.finalize()[prefix].kind == "anycast"
        kinds = []
        for offset in range(10, 40):
            engine.feed_day(detection(offset))
            verdict = engine.finalize()[prefix]
            assert verdict == roundtrip(engine).finalize()[prefix]
            kinds.append(verdict.kind)
            assert (verdict.kind == "anycast") == (
                10 >= ANYCAST_MIN_SHARE * engine.tracker.total_days
            )
        assert kinds[0] == "anycast" and kinds[-1] != "anycast"

    def test_second_registry_object_recomputes(self):
        registry = [RegistryEntry(Prefix.parse("20.0.0.0/8"), 7, 0, 0)]
        engine = VerdictEngine()
        engine.feed_day(detection(0, conflict("20.0.0.0/8", 7, 666)))
        prefix = Prefix.parse("20.0.0.0/8")
        first = engine.finalize(registry=registry)[prefix]
        assert first.perpetrators == {666}
        # An equal registry in a new object is judged afresh ...
        again = engine.finalize(registry=list(registry))[prefix]
        assert again == first and again is not first
        # ... and one where the prefix changed hands changes the call.
        moved = [RegistryEntry(prefix, 666, 0, 0)]
        assert engine.finalize(registry=moved)[prefix].perpetrators == {7}
        assert engine.finalize()[prefix].perpetrators == frozenset()

    def test_registry_only_verdicts_derived_once(self, monkeypatch):
        registry = TestRegistryShapes.REGISTRY
        engine = VerdictEngine()
        engine.feed_day(detection(0, conflict("20.0.0.0/8", 7, 666)))
        first = engine.finalize(registry=registry)
        calls = counting(monkeypatch, "_structural_tags")
        engine.feed_day(detection(1))
        second = engine.finalize(registry=registry)
        shape = Prefix.parse("20.1.0.0/16")
        assert second[shape] is first[shape]
        assert calls == []

    def test_state_dict_ignores_finalize(self):
        conflicts = [
            conflict("10.0.0.0/8", 1, 2),
            conflict("10.1.0.0/16", 1, 2, 3, 4),
        ]
        plain, finalized = VerdictEngine(), VerdictEngine()
        for offset, daily in enumerate(conflicts * 3):
            for engine in (plain, finalized):
                engine.feed_day(detection(offset, daily))
            finalized.finalize(registry=TestRegistryShapes.REGISTRY)
        assert finalized.tracker.state_dict() == plain.tracker.state_dict()
        assert json.dumps(finalized.tracker.state_dict()) == json.dumps(
            plain.tracker.state_dict()
        )
