"""Per-episode verdicts: one tagging engine over every analyzer.

The paper's Section VI walks through causes one analysis at a time
(exchange points by address block, private ASNs by number range,
duration as a validity hint, path shape per Section V, sub-prefix
anomalies per VI-E).  Modern systems — GRIP for MOAS, the RPKI conflict
classifiers — run all of those signals at once and emit one *tagged
verdict* per event.  This module is that engine for our substrate:

- the evidence is the study's own per-prefix fold: an
  :class:`~repro.core.episodes.EpisodeTracker` record carries the
  duration, origin union and width, first and last day (whose fed-day
  ordinals give the presence gaps), Section V class votes and the RPKI
  rollup, and the private-ASN signal is read off the origin union;
- :meth:`VerdictEngine.finalize` combines those records with the
  archive's prefix registry (for sub-prefix / aggregate shapes and
  owner attribution) into one :class:`Verdict` per prefix: a tag set, a
  predicted incident kind, and a benign..suspicious score.

A study session judges its own tracker
(:meth:`~repro.analysis.pipeline.StudyState.verdicts`); ``repro
evaluate`` streams a bare source through :meth:`VerdictEngine.feed_day`,
which feeds the engine's own tracker.

The predicted kinds use the same vocabulary as the injectable incidents
(:class:`~repro.scenario.incidents.IncidentKind`), which is what lets
:mod:`repro.analysis.evaluation` score any verdict run against injected
ground truth.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

# classify_conflict is imported only so perfbench/layers.py's
# ``verdict.classify`` patch target resolves: the episode tracker's fold
# casts the class votes.
from repro.core.classifier import ConflictClass, classify_conflict  # noqa: F401
from repro.core.detector import DayDetection
from repro.core.episodes import (
    DAYS,
    FIRST,
    LAST,
    ORIGINS,
    RPKI,
    VOTES,
    WIDTH,
    EpisodeTracker,
)
from repro.netbase.asn import is_private_asn
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import RoaTable, ValidationState
from repro.topology.ixp import IXP_BLOCK

# -- tags -----------------------------------------------------------------

TAG_IXP = "ixp-prefix"
TAG_PRIVATE_ASN = "private-asn-origin"
TAG_SHORT_LIVED = "short-lived"
TAG_LONG_LIVED = "long-lived"
TAG_WIDE_ORIGIN_SET = "wide-origin-set"
TAG_FLAPPING = "flapping"
TAG_FOREIGN_SUBPREFIX = "foreign-subprefix"
TAG_FOREIGN_AGGREGATE = "foreign-aggregate"
TAG_ORIG_TRAN_AS = "orig-tran-as"
TAG_SPLIT_VIEW = "split-view"
TAG_DISTINCT_PATHS = "distinct-paths"
TAG_RPKI_VALID = "rpki-valid"
TAG_RPKI_INVALID = "rpki-invalid"
TAG_RPKI_NOT_FOUND = "rpki-not-found"

#: Episode RPKI state -> verdict tag (engines built with a ROA table).
_RPKI_TAGS = {
    ValidationState.VALID: TAG_RPKI_VALID,
    ValidationState.INVALID: TAG_RPKI_INVALID,
    ValidationState.NOT_FOUND: TAG_RPKI_NOT_FOUND,
}

#: Predicted kind for prefixes no incident heuristic fires on.
KIND_ORGANIC = "organic"

_CLASS_TAGS = {
    ConflictClass.ORIG_TRAN_AS: TAG_ORIG_TRAN_AS,
    ConflictClass.SPLIT_VIEW: TAG_SPLIT_VIEW,
    ConflictClass.DISTINCT_PATHS: TAG_DISTINCT_PATHS,
}

#: ``(vote slot, class tag)`` in the order a tie between slots with the
#: most votes is broken: the greater class value wins.
_VOTE_ORDER = tuple(
    (slot, _CLASS_TAGS[found])
    for slot, found in sorted(
        enumerate(ConflictClass), key=lambda item: item[1].value, reverse=True
    )
)

#: tag -> suspicion shift; the base is 0.5 ("no idea"), positive pushes
#: toward malicious, negative toward benign.  Magnitudes follow the
#: paper's confidence ordering: address-block and registry shapes are
#: near-certain, duration is the confessedly weak signal.
_SUSPICION_SHIFTS: dict[str, float] = {
    TAG_IXP: -0.35,
    TAG_LONG_LIVED: -0.20,
    TAG_WIDE_ORIGIN_SET: -0.15,
    TAG_ORIG_TRAN_AS: -0.15,
    TAG_PRIVATE_ASN: -0.10,  # ASE leakage: sloppy but operational (VI-C)
    TAG_SHORT_LIVED: 0.25,
    TAG_FLAPPING: 0.20,
    TAG_FOREIGN_SUBPREFIX: 0.40,
    TAG_FOREIGN_AGGREGATE: 0.40,
    # RFC 6811 states: a signed authorization is near-registry-grade
    # evidence either way; not-found says nothing (no shift).
    TAG_RPKI_VALID: -0.25,
    TAG_RPKI_INVALID: 0.35,
}


# -- thresholds of the tagging heuristics ---------------------------------

#: VI-F duration heuristic: conflicts this short lean *invalid*.
SHORT_DAYS = 9
#: Conflicts at least this long lean valid (standing policy).
LONG_DAYS = 30
#: Simultaneous origins for the anycast shape (paper VI-D).
ANYCAST_MIN_ORIGINS = 4
#: Share of the study an anycast-like conflict must span.
ANYCAST_MIN_SHARE = 0.35
#: Absence fraction (within the episode's own span) for "flapping".
FLAPPING_MIN_GAP = 0.4
FLAPPING_MIN_DAYS = 3

_ONE_DAY = datetime.timedelta(days=1)


@dataclass(frozen=True, slots=True)
class Verdict:
    """One prefix's unified assessment: tags, kind, suspicion."""

    prefix: Prefix
    kind: str  # an IncidentKind value, or "organic"
    tags: frozenset[str]
    #: 0.0 (certainly benign) .. 1.0 (certainly malicious).
    suspicion: float
    days_observed: int
    origins: frozenset[int]
    #: Origins that are not the registered owner (empty without a
    #: registry, or when every origin is the owner's).
    perpetrators: frozenset[int] = frozenset()
    #: Episode-level RFC 6811 rollup (``"valid"`` / ``"invalid"`` /
    #: ``"not_found"``), or ``None`` when the engine ran without a ROA
    #: table.  One invalid origin-day taints the episode; a valid
    #: observation beats mere non-coverage.
    rpki_state: str | None = None

    @property
    def benign(self) -> bool:
        return self.suspicion < 0.5

    def to_dict(self) -> dict:
        """JSON-serializable form (the serve API's ``/v1/verdicts`` rows).

        Origin sets serialize as sorted lists and ``rpki_state``
        appears only when the engine ran with a ROA table, so equal
        verdicts always produce equal documents.
        """
        payload = {
            "prefix": str(self.prefix),
            "kind": self.kind,
            "tags": sorted(self.tags),
            "suspicion": self.suspicion,
            "benign": self.benign,
            "days_observed": self.days_observed,
            "origins": sorted(self.origins),
            "perpetrators": sorted(self.perpetrators),
        }
        if self.rpki_state is not None:
            payload["rpki_state"] = self.rpki_state
        return payload


class VerdictEngine:
    """Per-prefix verdicts judged from episode tracker records.

    The engine holds no evidence of its own: :meth:`finalize` reads the
    records of :attr:`tracker`.  A session passes its study tracker
    (``tracker=``); without one the engine builds a tracker validating
    against ``roa_table``, and :meth:`feed_day` feeds it — the ``repro
    evaluate`` path over a bare source.
    """

    __slots__ = (
        "tracker",
        "_registry_shapes",
        "_derived_day",
        "_verdicts",
        "_wide",
        "_shape_only",
        "_finalized",
    )

    def __init__(
        self,
        *,
        roa_table: RoaTable | None = None,
        tracker: EpisodeTracker | None = None,
    ) -> None:
        #: The records every verdict is judged from; its ROA table (or
        #: ``None``, which disables the RPKI signal) is the engine's.
        self.tracker = (
            tracker
            if tracker is not None
            else EpisodeTracker(roa_table=roa_table)
        )
        #: ``(registry, owner map, structural tags)`` for the last
        #: registry object :meth:`finalize` saw; the registry is held so
        #: the identity check can never match a recycled id.
        self._registry_shapes: tuple | None = None
        #: What the last :meth:`finalize` derived, kept for the next:
        #: the last fed day it derived at, the verdict of each record in
        #: record order, the records wide enough for the anycast test,
        #: the registry-only verdicts of structural prefixes without a
        #: record, in structural order, and the dict it returned.
        self._derived_day: datetime.date | None = None
        self._verdicts: dict[Prefix, Verdict] = {}
        self._wide: set[Prefix] = set()
        self._shape_only: dict[Prefix, Verdict] = {}
        self._finalized: dict[Prefix, Verdict] | None = None

    def feed_day(self, detection: DayDetection) -> None:
        """Fold one day's detection into the engine's tracker."""
        self.tracker.observe_day(detection.day, detection.conflicts)

    @property
    def wide(self) -> set[Prefix]:
        """The records wide enough for the anycast test as of the last
        :meth:`finalize` (the engine's own set: read only).  Their
        anycast call reads the study length, so a fold may change their
        verdicts without feeding them."""
        return self._wide

    # -- verdicts -------------------------------------------------------------

    def finalize(self, registry=None) -> dict[Prefix, Verdict]:
        """One verdict per evidenced prefix (plus registry-only shapes).

        ``registry`` is an optional sequence of archive
        :class:`~repro.scenario.archive.RegistryEntry` rows.  With it,
        sub-prefix hijack and faulty-aggregation shapes are detected
        from announced-space structure — including prefixes that never
        produced a same-prefix MOAS conflict at all — and perpetrators
        are attributed as "origins that are not the registered owner".

        The registry is treated as immutable: its owner map, shapes and
        registry-only verdicts are derived once per registry object.
        Under the same registry object, a call returns the dict the last
        call returned until a day is fed; after one, it judges afresh
        only the records :meth:`EpisodeTracker.fed_since` hands over
        from the day after the last call's, so those fed since, and
        those whose origin set is wide enough for the anycast test
        (:attr:`wide`), which reads the study length, and returns a new
        dict whose every other verdict is the object the last call
        returned.  A returned dict is never mutated.
        """
        tracker = self.tracker
        verdicts = self._verdicts
        shape_only = self._shape_only
        since = self._derived_day
        shapes = self._registry_shapes
        cold = shapes is None or shapes[0] is not registry
        if not cold and since == tracker.last_fed_day:
            return self._finalized
        if cold:
            shapes = self._registry_shapes = (registry, *_shapes(registry))
            verdicts.clear()
            self._wide.clear()
            since = None
        _registry, owners, structural = shapes
        self._derived_day = tracker.last_fed_day
        # New records first, so the dict keeps record order.
        added = tracker.newest(len(tracker) - len(verdicts))
        redo = added
        if since is not None:
            fed = tracker.fed_since(since + _ONE_DAY)
            redo = [*added, *self._wide.union(fed).difference(added)]
        for prefix in redo:
            record = tracker.record(prefix)
            tags = self._episode_tags(prefix, record)
            tag = structural.get(prefix)
            if tag is not None:
                tags.add(tag)
            verdicts[prefix] = self._verdict(
                prefix,
                tags,
                days=record[DAYS],
                origins=frozenset(record[ORIGINS]),
                owner=owners.get(prefix),
                rpki_state=record[RPKI],
            )
            if record[WIDTH] >= ANYCAST_MIN_ORIGINS:
                self._wide.add(prefix)
        if cold:
            # Registry-only shapes: announced-space anomalies that never
            # conflicted (the AS7007 signature same-prefix MOAS cannot
            # see).
            shape_only.clear()
            for prefix, tag in structural.items():
                if prefix not in verdicts:
                    shape_only[prefix] = self._shape_verdict(
                        prefix, tag, owners.get(prefix)
                    )
        else:
            for prefix in added:
                shape_only.pop(prefix, None)
        self._finalized = {**verdicts, **shape_only}
        return self._finalized

    def _shape_verdict(
        self, prefix: Prefix, tag: str, owner: int | None
    ) -> Verdict:
        """The verdict of a registry shape with no conflict evidence."""
        rpki_state = None
        roa_table = self.tracker.roa_table
        if roa_table is not None and owner is not None:
            # No conflict days to validate: judge the announcer's
            # registration itself against the whole database.
            rpki_state = roa_table.validate(prefix, owner)
        return self._verdict(
            prefix,
            {tag},
            days=0,
            origins=frozenset(() if owner is None else (owner,)),
            owner=None,  # the announcer *is* the suspect
            rpki_state=rpki_state,
        )

    # -- internals ------------------------------------------------------------

    def _episode_tags(self, prefix: Prefix, record: list) -> set[str]:
        tracker = self.tracker
        days = record[DAYS]
        tags: set[str] = set()
        if IXP_BLOCK.contains(prefix):
            tags.add(TAG_IXP)
        if any(map(is_private_asn, record[ORIGINS])):
            tags.add(TAG_PRIVATE_ASN)
        if days <= SHORT_DAYS:
            tags.add(TAG_SHORT_LIVED)
        if days >= LONG_DAYS:
            tags.add(TAG_LONG_LIVED)
        if record[WIDTH] >= ANYCAST_MIN_ORIGINS:
            tags.add(TAG_WIDE_ORIGIN_SET)
        span = (
            tracker.ordinal(record[LAST]) - tracker.ordinal(record[FIRST]) + 1
        )
        gap = 1.0 - days / span
        if (
            gap >= FLAPPING_MIN_GAP
            and days >= FLAPPING_MIN_DAYS
            and TAG_IXP not in tags
        ):
            tags.add(TAG_FLAPPING)
        votes = record[VOTES]
        most = max(votes)
        if most:
            tags.add(next(tag for slot, tag in _VOTE_ORDER if votes[slot] == most))
        return tags

    def _verdict(
        self,
        prefix: Prefix,
        tags: set[str],
        *,
        days: int,
        origins: frozenset[int],
        owner: int | None,
        rpki_state: ValidationState | None = None,
    ) -> Verdict:
        if rpki_state is not None:
            tags.add(_RPKI_TAGS[rpki_state])
        kind = KIND_ORGANIC
        wide_and_standing = (
            TAG_WIDE_ORIGIN_SET in tags
            and self.tracker.total_days > 0
            and days >= ANYCAST_MIN_SHARE * self.tracker.total_days
        )
        if TAG_IXP in tags:
            kind = "ixp_conflict"
        elif TAG_FOREIGN_SUBPREFIX in tags:
            kind = "subprefix_hijack"
        elif TAG_FOREIGN_AGGREGATE in tags:
            kind = "faulty_aggregation"
        elif TAG_PRIVATE_ASN in tags:
            kind = "private_leak"
        elif wide_and_standing:
            kind = "anycast"
        elif TAG_FLAPPING in tags and days < LONG_DAYS:
            kind = "flapping_fault"
        elif TAG_SHORT_LIVED in tags:
            kind = "exact_hijack"
        elif TAG_RPKI_INVALID in tags and TAG_LONG_LIVED not in tags:
            # An unauthorized origin with no other explanation: the
            # RPKI extends the hijack call past the duration heuristic.
            kind = "exact_hijack"
        suspicion = 0.5 + sum(
            _SUSPICION_SHIFTS.get(tag, 0.0) for tag in tags
        )
        if wide_and_standing:
            suspicion -= 0.15
        suspicion = min(1.0, max(0.0, suspicion))
        perpetrators: frozenset[int] = frozenset()
        if owner is not None:
            perpetrators = frozenset(
                origin for origin in origins if origin != owner
            )
        elif TAG_FOREIGN_SUBPREFIX in tags or TAG_FOREIGN_AGGREGATE in tags:
            perpetrators = origins
        return Verdict(
            prefix=prefix,
            kind=kind,
            tags=frozenset(tags),
            suspicion=round(suspicion, 4),
            days_observed=days,
            origins=origins,
            perpetrators=perpetrators,
            rpki_state=(
                rpki_state.value if rpki_state is not None else None
            ),
        )


def _shapes(registry) -> tuple[dict[Prefix, int], dict[Prefix, str]]:
    """``(owner map, structural tags)`` of a prefix registry, both empty
    without one (see :func:`_structural_tags`)."""
    if registry is None:
        return {}, {}
    owners = {entry.prefix: entry.owner for entry in registry}
    return owners, _structural_tags(registry)


def _structural_tags(registry) -> dict[Prefix, str]:
    """Announced-space anomaly tags from the prefix registry.

    For every prefix registered *during* the study (``created_day > 0``)
    whose closest covering registration belongs to a different owner:
    the younger side of the pair is the anomaly.  A new more-specific
    under an old foreign cover is the AS7007 de-aggregation shape; a new
    cover over old foreign more-specifics is faulty aggregation.
    AS_SET-flagged aggregates (excluded by the paper's methodology) and
    exchange-point fabric registrations are skipped; of a repeated
    prefix, the last row is the registration the others are judged
    against.
    """
    entries = [
        entry
        for entry in registry
        if not entry.as_set_tail and not entry.exchange_point
    ]
    latest = {entry.prefix: entry for entry in entries}
    # Sorted by (network, length), a prefix comes after every prefix
    # covering it and before its more-specifics, so the open covers
    # form a stack of nested ranges whose top is the closest cover.
    covers: dict[Prefix, object] = {}
    stack: list[tuple[int, object]] = []  # (range end, entry)
    for prefix in sorted(
        latest, key=lambda prefix: (prefix.network << 6) | prefix.length
    ):
        network = prefix.network
        while stack and stack[-1][0] <= network:
            stack.pop()
        if stack:
            covers[prefix] = stack[-1][1]
        stack.append((network + prefix.num_addresses, latest[prefix]))
    tags: dict[Prefix, str] = {}
    for entry in entries:
        if entry.prefix.length == 0:
            continue
        cover = covers.get(entry.prefix)
        if cover is None or cover.owner == entry.owner:
            continue
        if entry.created_day > cover.created_day:
            tags[entry.prefix] = TAG_FOREIGN_SUBPREFIX
        elif cover.created_day > entry.created_day:
            tags.setdefault(cover.prefix, TAG_FOREIGN_AGGREGATE)
    return tags
