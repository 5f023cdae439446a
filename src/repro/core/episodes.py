"""Per-prefix conflict episodes and the paper's duration accounting.

Section III: "The MOAS conflicts are identified by prefixes only, no
matter whether a MOAS conflict was conflicted by the same set of origin
ASes or the conflict was continuous."  Section IV: "The duration of an
individual conflict counts the total number of days the conflict was in
existence, regardless of whether the conflict was continuous and
whether the same ASes were involved."

So: one episode per prefix for the whole study, and duration = number
of observation days on which the prefix was in conflict.  A conflict
seen on exactly one snapshot "lasted less than one day" — the paper's
one-time conflicts — which we encode as duration 1 (days observed).

The :class:`EpisodeTracker` record is the study's one per-prefix
accumulator: it also folds each conflict-day's Section V class vote and
RFC 6811 rollup, which :class:`~repro.core.verdict.VerdictEngine`
judges verdicts from.
"""

from __future__ import annotations

import datetime
import weakref
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from itertools import islice

from repro.core.classifier import ConflictClass, conflict_class
from repro.core.detector import DailyConflict
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import RoaTable, ValidationState, worst_state

#: Mutable per-prefix record: [first, last, days, origins, width, votes,
#: rpki, position].  ``votes`` counts Section V class votes per
#: :data:`CLASS_SLOTS` slot (a conflict-day without paths for two
#: origins casts none); ``rpki`` is the RFC 6811 rollup or ``None``.
#: ``position`` is the record's first-seen position, its key in the
#: tracker's last-fed order (never checkpointed: a restored record's
#: position is its place in the payload).
FIRST, LAST, DAYS, ORIGINS, WIDTH, VOTES, RPKI, POSITION = range(8)

#: Each class's slot in a record's ``votes`` list.
CLASS_SLOTS = {found: slot for slot, found in enumerate(ConflictClass)}

#: The slot of an identity-memo entry (see ``EpisodeTracker._seen``)
#: holding the last day its conflict object was fed.
_FED = 5

_INVALID = ValidationState.INVALID


@dataclass(frozen=True, slots=True)
class ConflictEpisode:
    """The merged, study-wide conflict record of one prefix."""

    prefix: Prefix
    first_day: datetime.date
    last_day: datetime.date
    days_observed: int
    origins_ever: frozenset[int]
    max_origins_single_day: int
    ongoing: bool

    @property
    def one_time(self) -> bool:
        """True for conflicts seen on exactly one snapshot."""
        return self.days_observed == 1


class EpisodeTracker:
    """Accumulates daily detections into per-prefix episode records.

    The fold is the per-day cost every study pays after detection, so
    it is built around two constant-factor facts of the conflict
    stream: one mutable record per prefix (single dict lookup per
    conflict instead of one per field), and an *identity* fast path —
    the columnar detector hands back the same cached
    :class:`DailyConflict` object for a conflict that persists across
    days, so a recurring conflict costs a few list writes, not a
    prefix-keyed lookup, an origin-set union and a classification.  The
    fast path is pure memoization: a conflict object only ever hits it
    after the slow path absorbed that exact object's origins and class
    vote once, so fed state is identical whichever path runs.

    The same pass yields the day's diff (:meth:`observe_day`): a
    conflict that is the very object its prefix was fed on the previous
    fed day changed nothing, and the records fed that day and not today
    sit right behind today's block in the last-fed order.  With a ROA
    table, the memo also carries each object's steady RFC 6811 rollup
    (:meth:`RoaTable.steady_rollup`), so a recurring conflict past its
    threshold merges it with two identity checks instead of a
    validation.

    The tracker also keeps the fed-day sequence: a day's ordinal (its
    1-based position in it) is what the verdict engine's flapping span
    counts in.

    Readers that keep what they derived from the records (the study's
    results, its episode index and verdict rows, the verdict engine)
    keep the last fed day they derived at and ask :meth:`fed_since`
    what changed: the records sit in the order they were last fed, so
    the ones fed on or after a day are a walk back from the newest.
    """

    __slots__ = ("roa_table", "_records", "_prefixes", "_order", "_seen", "_days")

    def __init__(self, *, roa_table: RoaTable | None = None) -> None:
        #: Immutable ROA database each conflict-day is validated
        #: against; ``None`` leaves every record's rollup empty.
        self.roa_table = roa_table
        #: prefix -> record (see :data:`FIRST` ... :data:`POSITION`)
        self._records: dict[Prefix, list] = {}
        #: The prefixes in first-seen order: a record's position is its
        #: index here.
        self._prefixes: list[Prefix] = []
        #: position -> record, in the order the records were last fed
        #: (so by :data:`LAST`): each conflict-day moves its record to
        #: the end.
        self._order: OrderedDict[int, list] = OrderedDict()
        #: id(conflict) -> [weakref to it, its prefix's record, its
        #: vote slot or None, its steady rollup's threshold and state
        #: (see :meth:`RoaTable.steady_rollup`; None without a table),
        #: the last day it was fed (:data:`_FED`)].  The weakref both
        #: guards against id reuse (the stored referent must still *be*
        #: the conflict) and evicts the entry when the conflict object
        #: dies, so nothing is pinned.
        self._seen: dict[int, list] = {}
        self._days: list[datetime.date] = []

    @property
    def days(self) -> list[datetime.date]:
        """The fed days in order (the tracker's own list: read only)."""
        return self._days

    @property
    def total_days(self) -> int:
        """Days fed so far."""
        return len(self._days)

    @property
    def last_fed_day(self) -> datetime.date | None:
        """The most recent day fed, or None before the first feed."""
        return self._days[-1] if self._days else None

    def ordinal(self, day: datetime.date) -> int:
        """The 1-based position of fed day ``day`` in the fed-day
        sequence."""
        return bisect_left(self._days, day) + 1

    def observe_day(
        self, day: datetime.date, conflicts: list[DailyConflict]
    ) -> tuple[list[DailyConflict], list[Prefix]]:
        """Feed one day's conflicts, one per prefix; returns the day's
        diff against the previous fed day.

        The diff is ``(changed, departed)``.  ``changed`` holds, in
        detection order, the conflicts that are not the object their
        prefix was fed on the previous fed day: starts, returns after a
        gap and replacements, whether their origins changed or not.
        ``departed`` holds the prefixes fed on the previous fed day and
        not today, newest-fed first.  Every other prefix of the day was
        fed the same object as the day before.  Days must arrive in
        order.
        """
        days = self._days
        previous = days[-1] if days else None
        if previous is not None and day <= previous:
            raise ValueError(
                f"days must be fed in increasing order: {day} after "
                f"{previous}"
            )
        days.append(day)
        records = self._records
        order = self._order
        move = order.move_to_end
        seen = self._seen
        roa_table = self.roa_table
        changed = []
        for conflict in conflicts:
            key = id(conflict)
            entry = seen.get(key)
            if entry is not None and entry[0]() is conflict:
                _ref, record, vote, threshold, steady, fed = entry
                # The entry keeps the very date object appended to
                # ``days`` on the day it was last fed.
                if fed is not previous:
                    changed.append(conflict)
                entry[_FED] = day
                record[LAST] = day
                record[DAYS] += 1
                move(record[POSITION])
            else:
                changed.append(conflict)
                prefix = conflict.prefix
                record = records.get(prefix)
                width = len(conflict.origins)
                if record is None:
                    position = len(records)
                    records[prefix] = order[position] = record = [
                        day, day, 1, set(conflict.origins), width,
                        [0] * len(CLASS_SLOTS), None, position,
                    ]
                    self._prefixes.append(prefix)
                else:
                    record[LAST] = day
                    record[DAYS] += 1
                    move(record[POSITION])
                    record[ORIGINS].update(conflict.origins)
                    if width > record[WIDTH]:
                        record[WIDTH] = width
                found = conflict_class(conflict)
                vote = None if found is None else CLASS_SLOTS[found]
                if roa_table is None:
                    threshold = steady = None
                elif record[RPKI] is _INVALID:
                    # An invalid rollup absorbs every state.
                    threshold, steady = datetime.date.min, _INVALID
                else:
                    threshold, steady = roa_table.steady_rollup(
                        prefix, conflict.origins
                    )
                seen[key] = [
                    weakref.ref(
                        conflict,
                        lambda _ref, _seen=seen, _key=key: _seen.pop(
                            _key, None
                        ),
                    ),
                    record,
                    vote,
                    threshold,
                    steady,
                    day,
                ]
            if vote is not None:
                record[VOTES][vote] += 1
            if roa_table is not None:
                if threshold is not None and day >= threshold:
                    # Worst-first folding is a join: merging the steady
                    # state again changes nothing.
                    rollup = record[RPKI]
                    if rollup is not steady and rollup is not _INVALID:
                        record[RPKI] = worst_state(rollup, steady)
                else:
                    record[RPKI] = roa_table.fold_episode_state(
                        record[RPKI], conflict.prefix, conflict.origins, day=day
                    )
        departed = []
        if previous is not None:
            # Behind today's block in the last-fed order: the records
            # fed on the previous day and not today.
            prefixes = self._prefixes
            for record in islice(reversed(order.values()), len(conflicts), None):
                if record[LAST] != previous:
                    break
                departed.append(prefixes[record[POSITION]])
        return changed, departed

    def fed_since(self, day: datetime.date) -> list[Prefix]:
        """The prefixes whose records were fed on or after ``day``,
        newest first.

        A reader that last derived when ``day`` was the newest fed day
        gets exactly the records fed since and those then ongoing;
        asking from the next day leaves out the ones not fed since.
        """
        prefixes = self._prefixes
        fed = []
        for position, record in reversed(self._order.items()):
            if record[LAST] < day:
                break
            fed.append(prefixes[position])
        return fed

    def record(self, prefix: Prefix) -> list:
        """The record of ``prefix`` (the fold's own list: read only)."""
        return self._records[prefix]

    def newest(self, count: int) -> list[Prefix]:
        """The last ``count`` prefixes to get a record, in first-seen
        order: a reader that has derived the first ``len(self) -
        count`` records appends these."""
        return self._prefixes[len(self._prefixes) - count:]

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the tracker's streaming state.

        Together with :meth:`from_state` this lets long-running studies
        checkpoint mid-stream and resume without replaying earlier days.
        Prefixes are stored as ``[network, length]`` integer pairs so the
        payload survives a JSON round trip exactly; a record's votes
        follow :data:`CLASS_SLOTS` and its rollup is a
        :class:`ValidationState` value or null.
        """
        return {
            "days": [day.isoformat() for day in self._days],
            "roas": (
                [roa.to_dict() for roa in self.roa_table]
                if self.roa_table is not None
                else None
            ),
            "prefixes": [
                [
                    prefix.network,
                    prefix.length,
                    record[FIRST].isoformat(),
                    record[LAST].isoformat(),
                    record[DAYS],
                    sorted(record[ORIGINS]),
                    record[WIDTH],
                    list(record[VOTES]),
                    record[RPKI].value if record[RPKI] is not None else None,
                ]
                for prefix, record in self._records.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "EpisodeTracker":
        """Rebuild a tracker from a :meth:`state_dict` payload."""
        roas = state["roas"]
        tracker = cls(
            roa_table=RoaTable.from_rows(roas) if roas is not None else None
        )
        tracker._days = [
            datetime.date.fromisoformat(day) for day in state["days"]
        ]
        slots = len(CLASS_SLOTS)
        records = tracker._records
        for (
            network, length, first, last, days, origins, width, votes, rpki
        ) in state["prefixes"]:
            if len(votes) != slots:
                raise ValueError(
                    f"episode record votes hold {len(votes)} counts, "
                    f"not {slots}"
                )
            prefix = Prefix(network, length, strict=False)
            records[prefix] = [
                datetime.date.fromisoformat(first),
                datetime.date.fromisoformat(last),
                days,
                set(origins),
                width,
                list(votes),
                ValidationState(rpki) if rpki is not None else None,
                len(records),
            ]
            tracker._prefixes.append(prefix)
        tracker._order = OrderedDict(
            (record[POSITION], record)
            for record in sorted(records.values(), key=lambda record: record[LAST])
        )
        return tracker

    def finalize(
        self, last_observed_day: datetime.date | None = None
    ) -> dict[Prefix, ConflictEpisode]:
        """Produce the per-prefix episode table.

        ``last_observed_day`` defaults to the last day fed; episodes
        still conflicted on it are marked ongoing (the paper counted
        1326 such conflicts at study end).
        """
        if last_observed_day is None:
            last_observed_day = self.last_fed_day
        return {
            prefix: episode_of(prefix, record, last_observed_day)
            for prefix, record in self._records.items()
        }

    def __len__(self) -> int:
        return len(self._records)


def episode_of(
    prefix: Prefix, record: list, last_observed_day: datetime.date | None
) -> ConflictEpisode:
    """The episode of one tracker record, ongoing when the record was
    fed on ``last_observed_day``."""
    return ConflictEpisode(
        prefix=prefix,
        first_day=record[FIRST],
        last_day=record[LAST],
        days_observed=record[DAYS],
        origins_ever=frozenset(record[ORIGINS]),
        max_origins_single_day=record[WIDTH],
        ongoing=record[LAST] == last_observed_day,
    )
