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
from dataclasses import dataclass
from itertools import islice

from repro.core.classifier import ConflictClass, conflict_class
from repro.core.detector import DailyConflict
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import RoaTable, ValidationState

#: Mutable per-prefix record: [first, last, days, origins, width, votes,
#: rpki, stamp].  ``votes`` counts Section V class votes per
#: :data:`CLASS_SLOTS` slot (a conflict-day without paths for two
#: origins casts none); ``rpki`` is the RFC 6811 rollup or ``None``.
#: ``stamp`` is the read generation in which the record was last
#: logged as touched (see :meth:`EpisodeTracker.touched`): never
#: compared by readers, never checkpointed, ``None`` after
#: :meth:`EpisodeTracker.from_state`.
FIRST, LAST, DAYS, ORIGINS, WIDTH, VOTES, RPKI, STAMP = range(8)

#: Each class's slot in a record's ``votes`` list.
CLASS_SLOTS = {found: slot for slot, found in enumerate(ConflictClass)}


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

    The tracker also keeps the fed-day sequence: a day's ordinal (its
    1-based position in it) is what the verdict engine's flapping span
    counts in.

    Readers that keep what they derived from the records (the study's
    results, the verdict engine, serve's index) learn what changed from
    the touch log: each fold logs a prefix the first time it touches
    the prefix's record in a read generation, and each
    :meth:`touched` call hands a reader the prefixes logged since its
    last call and starts a new generation.
    """

    __slots__ = (
        "roa_table",
        "_records",
        "_seen",
        "_days",
        "_log",
        "_trimmed",
        "_stamp",
        "_cursors",
    )

    def __init__(self, *, roa_table: RoaTable | None = None) -> None:
        #: Immutable ROA database each conflict-day is validated
        #: against; ``None`` leaves every record's rollup empty.
        self.roa_table = roa_table
        #: prefix -> record (see :data:`FIRST` ... :data:`STAMP`)
        self._records: dict[Prefix, list] = {}
        #: id(conflict) -> (weakref to it, its prefix's record, its
        #: vote slot or None).  The weakref both guards against id
        #: reuse (the stored referent must still *be* the conflict) and
        #: evicts the entry when the conflict object dies, so nothing
        #: is pinned.
        self._seen: dict[int, tuple] = {}
        self._days: list[datetime.date] = []
        #: The touch log: prefixes in the order their records were
        #: first touched in each read generation.  ``_trimmed`` entries
        #: were dropped from its front, so entry ``i`` of the whole log
        #: is ``_log[i - _trimmed]``.
        self._log: list[Prefix] = []
        self._trimmed = 0
        #: The current read generation: a record whose stamp is this
        #: object is already in the log since the last :meth:`touched`.
        self._stamp = object()
        #: The cursors positioned in this log (readers that died drop
        #: out), whose slowest one bounds what may be trimmed.
        self._cursors: weakref.WeakSet[TouchCursor] = weakref.WeakSet()

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
    ) -> None:
        """Feed one day's conflicts.  Days must arrive in order."""
        days = self._days
        if days and day <= days[-1]:
            raise ValueError(
                f"days must be fed in increasing order: {day} after "
                f"{days[-1]}"
            )
        days.append(day)
        records = self._records
        seen = self._seen
        roa_table = self.roa_table
        log = self._log
        stamp = self._stamp
        for conflict in conflicts:
            key = id(conflict)
            entry = seen.get(key)
            if entry is not None and entry[0]() is conflict:
                _ref, record, vote = entry
                record[LAST] = day
                record[DAYS] += 1
                if record[STAMP] is not stamp:
                    record[STAMP] = stamp
                    log.append(conflict.prefix)
            else:
                prefix = conflict.prefix
                record = records.get(prefix)
                width = len(conflict.origins)
                if record is None:
                    records[prefix] = record = [
                        day, day, 1, set(conflict.origins), width,
                        [0] * len(CLASS_SLOTS), None, stamp,
                    ]
                    log.append(prefix)
                else:
                    record[LAST] = day
                    record[DAYS] += 1
                    if record[STAMP] is not stamp:
                        record[STAMP] = stamp
                        log.append(prefix)
                    record[ORIGINS].update(conflict.origins)
                    if width > record[WIDTH]:
                        record[WIDTH] = width
                found = conflict_class(conflict)
                vote = None if found is None else CLASS_SLOTS[found]
                seen[key] = (
                    weakref.ref(
                        conflict,
                        lambda _ref, _seen=seen, _key=key: _seen.pop(
                            _key, None
                        ),
                    ),
                    record,
                    vote,
                )
            if vote is not None:
                record[VOTES][vote] += 1
            if roa_table is not None:
                record[RPKI] = roa_table.fold_episode_state(
                    record[RPKI], conflict.prefix, conflict.origins, day=day
                )
        # Cap the log at one entry per record: a reader that fell
        # further behind rebuilds cold, which costs no more.
        excess = len(log) - len(records)
        if excess > 0:
            del log[:excess]
            self._trimmed += excess

    def touched(self, cursor: "TouchCursor") -> set[Prefix] | None:
        """The prefixes whose records were fed since ``cursor``'s last
        call, or ``None`` when the cursor has no position in this log.

        A cursor has none on its first call here (a fresh reader, or
        one whose session was restored or replaced) and when the cap
        trimmed entries it had not read; its reader must then derive
        everything afresh.  Either way the call moves the cursor to the
        end of the log, starts a new read generation, and trims the
        entries every cursor has read.
        """
        log = self._log
        trimmed = self._trimmed
        end = trimmed + len(log)
        handed = None
        if cursor.tracker is self and cursor.position >= trimmed:
            handed = set(log[cursor.position - trimmed:])
        else:
            cursor.tracker = self
            self._cursors.add(cursor)
        cursor.position = end
        self._stamp = object()
        slowest = min(
            other.position for other in self._cursors if other.tracker is self
        )
        if slowest > trimmed:
            del log[:slowest - trimmed]
            self._trimmed = slowest
        return handed

    def records(self):
        """``(prefix, record)`` pairs in first-seen order.

        The records are the fold's own lists: readers must not write
        them.
        """
        return self._records.items()

    def record(self, prefix: Prefix) -> list:
        """The record of ``prefix`` (the fold's own list: read only)."""
        return self._records[prefix]

    def newest(self, count: int) -> list[Prefix]:
        """The last ``count`` prefixes to get a record, in first-seen
        order: a reader that has derived the first ``len(self) -
        count`` records appends these."""
        if count <= 0:
            return []
        newest = list(islice(reversed(self._records), count))
        newest.reverse()
        return newest

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
        for (
            network, length, first, last, days, origins, width, votes, rpki
        ) in state["prefixes"]:
            if len(votes) != slots:
                raise ValueError(
                    f"episode record votes hold {len(votes)} counts, "
                    f"not {slots}"
                )
            tracker._records[Prefix(network, length, strict=False)] = [
                datetime.date.fromisoformat(first),
                datetime.date.fromisoformat(last),
                days,
                set(origins),
                width,
                list(votes),
                ValidationState(rpki) if rpki is not None else None,
                None,
            ]
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


class TouchCursor:
    """One reader's position in an :class:`EpisodeTracker`'s touch log.

    A reader holds one cursor per thing it keeps and passes it to
    :meth:`EpisodeTracker.touched`; only the tracker moves it.
    """

    __slots__ = ("tracker", "position", "__weakref__")

    def __init__(self) -> None:
        #: The tracker whose log :attr:`position` indexes, or ``None``.
        self.tracker: EpisodeTracker | None = None
        self.position = 0


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
