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
"""

from __future__ import annotations

import datetime
import weakref
from dataclasses import dataclass

from repro.core.detector import DailyConflict
from repro.netbase.prefix import Prefix

#: Mutable per-prefix episode record: [first, last, days, origins, width,
#: episode].  ``episode`` is the :class:`ConflictEpisode` the last
#: :meth:`EpisodeTracker.finalize` built from the record, or ``None``;
#: every observation clears it.  Pure memoization: never compared,
#: never checkpointed, empty after ``from_state``.
_FIRST, _LAST, _DAYS, _ORIGINS, _WIDTH, _EPISODE = range(6)


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
    """Accumulates daily detections into per-prefix episodes.

    The fold is the per-day cost every study pays after detection, so
    it is built around two constant-factor facts of the conflict
    stream: one mutable record per prefix (single dict lookup per
    conflict instead of one per field), and an *identity* fast path —
    the columnar detector hands back the same cached
    :class:`DailyConflict` object for a conflict that persists across
    days, so a recurring conflict costs two list writes, not a
    prefix-keyed lookup plus origin-set union.  The fast path is pure
    memoization: a conflict object only ever hits it after the slow
    path absorbed that exact object's origins once, so fed state is
    identical whichever path runs.
    """

    __slots__ = ("_records", "_seen", "_last_fed_day")

    def __init__(self) -> None:
        #: prefix -> [first, last, days, origins, max_width, episode]
        self._records: dict[Prefix, list] = {}
        #: id(conflict) -> (weakref to it, its prefix's record).  The
        #: weakref both guards against id reuse (the stored referent
        #: must still *be* the conflict) and evicts the entry when the
        #: conflict object dies, so nothing is pinned.
        self._seen: dict[int, tuple] = {}
        self._last_fed_day: datetime.date | None = None

    def observe_day(
        self, day: datetime.date, conflicts: list[DailyConflict]
    ) -> None:
        """Feed one day's conflicts.  Days must arrive in order."""
        if self._last_fed_day is not None and day <= self._last_fed_day:
            raise ValueError(
                f"days must be fed in increasing order: {day} after "
                f"{self._last_fed_day}"
            )
        self._last_fed_day = day
        records = self._records
        seen = self._seen
        for conflict in conflicts:
            key = id(conflict)
            entry = seen.get(key)
            if entry is not None and entry[0]() is conflict:
                record = entry[1]
                record[_LAST] = day
                record[_DAYS] += 1
                record[_EPISODE] = None
                continue
            prefix = conflict.prefix
            record = records.get(prefix)
            width = len(conflict.origins)
            if record is None:
                records[prefix] = record = [
                    day, day, 1, set(conflict.origins), width, None,
                ]
            else:
                record[_LAST] = day
                record[_DAYS] += 1
                record[_EPISODE] = None
                record[_ORIGINS].update(conflict.origins)
                if width > record[_WIDTH]:
                    record[_WIDTH] = width
            seen[key] = (
                weakref.ref(
                    conflict,
                    lambda _ref, _seen=seen, _key=key: _seen.pop(_key, None),
                ),
                record,
            )

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the tracker's streaming state.

        Together with :meth:`from_state` this lets long-running studies
        checkpoint mid-stream and resume without replaying earlier days.
        Prefixes are stored as ``[network, length]`` integer pairs so the
        payload survives a JSON round trip exactly.
        """
        return {
            "last_fed_day": (
                self._last_fed_day.isoformat()
                if self._last_fed_day is not None
                else None
            ),
            "prefixes": [
                [
                    prefix.network,
                    prefix.length,
                    record[_FIRST].isoformat(),
                    record[_LAST].isoformat(),
                    record[_DAYS],
                    sorted(record[_ORIGINS]),
                    record[_WIDTH],
                ]
                for prefix, record in self._records.items()
            ],
        }

    @classmethod
    def from_state(cls, state: dict) -> "EpisodeTracker":
        """Rebuild a tracker from a :meth:`state_dict` payload."""
        tracker = cls()
        last_fed = state.get("last_fed_day")
        tracker._last_fed_day = (
            datetime.date.fromisoformat(last_fed)
            if last_fed is not None
            else None
        )
        for network, length, first, last, days, origins, width in state[
            "prefixes"
        ]:
            prefix = Prefix(network, length, strict=False)
            tracker._records[prefix] = [
                datetime.date.fromisoformat(first),
                datetime.date.fromisoformat(last),
                days,
                set(origins),
                width,
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

        A record's episode object is reused until the record is
        observed again or its ``ongoing`` flag flips, so a prefix the
        latest days left alone answers with the same object as before.
        """
        if last_observed_day is None:
            last_observed_day = self._last_fed_day
        episodes: dict[Prefix, ConflictEpisode] = {}
        for prefix, record in self._records.items():
            last_day = record[_LAST]
            ongoing = last_day == last_observed_day
            episode = record[_EPISODE]
            if episode is None or episode.ongoing is not ongoing:
                episode = record[_EPISODE] = ConflictEpisode(
                    prefix=prefix,
                    first_day=record[_FIRST],
                    last_day=last_day,
                    days_observed=record[_DAYS],
                    origins_ever=frozenset(record[_ORIGINS]),
                    max_origins_single_day=record[_WIDTH],
                    ongoing=ongoing,
                )
            episodes[prefix] = episode
        return episodes

    def __len__(self) -> int:
        return len(self._records)
