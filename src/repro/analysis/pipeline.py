"""The streaming study pipeline: detections in, paper statistics out.

Memory discipline matters: a full-scale study is ~10^5 conflicts times
10^3 days.  The pipeline therefore streams day by day, keeping only the
aggregates each figure needs (daily counts, episode tracker state,
per-year length counters, in-window classification tallies, spike
evidence), never the full per-day conflict sets.

The streaming state lives in :class:`StudyState`, an incrementally
feedable accumulator that can serialize itself mid-study
(:meth:`StudyState.state_dict` / :meth:`StudyState.from_state`).  Its
per-prefix part is one fold: the
:class:`~repro.core.episodes.EpisodeTracker` record carries each
episode's class votes and RPKI rollup beside its days and origins, so
the state's verdicts (:meth:`StudyState.verdicts`) are judged from the
same records its episodes come from.  Its per-fed-day derivations —
the results, the verdicts, the episode index and the ``/v1/verdicts``
rows — are kept in the state and patched after each fold, so every
reader of one session shares them.  The state also keeps the last fed
day's conflict origin map, which it updates from the tracker's day
diff; each fold returns the map's transitions, which the serve daemon
replays as alerts (:class:`~repro.core.realtime.DaySnapshotAlerter`).
:class:`StudyPipeline` is the batch convenience over it, and
:class:`repro.api.MoasService` is the session facade that adds
checkpoint files and pluggable sources on top.

A study has one :class:`StudyState`.  Parallel runs split only the
per-day detection (:func:`repro.analysis.parallel.iter_detections`),
which hands the days back in order, so the fold is the same whatever
the worker count.
"""

from __future__ import annotations

import datetime
import statistics
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

from repro.analysis.parallel import iter_detections
from repro.core.causes import SpikeReport
from repro.core.classifier import ConflictClass, classify_day
from repro.core.detector import DayDetection
from repro.core.episodes import RPKI, ConflictEpisode, EpisodeTracker, episode_of
from repro.core.stats import (
    LONG_LIVED_DAYS,
    peak_days,
    yearly_increase_rates,
    yearly_medians,
)
from repro.core.verdict import Verdict, VerdictEngine
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import STATE_NOT_EVALUATED, RoaTable
from repro.scenario.timeline import CLASSIFICATION_WINDOW
from repro.topology.ixp import IXP_BLOCK


@dataclass(frozen=True)
class CaseStudy:
    """Spike-day evidence gathered while streaming (Section VI-E)."""

    report: SpikeReport
    #: (involved, total) for the culprit's most common upstream hop.
    upstream_asn: int | None
    sequence_involved: int
    sequence_total: int


@dataclass
class StudyResults:
    """Every statistic the paper's figures and tables report."""

    daily_series: list[tuple[datetime.date, int]]
    episodes: dict[Prefix, ConflictEpisode]
    yearly_medians: dict[int, float]
    yearly_increase_rates: dict[int, float]
    peak_days: list[tuple[datetime.date, int]]
    duration_histogram: Counter[int]
    duration_expectations: dict[int, float]
    one_time_conflicts: int
    long_lived_conflicts: int
    ongoing_conflicts: int
    max_duration: int
    length_distribution: dict[int, dict[int, float]]
    classification_series: list[tuple[datetime.date, dict[ConflictClass, int]]]
    case_studies: list[CaseStudy]
    exchange_point_conflicts: int
    as_set_excluded_max: int
    total_days: int
    #: Episode prefix -> RFC 6811 rollup (``"valid"`` / ``"invalid"`` /
    #: ``"not_found"``).  Empty when the study ran without a ROA table;
    #: see :mod:`repro.netbase.rpki` and the ``rpki`` / ``longevity``
    #: renderers.
    rpki_episode_states: dict[Prefix, str] = field(default_factory=dict)

    @property
    def total_conflicts(self) -> int:
        return len(self.episodes)

    @property
    def rpki_state_counts(self) -> dict[str, int]:
        """Episodes per RFC 6811 rollup state (empty without a table)."""
        counts: Counter[str] = Counter()
        for prefix in self.episodes:
            state = self.rpki_episode_states.get(prefix)
            if state is None:
                if not self.rpki_episode_states:
                    return {}
                state = STATE_NOT_EVALUATED
            counts[state] += 1
        return dict(counts)


@dataclass
class StudyPipeline:
    """Configuration for one pipeline run."""

    classification_window: tuple[datetime.date, datetime.date] = (
        CLASSIFICATION_WINDOW
    )
    spike_window_days: int = 30
    spike_factor: float = 4.0
    duration_thresholds: tuple[int, ...] = (0, 1, 9, 29, 89)

    def start(self, *, roa_table: RoaTable | None = None) -> "StudyState":
        """A fresh incremental accumulator under this configuration.

        With ``roa_table`` every observed conflict origin is validated
        per RFC 6811 and episodes carry a validation-state rollup.
        """
        return StudyState(self, roa_table=roa_table)

    def run(
        self,
        detections,
        *,
        workers: int = 1,
        roa_table: RoaTable | None = None,
    ) -> StudyResults:
        """Stream all daily detections and assemble the results.

        ``detections`` is an iterable of daily
        :class:`~repro.core.detector.DayDetection` records, or — when
        ``workers`` asks for parallelism — any detection source
        :func:`~repro.analysis.parallel.iter_detections` can partition
        (a CDS archive directory / ``ArchiveSource``, or an
        ``MrtFilesSource``; see :mod:`repro.analysis.parallel`).

        ``workers`` fans per-day detection out over a process pool
        (``0``/``None`` auto-detects the CPU count; ``1``, the default,
        is the documented serial fallback that never spawns processes).
        Results are identical for every worker count.
        """
        state = self.start(roa_table=roa_table)
        for detection in iter_detections(detections, workers=workers):
            state.feed_day(detection)
        return state.results()

    def config_dict(self) -> dict:
        """JSON-serializable form of this configuration."""
        window_start, window_end = self.classification_window
        return {
            "classification_window": [
                window_start.isoformat(),
                window_end.isoformat(),
            ],
            "spike_window_days": self.spike_window_days,
            "spike_factor": self.spike_factor,
            "duration_thresholds": list(self.duration_thresholds),
        }

    @classmethod
    def from_config_dict(cls, payload: dict) -> "StudyPipeline":
        """Rebuild a configuration from :meth:`config_dict` output."""
        window_start, window_end = payload["classification_window"]
        return cls(
            classification_window=(
                datetime.date.fromisoformat(window_start),
                datetime.date.fromisoformat(window_end),
            ),
            spike_window_days=payload["spike_window_days"],
            spike_factor=payload["spike_factor"],
            duration_thresholds=tuple(payload["duration_thresholds"]),
        )


class StudyState:
    """Incrementally-fed streaming state of one study.

    Feed daily detections in chronological order with :meth:`feed_day`;
    read the paper's statistics at any point with :meth:`results`
    (non-destructive — feeding can continue afterwards).  The entire
    streaming state round-trips through JSON via :meth:`state_dict` and
    :meth:`from_state`, which is what makes mid-study checkpointing
    possible without replaying earlier days.
    """

    def __init__(
        self,
        pipeline: StudyPipeline | None = None,
        *,
        roa_table: RoaTable | None = None,
    ) -> None:
        self.pipeline = pipeline or StudyPipeline()
        #: The one per-prefix fold: episodes, class votes and, with a
        #: ROA table, RPKI rollups (see :mod:`repro.netbase.rpki`).
        self._tracker = EpisodeTracker(roa_table=roa_table)
        #: Conflicts per fed day, in the tracker's fed-day order.
        self._daily_counts: list[int] = []
        self._length_sums: dict[int, Counter[int]] = {}
        self._classification: list[
            tuple[datetime.date, dict[ConflictClass, int]]
        ] = []
        self._case_studies: list[CaseStudy] = []
        self._as_set_excluded_max = 0
        #: prefix -> origin set of each conflict of the last fed day.  A
        #: prefix keeps its slot while its conflict streak lasts and
        #: goes to the end when it comes back; the order of departure
        #: alerts follows it, so it is part of the alert contract.
        self._conflict_origins: dict[Prefix, frozenset[int]] = {}
        #: prefix -> the slot number its streak took in that map (slots
        #: grow with each entry, so they sort departures into map
        #: order), and the next slot number.
        self._slots: dict[Prefix, int] = {}
        self._next_slot = 0
        #: The engine judging :attr:`_tracker`, built on first use and
        #: kept so registry shapes are derived once per registry object.
        self._verdict_engine: VerdictEngine | None = None
        #: What the last :meth:`results` derived from the tracker, kept
        #: for the next: the last fed day it derived at, the episode
        #: table in record order, the count of ongoing episodes, the
        #: days-observed histogram, the RPKI rollups and the count of
        #: exchange-point prefixes.
        self._derived_day: datetime.date | None = None
        self._episodes: dict[Prefix, ConflictEpisode] = {}
        self._ongoing = 0
        self._histogram: Counter[int] = Counter()
        self._rpki_states: dict[Prefix, str] = {}
        self._exchange_point = 0
        #: The daily series, its yearly medians and its peak days as of
        #: the last :meth:`results` call, which only the days fed since
        #: can change.
        self._series: list[tuple[datetime.date, int]] = []
        self._medians: dict[int, float] = {}
        self._peaks: list[tuple[datetime.date, int]] = []
        #: What the last :meth:`results` returned.
        self._results: StudyResults | None = None
        #: ``(registry, index)``: the last :meth:`index` and the
        #: registry its verdicts were judged against.
        self._index: tuple | None = None
        #: ``(registry, last fed day, row keys, rows)``: the last
        #: :meth:`verdict_rows`, the registry and day it was derived at,
        #: and its prefixes' :func:`_row_key` in the same order.
        self._rows: tuple | None = None

    @property
    def roa_table(self) -> RoaTable | None:
        """The immutable ROA database conflicts are validated against."""
        return self._tracker.roa_table

    @property
    def total_days(self) -> int:
        """Days fed so far."""
        return self._tracker.total_days

    @property
    def last_day(self) -> datetime.date | None:
        """The most recent day fed, or None before the first feed."""
        return self._tracker.last_fed_day

    @property
    def conflict_origins(self) -> dict[Prefix, frozenset[int]]:
        """The last fed day's conflict origin map (the state's own dict:
        read only)."""
        return self._conflict_origins

    def feed_day(
        self, detection: DayDetection
    ) -> list[tuple[Prefix, frozenset[int], frozenset[int]]]:
        """Fold one day's detection into the streaming aggregates.

        Returns the day's ``(prefix, old origins, new origins)``
        transitions of :attr:`conflict_origins`, an empty set standing
        for absence: the changed prefixes in detection order, then the
        departed ones in map order.  They come from the episode
        tracker's day diff, so a day costs the map what changed, not
        what it holds.

        Days must arrive in strictly increasing order (enforced by the
        episode tracker before anything is folded).
        """
        pipeline = self.pipeline
        day = detection.day
        conflicts = detection.conflicts
        count = len(conflicts)
        changed, departed = self._tracker.observe_day(day, conflicts)
        self._as_set_excluded_max = max(
            self._as_set_excluded_max, detection.as_set_excluded
        )

        bucket = self._length_sums.setdefault(day.year, Counter())
        for conflict in conflicts:
            bucket[conflict.prefix.length] += 1
        transitions = []
        current = self._conflict_origins
        slots = self._slots
        for conflict in changed:
            prefix = conflict.prefix
            old = current.get(prefix)
            if old is None:
                new = current[prefix] = frozenset(conflict.origins)
                slots[prefix] = self._next_slot
                self._next_slot += 1
                transitions.append((prefix, _NO_ORIGINS, new))
            elif old != conflict.origins:
                new = current[prefix] = frozenset(conflict.origins)
                transitions.append((prefix, old, new))
        gone = []
        for prefix in departed:
            slot = slots.pop(prefix, None)
            # None when a resumed legacy checkpoint's empty map never
            # held the prefix.
            if slot is not None:
                gone.append((slot, prefix))
        for _slot, prefix in sorted(gone):
            transitions.append((prefix, current.pop(prefix), _NO_ORIGINS))

        window_start, window_end = pipeline.classification_window
        if window_start <= day <= window_end:
            self._classification.append((day, classify_day(conflicts)))

        # Spike detection needs some baseline history; a full
        # window is ideal but 7+ observed days suffice (studies
        # shorter than the window would otherwise never alarm).
        window = pipeline.spike_window_days
        recent = self._daily_counts[-window:] if window else []
        if len(recent) >= min(window, 7):
            baseline = statistics.median(recent)
            if baseline > 0 and count >= pipeline.spike_factor * baseline:
                self._case_studies.append(
                    _case_study(day, conflicts, count, baseline)
                )
        self._daily_counts.append(count)
        return transitions

    def results(self) -> StudyResults:
        """Assemble the full statistics from the current state.

        Non-destructive: the state is still feedable afterwards, so a
        long-running service can report interim results mid-study.

        The returned object is *detached*: every container it carries
        (series lists, the episode table, histograms, rollup dicts) is
        assembled for it, so later :meth:`feed_day` calls never mutate
        a results object already handed out.  This is the
        snapshot-isolation contract the serve daemon relies on —
        assemble under the service lock, render outside it.  Until a
        day is fed, every call returns the same object, which callers
        read and never mutate.

        The episode statistics are kept from one call to the next: a
        call after new days re-derives only the episodes
        :meth:`EpisodeTracker.fed_since` the last call's day hands
        over, the records fed since and those then ongoing, whose flag
        may flip, and adjusts the duration histogram that figures 3
        and 4 and the summary counts derive from.
        """
        if self._results is not None and self._derived_day == self.last_day:
            return self._results
        self._refresh_episodes()
        histogram = self._histogram
        days = self._tracker.days
        self._refresh_series()
        length_distribution = {}
        for year, bucket in sorted(self._length_sums.items()):
            # Fed days of the year: the days are sorted.
            fed = bisect_right(days, datetime.date(year, 12, 31)) - bisect_left(
                days, datetime.date(year, 1, 1)
            )
            length_distribution[year] = {
                length: bucket[length] / fed for length in sorted(bucket)
            }
        expectations, long_lived = _duration_summary(
            histogram, self.pipeline.duration_thresholds
        )
        self._results = StudyResults(
            daily_series=list(self._series),
            episodes=dict(self._episodes),
            yearly_medians=dict(self._medians),
            yearly_increase_rates=yearly_increase_rates(self._medians),
            peak_days=list(self._peaks),
            duration_histogram=Counter(histogram),
            duration_expectations=expectations,
            one_time_conflicts=histogram.get(1, 0),
            long_lived_conflicts=long_lived,
            ongoing_conflicts=self._ongoing,
            max_duration=max(histogram, default=0),
            length_distribution=length_distribution,
            classification_series=list(self._classification),
            case_studies=list(self._case_studies),
            exchange_point_conflicts=self._exchange_point,
            as_set_excluded_max=self._as_set_excluded_max,
            total_days=self.total_days,
            rpki_episode_states=dict(self._rpki_states),
        )
        return self._results

    def _refresh_series(self) -> None:
        """Extend the kept daily series by the days fed since the last
        call, and re-derive the medians of their years and the peaks.

        The peak days of a longer series are the peaks of the kept
        peaks and the new days: a day the kept peaks outrank, or tie
        and precede, stays outranked.
        """
        series = self._series
        fed = len(series)
        added = list(zip(self._tracker.days[fed:], self._daily_counts[fed:]))
        if not added:
            return
        series.extend(added)
        # The series from the first day of the first new day's year.
        year_start = (datetime.date(added[0][0].year, 1, 1),)
        self._medians.update(
            yearly_medians(series[bisect_left(series, year_start):])
        )
        self._peaks = peak_days(self._peaks + added)

    def _refresh_episodes(self) -> None:
        """Bring the kept episode statistics up to the tracker's state."""
        tracker = self._tracker
        last_day = tracker.last_fed_day
        since = self._derived_day
        if last_day == since:
            return
        self._derived_day = last_day
        episodes = self._episodes
        histogram = self._histogram
        rpki_states = self._rpki_states
        # New records first, so the table keeps record order.
        added = tracker.newest(len(tracker) - len(episodes))
        redo = added
        if since is not None:
            redo = [*added, *set(tracker.fed_since(since)).difference(added)]
        self._exchange_point += sum(map(IXP_BLOCK.contains, added))
        for prefix in redo:
            record = tracker.record(prefix)
            previous = episodes.get(prefix)
            if previous is not None:
                days = previous.days_observed
                if histogram[days] == 1:
                    del histogram[days]
                else:
                    histogram[days] -= 1
                self._ongoing -= previous.ongoing
            episode = episodes[prefix] = episode_of(prefix, record, last_day)
            histogram[episode.days_observed] += 1
            self._ongoing += episode.ongoing
            if record[RPKI] is not None:
                rpki_states[prefix] = record[RPKI].value

    def verdicts(self, registry=None) -> dict[Prefix, Verdict]:
        """Verdicts judged from the state's own episode records (see
        :meth:`VerdictEngine.finalize`); one engine serves every call,
        so a registry's shapes are derived once per registry object,
        and the same dict comes back until a day is fed."""
        if self._verdict_engine is None:
            self._verdict_engine = VerdictEngine(tracker=self._tracker)
        return self._verdict_engine.finalize(registry=registry)

    def index(self, registry=None):
        """The :class:`~repro.analysis.index.EpisodeIndex` of
        :meth:`results` with :meth:`verdicts` judged against
        ``registry``: what a batch ``analyze --index`` stopped here
        writes.  The same object comes back until a day is fed or
        another registry object is passed.

        A new day's index is the previous one with only the records
        that may differ re-derived (:meth:`EpisodeIndex.rederived`,
        which never mutates the previous one): those
        :meth:`EpisodeTracker.fed_since` hands over from the previous
        index's last day, so those fed since and those then ongoing,
        and the verdict engine's :attr:`~VerdictEngine.wide` records,
        whose anycast call reads the study length.  With no previous
        index of a fed day under the same registry, or when most
        records may differ, the index is built cold.
        """
        from repro.analysis.index import EpisodeIndex

        kept_registry, index = self._index or (None, None)
        same = index is not None and kept_registry is registry
        if same and index.last_day == self.last_day:
            return index
        results = self.results()
        verdicts = self.verdicts(registry)
        redo = None
        if same and index.last_day is not None:
            redo = self._verdict_engine.wide.union(
                self._tracker.fed_since(index.last_day)
            )
        if redo is None or 2 * len(redo) > len(results.episodes):
            index = EpisodeIndex.build(results, verdicts=verdicts)
        else:
            index = index.rederived(results, verdicts, redo)
        self._index = (registry, index)
        return index

    def verdict_rows(self, registry=None) -> list[list]:
        """:meth:`verdicts` in prefix order, as ``[verdict, rendering]``
        rows whose second slot a reader may fill with the verdict's
        rendering (serve keeps its ``/v1/verdicts`` JSON fragment
        there), so a row that outlives a fold keeps it.

        The same list comes back until a day is fed or another registry
        object is passed.  A later day's list is a copy of the previous
        one with a row replaced or inserted (one bisect each) for the
        prefixes :meth:`EpisodeTracker.fed_since` hands over from the
        day after the previous list's, so those fed since, and the
        verdict engine's :attr:`~VerdictEngine.wide` records, each row
        kept while its verdict is the same object; a list already
        handed out is never mutated.  With no previous list of a fed
        day under the same registry, the rows are built afresh.
        """
        kept_registry, since, keys, rows = self._rows or (None, None, None, None)
        same = rows is not None and kept_registry is registry
        last_day = self.last_day
        if same and since == last_day:
            return rows
        verdicts = self.verdicts(registry)
        if same and since is not None:
            keys, rows = list(keys), list(rows)
            fed = self._tracker.fed_since(since + datetime.timedelta(days=1))
            for prefix in self._verdict_engine.wide.union(fed):
                verdict = verdicts[prefix]
                key = _row_key(prefix)
                position = bisect_left(keys, key)
                if position < len(keys) and keys[position] == key:
                    if rows[position][0] is not verdict:
                        rows[position] = [verdict, None]
                else:
                    keys.insert(position, key)
                    rows.insert(position, [verdict, None])
        else:
            order = sorted(verdicts, key=_row_key)
            keys = list(map(_row_key, order))
            rows = [[verdicts[prefix], None] for prefix in order]
        self._rows = (registry, last_day, keys, rows)
        return rows

    # -- checkpoint serialization ------------------------------------------

    def state_dict(self) -> dict:
        """The complete streaming state as a JSON-serializable dict."""
        return {
            "tracker": self._tracker.state_dict(),
            "daily_counts": list(self._daily_counts),
            "length_sums": {
                str(year): {
                    str(length): count for length, count in bucket.items()
                }
                for year, bucket in self._length_sums.items()
            },
            "classification": [
                [
                    day.isoformat(),
                    {
                        conflict_class.value: count
                        for conflict_class, count in counts.items()
                    },
                ]
                for day, counts in self._classification
            ],
            "case_studies": [
                {
                    "day": case.report.day.isoformat(),
                    "total_conflicts": case.report.total_conflicts,
                    "baseline_median": case.report.baseline_median,
                    "culprit_asn": case.report.culprit_asn,
                    "culprit_involved": case.report.culprit_involved,
                    "upstream_asn": case.upstream_asn,
                    "sequence_involved": case.sequence_involved,
                    "sequence_total": case.sequence_total,
                }
                for case in self._case_studies
            ],
            "as_set_excluded_max": self._as_set_excluded_max,
            # In map order: the order is part of the alert contract.
            "conflict_origins": [
                [prefix.network, prefix.length, sorted(origins)]
                for prefix, origins in self._conflict_origins.items()
            ],
        }

    @classmethod
    def from_state(
        cls, state: dict, *, pipeline: StudyPipeline | None = None
    ) -> "StudyState":
        """Rebuild mid-study streaming state from :meth:`state_dict`."""
        restored = cls(pipeline)
        restored._tracker = EpisodeTracker.from_state(state["tracker"])
        restored._daily_counts = list(state["daily_counts"])
        if len(restored._daily_counts) != restored._tracker.total_days:
            raise ValueError(
                f"study state counts conflicts on "
                f"{len(restored._daily_counts)} days but its tracker "
                f"was fed {restored._tracker.total_days}"
            )
        restored._length_sums = {
            int(year): Counter(
                {int(length): count for length, count in bucket.items()}
            )
            for year, bucket in state["length_sums"].items()
        }
        restored._classification = [
            (
                datetime.date.fromisoformat(day),
                {
                    ConflictClass(value): count
                    for value, count in counts.items()
                },
            )
            for day, counts in state["classification"]
        ]
        restored._case_studies = [
            CaseStudy(
                report=SpikeReport(
                    day=datetime.date.fromisoformat(case["day"]),
                    total_conflicts=case["total_conflicts"],
                    baseline_median=case["baseline_median"],
                    culprit_asn=case["culprit_asn"],
                    culprit_involved=case["culprit_involved"],
                ),
                upstream_asn=case["upstream_asn"],
                sequence_involved=case["sequence_involved"],
                sequence_total=case["sequence_total"],
            )
            for case in state["case_studies"]
        ]
        restored._as_set_excluded_max = state["as_set_excluded_max"]
        restored._conflict_origins = {
            Prefix(network, length, strict=False): frozenset(origins)
            for network, length, origins in state["conflict_origins"]
        }
        restored._slots = {
            prefix: slot
            for slot, prefix in enumerate(restored._conflict_origins)
        }
        restored._next_slot = len(restored._slots)
        return restored


_NO_ORIGINS: frozenset[int] = frozenset()


def _row_key(prefix: Prefix) -> int:
    """``prefix.sort_key()`` packed into one int, in the same order."""
    return (prefix.network << 6) | prefix.length


def _duration_summary(
    histogram: Counter[int], thresholds
) -> tuple[dict[int, float], int]:
    """``(figure 4's expectations, long-lived count)`` from a
    days-observed histogram: E[duration | duration > k] for each
    threshold k with a qualifying conflict, in threshold order, and the
    conflicts longer than :data:`LONG_LIVED_DAYS`."""
    ascending = sorted(histogram)
    descending = ascending[::-1]
    # Conflicts and their summed days over the i + 1 longest durations.
    counts = list(accumulate(histogram[days] for days in descending))
    totals = list(accumulate(days * histogram[days] for days in descending))

    def longer_than(threshold: int) -> int:
        """Distinct durations exceeding ``threshold``."""
        return len(ascending) - bisect_right(ascending, threshold)

    expectations = {}
    for threshold in thresholds:
        longer = longer_than(threshold)
        if longer:
            expectations[threshold] = totals[longer - 1] / counts[longer - 1]
    longer = longer_than(LONG_LIVED_DAYS)
    return expectations, counts[longer - 1] if longer else 0


def _case_study(
    day: datetime.date,
    conflicts: list,
    count: int,
    baseline: float,
) -> CaseStudy:
    """Gather the culprit evidence for a spike day, paper-style.

    One walk over the origin sets finds the culprit and, since an
    origin set holds each AS once, its involvement; one walk over the
    paths that contain it finds every hop into it.
    """
    involvement: Counter[int] = Counter()
    for conflict in conflicts:
        involvement.update(conflict.origins)
    culprit, involved = involvement.most_common(1)[0]
    report = SpikeReport(
        day=day,
        total_conflicts=count,
        baseline_median=float(baseline),
        culprit_asn=culprit,
        culprit_involved=involved,
    )
    # The paper identified the (upstream, culprit) hop for the 2001
    # incident; find the culprit's most common upstream in paths.
    upstream_counts: Counter[int] = Counter()
    #: Per conflict whose paths reach the culprit through a hop: the
    #: ASes those hops come from.
    upstream_sets: list[set[int]] = []
    for conflict in conflicts:
        hops: set[int] = set()
        for _origin, paths in conflict.paths_by_origin:
            for path in paths:
                if culprit not in path:
                    continue
                for left, right in zip(path, path[1:]):
                    if right == culprit:
                        upstream_counts[left] += 1
                        hops.add(left)
        if hops:
            upstream_sets.append(hops)
    upstream = (
        upstream_counts.most_common(1)[0][0] if upstream_counts else None
    )
    seq_involved = sum(upstream in hops for hops in upstream_sets)
    return CaseStudy(
        report=report,
        upstream_asn=upstream,
        sequence_involved=seq_involved,
        sequence_total=len(conflicts),
    )
