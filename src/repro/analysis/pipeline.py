"""The streaming study pipeline: detections in, paper statistics out.

Memory discipline matters: a full-scale study is ~10^5 conflicts times
10^3 days.  The pipeline therefore streams day by day, keeping only the
aggregates each figure needs (daily counts, episode tracker state,
per-year length counters, in-window classification tallies, spike
evidence), never the full per-day conflict sets.

The streaming state lives in :class:`StudyState`, an incrementally
feedable accumulator that can serialize itself mid-study
(:meth:`StudyState.state_dict` / :meth:`StudyState.from_state`).
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
from collections import Counter, deque
from dataclasses import dataclass, field

from repro.analysis.parallel import iter_detections
from repro.core.causes import SpikeReport
from repro.core.classifier import ConflictClass, classify_day
from repro.core.detector import DayDetection
from repro.core.episodes import ConflictEpisode, EpisodeTracker
from repro.core.stats import (
    duration_expectations,
    duration_histogram,
    involvement_fraction,
    one_time_conflicts,
    long_lived_conflicts,
    max_duration,
    ongoing_conflicts,
    peak_days,
    sequence_involvement_fraction,
    yearly_increase_rates,
    yearly_medians,
)
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import (
    RoaTable,
    STATE_NOT_EVALUATED,
    ValidationState,
)
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
        #: Immutable ROA database conflicts are validated against;
        #: shared (not copied) with clones — see
        #: :mod:`repro.netbase.rpki`.
        self.roa_table = roa_table
        self._rpki_states: dict[Prefix, ValidationState] = {}
        self._tracker = EpisodeTracker()
        self._daily_series: list[tuple[datetime.date, int]] = []
        self._recent_counts: deque[int] = deque(
            maxlen=self.pipeline.spike_window_days
        )
        self._length_sums: dict[int, Counter[int]] = {}
        self._days_per_year: Counter[int] = Counter()
        self._classification: list[
            tuple[datetime.date, dict[ConflictClass, int]]
        ] = []
        self._case_studies: list[CaseStudy] = []
        self._as_set_excluded_max = 0
        self._total_days = 0

    @property
    def total_days(self) -> int:
        """Days fed so far."""
        return self._total_days

    @property
    def last_day(self) -> datetime.date | None:
        """The most recent day fed, or None before the first feed."""
        return self._daily_series[-1][0] if self._daily_series else None

    def feed_day(self, detection: DayDetection) -> None:
        """Fold one day's detection into the streaming aggregates.

        Days must arrive in strictly increasing order (enforced by the
        episode tracker).
        """
        pipeline = self.pipeline
        day = detection.day
        conflicts = detection.conflicts
        count = len(conflicts)
        self._tracker.observe_day(day, conflicts)
        roa_table = self.roa_table
        if roa_table is not None:
            states = self._rpki_states
            for conflict in conflicts:
                prefix = conflict.prefix
                folded = roa_table.fold_episode_state(
                    states.get(prefix), prefix, conflict.origins, day=day
                )
                if folded is not None:
                    states[prefix] = folded
        self._total_days += 1
        self._daily_series.append((day, count))
        self._as_set_excluded_max = max(
            self._as_set_excluded_max, detection.as_set_excluded
        )

        self._days_per_year[day.year] += 1
        bucket = self._length_sums.setdefault(day.year, Counter())
        for conflict in conflicts:
            bucket[conflict.prefix.length] += 1

        window_start, window_end = pipeline.classification_window
        if window_start <= day <= window_end:
            self._classification.append((day, classify_day(conflicts)))

        # Spike detection needs some baseline history; a full
        # window is ideal but 7+ observed days suffice (studies
        # shorter than the window would otherwise never alarm).
        if len(self._recent_counts) >= min(pipeline.spike_window_days, 7):
            baseline = statistics.median(self._recent_counts)
            if baseline > 0 and count >= pipeline.spike_factor * baseline:
                self._case_studies.append(
                    _case_study(day, conflicts, count, baseline)
                )
        self._recent_counts.append(count)

    def results(self) -> StudyResults:
        """Assemble the full statistics from the current state.

        Non-destructive: the state is still feedable afterwards, so a
        long-running service can report interim results mid-study.

        The returned object is *detached*: every container it carries
        (series lists, the episode table, histograms, rollup dicts) is
        freshly assembled here, so later :meth:`feed_day` calls never
        mutate a results object already handed out.  This is the
        snapshot-isolation contract the serve daemon relies on —
        assemble under the service lock, render outside it.
        """
        episodes = self._tracker.finalize()
        length_distribution = {
            year: {
                length: bucket[length] / self._days_per_year[year]
                for length in sorted(bucket)
            }
            for year, bucket in sorted(self._length_sums.items())
        }
        exchange_point = sum(
            1 for prefix in episodes if IXP_BLOCK.contains(prefix)
        )
        medians = yearly_medians(self._daily_series)
        return StudyResults(
            daily_series=list(self._daily_series),
            episodes=episodes,
            yearly_medians=medians,
            yearly_increase_rates=yearly_increase_rates(medians),
            peak_days=peak_days(self._daily_series),
            duration_histogram=duration_histogram(episodes.values()),
            duration_expectations=duration_expectations(
                episodes.values(), self.pipeline.duration_thresholds
            ),
            one_time_conflicts=one_time_conflicts(episodes.values()),
            long_lived_conflicts=long_lived_conflicts(episodes.values()),
            ongoing_conflicts=ongoing_conflicts(episodes.values()),
            max_duration=max_duration(episodes.values()),
            length_distribution=length_distribution,
            classification_series=list(self._classification),
            case_studies=list(self._case_studies),
            exchange_point_conflicts=exchange_point,
            as_set_excluded_max=self._as_set_excluded_max,
            total_days=self._total_days,
            rpki_episode_states={
                prefix: state.value
                for prefix, state in self._rpki_states.items()
            },
        )

    def clone(self) -> "StudyState":
        """An independent copy of the complete streaming state.

        Feeding the clone never touches the original (and vice versa);
        the immutable ROA table is shared, not copied.
        Built on the :meth:`state_dict` round-trip, so the clone is by
        construction exactly what a checkpoint-restore would produce.
        """
        copied = StudyState.from_state(
            self.state_dict(), pipeline=self.pipeline
        )
        if self.roa_table is not None:
            # from_state rebuilds the table from rows; share the
            # original instance instead so validation memos stay warm.
            copied.roa_table = self.roa_table
        return copied

    # -- checkpoint serialization ------------------------------------------

    def state_dict(self) -> dict:
        """The complete streaming state as a JSON-serializable dict."""
        return {
            # Always null.  Releases that split the prefix space into
            # shards recorded the state's shard here; the key stays so
            # checkpoint bytes and the committed schema do not change.
            "shard": None,
            "tracker": self._tracker.state_dict(),
            "daily_series": [
                [day.isoformat(), count]
                for day, count in self._daily_series
            ],
            "recent_counts": list(self._recent_counts),
            "length_sums": {
                str(year): {
                    str(length): count for length, count in bucket.items()
                }
                for year, bucket in self._length_sums.items()
            },
            "days_per_year": {
                str(year): count
                for year, count in self._days_per_year.items()
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
            "total_days": self._total_days,
            # The RPKI block exists only for RPKI-enabled sessions, so
            # pre-RPKI checkpoints stay loadable (and new checkpoints
            # without a table stay byte-compatible with them).
            **(
                {
                    "rpki": {
                        "roas": [
                            roa.to_dict() for roa in self.roa_table
                        ],
                        "states": {
                            str(prefix): state.value
                            for prefix, state in sorted(
                                self._rpki_states.items(),
                                key=lambda item: item[0].sort_key(),
                            )
                        },
                    }
                }
                if self.roa_table is not None
                else {}
            ),
        }

    @classmethod
    def from_state(
        cls, state: dict, *, pipeline: StudyPipeline | None = None
    ) -> "StudyState":
        """Rebuild mid-study streaming state from :meth:`state_dict`.

        A state scoped to a prefix shard (a non-null ``shard``) is
        rejected: a legacy sharded checkpoint is merged into one
        whole-space state at load (see :mod:`repro.api.service`).
        """
        if state.get("shard") is not None:
            raise ValueError(
                "study state covers one prefix shard; merge the "
                "checkpoint's shards before restoring it"
            )
        rpki_payload = state.get("rpki")
        restored = cls(
            pipeline,
            roa_table=(
                RoaTable.from_rows(rpki_payload["roas"])
                if rpki_payload is not None
                else None
            ),
        )
        if rpki_payload is not None:
            restored._rpki_states = {
                Prefix.parse(text): ValidationState(value)
                for text, value in rpki_payload["states"].items()
            }
        restored._tracker = EpisodeTracker.from_state(state["tracker"])
        restored._daily_series = [
            (datetime.date.fromisoformat(day), count)
            for day, count in state["daily_series"]
        ]
        restored._recent_counts.extend(state["recent_counts"])
        restored._length_sums = {
            int(year): Counter(
                {int(length): count for length, count in bucket.items()}
            )
            for year, bucket in state["length_sums"].items()
        }
        restored._days_per_year = Counter(
            {int(year): count for year, count in state["days_per_year"].items()}
        )
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
        restored._total_days = state["total_days"]
        return restored


def _case_study(
    day: datetime.date,
    conflicts: list,
    count: int,
    baseline: float,
) -> CaseStudy:
    """Gather the culprit evidence for a spike day, paper-style."""
    involvement: Counter[int] = Counter()
    for conflict in conflicts:
        for origin in conflict.origins:
            involvement[origin] += 1
    culprit, _hits = involvement.most_common(1)[0]
    involved, total = involvement_fraction(conflicts, culprit)
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
    for conflict in conflicts:
        for path in conflict.all_paths():
            for left, right in zip(path, path[1:]):
                if right == culprit:
                    upstream_counts[left] += 1
    upstream = (
        upstream_counts.most_common(1)[0][0] if upstream_counts else None
    )
    if upstream is not None:
        seq_involved, seq_total = sequence_involvement_fraction(
            conflicts, upstream, culprit
        )
    else:
        seq_involved, seq_total = 0, len(conflicts)
    return CaseStudy(
        report=report,
        upstream_asn=upstream,
        sequence_involved=seq_involved,
        sequence_total=seq_total,
    )
