"""Statistics behind every figure and table of the paper.

Each public function maps to one paper artifact:

- :func:`yearly_medians` — figure 2 (the yearly-median table),
- :func:`duration_histogram` — figure 3,
- :func:`duration_expectations` — figure 4 (conditional means),
- :func:`prefix_length_distribution` — figure 5,
- plus spike/involvement helpers used by the Section VI case studies.
"""

from __future__ import annotations

import datetime
import statistics
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

from repro.core.detector import DailyConflict
from repro.core.episodes import ConflictEpisode


# ---------------------------------------------------------------------------
# Figure 1 / Figure 2: daily counts and yearly medians
# ---------------------------------------------------------------------------


def daily_count_series(
    detections: Iterable[tuple[datetime.date, int]],
) -> list[tuple[datetime.date, int]]:
    """Normalize and order a (day, conflict-count) series."""
    series = sorted(detections)
    for (day_a, _), (day_b, _) in zip(series, series[1:]):
        if day_a == day_b:
            raise ValueError(f"duplicate day {day_a} in series")
    return series


def yearly_medians(
    series: Sequence[tuple[datetime.date, int]],
) -> dict[int, float]:
    """Median daily conflict count per calendar year (figure 2)."""
    by_year: dict[int, list[int]] = {}
    for day, count in series:
        by_year.setdefault(day.year, []).append(count)
    return {
        year: float(statistics.median(counts))
        for year, counts in sorted(by_year.items())
    }


def yearly_increase_rates(medians: Mapping[int, float]) -> dict[int, float]:
    """Year-over-year growth of the medians, as fractions (figure 2).

    The paper reports 18.7% / 17.3% / 36.1% for 1999-2001.
    """
    rates: dict[int, float] = {}
    years = sorted(medians)
    for previous, current in zip(years, years[1:]):
        if medians[previous] > 0:
            rates[current] = (
                medians[current] - medians[previous]
            ) / medians[previous]
    return rates


def peak_days(
    series: Sequence[tuple[datetime.date, int]], count: int = 2
) -> list[tuple[datetime.date, int]]:
    """The ``count`` highest-count days (the figure-1 spikes)."""
    return sorted(series, key=lambda item: item[1], reverse=True)[:count]


# ---------------------------------------------------------------------------
# Figure 3 / Figure 4: durations
# ---------------------------------------------------------------------------


def duration_histogram(
    episodes: Iterable[ConflictEpisode],
) -> Counter[int]:
    """days-observed -> number of conflicts (figure 3)."""
    return Counter(episode.days_observed for episode in episodes)


def duration_expectations(
    episodes: Iterable[ConflictEpisode],
    thresholds: Sequence[int] = (0, 1, 9, 29, 89),
) -> dict[int, float]:
    """E[duration | duration > k] for each threshold k (figure 4).

    Durations are in observed days; thresholds follow the paper's rows
    ("longer than 0/1/9/29/89 days").  Thresholds with no qualifying
    conflicts are omitted.
    """
    durations = [episode.days_observed for episode in episodes]
    result: dict[int, float] = {}
    for threshold in thresholds:
        qualifying = [d for d in durations if d > threshold]
        if qualifying:
            result[threshold] = sum(qualifying) / len(qualifying)
    return result


def one_time_conflicts(episodes: Iterable[ConflictEpisode]) -> int:
    """Conflicts seen on exactly one snapshot (paper: 13 730)."""
    return sum(1 for episode in episodes if episode.one_time)


#: Days a conflict must exceed to count as long-lived.
LONG_LIVED_DAYS = 300


def long_lived_conflicts(
    episodes: Iterable[ConflictEpisode], threshold_days: int = LONG_LIVED_DAYS
) -> int:
    """Conflicts longer than ``threshold_days`` (paper: 1 002 > 300)."""
    return sum(
        1
        for episode in episodes
        if episode.days_observed > threshold_days
    )


def ongoing_conflicts(episodes: Iterable[ConflictEpisode]) -> int:
    """Conflicts still present on the last observed day (paper: 1 326)."""
    return sum(1 for episode in episodes if episode.ongoing)


def max_duration(episodes: Iterable[ConflictEpisode]) -> int:
    """The longest observed duration in days (paper: 1 246 of 1 279)."""
    return max(
        (episode.days_observed for episode in episodes), default=0
    )


# ---------------------------------------------------------------------------
# Figure 5: prefix-length distribution
# ---------------------------------------------------------------------------


def prefix_length_distribution(
    daily_conflicts: Iterable[tuple[datetime.date, Sequence[DailyConflict]]],
) -> dict[int, dict[int, float]]:
    """year -> prefix length -> mean daily conflict count (figure 5).

    Figure 5's y-axis (peaking around 700 for /24) matches the *average
    standing count* per length, not totals — computed here as the mean
    over that year's observed days.
    """
    sums: dict[int, Counter[int]] = {}
    days_per_year: Counter[int] = Counter()
    for day, conflicts in daily_conflicts:
        year = day.year
        days_per_year[year] += 1
        bucket = sums.setdefault(year, Counter())
        for conflict in conflicts:
            bucket[conflict.prefix.length] += 1
    return {
        year: {
            length: bucket[length] / days_per_year[year]
            for length in sorted(bucket)
        }
        for year, bucket in sorted(sums.items())
    }


# ---------------------------------------------------------------------------
# Section VI-E: fault spikes and AS involvement
# ---------------------------------------------------------------------------


def involvement_fraction(
    conflicts: Sequence[DailyConflict], asn: int
) -> tuple[int, int]:
    """(conflicts involving ``asn`` as an origin, total) for one day.

    The paper: AS 8584 was involved in 11 357 of 11 842 conflicts on
    1998-04-07.
    """
    involved = sum(1 for conflict in conflicts if asn in conflict.origins)
    return involved, len(conflicts)


def sequence_involvement_fraction(
    conflicts: Sequence[DailyConflict], upstream: int, origin: int
) -> tuple[int, int]:
    """Conflicts whose paths contain the hop ``upstream -> origin``.

    The paper: the sequence (AS 3561, AS 15412) was involved in 5 532 of
    6 627 conflicts on 2001-04-10.
    """
    involved = 0
    for conflict in conflicts:
        if _contains_sequence(conflict, upstream, origin):
            involved += 1
    return involved, len(conflicts)


def _contains_sequence(
    conflict: DailyConflict, upstream: int, origin: int
) -> bool:
    for path in conflict.all_paths():
        for left, right in zip(path, path[1:]):
            if left == upstream and right == origin:
                return True
    return False


def conflicted_prefixes_by_length(
    episodes: Iterable[ConflictEpisode],
) -> Counter[int]:
    """Total distinct conflicted prefixes per length (whole study)."""
    return Counter(episode.prefix.length for episode in episodes)


def share_of_length(
    distribution: Mapping[int, float], length: int = 24
) -> float:
    """Fraction of conflicts at one prefix length (figure 5's /24 bulk)."""
    total = sum(distribution.values())
    if total == 0:
        return 0.0
    return distribution.get(length, 0.0) / total
