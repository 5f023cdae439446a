"""Integration tests: archive -> pipeline -> paper statistics."""

import datetime

import pytest

from repro.analysis.pipeline import StudyPipeline
from repro.analysis.sources import (
    detections_from_archive,
    detections_from_mrt_files,
)
from repro.core.detector import detect_snapshot
from repro.mrt.reader import read_rib_snapshot
from repro.scenario.archive import ArchiveReader
from repro.scenario.calibration import PAPER
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar
from tests.core.object_scan import detect_day

CALENDAR = StudyCalendar(
    datetime.date(1998, 3, 20), datetime.date(1998, 4, 30)
)  # 42 days spanning the 1998 fault
MRT_DAY = datetime.date(1998, 4, 7)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    directory = tmp_path_factory.mktemp("study")
    config = ScenarioConfig(
        scale=0.02, calendar=CALENDAR, paper_archive_gaps=False
    )
    summary = simulate_study(
        directory, config, mrt_export_days={MRT_DAY}
    )
    window = (datetime.date(1998, 3, 20), datetime.date(1998, 4, 30))
    pipeline = StudyPipeline(classification_window=window)
    results = pipeline.run(detections_from_archive(directory))
    return directory, summary, results


class TestPipelineResults:
    def test_every_day_analyzed(self, study):
        _directory, summary, results = study
        assert results.total_days == summary["observed_days"]
        assert len(results.daily_series) == results.total_days

    def test_conflicts_found(self, study):
        _directory, _summary, results = study
        assert results.total_conflicts > 0
        assert all(count >= 0 for _day, count in results.daily_series)

    def test_spike_day_is_peak(self, study):
        _directory, _summary, results = study
        assert results.peak_days[0][0] == PAPER.spike_1998_date

    def test_spike_case_study_identifies_culprit(self, study):
        _directory, _summary, results = study
        spike_cases = [
            case
            for case in results.case_studies
            if case.report.day == PAPER.spike_1998_date
        ]
        assert len(spike_cases) == 1
        case = spike_cases[0]
        assert case.report.culprit_asn == PAPER.spike_1998_faulty_asn
        assert case.report.involvement > 0.8

    def test_one_time_conflicts_dominated_by_spike(self, study):
        _directory, _summary, results = study
        # The one-day fault conflicts should dominate one-timers, as in
        # the paper (11 358 of 13 730).
        assert results.one_time_conflicts > 0.3 * results.total_conflicts

    def test_duration_histogram_sums_to_total(self, study):
        _directory, _summary, results = study
        assert (
            sum(results.duration_histogram.values())
            == results.total_conflicts
        )

    def test_duration_expectations_monotone(self, study):
        _directory, _summary, results = study
        values = [
            results.duration_expectations[k]
            for k in sorted(results.duration_expectations)
        ]
        assert values == sorted(values)

    def test_length_distribution_dominated_by_24(self, study):
        _directory, _summary, results = study
        for _year, by_length in results.length_distribution.items():
            if sum(by_length.values()) < 5:
                continue
            assert max(by_length, key=by_length.get) == 24

    def test_classification_series_covers_window(self, study):
        _directory, _summary, results = study
        assert len(results.classification_series) == results.total_days
        for _day, counts in results.classification_series:
            assert all(value >= 0 for value in counts.values())

    def test_exchange_point_conflicts_present(self, study):
        _directory, _summary, results = study
        assert results.exchange_point_conflicts >= 1

    def test_as_set_exclusions_counted(self, study):
        _directory, _summary, results = study
        assert results.as_set_excluded_max >= 2

    def test_episode_days_bounded_by_study(self, study):
        _directory, _summary, results = study
        for episode in results.episodes.values():
            assert 1 <= episode.days_observed <= results.total_days


class TestMrtEquivalence:
    def test_mrt_export_exists(self, study):
        directory, _summary, _results = study
        assert (directory / "mrt" / f"rib.{MRT_DAY}.mrt").exists()

    def test_mrt_and_cds_detections_agree(self, study):
        """The full MRT table and the CDS record yield identical MOAS."""
        directory, _summary, _results = study
        mrt_path = directory / "mrt" / f"rib.{MRT_DAY}.mrt"
        from_mrt = detect_snapshot(read_rib_snapshot(mrt_path))

        reader = ArchiveReader(directory)
        record = next(
            record
            for record in reader.iter_days()
            if record.day == MRT_DAY
        )
        from_cds = detect_day(record, reader)

        mrt_conflicts = {
            conflict.prefix: conflict.origins
            for conflict in from_mrt.conflicts
        }
        cds_conflicts = {
            conflict.prefix: conflict.origins
            for conflict in from_cds.conflicts
        }
        assert mrt_conflicts == cds_conflicts
        assert from_mrt.as_set_excluded == from_cds.as_set_excluded

    def test_detections_from_mrt_files_source(self, study):
        directory, _summary, _results = study
        mrt_path = directory / "mrt" / f"rib.{MRT_DAY}.mrt"
        detections = list(detections_from_mrt_files([mrt_path]))
        assert len(detections) == 1
        assert detections[0].day == MRT_DAY
        assert detections[0].num_conflicts > 0


class TestKeptStatistics:
    """``StudyState.results`` keeps what it derived between calls; at
    any gap between reads it equals a state restored from the
    checkpoint payload, which derives everything afresh."""

    def test_reads_at_irregular_gaps_across_years(self):
        from repro.analysis.pipeline import StudyState
        from repro.core.detector import DailyConflict, DayDetection
        from repro.netbase.prefix import Prefix
        from repro.topology.ixp import IXP_BLOCK

        prefixes = [Prefix(0x0A000000 | (n << 8), 24) for n in range(40)]
        prefixes[15] = IXP_BLOCK
        state = StudyState()
        start = datetime.date(1998, 11, 1)
        reads = 0
        for offset in range(800):
            # A spike every 97 days, conflicts coming and going between.
            width = 30 if offset % 97 == 0 else 3 + offset % 11
            live = prefixes[offset % 13 : offset % 13 + width]
            state.feed_day(
                DayDetection(
                    day=start + datetime.timedelta(days=offset),
                    conflicts=tuple(
                        DailyConflict(
                            prefix=prefix,
                            origins=frozenset((1, 2 + n % (2 + offset % 3))),
                        )
                        for n, prefix in enumerate(live)
                    ),
                    prefixes_scanned=len(live),
                    as_set_excluded=0,
                )
            )
            if offset % 11 in (0, 4) or offset % 61 == 0:
                reads += 1
                cold = StudyState.from_state(state.state_dict()).results()
                assert state.results() == cold
                assert_stats_of_episodes(cold, state.pipeline)
        assert reads > 100
        assert list(cold.yearly_medians) == [1998, 1999, 2000, 2001]
        assert cold.long_lived_conflicts and cold.exchange_point_conflicts


def assert_stats_of_episodes(results, pipeline) -> None:
    """The figure 2-4 and summary fields equal the paper's definitions
    in :mod:`repro.core.stats` over the same episodes and series."""
    from repro.core import stats
    from repro.topology.ixp import IXP_BLOCK

    episodes = list(results.episodes.values())
    series = results.daily_series
    assert results.duration_histogram == stats.duration_histogram(episodes)
    assert list(results.duration_expectations.items()) == list(
        stats.duration_expectations(
            episodes, pipeline.duration_thresholds
        ).items()
    )
    assert results.one_time_conflicts == stats.one_time_conflicts(episodes)
    assert results.long_lived_conflicts == stats.long_lived_conflicts(episodes)
    assert results.ongoing_conflicts == stats.ongoing_conflicts(episodes)
    assert results.max_duration == stats.max_duration(episodes)
    assert list(results.yearly_medians.items()) == list(
        stats.yearly_medians(series).items()
    )
    assert results.peak_days == stats.peak_days(series)
    assert results.exchange_point_conflicts == sum(
        IXP_BLOCK.contains(episode.prefix) for episode in episodes
    )
