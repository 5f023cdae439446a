"""The parallel engine's core invariant: parallel == serial, exactly.

Covers identical ``StudyResults`` (episodes, case studies,
classification series and all) for ``workers=1`` and ``workers=4``, a
restored mid-study state that resumes to the same results as an
uninterrupted run, and the supporting machinery (task partitioning,
ordered parallel detection, worker resolution).

``REPRO_TEST_WORKERS`` overrides the worker count used by the equality
tests, so CI can re-run this file at different pool sizes.
"""

import datetime
import json
import os

import pytest

from repro.analysis.parallel import (
    iter_detections,
    partition_tasks,
    resolve_workers,
)
from repro.analysis.pipeline import StudyPipeline, StudyState
from repro.api.sources import ArchiveSource, MemorySource
from repro.scenario.archive import ArchiveReader
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "4"))

CALENDAR = StudyCalendar(
    datetime.date(1998, 3, 20), datetime.date(1998, 4, 30)
)  # spans the 1998 fault spike, so case studies are exercised
WINDOW = (datetime.date(1998, 3, 20), datetime.date(1998, 4, 30))


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("parallel") / "archive"
    simulate_study(
        directory,
        ScenarioConfig(scale=0.02, calendar=CALENDAR, paper_archive_gaps=False),
    )
    return directory


@pytest.fixture(scope="module")
def pipeline():
    return StudyPipeline(classification_window=WINDOW)


@pytest.fixture(scope="module")
def serial_results(pipeline, archive):
    return pipeline.run(ArchiveSource(archive))


class TestEqualityProperty:
    """For the same source, every worker count agrees exactly."""

    def test_workers_match_serial(self, pipeline, archive, serial_results):
        parallel = pipeline.run(ArchiveSource(archive), workers=WORKERS)
        assert parallel == serial_results

    def test_sensitive_fields_identical(
        self, pipeline, archive, serial_results
    ):
        """Spell out the fields the acceptance criteria call out."""
        parallel = pipeline.run(ArchiveSource(archive), workers=WORKERS)
        assert parallel.episodes == serial_results.episodes
        assert parallel.case_studies == serial_results.case_studies
        assert (
            parallel.classification_series
            == serial_results.classification_series
        )
        assert parallel.daily_series == serial_results.daily_series
        assert parallel.as_set_excluded_max == (
            serial_results.as_set_excluded_max
        )


class TestOrderedParallelDetection:
    def test_parallel_stream_equals_serial_stream(self, archive):
        source = ArchiveSource(archive)
        serial = list(source.detections())
        parallel = list(iter_detections(source, workers=WORKERS))
        assert parallel == serial

    def test_plain_directory_is_partitionable(self, archive):
        serial = list(ArchiveSource(archive).detections())
        parallel = list(iter_detections(str(archive), workers=2))
        assert parallel == serial

    def test_iter_days_range_matches_slices(self, archive):
        reader = ArchiveReader(archive)
        full = list(reader.iter_days())
        assert list(reader.iter_days(3, 7)) == full[3:7]
        assert list(reader.iter_days(0, 1)) == full[:1]
        assert list(reader.iter_days(len(full))) == []
        assert list(reader.iter_days(5)) == full[5:]


class TestPartitioning:
    def test_archive_tasks_cover_all_days_once(self, archive):
        tasks = partition_tasks(ArchiveSource(archive), workers=3)
        manifest_days = ArchiveSource(archive).manifest["num_days"]
        spans = [args[1:] for _fn, args in tasks]
        assert spans[0][0] == 0
        assert spans[-1][1] == manifest_days
        for (_, previous_stop), (next_start, _) in zip(spans, spans[1:]):
            assert next_start == previous_stop

    def test_memory_source_not_partitionable(self):
        assert partition_tasks(MemorySource([]), workers=4) is None

    def test_v2_archive_partitions_like_its_v1_twin(
        self, archive, tmp_path
    ):
        from repro.scenario.archive import convert_archive

        converted = tmp_path / "v2"
        convert_archive(archive, converted, format="v2")
        twin = partition_tasks(archive, workers=2)
        tasks = partition_tasks(converted, workers=2)
        assert [fn for fn, _args in tasks] == [fn for fn, _args in twin]
        assert [args[1:] for _fn, args in tasks] == [
            args[1:] for _fn, args in twin
        ]

    @pytest.mark.parametrize("format", ("v1", "v2"))
    def test_manifest_day_count_lie_raises_cleanly(self, tmp_path, format):
        from repro.scenario.archive import ArchiveError, ArchiveWriter

        directory = tmp_path / "lying"
        writer = ArchiveWriter(directory, format=format)
        writer.finalize({"calendar_start": "1997-11-08"})
        manifest_path = directory / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["num_days"] = 3
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ArchiveError, match="manifest says"):
            list(iter_detections(str(directory), workers=2))

    def test_mrt_source_partitioned_by_file(self, tmp_path):
        from repro.api.sources import MrtFilesSource

        paths = [tmp_path / f"{index}.mrt" for index in range(10)]
        source = MrtFilesSource(paths)
        tasks = partition_tasks(source, workers=2, chunks_per_worker=2)
        chunked = [path for _fn, (chunk, _days) in tasks for path in chunk]
        assert chunked == [str(path) for path in paths]


class TestResolveWorkers:
    def test_auto_detects(self):
        assert resolve_workers(0) >= 1
        assert resolve_workers(None) == resolve_workers(0)

    def test_passthrough(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            resolve_workers(-2)


class TestResume:
    def test_restored_state_continues_a_partial_run(
        self, pipeline, archive, serial_results
    ):
        detections = list(ArchiveSource(archive).detections())
        state = pipeline.start()
        for detection in detections[: len(detections) // 2]:
            state.feed_day(detection)
        state = StudyState.from_state(
            json.loads(json.dumps(state.state_dict())), pipeline=pipeline
        )
        for detection in iter_detections(
            ArchiveSource(archive), workers=WORKERS
        ):
            if detection.day > state.last_day:
                state.feed_day(detection)
        assert state.results() == serial_results

