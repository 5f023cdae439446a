"""Golden suite: one world, two archive formats, identical science.

A single generated world is archived as v1 (directly), as v2
(directly), and as v2 via ``convert_archive`` — and every consumer
must be unable to tell them apart: ``StudyResults`` (byte-identical
rendered output included), verdicts, and evaluation scores, at every
worker count the parallel suite already exercises, plus checkpoints,
legacy sharded ones included, that resume across formats.

``REPRO_TEST_WORKERS`` overrides the pool size, mirroring
``tests/analysis/test_parallel.py``, so CI re-runs this file at
``--workers 2``.
"""

import datetime
import os

import pytest

from repro.analysis.pipeline import StudyPipeline
from repro.api.renderers import render
from repro.api.service import MoasService
from repro.api.sources import ArchiveSource
from repro.core.detector import detect_day
from repro.scenario.archive import ArchiveReader, convert_archive
from repro.scenario.incidents import IncidentScript
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar
from tests.fixtures import legacy_checkpoint_writer as legacy

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "4"))

CALENDAR = StudyCalendar(
    datetime.date(1998, 3, 20), datetime.date(1998, 4, 30)
)  # spans the 1998 fault spike, like the parallel equality suite
WINDOW = (datetime.date(1998, 3, 20), datetime.date(1998, 4, 30))

#: Every worker count the parallel suite tests.
LAYOUTS = [1, WORKERS]


def _config(archive_format):
    return ScenarioConfig(
        scale=0.02,
        calendar=CALENDAR,
        paper_archive_gaps=False,
        incidents=IncidentScript.canned(CALENDAR.num_days),
        archive_format=archive_format,
    )


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    base = tmp_path_factory.mktemp("format-equivalence")
    v1 = base / "v1"
    v2 = base / "v2"
    simulate_study(v1, _config("v1"))
    simulate_study(v2, _config("v2"))
    converted = base / "converted"
    convert_archive(v1, converted, format="v2")
    return {"v1": v1, "v2": v2, "converted": converted}


@pytest.fixture(scope="module")
def pipeline():
    return StudyPipeline(classification_window=WINDOW)


@pytest.fixture(scope="module")
def golden_results(pipeline, archives):
    """The reference: a serial run over the v1 archive."""
    return pipeline.run(ArchiveSource(archives["v1"]))


class TestDayStreamEquivalence:
    def test_same_records_every_format(self, archives):
        reference = list(ArchiveReader(archives["v1"]).iter_days())
        assert list(ArchiveReader(archives["v2"]).iter_days()) == reference
        assert (
            list(ArchiveReader(archives["converted"]).iter_days())
            == reference
        )

    def test_side_files_survive_conversion(self, archives):
        v1 = ArchiveReader(archives["v1"])
        converted = ArchiveReader(archives["converted"])
        assert converted.has_incidents()
        assert converted.incident_labels() == v1.incident_labels()
        assert converted.ground_truth() == v1.ground_truth()


class TestStudyResultsEquivalence:
    @pytest.mark.parametrize("workers", LAYOUTS)
    def test_every_layout_matches_golden(
        self, pipeline, archives, golden_results, workers
    ):
        for name in ("v2", "converted"):
            results = pipeline.run(
                ArchiveSource(archives[name]), workers=workers
            )
            assert results == golden_results

    def test_rendered_output_byte_identical(
        self, pipeline, archives, golden_results
    ):
        results_v2 = pipeline.run(
            ArchiveSource(archives["v2"]), workers=WORKERS
        )
        for figure, format in (
            ("summary", "json"),
            ("summary", "ascii"),
            ("figure1", "csv"),
            ("figure3", "csv"),
            ("episodes", "csv"),
        ):
            assert render(results_v2, figure, format) == render(
                golden_results, figure, format
            )


class TestScanPathEquivalence:
    """The object-row reference scan agrees with the columnar golden.

    ``golden_results`` comes from the production (columnar) scan; the
    reference :func:`~repro.core.detector.detect_day` over
    ``iter_days()``, folded serially, must reproduce it exactly on both
    formats.
    """

    def test_object_path_matches_columnar_golden(
        self, pipeline, archives, golden_results
    ):
        for name in ("v1", "v2"):
            reader = ArchiveReader(archives[name])
            results = pipeline.run(
                detect_day(record, reader) for record in reader.iter_days()
            )
            assert results == golden_results, name


class TestVerdictAndEvaluationEquivalence:
    @pytest.fixture(scope="class")
    def golden_report(self, archives):
        return MoasService().evaluate(archives["v1"])

    @pytest.mark.parametrize("workers", LAYOUTS)
    def test_scores_identical_across_formats(
        self, archives, golden_report, workers
    ):
        for name in ("v2", "converted"):
            report = MoasService(workers=workers).evaluate(archives[name])
            assert report.verdicts == golden_report.verdicts
            assert report.result.to_dict() == golden_report.result.to_dict()
            assert render(report.result, "evaluation", "json") == render(
                golden_report.result, "evaluation", "json"
            )


class TestCheckpointAcrossFormats:
    def test_resume_on_other_format_matches_straight_run(
        self, archives, golden_results, tmp_path
    ):
        """Feed v1 halfway, checkpoint, finish from the v2 archive."""
        detections = list(ArchiveSource(archives["v1"]).detections())
        midpoint = len(detections) // 2
        first = MoasService(StudyPipeline(classification_window=WINDOW))
        first.feed(detections[:midpoint])
        checkpoint = tmp_path / "cross-format.ckpt"
        first.save_checkpoint(checkpoint)

        resumed = MoasService.load_checkpoint(checkpoint, workers=WORKERS)
        resumed.feed(archives["v2"], skip_seen=True)
        assert resumed.results() == golden_results

    @pytest.mark.parametrize(
        "layout", legacy.LAYOUTS, ids=legacy.layout_id
    )
    def test_legacy_checkpoint_resumes_on_other_formats(
        self, pipeline, archives, golden_results, layout, tmp_path
    ):
        """A legacy sharded checkpoint of the v1 first half, finished
        from the v2 and the converted archive."""
        detections = list(ArchiveSource(archives["v1"]).detections())
        checkpoint = legacy.write_checkpoint(
            tmp_path / "legacy",
            detections[: len(detections) // 2],
            *layout,
            pipeline=pipeline,
        )
        for name in ("v2", "converted"):
            resumed = MoasService.load_checkpoint(checkpoint, workers=WORKERS)
            resumed.feed(archives[name], skip_seen=True)
            results = resumed.results()
            assert results == golden_results
            for figure, format in (("summary", "json"), ("episodes", "csv")):
                assert render(results, figure, format) == render(
                    golden_results, figure, format
                )
