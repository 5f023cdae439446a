"""MoasService: incremental feeding, checkpointing, resume."""

import json

import pytest

from repro.analysis.pipeline import StudyPipeline
from repro.api import CHECKPOINT_VERSION, MoasService
from tests.fixtures import legacy_checkpoint_writer as legacy


@pytest.fixture(scope="module")
def straight_results(api_detections):
    service = MoasService()
    service.feed(api_detections)
    return service.results()


class TestFeeding:
    def test_feed_counts_days(self, api_detections):
        service = MoasService()
        assert service.days_fed == 0
        assert service.last_day is None
        fed = service.feed(api_detections)
        assert fed == len(api_detections)
        assert service.days_fed == len(api_detections)
        assert service.last_day == api_detections[-1].day

    def test_feed_matches_batch_pipeline(
        self, api_detections, straight_results
    ):
        batch = StudyPipeline().run(iter(api_detections))
        assert batch == straight_results

    def test_out_of_order_day_rejected(self, api_detections):
        service = MoasService()
        service.feed_day(api_detections[1])
        with pytest.raises(ValueError, match="increasing order"):
            service.feed_day(api_detections[0])

    def test_skip_seen_refeed_is_idempotent(
        self, api_detections, straight_results
    ):
        service = MoasService()
        service.feed(api_detections)
        assert service.feed(api_detections, skip_seen=True) == 0
        assert service.results() == straight_results

    def test_interim_results_do_not_disturb_stream(
        self, api_detections, straight_results
    ):
        service = MoasService()
        midpoint = len(api_detections) // 2
        service.feed(api_detections[:midpoint])
        interim = service.results()
        assert interim.total_days == midpoint
        service.feed(api_detections[midpoint:])
        assert service.results() == straight_results


class TestCheckpointResume:
    def test_mid_study_resume_equals_straight_run(
        self, api_detections, straight_results
    ):
        """The acceptance criterion: resume == uninterrupted run."""
        midpoint = len(api_detections) // 3
        first = MoasService()
        first.feed(api_detections[:midpoint])

        # Force a real JSON round trip, as a checkpoint file would.
        snapshot = json.loads(json.dumps(first.snapshot_state()))
        resumed = MoasService.resume(snapshot)
        assert resumed.days_fed == midpoint

        resumed.feed(api_detections[midpoint:])
        assert resumed.results() == straight_results

    def test_checkpoint_file_round_trip(
        self, tmp_path, api_detections, straight_results
    ):
        midpoint = len(api_detections) // 2
        first = MoasService()
        first.feed(api_detections[:midpoint])
        path = first.save_checkpoint(tmp_path / "ckpt" / "study.json")
        assert path.exists()

        resumed = MoasService.load_checkpoint(path)
        resumed.feed(api_detections[midpoint:])
        assert resumed.results() == straight_results

    def test_resume_skip_seen_over_full_source(
        self, api_detections, straight_results
    ):
        """Resuming over a re-streamed overlapping source works."""
        midpoint = len(api_detections) // 2
        first = MoasService()
        first.feed(api_detections[:midpoint])
        resumed = MoasService.resume(first.snapshot_state())
        fed = resumed.feed(api_detections, skip_seen=True)
        assert fed == len(api_detections) - midpoint
        assert resumed.results() == straight_results

    def test_checkpoint_preserves_pipeline_config(self, api_detections):
        pipeline = StudyPipeline(spike_window_days=10, spike_factor=2.5)
        service = MoasService(pipeline)
        service.feed(api_detections[:20])
        resumed = MoasService.resume(service.snapshot_state())
        assert resumed.pipeline == pipeline

    def test_unsupported_version_rejected(self):
        service = MoasService()
        snapshot = service.snapshot_state()
        assert snapshot["version"] == CHECKPOINT_VERSION
        snapshot["version"] = 999
        with pytest.raises(ValueError, match="unsupported checkpoint"):
            MoasService.resume(snapshot)

    def test_empty_session_round_trips(self, api_detections):
        resumed = MoasService.resume(MoasService().snapshot_state())
        assert resumed.days_fed == 0
        resumed.feed(api_detections[:5])
        assert resumed.results().total_days == 5


class TestRenderPassthrough:
    def test_service_render_matches_registry(
        self, api_detections, straight_results
    ):
        from repro.api import render

        service = MoasService()
        service.feed(api_detections)
        assert service.render("summary", "json") == render(
            straight_results, "summary", "json"
        )


class TestSessionLayout:
    def test_worker_feed_equals_serial(self, api_archive, straight_results):
        import os

        workers = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
        service = MoasService(workers=workers)
        service.feed(api_archive)
        assert service.results() == straight_results

    def test_legacy_version1_payload_still_resumes(self, api_detections):
        """Pre-shard checkpoints (version 1, single `state`) load."""
        payload = legacy.v1_payload(api_detections[:8])
        resumed = MoasService.resume(json.loads(json.dumps(payload)))
        assert resumed.days_fed == 8
        resumed.feed(api_detections[8:])
        full = MoasService()
        full.feed(api_detections)
        assert resumed.results() == full.results()

    def test_saving_over_a_directory_raises_cleanly(
        self, tmp_path, api_detections
    ):
        service = MoasService()
        service.feed(api_detections[:3])
        directory = tmp_path / "study.ckpt"
        directory.mkdir()
        with pytest.raises(ValueError, match="existing directory"):
            service.save_checkpoint(directory)
        assert list(directory.iterdir()) == []

    def test_resume_carries_requested_workers(
        self, tmp_path, api_detections
    ):
        service = MoasService()
        service.feed(api_detections[:5])
        path = service.save_checkpoint(tmp_path / "w.ckpt")
        resumed = MoasService.load_checkpoint(path, workers=2)
        assert resumed.workers == 2
        assert MoasService.load_checkpoint(path).workers == 1

    def test_skip_seen_tolerates_intra_stream_duplicates(
        self, api_detections
    ):
        # A stream containing the same day twice (e.g. two dumps of
        # one day in an MRT list) feeds once and skips the duplicate.
        service = MoasService()
        stream = [
            api_detections[0],
            api_detections[1],
            api_detections[1],
            api_detections[2],
        ]
        assert service.feed(stream, skip_seen=True) == 3
        assert service.days_fed == 3


class TestLegacyShardedCheckpoints:
    """Sharded checkpoint directories of earlier releases still resume;
    the session they load into is an ordinary one-state session."""

    @pytest.mark.parametrize(
        "layout", legacy.LAYOUTS, ids=legacy.layout_id
    )
    def test_legacy_resume_mid_study_equals_straight_run(
        self, tmp_path, api_detections, straight_results, layout
    ):
        midpoint = len(api_detections) // 3
        path = legacy.write_checkpoint(
            tmp_path / "legacy", api_detections[:midpoint], *layout
        )
        resumed = MoasService.load_checkpoint(path)
        assert resumed.days_fed == midpoint
        assert resumed.feed(api_detections, skip_seen=True) == (
            len(api_detections) - midpoint
        )
        assert resumed.results() == straight_results

    def test_saving_a_legacy_session_writes_one_file(
        self, tmp_path, api_detections, straight_results
    ):
        midpoint = len(api_detections) // 2
        directory = legacy.write_checkpoint(
            tmp_path / "legacy", api_detections[:midpoint], 4, "range"
        )
        converted = MoasService.load_checkpoint(directory).save_checkpoint(
            tmp_path / "study.ckpt"
        )
        payload = json.loads(converted.read_text())
        assert payload["version"] == CHECKPOINT_VERSION
        assert set(payload) == {"version", "pipeline", "state"}
        assert "shard" not in payload["state"]
        resumed = MoasService.load_checkpoint(converted)
        resumed.feed(api_detections[midpoint:])
        assert resumed.results() == straight_results

    def test_saving_over_the_legacy_directory_raises_cleanly(
        self, tmp_path, api_detections
    ):
        directory = legacy.write_checkpoint(
            tmp_path / "legacy", api_detections[:6], 2
        )
        before = {
            path.name: path.read_bytes() for path in directory.iterdir()
        }
        service = MoasService.load_checkpoint(directory)
        service.feed(api_detections[6:9])
        with pytest.raises(ValueError, match="existing directory"):
            service.save_checkpoint(directory)
        assert {
            path.name: path.read_bytes() for path in directory.iterdir()
        } == before

    def test_legacy_load_carries_requested_workers(
        self, tmp_path, api_archive, api_detections, straight_results
    ):
        directory = legacy.write_checkpoint(
            tmp_path / "legacy", api_detections[:10], 3, "range"
        )
        assert MoasService.load_checkpoint(directory).workers == 1
        resumed = MoasService.load_checkpoint(directory, workers=2)
        assert resumed.workers == 2
        resumed.feed(api_archive, skip_seen=True)
        assert resumed.results() == straight_results


class TestCheckpointAtomicity:
    """A crash mid-save must never corrupt an existing checkpoint."""

    def _service(self, api_detections):
        service = MoasService()
        for detection in api_detections[:5]:
            service.feed_day(detection)
        return service

    def test_failed_single_file_save_preserves_previous(
        self, api_detections, tmp_path, monkeypatch
    ):
        import os

        service = self._service(api_detections)
        path = tmp_path / "study.ckpt"
        service.save_checkpoint(path)
        before = path.read_bytes()

        for detection in api_detections[5:8]:
            service.feed_day(detection)
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (_ for _ in ()).throw(
                OSError("simulated crash")
            )
        )
        with pytest.raises(OSError, match="simulated crash"):
            service.save_checkpoint(path)
        # The old checkpoint is byte-identical and still loads.
        assert path.read_bytes() == before
        restored = MoasService.load_checkpoint(path)
        assert restored.days_fed == 5
        # No stray temp files pollute the directory.
        assert [entry.name for entry in tmp_path.iterdir()] == ["study.ckpt"]

    def test_truncated_checkpoint_is_never_observed(
        self, api_detections, tmp_path, monkeypatch
    ):
        """Even a crash mid-*write* leaves no partial file behind."""
        import os

        service = self._service(api_detections)
        path = tmp_path / "study.ckpt"
        monkeypatch.setattr(
            os, "fsync", lambda fd: (_ for _ in ()).throw(
                OSError("power loss")
            )
        )
        with pytest.raises(OSError, match="power loss"):
            service.save_checkpoint(path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []


class TestArchiveReadersClosed:
    """Every ArchiveReader the batch path opens is closed on return."""

    @pytest.fixture(scope="class")
    def v2_archive(self, api_archive, tmp_path_factory):
        from repro.scenario.archive import convert_archive

        directory = tmp_path_factory.mktemp("readers") / "v2"
        convert_archive(api_archive, directory, format="v2")
        return directory

    @pytest.fixture
    def readers(self, monkeypatch):
        """``(format at open, reader)`` for every reader opened, plus a
        list of the readers closed."""
        from repro.scenario.archive import ArchiveReader

        opened, closed = [], []
        real_init, real_close = ArchiveReader.__init__, ArchiveReader.close

        def init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            opened.append((self.format, self))

        def close(self):
            closed.append(self)
            real_close(self)

        monkeypatch.setattr(ArchiveReader, "__init__", init)
        monkeypatch.setattr(ArchiveReader, "close", close)
        return opened, closed

    @staticmethod
    def assert_all_closed(opened, closed):
        assert opened
        assert all(form == "v2" for form, _reader in opened)
        for _form, reader in opened:
            assert any(reader is done for done in closed)
            assert reader.format == "v1"  # the day-store mapping is gone

    def test_feed_and_evaluate_close_their_readers(self, v2_archive, readers):
        service = MoasService(workers=1)
        service.feed(v2_archive)
        report = service.evaluate(v2_archive)
        assert service.days_fed > 0 and report.verdicts
        self.assert_all_closed(*readers)

    def test_early_stop_closes_the_stream_reader(self, v2_archive, readers):
        from repro.analysis.sources import detections_from_archive

        stream = detections_from_archive(v2_archive)
        next(stream)
        next(stream)
        stream.close()
        self.assert_all_closed(*readers)


class TestUnclassifiableConflicts:
    """A conflict without paths for two origins counts toward no
    figure-6 class and casts no verdict vote, inside the
    classification window as outside it."""

    def test_pathless_conflict_in_the_window_folds_its_day(self):
        from datetime import date

        from repro.core.classifier import ConflictClass
        from repro.core.detector import DailyConflict, DayDetection
        from repro.netbase.prefix import Prefix

        prefix = Prefix.parse("10.0.0.0/8")
        day = DayDetection(
            date(2001, 6, 1),
            (DailyConflict(prefix, frozenset({7, 9})),),
            10,
            0,
        )
        service = MoasService()
        service.feed_day(day)
        assert service.days_fed == 1
        results = service.results()
        assert results.classification_series == [
            (day.day, {found: 0 for found in ConflictClass})
        ]
        assert prefix in results.episodes
        verdict = service.verdicts()[prefix]
        assert not {"orig-tran-as", "split-view", "distinct-paths"} & (
            verdict.tags
        )
