"""Property harness for the episode query index.

The index's contract (ISSUE 10): every answer it gives must be
*identical* to what a full-study fold would say — episode view, RPKI
rollup, verdict slice — and the encoded file must not care how the
fold was run.  This module pins that with hypothesis over arbitrary
detection streams (reusing the accumulator harness's strategies), also
for studies loaded from legacy sharded checkpoints, plus a fixed-seed
integration sweep across archive formats (v1/v2), worker counts and
legacy checkpoint layouts.

Example counts come from the hypothesis profile (``dev`` for tier-1,
``ci`` for the dedicated slow leg).
"""

from __future__ import annotations

import datetime
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.analysis.export import episode_record
from repro.analysis.index import EpisodeIndex, IndexRecord
from repro.api.service import MoasService
from repro.core.verdict import TAG_WIDE_ORIGIN_SET, VerdictEngine
from repro.netbase.prefix import Prefix
from tests.analysis.test_merge_properties import (
    START,
    detection_streams,
    feed_engine,
    feed_state,
    legacy_layouts,
    prefixes,
    roa_tables,
)
from tests.fixtures import legacy_checkpoint_writer as legacy


def build_index(detections, roa_table=None, with_verdicts=False):
    """Serial fold -> (results, verdicts or None, EpisodeIndex)."""
    results = feed_state(detections, roa_table=roa_table).results()
    verdicts = None
    if with_verdicts:
        verdicts = feed_engine(
            detections, roa_table=roa_table
        ).finalize()
    return results, verdicts, EpisodeIndex.build(
        results, verdicts=verdicts
    )


class TestIndexEqualsFold:
    """Satellite 1: every answer == the full-study fold's view."""

    @given(detection_streams())
    def test_every_lookup_matches_episode_record(self, detections):
        results, _, index = build_index(detections)
        assert len(index) == len(results.episodes)
        assert index.days_indexed == results.total_days
        for prefix in results.episodes:
            record = index.lookup(prefix)
            assert record.episode_dict() == episode_record(
                results, prefix
            )

    @given(detection_streams(), roa_tables())
    def test_rpki_rollup_matches_fold(self, detections, table):
        results, _, index = build_index(detections, roa_table=table)
        for prefix in results.episodes:
            record = index.lookup(prefix)
            assert record.episode_dict() == episode_record(
                results, prefix
            )
            assert record.rpki_state == (
                results.rpki_episode_states.get(prefix)
            )

    @given(detection_streams(), roa_tables())
    def test_verdict_slice_matches_engine(self, detections, table):
        results, verdicts, index = build_index(
            detections, roa_table=table, with_verdicts=True
        )
        for prefix in results.episodes:
            verdict = verdicts.get(prefix)
            answer = index.lookup(prefix).verdict_dict()
            if verdict is None:
                assert answer is None
                continue
            assert answer == {
                "kind": verdict.kind,
                "tags": sorted(verdict.tags),
                "suspicion": verdict.suspicion,
                "perpetrators": sorted(verdict.perpetrators),
            }
            # Exact float equality is the point: the suspicion score
            # is carried as a raw IEEE double, never re-derived.
            assert answer["suspicion"] == verdict.suspicion

    @given(detection_streams(), prefixes)
    def test_absent_prefix_answers_none(self, detections, probe):
        results, _, index = build_index(detections)
        if probe in results.episodes:
            assert index.lookup(probe) is not None
        else:
            assert index.lookup(probe) is None
            assert index.query(probe) is None


class TestWindowQueries:
    """Point/range answers vs a brute-force interval scan."""

    @given(
        detection_streams(),
        st.integers(-5, 30),
        st.integers(0, 30),
    )
    def test_active_count_matches_brute_force(
        self, detections, start_offset, span
    ):
        results, _, index = build_index(detections)
        start = START + datetime.timedelta(days=start_offset)
        end = start + datetime.timedelta(days=span)
        brute = sum(
            1
            for episode in results.episodes.values()
            if not (
                episode.first_day > end or episode.last_day < start
            )
        )
        assert index.active_count(start, end) == brute
        # Swapped bounds normalize to the same window.
        assert index.active_count(end, start) == brute

    @given(
        detection_streams(),
        st.integers(-5, 30),
        st.integers(0, 30),
    )
    def test_overlap_days_match_interval_arithmetic(
        self, detections, start_offset, span
    ):
        results, _, index = build_index(detections)
        start = START + datetime.timedelta(days=start_offset)
        end = start + datetime.timedelta(days=span)
        for prefix, episode in results.episodes.items():
            answer = index.query(prefix, window=(start, end))
            expected = (
                min(episode.last_day, end)
                - max(episode.first_day, start)
            ).days + 1
            assert answer.overlap_days == max(0, expected)
            assert answer.active == (expected > 0)
            assert answer.concurrent_episodes == index.active_count(
                start, end
            )
            assert answer.total_episodes == len(index)

    @given(detection_streams())
    def test_default_window_is_episode_span(self, detections):
        results, _, index = build_index(detections)
        for prefix, episode in results.episodes.items():
            answer = index.query(prefix)
            assert not answer.explicit_window
            assert answer.window_start == episode.first_day
            assert answer.window_end == episode.last_day
            assert answer.active
            assert answer.overlap_days == (
                episode.last_day - episode.first_day
            ).days + 1


class TestLegacyLayoutByteEquivalence:
    """A study loaded from a legacy sharded checkpoint encodes the
    serial fold's bytes, in whatever order the merge lists records."""

    @given(
        detection_streams(),
        legacy_layouts,
        st.randoms(use_true_random=False),
    )
    def test_any_legacy_layout_encodes_identical_bytes(
        self, detections, layout, rng
    ):
        _, _, serial = build_index(detections)
        payload = legacy.shard_payload(detections, *layout)
        rng.shuffle(payload["shards"])
        loaded = MoasService.resume(payload)
        assert loaded.episode_index().to_bytes() == serial.to_bytes()

    @given(detection_streams(), roa_tables(), legacy_layouts)
    def test_verdict_enriched_bytes_survive_a_legacy_load(
        self, detections, table, layout
    ):
        _, verdicts, serial = build_index(
            detections, roa_table=table, with_verdicts=True
        )
        loaded = MoasService.resume(
            legacy.shard_payload(detections, *layout, roa_table=table)
        )
        assert (
            loaded.episode_index(verdicts=verdicts).to_bytes()
            == serial.to_bytes()
        )


class TestRoundtrip:
    """save -> load reproduces the exact in-memory index."""

    @given(detection_streams(), roa_tables())
    def test_save_load_is_byte_stable(self, detections, table):
        _, _, index = build_index(
            detections, roa_table=table, with_verdicts=True
        )
        encoded = index.to_bytes()
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "episodes.idx"
            index.save(path)
            assert path.read_bytes() == encoded
            loaded = EpisodeIndex.load(path)
        assert loaded.to_bytes() == encoded
        assert loaded.days_indexed == index.days_indexed
        assert loaded.last_day == index.last_day
        for prefix in index.prefixes():
            assert (
                loaded.query(prefix).to_dict()
                == index.query(prefix).to_dict()
            )


class TestRederived:
    """A patched index equals a cold build over the same inputs."""

    @given(detection_streams(), roa_tables(), st.data())
    def test_rederived_equals_build(self, detections, table, data):
        cut = data.draw(st.integers(0, len(detections)))
        state = feed_state(detections[:cut], roa_table=table)
        engine = feed_engine(detections[:cut], roa_table=table)
        old_results, old_verdicts = state.results(), engine.finalize()
        old = EpisodeIndex.build(old_results, verdicts=old_verdicts)
        old_bytes = old.to_bytes()
        for detection in detections[cut:]:
            state.feed_day(detection)
            engine.feed_day(detection)
        results, verdicts = state.results(), engine.finalize()
        cold = EpisodeIndex.build(results, verdicts=verdicts)
        # Every record that differs, plus any unchanged ones.
        changed = {
            prefix
            for prefix in results.episodes
            if old.lookup(prefix) != cold.lookup(prefix)
        }
        if results.episodes:
            changed |= set(
                data.draw(
                    st.lists(st.sampled_from(sorted(results.episodes)))
                )
            )
        patched = old.rederived(results, verdicts, changed)
        assert patched.to_bytes() == cold.to_bytes()
        assert old.to_bytes() == old_bytes  # never mutated
        for prefix in results.episodes:
            assert patched.query(prefix) == cold.query(prefix)


    @given(detection_streams(), roa_tables(), st.data())
    def test_handed_over_set_finds_every_changed_record(
        self, detections, table, data
    ):
        """The prefixes ``fed_since`` hands over from the last index's
        day, with the wide-origin verdicts, are enough to patch the
        index, however many days apart the reads are."""
        state = feed_state([], roa_table=table)
        engine = VerdictEngine(tracker=state._tracker)
        previous = None
        for detection in detections:
            state.feed_day(detection)
            if previous is not None and not data.draw(st.booleans()):
                continue  # a day no reader asked about
            results, verdicts = state.results(), engine.finalize()
            cold = EpisodeIndex.build(results, verdicts=verdicts)
            if previous is not None:
                handed = set(state._tracker.fed_since(previous.last_day)).union(
                    prefix
                    for prefix, verdict in verdicts.items()
                    if TAG_WIDE_ORIGIN_SET in verdict.tags
                )
                patched = previous.rederived(results, verdicts, handed)
                assert patched.to_bytes() == cold.to_bytes()
            previous = cold


class TestFromRecordsContract:
    def test_out_of_order_records_are_rejected(self):
        day = datetime.date(1998, 1, 1)

        def record(text):
            return IndexRecord(
                prefix=Prefix.parse(text),
                first_day=day,
                last_day=day,
                days_observed=1,
                origins=(1, 2),
                max_origins_single_day=2,
                ongoing=False,
            )

        with pytest.raises(ValueError, match="sorted"):
            EpisodeIndex.from_records(
                [record("10.1.0.0/16"), record("10.0.0.0/16")]
            )
        with pytest.raises(ValueError, match="sorted"):
            EpisodeIndex.from_records(
                [record("10.0.0.0/16"), record("10.0.0.0/16")]
            )


# -- archive formats × layouts (fixed seed) -------------------------------

LAYOUTS = (1, 2)


@pytest.fixture(scope="module")
def index_archives(tmp_path_factory):
    """One 40-day world as both a v1 and a v2 archive (with ROAs)."""
    from repro.scenario.archive import convert_archive
    from repro.scenario.rpki import RpkiConfig
    from repro.scenario.world import ScenarioConfig, simulate_study
    from repro.util.dates import StudyCalendar

    base = tmp_path_factory.mktemp("index-archives")
    v1 = base / "v1"
    simulate_study(
        v1,
        ScenarioConfig(
            scale=0.02,
            calendar=StudyCalendar(
                datetime.date(1997, 11, 8),
                datetime.date(1997, 12, 17),
            ),
            paper_archive_gaps=False,
            rpki=RpkiConfig(),
        ),
    )
    v2 = base / "v2"
    convert_archive(v1, v2, format="v2")
    return {"v1": v1, "v2": v2}


@pytest.fixture(scope="module")
def reference_bytes(index_archives):
    """The serial v1 fold's encoded index — the answer key."""
    service = MoasService(roa_table=index_archives["v1"])
    service.feed(index_archives["v1"])
    return service.episode_index().to_bytes()


class TestArchiveLayoutEquivalence:
    """Satellite 1 (archives): v1/v2 × worker counts, same bytes."""

    @pytest.mark.parametrize("format", ("v1", "v2"))
    @pytest.mark.parametrize("workers", LAYOUTS)
    def test_every_layout_encodes_the_reference_index(
        self, index_archives, reference_bytes, format, workers
    ):
        archive = index_archives[format]
        service = MoasService(workers=workers, roa_table=archive)
        service.feed(archive)
        assert (
            service.episode_index().to_bytes() == reference_bytes
        )

    @pytest.mark.parametrize("format", ("v1", "v2"))
    @pytest.mark.parametrize(
        "layout", legacy.LAYOUTS[:2], ids=legacy.layout_id
    )
    def test_legacy_resume_encodes_the_reference_index(
        self, index_archives, reference_bytes, format, layout, tmp_path
    ):
        from repro.api.sources import ArchiveSource
        from repro.netbase.rpki import RoaTable

        archive = index_archives[format]
        detections = list(ArchiveSource(archive).detections())
        checkpoint = legacy.write_checkpoint(
            tmp_path / "legacy",
            detections[: len(detections) // 2],
            *layout,
            roa_table=RoaTable.load(archive),
        )
        service = MoasService.load_checkpoint(checkpoint)
        service.feed(archive, skip_seen=True)
        assert service.episode_index().to_bytes() == reference_bytes

    def test_build_index_writes_the_reference_file(
        self, index_archives, reference_bytes, tmp_path
    ):
        service = MoasService(roa_table=index_archives["v2"])
        service.feed(index_archives["v2"])
        path = service.build_index(tmp_path / "episodes.idx")
        assert path.read_bytes() == reference_bytes
