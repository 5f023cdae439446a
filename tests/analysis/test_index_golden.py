"""Golden episode-index fixtures: pinned answers + corruption paths.

``tests/fixtures/episode_index/golden.idx`` (EIX1, read-only now) and
``golden_eix2.idx`` (EIX2, what ``save`` writes) are committed index
files built from one fixed hand-crafted study (with ROAs and verdicts)
by ``make_episode_index_fixture.py``.  This module pins both files'
bytes and the exact answers their queries produce — the same digests
for both formats — so the on-disk formats can never silently drift: a
load failure means old index files stopped parsing, a digest mismatch
means they parse into different science.  It also drives the EIX1
corruption paths — truncated trailer, bit-flipped frame, bad magic —
through :class:`ArchiveError`; ``test_index_eix2_corruption.py`` does
the same for every EIX2 frame.
"""

import datetime
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.analysis.index import EpisodeIndex
from repro.netbase.prefix import Prefix
from repro.scenario.archive import ArchiveError

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = FIXTURES / "episode_index" / "golden.idx"
GOLDEN_EIX2 = FIXTURES / "episode_index" / "golden_eix2.idx"

#: sha256 of the committed index file.  Only an intentional,
#: documented format change (a ``_VERSION`` bump) may update these —
#: regenerate via make_episode_index_fixture.py.
GOLDEN_FILE_DIGEST = (
    "f5bf1f51962c572d15c09fff572d3fb4001e5defc8a20dace23f4190c7bb66f6"
)

#: sha256 of the committed EIX2 file, under the same rule.
GOLDEN_EIX2_DIGEST = (
    "a7ff5ec6d32008489094eaaf6bd5c6165eb282d440c2ff371ce7e96fcb27acfd"
)

#: (prefix, query kwargs, sha256 of the sorted-key JSON answer).
GOLDEN_QUERIES = (
    (
        "10.0.0.0/8",
        {},
        "85d82f47a64560d7bf6b12079211aec3578e39e885ab24ef4840af27bbc8a38f",
    ),
    (
        "192.0.2.0/24",
        {"day": datetime.date(1998, 1, 2)},
        "67eb85119be8ccce29cebaf9fe8bbd1eb41a8462001bb68f2cbde1c6fe0f114f",
    ),
    (
        "172.16.0.0/12",
        {
            "window": (
                datetime.date(1998, 1, 1),
                datetime.date(1998, 1, 3),
            )
        },
        "8cd07a5907f1657ea66aa00b7348c7001d0f2a4e4efe252d87d4c9bd0ea2e50e",
    ),
)


def fixture_study():
    """``make_episode_index_fixture.build`` and the EIX1 encoder."""
    sys.path.insert(0, str(FIXTURES))
    try:
        from eix1_encoder import eix1_bytes
        from make_episode_index_fixture import build
    finally:
        sys.path.pop(0)
    return build, eix1_bytes


class TestGoldenAnswers:
    def test_fixture_bytes_are_pinned(self):
        digest = hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
        assert digest == GOLDEN_FILE_DIGEST

    def test_eix2_fixture_bytes_are_pinned(self):
        digest = hashlib.sha256(GOLDEN_EIX2.read_bytes()).hexdigest()
        assert digest == GOLDEN_EIX2_DIGEST

    def test_rebuilding_the_fixture_study_reproduces_the_file(self):
        build, _ = fixture_study()
        assert build().to_bytes() == GOLDEN_EIX2.read_bytes()

    def test_eix1_encoder_reproduces_the_eix1_file(self):
        """The test helper the EIX1 property suite uses is the encoder
        that wrote the committed EIX1 file."""
        build, eix1_bytes = fixture_study()
        assert eix1_bytes(build()) == GOLDEN.read_bytes()

    @pytest.mark.parametrize(
        "prefix_text,kwargs,expected",
        GOLDEN_QUERIES,
        ids=[row[0] for row in GOLDEN_QUERIES],
    )
    def test_pinned_queries_answer_to_exact_digest(
        self, prefix_text, kwargs, expected
    ):
        index = EpisodeIndex.load(GOLDEN)
        answer = index.query(Prefix.parse(prefix_text), **kwargs)
        blob = json.dumps(answer.to_dict(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == expected

    @pytest.mark.parametrize(
        "prefix_text,kwargs,expected",
        GOLDEN_QUERIES,
        ids=[row[0] for row in GOLDEN_QUERIES],
    )
    def test_eix2_answers_the_same_pinned_digests(
        self, prefix_text, kwargs, expected
    ):
        index = EpisodeIndex.load(GOLDEN_EIX2)
        answer = index.query(Prefix.parse(prefix_text), **kwargs)
        blob = json.dumps(answer.to_dict(), sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == expected

    def test_both_formats_load_the_same_index(self):
        eix1, eix2 = EpisodeIndex.load(GOLDEN), EpisodeIndex.load(GOLDEN_EIX2)
        assert (len(eix2), eix2.days_indexed, eix2.last_day) == (
            len(eix1),
            eix1.days_indexed,
            eix1.last_day,
        )
        assert [eix2.record_at(row) for row in range(len(eix2))] == [
            eix1.record_at(row) for row in range(len(eix1))
        ]
        assert eix1.to_bytes() == GOLDEN_EIX2.read_bytes()

    def test_golden_contents_read_back(self):
        index = EpisodeIndex.load(GOLDEN)
        assert len(index) == 3
        assert index.days_indexed == 5
        assert index.last_day == datetime.date(1998, 1, 5)
        record = index.lookup(Prefix.parse("10.0.0.0/8"))
        assert record.origins == (7, 9, 11)
        assert record.rpki_state == "invalid"
        assert record.verdict_kind == "exact_hijack"
        assert record.suspicion == 1.0
        assert index.lookup(Prefix.parse("172.16.0.0/12")).one_time


class TestCorruptionPaths:
    """Every way the file can rot raises ArchiveError, nothing else."""

    def corrupt(self, tmp_path, mutate) -> Path:
        raw = bytearray(GOLDEN.read_bytes())
        mutate(raw)
        path = tmp_path / "corrupt.idx"
        path.write_bytes(bytes(raw))
        return path

    def test_truncated_trailer(self, tmp_path):
        path = self.corrupt(tmp_path, lambda raw: raw.__delitem__(
            slice(len(raw) - 11, len(raw))
        ))
        with pytest.raises(ArchiveError, match="end magic|truncated"):
            EpisodeIndex.load(path)

    def test_truncated_to_almost_nothing(self, tmp_path):
        path = tmp_path / "stub.idx"
        path.write_bytes(GOLDEN.read_bytes()[:8])
        with pytest.raises(ArchiveError, match="truncated"):
            EpisodeIndex.load(path)

    @pytest.mark.parametrize("offset", (10, 60, 150, 220))
    def test_bit_flip_anywhere_fails_a_checksum(self, tmp_path, offset):
        def flip(raw):
            raw[offset] ^= 0x40

        path = self.corrupt(tmp_path, flip)
        with pytest.raises(ArchiveError):
            EpisodeIndex.load(path)

    def test_bad_leading_magic(self, tmp_path):
        def stomp(raw):
            raw[:4] = b"NOPE"

        path = self.corrupt(tmp_path, stomp)
        with pytest.raises(ArchiveError, match="bad magic"):
            EpisodeIndex.load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(b"")
        with pytest.raises(ArchiveError, match="truncated"):
            EpisodeIndex.load(path)

    def test_missing_file_names_the_fix(self, tmp_path):
        with pytest.raises(
            ArchiveError, match="repro analyze --index"
        ):
            EpisodeIndex.load(tmp_path / "absent.idx")
