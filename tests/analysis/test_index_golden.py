"""Golden episode-index fixtures: pinned answers + corruption paths.

``tests/fixtures/episode_index/golden_eix2.idx`` (EIX2, what ``save``
writes) is a committed index file built from one fixed hand-crafted
study (with ROAs and verdicts) by ``make_episode_index_fixture.py``.
This module pins its bytes and the exact answers its queries produce,
so the on-disk format can never silently drift: a load failure means
old index files stopped parsing, a digest mismatch means they parse
into different science.  ``golden.idx`` is a real EIX1 file, the first
format, which ``load`` now refuses with one :class:`ArchiveError`
naming the command that rebuilds it.  The corruption paths here —
bit-flipped body, bad magic, missing file — match the error text with
the file's path cut out, so no pattern can pass on the test's own
directory name; ``test_index_eix2_corruption.py`` covers truncation at
every length and every frame and load check.
"""

import datetime
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.index import INDEX_FILENAME, EpisodeIndex
from repro.api.cli import main
from repro.netbase.prefix import Prefix
from repro.scenario.archive import ArchiveError
from tests.fixtures.make_episode_index_fixture import build

FIXTURES = Path(__file__).parent.parent / "fixtures"
GOLDEN = FIXTURES / "episode_index" / "golden.idx"
GOLDEN_EIX2 = FIXTURES / "episode_index" / "golden_eix2.idx"

#: sha256 of the committed EIX1 file, which no tool rewrites: it is the
#: real first-format file that the refusal tests load.
GOLDEN_FILE_DIGEST = (
    "f5bf1f51962c572d15c09fff572d3fb4001e5defc8a20dace23f4190c7bb66f6"
)

#: sha256 of the committed EIX2 file.  Only an intentional, documented
#: format change (a ``_VERSION`` bump) may update it — regenerate via
#: make_episode_index_fixture.py.
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


def load_error(path: Path) -> str:
    """The :class:`ArchiveError` that loading ``path`` raises, as text
    with the path cut out, so a pattern can only match what the error
    itself says."""
    with pytest.raises(ArchiveError) as raised:
        EpisodeIndex.load(path)
    return str(raised.value).replace(str(path), "<path>")


class TestGoldenAnswers:
    def test_fixture_bytes_are_pinned(self):
        digest = hashlib.sha256(GOLDEN.read_bytes()).hexdigest()
        assert digest == GOLDEN_FILE_DIGEST

    def test_eix2_fixture_bytes_are_pinned(self):
        digest = hashlib.sha256(GOLDEN_EIX2.read_bytes()).hexdigest()
        assert digest == GOLDEN_EIX2_DIGEST

    def test_rebuilding_the_fixture_study_reproduces_the_file(self):
        assert build().to_bytes() == GOLDEN_EIX2.read_bytes()

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

    def test_golden_contents_read_back(self):
        index = EpisodeIndex.load(GOLDEN_EIX2)
        assert len(index) == 3
        assert index.days_indexed == 5
        assert index.last_day == datetime.date(1998, 1, 5)
        record = index.lookup(Prefix.parse("10.0.0.0/8"))
        assert record.origins == (7, 9, 11)
        assert record.rpki_state == "invalid"
        assert record.verdict_kind == "exact_hijack"
        assert record.suspicion == 1.0
        assert index.lookup(Prefix.parse("172.16.0.0/12")).one_time


class TestEix1Refused:
    """An EIX1 file is no longer read: one error names the rebuild."""

    def test_load_names_the_rebuild_command(self):
        message = load_error(GOLDEN)
        assert "no longer read" in message
        assert "repro analyze --index" in message

    def test_repro_query_exits_2_with_one_line(self, tmp_path, capsys):
        archive = tmp_path / "archive"
        archive.mkdir()
        (archive / INDEX_FILENAME).write_bytes(GOLDEN.read_bytes())
        assert main(["query", str(archive), "10.0.0.0/8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro query: ")
        assert "repro analyze --index" in lines[0]


class TestCorruptionPaths:
    """Every way the file can rot raises ArchiveError, nothing else."""

    def corrupt(self, tmp_path, mutate) -> Path:
        raw = bytearray(GOLDEN_EIX2.read_bytes())
        mutate(raw)
        path = tmp_path / "corrupt.idx"
        path.write_bytes(bytes(raw))
        return path

    @pytest.mark.parametrize("offset", (10, 60, 150, 220))
    def test_bit_flip_anywhere_fails_a_checksum(self, tmp_path, offset):
        def flip(raw):
            raw[offset] ^= 0x40

        path = self.corrupt(tmp_path, flip)
        assert "failed its checksum" in load_error(path)

    def test_bad_leading_magic(self, tmp_path):
        def stomp(raw):
            raw[:4] = b"NOPE"

        path = self.corrupt(tmp_path, stomp)
        assert "bad magic" in load_error(path)

    def test_missing_file_names_the_fix(self, tmp_path):
        message = load_error(tmp_path / "absent.idx")
        assert "repro analyze --index" in message
