"""``repro query`` — happy paths, typed errors, exit codes.

The query command's error contract (ISSUE 10 satellite): every typed
failure — malformed CIDR, absent prefix, empty index, missing index
file, corrupt index — prints one ``repro query: ...`` line to stderr
and exits with status **2** (argparse's own convention), so scripts
can tell "no such episode" from a crashed run (1) and from success
(0).
"""

from __future__ import annotations

import csv
import datetime
import io
import json

import pytest

from repro.analysis.index import INDEX_FILENAME, EpisodeIndex
from repro.api.cli import main
from repro.api.service import MoasService


@pytest.fixture(scope="module")
def indexed_archive(tmp_path_factory):
    """A small archive with its episode index built via the CLI."""
    directory = tmp_path_factory.mktemp("query-cli") / "archive"
    assert main(["simulate", str(directory), "--scale", "0.01"]) == 0
    out = tmp_path_factory.mktemp("query-cli-out")
    assert (
        main(
            ["analyze", str(directory), str(out / "a"), "--index"]
        )
        == 0
    )
    return directory


@pytest.fixture(scope="module")
def indexed_prefix(indexed_archive):
    """One prefix the index holds an episode for."""
    index = EpisodeIndex.load(indexed_archive / INDEX_FILENAME)
    return str(next(iter(index.prefixes())))


class TestQueryHappyPaths:
    def test_ascii_answer(self, indexed_archive, indexed_prefix, capsys):
        code = main(["query", str(indexed_archive), indexed_prefix])
        assert code == 0
        out = capsys.readouterr().out
        assert f"MOAS episode history: {indexed_prefix}" in out
        assert "first seen" in out
        assert "indexed episode(s) overlap the window" in out

    def test_json_answer_matches_index(
        self, indexed_archive, indexed_prefix, capsys
    ):
        code = main(
            [
                "query",
                str(indexed_archive),
                indexed_prefix,
                "--format",
                "json",
            ]
        )
        assert code == 0
        answer = json.loads(capsys.readouterr().out)
        assert answer["query"]["prefix"] == indexed_prefix
        assert answer["episode"]["prefix"] == indexed_prefix
        # The CLI answer equals the fold's own view of the episode.
        service = MoasService()
        service.feed(indexed_archive)
        from repro.analysis.export import episode_record
        from repro.netbase.prefix import Prefix

        assert answer["episode"] == episode_record(
            service.results(), Prefix.parse(indexed_prefix)
        )

    def test_csv_answer_is_one_row(
        self, indexed_archive, indexed_prefix, capsys
    ):
        code = main(
            [
                "query",
                str(indexed_archive),
                indexed_prefix,
                "--format",
                "csv",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert rows[0]["prefix"] == indexed_prefix

    def test_day_and_range_windows(
        self, indexed_archive, indexed_prefix, capsys
    ):
        code = main(
            [
                "query",
                str(indexed_archive),
                indexed_prefix,
                "--format",
                "json",
                "--day",
                "1998-01-01",
            ]
        )
        assert code == 0
        point = json.loads(capsys.readouterr().out)
        assert point["query"]["explicit_window"]
        assert point["query"]["window_start"] == "1998-01-01"
        code = main(
            [
                "query",
                str(indexed_archive),
                indexed_prefix,
                "--format",
                "json",
                "--range",
                "1998-01-01:1999-01-01",
            ]
        )
        assert code == 0
        ranged = json.loads(capsys.readouterr().out)
        assert ranged["query"]["window_end"] == "1999-01-01"

    def test_direct_index_file_path(
        self, indexed_archive, indexed_prefix, capsys
    ):
        """ARCHIVE may be the .idx file itself, not its directory."""
        code = main(
            [
                "query",
                str(indexed_archive / INDEX_FILENAME),
                indexed_prefix,
            ]
        )
        assert code == 0
        assert indexed_prefix in capsys.readouterr().out


class TestQueryTypedErrors:
    """Every failure: one stderr line, exit code 2."""

    def run(self, args, capsys) -> tuple[int, str]:
        code = main(["query", *args])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    def test_malformed_cidr(self, indexed_archive, capsys):
        code, err = self.run(
            [str(indexed_archive), "not-a-cidr"], capsys
        )
        assert code == 2
        assert err.startswith("repro query:")
        assert "not-a-cidr" in err

    def test_absent_prefix(self, indexed_archive, capsys):
        code, err = self.run(
            [str(indexed_archive), "203.0.113.0/24"], capsys
        )
        assert code == 2
        assert "no MOAS episode recorded for 203.0.113.0/24" in err

    def test_missing_index_names_the_fix(self, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        code, err = self.run([str(bare), "10.0.0.0/8"], capsys)
        assert code == 2
        assert "no episode index at" in err
        assert "repro analyze --index" in err

    def test_empty_index(self, tmp_path, capsys):
        path = tmp_path / INDEX_FILENAME
        EpisodeIndex().save(path)
        code, err = self.run([str(tmp_path), "10.0.0.0/8"], capsys)
        assert code == 2
        assert "is empty" in err

    def test_corrupt_index(self, indexed_archive, tmp_path, capsys):
        raw = bytearray(
            (indexed_archive / INDEX_FILENAME).read_bytes()
        )
        raw[len(raw) // 2] ^= 0x10
        (tmp_path / INDEX_FILENAME).write_bytes(bytes(raw))
        code, err = self.run([str(tmp_path), "10.0.0.0/8"], capsys)
        assert code == 2
        assert "repro query:" in err

    def test_bad_day(self, indexed_archive, capsys):
        code, err = self.run(
            [str(indexed_archive), "10.0.0.0/8", "--day", "soon"],
            capsys,
        )
        assert code == 2
        assert "soon" in err

    def test_bad_range(self, indexed_archive, capsys):
        code, err = self.run(
            [
                str(indexed_archive),
                "10.0.0.0/8",
                "--range",
                "1998-01-01",
            ],
            capsys,
        )
        assert code == 2
        assert "A:B" in err

    def test_day_and_range_conflict(self, indexed_archive, capsys):
        """argparse itself rejects --day with --range, also at 2."""
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "query",
                    str(indexed_archive),
                    "10.0.0.0/8",
                    "--day",
                    "1998-01-01",
                    "--range",
                    "1998-01-01:1998-01-02",
                ]
            )
        assert excinfo.value.code == 2


class TestQueryHelp:
    def test_help_names_the_contract(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["query", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        assert "--day" in help_text
        assert "--range" in help_text
        assert "--format" in help_text
        # argparse reflows the description; compare unwrapped.
        unwrapped = " ".join(help_text.split())
        assert "'repro analyze --index'" in unwrapped
        assert "status 2" in unwrapped

    def test_analyze_help_documents_index_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        assert "--index" in capsys.readouterr().out


class TestAnalyzeIndexFlag:
    def test_analyze_writes_default_index_path(
        self, indexed_archive, capsys
    ):
        """The module fixture already ran analyze --index; verify."""
        path = indexed_archive / INDEX_FILENAME
        assert path.is_file()
        index = EpisodeIndex.load(path)
        assert len(index) > 0
        assert index.last_day is not None

    def test_analyze_index_custom_path(
        self, indexed_archive, tmp_path, capsys
    ):
        custom = tmp_path / "custom.idx"
        code = main(
            [
                "analyze",
                str(indexed_archive),
                str(tmp_path / "out"),
                "--index",
                str(custom),
            ]
        )
        assert code == 0
        assert "episode index written to" in capsys.readouterr().out
        assert custom.is_file()
        # Same archive, same fold -> byte-identical index.
        assert custom.read_bytes() == (
            indexed_archive / INDEX_FILENAME
        ).read_bytes()

    def test_index_answers_equal_across_layouts(
        self, indexed_archive, tmp_path
    ):
        """--workers counts write the identical index."""
        parallel = tmp_path / "parallel.idx"
        code = main(
            [
                "analyze",
                str(indexed_archive),
                str(tmp_path / "out"),
                "--workers",
                "2",
                "--index",
                str(parallel),
            ]
        )
        assert code == 0
        assert parallel.read_bytes() == (
            indexed_archive / INDEX_FILENAME
        ).read_bytes()

    def test_query_answers_survive_archive_conversion(
        self, indexed_archive, tmp_path, capsys
    ):
        """convert carries episodes.idx as a side file."""
        converted = tmp_path / "v2"
        assert (
            main(
                [
                    "convert",
                    str(indexed_archive),
                    str(converted),
                    "--to",
                    "v2",
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert (converted / INDEX_FILENAME).is_file()
        index = EpisodeIndex.load(converted / INDEX_FILENAME)
        prefix = str(next(iter(index.prefixes())))
        assert main(["query", str(converted), prefix]) == 0
        assert prefix in capsys.readouterr().out
