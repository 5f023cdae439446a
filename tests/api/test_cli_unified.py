"""The unified ``repro`` CLI."""

import datetime
import json
import pathlib
import shutil

import pytest

from repro.api.cli import main
from repro.api.service import LEGACY_RESUME_NOTE
from tests.fixtures import legacy_checkpoint_writer as legacy

ANALYSIS_FILES = (
    "figure1.csv",
    "figure3.csv",
    "figure5.csv",
    "figure6.csv",
    "episodes.csv",
    "summary.json",
    "report.txt",
)


@pytest.fixture(scope="module")
def cli_archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("unified-cli") / "archive"
    assert main(["simulate", str(directory), "--scale", "0.01"]) == 0
    return directory


class TestSimulate:
    def test_writes_archive(self, cli_archive):
        for name in ("manifest.json", "days.bin", "registry.bin"):
            assert (cli_archive / name).exists()

    def test_summary_printed(self, capsys, tmp_path):
        main(["simulate", str(tmp_path / "a"), "--scale", "0.01"])
        assert "observed_days: 1279" in capsys.readouterr().out

    def test_incidents_canned_writes_labels(self, tmp_path, capsys):
        archive = tmp_path / "incident-archive"
        code = main(
            [
                "simulate",
                str(archive),
                "--scale",
                "0.01",
                "--incidents",
                "canned",
            ]
        )
        assert code == 0
        assert "incidents_injected:" in capsys.readouterr().out
        labels = json.loads((archive / "incidents.json").read_text())
        assert labels
        assert {"kind", "prefix", "perpetrator"} <= set(labels[0])

    def test_incidents_bad_script_fails_cleanly(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                str(tmp_path / "arch"),
                "--incidents",
                str(tmp_path / "missing.json"),
            ]
        )
        assert code == 1
        assert "repro simulate:" in capsys.readouterr().err


class TestAnalyze:
    def test_produces_report_and_figures(self, cli_archive, tmp_path, capsys):
        out_dir = tmp_path / "analysis"
        assert main(["analyze", str(cli_archive), str(out_dir)]) == 0
        for name in ANALYSIS_FILES:
            assert (out_dir / name).exists(), f"{name} missing"
        printed = capsys.readouterr().out
        assert "MOAS study summary" in printed
        assert "Fig. 2." in printed

    def test_analyze_accepts_mrt_directory(self, tmp_path, capsys):
        """Analyze runs over a directory of MRT dumps (no manifest)."""
        from repro.scenario.world import ScenarioConfig, simulate_study
        from repro.util.dates import StudyCalendar

        calendar = StudyCalendar(
            datetime.date(1998, 4, 6), datetime.date(1998, 4, 12)
        )
        archive = tmp_path / "archive"
        simulate_study(
            archive,
            ScenarioConfig(
                scale=0.01,
                calendar=calendar,
                paper_archive_gaps=False,
            ),
            mrt_export_days=set(calendar),
        )
        out_dir = tmp_path / "analysis"
        assert main(["analyze", str(archive / "mrt"), str(out_dir)]) == 0
        assert (out_dir / "report.txt").exists()
        assert "MOAS study summary" in capsys.readouterr().out

    def test_analyze_profile_prints_stage_breakdown(
        self, cli_archive, tmp_path, capsys
    ):
        """--profile appends the decode/detect/fold wall-clock table."""
        plain_dir = tmp_path / "plain"
        assert main(["analyze", str(cli_archive), str(plain_dir)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "profiled"
        code = main(
            ["analyze", str(cli_archive), str(out_dir), "--profile"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        # The normal report still comes out in full, unchanged...
        assert "MOAS study summary" in printed
        for name in ANALYSIS_FILES:
            assert (out_dir / name).read_bytes() == (
                plain_dir / name
            ).read_bytes(), f"{name} differs"
        # ...followed by the per-stage summary and cProfile hotspots.
        assert "profile: serial feed, columnar scan" in printed
        for stage in ("decode", "detect", "fold"):
            assert stage in printed
        assert "throughput:" in printed
        assert "cumulative" in printed  # the cProfile hotspot listing

    def test_analyze_profile_requires_cds_archive(self, tmp_path, capsys):
        """--profile over an MRT directory fails with a clean message."""
        mrt_dir = tmp_path / "mrt"
        mrt_dir.mkdir()
        code = main(
            [
                "analyze",
                str(mrt_dir),
                str(tmp_path / "out"),
                "--profile",
            ]
        )
        assert code == 1
        assert "requires a CDS archive" in capsys.readouterr().err

    def test_analyze_missing_archive_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["analyze", str(tmp_path / "nowhere"), str(tmp_path / "out")]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "repro analyze:" in err
        assert "no CDS archive or MRT file" in err

    def test_analyze_corrupt_checkpoint_fails_cleanly(
        self, cli_archive, tmp_path, capsys
    ):
        bad = tmp_path / "bad.ckpt"
        bad.write_text('{"garbage": true}')
        code = main(
            [
                "analyze",
                str(cli_archive),
                str(tmp_path / "out"),
                "--resume",
                str(bad),
            ]
        )
        assert code == 1
        assert "unsupported checkpoint" in capsys.readouterr().err

    def test_checkpoint_resume_identical_report(
        self, cli_archive, tmp_path, capsys
    ):
        plain_dir = tmp_path / "plain"
        ckpt = tmp_path / "study.ckpt"
        assert main(
            [
                "analyze",
                str(cli_archive),
                str(plain_dir),
                "--checkpoint",
                str(ckpt),
            ]
        ) == 0
        assert ckpt.exists()
        resumed_dir = tmp_path / "resumed"
        assert main(
            [
                "analyze",
                str(cli_archive),
                str(resumed_dir),
                "--resume",
                str(ckpt),
            ]
        ) == 0
        capsys.readouterr()
        assert (resumed_dir / "report.txt").read_bytes() == (
            plain_dir / "report.txt"
        ).read_bytes()


class TestReport:
    def test_report_roundtrip(self, cli_archive, tmp_path, capsys):
        out_dir = tmp_path / "analysis"
        main(["analyze", str(cli_archive), str(out_dir)])
        capsys.readouterr()
        assert main(["report", str(out_dir)]) == 0
        assert "MOAS study summary" in capsys.readouterr().out

    def test_report_missing_dir_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nonexistent")]) == 1
        assert "no report" in capsys.readouterr().err


class TestWatch:
    @pytest.fixture()
    def update_file(self, tmp_path):
        from repro.mrt.attributes import PathAttributes
        from repro.mrt.records import Bgp4mpMessage
        from repro.mrt.writer import MrtWriter
        from repro.netbase import ASPath, Prefix

        prefix = Prefix.parse("193.0.0.0/16")

        def announce(peer: int, *path: int) -> Bgp4mpMessage:
            return Bgp4mpMessage(
                peer_asn=peer,
                local_asn=6447,
                interface_index=0,
                peer_address=0xC6200001,
                local_address=0xC6336401,
                attributes=PathAttributes(
                    as_path=ASPath.from_sequence(path)
                ),
                announced=(prefix,),
            )

        path = tmp_path / "updates.mrt"
        with open(path, "wb") as handle:
            writer = MrtWriter(handle)
            writer.write(announce(701, 701, 7).to_record(1000))
            writer.write(announce(1239, 1239, 8584).to_record(1010))
        return path

    def test_alerts_printed(self, update_file, capsys):
        assert main(["watch", str(update_file)]) == 0
        out = capsys.readouterr().out
        assert "moas_started 193.0.0.0/16" in out
        assert "origins=[7,8584]" in out
        assert "1 alerts; 1 prefixes still in MOAS" in out

    def test_expected_origins_flag_unexpected(
        self, update_file, tmp_path, capsys
    ):
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"193.0.0.0/16": 7}))
        assert main(
            [
                "watch",
                str(update_file),
                "--expected-origins",
                str(registry),
            ]
        ) == 0
        assert "UNEXPECTED-ORIGIN" in capsys.readouterr().out


class TestHelpText:
    """Every subcommand is discoverable from `repro --help`."""

    SUBCOMMANDS = (
        "simulate",
        "analyze",
        "convert",
        "report",
        "query",
        "evaluate",
        "watch",
        "serve",
        "check",
    )

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for subcommand in self.SUBCOMMANDS:
            assert subcommand in help_text

    def test_check_help_names_the_rule_machinery(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        assert "--rule" in help_text
        assert "--format" in help_text
        assert "--write-schema" in help_text
        assert "repro: ignore[rule-id]" in help_text

    def test_check_subcommand_runs_the_checker(self, capsys):
        import repro

        package_dir = str(pathlib.Path(repro.__file__).parent / "util")
        assert main(["check", package_dir]) == 0
        assert "finding(s)" in capsys.readouterr().out


class TestVersion:
    """`repro --version` (the string `/v1/status` also surfaces)."""

    def test_version_flag_prints_and_exits(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    def test_legacy_entry_points_are_gone(self):
        """The 1.1.0-deprecated shim module no longer imports."""
        with pytest.raises(ModuleNotFoundError):
            import repro.cli  # noqa: F401


class TestServeCli:
    """Argument handling of `repro serve` (the daemon itself is
    exercised end to end in test_serve.py)."""

    def test_serve_requires_some_day_source(self, capsys):
        assert main(["serve"]) == 1
        assert "day source" in capsys.readouterr().err

    def test_serve_refuses_a_checkpoint_directory(self, tmp_path, capsys):
        legacy = tmp_path / "legacy-ckpt"
        legacy.mkdir()
        code = main(["serve", str(tmp_path), "--checkpoint", str(legacy)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "is a directory" in err[0]
        assert f"--resume {legacy} --checkpoint FILE" in err[0]


#: One-row ROA files that once crashed the loader or were read
#: truncated (8.9 as max length 8, ``true`` as origin AS 1).
BAD_ROA_ROWS = {
    "prefix-number": {"prefix": 10, "max_length": 8, "origin": 7},
    "max-length-null": {
        "prefix": "10.0.0.0/8", "max_length": None, "origin": 7
    },
    "valid-from-number": {
        "prefix": "10.0.0.0/8",
        "max_length": 8,
        "origin": 7,
        "valid_from": 20000101,
    },
    "fraction-and-boolean": {
        "prefix": "10.0.0.0/8", "max_length": 8.9, "origin": True
    },
}


class TestMalformedRoaRows:
    """Each command that reads a ROA file refuses a malformed row with
    one line naming the file, the row and the field."""

    @pytest.mark.parametrize("name", sorted(BAD_ROA_ROWS))
    @pytest.mark.parametrize("command", ["analyze", "evaluate", "serve"])
    def test_one_error_line(self, command, name, cli_archive, tmp_path, capsys):
        archive = tmp_path / "archive"
        shutil.copytree(cli_archive, archive)
        roas = archive / "roas.json"
        roas.write_text(json.dumps([BAD_ROA_ROWS[name]]))
        argv = {
            "analyze": [
                "analyze", str(archive), str(tmp_path / "out"), "--rpki", str(archive)
            ],
            # evaluate and serve read the archive's own roas.json.
            "evaluate": ["evaluate", str(archive)],
            "serve": ["serve", str(archive), "--port", "0"],
        }[command]
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro {command}: {roas}: ROA row 0 ")
        assert "Traceback" not in captured.err + captured.out


class TestParallelFlags:
    def test_parallel_analysis_byte_identical(
        self, cli_archive, tmp_path, capsys
    ):
        """`--workers` never changes a single output byte."""
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        assert main(["analyze", str(cli_archive), str(serial_dir)]) == 0
        serial_stdout = capsys.readouterr().out
        assert (
            main(
                [
                    "analyze",
                    str(cli_archive),
                    str(parallel_dir),
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        parallel_stdout = capsys.readouterr().out
        assert serial_stdout == parallel_stdout
        for name in ANALYSIS_FILES:
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes(), f"{name} differs"

    def test_workers_auto_accepted(self, cli_archive, tmp_path):
        out_dir = tmp_path / "auto"
        assert (
            main(
                [
                    "analyze",
                    str(cli_archive),
                    str(out_dir),
                    "--workers",
                    "auto",
                ]
            )
            == 0
        )
        assert (out_dir / "report.txt").exists()

    def test_workers_rejects_garbage(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "analyze",
                    str(tmp_path),
                    str(tmp_path / "out"),
                    "--workers",
                    "many",
                ]
            )
        assert "workers must be" in capsys.readouterr().err

    def test_simulate_workers_identical_archive(self, tmp_path):
        """simulate --workers changes wall-clock, never bytes."""
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        base = [
            "simulate",
            None,
            "--scale",
            "0.01",
            "--mrt-export",
            "1998-04-07",
        ]
        for directory, workers in (
            (serial_dir, None),
            (parallel_dir, ["--workers", "2"]),
        ):
            argv = list(base)
            argv[1] = str(directory)
            if workers:
                argv.extend(workers)
            assert main(argv) == 0
        for name in ("registry.bin", "days.bin", "paths.bin"):
            assert (serial_dir / name).read_bytes() == (
                parallel_dir / name
            ).read_bytes(), f"{name} differs"
        mrt_name = "mrt/rib.1998-04-07.mrt"
        assert (serial_dir / mrt_name).read_bytes() == (
            parallel_dir / mrt_name
        ).read_bytes()

    def test_checkpoint_layout_collision_fails_cleanly(
        self, cli_archive, tmp_path, capsys
    ):
        checkpoint = tmp_path / "dir.ckpt"
        checkpoint.mkdir()
        code = main(
            [
                "analyze",
                str(cli_archive),
                str(tmp_path / "out"),
                "--checkpoint",
                str(checkpoint),
            ]
        )
        assert code == 1
        assert "existing directory" in capsys.readouterr().err


class TestLegacyShardedCheckpoints:
    """`--shards` is gone; sharded checkpoints earlier releases wrote
    still resume, and converting one writes a single file."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "ARCHIVE", "OUT"],
            ["evaluate", "ARCHIVE"],
            ["serve", "ARCHIVE"],
        ],
        ids=["analyze", "evaluate", "serve"],
    )
    def test_shards_option_is_gone(self, argv, tmp_path, capsys):
        argv = [
            {"ARCHIVE": str(tmp_path), "OUT": str(tmp_path / "out")}.get(
                arg, arg
            )
            for arg in argv
        ]
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--shards", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --shards" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "layout", legacy.LAYOUTS[:2], ids=legacy.layout_id
    )
    def test_legacy_checkpoint_resume_via_cli(
        self, cli_archive, tmp_path, capsys, layout
    ):
        from repro.api.service import MoasService
        from repro.api.sources import open_source

        detections = list(open_source(cli_archive).detections())
        directory = legacy.write_checkpoint(
            tmp_path / "legacy", detections[: len(detections) // 2], *layout
        )
        plain_dir = tmp_path / "plain"
        assert main(["analyze", str(cli_archive), str(plain_dir)]) == 0
        converted = tmp_path / "study.ckpt"
        resumed_dir = tmp_path / "resumed"
        assert (
            main(
                [
                    "analyze",
                    str(cli_archive),
                    str(resumed_dir),
                    "--resume",
                    str(directory),
                    "--checkpoint",
                    str(converted),
                ]
            )
            == 0
        )
        # One stderr line reports what a legacy resume cannot restore.
        assert capsys.readouterr().err.splitlines() == [
            f"repro analyze: resumed {directory}, {LEGACY_RESUME_NOTE}"
        ]
        for name in ANALYSIS_FILES:
            assert (resumed_dir / name).read_bytes() == (
                plain_dir / name
            ).read_bytes(), f"{name} differs"
        assert converted.is_file()
        reloaded = MoasService.load_checkpoint(converted)
        assert reloaded.days_fed == len(detections)
        assert set(reloaded.snapshot_state()) == {"version", "pipeline", "state"}


class TestConvertCommand:
    """`repro convert` and the simulate `--archive-format` axis."""

    @pytest.fixture(scope="class")
    def small_archive(self, tmp_path_factory):
        from repro.scenario.world import ScenarioConfig, simulate_study
        from repro.util.dates import StudyCalendar

        calendar = StudyCalendar(
            datetime.date(1998, 4, 6), datetime.date(1998, 4, 19)
        )
        directory = tmp_path_factory.mktemp("convert-cli") / "archive"
        simulate_study(
            directory,
            ScenarioConfig(
                scale=0.01, calendar=calendar, paper_archive_gaps=False
            ),
        )
        return directory

    def test_convert_then_analyze_matches_v1(
        self, small_archive, tmp_path, capsys
    ):
        converted = tmp_path / "v2"
        assert main(["convert", str(small_archive), str(converted)]) == 0
        printed = capsys.readouterr().out
        assert "converted" in printed and "(v2)" in printed
        assert (converted / "days.bin").read_bytes()[:4] == b"CDS2"
        manifest = json.loads((converted / "manifest.json").read_text())
        assert manifest["format"] == "cds-2"

        out_v1 = tmp_path / "out-v1"
        out_v2 = tmp_path / "out-v2"
        assert main(["analyze", str(small_archive), str(out_v1)]) == 0
        assert main(["analyze", str(converted), str(out_v2)]) == 0
        assert (out_v1 / "report.txt").read_bytes() == (
            out_v2 / "report.txt"
        ).read_bytes()

    def test_convert_back_to_v1_is_byte_identical(
        self, small_archive, tmp_path, capsys
    ):
        converted = tmp_path / "v2"
        restored = tmp_path / "v1-again"
        assert main(["convert", str(small_archive), str(converted)]) == 0
        assert (
            main(
                [
                    "convert",
                    str(converted),
                    str(restored),
                    "--to",
                    "v1",
                ]
            )
            == 0
        )
        capsys.readouterr()
        for name in ("days.bin", "registry.bin", "paths.bin"):
            assert (restored / name).read_bytes() == (
                small_archive / name
            ).read_bytes(), f"{name} differs"

    def test_existing_destination_fails_cleanly(
        self, small_archive, tmp_path, capsys
    ):
        occupied = tmp_path / "occupied"
        occupied.mkdir()
        assert main(["convert", str(small_archive), str(occupied)]) == 1
        assert "repro convert:" in capsys.readouterr().err

    def test_missing_source_fails_cleanly(self, tmp_path, capsys):
        code = main(
            ["convert", str(tmp_path / "nowhere"), str(tmp_path / "out")]
        )
        assert code == 1
        assert "repro convert:" in capsys.readouterr().err

    def test_simulate_archive_format_v2(self, tmp_path, capsys):
        """The simulate flag writes a v2 day store end to end."""
        from repro.scenario.world import ScenarioConfig, simulate_study
        from repro.util.dates import StudyCalendar

        calendar = StudyCalendar(
            datetime.date(1998, 4, 6), datetime.date(1998, 4, 12)
        )
        directory = tmp_path / "v2-sim"
        simulate_study(
            directory,
            ScenarioConfig(
                scale=0.01,
                calendar=calendar,
                paper_archive_gaps=False,
                archive_format="v2",
            ),
        )
        assert (directory / "days.bin").read_bytes()[:4] == b"CDS2"
        out_dir = tmp_path / "analysis"
        assert main(["analyze", str(directory), str(out_dir)]) == 0
        assert "MOAS study summary" in capsys.readouterr().out

    def test_simulate_cli_flag_parses(self, tmp_path):
        """--archive-format reaches ScenarioConfig via the parser."""
        from repro.api.cli import main as cli_main

        parser_error = None
        try:
            # A bad value must be rejected by argparse itself.
            cli_main(
                [
                    "simulate",
                    str(tmp_path / "x"),
                    "--archive-format",
                    "v9",
                ]
            )
        except SystemExit as exit_error:
            parser_error = exit_error.code
        assert parser_error == 2
