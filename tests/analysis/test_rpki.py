"""RPKI analysis acceptance suite.

One canned-incident world with an RPKI shadow, archived as v1 and v2;
RPKI-enabled analysis must be byte-identical at every worker count on
both formats, exact-prefix hijacks must
validate *invalid*, and anycast episodes under a covering multi-origin
ROA set must stay *valid*.  ``REPRO_TEST_WORKERS`` overrides the pool
size, mirroring the other equality suites.
"""

import datetime
import os

import pytest

from repro.api.renderers import render
from repro.api.service import MoasService
from repro.netbase.rpki import RoaTable
from repro.scenario.incidents import IncidentKind, IncidentScript
from repro.scenario.rpki import RpkiConfig
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar
from tests.fixtures import legacy_checkpoint_writer as legacy

WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1998, 2, 15)
)  # 100 days

#: The acceptance matrix: serial vs WORKERS.
LAYOUTS = [1, WORKERS]


def _config(archive_format):
    return ScenarioConfig(
        scale=0.02,
        calendar=CALENDAR,
        paper_archive_gaps=False,
        incidents=IncidentScript.canned(CALENDAR.num_days),
        rpki=RpkiConfig(),
        archive_format=archive_format,
    )


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    base = tmp_path_factory.mktemp("rpki-equivalence")
    simulate_study(base / "v1", _config("v1"))
    simulate_study(base / "v2", _config("v2"))
    return {"v1": base / "v1", "v2": base / "v2"}


def _analyze(archive, workers=1):
    service = MoasService(workers=workers, roa_table=archive)
    service.feed(archive)
    return service.results()


@pytest.fixture(scope="module")
def golden_results(archives):
    return _analyze(archives["v1"])


@pytest.fixture(scope="module")
def golden_report(archives):
    """``evaluate`` auto-loads the archive's roas.json."""
    return MoasService().evaluate(archives["v1"])


class TestLayoutAndFormatEquivalence:
    @pytest.mark.parametrize("workers", LAYOUTS)
    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_results_identical(self, archives, golden_results, fmt, workers):
        results = _analyze(archives[fmt], workers=workers)
        assert results == golden_results
        assert results.rpki_episode_states == (
            golden_results.rpki_episode_states
        )

    def test_rendered_rpki_figures_byte_identical(
        self, archives, golden_results
    ):
        results = _analyze(archives["v2"], workers=WORKERS)
        for figure in ("rpki", "longevity"):
            for fmt in ("csv", "ascii", "json"):
                assert render(results, figure, fmt) == render(
                    golden_results, figure, fmt
                )

    @pytest.mark.parametrize("workers", [WORKERS])
    def test_evaluation_identical(self, archives, golden_report, workers):
        for fmt in ("v1", "v2"):
            report = MoasService(workers=workers).evaluate(archives[fmt])
            assert report.verdicts == golden_report.verdicts
            assert (
                report.result.to_dict() == golden_report.result.to_dict()
            )


class TestAcceptanceVerdicts:
    def test_exact_hijacks_validate_invalid(self, golden_report):
        hijacks = [
            label
            for label in golden_report.labels
            if label.kind is IncidentKind.EXACT_HIJACK
        ]
        assert hijacks, "canned suite lost its exact hijacks"
        for label in hijacks:
            verdict = golden_report.verdicts[label.prefix]
            assert verdict.rpki_state == "invalid", (
                f"{label.prefix}: expected invalid, got "
                f"{verdict.rpki_state}"
            )

    def test_anycast_under_multi_origin_roas_stays_valid(
        self, archives, golden_report
    ):
        anycasts = [
            label
            for label in golden_report.labels
            if label.kind is IncidentKind.ANYCAST
        ]
        assert anycasts, "canned suite lost its anycast incident"
        table = RoaTable.load(archives["v1"])
        for label in anycasts:
            # The covering multi-origin ROA set really is there...
            covering = table.covering_roas(label.prefix)
            assert set(label.origins) <= {
                roa.origin for roa in covering
            }
            # ...and the episode rolls up valid.
            assert (
                golden_report.verdicts[label.prefix].rpki_state
                == "valid"
            )

    def test_study_results_carry_matching_states(
        self, golden_results, golden_report
    ):
        # StudyState's rollup and VerdictEngine's rollup are computed
        # independently; on conflicted prefixes they must agree.
        for prefix, state in golden_results.rpki_episode_states.items():
            verdict = golden_report.verdicts.get(prefix)
            if verdict is not None and verdict.days_observed > 0:
                assert verdict.rpki_state == state, str(prefix)

    def test_states_cover_every_episode(self, golden_results):
        assert set(golden_results.rpki_episode_states) == set(
            golden_results.episodes
        )
        counts = golden_results.rpki_state_counts
        assert sum(counts.values()) == len(golden_results.episodes)
        assert counts.get("invalid", 0) >= 1
        assert counts.get("valid", 0) >= 1


class TestWithoutRpki:
    def test_results_without_table_render_not_evaluated(self, archives):
        service = MoasService()
        service.feed(archives["v1"])
        results = service.results()
        assert results.rpki_episode_states == {}
        assert results.rpki_state_counts == {}
        assert "not_evaluated" in render(results, "longevity", "csv")
        assert render(results, "rpki", "csv").splitlines()[1].startswith(
            "not_evaluated,"
        )


class TestCheckpointWithRpki:
    def test_checkpoint_resume_matches_straight_run(
        self, archives, golden_results, tmp_path
    ):
        from repro.api.sources import ArchiveSource

        detections = list(ArchiveSource(archives["v1"]).detections())
        midpoint = len(detections) // 2
        first = MoasService(roa_table=archives["v1"])
        first.feed(detections[:midpoint])
        checkpoint = tmp_path / "rpki.ckpt"
        first.save_checkpoint(checkpoint)

        resumed = MoasService.load_checkpoint(checkpoint)
        assert resumed.roa_table == first.roa_table
        resumed.feed(detections[midpoint:])
        assert resumed.results() == golden_results

    @pytest.mark.parametrize(
        "layout", legacy.LAYOUTS, ids=legacy.layout_id
    )
    def test_legacy_checkpoint_resume_matches_straight_run(
        self, archives, golden_results, layout, tmp_path
    ):
        """RPKI states of every legacy shard union into the serial
        rollup, and the resumed study keeps validating like it."""
        from repro.api.sources import ArchiveSource

        table = RoaTable.load(archives["v1"])
        detections = list(ArchiveSource(archives["v1"]).detections())
        checkpoint = legacy.write_checkpoint(
            tmp_path / "legacy",
            detections[: len(detections) // 2],
            *layout,
            roa_table=table,
        )
        resumed = MoasService.load_checkpoint(checkpoint, workers=WORKERS)
        assert resumed.roa_table == table
        resumed.feed(archives["v2"], skip_seen=True)
        results = resumed.results()
        assert results == golden_results
        assert results.rpki_episode_states == (
            golden_results.rpki_episode_states
        )
        for figure in ("rpki", "longevity"):
            assert render(results, figure, "csv") == render(
                golden_results, figure, "csv"
            )


class TestAnalyzeCli:
    def test_analyze_rpki_writes_figures(self, archives, tmp_path, capsys):
        from repro.api.cli import main

        out = tmp_path / "out"
        assert (
            main(
                [
                    "analyze",
                    str(archives["v1"]),
                    str(out),
                    "--rpki",
                    str(archives["v1"]),
                ]
            )
            == 0
        )
        report = capsys.readouterr().out
        assert "RPKI origin validation of MOAS episodes" in report
        assert "MOAS episode longevity by RPKI validation state" in report
        assert (out / "rpki.csv").is_file()
        assert (out / "longevity.csv").is_file()

    def test_analyze_without_rpki_output_unchanged(
        self, archives, tmp_path, capsys
    ):
        from repro.api.cli import main

        out = tmp_path / "plain"
        assert main(["analyze", str(archives["v1"]), str(out)]) == 0
        report = capsys.readouterr().out
        assert "RPKI origin validation" not in report
        assert not (out / "rpki.csv").exists()

    def test_analyze_rpki_matches_across_layouts(
        self, archives, tmp_path, capsys
    ):
        from repro.api.cli import main

        outputs = []
        for index, workers in enumerate(LAYOUTS):
            out = tmp_path / f"out-{index}"
            assert (
                main(
                    [
                        "analyze",
                        str(archives["v2"]),
                        str(out),
                        "--rpki",
                        str(archives["v2"]),
                        "--workers",
                        str(workers),
                    ]
                )
                == 0
            )
            capsys.readouterr()
            outputs.append(
                (
                    (out / "rpki.csv").read_bytes(),
                    (out / "longevity.csv").read_bytes(),
                    (out / "report.txt").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]

    def test_resume_cannot_turn_rpki_on(self, archives, tmp_path, capsys):
        from repro.api.cli import main

        checkpoint = tmp_path / "plain.ckpt"
        out = tmp_path / "out"
        assert (
            main(
                [
                    "analyze",
                    str(archives["v1"]),
                    str(out),
                    "--checkpoint",
                    str(checkpoint),
                ]
            )
            == 0
        )
        capsys.readouterr()
        code = main(
            [
                "analyze",
                str(archives["v1"]),
                str(tmp_path / "out2"),
                "--resume",
                str(checkpoint),
                "--rpki",
                str(archives["v1"]),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot be turned on mid-study" in captured.err

    def test_resume_cannot_switch_roa_databases(
        self, archives, tmp_path, capsys
    ):
        from repro.api.cli import main
        from repro.netbase.rpki import Roa, RoaTable
        from repro.netbase.prefix import Prefix

        checkpoint = tmp_path / "rpki.ckpt"
        assert (
            main(
                [
                    "analyze",
                    str(archives["v1"]),
                    str(tmp_path / "out"),
                    "--rpki",
                    str(archives["v1"]),
                    "--checkpoint",
                    str(checkpoint),
                ]
            )
            == 0
        )
        capsys.readouterr()
        other = tmp_path / "other-roas.json"
        other.write_text(
            RoaTable([Roa(Prefix.parse("10.0.0.0/8"), 8, 7)]).to_json()
        )
        code = main(
            [
                "analyze",
                str(archives["v1"]),
                str(tmp_path / "out2"),
                "--resume",
                str(checkpoint),
                "--rpki",
                str(other),
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "cannot switch databases" in captured.err
        # The matching table resumes fine.
        assert (
            main(
                [
                    "analyze",
                    str(archives["v1"]),
                    str(tmp_path / "out3"),
                    "--resume",
                    str(checkpoint),
                    "--rpki",
                    str(archives["v1"]),
                ]
            )
            == 0
        )
        capsys.readouterr()
