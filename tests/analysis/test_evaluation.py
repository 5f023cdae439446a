"""Tests for ground-truth-scored evaluation of the verdict engine."""

import datetime
import json

import pytest

from repro.analysis.evaluation import (
    EvaluationResult,
    evaluate_verdicts,
    evaluation_ascii,
    evaluation_csv,
    evaluation_json,
    organic_truth,
)
from repro.core.verdict import KIND_ORGANIC, Verdict
from repro.netbase.prefix import Prefix
from repro.scenario.incidents import (
    IncidentKind,
    IncidentLabel,
    IncidentScript,
)
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar

CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1998, 2, 15)
)  # 100 days


def verdict(prefix: str, kind: str) -> Verdict:
    return Verdict(
        prefix=Prefix.parse(prefix),
        kind=kind,
        tags=frozenset(),
        suspicion=0.5,
        days_observed=1,
        origins=frozenset({1, 2}),
    )


def label(prefix: str, kind: IncidentKind) -> IncidentLabel:
    return IncidentLabel(
        kind=kind,
        prefix=Prefix.parse(prefix),
        start_index=10,
        end_index=12,
        perpetrator=666,
        origins=(7, 666),
    )


class TestScoring:
    def test_perfect_attribution(self):
        verdicts = {
            Prefix.parse("10.0.0.0/8"): verdict("10.0.0.0/8", "exact_hijack"),
            Prefix.parse("11.0.0.0/8"): verdict("11.0.0.0/8", "anycast"),
        }
        result = evaluate_verdicts(
            verdicts,
            injected=[
                label("10.0.0.0/8", IncidentKind.EXACT_HIJACK),
                label("11.0.0.0/8", IncidentKind.ANYCAST),
            ],
        )
        assert result.micro_f1 == 1.0
        assert result.injected_detected == 2
        assert result.injected_coverage["exact_hijack"] == (1, 1)

    def test_missed_label_is_false_negative(self):
        result = evaluate_verdicts(
            {}, injected=[label("10.0.0.0/8", IncidentKind.EXACT_HIJACK)]
        )
        scores = {score.kind: score for score in result.per_kind}
        assert scores["exact_hijack"].false_negatives == 1
        assert result.confusion["exact_hijack"]["missed"] == 1
        assert result.micro_f1 == 0.0

    def test_unlabeled_incident_prediction_is_false_positive(self):
        verdicts = {
            Prefix.parse("10.0.0.0/8"): verdict("10.0.0.0/8", "exact_hijack")
        }
        result = evaluate_verdicts(verdicts)
        scores = {score.kind: score for score in result.per_kind}
        assert scores["exact_hijack"].false_positives == 1
        assert result.confusion[KIND_ORGANIC]["exact_hijack"] == 1

    def test_wrong_kind_counts_both_ways(self):
        verdicts = {
            Prefix.parse("10.0.0.0/8"): verdict("10.0.0.0/8", "anycast")
        }
        result = evaluate_verdicts(
            verdicts,
            injected=[label("10.0.0.0/8", IncidentKind.EXACT_HIJACK)],
        )
        scores = {score.kind: score for score in result.per_kind}
        assert scores["exact_hijack"].false_negatives == 1
        assert scores["anycast"].false_positives == 1
        assert result.injected_coverage["exact_hijack"] == (0, 1)

    def test_injected_label_overrides_organic_mapping(self):
        verdicts = {
            Prefix.parse("10.0.0.0/8"): verdict("10.0.0.0/8", "exact_hijack")
        }
        organic = [
            {
                "prefix": "10.0.0.0/8",
                "cause": "traffic_engineering",
                "origins": [7, 9],
            }
        ]
        result = evaluate_verdicts(
            verdicts,
            injected=[label("10.0.0.0/8", IncidentKind.EXACT_HIJACK)],
            organic=organic,
        )
        assert result.confusion["exact_hijack"]["exact_hijack"] == 1
        assert KIND_ORGANIC not in result.confusion


class TestOrganicTruth:
    def test_cause_mapping(self):
        truth = organic_truth(
            [
                {"prefix": "10.0.0.0/8", "cause": "exchange_point",
                 "origins": [1, 2]},
                {"prefix": "11.0.0.0/8", "cause": "misconfig",
                 "origins": [1, 2]},
                {"prefix": "12.0.0.0/8", "cause": "fault_mass_origination",
                 "origins": [1, 2]},
                {"prefix": "13.0.0.0/8", "cause": "static_multihoming",
                 "origins": [1, 2]},
            ]
        )
        assert truth[Prefix.parse("10.0.0.0/8")] == "ixp_conflict"
        assert truth[Prefix.parse("11.0.0.0/8")] == "exact_hijack"
        assert truth[Prefix.parse("12.0.0.0/8")] == "exact_hijack"
        assert truth[Prefix.parse("13.0.0.0/8")] == KIND_ORGANIC

    def test_private_as_counts_as_leak_only_when_leaked(self):
        truth = organic_truth(
            [
                {"prefix": "10.0.0.0/8", "cause": "private_as",
                 "origins": [7, 64513]},
                {"prefix": "11.0.0.0/8", "cause": "private_as",
                 "origins": [7, 9]},
            ]
        )
        assert truth[Prefix.parse("10.0.0.0/8")] == "private_leak"
        assert truth[Prefix.parse("11.0.0.0/8")] == KIND_ORGANIC


class TestRenderers:
    @pytest.fixture()
    def result(self) -> EvaluationResult:
        return evaluate_verdicts(
            {
                Prefix.parse("10.0.0.0/8"): verdict(
                    "10.0.0.0/8", "exact_hijack"
                )
            },
            injected=[label("10.0.0.0/8", IncidentKind.EXACT_HIJACK)],
        )

    def test_csv_has_header_and_micro_row(self, result):
        lines = evaluation_csv(result).strip().splitlines()
        assert lines[0].startswith("kind,true_positives")
        assert lines[-1].startswith("micro,")

    def test_ascii_mentions_scores_and_confusion(self, result):
        text = evaluation_ascii(result)
        assert "Incident attribution scorecard" in text
        assert "Confusion" in text
        assert "exact_hijack" in text

    def test_json_round_trips(self, result):
        payload = json.loads(evaluation_json(result))
        assert payload["micro"]["f1"] == 1.0
        assert payload["injected_coverage"]["exact_hijack"] == {
            "detected": 1,
            "injected": 1,
        }

    def test_registry_dispatch(self, result):
        from repro.api.renderers import available_renderings, render

        assert available_renderings()["evaluation"] == (
            "ascii",
            "csv",
            "json",
        )
        assert render(result, "evaluation", "csv") == evaluation_csv(result)


@pytest.fixture(scope="module")
def canned_archive(tmp_path_factory):
    directory = tmp_path_factory.mktemp("evaluation") / "archive"
    config = ScenarioConfig(
        scale=0.02,
        calendar=CALENDAR,
        paper_archive_gaps=False,
        incidents=IncidentScript.canned(CALENDAR.num_days),
    )
    simulate_study(directory, config)
    return directory


class TestEndToEnd:
    def test_service_evaluate_detects_every_kind(self, canned_archive):
        from repro.api.service import MoasService

        report = MoasService().evaluate(canned_archive)
        for kind, (detected, injected) in (
            report.result.injected_coverage.items()
        ):
            assert detected >= 1, f"{kind}: {detected}/{injected}"
        assert report.result.micro_f1 > 0.5
        assert len(report.verdicts) == report.result.num_verdicts

    def test_parallel_evaluation_identical(self, canned_archive):
        import os

        from repro.api.service import MoasService

        workers = int(os.environ.get("REPRO_TEST_WORKERS", "2"))
        serial = MoasService().evaluate(canned_archive)
        parallel = MoasService(workers=workers).evaluate(canned_archive)
        assert serial.result.to_dict() == parallel.result.to_dict()
        assert serial.verdicts == parallel.verdicts

    def test_cli_evaluate_matches_across_workers(
        self, canned_archive, tmp_path, capsys
    ):
        from repro.api.cli import main

        assert main(["evaluate", str(canned_archive)]) == 0
        serial_out = capsys.readouterr().out
        assert (
            main(
                [
                    "evaluate",
                    str(canned_archive),
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "Incident attribution scorecard" in serial_out

    def test_cli_evaluate_json_out(self, canned_archive, tmp_path, capsys):
        from repro.api.cli import main

        artifact = tmp_path / "scores" / "BENCH_evaluation.json"
        assert (
            main(
                [
                    "evaluate",
                    str(canned_archive),
                    "--format",
                    "json",
                    "--json-out",
                    str(artifact),
                ]
            )
            == 0
        )
        stdout = capsys.readouterr().out
        assert json.loads(artifact.read_text()) == json.loads(stdout)

    def test_cli_evaluate_missing_archive_fails_cleanly(
        self, tmp_path, capsys
    ):
        from repro.api.cli import main

        code = main(["evaluate", str(tmp_path / "nowhere")])
        assert code == 1
        assert "repro evaluate:" in capsys.readouterr().err
