"""Scoring verdicts against injected ground truth.

The paper concedes (Section VI-F) that duration alone "can not be
accurate enough"; this module measures exactly how accurate any
attribution heuristic is.  Given the per-prefix verdicts of a
:class:`~repro.core.verdict.VerdictEngine` run and an archive's answer
keys — ``incidents.json`` (injected incidents) and
``ground_truth.json`` (organic cause processes, mapped onto the same
kind vocabulary) — it produces per-kind precision/recall/F1, a full
truth-by-prediction confusion matrix, and the injected-incident
coverage the CI smoke job gates on.

Everything is exposed three ways: :func:`evaluate_verdicts` for
library callers, ``MoasService.evaluate()`` for sessions, and the
``repro evaluate`` CLI (rendered through the registry's
``("evaluation", csv|ascii|json)`` renderers).
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.verdict import KIND_ORGANIC, Verdict
from repro.netbase.asn import is_private_asn
from repro.netbase.prefix import Prefix
from repro.scenario.incidents import IncidentKind, IncidentLabel

#: The scoreable (non-organic) kind vocabulary, in report order.
INCIDENT_KINDS: tuple[str, ...] = tuple(
    kind.value for kind in IncidentKind
)

#: Organic cause -> truth kind.  The organic processes that *are* a
#: hijack/IXP/anycast shape map onto the incident vocabulary (the
#: verdict engine cannot and should not tell an injected misconfig from
#: an organic one); policy-driven multi-origination stays "organic".
_CAUSE_TO_KIND: dict[str, str] = {
    "exchange_point": "ixp_conflict",
    "misconfig": "exact_hijack",
    "fault_mass_origination": "exact_hijack",
    "anycast": "anycast",
    "static_multihoming": KIND_ORGANIC,
    "traffic_engineering": KIND_ORGANIC,
    "provider_transition": KIND_ORGANIC,
}


def organic_truth(ground_truth: Sequence[Mapping]) -> dict[Prefix, str]:
    """Map generator ground-truth events onto the kind vocabulary.

    ``private_as`` events count as a leak only when a private ASN
    actually reached origin position (otherwise nothing distinguishes
    them from ordinary multi-homing, by design).  A prefix conflicted
    by several causes keeps its most specific (non-organic) kind.
    """
    truth: dict[Prefix, str] = {}
    for event in ground_truth:
        cause = event["cause"]
        if cause == "private_as":
            kind = (
                "private_leak"
                if any(is_private_asn(asn) for asn in event["origins"])
                else KIND_ORGANIC
            )
        else:
            kind = _CAUSE_TO_KIND.get(cause, KIND_ORGANIC)
        prefix = Prefix.parse(event["prefix"])
        if truth.get(prefix, KIND_ORGANIC) == KIND_ORGANIC:
            truth[prefix] = kind
    return truth


@dataclass(frozen=True)
class KindScore:
    """Precision/recall counts for one incident kind."""

    kind: str
    true_positives: int
    false_positives: int
    false_negatives: int

    @property
    def precision(self) -> float:
        predicted = self.true_positives + self.false_positives
        return self.true_positives / predicted if predicted else 0.0

    @property
    def recall(self) -> float:
        actual = self.true_positives + self.false_negatives
        return self.true_positives / actual if actual else 0.0

    @property
    def f1(self) -> float:
        denominator = self.precision + self.recall
        if denominator == 0.0:
            return 0.0
        return 2.0 * self.precision * self.recall / denominator


@dataclass
class EvaluationResult:
    """Everything one scoring run measured."""

    #: truth kind -> predicted kind -> prefix count.
    confusion: dict[str, dict[str, int]]
    per_kind: tuple[KindScore, ...]
    #: Injected-incident coverage: kind -> (detected, injected).
    injected_coverage: dict[str, tuple[int, int]]
    num_verdicts: int
    num_labeled: int
    num_injected: int
    #: Verdicts per RFC 6811 rollup state (``valid`` / ``invalid`` /
    #: ``not_found``); empty when scoring ran without a ROA table.
    rpki_states: dict[str, int] = field(default_factory=dict)

    @property
    def micro_scores(self) -> KindScore:
        """Counts pooled over every incident kind (excludes organic)."""
        return KindScore(
            kind="micro",
            true_positives=sum(s.true_positives for s in self.per_kind),
            false_positives=sum(s.false_positives for s in self.per_kind),
            false_negatives=sum(s.false_negatives for s in self.per_kind),
        )

    @property
    def micro_f1(self) -> float:
        return self.micro_scores.f1

    @property
    def macro_f1(self) -> float:
        """Mean F1 over the kinds that actually occur in the truth."""
        present = [
            score
            for score in self.per_kind
            if score.true_positives + score.false_negatives > 0
        ]
        if not present:
            return 0.0
        return sum(score.f1 for score in present) / len(present)

    @property
    def injected_detected(self) -> int:
        return sum(hit for hit, _total in self.injected_coverage.values())

    def to_dict(self) -> dict:
        """JSON-serializable form (the ``BENCH_evaluation`` payload)."""
        micro = self.micro_scores
        return {
            "per_kind": [
                {
                    "kind": score.kind,
                    "true_positives": score.true_positives,
                    "false_positives": score.false_positives,
                    "false_negatives": score.false_negatives,
                    "precision": round(score.precision, 4),
                    "recall": round(score.recall, 4),
                    "f1": round(score.f1, 4),
                }
                for score in self.per_kind
            ],
            "micro": {
                "precision": round(micro.precision, 4),
                "recall": round(micro.recall, 4),
                "f1": round(micro.f1, 4),
            },
            "macro_f1": round(self.macro_f1, 4),
            "confusion": {
                truth: dict(sorted(row.items()))
                for truth, row in sorted(self.confusion.items())
            },
            "injected_coverage": {
                kind: {"detected": hit, "injected": total}
                for kind, (hit, total) in sorted(
                    self.injected_coverage.items()
                )
            },
            "num_verdicts": self.num_verdicts,
            "num_labeled": self.num_labeled,
            "num_injected": self.num_injected,
            "rpki_states": dict(sorted(self.rpki_states.items())),
        }


@dataclass
class EvaluationReport:
    """A full ``evaluate`` run: the verdicts plus their scores."""

    verdicts: dict[Prefix, Verdict]
    result: EvaluationResult
    labels: tuple[IncidentLabel, ...] = ()


def evaluate_verdicts(
    verdicts: Mapping[Prefix, Verdict],
    *,
    injected: Sequence[IncidentLabel | Mapping] = (),
    organic: Sequence[Mapping] = (),
) -> EvaluationResult:
    """Score predicted kinds against the combined answer key.

    The universe is every prefix with a truth label or a verdict:
    unlabeled prefixes count as truth-``organic`` (so any incident
    prediction on them is a false positive), and labeled prefixes
    without a matching verdict count as missed.  An injected label
    always overrides the organic mapping for the same prefix.
    """
    labels = [
        label
        if isinstance(label, IncidentLabel)
        else IncidentLabel.from_dict(label)
        for label in injected
    ]
    truth = organic_truth(organic)
    injected_by_prefix = {label.prefix: label for label in labels}
    for label in labels:
        truth[label.prefix] = label.kind.value

    confusion: dict[str, dict[str, int]] = {}
    coverage: dict[str, list[int]] = {}
    for label in labels:
        coverage.setdefault(label.kind.value, [0, 0])[1] += 1

    universe = set(truth) | set(verdicts)
    for prefix in universe:
        actual = truth.get(prefix, KIND_ORGANIC)
        verdict = verdicts.get(prefix)
        predicted = verdict.kind if verdict is not None else "missed"
        row = confusion.setdefault(actual, {})
        row[predicted] = row.get(predicted, 0) + 1
        label = injected_by_prefix.get(prefix)
        if label is not None and predicted == actual:
            coverage[label.kind.value][0] += 1

    per_kind = []
    for kind in INCIDENT_KINDS:
        true_positives = confusion.get(kind, {}).get(kind, 0)
        false_negatives = (
            sum(confusion.get(kind, {}).values()) - true_positives
        )
        false_positives = sum(
            row.get(kind, 0)
            for truth_kind, row in confusion.items()
            if truth_kind != kind
        )
        per_kind.append(
            KindScore(
                kind=kind,
                true_positives=true_positives,
                false_positives=false_positives,
                false_negatives=false_negatives,
            )
        )
    rpki_states: dict[str, int] = {}
    for verdict in verdicts.values():
        if verdict.rpki_state is not None:
            rpki_states[verdict.rpki_state] = (
                rpki_states.get(verdict.rpki_state, 0) + 1
            )
    return EvaluationResult(
        confusion=confusion,
        per_kind=tuple(per_kind),
        injected_coverage={
            kind: (hit, total) for kind, (hit, total) in coverage.items()
        },
        num_verdicts=len(verdicts),
        num_labeled=len(truth),
        num_injected=len(labels),
        rpki_states=rpki_states,
    )


# -- renderers ----------------------------------------------------------------


def evaluation_csv(result: EvaluationResult) -> str:
    """Per-kind score table as CSV (plus the pooled micro row)."""
    lines = ["kind,true_positives,false_positives,false_negatives,precision,recall,f1"]
    for score in (*result.per_kind, result.micro_scores):
        lines.append(
            f"{score.kind},{score.true_positives},{score.false_positives},"
            f"{score.false_negatives},{score.precision:.4f},"
            f"{score.recall:.4f},{score.f1:.4f}"
        )
    return "\n".join(lines) + "\n"


def evaluation_ascii(result: EvaluationResult) -> str:
    """The human-readable evaluation report."""
    lines = [
        "Incident attribution scorecard",
        "==============================",
        "",
        f"{'kind':<20} {'tp':>5} {'fp':>5} {'fn':>5} "
        f"{'prec':>7} {'recall':>7} {'f1':>7}",
    ]
    for score in (*result.per_kind, result.micro_scores):
        lines.append(
            f"{score.kind:<20} {score.true_positives:>5} "
            f"{score.false_positives:>5} {score.false_negatives:>5} "
            f"{score.precision:>7.3f} {score.recall:>7.3f} "
            f"{score.f1:>7.3f}"
        )
    lines.append("")
    lines.append(
        f"macro F1 {result.macro_f1:.3f} over "
        f"{result.num_labeled} labeled prefixes, "
        f"{result.num_verdicts} verdicts"
    )
    if result.rpki_states:
        lines.append("")
        lines.append("RPKI origin validation (verdicts per state):")
        for state, count in sorted(result.rpki_states.items()):
            lines.append(f"  {state:<20} {count}")
    if result.injected_coverage:
        lines.append("")
        lines.append("Injected incidents detected:")
        for kind, (hit, total) in sorted(
            result.injected_coverage.items()
        ):
            lines.append(f"  {kind:<20} {hit}/{total}")
    lines.append("")
    lines.append("Confusion (truth -> predicted):")
    for truth_kind, row in sorted(result.confusion.items()):
        cells = ", ".join(
            f"{predicted}={count}"
            for predicted, count in sorted(row.items())
        )
        lines.append(f"  {truth_kind:<20} {cells}")
    return "\n".join(lines) + "\n"


def evaluation_json(result: EvaluationResult) -> str:
    """The full scoring payload as JSON."""
    return json.dumps(result.to_dict(), indent=2)
