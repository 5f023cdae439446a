"""The end-to-end study pipeline and figure/table generation.

:mod:`repro.analysis.sources` adapts archives (CDS or MRT) into daily
detections; :mod:`repro.analysis.pipeline` streams them into
:class:`~repro.analysis.pipeline.StudyResults` —
:mod:`repro.analysis.parallel` fans per-day detection out over a
process pool, with results identical to a serial run;
:mod:`repro.analysis.report` and :mod:`repro.analysis.figures` render
the paper's tables and figures; :mod:`repro.analysis.evaluation`
scores verdict-engine cause attribution against injected ground truth
(per-kind precision/recall, confusion matrix); :mod:`repro.analysis.vantage`
reproduces the Section III vantage-point comparison; and
:mod:`repro.analysis.baselines` implements the related-work baseline
(Huston's bare daily counter).
"""

from repro.analysis.compare import (
    compare_to_paper,
    comparison_table,
    fraction_passing,
)
from repro.analysis.evaluation import (
    EvaluationReport,
    EvaluationResult,
    evaluate_verdicts,
)
from repro.analysis.export import episodes_csv, summary_json
from repro.analysis.parallel import resolve_workers
from repro.analysis.pipeline import StudyPipeline, StudyResults, StudyState
from repro.analysis.sources import (
    detections_from_archive,
    detections_from_mrt_files,
)

__all__ = [
    "EvaluationReport",
    "EvaluationResult",
    "evaluate_verdicts",
    "resolve_workers",
    "StudyState",
    "compare_to_paper",
    "comparison_table",
    "fraction_passing",
    "episodes_csv",
    "summary_json",
    "StudyPipeline",
    "StudyResults",
    "detections_from_archive",
    "detections_from_mrt_files",
]
