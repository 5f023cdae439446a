"""The paper's contribution: MOAS conflict detection and analysis.

- :mod:`repro.core.detector` — find multi-origin prefixes in a daily
  snapshot (excluding AS_SET-terminated routes, as the paper did);
- :mod:`repro.core.classifier` — the Section V taxonomy: OrigTranAS,
  SplitView, DistinctPaths;
- :mod:`repro.core.episodes` — merge daily observations into per-prefix
  conflict records with the paper's duration accounting;
- :mod:`repro.core.stats` — figure/table statistics (daily series,
  yearly medians, duration expectations, prefix-length distributions);
- :mod:`repro.core.causes` — cause attribution heuristics (exchange
  points, private ASNs, fault spikes, the duration heuristic of VI-F);
- :mod:`repro.core.realtime` — a streaming MOAS alerter (extension; the
  direction the paper's Section VII points at);
- :mod:`repro.core.verdict` — the unified tagging engine: every
  analyzer's signal folded into one per-episode :class:`Verdict`
  (tags, predicted incident kind, benign..suspicious score).
"""

from repro.core.classifier import ConflictClass, classify_conflict, classify_pair
from repro.core.detector import (
    DailyConflict,
    detect_day_columns,
    detect_snapshot,
)
from repro.core.episodes import ConflictEpisode, EpisodeTracker
from repro.core.realtime import (
    AlertKind,
    DaySnapshotAlerter,
    MoasAlert,
    StreamingMoasDetector,
)
from repro.core.stats import (
    duration_expectations,
    duration_histogram,
    prefix_length_distribution,
    yearly_medians,
)
from repro.core.verdict import Verdict, VerdictEngine

__all__ = [
    "ConflictClass",
    "classify_conflict",
    "classify_pair",
    "DailyConflict",
    "detect_day_columns",
    "detect_snapshot",
    "ConflictEpisode",
    "EpisodeTracker",
    "duration_expectations",
    "duration_histogram",
    "prefix_length_distribution",
    "yearly_medians",
    "AlertKind",
    "DaySnapshotAlerter",
    "MoasAlert",
    "StreamingMoasDetector",
    "Verdict",
    "VerdictEngine",
]
