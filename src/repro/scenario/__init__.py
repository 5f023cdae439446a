"""The measurement world: cause processes, collector, daily archive.

This subpackage is the synthetic stand-in for the paper's raw material —
the real 1997-2001 Internet observed through Oregon Route Views and
archived daily by NLANR/PCH.  It combines the topology substrate with
stochastic *cause processes* for every MOAS source the paper discusses
(Section VI), re-enacts the paper's scripted fault incidents on their
historical dates, routes everything through Gao-Rexford policies to the
collector's peers, and writes daily snapshots to an archive that the
analysis pipeline consumes without any knowledge of how it was made.
"""

from repro.scenario.archive import (
    ArchiveError,
    ArchiveReader,
    ArchiveWriter,
    DayColumns,
    DayRecord,
    PeerRow,
    convert_archive,
)
from repro.scenario.calibration import Calibration, PAPER
from repro.scenario.collector import CollectorConfig
from repro.scenario.events import Cause, ConflictEvent
from repro.scenario.incidents import (
    IncidentInjector,
    IncidentKind,
    IncidentLabel,
    IncidentScript,
    IncidentSpec,
)
from repro.scenario.routing import CollectorRouting, PeerView
from repro.scenario.timeline import StudyTimeline
from repro.scenario.world import ScenarioConfig, ScenarioWorld, simulate_study

__all__ = [
    "ArchiveError",
    "ArchiveReader",
    "ArchiveWriter",
    "DayColumns",
    "DayRecord",
    "PeerRow",
    "convert_archive",
    "Calibration",
    "PAPER",
    "CollectorConfig",
    "Cause",
    "ConflictEvent",
    "IncidentInjector",
    "IncidentKind",
    "IncidentLabel",
    "IncidentScript",
    "IncidentSpec",
    "CollectorRouting",
    "PeerView",
    "StudyTimeline",
    "ScenarioConfig",
    "ScenarioWorld",
    "simulate_study",
]
