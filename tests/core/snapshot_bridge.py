"""The day-snapshot alert bridge, kept as a test model of the alerter.

Earlier releases derived serve's alerts by driving a real
:class:`~repro.core.realtime.StreamingMoasDetector` with synthetic
routes: each conflict origin a peer announcing the prefix itself (path
``[origin]``), origins that disappear withdrawing, and a prefix that
leaves the day's conflict set withdrawing every synthetic route.
:class:`SnapshotBridge` is that bridge, with its own origin map.  The
live :class:`~repro.core.realtime.DaySnapshotAlerter` replays the
transitions the study state's fold returns for its map; the property
suite in ``test_snapshot_alerts.py`` holds the two to the same alert
sequence.
"""

from repro.analysis.pipeline import StudyState
from repro.core.detector import DayDetection
from repro.core.realtime import (
    DaySnapshotAlerter,
    MoasAlert,
    StreamingMoasDetector,
    day_timestamp,
)
from repro.netbase.aspath import ASPath
from repro.netbase.prefix import Prefix


class SnapshotBridge:
    """Alerts from daily detections through a streaming detector."""

    def __init__(self) -> None:
        self._detector = StreamingMoasDetector()
        #: prefix -> origin set announced into the detector.
        self._current: dict[Prefix, frozenset[int]] = {}

    def feed_day(self, detection: DayDetection) -> list[MoasAlert]:
        """Fold one day's detection; returns the alerts it triggered."""
        timestamp = day_timestamp(detection.day)
        detector = self._detector
        alerts: list[MoasAlert] = []
        seen: set[Prefix] = set()
        for conflict in detection.conflicts:
            prefix = conflict.prefix
            seen.add(prefix)
            new = frozenset(conflict.origins)
            old = self._current.get(prefix, frozenset())
            if new == old:
                continue
            for origin in sorted(new - old):
                alerts.extend(
                    detector.announce_route(
                        origin,
                        prefix,
                        ASPath.from_sequence((origin,)),
                        timestamp,
                    )
                )
            for origin in sorted(old - new):
                alerts.extend(
                    detector.withdraw_route(origin, prefix, timestamp)
                )
            self._current[prefix] = new
        departed = [
            prefix for prefix in self._current if prefix not in seen
        ]
        for prefix in departed:
            for origin in sorted(self._current.pop(prefix)):
                alerts.extend(
                    detector.withdraw_route(origin, prefix, timestamp)
                )
        return alerts

    def current_conflicts(self) -> list[Prefix]:
        """Prefixes in MOAS as of the last fed day, sorted."""
        return self._detector.current_conflicts()


class SnapshotFeed:
    """A study state and the alerter replaying its map's transitions,
    fed the way ``ServeApp.fold_detection`` feeds them: the fold first,
    then the alerts of the transitions it returns."""

    def __init__(self, state: StudyState | None = None) -> None:
        self.state = state if state is not None else StudyState()
        self.alerter = DaySnapshotAlerter()

    def feed_day(self, detection: DayDetection) -> list[MoasAlert]:
        """Fold one day's detection; returns the alerts it triggered."""
        transitions = self.state.feed_day(detection)
        return self.alerter.feed_day(detection.day, transitions)

    def current_conflicts(self) -> list[Prefix]:
        """Prefixes in MOAS as of the last fed day, sorted."""
        return sorted(
            (
                prefix
                for prefix, origins in self.state.conflict_origins.items()
                if len(origins) >= 2
            ),
            key=lambda prefix: prefix.sort_key(),
        )
