"""Streaming MOAS detection — the extension the paper's summary calls for.

Section VII: "we are investigating techniques for identifying invalid
conflicts with a high degree of certainty."  That line of work became
systems like ARTEMIS and BGPalerter; this module implements the core of
such a system against our own substrate: a stateful detector consuming
a stream of BGP updates (e.g. BGP4MP records from
:mod:`repro.mrt.reader`) and emitting alerts the moment a prefix gains
or loses a second origin, enriched with the duration-based validity
hint from Section VI-F.
"""

from __future__ import annotations

import calendar
import datetime
import enum
from collections.abc import Iterator
from dataclasses import dataclass

from repro.mrt.records import Bgp4mpMessage, Bgp4mpStateChange
from repro.netbase.aspath import ASPath
from repro.netbase.prefix import Prefix


def day_timestamp(day: datetime.date) -> int:
    """Seconds since the Unix epoch at UTC midnight of ``day``.

    The timestamp stamped onto alerts derived from daily snapshots
    (:class:`DaySnapshotAlerter`), where the finest time resolution the
    data offers is the observation day itself.
    """
    return calendar.timegm(day.timetuple())


class AlertKind(enum.Enum):
    """What changed about a prefix's origin set."""

    MOAS_STARTED = "moas_started"
    MOAS_ORIGIN_ADDED = "moas_origin_added"
    MOAS_ORIGIN_REMOVED = "moas_origin_removed"
    MOAS_ENDED = "moas_ended"


@dataclass(frozen=True, slots=True)
class MoasAlert:
    """One origin-set transition observed on the update stream."""

    timestamp: int
    prefix: Prefix
    kind: AlertKind
    origins: frozenset[int]
    previous_origins: frozenset[int]
    #: ASN whose appearance/disappearance triggered the alert.
    changed_origin: int

    def to_dict(self) -> dict:
        """JSON-serializable form — the wire contract of the serve
        daemon's ``/v1/alerts`` SSE stream (see :mod:`repro.api.serve`).

        Origin sets are rendered as sorted lists so equal alerts
        serialize to equal documents; :meth:`from_dict` restores the
        exact alert.
        """
        return {
            "timestamp": self.timestamp,
            "day": datetime.datetime.fromtimestamp(
                self.timestamp, tz=datetime.timezone.utc
            )
            .date()
            .isoformat(),
            "prefix": str(self.prefix),
            "kind": self.kind.value,
            "origins": sorted(self.origins),
            "previous_origins": sorted(self.previous_origins),
            "changed_origin": self.changed_origin,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MoasAlert":
        """Rebuild an alert from :meth:`to_dict` output.

        Raises :class:`ValueError` (never a bare ``KeyError``) on
        payloads that do not carry the alert contract.
        """
        try:
            return cls(
                timestamp=int(payload["timestamp"]),
                prefix=Prefix.parse(payload["prefix"]),
                kind=AlertKind(payload["kind"]),
                origins=frozenset(
                    int(asn) for asn in payload["origins"]
                ),
                previous_origins=frozenset(
                    int(asn) for asn in payload["previous_origins"]
                ),
                changed_origin=int(payload["changed_origin"]),
            )
        except KeyError as missing:
            raise ValueError(
                f"alert payload is missing field {missing}"
            ) from None


class StreamingMoasDetector:
    """Stateful per-(peer, prefix) origin tracking with MOAS alerts.

    Mirror of the offline detector's semantics: a prefix is in MOAS
    when the *current* announcements across peers carry more than one
    distinct single-AS origin; AS_SET-terminated announcements are
    ignored.  Withdrawals shrink the origin set and can end a conflict.
    """

    __slots__ = ("_announced", "_origin_counts", "_expected")

    def __init__(self, *, expected_origins: dict[Prefix, int] | None = None):
        #: Last announced origin per (peer ASN, prefix).
        self._announced: dict[tuple[int, Prefix], int] = {}
        #: prefix -> origin -> number of peers currently announcing it.
        self._origin_counts: dict[Prefix, dict[int, int]] = {}
        #: Optional registry of legitimate origins (a simple "IRR").
        self._expected = dict(expected_origins or {})

    # -- queries -----------------------------------------------------------

    def origins_of(self, prefix: Prefix) -> frozenset[int]:
        """Origins currently announced for ``prefix`` across peers."""
        return frozenset(self._origin_counts.get(prefix, ()))

    def in_moas(self, prefix: Prefix) -> bool:
        """True while ``prefix`` has two or more distinct origins."""
        return len(self._origin_counts.get(prefix, ())) >= 2

    def current_conflicts(self) -> list[Prefix]:
        """All prefixes currently in MOAS, sorted."""
        return sorted(
            (
                prefix
                for prefix, origins in self._origin_counts.items()
                if len(origins) >= 2
            ),
            key=lambda prefix: prefix.sort_key(),
        )

    def is_expected_origin(self, prefix: Prefix, origin: int) -> bool:
        """True when a registry says ``origin`` legitimately owns ``prefix``."""
        expected = self._expected.get(prefix)
        return expected is None or expected == origin

    # -- update processing ----------------------------------------------------

    def process_update(
        self, message: Bgp4mpMessage, timestamp: int = 0
    ) -> list[MoasAlert]:
        """Apply one BGP4MP update; returns alerts it triggered."""
        alerts: list[MoasAlert] = []
        peer = message.peer_asn
        for prefix in message.withdrawn:
            alerts.extend(self._withdraw(peer, prefix, timestamp))
        if message.attributes is not None:
            path = message.attributes.as_path
            for prefix in message.announced:
                alerts.extend(
                    self._announce(peer, prefix, path, timestamp)
                )
        return alerts

    def process_state_change(
        self, change: Bgp4mpStateChange, timestamp: int = 0
    ) -> list[MoasAlert]:
        """Apply a BGP4MP session state transition.

        A session leaving ESTABLISHED invalidates every route learned
        from that peer — an implicit withdraw of the peer's whole
        table, which can end conflicts the peer was sustaining.
        """
        if not change.session_lost():
            return []
        peer = change.peer_asn
        lost = [
            prefix
            for (announced_peer, prefix) in self._announced
            if announced_peer == peer
        ]
        alerts: list[MoasAlert] = []
        for prefix in lost:
            alerts.extend(self._withdraw(peer, prefix, timestamp))
        return alerts

    def process_stream(
        self,
        messages: Iterator[tuple[int, Bgp4mpMessage | Bgp4mpStateChange]],
    ) -> Iterator[MoasAlert]:
        """Lazily process a (timestamp, update-or-state-change) stream."""
        for timestamp, message in messages:
            if isinstance(message, Bgp4mpStateChange):
                yield from self.process_state_change(message, timestamp)
            else:
                yield from self.process_update(message, timestamp)

    # -- direct route feeding ----------------------------------------------

    def announce_route(
        self, peer: int, prefix: Prefix, path: ASPath, timestamp: int = 0
    ) -> list[MoasAlert]:
        """Apply one announcement without wrapping it in a BGP4MP record.

        The single-route equivalent of :meth:`process_update`, for
        callers that already hold decoded routing state (the serve
        daemon's day-snapshot bridge, tests, notebooks).  Semantics are
        identical: AS_SET-terminated paths count as withdrawals, an
        origin change swaps atomically.
        """
        return self._announce(peer, prefix, path, timestamp)

    def withdraw_route(
        self, peer: int, prefix: Prefix, timestamp: int = 0
    ) -> list[MoasAlert]:
        """Apply one withdrawal without wrapping it in a BGP4MP record."""
        return self._withdraw(peer, prefix, timestamp)

    # -- internals ---------------------------------------------------------------

    def _announce(
        self, peer: int, prefix: Prefix, path: ASPath, timestamp: int
    ) -> list[MoasAlert]:
        origin = path.origin()
        if not isinstance(origin, int):
            # AS_SET tails are excluded, matching the offline detector;
            # treat as a withdrawal of this peer's previous route.
            return self._withdraw(peer, prefix, timestamp)
        key = (peer, prefix)
        old_origin = self._announced.get(key)
        if old_origin == origin:
            return []  # refresh with no origin change
        before = self.origins_of(prefix)
        # Swap the peer's route atomically so an origin change emits
        # one coherent transition instead of ENDED + STARTED churn.
        if old_origin is not None:
            self._decrement(prefix, old_origin)
        self._announced[key] = origin
        counts = self._origin_counts.setdefault(prefix, {})
        counts[origin] = counts.get(origin, 0) + 1
        return _transition(
            prefix, before, self.origins_of(prefix), timestamp, origin
        )

    def _withdraw(
        self, peer: int, prefix: Prefix, timestamp: int
    ) -> list[MoasAlert]:
        origin = self._announced.pop((peer, prefix), None)
        if origin is None:
            return []
        before = self.origins_of(prefix)
        self._decrement(prefix, origin)
        return _transition(
            prefix, before, self.origins_of(prefix), timestamp, origin
        )

    def _decrement(self, prefix: Prefix, origin: int) -> None:
        counts = self._origin_counts[prefix]
        counts[origin] -= 1
        if counts[origin] == 0:
            del counts[origin]
        if not counts:
            del self._origin_counts[prefix]


class DaySnapshotAlerter:
    """Day-granularity :class:`MoasAlert` stream from daily detections.

    The serve daemon folds one daily origin-set snapshot at a time, not
    an update stream.  This alerter replays each day as updates, with
    :class:`StreamingMoasDetector`'s semantics: each conflict origin is
    a peer announcing the prefix itself, new origins announce and gone
    ones withdraw (each in sorted order), and a prefix that leaves the
    day's conflict set withdraws every origin.  It replays the day's
    transitions of the study state's conflict origin map, which
    :meth:`~repro.analysis.pipeline.StudyState.feed_day` returns:
    changed prefixes in detection order, departed ones in map order.
    A checkpoint carries the map and its order, so a resumed session
    alerts exactly like an uninterrupted one.  Timestamps are UTC
    midnight of the day (:func:`day_timestamp`).
    """

    __slots__ = ("_alerts_emitted",)

    def __init__(self) -> None:
        self._alerts_emitted = 0

    @property
    def alerts_emitted(self) -> int:
        """Total alerts derived so far."""
        return self._alerts_emitted

    def feed_day(
        self,
        day: datetime.date,
        transitions: list[tuple[Prefix, frozenset[int], frozenset[int]]],
    ) -> list[MoasAlert]:
        """The alerts of one day's ``(prefix, old origins, new
        origins)`` transitions, an empty set standing for absence."""
        timestamp = day_timestamp(day)
        alerts: list[MoasAlert] = []
        for prefix, old, new in transitions:
            _replay(alerts, prefix, old, new, timestamp)
        self._alerts_emitted += len(alerts)
        return alerts


def _replay(
    alerts: list[MoasAlert],
    prefix: Prefix,
    old: frozenset[int],
    new: frozenset[int],
    timestamp: int,
) -> None:
    """Append the alerts of moving ``prefix`` from ``old`` to ``new``
    one origin at a time: arrivals first, then departures, each in
    sorted order."""
    before = old
    for origin in (*sorted(new - old), *sorted(old - new)):
        after = before ^ {origin}
        alerts.extend(_transition(prefix, before, after, timestamp, origin))
        before = after


def _transition(
    prefix: Prefix,
    before: frozenset[int],
    after: frozenset[int],
    timestamp: int,
    changed: int,
) -> list[MoasAlert]:
    """The alert, if any, of ``prefix``'s origin set moving from
    ``before`` to ``after`` because ``changed`` appeared or left."""
    if after == before:
        return []
    kind: AlertKind | None = None
    if len(before) < 2 and len(after) >= 2:
        kind = AlertKind.MOAS_STARTED
    elif len(before) >= 2 and len(after) >= 2:
        # Still in MOAS but the set changed: the stream stays
        # loss-free by reporting the origin that moved.  A single
        # update shifts at most one origin in and one out; a swap
        # reports the arrival (the departure stays visible in
        # previous_origins).
        arrived = after - before
        departed = before - after
        if arrived:
            kind = AlertKind.MOAS_ORIGIN_ADDED
            changed = next(iter(arrived))
        elif departed:
            kind = AlertKind.MOAS_ORIGIN_REMOVED
            changed = next(iter(departed))
    elif len(before) >= 2 and len(after) < 2:
        kind = AlertKind.MOAS_ENDED
    if kind is None:
        return []
    return [
        MoasAlert(
            timestamp=timestamp,
            prefix=prefix,
            kind=kind,
            origins=after,
            previous_origins=before,
            changed_origin=changed,
        )
    ]
