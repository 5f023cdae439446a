"""Alert JSON round-trips and the day-snapshot alerter.

The serve daemon's SSE stream speaks ``MoasAlert.to_dict()``; these
tests pin that wire contract (every :class:`AlertKind`, exact
round-trip) and the :class:`DaySnapshotAlerter` that derives streaming
alerts from daily detections and the study state's conflict origin
map (fed as serve feeds it, through ``SnapshotFeed``).
"""

import datetime

import pytest

from repro.core.detector import DailyConflict, DayDetection
from repro.core.realtime import AlertKind, MoasAlert, day_timestamp
from repro.netbase.prefix import Prefix
from tests.core.snapshot_bridge import SnapshotFeed

PREFIX = Prefix.parse("10.0.0.0/8")


def make_alert(kind: AlertKind) -> MoasAlert:
    return MoasAlert(
        timestamp=879984000,  # 1997-11-20 00:00:00 UTC
        prefix=PREFIX,
        kind=kind,
        origins=frozenset({42, 43}),
        previous_origins=frozenset({42}),
        changed_origin=43,
    )


class TestAlertRoundTrip:
    @pytest.mark.parametrize("kind", list(AlertKind))
    def test_every_kind_round_trips(self, kind):
        alert = make_alert(kind)
        restored = MoasAlert.from_dict(alert.to_dict())
        assert restored == alert

    def test_dict_shape_is_json_plain(self):
        payload = make_alert(AlertKind.MOAS_ORIGIN_REMOVED).to_dict()
        assert payload == {
            "timestamp": 879984000,
            "day": "1997-11-20",
            "prefix": "10.0.0.0/8",
            "kind": "moas_origin_removed",
            "origins": [42, 43],
            "previous_origins": [42],
            "changed_origin": 43,
        }
        import json

        assert json.loads(json.dumps(payload)) == payload

    def test_origin_lists_are_sorted(self):
        alert = MoasAlert(
            timestamp=0,
            prefix=PREFIX,
            kind=AlertKind.MOAS_STARTED,
            origins=frozenset({9, 1, 5}),
            previous_origins=frozenset({5, 1}),
            changed_origin=9,
        )
        payload = alert.to_dict()
        assert payload["origins"] == [1, 5, 9]
        assert payload["previous_origins"] == [1, 5]

    def test_from_dict_missing_field_raises_value_error(self):
        payload = make_alert(AlertKind.MOAS_ENDED).to_dict()
        del payload["origins"]
        with pytest.raises(ValueError):
            MoasAlert.from_dict(payload)

    def test_from_dict_bad_kind_raises_value_error(self):
        payload = make_alert(AlertKind.MOAS_ENDED).to_dict()
        payload["kind"] = "moas_imploded"
        with pytest.raises(ValueError):
            MoasAlert.from_dict(payload)

    def test_day_timestamp_is_utc_midnight(self):
        assert day_timestamp(datetime.date(1997, 11, 20)) == 879984000
        assert day_timestamp(datetime.date(1970, 1, 1)) == 0


def detection(day: datetime.date, conflicts: dict) -> DayDetection:
    """A synthetic DayDetection from prefix -> origin-set pairs."""
    return DayDetection(
        day=day,
        conflicts=tuple(
            DailyConflict(prefix=prefix, origins=frozenset(origins))
            for prefix, origins in conflicts.items()
        ),
        prefixes_scanned=100,
        as_set_excluded=0,
    )


class TestDaySnapshotAlerter:
    DAYS = [datetime.date(1998, 1, 1) + datetime.timedelta(days=i)
            for i in range(6)]

    def test_full_lifecycle_covers_every_kind(self):
        alerter = SnapshotFeed()
        feed = [
            {PREFIX: {1, 2}},       # started
            {PREFIX: {1, 2, 3}},    # origin added
            {PREFIX: {1, 3}},       # origin removed
            {},                     # ended
            {PREFIX: {5, 6}},       # started again
        ]
        kinds = []
        for day, conflicts in zip(self.DAYS, feed):
            for alert in alerter.feed_day(detection(day, conflicts)):
                kinds.append(alert.kind)
        assert kinds == [
            AlertKind.MOAS_STARTED,
            AlertKind.MOAS_ORIGIN_ADDED,
            AlertKind.MOAS_ORIGIN_REMOVED,
            AlertKind.MOAS_ENDED,
            AlertKind.MOAS_STARTED,
        ]
        assert alerter.alerter.alerts_emitted == 5
        assert alerter.current_conflicts() == [PREFIX]

    def test_alert_timestamps_are_day_midnights(self):
        alerter = SnapshotFeed()
        day = self.DAYS[0]
        alerts = alerter.feed_day(detection(day, {PREFIX: {1, 2}}))
        assert [a.timestamp for a in alerts] == [day_timestamp(day)]
        assert alerts[0].to_dict()["day"] == day.isoformat()

    def test_unchanged_day_is_silent(self):
        alerter = SnapshotFeed()
        alerter.feed_day(detection(self.DAYS[0], {PREFIX: {1, 2}}))
        assert alerter.feed_day(
            detection(self.DAYS[1], {PREFIX: {1, 2}})
        ) == []

    def test_ended_emitted_once_per_episode(self):
        alerter = SnapshotFeed()
        alerter.feed_day(detection(self.DAYS[0], {PREFIX: {1, 2, 3}}))
        ended = alerter.feed_day(detection(self.DAYS[1], {}))
        kinds = [a.kind for a in ended]
        assert kinds.count(AlertKind.MOAS_ENDED) == 1
        # Nothing left to withdraw: the next empty day is silent.
        assert alerter.feed_day(detection(self.DAYS[2], {})) == []

    def test_multiple_prefixes_alert_independently(self):
        other = Prefix.parse("192.0.2.0/24")
        alerter = SnapshotFeed()
        first = alerter.feed_day(
            detection(self.DAYS[0], {PREFIX: {1, 2}, other: {7, 8}})
        )
        assert sorted(str(a.prefix) for a in first) == [
            "10.0.0.0/8",
            "192.0.2.0/24",
        ]
        assert {a.kind for a in first} == {AlertKind.MOAS_STARTED}
        second = alerter.feed_day(
            detection(self.DAYS[1], {PREFIX: {1, 2}})
        )
        assert [a.kind for a in second] == [AlertKind.MOAS_ENDED]
        assert second[0].prefix == other

    def test_deterministic_across_runs(self):
        feed = [
            {PREFIX: {3, 1}},
            {PREFIX: {3, 1, 2}},
            {},
        ]

        def run():
            alerter = SnapshotFeed()
            out = []
            for day, conflicts in zip(self.DAYS, feed):
                out.extend(
                    a.to_dict()
                    for a in alerter.feed_day(detection(day, conflicts))
                )
            return out

        assert run() == run()
