"""Tests for MOAS detection over snapshots and CDS day records."""

import datetime
from itertools import groupby
from operator import itemgetter

import pytest

from repro.core.detector import detect_day_columns, detect_snapshot
from repro.netbase.aspath import ASPath
from repro.netbase.prefix import Prefix
from repro.netbase.rib import PeerId, RibSnapshot, Route
from repro.scenario.archive import (
    ArchiveReader,
    ArchiveWriter,
    DayRecord,
    FLAG_AS_SET_TAIL,
    PeerRow,
)
from tests.core.object_scan import detect_day

DAY = datetime.date(2001, 4, 6)
PEER_A = PeerId(asn=701)
PEER_B = PeerId(asn=1239)


def route(prefix: str, path: str, peer: PeerId) -> Route:
    return Route(Prefix.parse(prefix), ASPath.parse(path), peer)


class TestDetectSnapshot:
    def test_single_origin_not_flagged(self):
        snapshot = RibSnapshot.from_routes(
            DAY,
            [
                route("10.0.0.0/8", "701 42", PEER_A),
                route("10.0.0.0/8", "1239 7018 42", PEER_B),
            ],
        )
        detection = detect_snapshot(snapshot)
        assert detection.num_conflicts == 0
        assert detection.prefixes_scanned == 1

    def test_moas_flagged_with_paths(self):
        snapshot = RibSnapshot.from_routes(
            DAY,
            [
                route("10.0.0.0/8", "701 42", PEER_A),
                route("10.0.0.0/8", "1239 43", PEER_B),
            ],
        )
        detection = detect_snapshot(snapshot)
        assert detection.num_conflicts == 1
        conflict = detection.conflicts[0]
        assert conflict.origins == {42, 43}
        assert conflict.paths_of(42) == ((701, 42),)
        assert conflict.paths_of(43) == ((1239, 43),)

    def test_as_set_routes_excluded(self):
        # A prefix whose only routes end in AS sets is excluded and
        # counted, exactly as the paper's ~12 prefixes were.
        snapshot = RibSnapshot.from_routes(
            DAY,
            [
                route("10.0.0.0/8", "701 {42,43}", PEER_A),
                route("192.0.2.0/24", "701 7", PEER_A),
            ],
        )
        detection = detect_snapshot(snapshot)
        assert detection.num_conflicts == 0
        assert detection.as_set_excluded == 1

    def test_mixed_as_set_route_excludes_prefix(self):
        # The paper's rule: a prefix is excluded when *any* of its
        # routes' paths ends in an AS set, even if other routes carry
        # ordinary single-AS origins.
        snapshot = RibSnapshot.from_routes(
            DAY,
            [
                route("10.0.0.0/8", "701 42", PEER_A),
                route("10.0.0.0/8", "1239 {43,44}", PEER_B),
            ],
        )
        detection = detect_snapshot(snapshot)
        assert detection.num_conflicts == 0
        assert detection.as_set_excluded == 1

    def test_mixed_as_set_route_suppresses_real_moas(self):
        # Regression for the all-routes-vs-any-route divergence: two
        # distinct single-AS origins would be a conflict, but a third
        # AS_SET-terminated route excludes the whole prefix.
        snapshot = RibSnapshot.from_routes(
            DAY,
            [
                route("10.0.0.0/8", "701 42", PEER_A),
                route("10.0.0.0/8", "1239 43", PEER_B),
                route("10.0.0.0/8", "3333 {44,45}", PEER_A),
            ],
        )
        detection = detect_snapshot(snapshot)
        assert detection.num_conflicts == 0
        assert detection.as_set_excluded == 1

    def test_three_origins(self):
        snapshot = RibSnapshot.from_routes(
            DAY,
            [
                route("10.0.0.0/8", "701 42", PEER_A),
                route("10.0.0.0/8", "1239 43", PEER_B),
                route("10.0.0.0/8", "701 3561 44", PEER_A),
            ],
        )
        detection = detect_snapshot(snapshot)
        assert detection.conflicts[0].origins == {42, 43, 44}

    def test_conflicts_sorted_by_prefix(self):
        snapshot = RibSnapshot.from_routes(
            DAY,
            [
                route("192.0.2.0/24", "701 42", PEER_A),
                route("192.0.2.0/24", "1239 43", PEER_B),
                route("10.0.0.0/8", "701 42", PEER_A),
                route("10.0.0.0/8", "1239 43", PEER_B),
            ],
        )
        detection = detect_snapshot(snapshot)
        networks = [conflict.prefix for conflict in detection.conflicts]
        assert networks == sorted(networks, key=lambda p: p.sort_key())


class TestDetectDay:
    def _archive(self, tmp_path, rows, flags=0):
        writer = ArchiveWriter(tmp_path / "archive")
        writer.register_prefix(Prefix.parse("10.0.0.0/8"), 42, 0, flags=flags)
        writer.register_prefix(Prefix.parse("192.0.2.0/24"), 99, 0)
        path_a = writer.intern_path((701, 42))
        path_b = writer.intern_path((1239, 43))
        record = DayRecord(
            day=DAY,
            day_index=0,
            alive_count=2,
            active_peers=(701, 1239),
            rows=tuple(
                PeerRow(0, peer, origin, path_a if origin == 42 else path_b)
                for peer, origin in rows
            ),
        )
        writer.write_day(record)
        writer.finalize({"calendar_start": DAY.isoformat()})
        return ArchiveReader(tmp_path / "archive"), record

    def test_divergent_rows_detected(self, tmp_path):
        reader, record = self._archive(
            tmp_path, [(701, 42), (1239, 43)]
        )
        detection = detect_day(record, reader)
        assert detection.num_conflicts == 1
        assert detection.conflicts[0].origins == {42, 43}
        assert detection.prefixes_scanned == 2

    def test_agreeing_rows_not_a_conflict(self, tmp_path):
        reader, record = self._archive(
            tmp_path, [(701, 42), (1239, 42)]
        )
        detection = detect_day(record, reader)
        assert detection.num_conflicts == 0

    def test_as_set_flagged_prefix_excluded(self, tmp_path):
        reader, record = self._archive(
            tmp_path, [(701, 42), (1239, 43)], flags=FLAG_AS_SET_TAIL
        )
        detection = detect_day(record, reader)
        assert detection.num_conflicts == 0
        assert detection.as_set_excluded == 1

    def test_paths_resolved_from_table(self, tmp_path):
        reader, record = self._archive(
            tmp_path, [(701, 42), (1239, 43)]
        )
        detection = detect_day(record, reader)
        conflict = detection.conflicts[0]
        assert conflict.paths_of(42) == ((701, 42),)
        assert conflict.paths_of(43) == ((1239, 43),)


@pytest.mark.parametrize("format", ["v1", "v2"])
class TestDetectDayColumns:
    """The production scan on hand-written days of both formats.

    Each day is also held to the object-row reference; the ``split``
    cases repeat a prefix id across non-adjacent runs, so the scan must
    regroup the day to see the prefix's whole origin set.
    """

    def _day(self, tmp_path, format, rows, *, alive=2, flags=0):
        """``rows`` are ``(prefix id, peer, origin)``; prefix 0 is
        10.0.0.0/8 (owner 42, ``flags``), 1 is 192.0.2.0/24 (owner 99).
        Each row's path is ``(peer, origin)``."""
        writer = ArchiveWriter(tmp_path / "archive", format=format)
        writer.register_prefix(Prefix.parse("10.0.0.0/8"), 42, 0, flags=flags)
        writer.register_prefix(Prefix.parse("192.0.2.0/24"), 99, 0)
        record = DayRecord(
            day=DAY,
            day_index=0,
            alive_count=alive,
            active_peers=(701, 1239),
            rows=tuple(
                PeerRow(pid, peer, origin, writer.intern_path((peer, origin)))
                for pid, peer, origin in rows
            ),
        )
        writer.write_day(record)
        writer.finalize({"calendar_start": DAY.isoformat()})
        reader = ArchiveReader(tmp_path / "archive")
        (columns,) = reader.iter_day_columns()
        # The day keeps the written row order: one run per stretch.
        assert columns.num_runs == len(list(groupby(rows, itemgetter(0))))
        detection = detect_day_columns(columns, reader)
        assert detection == detect_day(record, reader)
        return detection

    def test_divergent_rows_detected(self, tmp_path, format):
        detection = self._day(
            tmp_path, format, [(0, 701, 42), (0, 1239, 43)]
        )
        assert detection.num_conflicts == 1
        assert detection.conflicts[0].origins == {42, 43}
        assert detection.prefixes_scanned == 2

    def test_agreeing_rows_not_a_conflict(self, tmp_path, format):
        detection = self._day(
            tmp_path, format, [(0, 701, 42), (0, 1239, 42)]
        )
        assert detection.num_conflicts == 0

    def test_as_set_flagged_prefix_excluded(self, tmp_path, format):
        detection = self._day(
            tmp_path,
            format,
            [(0, 701, 42), (0, 1239, 43)],
            flags=FLAG_AS_SET_TAIL,
        )
        assert detection.num_conflicts == 0
        assert detection.as_set_excluded == 1

    def test_paths_resolved_from_table(self, tmp_path, format):
        detection = self._day(
            tmp_path, format, [(0, 701, 42), (0, 1239, 43)]
        )
        conflict = detection.conflicts[0]
        assert conflict.paths_of(42) == ((701, 42),)
        assert conflict.paths_of(43) == ((1239, 43),)

    def test_split_single_origin_runs_conflict_jointly(
        self, tmp_path, format
    ):
        # Each run of prefix 0 carries one origin; together they are two.
        detection = self._day(
            tmp_path, format, [(0, 701, 42), (1, 701, 99), (0, 1239, 43)]
        )
        assert [str(c.prefix) for c in detection.conflicts] == ["10.0.0.0/8"]
        conflict = detection.conflicts[0]
        assert conflict.origins == {42, 43}
        assert conflict.paths_of(42) == ((701, 42),)
        assert conflict.paths_of(43) == ((1239, 43),)

    def test_split_day_reports_every_conflict_in_prefix_order(
        self, tmp_path, format
    ):
        detection = self._day(
            tmp_path,
            format,
            [(1, 701, 99), (0, 701, 42), (1, 1239, 98), (0, 1239, 43)],
        )
        assert [str(c.prefix) for c in detection.conflicts] == [
            "10.0.0.0/8",
            "192.0.2.0/24",
        ]
        assert [c.origins for c in detection.conflicts] == [
            {42, 43},
            {98, 99},
        ]

    def test_split_runs_of_an_as_set_prefix_stay_excluded(
        self, tmp_path, format
    ):
        detection = self._day(
            tmp_path,
            format,
            [(0, 701, 42), (1, 701, 99), (0, 1239, 43)],
            flags=FLAG_AS_SET_TAIL,
        )
        assert detection.num_conflicts == 0
        assert detection.as_set_excluded == 1

    def test_split_runs_of_a_prefix_not_alive_are_ignored(
        self, tmp_path, format
    ):
        detection = self._day(
            tmp_path,
            format,
            [(1, 701, 99), (0, 701, 42), (1, 1239, 98)],
            alive=1,
        )
        assert detection.num_conflicts == 0
        assert detection.prefixes_scanned == 1


class TestEquivalence:
    def test_snapshot_and_day_record_agree(self, tmp_path):
        """The CDS fast path and the full-table path see the same MOAS."""
        # Build the same day both ways.
        snapshot = RibSnapshot.from_routes(
            DAY,
            [
                route("10.0.0.0/8", "701 42", PEER_A),
                route("10.0.0.0/8", "1239 43", PEER_B),
                route("192.0.2.0/24", "701 99", PEER_A),
                route("192.0.2.0/24", "1239 701 99", PEER_B),
            ],
        )
        from_snapshot = detect_snapshot(snapshot)

        writer = ArchiveWriter(tmp_path / "archive")
        writer.register_prefix(Prefix.parse("10.0.0.0/8"), 42, 0)
        writer.register_prefix(Prefix.parse("192.0.2.0/24"), 99, 0)
        rows = (
            PeerRow(0, 701, 42, writer.intern_path((701, 42))),
            PeerRow(0, 1239, 43, writer.intern_path((1239, 43))),
        )
        record = DayRecord(
            day=DAY,
            day_index=0,
            alive_count=2,
            active_peers=(701, 1239),
            rows=rows,
        )
        writer.write_day(record)
        writer.finalize({"calendar_start": DAY.isoformat()})
        reader = ArchiveReader(tmp_path / "archive")
        from_record = detect_day(record, reader)

        assert from_snapshot.num_conflicts == from_record.num_conflicts
        assert (
            from_snapshot.conflicts[0].origins
            == from_record.conflicts[0].origins
        )


def write_scan_day(directory, format="v1"):
    """One day of six two-origin /16s, one AS_SET /24 and a registered
    prefix that is not alive that day; returns (record, reader)."""
    writer = ArchiveWriter(directory, format=format)
    for index in range(6):
        writer.register_prefix(
            Prefix.parse(f"10.{index}.0.0/16"), 100 + index, 0
        )
    writer.register_prefix(
        Prefix.parse("192.0.2.0/24"), 42, 0, flags=FLAG_AS_SET_TAIL
    )
    writer.register_prefix(Prefix.parse("198.51.100.0/24"), 7, 0)
    rows = []
    for index in range(6):
        path_a = writer.intern_path((701, 100 + index))
        path_b = writer.intern_path((1239, 300 + index))
        rows.append(PeerRow(index, 701, 100 + index, path_a))
        rows.append(PeerRow(index, 1239, 300 + index, path_b))
    record = DayRecord(
        day=DAY,
        day_index=0,
        alive_count=7,
        active_peers=(701, 1239),
        rows=tuple(rows),
    )
    writer.write_day(record)
    writer.finalize({"calendar_start": DAY.isoformat()})
    return record, ArchiveReader(directory)


class TestScanCounts:
    """A scan counts every prefix alive that day, excluded ones too."""

    def test_day_record_counts_every_alive_prefix(self, tmp_path):
        record, reader = write_scan_day(tmp_path / "archive")
        detection = detect_day(record, reader)
        # The eighth prefix is registered but not alive on this day.
        assert detection.prefixes_scanned == 7
        assert detection.as_set_excluded == 1
        assert detection.num_conflicts == 6

    @pytest.mark.parametrize("format", ["v1", "v2"])
    def test_day_columns_count_every_alive_prefix(self, tmp_path, format):
        record, reader = write_scan_day(tmp_path / "archive", format)
        (columns,) = reader.iter_day_columns()
        detection = detect_day_columns(columns, reader)
        assert detection.prefixes_scanned == columns.alive_count == 7
        assert detection.as_set_excluded == 1
        assert detection == detect_day(record, reader)

    def test_as_set_profile_counts_flagged_ids_below_each_id(
        self, tmp_path
    ):
        _, reader = write_scan_day(tmp_path / "archive")
        assert reader.as_set_profile() == [0, 0, 0, 0, 0, 0, 0, 1, 1]
        assert reader.as_set_profile() is reader.as_set_profile()

    def test_snapshot_counts_every_prefix(self):
        routes = []
        for third_octet in range(8):
            prefix = f"10.0.{third_octet}.0/24"
            routes.append(route(prefix, f"701 {100 + third_octet}", PEER_A))
            routes.append(route(prefix, f"1239 {200 + third_octet}", PEER_B))
        routes.append(route("192.0.2.0/24", "701 {42,43}", PEER_A))
        routes.append(route("198.51.100.0/24", "701 7", PEER_A))
        detection = detect_snapshot(RibSnapshot.from_routes(DAY, routes))
        assert detection.prefixes_scanned == 10
        assert detection.as_set_excluded == 1
        assert [str(conflict.prefix) for conflict in detection.conflicts] == [
            f"10.0.{third_octet}.0/24" for third_octet in range(8)
        ]
