"""Tests for the CDS archive format (day-store v1 and v2)."""

import dataclasses
import datetime
import operator
import pickle
from itertools import groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netbase.prefix import Prefix
from repro.scenario.archive import (
    ArchiveReader,
    ArchiveWriter,
    DayColumns,
    DayRecord,
    FLAG_AS_SET_TAIL,
    MAGIC_V2,
    PeerRow,
    convert_archive,
)


def make_record(day_index: int, alive: int, rows=()) -> DayRecord:
    return DayRecord(
        day=datetime.date(1997, 11, 8) + datetime.timedelta(days=day_index),
        day_index=day_index,
        alive_count=alive,
        active_peers=(701, 1239),
        rows=tuple(rows),
    )


class TestWriterReader:
    def test_roundtrip(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "archive")
        p0 = writer.register_prefix(Prefix.parse("10.0.0.0/8"), 42, 0)
        p1 = writer.register_prefix(Prefix.parse("192.0.2.0/24"), 43, 0)
        path_id = writer.intern_path((701, 42))
        writer.write_day(
            make_record(0, 2, [PeerRow(p0, 701, 42, path_id)])
        )
        writer.write_day(make_record(1, 2))
        writer.finalize({"calendar_start": "1997-11-08"})

        reader = ArchiveReader(tmp_path / "archive")
        assert reader.num_prefixes == 2
        assert reader.prefix(p1) == Prefix.parse("192.0.2.0/24")
        days = list(reader.iter_days())
        assert len(days) == 2
        assert days[0].day == datetime.date(1997, 11, 8)
        assert days[0].rows[0].origin == 42
        assert reader.path(days[0].rows[0].path_id) == (701, 42)
        assert days[1].rows == ()

    def test_path_interning_dedupes(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "archive")
        first = writer.intern_path((1, 2, 3))
        second = writer.intern_path((1, 2, 3))
        third = writer.intern_path((1, 2))
        assert first == second
        assert third != first

    def test_duplicate_prefix_rejected(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "archive")
        writer.register_prefix(Prefix.parse("10.0.0.0/8"), 42, 0)
        with pytest.raises(ValueError, match="already registered"):
            writer.register_prefix(Prefix.parse("10.0.0.0/8"), 43, 1)

    def test_alive_count_validated(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "archive")
        writer.register_prefix(Prefix.parse("10.0.0.0/8"), 42, 0)
        with pytest.raises(ValueError, match="alive_count"):
            writer.write_day(make_record(0, alive=5))

    def test_write_after_finalize_rejected(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "archive")
        writer.finalize({"calendar_start": "1997-11-08"})
        with pytest.raises(RuntimeError, match="finalized"):
            writer.write_day(make_record(0, 0))

    def test_flags_roundtrip(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "archive")
        writer.register_prefix(
            Prefix.parse("10.0.0.0/8"), 42, 0, flags=FLAG_AS_SET_TAIL
        )
        writer.finalize({"calendar_start": "1997-11-08"})
        reader = ArchiveReader(tmp_path / "archive")
        assert reader.registry[0].as_set_tail
        assert not reader.registry[0].exchange_point

    def test_ground_truth_roundtrip(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "archive")
        writer.finalize({"calendar_start": "1997-11-08"})
        writer.write_ground_truth([{"prefix": "10.0.0.0/8", "valid": True}])
        reader = ArchiveReader(tmp_path / "archive")
        truth = reader.ground_truth()
        assert truth[0]["valid"] is True

    def test_manifest_extra_preserved(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "archive")
        writer.finalize({"calendar_start": "1997-11-08", "seed": 99})
        reader = ArchiveReader(tmp_path / "archive")
        assert reader.manifest["seed"] == 99
        assert reader.manifest["format"] == "cds-1"
        assert reader.format == "v1"


def build_archive(directory, format, days=None):
    """A small two-prefix archive with the given day records."""
    writer = ArchiveWriter(directory, format=format)
    p0 = writer.register_prefix(Prefix.parse("10.0.0.0/8"), 42, 0)
    p1 = writer.register_prefix(
        Prefix.parse("192.0.2.0/24"), 43, 0, flags=FLAG_AS_SET_TAIL
    )
    path_a = writer.intern_path((701, 42))
    path_b = writer.intern_path((1239, 3561, 44))
    if days is None:
        days = [
            make_record(
                0,
                2,
                [
                    PeerRow(p0, 701, 42, path_a),
                    PeerRow(p0, 1239, 44, path_b),
                    PeerRow(p1, 701, 43, path_a),
                ],
            ),
            # Same rows again: the repeated-run case v2 interns.
            make_record(
                1,
                2,
                [
                    PeerRow(p0, 701, 42, path_a),
                    PeerRow(p0, 1239, 44, path_b),
                    PeerRow(p1, 701, 43, path_a),
                ],
            ),
            make_record(3, 2),  # empty day, non-contiguous day_index
        ]
    for record in days:
        writer.write_day(record)
    writer.finalize({"calendar_start": "1997-11-08"})
    return days


class TestWriterReaderV2:
    def test_roundtrip_matches_v1(self, tmp_path):
        days_v1 = build_archive(tmp_path / "v1", "v1")
        days_v2 = build_archive(tmp_path / "v2", "v2")
        assert days_v1 == days_v2
        reader = ArchiveReader(tmp_path / "v2")
        assert reader.format == "v2"
        assert reader.manifest["format"] == "cds-2"
        assert list(reader.iter_days()) == days_v2
        assert list(reader.iter_days()) == list(
            ArchiveReader(tmp_path / "v1").iter_days()
        )

    def test_magic_bytes(self, tmp_path):
        build_archive(tmp_path / "v2", "v2")
        assert (tmp_path / "v2" / "days.bin").read_bytes()[:4] == MAGIC_V2

    def test_registry_and_paths_bytes_identical_across_formats(
        self, tmp_path
    ):
        build_archive(tmp_path / "v1", "v1")
        build_archive(tmp_path / "v2", "v2")
        for name in ("registry.bin", "paths.bin"):
            assert (tmp_path / "v1" / name).read_bytes() == (
                tmp_path / "v2" / name
            ).read_bytes()

    def test_range_iteration_is_sliced(self, tmp_path):
        days = build_archive(tmp_path / "v2", "v2")
        reader = ArchiveReader(tmp_path / "v2")
        assert list(reader.iter_days(1, 2)) == days[1:2]
        assert list(reader.iter_days(2)) == days[2:]
        assert list(reader.iter_days(len(days))) == []
        assert list(reader.iter_days(0, 99)) == days
        with pytest.raises(ValueError, match=">= 0"):
            list(reader.iter_days(-1))

    def test_day_index_brackets_every_frame(self, tmp_path):
        days = build_archive(tmp_path / "v2", "v2")
        reader = ArchiveReader(tmp_path / "v2")
        for start, stop in ((1, 3), (0, 1), (2, None), (0, None)):
            batches = reader.iter_day_columns(start, stop)
            assert [columns.to_record() for columns in batches] == (
                days[start:stop]
            )

    def test_empty_archive_roundtrips(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "v2", format="v2")
        writer.finalize({"calendar_start": "1997-11-08"})
        reader = ArchiveReader(tmp_path / "v2")
        assert reader.format == "v2"
        assert list(reader.iter_days()) == []

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            ArchiveWriter(tmp_path / "archive", format="v3")

    def test_overlong_path_rejected(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "archive", format="v2")
        with pytest.raises(ValueError, match="path"):
            writer.intern_path(tuple(range(300)))


class TestRegrouped:
    """``DayColumns.regrouped``: the detector's scan of a day whose rows
    repeat a prefix id across runs."""

    @pytest.mark.parametrize("format", ["v1", "v2"])
    def test_one_run_per_prefix_in_archive_order(self, tmp_path, format):
        writer_rows = [
            (1, 1239, 43, 1),
            (0, 3561, 42, 0),
            (1, 701, 43, 0),
            (0, 701, 42, 0),
            (0, 1239, 44, 1),
        ]
        (record,) = build_archive(
            tmp_path / format,
            format,
            [make_record(0, 2, [PeerRow(*row) for row in writer_rows])],
        )
        (columns,) = ArchiveReader(tmp_path / format).iter_day_columns()
        assert (columns.segments is not None) == (format == "v2")
        assert columns.num_runs == 4  # prefix ids 1, 0, 1, 0

        regrouped = columns.regrouped()

        assert regrouped.segments is None
        assert list(regrouped.run_pids) == [0, 1]
        assert list(regrouped.run_starts) == [0, 3]
        assert list(regrouped.run_single) == [0, 1]
        rows = list(columns_rows(regrouped))
        assert sorted(rows) == sorted(writer_rows)
        for prefix_id in (0, 1):
            assert [row for row in rows if row[0] == prefix_id] == [
                row for row in writer_rows if row[0] == prefix_id
            ]
        header = operator.attrgetter(
            "day", "day_index", "alive_count", "active_peers"
        )
        assert header(regrouped) == header(record)

    @given(
        rows=st.lists(
            st.tuples(
                st.integers(0, 4),  # prefix id
                st.sampled_from([701, 1239, 3561]),  # peer
                st.integers(42, 44),  # origin
                st.integers(0, 1),  # path id
            ),
            max_size=24,
        )
    )
    def test_stable_sort_by_prefix_id(self, tmp_path_factory, rows):
        for format in ("v1", "v2"):
            directory = tmp_path_factory.mktemp(f"regrouped-{format}")
            writer = ArchiveWriter(directory, format=format)
            for index in range(5):
                writer.register_prefix(
                    Prefix.parse(f"10.{index}.0.0/16"), 42, 0
                )
            writer.intern_path((701, 42))
            writer.intern_path((1239, 43))
            writer.write_day(
                make_record(0, 5, [PeerRow(*row) for row in rows])
            )
            writer.finalize({"calendar_start": "1997-11-08"})
            (columns,) = ArchiveReader(directory).iter_day_columns()

            regrouped = columns.regrouped()

            assert regrouped.segments is None
            assert list(columns_rows(regrouped)) == sorted(
                rows, key=operator.itemgetter(0)
            )
            runs = [
                [row[2] for row in run]
                for _pid, run in groupby(
                    columns_rows(regrouped), operator.itemgetter(0)
                )
            ]
            assert list(regrouped.run_pids) == sorted({row[0] for row in rows})
            assert list(regrouped.run_starts) == [
                sum(map(len, runs[:run])) for run in range(len(runs))
            ]
            assert list(regrouped.run_single) == [
                len(set(origins)) == 1 for origins in runs
            ]

    @pytest.mark.parametrize("format", ["v1", "v2"])
    def test_empty_day_has_no_runs(self, tmp_path, format):
        build_archive(tmp_path / format, format)
        *_, empty = ArchiveReader(tmp_path / format).iter_day_columns()

        regrouped = empty.regrouped()

        assert regrouped.segments is None
        assert (regrouped.num_rows, regrouped.num_runs) == (0, 0)
        assert regrouped.day_index == empty.day_index == 3


def columns_rows(columns: DayColumns):
    """A columnar day's ``(prefix id, peer, origin, path id)`` rows."""
    return zip(
        columns.prefix_ids,
        columns.peer_asns,
        columns.origins,
        columns.path_ids,
    )


@pytest.mark.parametrize("format", ["v1", "v2"])
class TestDayRecord:
    """A decoded day is a plain frozen, slotted dataclass holding its
    rows: it compares, hashes and pickles by value."""

    def test_frozen_and_slotted(self, tmp_path, format):
        build_archive(tmp_path / format, format)
        record = next(ArchiveReader(tmp_path / format).iter_days())
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.rows = ()
        assert not hasattr(record, "__dict__")

    def test_pickle_round_trip(self, tmp_path, format):
        written = build_archive(tmp_path / format, format)
        decoded = list(ArchiveReader(tmp_path / format).iter_days())

        restored = pickle.loads(pickle.dumps(decoded))

        assert restored == decoded == written
        assert list(map(hash, restored)) == list(map(hash, written))


def test_decoded_days_hash_equal_across_formats(tmp_path):
    build_archive(tmp_path / "v1", "v1")
    build_archive(tmp_path / "v2", "v2")
    days = [
        *ArchiveReader(tmp_path / "v1").iter_days(),
        *ArchiveReader(tmp_path / "v2").iter_days(),
    ]
    assert len(days) == 6
    assert len(set(days)) == 3


class TestConvert:
    def test_v1_to_v2_preserves_records_and_manifest(self, tmp_path):
        days = build_archive(tmp_path / "v1", "v1")
        summary = convert_archive(tmp_path / "v1", tmp_path / "v2")
        assert summary["source_format"] == "v1"
        assert summary["target_format"] == "v2"
        reader = ArchiveReader(tmp_path / "v2")
        assert reader.format == "v2"
        assert list(reader.iter_days()) == days
        original = ArchiveReader(tmp_path / "v1").manifest
        converted = reader.manifest
        assert converted["format"] == "cds-2"
        assert converted["calendar_start"] == original["calendar_start"]
        assert converted["num_days"] == original["num_days"]
        assert converted["num_prefixes"] == original["num_prefixes"]

    def test_roundtrip_back_to_v1_is_byte_identical(self, tmp_path):
        build_archive(tmp_path / "v1", "v1")
        convert_archive(tmp_path / "v1", tmp_path / "v2", format="v2")
        convert_archive(tmp_path / "v2", tmp_path / "back", format="v1")
        for name in ("days.bin", "registry.bin", "paths.bin"):
            assert (tmp_path / "back" / name).read_bytes() == (
                tmp_path / "v1" / name
            ).read_bytes()

    def test_side_files_copied(self, tmp_path):
        build_archive(tmp_path / "v1", "v1")
        (tmp_path / "v1" / "ground_truth.json").write_text("[1, 2]")
        (tmp_path / "v1" / "incidents.json").write_text('[{"kind": "x"}]')
        convert_archive(tmp_path / "v1", tmp_path / "v2")
        assert (tmp_path / "v2" / "ground_truth.json").read_text() == "[1, 2]"
        assert (
            tmp_path / "v2" / "incidents.json"
        ).read_text() == '[{"kind": "x"}]'

    def test_mrt_dumps_copied(self, tmp_path):
        build_archive(tmp_path / "v1", "v1")
        mrt_dir = tmp_path / "v1" / "mrt"
        mrt_dir.mkdir()
        (mrt_dir / "rib.1997-11-08.mrt").write_bytes(b"\x00\x01")
        convert_archive(tmp_path / "v1", tmp_path / "v2")
        assert (
            tmp_path / "v2" / "mrt" / "rib.1997-11-08.mrt"
        ).read_bytes() == b"\x00\x01"

    def test_existing_destination_rejected(self, tmp_path):
        build_archive(tmp_path / "v1", "v1")
        (tmp_path / "occupied").mkdir()
        with pytest.raises(FileExistsError):
            convert_archive(tmp_path / "v1", tmp_path / "occupied")

    def test_unknown_target_format_rejected(self, tmp_path):
        build_archive(tmp_path / "v1", "v1")
        with pytest.raises(ValueError, match="format"):
            convert_archive(tmp_path / "v1", tmp_path / "out", format="v9")
