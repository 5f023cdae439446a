"""Property tests: the columnar hot path is invisible to observers.

For any randomly generated world — empty days, single-peer days,
AS_SET-flagged registries, conflicting origins, both archive formats —
the columnar decode must reproduce the object rows exactly and
:func:`detect_day_columns` must agree with the object-row reference
:func:`~tests.core.object_scan.detect_day`, whether it scans v2
segments or flat columns.  Unsorted same-prefix rows (which v2 interns
as duplicate-pid groups) must be regrouped and still agree.  The
study-level twin of this guarantee (StudyResults across worker counts)
lives in ``tests/analysis/test_format_equivalence.py``.
"""

import datetime

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.detector import _GROUP_OUTCOMES, detect_day_columns
from repro.netbase.prefix import Prefix
from repro.scenario.archive import (
    ArchiveReader,
    ArchiveWriter,
    DayColumns,
    DayRecord,
    FLAG_AS_SET_TAIL,
    MAX_PATH_LENGTH,
    PeerRow,
)
from tests.core.object_scan import detect_day

START = datetime.date(1997, 11, 8)
PEERS = (701, 1239, 3561, 64511)
NUM_PREFIXES = 8

def paths_strategy():
    """A small pool of AS paths, including degenerate empty ones."""
    return st.lists(
        st.lists(
            st.integers(min_value=1, max_value=2**32 - 1),
            max_size=6,
        ).map(tuple),
        min_size=1,
        max_size=5,
        unique=True,
    )


def days_strategy(*, sort_rows: bool):
    """Random day specs: (peer subset, [(prefix, peer, origin, path)]).

    ``sort_rows=True`` groups same-prefix rows into runs like the
    collector writes them; ``False`` leaves event order, which v2
    interns as duplicate-pid groups — the regrouping trigger.
    """
    row = st.tuples(
        st.integers(min_value=0, max_value=NUM_PREFIXES - 1),  # prefix id
        st.sampled_from(PEERS),
        st.integers(min_value=1, max_value=2**31),  # origin
        st.integers(min_value=0, max_value=4),  # path pool slot
    )
    day = st.tuples(
        st.sets(st.sampled_from(PEERS), min_size=1).map(
            lambda peers: tuple(sorted(peers))
        ),
        st.lists(row, max_size=12, unique_by=lambda r: (r[0], r[1])),
    )
    return st.lists(day, max_size=6).map(
        lambda days: (days, sort_rows)
    )


def as_set_flags_strategy():
    """Which registry entries carry the AS_SET exclusion flag."""
    return st.lists(
        st.booleans(), min_size=NUM_PREFIXES, max_size=NUM_PREFIXES
    )


def build(directory, format, path_pool, day_specs, as_set=None):
    days, sort_rows = day_specs
    writer = ArchiveWriter(directory, format=format)
    for index in range(NUM_PREFIXES):
        flagged = as_set is not None and as_set[index]
        writer.register_prefix(
            Prefix((10 << 24) | (index << 16), 16, strict=False),
            42,
            0,
            flags=FLAG_AS_SET_TAIL if flagged else 0,
        )
    path_ids = [writer.intern_path(path) for path in path_pool]
    records = []
    for offset, (peers, rows) in enumerate(days):
        ordered = sorted(rows) if sort_rows else rows
        records.append(
            DayRecord(
                day=START + datetime.timedelta(days=offset),
                day_index=offset,
                alive_count=NUM_PREFIXES,
                active_peers=peers,
                rows=tuple(
                    PeerRow(
                        prefix_id,
                        peer,
                        origin,
                        path_ids[slot % len(path_ids)],
                    )
                    for prefix_id, peer, origin, slot in ordered
                ),
            )
        )
    for record in records:
        writer.write_day(record)
    writer.finalize({"calendar_start": START.isoformat()})
    return records


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(path_pool=paths_strategy(), day_specs=days_strategy(sort_rows=True))
def test_columnar_decode_equals_rows(tmp_path_factory, path_pool, day_specs):
    """Flat columns, segments and ``to_record`` all reproduce the rows."""
    base = tmp_path_factory.mktemp("prop-columnar")
    for format in ("v1", "v2"):
        records = build(base / format, format, path_pool, day_specs)
        reader = ArchiveReader(base / format)
        decoded = list(reader.iter_day_columns())
        assert len(decoded) == len(records)
        for record, columns in zip(records, decoded):
            assert columns.num_rows == len(record.rows)
            # Flat accessors materialize lazily; contents must match
            # the object rows field for field.
            assert list(columns.prefix_ids) == [
                row.prefix_id for row in record.rows
            ]
            assert list(columns.peer_asns) == [
                row.peer_asn for row in record.rows
            ]
            assert list(columns.origins) == [
                row.origin for row in record.rows
            ]
            assert list(columns.path_ids) == [
                row.path_id for row in record.rows
            ]
            assert columns.segments is None  # flat accessors consumed them
            assert columns.num_runs == len(columns.run_pids)
            assert columns.to_record() == record


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    path_pool=paths_strategy(),
    day_specs=days_strategy(sort_rows=True),
    as_set=as_set_flags_strategy(),
)
def test_columnar_detect_equals_object(
    tmp_path_factory, path_pool, day_specs, as_set
):
    """detect_day_columns == detect_day on both formats.

    Each archive is scanned three times: twice as decoded (the second
    pass hits the v2 outcome cache) and once with every batch's flat
    view read first, so the scan gets flat columns on v2 too.
    """
    base = tmp_path_factory.mktemp("prop-detect")
    for format in ("v1", "v2"):
        records = build(base / format, format, path_pool, day_specs, as_set)
        reader = ArchiveReader(base / format)
        expected = [detect_day(record, reader) for record in records]
        for repeat in range(2):  # second pass hits the outcome cache
            detections = [
                detect_day_columns(columns, reader)
                for columns in reader.iter_day_columns()
            ]
            assert detections == expected, (format, repeat)
        flat = []
        for columns in reader.iter_day_columns():
            assert len(columns.prefix_ids) == columns.num_rows
            assert columns.segments is None
            flat.append(detect_day_columns(columns, reader))
        assert flat == expected, (format, "flat")


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(path_pool=paths_strategy(), day_specs=days_strategy(sort_rows=False))
def test_unsorted_rows_fall_back_and_agree(
    tmp_path_factory, path_pool, day_specs
):
    """Duplicate-pid days are regrouped, invisibly.

    Event-ordered rows repeat prefix ids across runs; the columnar scan
    must detect that and scan the day again as
    :meth:`~repro.scenario.archive.DayColumns.regrouped` rather than
    produce split conflicts, and agree with :func:`detect_day`.
    """
    base = tmp_path_factory.mktemp("prop-regrouped")
    for format in ("v1", "v2"):
        records = build(base / format, format, path_pool, day_specs)
        reader = ArchiveReader(base / format)
        detections = [
            detect_day_columns(columns, reader)
            for columns in reader.iter_day_columns()
        ]
        assert detections == [
            detect_day(record, reader) for record in records
        ]


def test_only_interned_groups_enter_the_outcome_cache(tmp_path):
    """Flat columns are scanned uncached; v2 segments fill the cache.

    Flat columns have no group identity, so a cache entry stored for
    them would answer every later flat day of the reader from one
    stale day's conflicts.
    """
    path_pool = [(701, 100), (1239, 200), (701, 300)]
    day_specs = (
        [
            ((701, 1239), [(0, 701, 100, 0), (0, 1239, 200, 1)]),
            ((701, 1239), [(1, 701, 300, 2), (1, 1239, 200, 1)]),
            ((701,), [(2, 701, 300, 2)]),
        ],
        True,
    )
    for format in ("v1", "v2"):
        records = build(tmp_path / format, format, path_pool, day_specs)
        for flat_first in (False, True):
            reader = ArchiveReader(tmp_path / format)
            detections = []
            for columns in reader.iter_day_columns():
                if flat_first:
                    assert len(columns.prefix_ids) == columns.num_rows
                detections.append(detect_day_columns(columns, reader))
            assert detections == [
                detect_day(record, reader) for record in records
            ], (format, flat_first)
            outcomes = _GROUP_OUTCOMES.get(reader)
            if format == "v2" and not flat_first:
                assert outcomes and None not in outcomes
            else:
                assert not outcomes, (format, flat_first)


def test_max_length_path_survives_columnar_detect(tmp_path):
    """A MAX_PATH_LENGTH conflict path comes through the hot path."""
    long_path = tuple(range(2, MAX_PATH_LENGTH + 2))
    for format in ("v1", "v2"):
        directory = tmp_path / format
        writer = ArchiveWriter(directory, format=format)
        pid = writer.register_prefix(
            Prefix.parse("198.51.100.0/24"), long_path[-1], 0
        )
        long_id = writer.intern_path(long_path)
        short_id = writer.intern_path((701, 65001))
        record = DayRecord(
            day=START,
            day_index=0,
            alive_count=1,
            active_peers=(701, 1239),
            rows=(
                PeerRow(pid, 701, long_path[-1], long_id),
                PeerRow(pid, 1239, 65001, short_id),
            ),
        )
        writer.write_day(record)
        writer.finalize({"calendar_start": START.isoformat()})
        reader = ArchiveReader(directory)
        (columns,) = reader.iter_day_columns()
        detection = detect_day_columns(columns, reader)
        assert detection == detect_day(record, reader)
        (conflict,) = detection.conflicts
        assert set(conflict.origins) == {long_path[-1], 65001}
        assert any(
            path == long_path
            for _origin, paths in conflict.paths_by_origin
            for path in paths
        )


def test_all_as_set_day_excludes_everything(tmp_path):
    """Registry-wide AS_SET flags kill every conflict in both paths."""
    for format in ("v1", "v2"):
        directory = tmp_path / format
        writer = ArchiveWriter(directory, format=format)
        pids = [
            writer.register_prefix(
                Prefix((10 << 24) | (index << 16), 16, strict=False),
                42,
                0,
                flags=FLAG_AS_SET_TAIL,
            )
            for index in range(3)
        ]
        path_a = writer.intern_path((701, 100))
        path_b = writer.intern_path((1239, 200))
        record = DayRecord(
            day=START,
            day_index=0,
            alive_count=3,
            active_peers=(701, 1239),
            rows=tuple(
                row
                for pid in pids
                for row in (
                    PeerRow(pid, 701, 100, path_a),
                    PeerRow(pid, 1239, 200, path_b),
                )
            ),
        )
        writer.write_day(record)
        writer.finalize({"calendar_start": START.isoformat()})
        reader = ArchiveReader(directory)
        (columns,) = reader.iter_day_columns()
        detection = detect_day_columns(columns, reader)
        assert detection == detect_day(record, reader)
        assert detection.conflicts == ()
        assert detection.as_set_excluded == 3


def test_empty_day_detects_empty(tmp_path):
    """A day with no rows decodes and detects as empty, both formats."""
    for format in ("v1", "v2"):
        directory = tmp_path / format
        writer = ArchiveWriter(directory, format=format)
        writer.register_prefix(Prefix.parse("198.51.100.0/24"), 42, 0)
        record = DayRecord(
            day=START,
            day_index=0,
            alive_count=1,
            active_peers=(701,),
            rows=(),
        )
        writer.write_day(record)
        writer.finalize({"calendar_start": START.isoformat()})
        reader = ArchiveReader(directory)
        (columns,) = reader.iter_day_columns()
        assert columns.num_rows == 0
        assert columns.to_record() == record
        detection = detect_day_columns(columns, reader)
        assert detection == detect_day(record, reader)
        assert detection.conflicts == ()


def test_eager_columns_detect_like_reader_columns(tmp_path):
    """Hand-built eager ``DayColumns`` scan identically to decoded ones.

    The eager constructor is the v1 decode shape (flat arrays, no
    segments); building one by hand pins the constructor contract the
    scan relies on.
    """
    from array import array

    directory = tmp_path / "v2"
    writer = ArchiveWriter(directory, format="v2")
    pid_a = writer.register_prefix(Prefix.parse("198.51.100.0/24"), 100, 0)
    pid_b = writer.register_prefix(Prefix.parse("203.0.113.0/24"), 300, 0)
    path_a = writer.intern_path((701, 100))
    path_b = writer.intern_path((1239, 200))
    path_c = writer.intern_path((701, 300))
    record = DayRecord(
        day=START,
        day_index=0,
        alive_count=2,
        active_peers=(701, 1239),
        rows=(
            PeerRow(pid_a, 701, 100, path_a),
            PeerRow(pid_a, 1239, 200, path_b),
            PeerRow(pid_b, 701, 300, path_c),
        ),
    )
    writer.write_day(record)
    writer.finalize({"calendar_start": START.isoformat()})
    reader = ArchiveReader(directory)

    columns = DayColumns(
        day=record.day,
        day_index=0,
        alive_count=2,
        active_peers=record.active_peers,
        prefix_ids=array("I", (pid_a, pid_a, pid_b)),
        peer_asns=array("I", (701, 1239, 701)),
        origins=array("I", (100, 200, 300)),
        path_ids=array("I", (path_a, path_b, path_c)),
        run_starts=array("I", (0, 2)),
        run_pids=array("I", (pid_a, pid_b)),
        run_single=bytearray((0, 1)),
    )
    assert columns.segments is None
    assert columns.to_record() == record
    assert detect_day_columns(columns, reader) == detect_day(record, reader)
