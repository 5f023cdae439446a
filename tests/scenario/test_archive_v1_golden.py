"""The committed v1 day-store golden: bytes a reader must keep reading.

``tests/fixtures/cds_v1/`` is a v1 archive written once by
``make_cds_v1_fixture.py``.  Every other v1 test reads bytes that the
writer under test has just written, so a writer and a reader that drift
together would pass them; this module pins the committed files' sha256
and, literally, what every day decodes to (object records, columnar
batches, ordinal ranges) and detects to, on the v1 store and on its v2
conversion.
"""

import datetime
import hashlib
from pathlib import Path

import pytest

from repro.analysis.sources import detections_from_archive
from repro.core.detector import DailyConflict, DayDetection
from repro.netbase.prefix import Prefix
from repro.scenario.archive import (
    ArchiveReader,
    DayRecord,
    PeerRow,
    convert_archive,
)
from tests.core.object_scan import detect_day
from tests.fixtures.make_cds_v1_fixture import write

GOLDEN = Path(__file__).parent.parent / "fixtures" / "cds_v1"

#: sha256 of each committed file.  v1 archives stay readable forever,
#: so these never change.
DIGESTS = {
    "manifest.json": (
        "41879fe60c065736f4a3f1e145500abebca1e6f0f62a772d9b304e16ee808db6"
    ),
    "registry.bin": (
        "bb19f4d2398d4c9476c4f594856c72b379bcf97fe1a7cf84d6c6a0a604d16cf3"
    ),
    "paths.bin": (
        "09945d5ca32e6408edc4f908be5d4e8a0f8cd29b6a186c78245abab16cc6c63e"
    ),
    "days.bin": (
        "984d824830b98da44d061b02ec7de9d1639ad4c135b6e5bc83ee8845a465d893"
    ),
}

START = datetime.date(1998, 1, 1)
PEERS = (701, 1239)

#: (prefix, owner, created day, flags) per registry id.
REGISTRY = [
    ("10.0.0.0/8", 7, 0, 0),
    ("192.0.2.0/24", 20, 0, 1),  # AS_SET-flagged
    ("172.16.0.0/12", 30, 0, 0),
    ("198.51.100.0/24", 40, 5, 0),  # alive only on the last day
]

PATHS = [
    (701, 7),
    (1239, 9),
    (701, 20),
    (1239, 3561, 21),
    (701, 40),
    (1239, 41),
    (1239, 701, 7),
    (701, 30),
    (1239, 31),
]

#: (day index, alive count, rows as (prefix id, peer, origin, path id)).
DAYS = [
    (
        0,
        3,
        [
            (0, 701, 7, 0),
            (0, 1239, 9, 1),
            (1, 701, 20, 2),
            (1, 1239, 21, 3),
            (3, 701, 40, 4),
            (3, 1239, 41, 5),
        ],
    ),
    (1, 3, [(0, 701, 7, 0), (0, 1239, 7, 6)]),
    (3, 3, []),  # empty, and day index 2 is missing
    (
        4,
        3,
        [
            (2, 701, 30, 7),  # 172.16.0.0/12 in two runs
            (0, 701, 7, 0),
            (0, 1239, 9, 1),
            (2, 1239, 31, 8),
        ],
    ),
    (
        5,
        4,
        [
            (0, 701, 7, 0),
            (0, 1239, 9, 1),
            (3, 701, 40, 4),
            (3, 1239, 41, 5),
        ],
    ),
]

#: Per day: (conflicts as {prefix: {origin: paths}}, prefixes scanned,
#: AS_SET prefixes excluded).
RECURRING = {"10.0.0.0/8": {7: [(701, 7)], 9: [(1239, 9)]}}
DETECTIONS = [
    (RECURRING, 3, 1),
    ({}, 3, 1),
    ({}, 3, 1),
    ({**RECURRING, "172.16.0.0/12": {30: [(701, 30)], 31: [(1239, 31)]}}, 3, 1),
    (
        {**RECURRING, "198.51.100.0/24": {40: [(701, 40)], 41: [(1239, 41)]}},
        4,
        1,
    ),
]


def records() -> list[DayRecord]:
    return [
        DayRecord(
            day=START + datetime.timedelta(days=day_index),
            day_index=day_index,
            alive_count=alive,
            active_peers=PEERS,
            rows=tuple(PeerRow(*row) for row in rows),
        )
        for day_index, alive, rows in DAYS
    ]


def detections() -> list[DayDetection]:
    return [
        DayDetection(
            day=record.day,
            conflicts=tuple(
                DailyConflict(
                    prefix=Prefix.parse(text),
                    origins=frozenset(paths),
                    paths_by_origin=tuple(
                        (origin, tuple(paths[origin]))
                        for origin in sorted(paths)
                    ),
                )
                for text, paths in conflicts.items()
            ),
            prefixes_scanned=scanned,
            as_set_excluded=excluded,
        )
        for record, (conflicts, scanned, excluded) in zip(
            records(), DETECTIONS
        )
    ]


class TestCommittedBytes:
    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_file_bytes_are_pinned(self, name):
        digest = hashlib.sha256((GOLDEN / name).read_bytes()).hexdigest()
        assert digest == DIGESTS[name]

    def test_v1_writer_reproduces_the_golden(self, tmp_path):
        write(tmp_path / "cds_v1")
        for name in DIGESTS:
            assert (tmp_path / "cds_v1" / name).read_bytes() == (
                GOLDEN / name
            ).read_bytes()


class TestV1Decode:
    def test_registry_and_paths(self):
        reader = ArchiveReader(GOLDEN)
        assert reader.format == "v1"
        assert [
            (str(entry.prefix), entry.owner, entry.created_day, entry.flags)
            for entry in reader.registry
        ] == REGISTRY
        assert reader.paths == PATHS

    def test_iter_days_records(self):
        assert list(ArchiveReader(GOLDEN).iter_days()) == records()

    def test_iter_day_columns_batches(self):
        batches = ArchiveReader(GOLDEN).iter_day_columns()
        assert [columns.to_record() for columns in batches] == records()

    @pytest.mark.parametrize("start,stop", ((0, 2), (2, 4), (3, None)))
    def test_ordinal_ranges(self, start, stop):
        reader = ArchiveReader(GOLDEN)
        expected = records()[start:stop]
        assert list(reader.iter_days(start, stop)) == expected
        batches = reader.iter_day_columns(start, stop)
        assert [columns.to_record() for columns in batches] == expected

    def test_detections(self):
        assert list(detections_from_archive(GOLDEN)) == detections()

    def test_reference_detector_agrees(self):
        reader = ArchiveReader(GOLDEN)
        assert [
            detect_day(record, reader) for record in reader.iter_days()
        ] == detections()


class TestConvertToV2:
    def test_v2_conversion_decodes_the_same(self, tmp_path):
        converted = tmp_path / "v2"
        convert_archive(GOLDEN, converted, format="v2")
        reader = ArchiveReader(converted)
        assert reader.format == "v2"
        assert list(reader.iter_days()) == records()
        batches = reader.iter_day_columns()
        assert [columns.to_record() for columns in batches] == records()
        assert list(detections_from_archive(converted)) == detections()
        for name in ("registry.bin", "paths.bin"):
            assert (converted / name).read_bytes() == (
                GOLDEN / name
            ).read_bytes()
