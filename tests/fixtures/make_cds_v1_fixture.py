"""Regenerate the committed v1 day-store golden, ``cds_v1/``.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/make_cds_v1_fixture.py

Writes a four-prefix, five-day archive through
``ArchiveWriter(format="v1")``: ``manifest.json``, ``registry.bin``,
``paths.bin`` and ``days.bin``, under 1 KB together.  Its days cover
the cases a v1 reader and the detector must keep answering alike:

- ``10.0.0.0/8`` conflicts between AS 7 and AS 9, goes quiet on the
  second day, and returns;
- ``192.0.2.0/24`` is AS_SET-flagged, so its two origins are excluded
  and counted, never reported;
- ``198.51.100.0/24`` is registered last and carries two origins from
  the first day, but is outside the alive range until the last day;
- the third day has no rows, and its day index skips one (1 -> 3);
- on the fourth day ``172.16.0.0/12``'s rows come in two runs split by
  another prefix's, each single-origin, so the prefix conflicts only
  across its runs (the detector's object-path case).

``tests/scenario/test_archive_v1_golden.py`` pins each file's sha256
and what every day decodes and detects to.  v1 archives stay readable
forever, so regenerate only if the v1 encoding itself changes, which it
must not.
"""

import datetime
from pathlib import Path

from repro.netbase.prefix import Prefix
from repro.scenario.archive import (
    FLAG_AS_SET_TAIL,
    ArchiveWriter,
    DayRecord,
    PeerRow,
)

DIRECTORY = Path(__file__).parent / "cds_v1"

START = datetime.date(1998, 1, 1)

PEERS = (701, 1239)


def write(directory: Path) -> None:
    writer = ArchiveWriter(directory, format="v1")
    recurring = writer.register_prefix(Prefix.parse("10.0.0.0/8"), 7, 0)
    as_set = writer.register_prefix(
        Prefix.parse("192.0.2.0/24"), 20, 0, flags=FLAG_AS_SET_TAIL
    )
    split = writer.register_prefix(Prefix.parse("172.16.0.0/12"), 30, 0)
    unborn = writer.register_prefix(Prefix.parse("198.51.100.0/24"), 40, 5)

    def row(prefix_id: int, peer: int, path: tuple[int, ...]) -> PeerRow:
        return PeerRow(prefix_id, peer, path[-1], writer.intern_path(path))

    def day(day_index: int, alive: int, *rows: PeerRow) -> None:
        writer.write_day(
            DayRecord(
                day=START + datetime.timedelta(days=day_index),
                day_index=day_index,
                alive_count=alive,
                active_peers=PEERS,
                rows=rows,
            )
        )

    day(
        0,
        3,
        row(recurring, 701, (701, 7)),
        row(recurring, 1239, (1239, 9)),
        row(as_set, 701, (701, 20)),
        row(as_set, 1239, (1239, 3561, 21)),
        row(unborn, 701, (701, 40)),
        row(unborn, 1239, (1239, 41)),
    )
    day(
        1,
        3,
        row(recurring, 701, (701, 7)),
        row(recurring, 1239, (1239, 701, 7)),
    )
    day(3, 3)
    day(
        4,
        3,
        row(split, 701, (701, 30)),
        row(recurring, 701, (701, 7)),
        row(recurring, 1239, (1239, 9)),
        row(split, 1239, (1239, 31)),
    )
    day(
        5,
        4,
        row(recurring, 701, (701, 7)),
        row(recurring, 1239, (1239, 9)),
        row(unborn, 701, (701, 40)),
        row(unborn, 1239, (1239, 41)),
    )
    writer.finalize({"calendar_start": START.isoformat()})


if __name__ == "__main__":
    write(DIRECTORY)
    for path in sorted(DIRECTORY.iterdir()):
        print(f"wrote {path} ({path.stat().st_size} bytes)")
