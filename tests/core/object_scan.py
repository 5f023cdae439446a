"""The object-row CDS day scan, kept as the reference for the columnar one.

:func:`detect_day` reads a :class:`~repro.scenario.archive.DayRecord`
row by row: it groups the rows by prefix id wherever they sit in the
day, so it needs no run index and no regrouping.  The production scan,
:func:`~repro.core.detector.detect_day_columns`, must return the same
:class:`~repro.core.detector.DayDetection` for every day; the property
suites, the v1 golden and ``benchmarks/bench_detector_throughput.py``
hold it to that.
"""

from repro.core.detector import DailyConflict, DayDetection
from repro.scenario.archive import ArchiveReader, DayRecord, PeerRow


def detect_day(record: DayRecord, reader: ArchiveReader) -> DayDetection:
    """Scan one CDS day record.

    Prefixes without rows have a single origin (their registry owner)
    by archive semantics; rows carry each peer's chosen origin for
    event-touched prefixes, so the origin-set test runs on rows grouped
    by prefix.  Registry entries flagged as AS_SET-terminated are
    excluded and counted: the flag records that the prefix's
    announcements end in an AS set, the same "any route ends in an AS
    set" rule :func:`~repro.core.detector.detect_snapshot` applies to
    full tables.

    Rows are grouped per prefix in a dict, and path sets are built only
    for prefixes that conflict, so the detect benchmark races the
    columnar scan against a tuned object-row loop, not a naive one.
    """
    alive = record.alive_count
    by_prefix: dict[int, list[PeerRow]] = {}
    for row in record.rows:
        if row.prefix_id >= alive:
            continue
        rows = by_prefix.get(row.prefix_id)
        if rows is None:
            by_prefix[row.prefix_id] = rows = []
        rows.append(row)

    registry = reader.registry
    conflicts: list[DailyConflict] = []
    for prefix_id, rows in by_prefix.items():
        entry = registry[prefix_id]
        if entry.as_set_tail:
            continue  # already counted via the cumulative profile
        first_origin = rows[0].origin
        for row in rows:
            if row.origin != first_origin:
                break
        else:
            continue  # single origin: not a conflict
        origin_paths: dict[int, set[tuple[int, ...]]] = {}
        for row in rows:
            bucket = origin_paths.get(row.origin)
            if bucket is None:
                origin_paths[row.origin] = bucket = set()
            bucket.add(reader.path(row.path_id))
        conflicts.append(
            DailyConflict(
                prefix=entry.prefix,
                origins=frozenset(origin_paths),
                paths_by_origin=tuple(
                    (origin, tuple(sorted(paths)))
                    for origin, paths in sorted(origin_paths.items())
                ),
            )
        )
    return DayDetection(
        day=record.day,
        conflicts=tuple(
            sorted(conflicts, key=lambda c: c.prefix.sort_key())
        ),
        prefixes_scanned=alive,
        as_set_excluded=reader.as_set_profile()[alive],
    )
