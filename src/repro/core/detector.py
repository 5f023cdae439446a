"""MOAS conflict detection over daily snapshots.

The paper's methodology (Section III): take each day's table, read the
origin AS (last AS of the AS path) of every route for every prefix, and
flag prefixes with more than one distinct origin.  A prefix is excluded
(and counted) when *any* of its routes' paths ends in an AS *set* — the
paper saw ~12 such prefixes and left them out entirely, since an AS_SET
tail makes the true origin ambiguous.

Two input forms are supported: full :class:`~repro.netbase.rib.RibSnapshot`
tables (e.g. parsed from MRT archives) and the sparse CDS days, which
carry per-peer origins for event-touched prefixes and imply the
registry owner for the rest.

CDS days are scanned by :func:`detect_day_columns` over
:class:`~repro.scenario.archive.DayColumns` batches — the one CDS scan,
which works run-wise on whole-day arrays and only materializes per-row
structures for prefixes that actually conflict.  The property suites
and the detect benchmark compare it against an object-row reference
scan, ``tests/core/object_scan.py``.
"""

from __future__ import annotations

import datetime
import operator
import weakref
from dataclasses import dataclass

from repro.netbase.prefix import Prefix
from repro.netbase.rib import RibSnapshot
from repro.scenario.archive import ArchiveReader, DayColumns


@dataclass(frozen=True, slots=True, weakref_slot=True)
class DailyConflict:
    """One prefix observed with multiple origins on one day.

    Slotted for the hot path; ``weakref_slot`` stays because the
    episode tracker and classifier memoize per-conflict results behind
    ``weakref.ref`` guards.
    """

    prefix: Prefix
    origins: frozenset[int]
    #: origin -> tuple of distinct AS paths ending at that origin
    #: (paths start at the exporting peer).  May be empty when the
    #: input carries no path information.
    paths_by_origin: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...] = ()

    def paths_of(self, origin: int) -> tuple[tuple[int, ...], ...]:
        """Observed paths ending at ``origin`` (empty if none)."""
        for candidate, paths in self.paths_by_origin:
            if candidate == origin:
                return paths
        return ()

    def all_paths(self) -> tuple[tuple[int, ...], ...]:
        """Every observed path across all origins."""
        return tuple(
            path for _origin, paths in self.paths_by_origin for path in paths
        )


@dataclass(frozen=True, slots=True)
class DayDetection:
    """Detector output for one observed day."""

    day: datetime.date
    conflicts: tuple[DailyConflict, ...]
    prefixes_scanned: int
    as_set_excluded: int

    @property
    def num_conflicts(self) -> int:
        return len(self.conflicts)


def detect_snapshot(snapshot: RibSnapshot) -> DayDetection:
    """Scan a full multi-peer table (the MRT-file path).

    This is the reference implementation of the paper's methodology:
    every route of every prefix is examined, and a prefix with any
    AS_SET-terminated route is excluded and counted.
    """
    conflicts: list[DailyConflict] = []
    as_set_excluded = 0
    scanned = 0
    for prefix, routes in snapshot.iter_prefix_routes(copy=False):
        scanned += 1
        # Pass 1: one origin() call per route into a flat array, no
        # per-route set/dict churn.  Most prefixes are single-origin
        # and never leave this pass; AS_SET tails bail out early.
        origins: list[int | None] = []
        first_origin: int | None = None
        multi = False
        saw_as_set = False
        for route in routes:
            origin = route.path.origin()
            if isinstance(origin, frozenset):
                saw_as_set = True
                break
            origins.append(origin)
            if origin is None:
                continue
            if first_origin is None:
                first_origin = origin
            elif origin != first_origin:
                multi = True
        if saw_as_set:
            as_set_excluded += 1
            continue
        if not multi:
            continue
        # Pass 2 (conflicted prefixes only): gather distinct paths.
        origin_paths: dict[int, set[tuple[int, ...]]] = {}
        for route, origin in zip(routes, origins):
            if origin is None:
                continue
            bucket = origin_paths.get(origin)
            if bucket is None:
                origin_paths[origin] = bucket = set()
            bucket.add(tuple(route.path.as_list()))
        conflicts.append(_conflict(prefix, origin_paths))
    return DayDetection(
        day=snapshot.day,
        conflicts=tuple(
            sorted(conflicts, key=lambda c: c.prefix.sort_key())
        ),
        prefixes_scanned=scanned,
        as_set_excluded=as_set_excluded,
    )


#: Per-reader caches of whole-group scan outcomes, used by the segment
#: scan.  An interned row group's conflicts are a pure function of its
#: rows and the reader's registry masks, independent of which day
#: references it — except for the ``pid >= alive`` liveness filter, so
#: each entry records the minimum alive count it is valid for:
#: ``group_id`` -> ``(min_alive, pairs)``.
#: In the steady state a day scan is one dict hit per group.  Flat
#: columns have no group identity and never enter the cache.
_GROUP_OUTCOMES: "weakref.WeakKeyDictionary[ArchiveReader, dict]" = (
    weakref.WeakKeyDictionary()
)


def detect_day_columns(
    columns: DayColumns, reader: ArchiveReader
) -> DayDetection:
    """Scan one columnar day batch.

    Run boundaries over the prefix-id column partition the rows per
    prefix, ``run_single`` (a run-wise min==max over origins, computed
    at decode time) discards the single-origin majority without
    touching rows, AS_SET exclusion is an O(1) index into a
    precomputed registry mask, and only runs that actually conflict
    materialize origin->path sets — with each interned row group's
    scan outcome (usually "no conflicts") cached per reader, so a
    group that recurs across days is scanned exactly once.  On a v2
    store the scan walks the decoder's zero-copy per-group segments
    directly, so the flat concatenated columns are never even built;
    flat columns (v1 stores, eagerly built or already-materialized
    batches) go through the same loop as one uncached segment.

    A prefix must be one run for its origin set to be whole.  The rare
    day whose rows repeat a prefix id across non-adjacent runs (legal
    in both formats, never produced by our writer) is scanned once
    more as :meth:`~repro.scenario.archive.DayColumns.regrouped`: the
    same rows stably sorted by prefix id, one flat uncached segment.
    """
    alive = columns.alive_count
    segments = columns.segments
    if segments is None:
        segments = _flat_segment(columns)
    pairs = _scan_segments(segments, reader, alive)
    if pairs is None:
        # A prefix's rows span non-adjacent runs; the run-wise scan
        # would see partial origin sets (two individually single-origin
        # runs of one prefix can still conflict jointly).
        pairs = _scan_segments(
            _flat_segment(columns.regrouped()), reader, alive
        )
    pairs.sort(key=_PAIR_KEY)
    return DayDetection(
        day=columns.day,
        conflicts=tuple(entry[1] for entry in pairs),
        prefixes_scanned=alive,
        as_set_excluded=reader.as_set_profile()[alive],
    )


def _flat_segment(columns: DayColumns) -> list[tuple]:
    """A batch's flat columns as one segment with no group identity."""
    return [
        (
            None,
            (
                columns.prefix_ids,
                columns.peer_asns,
                columns.origins,
                columns.path_ids,
            ),
            (columns.run_starts, columns.run_pids, columns.run_single),
        )
    ]


#: Sort key of a (prefix sort key, conflict) scan pair.
_PAIR_KEY = operator.itemgetter(0)


def _scan_segments(
    segments: list[tuple], reader: ArchiveReader, alive: int
) -> list[tuple] | None:
    """Run-wise scan over ``(group_id, columns, runs)`` segments.

    Each segment is one interned row group scanned in place with local
    indices, so no per-day concatenation or rebasing happens at all —
    and each group's scan outcome is cached on the reader (see
    :data:`_GROUP_OUTCOMES`), so a group that recurs across days is
    scanned once and thereafter costs one dict hit.  A segment whose
    ``group_id`` is ``None`` (flat columns) is scanned every time.
    Returns ``(prefix sort key, conflict)`` pairs, unsorted, or
    ``None`` when a prefix id repeats across runs (the caller then
    regroups the day).
    """
    total_runs = 0
    pids: set[int] = set()
    for segment in segments:
        g_pids = segment[2][1]
        pids.update(g_pids)
        total_runs += len(g_pids)
    if len(pids) != total_runs:
        return None
    outcomes = _GROUP_OUTCOMES.get(reader)
    if outcomes is None:
        outcomes = _GROUP_OUTCOMES[reader] = {}
    pairs: list[tuple] = []
    get_outcome = outcomes.get
    # Mask/registry handles resolve lazily: a steady-state day is all
    # cache hits and never needs them.
    as_set = None
    registry = None
    path_of = None
    for segment in segments:
        group_id = segment[0]
        if group_id is not None:
            entry = get_outcome(group_id)
            if entry is not None and alive >= entry[0]:
                pairs.extend(entry[1])
                continue
        g_starts, g_pids, g_single = segment[2]
        if 0 not in g_single:
            # Every run is single-origin: conflict-free at any alive
            # count, since the liveness filter can only remove runs.
            if group_id is not None:
                outcomes[group_id] = (0, ())
            continue
        g_origin = segment[1][2]
        g_path = segment[1][3]
        if as_set is None:
            as_set = reader.as_set_mask()
            registry = reader.registry
            path_of = reader.path
        num_runs = len(g_pids)
        num_rows = len(g_origin)
        group_pairs: list[tuple] = []
        max_pid = -1
        filtered = False
        for run in range(num_runs):
            pid = g_pids[run]
            if pid > max_pid:
                max_pid = pid
            if g_single[run]:
                continue
            if pid >= alive:
                # This run is invisible today, so the outcome below is
                # partial — usable for this day, not cacheable.
                filtered = True
                continue
            if as_set[pid]:
                continue  # already counted via the cumulative profile
            start = g_starts[run]
            stop = (
                g_starts[run + 1] if run + 1 < num_runs else num_rows
            )
            origin_paths: dict[int, set[tuple[int, ...]]] = {}
            for index in range(start, stop):
                origin = g_origin[index]
                bucket = origin_paths.get(origin)
                if bucket is None:
                    origin_paths[origin] = bucket = set()
                bucket.add(path_of(g_path[index]))
            prefix = registry[pid].prefix
            group_pairs.append(
                (prefix.sort_key(), _conflict(prefix, origin_paths))
            )
        if group_id is not None and not filtered:
            outcomes[group_id] = (max_pid + 1, tuple(group_pairs))
        pairs.extend(group_pairs)
    return pairs


def _conflict(
    prefix: Prefix, origin_paths: dict[int, set[tuple[int, ...]]]
) -> DailyConflict:
    return DailyConflict(
        prefix=prefix,
        origins=frozenset(origin_paths),
        paths_by_origin=tuple(
            (origin, tuple(sorted(paths)))
            for origin, paths in sorted(origin_paths.items())
        ),
    )
