"""The compact daily-snapshot (CDS) archive format, versions 1 and 2.

The real study consumed ~1279 daily MRT table dumps.  Storing full
per-peer tables for a multi-year synthetic study would be billions of
rows, nearly all of them single-origin prefixes every peer agrees on.
The CDS format stores exactly the information content of those dumps in
a sparse form:

- a **prefix registry** (``registry.bin``): every prefix ever announced,
  with its owner AS and creation day — the owner is what every peer's
  table shows for a prefix on days when no event touches it;
- a **path table** (``paths.bin``): interned AS paths;
- **day chunks** (``days.bin``): per observed day, the alive-prefix
  count, the active collector peers, and one row per (event-touched
  prefix x peer) giving that peer's chosen origin and path.

Two day-store encodings coexist behind one reader/writer API,
auto-detected by the magic bytes at the head of ``days.bin``:

- **v1** (magic ``CDS1``): fixed-width struct rows, streamed head to
  tail.  Positioning ``iter_days(start, ...)`` scans and seeks over
  every earlier chunk.  v1 stays readable forever.
- **v2** (magic ``CDS2``): per-day *framed* records — length-prefixed,
  CRC-checked frame bodies holding varint-encoded day metadata plus
  references into interned tables (ASNs, active-peer sets, and
  row *groups*: the per-prefix row runs that repeat day after day
  while an event is live) — followed by a footer holding those tables,
  a fixed-width day → byte-offset index, and a checksummed trailer.
  The reader maps the file with :mod:`mmap`; ``iter_days(start, stop)``
  is O(1) to position and each interned row group is decoded exactly
  once per reader, which is what makes the v2 full-study read path
  several times faster than v1 (see ``benchmarks/bench_archive.py``).

``registry.bin`` and ``paths.bin`` are byte-identical across formats;
:func:`convert_archive` migrates whole archives either way, atomically.

The analysis pipeline treats this as its raw input and never sees the
generator's event bookkeeping; ``ground_truth.json`` (written beside the
archive for benchmark validation) is consumed only by benches.
:mod:`repro.mrt` export of individual days provides the bridge to real
MRT tooling.
"""

from __future__ import annotations

import datetime
import itertools
import json
import mmap
import os
import shutil
import struct
import sys
import zlib
from array import array
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path as FsPath

from repro.netbase.prefix import Prefix
from repro.util.varint import append_uvarint, decode_uvarint

MAGIC = b"CDS1"
MAGIC_V2 = b"CDS2"

#: Trailer at the very end of a v2 ``days.bin``: footer start, index
#: start, day count, CRC-32 of everything between footer start and the
#: trailer, and the end magic proving the file was finalized.
_TRAILER = struct.Struct("<QQII8s")
_END_MAGIC = b"CDS2.IDX"

#: v2 frame header: body length, CRC-32 of the body.
_FRAME_HEADER = struct.Struct("<II")

_REGISTRY_ROW = struct.Struct("<IBIHB")  # network, length, owner, day, flags
_DAY_HEADER = struct.Struct("<IIHI")  # day_index, alive, n_peers, n_rows
_ROW = struct.Struct("<IIII")  # prefix_id, peer_asn, origin, path_id
_U32 = struct.Struct("<I")

FLAG_AS_SET_TAIL = 0x01
FLAG_EXCHANGE_POINT = 0x02

#: ``manifest.json`` format names, by writer format axis.
_FORMAT_NAMES = {"v1": "cds-1", "v2": "cds-2"}

#: AS paths are interned behind a one-byte length in both formats.
MAX_PATH_LENGTH = 255


class ArchiveError(ValueError):
    """A CDS archive is corrupt, truncated, or not an archive at all.

    Subclasses :class:`ValueError` so pre-existing callers (and the
    CLI's error handling) keep working; every decode-path failure —
    bad magic, torn frame, checksum mismatch, index pointing outside
    the file — raises this instead of crashing with a low-level
    ``struct.error`` / ``IndexError`` or silently returning partial
    data.
    """


@dataclass(frozen=True, slots=True)
class PeerRow:
    """One peer's table entry for an event-touched prefix on one day."""

    prefix_id: int
    peer_asn: int
    origin: int
    path_id: int


@dataclass(frozen=True, slots=True)
class DayRecord:
    """Everything the collector archived for one observed day.

    The object form of a day, one :class:`PeerRow` per row: what
    :meth:`ArchiveWriter.write_day` takes and
    :meth:`ArchiveReader.iter_days` yields.  Detection reads the same
    day as :class:`DayColumns` instead.
    """

    day: datetime.date
    day_index: int
    alive_count: int  # prefixes with id < alive_count are announced
    active_peers: tuple[int, ...]
    rows: tuple[PeerRow, ...]


class DayColumns:
    """One observed day as flat parallel columns (the batch decode API).

    The row-oriented twin of :class:`DayRecord`: the same day payload,
    but held as four parallel ``array('I')`` columns plus a run index
    instead of per-row Python objects.  Row ``i`` is
    ``(prefix_ids[i], peer_asns[i], origins[i], path_ids[i])``; rows
    arrive in archive order, so rows of one event-touched prefix form
    contiguous *runs* described by ``run_starts`` / ``run_pids``.

    ``run_single[r]`` is 1 when run ``r`` provably carries a single
    distinct origin (the detector's fast path skips it without looking
    at the rows).

    On a v2 store the flat columns are *lazy*: the decoder hands over
    zero-copy references to the per-group columns it already holds
    (``segments``), and the concatenated arrays materialize only if
    something actually reads them — the detector scans the segments in
    place (caching each interned group's outcome), so on the hot path
    nothing does.  Flat columns (v1 stores, eager construction, or a
    batch whose segments were already materialized) carry no group
    identity; the detector scans them as one uncached segment.
    """

    __slots__ = (
        "day",
        "day_index",
        "alive_count",
        "active_peers",
        "_prefix_ids",
        "_peer_asns",
        "_origins",
        "_path_ids",
        "_run_starts",
        "_run_pids",
        "_run_single",
        "_segments",
    )

    def __init__(
        self,
        *,
        day: datetime.date,
        day_index: int,
        alive_count: int,
        active_peers: tuple[int, ...],
        prefix_ids: array | None = None,
        peer_asns: array | None = None,
        origins: array | None = None,
        path_ids: array | None = None,
        run_starts: array | None = None,
        run_pids: array | None = None,
        run_single: bytearray | None = None,
        segments: list[tuple] | None = None,
    ) -> None:
        self.day = day
        self.day_index = day_index
        self.alive_count = alive_count
        self.active_peers = active_peers
        self._segments = segments
        if segments is None:
            self._prefix_ids = prefix_ids
            self._peer_asns = peer_asns
            self._origins = origins
            self._path_ids = path_ids
            self._run_starts = run_starts
            self._run_pids = run_pids
            self._run_single = run_single

    def _materialize(self) -> None:
        """Flatten pending per-group segments into the flat columns."""
        segments = self._segments
        if len(segments) == 1:
            # Zero-copy: a one-group day *is* its group's columns.
            _group_id, (g_prefix, g_peer, g_origin, g_path), (
                g_starts,
                g_pids,
                g_single,
            ) = segments[0]
            self._prefix_ids = g_prefix
            self._peer_asns = g_peer
            self._origins = g_origin
            self._path_ids = g_path
            self._run_starts = g_starts
            self._run_pids = g_pids
            self._run_single = g_single
            self._segments = None
            return
        prefix_ids = array("I")
        peer_asns = array("I")
        origins = array("I")
        path_ids = array("I")
        run_starts = array("I")
        run_pids = array("I")
        run_single = bytearray()
        base = 0
        for _group_id, (g_prefix, g_peer, g_origin, g_path), (
            g_starts,
            g_pids,
            g_single,
        ) in segments:
            if base:
                for start in g_starts:
                    run_starts.append(base + start)
            else:
                run_starts.extend(g_starts)
            run_pids.extend(g_pids)
            run_single.extend(g_single)
            prefix_ids.extend(g_prefix)
            peer_asns.extend(g_peer)
            origins.extend(g_origin)
            path_ids.extend(g_path)
            base += len(g_prefix)
        self._prefix_ids = prefix_ids
        self._peer_asns = peer_asns
        self._origins = origins
        self._path_ids = path_ids
        self._run_starts = run_starts
        self._run_pids = run_pids
        self._run_single = run_single
        self._segments = None

    @property
    def prefix_ids(self) -> array:
        if self._segments is not None:
            self._materialize()
        return self._prefix_ids

    @property
    def peer_asns(self) -> array:
        if self._segments is not None:
            self._materialize()
        return self._peer_asns

    @property
    def origins(self) -> array:
        if self._segments is not None:
            self._materialize()
        return self._origins

    @property
    def path_ids(self) -> array:
        if self._segments is not None:
            self._materialize()
        return self._path_ids

    @property
    def run_starts(self) -> array:
        if self._segments is not None:
            self._materialize()
        return self._run_starts

    @property
    def run_pids(self) -> array:
        if self._segments is not None:
            self._materialize()
        return self._run_pids

    @property
    def run_single(self) -> bytearray:
        if self._segments is not None:
            self._materialize()
        return self._run_single

    @property
    def segments(self) -> list[tuple] | None:
        """Pending zero-copy ``(group_id, columns, runs)`` segments.

        ``columns`` is the group's ``(prefix_ids, peer_asns, origins,
        path_ids)`` arrays and ``runs`` its ``(run_starts, run_pids,
        run_single)`` index.  ``None`` once the flat columns exist (v1
        and eager construction, or after any flat accessor materialized
        them).  The detector scans segments in place when they are
        available, which is what keeps the common day
        concatenation-free.
        """
        return self._segments

    @property
    def num_rows(self) -> int:
        if self._segments is not None:
            return sum(
                len(segment[1][0]) for segment in self._segments
            )
        return len(self._prefix_ids)

    @property
    def num_runs(self) -> int:
        if self._segments is not None:
            return sum(
                len(segment[2][1]) for segment in self._segments
            )
        return len(self._run_pids)

    def regrouped(self) -> DayColumns:
        """This day with its rows stably sorted by prefix id.

        Each prefix's rows form one run, in their archive order.  The
        result holds flat columns and no segments, so it carries no
        group identity.  The detector scans a day this way when its
        rows repeat a prefix id across runs.
        """
        prefix_ids = self.prefix_ids
        order = sorted(range(len(prefix_ids)), key=prefix_ids.__getitem__)
        prefix_ids, peer_asns, origins, path_ids = (
            array("I", map(column.__getitem__, order))
            for column in (
                prefix_ids,
                self.peer_asns,
                self.origins,
                self.path_ids,
            )
        )
        run_starts, run_pids, run_single = _run_index(prefix_ids, origins)
        return DayColumns(
            day=self.day,
            day_index=self.day_index,
            alive_count=self.alive_count,
            active_peers=self.active_peers,
            prefix_ids=prefix_ids,
            peer_asns=peer_asns,
            origins=origins,
            path_ids=path_ids,
            run_starts=run_starts,
            run_pids=run_pids,
            run_single=run_single,
        )

    def to_record(self) -> DayRecord:
        """Materialize the equivalent object-API :class:`DayRecord`."""
        return DayRecord(
            day=self.day,
            day_index=self.day_index,
            alive_count=self.alive_count,
            active_peers=self.active_peers,
            rows=tuple(
                PeerRow(*fields)
                for fields in zip(
                    self.prefix_ids,
                    self.peer_asns,
                    self.origins,
                    self.path_ids,
                )
            ),
        )


def _run_index(
    prefix_ids: array, origins: array
) -> tuple[array, array, bytearray]:
    """Run boundaries over a prefix-id column.

    Returns ``(run_starts, run_pids, run_single)`` — one entry per
    maximal contiguous stretch of equal prefix ids, with ``run_single``
    set from a min==max sweep over each run's origins (C-level over
    array slices, no per-row Python objects).
    """
    run_starts = array("I")
    run_pids = array("I")
    previous = -1
    for index, pid in enumerate(prefix_ids):
        if pid != previous:
            run_starts.append(index)
            run_pids.append(pid)
            previous = pid
    run_single = bytearray(len(run_pids))
    total = len(prefix_ids)
    for run, start in enumerate(run_starts):
        stop = run_starts[run + 1] if run + 1 < len(run_starts) else total
        if stop - start == 1:
            run_single[run] = 1
        else:
            segment = origins[start:stop]
            run_single[run] = min(segment) == max(segment)
    return run_starts, run_pids, run_single


@dataclass(frozen=True, slots=True)
class RegistryEntry:
    """One prefix's registry row."""

    prefix: Prefix
    owner: int
    created_day: int
    flags: int

    @property
    def as_set_tail(self) -> bool:
        return bool(self.flags & FLAG_AS_SET_TAIL)

    @property
    def exchange_point(self) -> bool:
        return bool(self.flags & FLAG_EXCHANGE_POINT)


class ArchiveWriter:
    """Builds a CDS archive directory incrementally.

    ``format`` selects the day-store encoding: ``"v1"`` (the original
    fixed-width stream, the default for compatibility) or ``"v2"`` (the
    indexed, interned, framed store).  The registry/path-table API and
    the resulting ``registry.bin`` / ``paths.bin`` bytes are identical
    either way.
    """

    __slots__ = (
        "directory",
        "format",
        "_registry",
        "_prefix_ids",
        "_paths",
        "_path_ids",
        "_days_file",
        "_num_days",
        "_finalized",
        "_frame_offsets",
        "_peersets",
        "_peerset_ids",
        "_groups",
        "_group_ids",
    )

    def __init__(self, directory: FsPath | str, *, format: str = "v1") -> None:
        if format not in _FORMAT_NAMES:
            raise ValueError(
                f"unknown archive format {format!r}; expected 'v1' or 'v2'"
            )
        self.directory = FsPath(directory)
        self.format = format
        self.directory.mkdir(parents=True, exist_ok=True)
        self._registry: list[RegistryEntry] = []
        self._prefix_ids: dict[Prefix, int] = {}
        self._paths: list[tuple[int, ...]] = []
        self._path_ids: dict[tuple[int, ...], int] = {}
        self._days_file = open(self.directory / "days.bin", "wb")
        self._days_file.write(MAGIC if format == "v1" else MAGIC_V2)
        self._num_days = 0
        self._finalized = False
        # v2 intern state: frames reference these tables by id; the
        # tables themselves land in the footer at finalize time.
        self._frame_offsets: list[int] = []
        self._peersets: list[tuple[int, ...]] = []
        self._peerset_ids: dict[tuple[int, ...], int] = {}
        self._groups: list[tuple[PeerRow, ...]] = []
        self._group_ids: dict[tuple[PeerRow, ...], int] = {}

    # -- registry -------------------------------------------------------

    def register_prefix(
        self,
        prefix: Prefix,
        owner: int,
        created_day: int,
        *,
        flags: int = 0,
    ) -> int:
        """Add a prefix to the registry; returns its dense id.

        Ids are assigned in creation order, so "alive on day d" is the
        id range ``[0, alive_count_d)``.
        """
        if prefix in self._prefix_ids:
            raise ValueError(f"{prefix} already registered")
        prefix_id = len(self._registry)
        self._registry.append(
            RegistryEntry(prefix, owner, created_day, flags)
        )
        self._prefix_ids[prefix] = prefix_id
        return prefix_id

    def prefix_id(self, prefix: Prefix) -> int:
        """The dense id assigned to ``prefix`` at registration."""
        return self._prefix_ids[prefix]

    def has_prefix(self, prefix: Prefix) -> bool:
        """True if ``prefix`` is already registered."""
        return prefix in self._prefix_ids

    @property
    def num_registered(self) -> int:
        """Prefixes registered so far (ids are creation-ordered)."""
        return len(self._registry)

    def registry_entry(self, prefix_id: int) -> RegistryEntry:
        """The registry row for ``prefix_id``."""
        return self._registry[prefix_id]

    def path_by_id(self, path_id: int) -> tuple[int, ...]:
        """The interned AS path for ``path_id``."""
        return self._paths[path_id]

    def intern_path(self, path: tuple[int, ...]) -> int:
        """Deduplicate an AS path; returns its table id."""
        existing = self._path_ids.get(path)
        if existing is not None:
            return existing
        if len(path) > MAX_PATH_LENGTH:
            raise ValueError(
                f"AS path of length {len(path)} exceeds the table "
                f"maximum of {MAX_PATH_LENGTH}"
            )
        path_id = len(self._paths)
        self._paths.append(path)
        self._path_ids[path] = path_id
        return path_id

    # -- day chunks -------------------------------------------------------

    def write_day(self, record: DayRecord) -> None:
        """Append one observed day's chunk to the archive."""
        if self._finalized:
            raise RuntimeError("archive already finalized")
        if record.alive_count > len(self._registry):
            raise ValueError(
                f"alive_count {record.alive_count} exceeds registry size "
                f"{len(self._registry)}"
            )
        if self.format == "v2":
            self._write_day_v2(record)
        else:
            self._write_day_v1(record)
        self._num_days += 1

    def _write_day_v1(self, record: DayRecord) -> None:
        out = self._days_file
        out.write(
            _DAY_HEADER.pack(
                record.day_index,
                record.alive_count,
                len(record.active_peers),
                len(record.rows),
            )
        )
        for peer in record.active_peers:
            out.write(_U32.pack(peer))
        for row in record.rows:
            out.write(
                _ROW.pack(row.prefix_id, row.peer_asn, row.origin, row.path_id)
            )

    def _write_day_v2(self, record: DayRecord) -> None:
        body = bytearray()
        append_uvarint(body, record.day_index)
        append_uvarint(body, record.alive_count)
        append_uvarint(body, self._intern_peerset(tuple(record.active_peers)))
        group_ids = self._intern_row_groups(record.rows)
        append_uvarint(body, len(group_ids))
        for group_id in group_ids:
            append_uvarint(body, group_id)
        out = self._days_file
        self._frame_offsets.append(out.tell())
        out.write(_FRAME_HEADER.pack(len(body), zlib.crc32(body)))
        out.write(body)

    def _intern_peerset(self, peers: tuple[int, ...]) -> int:
        existing = self._peerset_ids.get(peers)
        if existing is not None:
            return existing
        peerset_id = len(self._peersets)
        self._peersets.append(peers)
        self._peerset_ids[peers] = peerset_id
        return peerset_id

    def _intern_row_groups(
        self, rows: tuple[PeerRow, ...]
    ) -> list[int]:
        """Split ``rows`` into per-prefix runs and intern each run.

        Rows for one event-touched prefix are contiguous, and the same
        run recurs on every day the event stays live with the same peer
        set — so interning runs stores (and later decodes) each one
        exactly once no matter how many days reference it.
        """
        group_ids: list[int] = []
        index = 0
        total = len(rows)
        while index < total:
            stop = index + 1
            prefix_id = rows[index].prefix_id
            while stop < total and rows[stop].prefix_id == prefix_id:
                stop += 1
            run = tuple(rows[index:stop])
            group_id = self._group_ids.get(run)
            if group_id is None:
                group_id = len(self._groups)
                self._groups.append(run)
                self._group_ids[run] = group_id
            group_ids.append(group_id)
            index = stop
        return group_ids

    # -- finalization -----------------------------------------------------

    def finalize(self, manifest_extra: dict | None = None) -> None:
        """Write registry, paths and manifest; close the day stream."""
        if self._finalized:
            return
        if self.format == "v2":
            self._finalize_days_v2()
        self._days_file.close()
        with open(self.directory / "registry.bin", "wb") as registry:
            registry.write(MAGIC)
            for entry in self._registry:
                registry.write(
                    _REGISTRY_ROW.pack(
                        entry.prefix.network,
                        entry.prefix.length,
                        entry.owner,
                        entry.created_day,
                        entry.flags,
                    )
                )
        with open(self.directory / "paths.bin", "wb") as paths:
            paths.write(MAGIC)
            for path in self._paths:
                paths.write(struct.pack("<B", len(path)))
                for asn in path:
                    paths.write(_U32.pack(asn))
        manifest = {
            "format": _FORMAT_NAMES[self.format],
            "num_prefixes": len(self._registry),
            "num_paths": len(self._paths),
            "num_days": self._num_days,
        }
        manifest.update(manifest_extra or {})
        with open(self.directory / "manifest.json", "w") as handle:
            json.dump(manifest, handle, indent=2, default=str)
        self._finalized = True

    def _finalize_days_v2(self) -> None:
        """Append the v2 footer: interned tables, day index, trailer."""
        out = self._days_file
        footer_start = out.tell()

        asns: list[int] = []
        asn_ids: dict[int, int] = {}

        def intern_asn(asn: int) -> int:
            existing = asn_ids.get(asn)
            if existing is not None:
                return existing
            asn_id = len(asns)
            asns.append(asn)
            asn_ids[asn] = asn_id
            return asn_id

        blob = bytearray()
        # The ASN table is referenced by both the peer sets and the row
        # groups, so assign ids in one deterministic sweep first.
        for peers in self._peersets:
            for asn in peers:
                intern_asn(asn)
        for group in self._groups:
            for row in group:
                intern_asn(row.peer_asn)
                intern_asn(row.origin)
        append_uvarint(blob, len(asns))
        for asn in asns:
            append_uvarint(blob, asn)
        append_uvarint(blob, len(self._peersets))
        for peers in self._peersets:
            append_uvarint(blob, len(peers))
            for asn in peers:
                append_uvarint(blob, asn_ids[asn])
        append_uvarint(blob, len(self._groups))
        for group in self._groups:
            append_uvarint(blob, len(group))
            for row in group:
                append_uvarint(blob, row.prefix_id)
                append_uvarint(blob, asn_ids[row.peer_asn])
                append_uvarint(blob, asn_ids[row.origin])
                append_uvarint(blob, row.path_id)
        out.write(blob)

        index_start = footer_start + len(blob)
        index = struct.pack(
            f"<{len(self._frame_offsets)}Q", *self._frame_offsets
        )
        out.write(index)
        footer_crc = zlib.crc32(index, zlib.crc32(blob))
        out.write(
            _TRAILER.pack(
                footer_start,
                index_start,
                len(self._frame_offsets),
                footer_crc,
                _END_MAGIC,
            )
        )

    def write_ground_truth(self, events: list[dict]) -> None:
        """Persist generator bookkeeping for benchmark validation only."""
        with open(self.directory / "ground_truth.json", "w") as handle:
            json.dump(events, handle, default=str)

    def write_incidents(self, labels: list[dict]) -> None:
        """Persist injected-incident ground truth (the answer key).

        Unlike ``ground_truth.json`` this file is a first-class study
        input: ``repro evaluate`` scores verdicts against it.
        """
        with open(self.directory / "incidents.json", "w") as handle:
            json.dump(labels, handle, default=str)

    def write_roas(self, roas: list[dict]) -> None:
        """Persist the world's ROA database beside the archive.

        One :meth:`~repro.netbase.rpki.Roa.to_dict` row per
        authorization; ``repro analyze --rpki`` and ``repro evaluate``
        validate origins against it.
        """
        with open(self.directory / "roas.json", "w") as handle:
            json.dump(roas, handle, indent=2, default=str)


class _V2DayStore:
    """mmap-backed decoder for a v2 ``days.bin``.

    Parses the trailer, validates the footer checksum, and decodes the
    interned ASN / peer-set / row-group tables once up front; frames
    are then decoded on demand by byte offset, so positioning anywhere
    in the archive is O(1) and row groups shared across days cost one
    decode total.
    """

    __slots__ = (
        "_reader",
        "_file",
        "_map",
        "frames_end",
        "num_days",
        "offsets",
        "_peersets",
        "_group_columns",
        "_group_runs",
        "_group_rows",
    )

    def __init__(self, path: FsPath, reader: "ArchiveReader") -> None:
        self._reader = reader
        self._file = open(path, "rb")
        try:
            self._map = mmap.mmap(
                self._file.fileno(), 0, access=mmap.ACCESS_READ
            )
        except (OSError, ValueError) as error:
            self._file.close()
            raise ArchiveError(f"cannot map v2 day store: {error}") from error
        try:
            self._parse_footer()
        except ArchiveError:
            self.close()
            raise

    def close(self) -> None:
        try:
            self._map.close()
        except BufferError:
            # A traceback in flight can still hold a memoryview into
            # the map (e.g. the frame that failed its checksum); the
            # mapping is released when that last view is collected.
            pass
        self._file.close()

    # -- footer -----------------------------------------------------------

    def _parse_footer(self) -> None:
        buf = self._map
        size = len(buf)
        if size < len(MAGIC_V2) + _TRAILER.size:
            raise ArchiveError(
                "v2 day store truncated: no room for the footer trailer"
            )
        trailer_start = size - _TRAILER.size
        (
            footer_start,
            index_start,
            num_days,
            footer_crc,
            end_magic,
        ) = _TRAILER.unpack_from(buf, trailer_start)
        if end_magic != _END_MAGIC:
            raise ArchiveError(
                "v2 day store footer missing or truncated (bad end magic)"
            )
        if not 4 <= footer_start <= index_start <= trailer_start:
            raise ArchiveError("v2 footer bounds are out of order")
        if index_start + 8 * num_days != trailer_start:
            raise ArchiveError(
                f"v2 day index truncated: {num_days} days do not fit "
                f"between index start and trailer"
            )
        if zlib.crc32(memoryview(buf)[footer_start:trailer_start]) != (
            footer_crc
        ):
            raise ArchiveError("v2 footer checksum mismatch")
        self.frames_end = footer_start
        self.num_days = num_days
        self.offsets: list[int] = list(
            struct.unpack_from(f"<{num_days}Q", buf, index_start)
        )
        try:
            self._decode_tables(
                memoryview(buf)[footer_start:index_start]
            )
        except (ValueError, IndexError, OverflowError) as error:
            if isinstance(error, ArchiveError):
                raise
            raise ArchiveError(
                f"v2 footer tables are corrupt: {error}"
            ) from error

    def _decode_tables(self, blob: memoryview) -> None:
        # The group table carries four varints per archived row — the
        # whole footer is hundreds of thousands of values at scale —
        # so the varint decode is inlined here (byte fetch + shift)
        # rather than paying a function call per field, mirroring the
        # other hot-loop inlines in this codebase.  Truncation shows
        # up as IndexError, which the caller maps to ArchiveError.
        data = bytes(blob)
        pos = 0

        def read_count() -> int:
            nonlocal pos
            value, pos = decode_uvarint(data, pos)
            return value

        asns: list[int] = []
        for _ in range(read_count()):
            byte = data[pos]
            pos += 1
            if byte < 0x80:
                value = byte
            else:
                value = byte & 0x7F
                shift = 7
                while True:
                    byte = data[pos]
                    pos += 1
                    value |= (byte & 0x7F) << shift
                    if byte < 0x80:
                        break
                    shift += 7
                    if shift > 63:  # decode_uvarint's overlong cap
                        raise ValueError("overlong varint")
            asns.append(value)
        self._peersets: list[tuple[int, ...]] = []
        for _ in range(read_count()):
            width = read_count()
            peers = []
            for _ in range(width):
                asn_id, pos = decode_uvarint(data, pos)
                peers.append(asns[asn_id])
            self._peersets.append(tuple(peers))
        # Groups decode straight into parallel array('I') columns — the
        # batch-decode representation — exactly once per reader.  The
        # object-API PeerRow tuples are derived lazily per group (see
        # _group_rows_of), so columnar consumers never build them.
        group_columns: list[tuple[array, array, array, array]] = []
        group_runs: list[tuple[array, array, bytearray]] = []
        for _ in range(read_count()):
            width = read_count()
            prefix_ids = array("I")
            peer_asns = array("I")
            origin_col = array("I")
            path_ids = array("I")
            fields = [0, 0, 0, 0]
            for _ in range(width):
                for slot in range(4):
                    byte = data[pos]
                    pos += 1
                    if byte < 0x80:
                        fields[slot] = byte
                        continue
                    value = byte & 0x7F
                    shift = 7
                    while True:
                        byte = data[pos]
                        pos += 1
                        value |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift > 63:  # decode_uvarint's overlong cap
                            raise ValueError("overlong varint")
                    fields[slot] = value
                prefix_ids.append(fields[0])
                peer_asns.append(asns[fields[1]])
                origin_col.append(asns[fields[2]])
                path_ids.append(fields[3])
            group_columns.append(
                (prefix_ids, peer_asns, origin_col, path_ids)
            )
            group_runs.append(_run_index(prefix_ids, origin_col))
        self._group_columns = group_columns
        self._group_runs = group_runs
        self._group_rows: list[tuple[PeerRow, ...] | None] = (
            [None] * len(group_columns)
        )
        if pos != len(data):
            raise ArchiveError(
                f"v2 footer has {len(data) - pos} trailing bytes"
            )

    def _group_rows_of(self, group_id: int) -> tuple[PeerRow, ...]:
        """The object-API rows of one interned group (decoded once)."""
        rows = self._group_rows[group_id]
        if rows is None:
            rows = self._group_rows[group_id] = tuple(
                PeerRow(*fields)
                for fields in zip(*self._group_columns[group_id])
            )
        return rows

    # -- frames -----------------------------------------------------------

    def _parse_frame(
        self, ordinal: int
    ) -> tuple[int, int, int, list[int]]:
        """Validate frame ``ordinal``; returns its decoded references.

        The CRC check and body parse shared by the object and columnar
        decoders: ``(day_index, alive_count, peerset_id, group_ids)``.
        """
        offset = self.offsets[ordinal]
        buf = self._map
        if offset < 4 or offset + _FRAME_HEADER.size > self.frames_end:
            raise ArchiveError(
                f"day {ordinal}: index offset {offset} points outside "
                f"the day store"
            )
        body_len, body_crc = _FRAME_HEADER.unpack_from(buf, offset)
        body_start = offset + _FRAME_HEADER.size
        body_end = body_start + body_len
        if body_end > self.frames_end:
            raise ArchiveError(
                f"day {ordinal}: frame overruns the day store"
            )
        body = buf[body_start:body_end]  # mmap slice -> bytes
        if zlib.crc32(body) != body_crc:
            raise ArchiveError(
                f"day {ordinal}: frame checksum mismatch (corrupt frame)"
            )
        try:
            pos = 0
            day_index, pos = decode_uvarint(body, pos)
            alive, pos = decode_uvarint(body, pos)
            peerset_id, pos = decode_uvarint(body, pos)
            n_groups, pos = decode_uvarint(body, pos)
            num_known = len(self._group_columns)
            group_ids: list[int] = []
            # Group ids are the bulk of every frame; decode them with
            # the varint loop inlined (the same hot-loop treatment as
            # the footer tables).
            for _ in range(n_groups):
                byte = body[pos]
                pos += 1
                if byte < 0x80:
                    group_id = byte
                else:
                    group_id = byte & 0x7F
                    shift = 7
                    while True:
                        byte = body[pos]
                        pos += 1
                        group_id |= (byte & 0x7F) << shift
                        if byte < 0x80:
                            break
                        shift += 7
                        if shift > 63:  # decode_uvarint's cap
                            raise ValueError("overlong varint")
                if group_id >= num_known:
                    raise ValueError(f"unknown row group {group_id}")
                group_ids.append(group_id)
            if peerset_id >= len(self._peersets):
                raise ValueError(f"unknown peer set {peerset_id}")
        except (ValueError, IndexError) as error:
            raise ArchiveError(
                f"day {ordinal}: frame body is corrupt: {error}"
            ) from error
        if pos != body_len:
            raise ArchiveError(
                f"day {ordinal}: frame body has {body_len - pos} "
                f"trailing bytes"
            )
        return day_index, alive, peerset_id, group_ids

    def decode_frame(self, ordinal: int) -> DayRecord:
        day_index, alive, peerset_id, group_ids = self._parse_frame(ordinal)
        if len(group_ids) == 1:
            rows = self._group_rows_of(group_ids[0])
        else:
            rows = tuple(
                itertools.chain.from_iterable(
                    map(self._group_rows_of, group_ids)
                )
            )
        return DayRecord(
            day=self._reader.date_of_index(day_index),
            day_index=day_index,
            alive_count=alive,
            active_peers=self._peersets[peerset_id],
            rows=rows,
        )

    def decode_frame_columns(self, ordinal: int) -> DayColumns:
        """Decode frame ``ordinal`` into :class:`DayColumns`.

        Per-group columns and run indexes are decoded once per reader
        (in :meth:`_decode_tables`); assembling a day is a list of
        zero-copy references to them — the flat concatenated columns
        materialize lazily, and only if something reads them (the
        detector scans the segments in place, so usually nothing does).
        """
        day_index, alive, peerset_id, group_ids = self._parse_frame(ordinal)
        columns = self._group_columns
        runs = self._group_runs
        return DayColumns(
            day=self._reader.date_of_index(day_index),
            day_index=day_index,
            alive_count=alive,
            active_peers=self._peersets[peerset_id],
            segments=[
                (group_id, columns[group_id], runs[group_id])
                for group_id in group_ids
            ],
        )

    def iter_days(
        self, start: int, stop: int | None
    ) -> Iterator[DayRecord]:
        stop = self.num_days if stop is None else min(stop, self.num_days)
        for ordinal in range(start, stop):
            yield self.decode_frame(ordinal)

    def iter_day_columns(
        self, start: int, stop: int | None
    ) -> Iterator[DayColumns]:
        stop = self.num_days if stop is None else min(stop, self.num_days)
        for ordinal in range(start, stop):
            yield self.decode_frame_columns(ordinal)


def read_registry(directory: FsPath | str) -> list[RegistryEntry]:
    """The prefix registry (``registry.bin``) of the CDS archive in
    ``directory``, read without opening its day store."""
    raw = (FsPath(directory) / "registry.bin").read_bytes()
    if raw[:4] != MAGIC:
        raise ArchiveError("bad registry magic")
    if (len(raw) - 4) % _REGISTRY_ROW.size:
        raise ArchiveError("registry is truncated mid-row")
    return [
        RegistryEntry(Prefix(network, length, strict=False), owner, day, flags)
        for network, length, owner, day, flags in _REGISTRY_ROW.iter_unpack(
            raw[4:]
        )
    ]


class ArchiveReader:
    """Streams a CDS archive back as :class:`DayRecord` objects.

    The day-store format (v1 or v2) is auto-detected from the magic
    bytes of ``days.bin``; everything downstream — ``iter_days``,
    detection, parallel workers, checkpoints — behaves identically on
    both.
    """

    # "__weakref__" stays in the slot list: the detector's per-reader
    # outcome cache keys a WeakKeyDictionary by reader.
    __slots__ = (
        "directory",
        "manifest",
        "registry",
        "paths",
        "_calendar_start",
        "_as_set_profile",
        "_as_set_mask",
        "_days_path",
        "_days_magic",
        "_v2",
        "__weakref__",
    )

    def __init__(self, directory: FsPath | str) -> None:
        self.directory = FsPath(directory)
        with open(self.directory / "manifest.json") as handle:
            self.manifest = json.load(handle)
        self.registry = read_registry(self.directory)
        self.paths = self._load_paths()
        start = self.manifest.get("calendar_start")
        self._calendar_start = (
            datetime.date.fromisoformat(start) if start else None
        )
        #: Cached cumulative AS_SET counts and per-registry-id AS_SET
        #: flags (see :meth:`as_set_profile` / :meth:`as_set_mask`).
        self._as_set_profile: list[int] | None = None
        self._as_set_mask: bytes | None = None
        self._days_path = self.directory / "days.bin"
        with open(self._days_path, "rb") as handle:
            self._days_magic = handle.read(len(MAGIC))
        # Unknown magic defers to iter_days so a reader over a corrupt
        # archive can still serve registry/path lookups (v1 behavior).
        self._v2: _V2DayStore | None = None
        if self._days_magic == MAGIC_V2:
            self._v2 = _V2DayStore(self._days_path, self)
            if self._v2.num_days != self.num_days:
                count = self._v2.num_days
                self._v2.close()
                self._v2 = None
                raise ArchiveError(
                    f"day store holds {count} day(s); "
                    f"manifest says {self.num_days}"
                )

    @property
    def format(self) -> str:
        """The day-store format behind this reader: ``"v1"``/``"v2"``."""
        return "v2" if self._v2 is not None else "v1"

    def close(self) -> None:
        """Release the v2 day-store mapping (no-op for v1 readers)."""
        if self._v2 is not None:
            self._v2.close()
            self._v2 = None
            self._days_magic = b""

    def _load_paths(self) -> list[tuple[int, ...]]:
        paths: list[tuple[int, ...]] = []
        raw = (self.directory / "paths.bin").read_bytes()
        if raw[:4] != MAGIC:
            raise ArchiveError("bad paths magic")
        offset = 4
        while offset < len(raw):
            count = raw[offset]
            offset += 1
            if offset + 4 * count > len(raw):
                raise ArchiveError("path table is truncated mid-path")
            asns = struct.unpack_from(f"<{count}I", raw, offset)
            offset += 4 * count
            paths.append(tuple(asns))
        return paths

    @property
    def num_days(self) -> int:
        return int(self.manifest["num_days"])

    @property
    def num_prefixes(self) -> int:
        return len(self.registry)

    def prefix(self, prefix_id: int) -> Prefix:
        """The prefix registered under ``prefix_id``."""
        return self.registry[prefix_id].prefix

    def path(self, path_id: int) -> tuple[int, ...]:
        """The interned AS path stored under ``path_id``."""
        return self.paths[path_id]

    def date_of_index(self, day_index: int) -> datetime.date:
        """Calendar date of a day index (needs manifest calendar_start)."""
        if self._calendar_start is None:
            raise ValueError("archive manifest lacks calendar_start")
        return self._calendar_start + datetime.timedelta(days=day_index)

    def iter_days(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[DayRecord]:
        """Stream day records in chronological order.

        ``start``/``stop`` select a half-open range of *observed-day
        ordinals* (not calendar day indices): record number ``start``
        up to but excluding ``stop``.  On a v1 store skipped records
        are seeked over without parsing their peer/row payloads; on a
        v2 store the footer index positions the cursor directly —
        O(1) — which is what lets parallel workers each decode only
        their own chunk of the archive.
        """
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if self._v2 is not None:
            yield from self._v2.iter_days(start, stop)
            return
        yield from self._iter_days_v1(start, stop)

    def iter_day_columns(
        self, start: int = 0, stop: int | None = None
    ) -> Iterator[DayColumns]:
        """Stream days as flat :class:`DayColumns` batches, in order.

        The columnar twin of :meth:`iter_days`: same range semantics,
        same days, but each one arrives as parallel ``array`` columns
        plus a run index instead of :class:`PeerRow` objects — the
        representation :func:`~repro.core.detector.detect_day_columns`
        scans without per-row Python work.  On a v2 store each interned
        row group's columns are decoded once per reader and days are
        assembled by array concatenation; on v1 the fixed-width row
        block is split into columns with strided array slices.
        """
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        if self._v2 is not None:
            yield from self._v2.iter_day_columns(start, stop)
            return
        yield from self._iter_days_v1(start, stop, columnar=True)

    def _columns_from_v1(
        self,
        day_index: int,
        alive: int,
        peers: tuple[int, ...],
        rows_raw: bytes,
    ) -> DayColumns:
        flat = array("I")
        flat.frombytes(rows_raw)
        if sys.byteorder != "little":
            flat.byteswap()  # rows are stored little-endian
        prefix_ids = flat[0::4]
        origins = flat[2::4]
        run_starts, run_pids, run_single = _run_index(prefix_ids, origins)
        return DayColumns(
            day=self.date_of_index(day_index),
            day_index=day_index,
            alive_count=alive,
            active_peers=peers,
            prefix_ids=prefix_ids,
            peer_asns=flat[1::4],
            origins=origins,
            path_ids=flat[3::4],
            run_starts=run_starts,
            run_pids=run_pids,
            run_single=run_single,
        )

    def _iter_days_v1(
        self, start: int, stop: int | None, *, columnar: bool = False
    ) -> Iterator[DayRecord | DayColumns]:
        expected_days = self.num_days
        with open(self._days_path, "rb") as handle:
            if handle.read(4) != MAGIC:
                raise ArchiveError("bad days magic")
            ordinal = 0
            while stop is None or ordinal < stop:
                header = handle.read(_DAY_HEADER.size)
                if not header:
                    # Clean EOF is only the end of the archive when the
                    # manifest agrees; a store truncated exactly at a
                    # record boundary must not pass for a shorter one.
                    if ordinal < expected_days:
                        raise ArchiveError(
                            f"day store ends after {ordinal} record(s); "
                            f"manifest says {expected_days}"
                        )
                    return
                if len(header) < _DAY_HEADER.size:
                    raise ArchiveError(
                        f"day {ordinal}: truncated day header"
                    )
                day_index, alive, n_peers, n_rows = _DAY_HEADER.unpack(header)
                payload = 4 * n_peers + _ROW.size * n_rows
                if ordinal < start:
                    handle.seek(payload, 1)
                    ordinal += 1
                    continue
                peers_raw = handle.read(4 * n_peers)
                if len(peers_raw) < 4 * n_peers:
                    raise ArchiveError(
                        f"day {ordinal}: truncated peer list"
                    )
                peers = struct.unpack(f"<{n_peers}I", peers_raw)
                rows_raw = handle.read(_ROW.size * n_rows)
                if len(rows_raw) < _ROW.size * n_rows:
                    raise ArchiveError(
                        f"day {ordinal}: truncated row block"
                    )
                ordinal += 1
                if columnar:
                    yield self._columns_from_v1(
                        day_index, alive, peers, rows_raw
                    )
                    continue
                yield DayRecord(
                    day=self.date_of_index(day_index),
                    day_index=day_index,
                    alive_count=alive,
                    active_peers=peers,
                    rows=tuple(
                        itertools.starmap(PeerRow, _ROW.iter_unpack(rows_raw))
                    ),
                )

    def as_set_profile(self) -> list[int]:
        """Cumulative AS_SET-flagged registry counts.

        ``profile[a]`` is the number of AS_SET-terminated registry
        prefixes with id below ``a``.  Because ids are creation-ordered
        and a day's alive set is exactly ``[0, alive_count)``, indexing
        it with a day's ``alive_count`` answers "how many prefixes does
        today's scan exclude" in O(1).  Computed once per reader.
        """
        profile = self._as_set_profile
        if profile is None:
            profile = [0] * (len(self.registry) + 1)
            flagged = 0
            for position, entry in enumerate(self.registry):
                if entry.flags & FLAG_AS_SET_TAIL:
                    flagged += 1
                profile[position + 1] = flagged
            self._as_set_profile = profile
        return profile

    def as_set_mask(self) -> bytes:
        """Per-registry-id AS_SET flag mask (1 = excluded prefix).

        ``mask[prefix_id]`` is 1 exactly when that registry entry is
        AS_SET-terminated — the columnar detector's O(1) replacement
        for an attribute lookup on :class:`RegistryEntry`.  Computed
        once per reader.
        """
        mask = self._as_set_mask
        if mask is None:
            mask = self._as_set_mask = bytes(
                1 if entry.flags & FLAG_AS_SET_TAIL else 0
                for entry in self.registry
            )
        return mask

    def ground_truth(self) -> list[dict]:
        """Generator bookkeeping (benchmark validation only)."""
        with open(self.directory / "ground_truth.json") as handle:
            return json.load(handle)

    def has_incidents(self) -> bool:
        """True when the archive carries injected-incident labels."""
        return (self.directory / "incidents.json").is_file()

    def incident_labels(self) -> list[dict]:
        """Injected-incident ground truth rows (see ``write_incidents``).

        An archive generated without incidents simply has no labels:
        the answer key is empty, not an error.
        """
        path = self.directory / "incidents.json"
        if not path.is_file():
            return []
        with open(path) as handle:
            return json.load(handle)

    def has_roas(self) -> bool:
        """True when the archive carries a ROA database."""
        return (self.directory / "roas.json").is_file()

    def roas(self) -> list[dict]:
        """ROA rows written by :meth:`ArchiveWriter.write_roas`.

        Empty when the world was generated without an RPKI layer —
        feed the rows to :meth:`repro.netbase.rpki.RoaTable.from_rows`.
        """
        path = self.directory / "roas.json"
        if not path.is_file():
            return []
        with open(path) as handle:
            return json.load(handle)


#: Manifest keys recomputed by every writer; everything else is carried
#: over verbatim when converting between formats.
_WRITER_MANIFEST_KEYS = ("format", "num_prefixes", "num_paths", "num_days")

#: Side files copied verbatim by :func:`convert_archive`: ground truth
#: plus the episode query index, which is format-independent (it
#: describes the study's episodes, not the day-store encoding).
_SIDE_FILES = (
    "ground_truth.json",
    "incidents.json",
    "roas.json",
    "episodes.idx",
)


def reencode_archive(
    reader: ArchiveReader,
    writer: ArchiveWriter,
    records=None,
) -> None:
    """Stream ``reader``'s whole world into ``writer`` and finalize it.

    Registry ids, path-table ids, day records and manifest extras are
    preserved exactly; the writer's ``format`` decides the day-store
    encoding.  ``records`` optionally supplies pre-materialized day
    records (the benchmarks use this to time pure writes).  Shared by
    :func:`convert_archive` and ``benchmarks/bench_archive.py`` so the
    two can never drift on what "the same archive" means.
    """
    for entry in reader.registry:
        writer.register_prefix(
            entry.prefix,
            entry.owner,
            entry.created_day,
            flags=entry.flags,
        )
    for path in reader.paths:
        writer.intern_path(path)
    for record in reader.iter_days() if records is None else records:
        writer.write_day(record)
    extras = {
        key: value
        for key, value in reader.manifest.items()
        if key not in _WRITER_MANIFEST_KEYS
    }
    writer.finalize(extras)


def convert_archive(
    source: FsPath | str,
    destination: FsPath | str,
    *,
    format: str = "v2",
) -> dict:
    """Re-encode a CDS archive into ``format`` (``"v1"`` or ``"v2"``).

    Reads every day record from ``source`` and writes an equivalent
    archive at ``destination``: registry, path table, manifest extras,
    the ground-truth side files and any exported ``mrt/`` day dumps
    carry over unchanged (a ``v1`` → ``v1`` conversion is
    byte-identical), only the day-store encoding differs.  The conversion is **atomic**: everything is built in a
    hidden temporary directory beside the destination and renamed into
    place only once complete, so a corrupt source — or a crash mid-way
    — can never leave a half-written archive behind.

    Returns a summary dict (source/target formats and counts).
    Raises :class:`ArchiveError` on corrupt input,
    :class:`FileExistsError` if ``destination`` already exists.
    """
    if format not in _FORMAT_NAMES:
        raise ValueError(
            f"unknown archive format {format!r}; expected 'v1' or 'v2'"
        )
    source = FsPath(source)
    destination = FsPath(destination)
    if destination.exists():
        raise FileExistsError(
            f"destination {destination} already exists; refusing to "
            f"overwrite an archive"
        )
    reader = ArchiveReader(source)
    source_format = reader.format
    destination.parent.mkdir(parents=True, exist_ok=True)
    staging = destination.parent / (
        f".{destination.name}.converting-{os.getpid()}"
    )
    if staging.exists():
        shutil.rmtree(staging)
    try:
        writer = ArchiveWriter(staging, format=format)
        reencode_archive(reader, writer)
        for name in _SIDE_FILES:
            if (source / name).is_file():
                shutil.copyfile(source / name, staging / name)
        if (source / "mrt").is_dir():
            # Exported MRT day dumps ride along with the archive.
            shutil.copytree(source / "mrt", staging / "mrt")
        os.rename(staging, destination)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    finally:
        reader.close()
    return {
        "source": str(source),
        "destination": str(destination),
        "source_format": source_format,
        "target_format": format,
        "num_days": reader.num_days,
        "num_prefixes": reader.num_prefixes,
    }
