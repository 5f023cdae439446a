"""The episode query index: O(log n) prefix→history point lookups.

ROADMAP item 1: the paper's core questions ("which prefixes had MOAS
conflicts, when, and for how long?") should not cost a full-study fold
per answer.  :class:`EpisodeIndex` is the queryable store that makes
point lookups cheap — the GRIP-style historical prefix→origin view,
derived entirely from the fold's own outputs so it can never disagree
with ``analyze``:

- one record per conflicted prefix: the episode interval (first/last
  day, days observed), the origin-AS history, the peak simultaneous
  width, the RFC 6811 rollup, and — when a verdict engine ran — the
  verdict kind, tags, perpetrators and suspicion score;
- records are keyed in :class:`~repro.netbase.trie.PrefixTrie` walk
  order, which for disjoint keys equals ``Prefix.sort_key()`` order, so
  a point lookup is one ``bisect`` over the key column — O(log n) in
  episodes, no trie materialization needed on the hot path (a lazily
  built trie backs the structural ``covering``/``covered`` queries);
- a day-interval index (the sorted first-day and last-day columns)
  answers "how many episodes were active in [A, B]?" in O(log n) in
  days: overlaps = N - #(first > B) - #(last < A), the two exclusion
  sets being disjoint.

On disk the index is a compact side file (``episodes.idx``) written
beside the archive, reusing the v2 day-store machinery: LEB128 varints
(:mod:`repro.util.varint`), interned string/origin-set tables, CRC-32
framed sections, and a checksummed trailer with an end magic.  Every
corruption path — truncated trailer, bit-flipped frame, bad magic —
raises :class:`~repro.scenario.archive.ArchiveError`, never a bare
``struct.error``.

Layout (all integers varint unless noted)::

    MAGIC "EIX1"
    frame: meta          version, record count, days indexed, last day
    frame: strings       interned rpki states / verdict kinds / tags
    frame: origin sets   interned ASN sets (delta-encoded, ascending)
    frame: records       sorted by (network, length); per record:
                         network, length, first day, span, days
                         observed, peak width, origin-set id, flags,
                         [rpki sid], [kind sid, tags, perp-set id,
                         suspicion f64]
    frame: intervals     first-day and last-day columns, day-sorted
    TRAILER <QQII8s>     records offset, intervals offset, record
                         count, CRC-32 of everything before the
                         trailer, end magic "EIX1.END"

Each frame is length-prefixed and CRC-checked exactly like a v2
``days.bin`` frame, and the whole file is covered once more by the
trailer checksum.
"""

from __future__ import annotations

import datetime
import struct
import zlib
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.netbase.prefix import Prefix
from repro.netbase.trie import PrefixTrie
from repro.scenario.archive import ArchiveError
from repro.util.io import atomic_write_bytes
from repro.util.varint import append_uvarint, decode_uvarint

#: File name of the index side file inside an archive directory.
INDEX_FILENAME = "episodes.idx"

#: Leading magic of an episode index file.
INDEX_MAGIC = b"EIX1"

#: Trailer: records frame offset, intervals frame offset, record
#: count, CRC-32 of every byte before the trailer, end magic.
_TRAILER = struct.Struct("<QQII8s")
_END_MAGIC = b"EIX1.END"

#: Frame header: body length, CRC-32 of the body (the v2 frame shape).
_FRAME_HEADER = struct.Struct("<II")

_F64 = struct.Struct("<d")

#: Current encoding version (first varint of the meta frame).
_VERSION = 1

#: Record flag bits.
_FLAG_ONGOING = 0x01
_FLAG_RPKI = 0x02
_FLAG_VERDICT = 0x04


@dataclass(frozen=True, slots=True)
class IndexRecord:
    """One prefix's full indexed history: episode, RPKI, verdict."""

    prefix: Prefix
    first_day: datetime.date
    last_day: datetime.date
    days_observed: int
    #: Every origin AS ever involved, ascending.
    origins: tuple[int, ...]
    max_origins_single_day: int
    ongoing: bool
    #: RFC 6811 rollup, or ``None`` when the study ran without ROAs.
    rpki_state: str | None = None
    #: Verdict fields; ``None``/empty when no verdict engine ran.
    verdict_kind: str | None = None
    verdict_tags: tuple[str, ...] = ()
    suspicion: float | None = None
    perpetrators: tuple[int, ...] = ()

    @property
    def one_time(self) -> bool:
        """True for conflicts seen on exactly one snapshot."""
        return self.days_observed == 1

    def episode_dict(self) -> dict:
        """The record in :func:`~repro.analysis.export.episode_record`
        shape — key order and values byte-identical to the fold's
        answer for the same prefix."""
        record = {
            "prefix": str(self.prefix),
            "prefix_length": self.prefix.length,
            "first_day": self.first_day.isoformat(),
            "last_day": self.last_day.isoformat(),
            "days_observed": self.days_observed,
            "origins": list(self.origins),
            "max_origins_single_day": self.max_origins_single_day,
            "ongoing": self.ongoing,
            "one_time": self.one_time,
        }
        if self.rpki_state is not None:
            record["rpki_state"] = self.rpki_state
        return record

    def verdict_dict(self) -> dict | None:
        """The verdict slice of the record, or ``None`` without one."""
        if self.verdict_kind is None:
            return None
        return {
            "kind": self.verdict_kind,
            "tags": list(self.verdict_tags),
            "suspicion": self.suspicion,
            "perpetrators": list(self.perpetrators),
        }


@dataclass(frozen=True, slots=True)
class QueryAnswer:
    """One resolved point/range query against the index."""

    record: IndexRecord
    #: The queried day window (the episode's own span when the query
    #: named no ``--day``/``--range``).
    window_start: datetime.date
    window_end: datetime.date
    #: True when the caller supplied an explicit day or range.
    explicit_window: bool
    #: Episode interval overlaps the window.
    active: bool
    #: Days of interval overlap between episode span and window.
    overlap_days: int
    #: Episodes (study-wide) whose span overlaps the window.
    concurrent_episodes: int
    total_episodes: int
    days_indexed: int
    last_day: datetime.date | None

    def to_dict(self) -> dict:
        """The JSON answer shape of ``repro query`` / ``/v1/history``."""
        return {
            "query": {
                "prefix": str(self.record.prefix),
                "window_start": self.window_start.isoformat(),
                "window_end": self.window_end.isoformat(),
                "explicit_window": self.explicit_window,
                "active": self.active,
                "overlap_days": self.overlap_days,
                "concurrent_episodes": self.concurrent_episodes,
                "total_episodes": self.total_episodes,
                "days_indexed": self.days_indexed,
                "last_day": (
                    self.last_day.isoformat() if self.last_day else None
                ),
            },
            "episode": self.record.episode_dict(),
            "verdict": self.record.verdict_dict(),
        }


class EpisodeIndex:
    """The prefix→episode-history store (in memory or on disk).

    Build one from fold outputs (:meth:`build` /
    :meth:`from_records`), derive a later fold's from it
    (:meth:`rederived`), persist with :meth:`save`, reopen with
    :meth:`load`.  Storage is columnar: parallel per-record columns
    sorted by ``Prefix.sort_key()``, so :meth:`lookup` is a bisect and
    :meth:`active_count` is two bisects — never a scan.
    """

    __slots__ = (
        "days_indexed",
        "last_day",
        "_keys",
        "_first_ords",
        "_last_ords",
        "_days_observed",
        "_widths",
        "_origin_sets",
        "_flags",
        "_rpki_states",
        "_verdicts",
        "_sorted_firsts",
        "_sorted_lasts",
        "_trie",
    )

    def __init__(
        self, *, days_indexed: int = 0, last_day=None
    ) -> None:
        #: Days the producing session had folded; day-boundary stamp.
        self.days_indexed = days_indexed
        self.last_day = last_day
        self._keys: list[int] = []
        self._first_ords: list[int] = []
        self._last_ords: list[int] = []
        self._days_observed: list[int] = []
        self._widths: list[int] = []
        self._origin_sets: list[tuple[int, ...]] = []
        self._flags: list[int] = []
        self._rpki_states: list[str | None] = []
        #: (kind, tags, perpetrators, suspicion) or None, per record.
        self._verdicts: list[tuple | None] = []
        self._sorted_firsts: list[int] = []
        self._sorted_lasts: list[int] = []
        self._trie: PrefixTrie | None = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_records(
        cls,
        records: Iterable[IndexRecord],
        *,
        days_indexed: int = 0,
        last_day=None,
    ) -> "EpisodeIndex":
        """Build an index from records sorted by ``Prefix.sort_key()``.

        Streaming: records are consumed one at a time, so a
        million-episode index never materializes a record list.  Raises
        :class:`ValueError` on out-of-order or duplicate prefixes —
        sorted input is what makes every lookup a bisect.
        """
        index = cls(days_indexed=days_indexed, last_day=last_day)
        columns = index._record_columns()
        previous = -1
        for record in records:
            row = _row(record)
            key = row[0]
            if key <= previous:
                raise ValueError(
                    f"index records must be sorted by prefix with no "
                    f"duplicates; {record.prefix} is out of order"
                )
            previous = key
            for column, value in zip(columns, row):
                column.append(value)
        index._finish()
        return index

    @classmethod
    def build(
        cls, results, verdicts: dict | None = None
    ) -> "EpisodeIndex":
        """Index a fold's :class:`~repro.analysis.pipeline.StudyResults`.

        ``verdicts`` optionally maps ``Prefix`` to
        :class:`~repro.core.verdict.Verdict` (the verdict engine's
        ``finalize`` output over the same day stream); episodes without
        a verdict index fine — the verdict slice is just absent.
        """
        verdicts = verdicts or {}
        return cls.from_records(
            (
                _index_record(results, verdicts, prefix)
                for prefix in sorted(
                    results.episodes, key=lambda p: p.sort_key()
                )
            ),
            days_indexed=results.total_days,
            last_day=_last_day(results),
        )

    def rederived(
        self, results, verdicts: dict, prefixes: Iterable[Prefix]
    ) -> "EpisodeIndex":
        """A new index: this one with ``prefixes`` indexed afresh.

        ``results`` and ``verdicts`` are what :meth:`build` would take
        for the new index, and ``prefixes`` must name every episode
        whose record differs from this index's: a changed record
        replaces its row, a new one is inserted, each found by a bisect
        into the key column and the sorted first/last-day columns.
        The columns are copied first, so this index is never mutated
        and a reader still holding it keeps a consistent view.  The
        result equals :meth:`build` over the same inputs.
        """
        index = EpisodeIndex(
            days_indexed=results.total_days, last_day=_last_day(results)
        )
        columns = index._record_columns()
        for column, source in zip(columns, self._record_columns()):
            column.extend(source)
        keys = index._keys
        firsts = index._sorted_firsts = list(self._sorted_firsts)
        lasts = index._sorted_lasts = list(self._sorted_lasts)
        for prefix in sorted(prefixes, key=lambda p: p.sort_key()):
            row = _row(_index_record(results, verdicts, prefix))
            key = row[0]
            position = bisect_left(keys, key)
            if position < len(keys) and keys[position] == key:
                del firsts[bisect_left(firsts, index._first_ords[position])]
                del lasts[bisect_left(lasts, index._last_ords[position])]
                for column, value in zip(columns, row):
                    column[position] = value
            else:
                for column, value in zip(columns, row):
                    column.insert(position, value)
            insort(firsts, row[1])
            insort(lasts, row[2])
        return index

    def _record_columns(self) -> tuple[list, ...]:
        """The per-record columns, in :func:`_row` order."""
        return (
            self._keys,
            self._first_ords,
            self._last_ords,
            self._days_observed,
            self._widths,
            self._origin_sets,
            self._flags,
            self._rpki_states,
            self._verdicts,
        )

    def _finish(self) -> None:
        """Derive the day-interval index from the record columns."""
        self._sorted_firsts = sorted(self._first_ords)
        self._sorted_lasts = sorted(self._last_ords)
        self._trie = None

    # -- queries -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._keys)

    def prefixes(self) -> Iterator[Prefix]:
        """Every indexed prefix in ``sort_key()`` (trie walk) order."""
        for key in self._keys:
            yield Prefix(key >> 6, key & 0x3F, strict=False)

    def record_at(self, position: int) -> IndexRecord:
        """Materialize the record at one column position."""
        key = self._keys[position]
        verdict = self._verdicts[position]
        return IndexRecord(
            prefix=Prefix(key >> 6, key & 0x3F, strict=False),
            first_day=datetime.date.fromordinal(
                self._first_ords[position]
            ),
            last_day=datetime.date.fromordinal(
                self._last_ords[position]
            ),
            days_observed=self._days_observed[position],
            origins=self._origin_sets[position],
            max_origins_single_day=self._widths[position],
            ongoing=bool(self._flags[position] & _FLAG_ONGOING),
            rpki_state=self._rpki_states[position],
            verdict_kind=verdict[0] if verdict is not None else None,
            verdict_tags=verdict[1] if verdict is not None else (),
            perpetrators=verdict[2] if verdict is not None else (),
            suspicion=verdict[3] if verdict is not None else None,
        )

    def _position(self, prefix: Prefix) -> int | None:
        key = (prefix.network << 6) | prefix.length
        position = bisect_left(self._keys, key)
        if position < len(self._keys) and self._keys[position] == key:
            return position
        return None

    def lookup(self, prefix: Prefix) -> IndexRecord | None:
        """The prefix's history record, or ``None`` — one bisect."""
        position = self._position(prefix)
        return None if position is None else self.record_at(position)

    def active_count(
        self, start: datetime.date, end: datetime.date
    ) -> int:
        """Episodes whose span overlaps ``[start, end]`` — O(log n).

        Overlap counting by complement: an episode misses the window
        exactly when it starts after ``end`` or ends before ``start``,
        and those two sets are disjoint, so two bisects over the
        day-sorted columns give the exact count.
        """
        if end < start:
            start, end = end, start
        start_ord, end_ord = start.toordinal(), end.toordinal()
        total = len(self._keys)
        starts_after = total - bisect_right(
            self._sorted_firsts, end_ord
        )
        ends_before = bisect_left(self._sorted_lasts, start_ord)
        return total - starts_after - ends_before

    def query(
        self,
        prefix: Prefix,
        *,
        day: datetime.date | None = None,
        window: tuple[datetime.date, datetime.date] | None = None,
    ) -> QueryAnswer | None:
        """Resolve a point (``day``) or range (``window``) query.

        Returns ``None`` for a prefix the index holds no episode for.
        Without an explicit window the episode's own span is the
        window, so the answer always carries the full history plus the
        study-wide concurrency of that span.
        """
        if day is not None and window is not None:
            raise ValueError("pass day or window, not both")
        record = self.lookup(prefix)
        if record is None:
            return None
        if day is not None:
            start = end = day
        elif window is not None:
            start, end = window
            if end < start:
                start, end = end, start
        else:
            start, end = record.first_day, record.last_day
        overlap = (
            min(record.last_day, end).toordinal()
            - max(record.first_day, start).toordinal()
            + 1
        )
        return QueryAnswer(
            record=record,
            window_start=start,
            window_end=end,
            explicit_window=day is not None or window is not None,
            active=overlap > 0,
            overlap_days=max(0, overlap),
            concurrent_episodes=self.active_count(start, end),
            total_episodes=len(self._keys),
            days_indexed=self.days_indexed,
            last_day=self.last_day,
        )

    # -- structural queries (trie-backed) ------------------------------------

    def _ensure_trie(self) -> PrefixTrie:
        """The record-position trie, built on first structural query.

        Point lookups never need it (the key column *is* the trie's
        lexicographic walk); ``covering``/``covered`` do, and a
        million-record trie is too heavy to build speculatively.
        """
        if self._trie is None:
            trie = PrefixTrie()
            for position, prefix in enumerate(self.prefixes()):
                trie[prefix] = position
            self._trie = trie
        return self._trie

    def covering(self, prefix: Prefix) -> list[IndexRecord]:
        """Indexed records whose prefix covers ``prefix`` (incl. it)."""
        trie = self._ensure_trie()
        return [
            self.record_at(position)
            for _covering, position in trie.covering(prefix)
        ]

    def covered(self, prefix: Prefix) -> list[IndexRecord]:
        """Indexed records at or under ``prefix``, in walk order."""
        trie = self._ensure_trie()
        return [
            self.record_at(position)
            for _covered, position in trie.covered(prefix)
        ]

    # -- on-disk form --------------------------------------------------------

    def save(self, path: Path | str) -> Path:
        """Write the index to ``path`` atomically (torn-file safe)."""
        return atomic_write_bytes(path, self.to_bytes())

    def to_bytes(self) -> bytes:
        """The full on-disk wire form (see the module layout doc).

        Deterministic: two indexes holding the same records — however
        they were folded — encode to identical bytes, which is the
        byte-equivalence the property suite pins across archive
        formats and workers×shards layouts.
        """
        out = bytearray(INDEX_MAGIC)

        meta = bytearray()
        append_uvarint(meta, _VERSION)
        append_uvarint(meta, len(self._keys))
        append_uvarint(meta, self.days_indexed)
        append_uvarint(
            meta,
            self.last_day.toordinal() if self.last_day else 0,
        )
        _append_frame(out, meta)

        strings: dict[str, int] = {}
        origin_sets: dict[tuple[int, ...], int] = {}

        def string_id(text: str) -> int:
            return strings.setdefault(text, len(strings))

        def set_id(values: tuple[int, ...]) -> int:
            return origin_sets.setdefault(values, len(origin_sets))

        records = bytearray()
        for position, key in enumerate(self._keys):
            append_uvarint(records, key >> 6)
            append_uvarint(records, key & 0x3F)
            first = self._first_ords[position]
            append_uvarint(records, first)
            append_uvarint(records, self._last_ords[position] - first)
            append_uvarint(records, self._days_observed[position])
            append_uvarint(records, self._widths[position])
            append_uvarint(
                records, set_id(self._origin_sets[position])
            )
            flags = self._flags[position]
            append_uvarint(records, flags)
            if flags & _FLAG_RPKI:
                append_uvarint(
                    records, string_id(self._rpki_states[position])
                )
            if flags & _FLAG_VERDICT:
                kind, tags, perpetrators, suspicion = self._verdicts[
                    position
                ]
                append_uvarint(records, string_id(kind))
                append_uvarint(records, len(tags))
                for tag in tags:
                    append_uvarint(records, string_id(tag))
                append_uvarint(records, set_id(perpetrators))
                records += _F64.pack(suspicion)

        string_table = bytearray()
        append_uvarint(string_table, len(strings))
        for text in strings:  # insertion order == id order
            raw = text.encode("utf-8")
            append_uvarint(string_table, len(raw))
            string_table += raw
        _append_frame(out, string_table)

        set_table = bytearray()
        append_uvarint(set_table, len(origin_sets))
        for values in origin_sets:  # insertion order == id order
            append_uvarint(set_table, len(values))
            previous = 0
            for value in values:
                append_uvarint(set_table, value - previous)
                previous = value
        _append_frame(out, set_table)

        records_offset = len(out)
        _append_frame(out, records)

        intervals = bytearray()
        for ordinal in self._sorted_firsts:
            append_uvarint(intervals, ordinal)
        for ordinal in self._sorted_lasts:
            append_uvarint(intervals, ordinal)
        intervals_offset = len(out)
        _append_frame(out, intervals)

        out += _TRAILER.pack(
            records_offset,
            intervals_offset,
            len(self._keys),
            zlib.crc32(out),
            _END_MAGIC,
        )
        return bytes(out)

    @classmethod
    def load(cls, path: Path | str) -> "EpisodeIndex":
        """Read an index file; :class:`ArchiveError` on any corruption."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise ArchiveError(
                f"no episode index at {path}; build one with "
                f"'repro analyze --index'"
            ) from None
        if len(raw) < len(INDEX_MAGIC) + _TRAILER.size:
            raise ArchiveError(
                f"episode index {path} is truncated "
                f"({len(raw)} bytes)"
            )
        if raw[: len(INDEX_MAGIC)] != INDEX_MAGIC:
            raise ArchiveError(
                f"{path} is not an episode index (bad magic)"
            )
        trailer_start = len(raw) - _TRAILER.size
        (
            records_offset,
            intervals_offset,
            record_count,
            file_crc,
            end_magic,
        ) = _TRAILER.unpack_from(raw, trailer_start)
        if end_magic != _END_MAGIC:
            raise ArchiveError(
                f"episode index {path} trailer missing or truncated "
                f"(bad end magic)"
            )
        if zlib.crc32(raw[:trailer_start]) != file_crc:
            raise ArchiveError(
                f"episode index {path} failed its checksum "
                f"(corrupt or bit-flipped)"
            )
        if not (
            len(INDEX_MAGIC)
            <= records_offset
            <= intervals_offset
            <= trailer_start
        ):
            raise ArchiveError(
                f"episode index {path} frame bounds are out of order"
            )
        try:
            return cls._decode(
                raw, trailer_start, records_offset, record_count
            )
        except (struct.error, IndexError, ValueError) as error:
            if isinstance(error, ArchiveError):
                raise
            raise ArchiveError(
                f"episode index {path} is corrupt: {error}"
            ) from error

    @classmethod
    def _decode(
        cls,
        raw: bytes,
        trailer_start: int,
        records_offset: int,
        record_count: int,
    ) -> "EpisodeIndex":
        position = len(INDEX_MAGIC)
        meta, position = _read_frame(raw, position, trailer_start)
        version, at = decode_uvarint(meta, 0)
        if version != _VERSION:
            raise ArchiveError(
                f"unsupported episode index version {version}; "
                f"expected {_VERSION}"
            )
        meta_count, at = decode_uvarint(meta, at)
        if meta_count != record_count:
            raise ArchiveError(
                "episode index meta and trailer disagree on the "
                "record count"
            )
        days_indexed, at = decode_uvarint(meta, at)
        last_ord, at = decode_uvarint(meta, at)
        index = cls(
            days_indexed=days_indexed,
            last_day=(
                datetime.date.fromordinal(last_ord)
                if last_ord
                else None
            ),
        )

        table, position = _read_frame(raw, position, trailer_start)
        count, at = decode_uvarint(table, 0)
        strings: list[str] = []
        for _ in range(count):
            length, at = decode_uvarint(table, at)
            strings.append(table[at:at + length].decode("utf-8"))
            at += length

        table, position = _read_frame(raw, position, trailer_start)
        count, at = decode_uvarint(table, 0)
        origin_sets: list[tuple[int, ...]] = []
        for _ in range(count):
            size, at = decode_uvarint(table, at)
            values = []
            previous = 0
            for _ in range(size):
                delta, at = decode_uvarint(table, at)
                previous += delta
                values.append(previous)
            origin_sets.append(tuple(values))

        if position != records_offset:
            raise ArchiveError(
                "episode index record frame is not where the "
                "trailer points"
            )
        body, position = _read_frame(raw, position, trailer_start)
        at = 0
        previous_key = -1
        for _ in range(record_count):
            network, at = decode_uvarint(body, at)
            length, at = decode_uvarint(body, at)
            key = (network << 6) | length
            if key <= previous_key:
                raise ArchiveError(
                    "episode index records are not in prefix order"
                )
            previous_key = key
            first, at = decode_uvarint(body, at)
            span, at = decode_uvarint(body, at)
            days, at = decode_uvarint(body, at)
            width, at = decode_uvarint(body, at)
            set_index, at = decode_uvarint(body, at)
            flags, at = decode_uvarint(body, at)
            index._keys.append(key)
            index._first_ords.append(first)
            index._last_ords.append(first + span)
            index._days_observed.append(days)
            index._widths.append(width)
            index._origin_sets.append(origin_sets[set_index])
            index._flags.append(flags)
            if flags & _FLAG_RPKI:
                sid, at = decode_uvarint(body, at)
                index._rpki_states.append(strings[sid])
            else:
                index._rpki_states.append(None)
            if flags & _FLAG_VERDICT:
                kind_sid, at = decode_uvarint(body, at)
                tag_count, at = decode_uvarint(body, at)
                tags = []
                for _ in range(tag_count):
                    sid, at = decode_uvarint(body, at)
                    tags.append(strings[sid])
                perp_index, at = decode_uvarint(body, at)
                (suspicion,) = _F64.unpack_from(body, at)
                at += _F64.size
                index._verdicts.append(
                    (
                        strings[kind_sid],
                        tuple(tags),
                        origin_sets[perp_index],
                        suspicion,
                    )
                )
            else:
                index._verdicts.append(None)
        if at != len(body):
            raise ArchiveError(
                "episode index record frame has trailing bytes"
            )

        body, position = _read_frame(raw, position, trailer_start)
        at = 0
        for column in (index._sorted_firsts, index._sorted_lasts):
            for _ in range(record_count):
                ordinal, at = decode_uvarint(body, at)
                column.append(ordinal)
        if position != trailer_start:
            raise ArchiveError(
                "episode index has unframed bytes before the trailer"
            )
        return index


def _last_day(results) -> datetime.date | None:
    """The last day a fold's results cover, or ``None`` before any."""
    return results.daily_series[-1][0] if results.daily_series else None


def _index_record(results, verdicts: dict, prefix: Prefix) -> IndexRecord:
    """One episode of ``results`` with its RPKI rollup and verdict."""
    episode = results.episodes[prefix]
    verdict = verdicts.get(prefix)
    return IndexRecord(
        prefix=prefix,
        first_day=episode.first_day,
        last_day=episode.last_day,
        days_observed=episode.days_observed,
        origins=tuple(sorted(episode.origins_ever)),
        max_origins_single_day=episode.max_origins_single_day,
        ongoing=episode.ongoing,
        rpki_state=results.rpki_episode_states.get(prefix),
        verdict_kind=verdict.kind if verdict is not None else None,
        verdict_tags=(
            tuple(sorted(verdict.tags)) if verdict is not None else ()
        ),
        suspicion=verdict.suspicion if verdict is not None else None,
        perpetrators=(
            tuple(sorted(verdict.perpetrators))
            if verdict is not None
            else ()
        ),
    )


def changed_prefixes(
    old_results, old_verdicts: dict, results, verdicts: dict
) -> list[Prefix] | None:
    """Episodes whose record may differ between two build inputs.

    A record derives from its prefix's episode, verdict and RPKI
    rollup, all immutable, so a prefix whose three are the very objects
    the old inputs held has an unchanged record, and
    :meth:`EpisodeIndex.rederived` can skip it.  Returns ``None`` when
    an episode of the old inputs is gone, which no fold produces.
    """
    old_episodes = old_results.episodes
    old_states = old_results.rpki_episode_states
    states = results.rpki_episode_states
    changed = []
    added = 0
    for prefix, episode in results.episodes.items():
        if (
            episode is not old_episodes.get(prefix)
            or verdicts.get(prefix) is not old_verdicts.get(prefix)
            or states.get(prefix) is not old_states.get(prefix)
        ):
            changed.append(prefix)
            added += prefix not in old_episodes
    if len(results.episodes) != len(old_episodes) + added:
        return None
    return changed


def _row(record: IndexRecord) -> tuple:
    """A record's value in each of :meth:`EpisodeIndex._record_columns`."""
    prefix = record.prefix
    flags = _FLAG_ONGOING if record.ongoing else 0
    if record.rpki_state is not None:
        flags |= _FLAG_RPKI
    verdict = None
    if record.verdict_kind is not None:
        flags |= _FLAG_VERDICT
        verdict = (
            record.verdict_kind,
            tuple(record.verdict_tags),
            tuple(record.perpetrators),
            record.suspicion,
        )
    return (
        (prefix.network << 6) | prefix.length,
        record.first_day.toordinal(),
        record.last_day.toordinal(),
        record.days_observed,
        record.max_origins_single_day,
        tuple(record.origins),
        flags,
        record.rpki_state,
        verdict,
    )


def _append_frame(out: bytearray, body: bytes | bytearray) -> None:
    """Write one length-prefixed, CRC-checked frame (v2 shape)."""
    out += _FRAME_HEADER.pack(len(body), zlib.crc32(body))
    out += body


def _read_frame(
    raw: bytes, position: int, limit: int
) -> tuple[bytes, int]:
    """Read and verify one frame; returns (body, next position)."""
    if position + _FRAME_HEADER.size > limit:
        raise ArchiveError(
            "episode index frame header runs past the trailer"
        )
    body_len, body_crc = _FRAME_HEADER.unpack_from(raw, position)
    start = position + _FRAME_HEADER.size
    end = start + body_len
    if end > limit:
        raise ArchiveError(
            "episode index frame body runs past the trailer"
        )
    body = raw[start:end]
    if zlib.crc32(body) != body_crc:
        raise ArchiveError(
            "episode index frame failed its CRC (bit flip?)"
        )
    return body, end
