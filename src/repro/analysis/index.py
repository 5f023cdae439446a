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
  episodes, with no trie;
- a day-interval index (the sorted first-day and last-day columns)
  answers "how many episodes were active in [A, B]?" in O(log n) in
  days: overlaps = N - #(first > B) - #(last < A), the two exclusion
  sets being disjoint.

On disk the index is a side file (``episodes.idx``) written beside the
archive.  :meth:`EpisodeIndex.save` writes EIX2: fixed-width column
frames that a cold ``repro query`` opens as arrays instead of decoding
record by record.  Every integer is **little-endian** whatever the
host's byte order (a big-endian host byte-swaps the columns it reads
and writes); u8/u32/u64 are unsigned and f64 is an IEEE 754 double::

    MAGIC "EIX2"
    frame: meta          5 x u32: version (2), record count n, days
                         indexed, last day ordinal (0 = none), tag
                         base b (tuple ids below b are ASN sets)
    frames: columns      n rows each, sorted by (network, length), one
                         frame per column: key u64 (network << 6 |
                         length), first day u32, last day u32 (day
                         ordinals), days observed u32, peak width u32,
                         origin-set id u32, flags u8, RPKI string id
                         u32, verdict kind string id u32, tag-tuple id
                         u32 (names tuple b + id), perpetrator-set id
                         u32, suspicion f64
    frames: intervals    first-day and last-day columns, day-sorted,
                         u32 x n each
    frames: strings      u32 offsets (count + 1, in code points), then
                         the UTF-8 text of every interned string
    frames: tuples       u32 offsets (count + 1), then u32 values: the
                         ASN sets (origin and perpetrator sets), then
                         the tag-id tuples (string ids)
    TRAILER <II8s>       record count, CRC-32 of everything before the
                         trailer, end magic "EIX2.END"

A row whose flags say it has no RPKI state or no verdict holds 0 in
those columns.  Each frame is length-prefixed and CRC-checked exactly
like a v2 ``days.bin`` frame (``<II``: body length, CRC-32 of the
body), and the trailer checksum covers the whole file once more.

Loading reads the file once and verifies it with C-speed reductions
(CRC-32, ``max()``, ``all(map(...))`` over the columns), never a Python
loop over records: magic, end magic and both checksums; frame bounds
and version; meta and trailer agree on the record count; exact column
lengths; keys strictly ascending; ``first <= last``; every table id in
range; table offsets monotone and ending at the values' length.  Every
failure raises :class:`~repro.scenario.archive.ArchiveError`, never a
bare ``struct.error``.  The loaded index serves the columns as arrays
to the same query code as a built one, so a lookup bisects the key
column in place and decodes only the strings and tuples of the record
it answers.

EIX1, the first format (LEB128 varint records, decoded one by one), is
no longer read: loading one raises :class:`ArchiveError` naming
``repro analyze --index``, which rebuilds the index from the archive.
"""

from __future__ import annotations

import datetime
import struct
import sys
import zlib
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from itertools import accumulate, chain, compress, repeat
from operator import and_, le, lt
from pathlib import Path
from typing import Iterable, Iterator

from repro.netbase.prefix import Prefix
from repro.scenario.archive import ArchiveError
from repro.util.io import atomic_write_bytes

#: File name of the index side file inside an archive directory.
INDEX_FILENAME = "episodes.idx"

#: Leading magic of the index file :meth:`EpisodeIndex.save` writes.
INDEX_MAGIC = b"EIX2"

#: Leading magic of the first index format, which is no longer read.
_EIX1_MAGIC = b"EIX1"

#: Trailer: record count, CRC-32 of every byte before the trailer, end
#: magic (the leading magic + ".END").
_TRAILER = struct.Struct("<II8s")
_END_MAGIC = INDEX_MAGIC + b".END"

#: Frame header: body length, CRC-32 of the body (the v2 frame shape).
_FRAME_HEADER = struct.Struct("<II")

#: Encoding version, the first meta field.
_VERSION = 2

#: EIX2 meta frame fields (u32 each): version, record count, days
#: indexed, last day ordinal, tag base.
_META_FIELDS = 5

#: EIX2's per-record column frames in file order: (name, array
#: typecode).  The writer and the loader both walk this table.
_COLUMNS = (
    ("key", "Q"),
    ("first day", "I"),
    ("last day", "I"),
    ("days observed", "I"),
    ("peak width", "I"),
    ("origin set", "I"),
    ("flags", "B"),
    ("RPKI string", "I"),
    ("verdict kind", "I"),
    ("tag tuple", "I"),
    ("perpetrator set", "I"),
    ("suspicion", "d"),
    ("sorted first day", "I"),
    ("sorted last day", "I"),
)

_MAX_ORDINAL = datetime.date.max.toordinal()

#: Columns are little-endian on disk; a big-endian host swaps them.
_BIG_ENDIAN = sys.byteorder == "big"

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
    :meth:`active_count` is two bisects — never a scan.  A built index
    holds lists; a loaded one holds arrays copied from the file's
    column frames, with origin sets, RPKI states and verdicts decoded
    per row on access.  Every query reads both kinds through the same
    code.
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
            row = _row(
                record,
                tuple(record.origins),
                record.rpki_state,
                None
                if record.verdict_kind is None
                else (
                    record.verdict_kind,
                    tuple(record.verdict_tags),
                    tuple(record.perpetrators),
                    record.suspicion,
                ),
            )
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
        index = cls(
            days_indexed=results.total_days, last_day=_last_day(results)
        )
        rows = _fold_rows(
            results,
            verdicts or {},
            sorted(results.episodes, key=Prefix.sort_key),
        )
        for column, values in zip(index._record_columns(), zip(*rows)):
            column.extend(values)
        index._finish()
        return index

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
        for row in _fold_rows(
            results, verdicts, sorted(prefixes, key=Prefix.sort_key)
        ):
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

    # -- on-disk form --------------------------------------------------------

    def save(self, path: Path | str) -> Path:
        """Write the index to ``path`` atomically (torn-file safe)."""
        return atomic_write_bytes(path, self.to_bytes())

    def to_bytes(self) -> bytes:
        """The full on-disk wire form: EIX2 (see the module layout doc).

        Deterministic: two indexes holding the same records — however
        they were folded — encode to identical bytes, which is the
        byte-equivalence the property suite pins across archive
        formats and worker counts.
        """
        strings: dict[str, int] = {}
        sets: dict[tuple[int, ...], int] = {}
        tag_tuples: dict[tuple[int, ...], int] = {}

        def string_id(text: str) -> int:
            return strings.setdefault(text, len(strings))

        def set_id(values: tuple[int, ...]) -> int:
            return sets.setdefault(values, len(sets))

        origin_ids = list(map(set_id, self._origin_sets))
        rpki_ids = [
            0 if state is None else string_id(state)
            for state in self._rpki_states
        ]
        kinds, tags, perpetrators, suspicions = [], [], [], []
        for verdict in self._verdicts:
            if verdict is None:
                kinds.append(0)
                tags.append(0)
                perpetrators.append(0)
                suspicions.append(0.0)
                continue
            kind, names, perps, suspicion = verdict
            kinds.append(string_id(kind))
            tags.append(
                tag_tuples.setdefault(
                    tuple(map(string_id, names)), len(tag_tuples)
                )
            )
            perpetrators.append(set_id(perps))
            suspicions.append(suspicion)
        tuples = [*sets, *tag_tuples]  # insertion order == id order

        out = bytearray(INDEX_MAGIC)
        meta = (
            _VERSION,
            len(self._keys),
            self.days_indexed,
            self.last_day.toordinal() if self.last_day else 0,
            len(sets),
        )
        columns = (
            self._keys,
            self._first_ords,
            self._last_ords,
            self._days_observed,
            self._widths,
            origin_ids,
            self._flags,
            rpki_ids,
            kinds,
            tags,
            perpetrators,
            suspicions,
            self._sorted_firsts,
            self._sorted_lasts,
        )
        _append_frame(out, _packed("I", meta))
        for (_name, code), values in zip(_COLUMNS, columns):
            _append_frame(out, _packed(code, values))
        _append_frame(out, _packed("I", _offsets(strings)))
        _append_frame(out, "".join(strings).encode("utf-8"))
        _append_frame(out, _packed("I", _offsets(tuples)))
        _append_frame(out, _packed("I", chain.from_iterable(tuples)))
        out += _TRAILER.pack(len(self._keys), zlib.crc32(out), _END_MAGIC)
        return bytes(out)

    @classmethod
    def load(cls, path: Path | str) -> "EpisodeIndex":
        """Read an EIX2 index file; :class:`ArchiveError` on any
        corruption, and on an EIX1 file, which is no longer read."""
        path = Path(path)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            raise ArchiveError(
                f"no episode index at {path}; build one with "
                f"'repro analyze --index'"
            ) from None
        magic = raw[: len(INDEX_MAGIC)]
        if magic == _EIX1_MAGIC:
            raise ArchiveError(
                f"episode index {path} is EIX1, a format no longer "
                f"read; rebuild it with 'repro analyze --index'"
            )
        trailer_start = len(raw) - _TRAILER.size
        if trailer_start < len(INDEX_MAGIC):
            raise ArchiveError(
                f"episode index {path} is truncated "
                f"({len(raw)} bytes)"
            )
        if magic != INDEX_MAGIC:
            raise ArchiveError(
                f"{path} is not an episode index (bad magic)"
            )
        record_count, file_crc, end_magic = _TRAILER.unpack_from(
            raw, trailer_start
        )
        if end_magic != _END_MAGIC:
            raise ArchiveError(
                f"episode index {path} trailer missing or truncated "
                f"(bad end magic)"
            )
        if zlib.crc32(memoryview(raw)[:trailer_start]) != file_crc:
            raise ArchiveError(
                f"episode index {path} failed its checksum "
                f"(corrupt or bit-flipped)"
            )
        try:
            return cls._decode(raw, trailer_start, record_count)
        except (
            struct.error,
            IndexError,
            TypeError,
            ValueError,
            OverflowError,
        ) as error:
            if isinstance(error, ArchiveError):
                raise
            raise ArchiveError(
                f"episode index {path} is corrupt: {error}"
            ) from error

    @classmethod
    def _decode(
        cls, raw: bytes, trailer_start: int, record_count: int
    ) -> "EpisodeIndex":
        """Open an EIX2 body: verify it, then serve its column frames."""
        raw = memoryview(raw)
        position = len(INDEX_MAGIC)

        def frame() -> memoryview:
            nonlocal position
            body, position = _read_frame(raw, position, trailer_start)
            return body

        meta = _column("I", frame(), _META_FIELDS, "meta")
        version, count, days_indexed, last_ord, tag_base = meta
        if version != _VERSION:
            raise ArchiveError(
                f"unsupported episode index version {version}; "
                f"expected {_VERSION}"
            )
        if count != record_count:
            raise ArchiveError(
                "episode index meta and trailer disagree on the "
                "record count"
            )
        (
            keys,
            firsts,
            lasts,
            days_observed,
            widths,
            origin_ids,
            flags,
            rpki_ids,
            kinds,
            tags,
            perpetrators,
            suspicions,
            sorted_firsts,
            sorted_lasts,
        ) = [_column(code, frame(), count, name) for name, code in _COLUMNS]
        strings = _Table(
            _column("I", frame(), None, "string offsets"),
            str(frame(), "utf-8"),
            str,
            "string",
        )
        tuples = _Table(
            _column("I", frame(), None, "tuple offsets"),
            _column("I", frame(), None, "tuple values"),
            tuple,
            "tuple",
        )
        if position != trailer_start:
            raise ArchiveError(
                "episode index has unframed bytes before the trailer"
            )

        if not all(map(lt, keys[:-1], keys[1:])):
            raise ArchiveError(
                "episode index keys are not strictly ascending "
                "(records out of prefix order, or a duplicate)"
            )
        if not all(map(le, firsts, lasts)):
            raise ArchiveError(
                "episode index has an episode whose first day is "
                "after its last day"
            )
        if last_ord > _MAX_ORDINAL or count and (
            min(firsts) < 1 or max(lasts) > _MAX_ORDINAL
        ):
            raise ArchiveError("episode index day ordinal out of range")
        if tag_base > len(tuples):
            raise ArchiveError("episode index tag base is out of range")
        # Ids of a field a row's flags mark absent are 0 and unchecked.
        rpki_rows = bytes(map(and_, flags, repeat(_FLAG_RPKI)))
        verdict_rows = bytes(map(and_, flags, repeat(_FLAG_VERDICT)))
        for ids, limit, what in (
            (origin_ids, tag_base, "origin set"),
            (compress(rpki_ids, rpki_rows), len(strings), "RPKI string"),
            (
                compress(kinds, verdict_rows),
                len(strings),
                "verdict kind string",
            ),
            (
                compress(tags, verdict_rows),
                len(tuples) - tag_base,
                "tag tuple",
            ),
            (
                compress(perpetrators, verdict_rows),
                tag_base,
                "perpetrator set",
            ),
            (
                tuples.values[tuples.offsets[tag_base]:],
                len(strings),
                "tag string",
            ),
        ):
            if max(ids, default=-1) >= limit:
                raise ArchiveError(
                    f"episode index {what} id out of range"
                )

        def verdict(row: int) -> tuple | None:
            if not flags[row] & _FLAG_VERDICT:
                return None
            return (
                strings[kinds[row]],
                tuple(map(strings.__getitem__, tuples[tag_base + tags[row]])),
                tuples[perpetrators[row]],
                suspicions[row],
            )

        index = cls(
            days_indexed=days_indexed,
            last_day=(
                datetime.date.fromordinal(last_ord) if last_ord else None
            ),
        )
        index._keys = keys
        index._first_ords = firsts
        index._last_ords = lasts
        index._days_observed = days_observed
        index._widths = widths
        index._origin_sets = _Decoded(
            lambda row: tuples[origin_ids[row]], count
        )
        index._flags = flags
        index._rpki_states = _Decoded(
            lambda row: (
                strings[rpki_ids[row]] if flags[row] & _FLAG_RPKI else None
            ),
            count,
        )
        index._verdicts = _Decoded(verdict, count)
        index._sorted_firsts = sorted_firsts
        index._sorted_lasts = sorted_lasts
        return index


def _last_day(results) -> datetime.date | None:
    """The last day a fold's results cover, or ``None`` before any."""
    return results.daily_series[-1][0] if results.daily_series else None


def _fold_rows(results, verdicts: dict, prefixes) -> Iterator[tuple]:
    """The :func:`_row` of each of ``prefixes``' episodes in a fold's
    ``results``, with its RPKI rollup and its verdict."""
    episodes = results.episodes
    states = results.rpki_episode_states
    for prefix in prefixes:
        episode = episodes[prefix]
        verdict = verdicts.get(prefix)
        yield _row(
            episode,
            tuple(sorted(episode.origins_ever)),
            states.get(prefix),
            None
            if verdict is None
            else (
                verdict.kind,
                tuple(sorted(verdict.tags)),
                tuple(sorted(verdict.perpetrators)),
                verdict.suspicion,
            ),
        )


def _row(episode, origins: tuple, rpki_state, verdict) -> tuple:
    """A record's value in each of :meth:`EpisodeIndex._record_columns`.

    ``episode`` names the prefix, the first and last day, the days
    observed, the peak width and the ongoing flag as a
    :class:`~repro.core.episodes.ConflictEpisode` and an
    :class:`IndexRecord` both do; ``origins`` is its ascending origin
    tuple, ``rpki_state`` its RFC 6811 rollup and ``verdict`` its
    ``(kind, tags, perpetrators, suspicion)`` slice, either ``None``
    when absent.
    """
    prefix = episode.prefix
    flags = _FLAG_ONGOING if episode.ongoing else 0
    if rpki_state is not None:
        flags |= _FLAG_RPKI
    if verdict is not None:
        flags |= _FLAG_VERDICT
    return (
        (prefix.network << 6) | prefix.length,
        episode.first_day.toordinal(),
        episode.last_day.toordinal(),
        episode.days_observed,
        episode.max_origins_single_day,
        origins,
        flags,
        rpki_state,
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


def _packed(code: str, values) -> bytes:
    """``values`` as a little-endian column of array typecode ``code``."""
    column = array(code, values)
    if _BIG_ENDIAN:
        column.byteswap()
    return column.tobytes()


def _column(code: str, body, rows: int | None, name: str) -> array:
    """An EIX2 column frame as an array of exactly ``rows`` values
    (any whole number of values when ``rows`` is ``None``)."""
    column = array(code)
    width = column.itemsize
    if len(body) % width or rows is not None and len(body) != rows * width:
        raise ArchiveError(
            f"episode index {name} column is {len(body)} bytes, not "
            f"{'whole' if rows is None else rows} {width}-byte values"
        )
    column.frombytes(body)
    if _BIG_ENDIAN:
        column.byteswap()
    return column


def _offsets(entries) -> list[int]:
    """Offset column of an EIX2 table: where each entry starts, then
    the end of the last."""
    return [0, *accumulate(map(len, entries))]


class _Table:
    """A loaded EIX2 table: entry ``i`` is ``values[offsets[i]:
    offsets[i + 1]]``, converted by ``entry`` (``str`` or ``tuple``)
    only when a query reads it."""

    __slots__ = ("offsets", "values", "_entry")

    def __init__(self, offsets: array, values, entry, name: str) -> None:
        if not (
            offsets
            and offsets[0] == 0
            and offsets[-1] == len(values)
            and all(map(le, offsets[:-1], offsets[1:]))
        ):
            raise ArchiveError(
                f"episode index {name} offsets are not monotone from "
                f"0 to the values length"
            )
        self.offsets = offsets
        self.values = values
        self._entry = entry

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, entry: int):
        offsets = self.offsets
        return self._entry(self.values[offsets[entry]:offsets[entry + 1]])


class _Decoded:
    """A loaded index column whose row ``i`` is ``decode(i)``: the
    origin sets, RPKI states and verdicts of an EIX2 file, built from
    its id columns and tables only for the rows a query reads."""

    __slots__ = ("_decode", "_rows")

    def __init__(self, decode, rows: int) -> None:
        self._decode = decode
        self._rows = rows

    def __len__(self) -> int:
        return self._rows

    def __getitem__(self, row: int):
        if not 0 <= row < self._rows:
            raise IndexError(row)
        return self._decode(row)
