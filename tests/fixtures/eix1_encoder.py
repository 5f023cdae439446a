"""The EIX1 episode-index encoder, kept only to prove EIX1 stays readable.

``repro`` writes EIX2 and reads EIX1 through its original decoder; this
is the encoder that wrote EIX1, unchanged except that it reads an
index through :meth:`EpisodeIndex.record_at` instead of its private
columns.  It reproduces the committed ``episode_index/golden.idx``
byte for byte, and the property suite feeds its output to
:meth:`EpisodeIndex.load` beside the EIX2 bytes of the same study.
"""

import struct
import zlib

from repro.analysis.index import EpisodeIndex
from repro.util.varint import append_uvarint

_TRAILER = struct.Struct("<QQII8s")
_FRAME_HEADER = struct.Struct("<II")
_F64 = struct.Struct("<d")


def eix1_bytes(index: EpisodeIndex) -> bytes:
    """``index`` in the EIX1 wire form (see the index module doc)."""
    records = [index.record_at(position) for position in range(len(index))]
    out = bytearray(b"EIX1")

    meta = bytearray()
    append_uvarint(meta, 1)
    append_uvarint(meta, len(records))
    append_uvarint(meta, index.days_indexed)
    append_uvarint(
        meta, index.last_day.toordinal() if index.last_day else 0
    )
    _append_frame(out, meta)

    strings: dict[str, int] = {}
    origin_sets: dict[tuple[int, ...], int] = {}

    def string_id(text: str) -> int:
        return strings.setdefault(text, len(strings))

    def set_id(values: tuple[int, ...]) -> int:
        return origin_sets.setdefault(values, len(origin_sets))

    body = bytearray()
    for record in records:
        append_uvarint(body, record.prefix.network)
        append_uvarint(body, record.prefix.length)
        first = record.first_day.toordinal()
        append_uvarint(body, first)
        append_uvarint(body, record.last_day.toordinal() - first)
        append_uvarint(body, record.days_observed)
        append_uvarint(body, record.max_origins_single_day)
        append_uvarint(body, set_id(record.origins))
        flags = (
            (0x01 if record.ongoing else 0)
            | (0x02 if record.rpki_state is not None else 0)
            | (0x04 if record.verdict_kind is not None else 0)
        )
        append_uvarint(body, flags)
        if record.rpki_state is not None:
            append_uvarint(body, string_id(record.rpki_state))
        if record.verdict_kind is not None:
            append_uvarint(body, string_id(record.verdict_kind))
            append_uvarint(body, len(record.verdict_tags))
            for tag in record.verdict_tags:
                append_uvarint(body, string_id(tag))
            append_uvarint(body, set_id(record.perpetrators))
            body += _F64.pack(record.suspicion)

    string_table = bytearray()
    append_uvarint(string_table, len(strings))
    for text in strings:
        raw = text.encode("utf-8")
        append_uvarint(string_table, len(raw))
        string_table += raw
    _append_frame(out, string_table)

    set_table = bytearray()
    append_uvarint(set_table, len(origin_sets))
    for values in origin_sets:
        append_uvarint(set_table, len(values))
        previous = 0
        for value in values:
            append_uvarint(set_table, value - previous)
            previous = value
    _append_frame(out, set_table)

    records_offset = len(out)
    _append_frame(out, body)

    intervals = bytearray()
    for ordinal in sorted(record.first_day.toordinal() for record in records):
        append_uvarint(intervals, ordinal)
    for ordinal in sorted(record.last_day.toordinal() for record in records):
        append_uvarint(intervals, ordinal)
    intervals_offset = len(out)
    _append_frame(out, intervals)

    out += _TRAILER.pack(
        records_offset,
        intervals_offset,
        len(records),
        zlib.crc32(out),
        b"EIX1.END",
    )
    return bytes(out)


def _append_frame(out: bytearray, body: bytes | bytearray) -> None:
    out += _FRAME_HEADER.pack(len(body), zlib.crc32(body))
    out += body
