"""EIX2 corruption suite: every way an EIX2 file can rot is an ArchiveError.

- **Any single-byte change** to any EIX2 file — hypothesis draws the
  study, the byte and its new value — fails a check: CRC-32 catches
  every burst of 32 bits or fewer inside the checksummed bytes, and the
  trailer's record count is cross-checked against the meta frame.
- **Truncation** at every length, which covers every frame boundary and
  every mid-frame cut.
- **Crafted files** that break exactly one structural invariant while
  :func:`seal` keeps every frame CRC and the trailer checksum valid; the
  error must name the broken invariant.
- ``repro query`` on each corrupt file exits 2 with exactly one
  ``repro query:`` line on stderr.

The frame layout is restated here from the module doc, not imported,
so a writer that drifts from it fails
``test_golden_frames_are_the_documented_layout``.
"""

from __future__ import annotations

import struct
import tempfile
import zlib
from array import array
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.analysis.index import INDEX_FILENAME, EpisodeIndex
from repro.api.cli import main
from repro.scenario.archive import ArchiveError
from tests.analysis.test_index_properties import build_index
from tests.analysis.test_merge_properties import detection_streams, roa_tables

GOLDEN_EIX2 = (
    Path(__file__).parent.parent / "fixtures" / "episode_index" / "golden_eix2.idx"
)

_FRAME = struct.Struct("<II")
_TRAILER = struct.Struct("<II8s")

#: EIX2 frames in file order: (name, array typecode or None for text).
FRAMES = (
    ("meta", "I"),
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
    ("string offsets", "I"),
    ("string text", None),
    ("tuple offsets", "I"),
    ("tuple values", "I"),
)


def split(raw: bytes) -> list[bytes]:
    """The frame bodies of a well-formed EIX2 file, in file order."""
    bodies = []
    position, end = 4, len(raw) - _TRAILER.size
    while position < end:
        length, _crc = _FRAME.unpack_from(raw, position)
        position += _FRAME.size
        bodies.append(raw[position:position + length])
        position += length
    assert position == end
    return bodies


def seal(bodies, count: int | None = None) -> bytes:
    """An EIX2 file of ``bodies`` with every frame CRC and the trailer
    valid; the trailer's record count is the meta frame's unless
    ``count`` overrides it."""
    out = bytearray(b"EIX2")
    for body in bodies:
        out += _FRAME.pack(len(body), zlib.crc32(body)) + body
    if count is None:
        (count,) = struct.unpack_from("<I", bodies[0], 4)
    out += _TRAILER.pack(count, zlib.crc32(out), b"EIX2.END")
    return bytes(out)


def crafted(edit, count: int | None = None) -> bytes:
    """The golden file with ``edit(columns)`` applied, then resealed.

    ``columns`` maps each frame name to its values as an array (the
    string text frame as bytes); ``edit`` changes them in place."""
    columns = {}
    for (name, code), body in zip(FRAMES, split(GOLDEN_EIX2.read_bytes())):
        columns[name] = body
        if code is not None:
            columns[name] = array(code)
            columns[name].frombytes(body)
    edit(columns)
    return seal(
        [
            values if isinstance(values, bytes) else values.tobytes()
            for values in columns.values()
        ],
        count,
    )


def tag_base(columns) -> int:
    """The first tag-tuple id: ASN-set ids stop here."""
    return columns["meta"][4]


def string_count(columns) -> int:
    return len(columns["string offsets"]) - 1


def swap(values: array, one: int, other: int) -> None:
    values[one], values[other] = values[other], values[one]


#: name -> (edit, trailer count override, what the error must say).
CORRUPTIONS = {}


def corruption(message: str, count: int | None = None):
    def register(edit):
        CORRUPTIONS[edit.__name__.replace("_", "-")] = (edit, count, message)
        return edit

    return register


@corruption("keys are not strictly ascending")
def keys_out_of_order(columns):
    swap(columns["key"], 0, 1)


@corruption("keys are not strictly ascending")
def duplicate_key(columns):
    columns["key"][1] = columns["key"][0]


@corruption("days observed column is 8 bytes, not 3 4-byte values")
def column_one_row_short(columns):
    del columns["days observed"][-1]


@corruption("origin set id out of range")
def origin_set_id_out_of_range(columns):
    columns["origin set"][0] = tag_base(columns)


@corruption("perpetrator set id out of range")
def perpetrator_set_id_out_of_range(columns):
    columns["perpetrator set"][0] = tag_base(columns)


@corruption("tag tuple id out of range")
def tag_tuple_id_out_of_range(columns):
    tuples = len(columns["tuple offsets"]) - 1
    columns["tag tuple"][0] = tuples - tag_base(columns)


@corruption("RPKI string id out of range")
def rpki_string_id_out_of_range(columns):
    columns["RPKI string"][0] = string_count(columns)


@corruption("verdict kind string id out of range")
def verdict_kind_string_id_out_of_range(columns):
    columns["verdict kind"][0] = string_count(columns)


@corruption("tag string id out of range")
def tag_string_id_out_of_range(columns):
    columns["tuple values"][-1] = string_count(columns)


@corruption("first day is after its last day")
def first_after_last(columns):
    columns["first day"][0] = columns["last day"][0] + 1


@corruption("tuple offsets are not monotone")
def tuple_offsets_not_monotone(columns):
    swap(columns["tuple offsets"], 1, 2)


@corruption("string offsets are not monotone")
def string_offsets_not_monotone(columns):
    swap(columns["string offsets"], 1, 2)


@corruption("unsupported episode index version 3")
def wrong_version(columns):
    columns["meta"][0] = 3


@corruption("meta and trailer disagree on the record count", count=4)
def meta_trailer_count_mismatch(columns):
    pass


class TestCraftedInvariants:
    """Each structural check, broken alone behind valid checksums."""

    def test_golden_frames_are_the_documented_layout(self):
        bodies = split(GOLDEN_EIX2.read_bytes())
        assert len(bodies) == len(FRAMES)
        assert crafted(lambda columns: None) == GOLDEN_EIX2.read_bytes()
        assert struct.unpack_from("<2I", bodies[0]) == (2, 3)  # version, rows

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_each_broken_invariant_is_named(self, tmp_path, name):
        edit, count, message = CORRUPTIONS[name]
        path = tmp_path / "crafted.idx"
        path.write_bytes(crafted(edit, count))
        with pytest.raises(ArchiveError, match=message):
            EpisodeIndex.load(path)

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_repro_query_exits_2_with_one_line(self, tmp_path, capsys, name):
        edit, count, _message = CORRUPTIONS[name]
        (tmp_path / INDEX_FILENAME).write_bytes(crafted(edit, count))
        assert main(["query", str(tmp_path), "10.0.0.0/8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro query: ")


class TestByteDamage:
    @given(detection_streams(), roa_tables(), st.data())
    def test_any_single_byte_change_raises(self, detections, table, data):
        _, _, index = build_index(
            detections, roa_table=table, with_verdicts=True
        )
        raw = bytearray(index.to_bytes())
        position = data.draw(st.integers(0, len(raw) - 1), label="position")
        value = data.draw(
            st.integers(0, 255).filter(lambda byte: byte != raw[position]),
            label="value",
        )
        raw[position] = value
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / INDEX_FILENAME
            path.write_bytes(bytes(raw))
            with pytest.raises(ArchiveError):
                EpisodeIndex.load(path)

    def test_every_byte_of_the_golden_is_covered(self, tmp_path):
        raw = GOLDEN_EIX2.read_bytes()
        path = tmp_path / "flipped.idx"
        for position in range(len(raw)):
            damaged = bytearray(raw)
            damaged[position] ^= 0xFF
            path.write_bytes(bytes(damaged))
            with pytest.raises(ArchiveError):
                EpisodeIndex.load(path)

    def test_truncation_at_every_length_raises(self, tmp_path):
        """Every cut length: each frame boundary, mid-frame, mid-trailer."""
        raw = GOLDEN_EIX2.read_bytes()
        path = tmp_path / "cut.idx"
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(ArchiveError, match="truncated|end magic"):
                EpisodeIndex.load(path)

    @pytest.mark.parametrize("cut", ("boundary", "mid-frame"))
    def test_repro_query_on_a_truncated_file(self, tmp_path, capsys, cut):
        raw = GOLDEN_EIX2.read_bytes()
        bodies = split(raw)
        length = 4 + _FRAME.size + len(bodies[0])  # end of the meta frame
        if cut == "mid-frame":
            length += _FRAME.size + len(bodies[1]) // 2
        (tmp_path / INDEX_FILENAME).write_bytes(raw[:length])
        assert main(["query", str(tmp_path), "10.0.0.0/8"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("repro query: ")
