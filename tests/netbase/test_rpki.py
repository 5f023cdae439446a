"""Tests for ROAs and RFC 6811 origin validation.

:class:`TestAgainstBruteForce` holds every public answer of a
:class:`RoaTable` (covering order included) to a scan of all its ROAs,
over drawn tables whose windows open and expire on drawn days, with
the queries repeated in drawn order so the table's memos answer most
of them.  :class:`TestLoaderParity` holds the integer-row loader
(:meth:`RoaTable.from_rows`) to the object-at-a-time reference in
``tests/netbase/roa_rows.py`` over drawn ``roas.json`` rows, and
:class:`TestMalformedRows` to refusing every drawn malformed row with a
:class:`ValueError` naming it.  Example counts come from the hypothesis
profile (``dev`` for tier-1, ``ci`` for the dedicated property leg).
"""

import datetime
import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from repro.netbase.prefix import Prefix
from repro.netbase.rpki import (
    Roa,
    RoaTable,
    ValidationState,
    worst_state,
)
from tests.netbase.roa_rows import roa_from_dict


def roa(text: str, origin: int, max_length: int | None = None, **windows):
    prefix = Prefix.parse(text)
    return Roa(
        prefix=prefix,
        max_length=max_length if max_length is not None else prefix.length,
        origin=origin,
        **windows,
    )


class TestRoa:
    def test_max_length_must_cover_prefix_length(self):
        with pytest.raises(ValueError, match="max_length"):
            Roa(Prefix.parse("10.0.0.0/16"), 8, 65000)
        with pytest.raises(ValueError, match="max_length"):
            Roa(Prefix.parse("10.0.0.0/16"), 33, 65000)

    def test_window_must_be_ordered(self):
        with pytest.raises(ValueError, match="window"):
            roa(
                "10.0.0.0/16",
                7,
                valid_from=datetime.date(2000, 1, 2),
                valid_until=datetime.date(2000, 1, 1),
            )

    def test_negative_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            roa("10.0.0.0/16", -1)

    def test_origin_beyond_32_bits_rejected(self):
        with pytest.raises(ValueError, match="exceeds 32 bits"):
            roa("10.0.0.0/16", 2**32)
        assert roa("10.0.0.0/16", 2**32 - 1).origin == 2**32 - 1

    def test_active_on(self):
        bounded = roa(
            "10.0.0.0/16",
            7,
            valid_from=datetime.date(2000, 1, 1),
            valid_until=datetime.date(2000, 1, 31),
        )
        assert bounded.active_on(None)
        assert bounded.active_on(datetime.date(2000, 1, 1))
        assert bounded.active_on(datetime.date(2000, 1, 31))
        assert not bounded.active_on(datetime.date(1999, 12, 31))
        assert not bounded.active_on(datetime.date(2000, 2, 1))
        assert roa("10.0.0.0/16", 7).active_on(datetime.date(1970, 1, 1))

    def test_dict_round_trip(self):
        original = roa(
            "10.0.0.0/16", 7, 18, valid_from=datetime.date(2000, 1, 1)
        )
        assert list(RoaTable.from_rows([original.to_dict()])) == [original]

    def test_from_rows_rejects_malformed_rows(self):
        with pytest.raises(ValueError, match="row 0 is missing max_length, origin"):
            RoaTable.from_rows([{"prefix": "10.0.0.0/16"}])
        with pytest.raises(ValueError, match="row 0 must be a JSON object"):
            RoaTable.from_rows([["10.0.0.0/16", 7]])


class TestValidation:
    @pytest.fixture()
    def table(self) -> RoaTable:
        return RoaTable(
            [
                roa("10.0.0.0/16", 7, 18),
                roa("10.0.0.0/16", 8),  # second authorized origin
                roa("192.0.2.0/24", 9),
            ]
        )

    def test_exact_match_is_valid(self, table):
        state = table.validate(Prefix.parse("10.0.0.0/16"), 7)
        assert state is ValidationState.VALID

    def test_any_matching_roa_suffices(self, table):
        assert (
            table.validate(Prefix.parse("10.0.0.0/16"), 8)
            is ValidationState.VALID
        )

    def test_wrong_origin_is_invalid(self, table):
        assert (
            table.validate(Prefix.parse("10.0.0.0/16"), 666)
            is ValidationState.INVALID
        )

    def test_more_specific_within_max_length_is_valid(self, table):
        assert (
            table.validate(Prefix.parse("10.0.128.0/18"), 7)
            is ValidationState.VALID
        )

    def test_more_specific_beyond_max_length_is_invalid(self, table):
        # Covered by the /16 ROA but longer than max_length 18: the
        # classic de-aggregation signature, invalid even for the
        # authorized origin.
        assert (
            table.validate(Prefix.parse("10.0.0.0/24"), 7)
            is ValidationState.INVALID
        )

    def test_uncovered_prefix_is_not_found(self, table):
        assert (
            table.validate(Prefix.parse("172.16.0.0/12"), 7)
            is ValidationState.NOT_FOUND
        )

    def test_windows_gate_validation_by_day(self):
        table = RoaTable(
            [
                roa(
                    "10.0.0.0/16",
                    7,
                    valid_from=datetime.date(2000, 1, 10),
                    valid_until=datetime.date(2000, 1, 20),
                )
            ]
        )
        prefix = Prefix.parse("10.0.0.0/16")
        assert (
            table.validate(prefix, 7, day=datetime.date(2000, 1, 15))
            is ValidationState.VALID
        )
        # Outside the window the ROA does not exist for that day.
        assert (
            table.validate(prefix, 7, day=datetime.date(2000, 1, 5))
            is ValidationState.NOT_FOUND
        )
        # day=None ignores windows entirely.
        assert table.validate(prefix, 7) is ValidationState.VALID

    def test_covering_roas(self, table):
        covering = table.covering_roas(Prefix.parse("10.0.0.0/24"))
        assert {r.origin for r in covering} == {7, 8}

    def test_worst_state_precedence(self):
        assert (
            worst_state(ValidationState.VALID, ValidationState.INVALID)
            is ValidationState.INVALID
        )
        assert (
            worst_state(ValidationState.NOT_FOUND, ValidationState.VALID)
            is ValidationState.VALID
        )
        assert worst_state(None, ValidationState.NOT_FOUND) is (
            ValidationState.NOT_FOUND
        )


class TestRoaTable:
    def test_equality_and_canonical_order(self):
        first = RoaTable([roa("10.0.0.0/16", 7), roa("192.0.2.0/24", 9)])
        second = RoaTable([roa("192.0.2.0/24", 9), roa("10.0.0.0/16", 7)])
        assert first == second
        assert hash(first) == hash(second)
        assert list(first) == list(second) == [
            roa("10.0.0.0/16", 7),
            roa("192.0.2.0/24", 9),
        ]
        assert first.digest == second.digest
        assert len(first) == 2

    def test_digest_pins_every_field_of_every_row(self):
        base = roa("10.0.0.0/16", 7, 18, valid_from=datetime.date(2000, 1, 1))
        variants = [
            roa("10.0.0.0/16", 7, 18),
            roa("10.0.0.0/16", 8, 18, valid_from=base.valid_from),
            roa("10.0.0.0/16", 7, 19, valid_from=base.valid_from),
            roa("10.0.0.0/15", 7, 18, valid_from=base.valid_from),
            roa("10.0.0.0/16", 7, 18, valid_from=datetime.date(2000, 1, 2)),
            roa(
                "10.0.0.0/16", 7, 18,
                valid_from=base.valid_from,
                valid_until=datetime.date(2001, 1, 1),
            ),
        ]
        digests = {RoaTable([base]).digest}
        digests.update(RoaTable([variant]).digest for variant in variants)
        assert len(digests) == len(variants) + 1
        assert all(len(digest) == 64 for digest in digests)
        assert RoaTable().digest == hashlib.sha256(b"").hexdigest()
        # A duplicate row is a row.
        assert RoaTable([base, base]).digest != RoaTable([base]).digest

    def test_json_round_trip(self):
        table = RoaTable(
            [
                roa("10.0.0.0/16", 7, 18,
                    valid_from=datetime.date(2000, 1, 1)),
                roa("192.0.2.0/24", 9),
            ]
        )
        assert RoaTable.from_json(table.to_json()) == table

    def test_from_json_rejects_non_array(self):
        with pytest.raises(ValueError, match="JSON array"):
            RoaTable.from_json(json.dumps({"roas": []}))

    def test_load_from_file_and_directory(self, tmp_path):
        table = RoaTable([roa("10.0.0.0/16", 7)])
        path = tmp_path / "roas.json"
        path.write_text(table.to_json())
        assert RoaTable.load(path) == table
        assert RoaTable.load(tmp_path) == table
        assert RoaTable.load(table) is table

    def test_load_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="--rpki"):
            RoaTable.load(tmp_path)  # directory without roas.json
        with pytest.raises(FileNotFoundError, match="no ROA file"):
            RoaTable.load(tmp_path / "missing.json")

    def test_load_names_the_file_of_a_malformed_row(self, tmp_path):
        path = tmp_path / "roas.json"
        path.write_text(json.dumps([{"prefix": "10.0.0.0/8"}]))
        with pytest.raises(ValueError) as caught:
            RoaTable.load(path)
        assert str(caught.value) == (
            f"{path}: ROA row 0 is missing max_length, origin"
        )
        path.write_text("[")
        with pytest.raises(ValueError, match=f"^{path}: "):
            RoaTable.load(path)


DAY0 = datetime.date(2000, 1, 1)

#: Nested and sibling prefixes, so ROAs cover queries at several lengths.
PREFIX_POOL = [
    Prefix.parse(text)
    for text in (
        "0.0.0.0/0",
        "10.0.0.0/8",
        "10.0.0.0/9",
        "10.128.0.0/9",
        "10.0.0.0/16",
        "10.0.0.0/24",
        "10.0.1.0/24",
        "10.0.0.0/25",
        "11.0.0.0/8",
    )
]

pool_days = st.integers(0, 9).map(lambda offset: DAY0 + datetime.timedelta(offset))


@st.composite
def windowed_roas(draw):
    prefix = draw(st.sampled_from(PREFIX_POOL))
    valid_from = draw(st.one_of(st.none(), pool_days))
    valid_until = draw(st.one_of(st.none(), st.none(), pool_days))
    if valid_from is not None and valid_until is not None:
        valid_from, valid_until = sorted((valid_from, valid_until))
    return Roa(
        prefix,
        min(32, prefix.length + draw(st.integers(0, 9))),
        draw(st.integers(1, 3)),
        valid_from,
        valid_until,
    )


queries = st.lists(
    st.tuples(
        st.sampled_from(PREFIX_POOL),
        st.frozensets(st.integers(1, 4), max_size=3),
        st.one_of(st.none(), pool_days),
    ),
    min_size=1,
    max_size=30,
)


def scanned(rows, prefix, day):
    """Every ROA covering ``prefix`` and active on ``day``: shortest
    ROA prefix first, in table order within one prefix."""
    return tuple(
        sorted(
            (roa for roa in rows if roa.prefix.contains(prefix) and roa.active_on(day)),
            key=lambda roa: roa.prefix.length,
        )
    )


def scanned_state(rows, prefix, origin, day):
    covering = scanned(rows, prefix, day)
    if not covering:
        return ValidationState.NOT_FOUND
    if any(roa.authorizes(prefix, origin) for roa in covering):
        return ValidationState.VALID
    return ValidationState.INVALID


def scanned_rollup(rows, prefix, origins, day):
    rollup = None
    for origin in origins:
        rollup = worst_state(rollup, scanned_state(rows, prefix, origin, day))
    return rollup


class TestAgainstBruteForce:
    @given(st.lists(windowed_roas(), max_size=8), queries)
    def test_every_answer_equals_a_scan_of_all_roas(self, rows, asked):
        table = RoaTable(rows)
        rows = list(table)  # table order
        for prefix, origins, day in asked + asked[::-1]:
            assert table.covering_roas(prefix, day=day) == scanned(rows, prefix, day)
            for origin in origins:
                assert table.validate(prefix, origin, day=day) is scanned_state(
                    rows, prefix, origin, day
                )
            expected = scanned_rollup(rows, prefix, origins, day)
            assert table.validate_origins(prefix, origins, day=day) is expected
            for current in (None, *ValidationState):
                folded = table.fold_episode_state(current, prefix, origins, day=day)
                assert folded is (
                    current if expected is None else worst_state(current, expected)
                )

    @given(st.lists(windowed_roas(), max_size=8), queries)
    def test_steady_rollup_holds_on_every_later_day(self, rows, asked):
        table = RoaTable(rows)
        for prefix, origins, _day in asked:
            threshold, state = table.steady_rollup(prefix, origins)
            if threshold is None:
                assert state is None
                continue
            for offset in range(10):
                day = DAY0 + datetime.timedelta(offset)
                if day >= threshold:
                    assert scanned_rollup(rows, prefix, origins, day) is state


def _address(network: int) -> list[int]:
    return [(network >> shift) & 0xFF for shift in (24, 16, 8, 0)]


@st.composite
def prefix_texts(draw):
    """``(text, length)``: a valid prefix of any length /0 to /32 as a
    ``roas.json`` writer may spell it, its octets maybe zero-padded,
    the text maybe padded with whitespace and a /32 maybe bare."""
    length = draw(st.integers(0, 32))
    network = draw(st.integers(0, 2**32 - 1)) & (
        0xFFFFFFFF ^ (0xFFFFFFFF >> length)
    )
    octet = st.sampled_from(["{}", "{:02d}", "{:03d}"])
    address = ".".join(
        draw(octet).format(value) for value in _address(network)
    )
    bare = length == 32 and draw(st.booleans())
    text = address if bare else f"{address}/{length}"
    padding = st.sampled_from(["", " ", "\t", "\n", "  "])
    return draw(padding) + text + draw(padding), length


dates = st.dates(datetime.date(1990, 1, 1), datetime.date(2030, 12, 31))


@st.composite
def roa_json_rows(draw):
    """One well-formed ``roas.json`` row; a null window may be spelled
    as an absent key."""
    text, length = draw(prefix_texts())
    valid_from = draw(st.one_of(st.none(), dates))
    valid_until = draw(st.one_of(st.none(), dates))
    if valid_from is not None and valid_until is not None:
        valid_from, valid_until = sorted((valid_from, valid_until))
    row = {
        "prefix": text,
        "max_length": draw(st.integers(length, 32)),
        "origin": draw(
            st.one_of(st.integers(0, 70000), st.integers(0, 2**32 - 1))
        ),
    }
    for key, value in (("valid_from", valid_from), ("valid_until", valid_until)):
        if value is not None:
            row[key] = value.isoformat()
        elif draw(st.booleans()):
            row[key] = None
    return row


@st.composite
def roa_row_lists(draw):
    """Drawn rows with drawn duplicates, in a drawn order."""
    rows = draw(st.lists(roa_json_rows(), max_size=12))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=4))
    return draw(st.permutations(rows))


def canonical_key(roa: Roa) -> tuple:
    """The canonical order tables kept their :class:`Roa` objects in."""
    return (
        roa.prefix.sort_key(),
        roa.max_length,
        roa.origin,
        roa.valid_from or datetime.date.min,
        roa.valid_until or datetime.date.max,
    )


class TestLoaderParity:
    """The integer-row loader builds the table the object-at-a-time
    reference builds, whatever the spelling, duplicates and order of
    the rows."""

    @given(roa_row_lists(), st.randoms(use_true_random=False))
    def test_from_rows_equals_the_reference(self, rows, rng):
        table = RoaTable.from_rows(rows)
        roas = [roa_from_dict(row) for row in rows]
        reference = RoaTable(roas)
        assert table == reference
        assert len(table) == len(rows)
        assert list(table) == list(reference) == sorted(roas, key=canonical_key)
        assert table.to_json() == reference.to_json()
        assert table.digest == reference.digest
        assert RoaTable.from_json(table.to_json()) == table
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert RoaTable.from_rows(shuffled).digest == table.digest


def _set(key, value):
    return lambda row: {**row, key: value}


def _drop(key):
    return lambda row: {name: row[name] for name in row if name != key}


#: Each way a ``roas.json`` row can be malformed, as a function of a
#: well-formed row.
MALFORMED = {
    "prefix-number": _set("prefix", 10),
    "prefix-null": _set("prefix", None),
    "prefix-array": _set("prefix", ["10.0.0.0", 8]),
    "max-length-null": _set("max_length", None),
    "max-length-fraction": _set("max_length", 8.9),
    "max-length-true": _set("max_length", True),
    "max-length-string": _set("max_length", "24"),
    "max-length-beyond-32": _set("max_length", 33),
    "max-length-below-length": lambda row: {
        **row, "prefix": "10.0.0.0/16", "max_length": 8
    },
    "origin-true": _set("origin", True),
    "origin-fraction": _set("origin", 7.5),
    "origin-negative": _set("origin", -1),
    "origin-beyond-32-bits": _set("origin", 2**32),
    "valid-from-number": _set("valid_from", 20000101),
    "valid-from-array": _set("valid_from", ["2000-01-01"]),
    "valid-from-bad-date": _set("valid_from", "2000-02-30"),
    "valid-until-bad-date": _set("valid_until", "soon"),
    "window-reversed": lambda row: {
        **row, "valid_from": "2000-01-02", "valid_until": "2000-01-01"
    },
    "missing-prefix": _drop("prefix"),
    "missing-max-length": _drop("max_length"),
    "missing-origin": _drop("origin"),
    "row-array": lambda row: [row["prefix"], row["max_length"], row["origin"]],
    "row-string": lambda row: row["prefix"],
    "row-null": lambda row: None,
    "row-number": lambda row: 7,
    "host-bits": _set("prefix", "10.0.0.1/8"),
}

#: Prefix texts :meth:`Prefix.parse` refuses.
BAD_PREFIXES = (
    "256.0.0.0/8",
    "10.0.300.0/24",
    "1.2.3/8",
    "1.2.3.4.5/8",
    "a.b.c.d/8",
    "10.0.0.0/",
    "10.0.0.0/33",
    "10.0.0.0/100",
    "10.0.0.0/8/8",
    "-1.0.0.0/8",
    "1.2.3.4 /8",
    "0x0a.0.0.0/8",
    "",
)


class TestMalformedRows:
    """A malformed row among well-formed ones raises :class:`ValueError`,
    and nothing else, naming the row's position."""

    def assert_refused(self, rows, position):
        with pytest.raises(Exception) as caught:
            RoaTable.from_rows(rows)
        assert type(caught.value) is ValueError
        assert str(caught.value).startswith(f"ROA row {position}")

    @given(
        st.lists(roa_json_rows(), max_size=6),
        roa_json_rows(),
        st.sampled_from(sorted(MALFORMED)),
        st.data(),
    )
    def test_malformed_row_is_refused(self, rows, base, name, data):
        position = data.draw(st.integers(0, len(rows)), label="position")
        rows.insert(position, MALFORMED[name](base))
        self.assert_refused(rows, position)

    @given(
        st.lists(roa_json_rows(), max_size=6),
        roa_json_rows(),
        st.sampled_from(BAD_PREFIXES),
        st.data(),
    )
    def test_bad_prefix_text_is_refused(self, rows, base, text, data):
        position = data.draw(st.integers(0, len(rows)), label="position")
        rows.insert(position, {**base, "prefix": text})
        self.assert_refused(rows, position)

    @pytest.mark.parametrize(
        "name,message",
        [
            ("prefix-number", "prefix: expected a string, got number"),
            ("max-length-null", "max_length: expected an integer, got null"),
            ("valid-from-number", "valid_from: expected null or an ISO date, got number"),
            ("max-length-fraction", "max_length: expected an integer, got number"),
            ("origin-true", "origin: expected an integer, got boolean"),
            ("origin-negative", "origin: ROA origin -1 is negative"),
            ("host-bits", "prefix: host bits set in 10.0.0.1/8"),
            (
                "max-length-below-length",
                "max_length: ROA max_length 8 outside 16..32 for 10.0.0.0/16",
            ),
            (
                "window-reversed",
                "valid_until: ROA window ends 2000-01-01 before it starts "
                "2000-01-02",
            ),
        ],
    )
    def test_messages_name_the_row_and_field(self, name, message):
        good = {"prefix": "10.0.0.0/8", "max_length": 8, "origin": 7}
        with pytest.raises(ValueError) as caught:
            RoaTable.from_rows([good, MALFORMED[name](good)])
        assert str(caught.value) == f"ROA row 1 {message}"

    @pytest.mark.parametrize("document", [{}, {"roas": []}, "[]", 7, None, True])
    def test_non_array_document_is_refused(self, document):
        with pytest.raises(ValueError, match="JSON array"):
            RoaTable.from_json(json.dumps(document))
