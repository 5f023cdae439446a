"""Tests for ROAs and RFC 6811 origin validation.

:class:`TestAgainstBruteForce` holds every public answer of a
:class:`RoaTable` (covering order included) to a scan of all its ROAs,
over drawn tables whose windows open and expire on drawn days, with
the queries repeated in drawn order so the table's memos answer most
of them.  Example counts come from the hypothesis profile (``dev`` for
tier-1, ``ci`` for the dedicated property leg).
"""

import datetime
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
        assert Roa.from_dict(original.to_dict()) == original

    def test_from_dict_rejects_malformed_rows(self):
        with pytest.raises(ValueError, match="missing"):
            Roa.from_dict({"prefix": "10.0.0.0/16"})
        with pytest.raises(ValueError, match="JSON object"):
            Roa.from_dict(["10.0.0.0/16", 7])


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
        assert first.key == second.key
        assert len(first) == 2

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
