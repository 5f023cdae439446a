"""The verdict engine's registry shapes against the trie reference.

``_structural_tags`` finds each registered prefix's closest covering
registration with one sort and a stack of open covers.  The reference
below is the earlier implementation over a ``PrefixTrie``: the trie
holds the last row of a repeated prefix, and ``covering()`` yields the
stored covers shortest first.  Drawn registries mix repeated prefixes,
``/0`` rows, AS_SET and exchange-point rows, equal ``created_day``
values and nested covers of foreign owners; both must give equal tags in
equal order, since the order is the order of registry-only verdicts.
The named cases below pin the Section VI-E shapes themselves: mass
de-aggregation, a faulty aggregate over several foreign blocks, and the
registrations that are neither.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.verdict import (
    TAG_FOREIGN_AGGREGATE,
    TAG_FOREIGN_SUBPREFIX,
    _structural_tags,
)
from repro.netbase.prefix import Prefix
from repro.netbase.trie import PrefixTrie
from repro.scenario.archive import (
    FLAG_AS_SET_TAIL,
    FLAG_EXCHANGE_POINT,
    RegistryEntry,
)


def reference_tags(registry) -> dict[Prefix, str]:
    """The trie implementation ``_structural_tags`` replaced."""
    trie: PrefixTrie = PrefixTrie()
    entries = [
        entry
        for entry in registry
        if not entry.as_set_tail and not entry.exchange_point
    ]
    for entry in entries:
        trie[entry.prefix] = entry
    tags: dict[Prefix, str] = {}
    for entry in entries:
        if entry.prefix.length == 0:
            continue
        cover = None
        for candidate in trie.covering(entry.prefix):
            if candidate[0] != entry.prefix:
                cover = candidate[1]  # keep the most specific cover
        if cover is None or cover.owner == entry.owner:
            continue
        if entry.created_day > cover.created_day:
            tags[entry.prefix] = TAG_FOREIGN_SUBPREFIX
        elif cover.created_day > entry.created_day:
            tags.setdefault(cover.prefix, TAG_FOREIGN_AGGREGATE)
    return tags


#: Few networks and lengths, so rows repeat, nest and sit side by side.
prefixes = st.builds(
    lambda network, length: Prefix(network, length, strict=False),
    st.sampled_from(
        [0x00000000, 0x0A000000, 0x0A010000, 0x0A018000, 0x0A010100, 0x0B000000]
    ),
    st.sampled_from([0, 7, 8, 15, 16, 17, 24]),
)

rows = st.builds(
    RegistryEntry,
    prefixes,
    st.integers(1, 3),
    st.integers(0, 3),
    st.sampled_from(
        [0, 0, 0, FLAG_AS_SET_TAIL, FLAG_EXCHANGE_POINT,
         FLAG_AS_SET_TAIL | FLAG_EXCHANGE_POINT]
    ),
)


@given(st.lists(rows, max_size=24))
def test_tags_equal_the_trie_reference(registry):
    assert list(_structural_tags(registry).items()) == list(
        reference_tags(registry).items()
    )


def test_later_row_wins_a_repeated_cover():
    """The cover a row is judged against is the last row of its prefix."""
    cover = Prefix.parse("10.0.0.0/8")
    inner = Prefix.parse("10.1.0.0/16")
    registry = [
        RegistryEntry(cover, 1, 0, 0),
        RegistryEntry(inner, 2, 5, 0),
        RegistryEntry(cover, 2, 0, 0),
    ]
    assert _structural_tags(registry) == reference_tags(registry) == {}
    registry.append(RegistryEntry(cover, 3, 0, 0))
    assert _structural_tags(registry) == {inner: TAG_FOREIGN_SUBPREFIX}


def test_closest_of_nested_foreign_covers():
    """Only the most specific cover counts, even past a foreign one."""
    registry = [
        RegistryEntry(Prefix.parse("0.0.0.0/0"), 9, 0, 0),
        RegistryEntry(Prefix.parse("10.0.0.0/8"), 1, 0, 0),
        RegistryEntry(Prefix.parse("10.1.0.0/16"), 1, 4, 0),
        RegistryEntry(Prefix.parse("10.1.1.0/24"), 2, 0, 0),
        RegistryEntry(Prefix.parse("11.0.0.0/8"), 3, 2, 0),
    ]
    tags = _structural_tags(registry)
    assert list(tags.items()) == list(reference_tags(registry).items())
    assert tags == {
        Prefix.parse("10.1.0.0/16"): TAG_FOREIGN_AGGREGATE,
        Prefix.parse("11.0.0.0/8"): TAG_FOREIGN_SUBPREFIX,
    }


def test_mass_deaggregation_tags_every_fragment():
    """The AS 7007 shape: a newcomer's more-specifics carve an old block."""
    cover = Prefix.parse("24.0.0.0/8")
    fragments = [Prefix.parse(f"24.{index}.0.0/16") for index in range(10)]
    registry = [RegistryEntry(cover, 42, 0, 0)] + [
        RegistryEntry(fragment, 7007, 5, 0) for fragment in fragments
    ]
    tags = _structural_tags(registry)
    assert list(tags.items()) == list(reference_tags(registry).items())
    assert tags == dict.fromkeys(fragments, TAG_FOREIGN_SUBPREFIX)


def test_owner_splitting_its_own_block_is_not_tagged():
    registry = [
        RegistryEntry(Prefix.parse("24.0.0.0/8"), 42, 0, 0),
        RegistryEntry(Prefix.parse("24.8.0.0/16"), 42, 5, 0),
        RegistryEntry(Prefix.parse("24.8.1.0/24"), 42, 9, 0),
    ]
    assert _structural_tags(registry) == {}


def test_new_cover_over_several_foreign_specifics_is_tagged_once():
    """Faulty aggregation: one aggregate tag, whatever it covers."""
    registry = [
        RegistryEntry(Prefix.parse("24.1.0.0/16"), 7, 0, 0),
        RegistryEntry(Prefix.parse("24.2.0.0/16"), 8, 0, 0),
        RegistryEntry(Prefix.parse("24.3.0.0/16"), 9, 0, 0),
        RegistryEntry(Prefix.parse("24.0.0.0/8"), 666, 5, 0),
    ]
    assert _structural_tags(registry) == {
        Prefix.parse("24.0.0.0/8"): TAG_FOREIGN_AGGREGATE
    }


def test_neither_side_is_younger_when_created_the_same_day():
    registry = [
        RegistryEntry(Prefix.parse("24.0.0.0/8"), 42, 3, 0),
        RegistryEntry(Prefix.parse("24.8.0.0/16"), 7007, 3, 0),
    ]
    assert _structural_tags(registry) == {}


def test_siblings_and_uncovered_prefixes_are_not_tagged():
    """Adjacent blocks do not cover each other, and a prefix with no
    registered cover has nothing to be foreign to."""
    registry = [
        RegistryEntry(Prefix.parse("10.0.0.0/9"), 1, 0, 0),
        RegistryEntry(Prefix.parse("10.128.0.0/9"), 2, 5, 0),
        RegistryEntry(Prefix.parse("192.0.2.0/24"), 3, 9, 0),
    ]
    assert _structural_tags(registry) == {}


@pytest.mark.parametrize(
    "flags",
    [FLAG_AS_SET_TAIL, FLAG_EXCHANGE_POINT],
    ids=["as-set-tail", "exchange-point"],
)
def test_flagged_cover_is_passed_over(flags):
    """A skipped registration is no cover: the next one out decides."""
    inner = Prefix.parse("24.8.0.0/16")
    registry = [
        RegistryEntry(Prefix.parse("24.0.0.0/8"), 42, 0, 0),
        RegistryEntry(Prefix.parse("24.0.0.0/12"), 7007, 0, flags),
        RegistryEntry(inner, 7007, 5, 0),
    ]
    tags = _structural_tags(registry)
    assert list(tags.items()) == list(reference_tags(registry).items())
    assert tags == {inner: TAG_FOREIGN_SUBPREFIX}
