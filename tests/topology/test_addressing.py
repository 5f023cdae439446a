"""Tests for prefix allocation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netbase.prefix import Prefix
from repro.topology.addressing import (
    PREFIX_LENGTH_WEIGHTS,
    AddressPlan,
    PoolExhaustedError,
    SequentialAllocator,
)
from repro.util.rng import RngStreams


class TestSequentialAllocator:
    def test_allocations_are_disjoint(self):
        allocator = SequentialAllocator(Prefix.parse("10.0.0.0/8"))
        blocks = [allocator.allocate(24) for _ in range(100)]
        for index, left in enumerate(blocks):
            for right in blocks[index + 1 :]:
                assert not left.overlaps(right)

    def test_allocations_stay_inside_base(self):
        base = Prefix.parse("10.0.0.0/8")
        allocator = SequentialAllocator(base)
        for _ in range(50):
            assert base.contains(allocator.allocate(20))

    def test_mixed_lengths_align(self):
        allocator = SequentialAllocator(Prefix.parse("10.0.0.0/8"))
        first = allocator.allocate(24)
        second = allocator.allocate(16)  # must align up to a /16 boundary
        third = allocator.allocate(24)
        assert not first.overlaps(second)
        assert not second.overlaps(third)
        assert second.network % second.num_addresses == 0

    def test_exhaustion_raises(self):
        allocator = SequentialAllocator(Prefix.parse("10.0.0.0/24"))
        allocator.allocate(25)
        allocator.allocate(25)
        with pytest.raises(PoolExhaustedError):
            allocator.allocate(25)

    def test_cannot_allocate_wider_than_base(self):
        allocator = SequentialAllocator(Prefix.parse("10.0.0.0/16"))
        with pytest.raises(ValueError):
            allocator.allocate(8)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=20, max_value=28), min_size=1, max_size=60
        )
    )
    def test_disjointness_property(self, lengths):
        allocator = SequentialAllocator(Prefix.parse("10.0.0.0/8"))
        blocks = [allocator.allocate(length) for length in lengths]
        assert len(blocks) == len(lengths)
        ordered = sorted(blocks, key=lambda p: p.sort_key())
        for left, right in zip(ordered, ordered[1:]):
            assert not left.overlaps(right)


class TestAddressPlan:
    def test_lengths_honoured(self):
        plan = AddressPlan(RngStreams(1))
        for length in (8, 12, 16, 19, 24, 32):
            assert plan.allocate(length).length == length

    def test_all_allocations_disjoint_across_pools(self):
        plan = AddressPlan(RngStreams(1))
        blocks = [plan.allocate_random_length() for _ in range(500)]
        ordered = sorted(blocks, key=lambda p: p.sort_key())
        for left, right in zip(ordered, ordered[1:]):
            assert not left.overlaps(right), f"{left} overlaps {right}"

    def test_slash8_requests_outlive_the_class_a_pool(self):
        # 16.0.0.0/4 holds sixteen /8s; large worlds need more.
        plan = AddressPlan(RngStreams(1))
        # The spill must respect the classless A pool's own cursor.
        classless = plan.allocate(12)
        blocks = [plan.allocate(8) for _ in range(20)]
        assert all(block.length == 8 for block in blocks)
        class_a = Prefix.parse("16.0.0.0/4")
        assert all(class_a.contains(block) for block in blocks[:16])
        assert not any(class_a.overlaps(block) for block in blocks[16:])
        ordered = sorted([classless, *blocks], key=lambda p: p.sort_key())
        for left, right in zip(ordered, ordered[1:]):
            assert not left.overlaps(right), f"{left} overlaps {right}"

    def test_ixp_block_never_allocated(self):
        ixp_block = Prefix.parse("198.32.0.0/16")
        plan = AddressPlan(RngStreams(2))
        for _ in range(2000):
            prefix = plan.allocate_random_length()
            assert not ixp_block.overlaps(prefix)

    def test_length_distribution_shape(self):
        # /24 must dominate, /16 must be the second-biggest mass point —
        # the structure figure 5 depends on.
        plan = AddressPlan(RngStreams(3))
        counts: dict[int, int] = {}
        for _ in range(8000):
            length = plan.draw_length()
            counts[length] = counts.get(length, 0) + 1
        assert max(counts, key=counts.get) == 24
        assert counts[24] > 0.45 * 8000
        second = sorted(counts, key=counts.get, reverse=True)[1]
        assert second == 16

    def test_weights_sum_close_to_one(self):
        assert abs(sum(PREFIX_LENGTH_WEIGHTS.values()) - 1.0) < 0.01

    def test_deterministic_given_seed(self):
        first = AddressPlan(RngStreams(7))
        second = AddressPlan(RngStreams(7))
        for _ in range(100):
            assert first.allocate_random_length() == (
                second.allocate_random_length()
            )
