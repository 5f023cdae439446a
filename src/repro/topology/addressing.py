"""Prefix allocation with an era-accurate length distribution.

Two jobs: (1) hand out *disjoint* prefixes on demand, so the synthetic
address plan never self-overlaps by construction, and (2) draw prefix
lengths from a distribution matching the published composition of
1998-2001 BGP tables, where /24s were the bulk of entries — the paper's
figure 5 leans on exactly this fact.
"""

from __future__ import annotations

from repro.netbase.prefix import Prefix
from repro.util.rng import RngStreams

#: Approximate share of each prefix length in study-era global tables
#: (derived from contemporary Route Views / Telstra table statistics;
#: /24 dominance is the feature that matters for figure 5).
PREFIX_LENGTH_WEIGHTS: dict[int, float] = {
    8: 0.0020,
    9: 0.0003,
    10: 0.0006,
    11: 0.0012,
    12: 0.0020,
    13: 0.0035,
    14: 0.0070,
    15: 0.0080,
    16: 0.1100,
    17: 0.0150,
    18: 0.0250,
    19: 0.0600,
    20: 0.0400,
    21: 0.0350,
    22: 0.0450,
    23: 0.0500,
    24: 0.5800,
    25: 0.0040,
    26: 0.0025,
    27: 0.0015,
    28: 0.0009,
    29: 0.0007,
    30: 0.0005,
    32: 0.0003,
}


class PoolExhaustedError(RuntimeError):
    """An address pool ran out of space for the requested length."""


class SequentialAllocator:
    """Carves aligned, disjoint sub-prefixes out of one base block."""

    def __init__(self, base: Prefix) -> None:
        self.base = base
        self._cursor = base.network  # next free address

    def allocate(self, length: int) -> Prefix:
        """The next free /``length`` inside the base block."""
        if length < self.base.length:
            raise ValueError(
                f"cannot allocate /{length} from {self.base}"
            )
        block_size = 1 << (32 - length)
        # Align the cursor up to the block size.
        aligned = (self._cursor + block_size - 1) & ~(block_size - 1)
        end = self.base.network + self.base.num_addresses
        if aligned + block_size > end:
            raise PoolExhaustedError(
                f"pool {self.base} exhausted allocating /{length}"
            )
        self._cursor = aligned + block_size
        return Prefix(aligned, length)

    def remaining_addresses(self) -> int:
        """Addresses left between the cursor and the pool end."""
        end = self.base.network + self.base.num_addresses
        return end - self._cursor


class AddressPlan:
    """Length-aware allocation across era-appropriate address regions.

    Short prefixes come from legacy class A space, /16s from class B,
    long prefixes from class C space — so the synthetic table *looks*
    like a 1999 table, which keeps figure 5 honest.  198.32.0.0/16 is
    held out for exchange points.
    """

    def __init__(self, streams: RngStreams) -> None:
        self._rng = streams.python("addressing")
        self._pools: dict[str, SequentialAllocator] = {
            # 16.0.0.0 - 31.255.255.255: whole /8 allocations.
            "class_a": SequentialAllocator(Prefix.parse("16.0.0.0/4")),
            # 64.0.0.0 - 95.255.255.255: classless mid-length blocks.
            "classless_a": SequentialAllocator(Prefix.parse("64.0.0.0/3")),
            # 128.0.0.0 - 191.255.255.255: class B (/16s).
            "class_b": SequentialAllocator(Prefix.parse("128.0.0.0/2")),
            # 32.0.0.0 - 63.255.255.255: CIDR blocks /17-/23.
            "cidr": SequentialAllocator(Prefix.parse("32.0.0.0/3")),
            # 200.0.0.0 - 207.255.255.255: class C (/24 and longer).
            "class_c": SequentialAllocator(Prefix.parse("200.0.0.0/5")),
        }
        lengths = sorted(PREFIX_LENGTH_WEIGHTS)
        weights = [PREFIX_LENGTH_WEIGHTS[length] for length in lengths]
        self._lengths = lengths
        self._cumulative_weights = _cumulative(weights)

    def _pool_for(self, length: int) -> SequentialAllocator:
        if length <= 8:
            return self._pools["class_a"]
        if length <= 15:
            return self._pools["classless_a"]
        if length == 16:
            return self._pools["class_b"]
        if length <= 23:
            return self._pools["cidr"]
        return self._pools["class_c"]

    def allocate(self, length: int) -> Prefix:
        """A fresh, globally-disjoint prefix of exactly ``length``.

        The legacy class A pool holds only sixteen /8s; once it is
        spent, /8 requests spill into the classless A pool, so large
        worlds keep generating instead of raising
        :class:`PoolExhaustedError`.
        """
        try:
            return self._pool_for(length).allocate(length)
        except PoolExhaustedError:
            if length > 8:
                raise
        return self._pools["classless_a"].allocate(length)

    def allocate_random_length(self) -> Prefix:
        """A fresh prefix with length drawn from the era distribution."""
        return self.allocate(self.draw_length())

    def draw_length(self) -> int:
        """Sample a prefix length from :data:`PREFIX_LENGTH_WEIGHTS`."""
        choice = self._rng.random()
        for length, bound in zip(self._lengths, self._cumulative_weights):
            if choice <= bound:
                return length
        return self._lengths[-1]


def _cumulative(weights: list[float]) -> list[float]:
    total = sum(weights)
    bounds = []
    running = 0.0
    for weight in weights:
        running += weight / total
        bounds.append(running)
    bounds[-1] = 1.0
    return bounds
