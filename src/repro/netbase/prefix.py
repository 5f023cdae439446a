"""IPv4 prefix value type.

A :class:`Prefix` is an immutable ``(network, length)`` pair stored as a
masked 32-bit integer plus a mask length.  The representation supports
the operations the MOAS analysis needs — parsing Route Views style
``a.b.c.d/len`` strings, containment tests, supernet/subnet navigation,
and total ordering for use as dictionary keys and in sorted reports.

The 2001 study is IPv4-only, so this type deliberately models only
IPv4.
"""

from __future__ import annotations

import re
from functools import total_ordering

_MAX_LENGTH = 32
_ADDRESS_MASK = 0xFFFFFFFF
_DOTTED_QUAD = re.compile(
    r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})(?:/(\d{1,2}))?$"
)


def _mask_for(length: int) -> int:
    """Netmask for a prefix length as a 32-bit integer."""
    if length == 0:
        return 0
    return (_ADDRESS_MASK << (_MAX_LENGTH - length)) & _ADDRESS_MASK


@total_ordering
class Prefix:
    """An immutable IPv4 prefix such as ``192.0.2.0/24``.

    Host bits must be zero; pass ``strict=False`` to silently mask them
    (useful when ingesting sloppy announcements, which do occur in real
    BGP data).
    """

    __slots__ = ("_network", "_length", "_hash")

    def __init__(self, network: int, length: int, *, strict: bool = True) -> None:
        if not 0 <= length <= _MAX_LENGTH:
            raise ValueError(f"prefix length {length} outside 0..32")
        if not 0 <= network <= _ADDRESS_MASK:
            raise ValueError(f"network {network:#x} outside 32-bit range")
        masked = network & _mask_for(length)
        if strict and masked != network:
            raise ValueError(
                f"host bits set in {_format_address(network)}/{length}"
            )
        self._network = masked
        self._length = length
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len``; a bare address parses as a /32."""
        return cls(*parse_network(text))

    @classmethod
    def from_octets(cls, octets: bytes, length: int) -> "Prefix":
        """Build a prefix from the truncated octet form used in MRT/BGP.

        BGP NLRI encodes only ``ceil(length / 8)`` octets; missing
        low-order octets are zero.
        """
        needed = (length + 7) // 8
        if len(octets) < needed:
            raise ValueError(
                f"need {needed} octets for /{length}, got {len(octets)}"
            )
        padded = bytes(octets[:needed]) + b"\x00" * (4 - needed)
        network = int.from_bytes(padded, "big")
        return cls(network, length, strict=False)

    # -- accessors ----------------------------------------------------

    @property
    def network(self) -> int:
        """Network address as a 32-bit integer (host bits zero)."""
        return self._network

    @property
    def length(self) -> int:
        """Mask length, 0..32."""
        return self._length

    @property
    def netmask(self) -> int:
        """Netmask as a 32-bit integer."""
        return _mask_for(self._length)

    @property
    def num_addresses(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (_MAX_LENGTH - self._length)

    def to_octets(self) -> bytes:
        """Truncated octet form (``ceil(length / 8)`` bytes) for NLRI."""
        needed = (self._length + 7) // 8
        return self._network.to_bytes(4, "big")[:needed]

    # -- relations ----------------------------------------------------

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than ``self``."""
        if other._length < self._length:
            return False
        return (other._network & self.netmask) == self._network

    def contains_address(self, address: int) -> bool:
        """True if the 32-bit ``address`` falls inside the prefix."""
        return (address & self.netmask) == self._network

    def overlaps(self, other: "Prefix") -> bool:
        """True if the two prefixes share any address."""
        return self.contains(other) or other.contains(self)

    def supernet(self, *, new_length: int | None = None) -> "Prefix":
        """The covering prefix one bit (or ``new_length`` bits) shorter."""
        target = self._length - 1 if new_length is None else new_length
        if not 0 <= target <= self._length:
            raise ValueError(
                f"cannot widen /{self._length} to /{target}"
            )
        return Prefix(self._network & _mask_for(target), target, strict=False)

    def subnets(self) -> tuple["Prefix", "Prefix"]:
        """The two halves of this prefix, one bit longer."""
        if self._length >= _MAX_LENGTH:
            raise ValueError("cannot subnet a /32")
        child_length = self._length + 1
        low = Prefix(self._network, child_length, strict=False)
        high_bit = 1 << (_MAX_LENGTH - child_length)
        high = Prefix(self._network | high_bit, child_length, strict=False)
        return (low, high)

    def bit(self, position: int) -> int:
        """The ``position``-th most-significant network bit (0-based).

        Only bits inside the mask are meaningful; asking beyond
        ``length`` raises :class:`IndexError` to catch trie bugs early.
        """
        if not 0 <= position < self._length:
            raise IndexError(f"bit {position} outside /{self._length}")
        return (self._network >> (_MAX_LENGTH - 1 - position)) & 1

    @staticmethod
    def common_supernet(first: "Prefix", second: "Prefix") -> "Prefix":
        """The longest prefix containing both arguments."""
        max_length = min(first._length, second._length)
        diff = first._network ^ second._network
        length = 0
        while length < max_length:
            if diff >> (_MAX_LENGTH - 1 - length) & 1:
                break
            length += 1
        return Prefix(first._network & _mask_for(length), length, strict=False)

    # -- dunder -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self._network == other._network and self._length == other._length

    def __lt__(self, other: "Prefix") -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return (self._network, self._length) < (other._network, other._length)

    def __hash__(self) -> int:
        # Prefixes spend their lives as dict keys in the study fold, so
        # the tuple hash is computed once and cached (hash() never
        # returns -1, leaving None as a safe sentinel).
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self._network, self._length))
        return cached

    def __str__(self) -> str:
        return format_network(self._network, self._length)

    def __repr__(self) -> str:
        return f"Prefix.parse({str(self)!r})"

    def sort_key(self) -> tuple[int, int]:
        """Stable ``(network, length)`` key for external sorting."""
        return (self._network, self._length)


def parse_network(text: str) -> tuple[int, int]:
    """``(network, length)`` of ``a.b.c.d/len`` text, a bare address
    being a /32: exactly what :meth:`Prefix.parse` accepts, refused
    with its messages, without building a :class:`Prefix`."""
    match = _DOTTED_QUAD.match(text.strip())
    if not match:
        raise ValueError(f"not an IPv4 prefix: {text!r}")
    first, second, third, fourth, length = match.groups()
    first, second, third, fourth = (
        int(first), int(second), int(third), int(fourth)
    )
    if first > 255 or second > 255 or third > 255 or fourth > 255:
        raise ValueError(f"octet out of range in {text!r}")
    length = int(length) if length is not None else _MAX_LENGTH
    if length > _MAX_LENGTH:
        raise ValueError(f"prefix length {length} outside 0..32")
    network = (first << 24) | (second << 16) | (third << 8) | fourth
    if network & (_ADDRESS_MASK >> length):
        raise ValueError(
            f"host bits set in {_format_address(network)}/{length}"
        )
    return network, length


def format_network(network: int, length: int) -> str:
    """The ``a.b.c.d/len`` text of a ``(network, length)`` pair, as
    ``str(Prefix(network, length))`` spells it."""
    return f"{_format_address(network)}/{length}"


def _format_address(value: int) -> str:
    return f"{value >> 24}.{(value >> 16) & 0xFF}.{(value >> 8) & 0xFF}.{value & 0xFF}"
