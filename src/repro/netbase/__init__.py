"""IP and AS-number primitives underlying the whole library.

This subpackage is the lowest layer of the reproduction: IPv4 prefixes,
AS numbers, AS paths (with AS_SET / AS_SEQUENCE segments, which the paper
explicitly discusses), a binary radix trie for prefix lookups, and the
routing-table structures every other layer exchanges.
"""

from repro.netbase.asn import (
    AS_TRANS,
    PRIVATE_AS_MAX,
    PRIVATE_AS_MIN,
    is_documentation_asn,
    is_private_asn,
    is_reserved_asn,
    validate_asn,
)
from repro.netbase.aspath import ASPath, Segment, SegmentType
from repro.netbase.prefix import Prefix
from repro.netbase.rib import PeerId, Route, RibSnapshot
from repro.netbase.rpki import Roa, RoaTable, ValidationState
from repro.netbase.trie import PrefixTrie

__all__ = [
    "AS_TRANS",
    "PRIVATE_AS_MAX",
    "PRIVATE_AS_MIN",
    "is_documentation_asn",
    "is_private_asn",
    "is_reserved_asn",
    "validate_asn",
    "ASPath",
    "Segment",
    "SegmentType",
    "Prefix",
    "PeerId",
    "Route",
    "RibSnapshot",
    "Roa",
    "RoaTable",
    "ValidationState",
    "PrefixTrie",
]
