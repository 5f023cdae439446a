"""RPKI Route Origin Authorizations and RFC 6811 origin validation.

The paper's valid/invalid heuristic (Section VI-F) predates the RPKI;
modern re-examinations of MOAS conflicts — "Live Long and Prosper"
(arXiv:2307.08490) and the ROA-conflict classifiers (arXiv:2502.03378)
— ask instead what the Route Origin Authorization database says about
each origin.  This module is that layer for our substrate:

- a :class:`Roa` is one authorization: *origin* may announce *prefix*
  and its more-specifics up to *max_length*, optionally within a
  day-stamped validity window (ROAs are created when address space is
  registered and can lapse after an ownership transfer);
- a :class:`RoaTable` is an immutable set of ROAs with covering-prefix
  lookup (a dict of the ROAs by prefix, probed once per ROA length
  present) and the RFC 6811 route-origin-validation procedure: an
  announcement is **valid** when some covering, active ROA authorizes
  its origin at its length, **invalid** when ROAs cover it but none
  match, and **not-found** when no ROA covers it at all.

A table holds its ROAs as integer rows, built straight from the parsed
``roas.json`` in one validating pass (:meth:`RoaTable.from_rows`);
:class:`Roa` objects are made only for a caller that asks for them.
Tables are immutable after construction and validation is a pure
function of ``(prefix, origin, day)``, so one table can be shared by
the study state and the verdict engine, and a checkpoint names the
database it validated against by :attr:`RoaTable.digest`.
"""

from __future__ import annotations

import datetime
import enum
import hashlib
import json
import struct
from dataclasses import dataclass
from itertools import starmap
from pathlib import Path as FsPath

from repro.netbase.prefix import Prefix, format_network, parse_network


class ValidationState(enum.Enum):
    """RFC 6811 route origin validation outcome."""

    VALID = "valid"
    INVALID = "invalid"
    NOT_FOUND = "not_found"


#: Episode-level precedence: one invalid observation taints the whole
#: episode, a valid observation beats mere non-coverage.  This is the
#: per-prefix rollup the long-lived-MOAS analysis buckets by.
STATE_PRECEDENCE = (
    ValidationState.INVALID,
    ValidationState.VALID,
    ValidationState.NOT_FOUND,
)

#: Rollup label for episodes analyzed without any ROA table.
STATE_NOT_EVALUATED = "not_evaluated"


def worst_state(
    first: ValidationState | None, second: ValidationState
) -> ValidationState:
    """The higher-precedence of two validation states (see above)."""
    if first is None:
        return second
    for state in STATE_PRECEDENCE:
        if first is state or second is state:
            return state
    return second  # unreachable: precedence covers every state


#: The largest AS number (RFC 6793); an origin is packed as 32 bits.
_MAX_ORIGIN = 0xFFFFFFFF


def _max_length_error(max_length: int, prefix: Prefix) -> str:
    return f"ROA max_length {max_length} outside {prefix.length}..32 for {prefix}"


def _origin_error(origin: int) -> str:
    if origin < 0:
        return f"ROA origin {origin} is negative"
    return f"ROA origin {origin} exceeds 32 bits"


def _window_error(valid_from: datetime.date, valid_until: datetime.date) -> str:
    return f"ROA window ends {valid_until} before it starts {valid_from}"


@dataclass(frozen=True)
class Roa:
    """One Route Origin Authorization.

    ``origin`` may originate ``prefix`` and any more-specific up to
    ``max_length``.  ``valid_from`` / ``valid_until`` bound the days the
    authorization is active (inclusive; ``None`` means unbounded) —
    the day-stamped windows that model ROAs issued when space is
    registered and left stale after it changes hands.
    """

    prefix: Prefix
    max_length: int
    origin: int
    valid_from: datetime.date | None = None
    valid_until: datetime.date | None = None

    def __post_init__(self) -> None:
        if not self.prefix.length <= self.max_length <= 32:
            raise ValueError(_max_length_error(self.max_length, self.prefix))
        if not 0 <= self.origin <= _MAX_ORIGIN:
            raise ValueError(_origin_error(self.origin))
        if (
            self.valid_from is not None
            and self.valid_until is not None
            and self.valid_until < self.valid_from
        ):
            raise ValueError(_window_error(self.valid_from, self.valid_until))

    def active_on(self, day: datetime.date | None) -> bool:
        """Whether the ROA is in force on ``day`` (None = ignore windows)."""
        if day is None:
            return True
        if self.valid_from is not None and day < self.valid_from:
            return False
        return self.valid_until is None or day <= self.valid_until

    def authorizes(self, prefix: Prefix, origin: int) -> bool:
        """RFC 6811 match: covers ``prefix``, within max-length, same AS."""
        return (
            self.origin == origin
            and prefix.length <= self.max_length
            and self.prefix.contains(prefix)
        )

    def to_dict(self) -> dict:
        """The ``roas.json`` row for this authorization."""
        return _row_dict(_row_of(self))


#: A ROA row's window bounds when it has none: ``valid_from`` sorts
#: before every day's ordinal, ``valid_until`` after.
_OPEN_START = 0
_OPEN_END = datetime.date.max.toordinal() + 1

#: The packing of one canonical row (see :class:`RoaTable`) that
#: :attr:`RoaTable.digest` hashes.
_PACKED_ROW = struct.Struct(">IBBIII")

#: Keys every ``roas.json`` row must carry.
_REQUIRED_KEYS = ("prefix", "max_length", "origin")

#: JSON's name for each parsed value type, for error messages.
_JSON_TYPES = {
    type(None): "null",
    bool: "boolean",
    int: "number",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
}


def _json_type(value) -> str:
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _row_error(position: int, field: str, detail) -> ValueError:
    return ValueError(f"ROA row {position} {field}: {detail}")


def _day_ordinal(value, ordinals: dict, position: int, field: str) -> int:
    """The ordinal of a non-null window bound, each string parsed once."""
    if type(value) is not str:
        raise _row_error(
            position, field, f"expected null or an ISO date, got {_json_type(value)}"
        )
    ordinal = ordinals.get(value)
    if ordinal is None:
        try:
            ordinal = ordinals[value] = datetime.date.fromisoformat(value).toordinal()
        except ValueError as error:
            raise _row_error(position, field, error) from None
    return ordinal


def _parsed_rows(rows) -> list[tuple]:
    """The canonical-row tuple of each ``roas.json`` row, unsorted.

    One pass that refuses what :class:`Roa` and :meth:`Prefix.parse`
    refuse, with their messages, and a row that is not an object, lacks
    a key or carries a field of the wrong JSON type (``max_length`` and
    ``origin`` are integers, never booleans; a window bound is null or
    an ISO date string): each a :class:`ValueError` naming the row's
    position and field.  Each distinct prefix text and date string is
    parsed once.
    """
    networks: dict[str, tuple[int, int]] = {}
    ordinals: dict[str, int] = {}
    parsed = []
    append = parsed.append
    for position, row in enumerate(rows):
        if type(row) is not dict:
            raise ValueError(
                f"ROA row {position} must be a JSON object, got {_json_type(row)}"
            )
        try:
            text = row["prefix"]
            max_length = row["max_length"]
            origin = row["origin"]
        except KeyError:
            missing = ", ".join(key for key in _REQUIRED_KEYS if key not in row)
            raise ValueError(f"ROA row {position} is missing {missing}") from None
        if type(text) is not str:
            raise _row_error(
                position, "prefix", f"expected a string, got {_json_type(text)}"
            )
        pair = networks.get(text)
        if pair is None:
            try:
                pair = networks[text] = parse_network(text)
            except ValueError as error:
                raise _row_error(position, "prefix", error) from None
        network, length = pair
        if type(max_length) is not int or type(origin) is not int:
            field, value = (
                ("max_length", max_length)
                if type(max_length) is not int
                else ("origin", origin)
            )
            raise _row_error(
                position, field, f"expected an integer, got {_json_type(value)}"
            )
        if not length <= max_length <= 32:
            raise _row_error(
                position,
                "max_length",
                _max_length_error(max_length, Prefix(network, length)),
            )
        if not 0 <= origin <= _MAX_ORIGIN:
            raise _row_error(position, "origin", _origin_error(origin))
        valid_from = row.get("valid_from")
        first = (
            _OPEN_START
            if valid_from is None
            else _day_ordinal(valid_from, ordinals, position, "valid_from")
        )
        valid_until = row.get("valid_until")
        last = (
            _OPEN_END
            if valid_until is None
            else _day_ordinal(valid_until, ordinals, position, "valid_until")
        )
        if last < first:
            raise _row_error(
                position,
                "valid_until",
                _window_error(
                    datetime.date.fromordinal(first), datetime.date.fromordinal(last)
                ),
            )
        append((network, length, max_length, origin, first, last))
    return parsed


def _row_of(roa: Roa) -> tuple:
    """The canonical row of an authorization."""
    prefix = roa.prefix
    return (
        prefix.network,
        prefix.length,
        roa.max_length,
        roa.origin,
        roa.valid_from.toordinal() if roa.valid_from is not None else _OPEN_START,
        roa.valid_until.toordinal() if roa.valid_until is not None else _OPEN_END,
    )


def _row_dict(row: tuple) -> dict:
    """The ``roas.json`` row of a canonical row."""
    network, length, max_length, origin, first, last = row
    return {
        "prefix": format_network(network, length),
        "max_length": max_length,
        "origin": origin,
        "valid_from": (
            datetime.date.fromordinal(first).isoformat()
            if first != _OPEN_START
            else None
        ),
        "valid_until": (
            datetime.date.fromordinal(last).isoformat()
            if last != _OPEN_END
            else None
        ),
    }


def _roa_of(row: tuple) -> Roa:
    """The authorization of a canonical row."""
    network, length, max_length, origin, first, last = row
    return Roa(
        Prefix(network, length),
        max_length,
        origin,
        datetime.date.fromordinal(first) if first != _OPEN_START else None,
        datetime.date.fromordinal(last) if last != _OPEN_END else None,
    )


class RoaTable:
    """An immutable ROA database with RFC 6811 origin validation.

    Build it once from any iterable of :class:`Roa` rows, or from the
    parsed rows of a ``roas.json`` (:meth:`from_rows`).  Either way the
    table keeps one canonical row per ROA, ``(network, length,
    max_length, origin, first, last)``, ``first`` and ``last`` being the
    window's day ordinals (:data:`_OPEN_START` / :data:`_OPEN_END` when
    unbounded), sorted as tuples: by prefix, then max length, origin and
    window.  The rows are indexed by ``(network, length)``, so the
    covering lookup probes the index once per ROA prefix length present
    in the table (at most 33), shortest first, whatever the table's
    size.  :class:`Roa` objects are made only for a caller that asks for
    them: iteration and :meth:`covering_roas`.

    The table never mutates after construction — one instance is safe
    to share across every accumulator of a study — and :attr:`digest`
    (a SHA-256 over the canonical rows) is the identity a checkpoint
    names it by.
    """

    def __init__(self, roas=()) -> None:
        self._index([_row_of(roa) for roa in roas])

    def _index(self, rows: list[tuple]) -> None:
        """Sort the canonical rows and index them by prefix."""
        rows.sort()
        self._rows = tuple(rows)
        #: ``(network, length)`` -> the rows on that prefix, in table
        #: order.
        by_prefix: dict[tuple[int, int], list[tuple]] = {}
        for row in rows:
            key = (row[0], row[1])
            found = by_prefix.get(key)
            if found is None:
                by_prefix[key] = [row]
            else:
                found.append(row)
        self._by_prefix = by_prefix
        #: ``(length, netmask)`` of each ROA prefix length present,
        #: shortest first.
        self._lengths = tuple(
            (length, 0xFFFFFFFF ^ (0xFFFFFFFF >> length))
            for length in sorted({length for _network, length in by_prefix})
        )
        self._digest: str | None = None
        # Hot-path memos (pure caches — the table stays logically
        # immutable).  A conflicted prefix is re-validated for the same
        # origins every day of its episode, so:
        # - ``_covering_cache`` runs the covering lookup once per
        #   distinct prefix;
        # - ``_steady_cache`` short-circuits whole (prefix, origin)
        #   pairs: when no covering ROA ever *expires*
        #   (``valid_until is None``, the common case), the outcome is
        #   constant from the day every window has opened — one dict
        #   hit and a date compare per validation instead of a scan.
        self._covering_cache: dict[Prefix, tuple[tuple, ...]] = {}
        self._steady_cache: dict[
            tuple[Prefix, int],
            tuple[datetime.date | None, ValidationState | None],
        ] = {}
        # Same idea one level up, keyed by a whole conflict's origin
        # set: the study fold asks "worst state over these origins"
        # for the same (prefix, origins) pair every day an episode is
        # live — one dict hit answers it.
        self._set_cache: dict[
            tuple[Prefix, frozenset[int]],
            tuple[datetime.date | None, ValidationState | None],
        ] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return map(_roa_of, self._rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaTable):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    @property
    def digest(self) -> str:
        """The table's identity: a hex SHA-256 over its canonical rows,
        each packed as big-endian integers.  Computed on the first ask."""
        if self._digest is None:
            packed = b"".join(starmap(_PACKED_ROW.pack, self._rows))
            self._digest = hashlib.sha256(packed).hexdigest()
        return self._digest

    def _covering(self, prefix: Prefix) -> tuple[tuple, ...]:
        """The rows whose prefix contains ``prefix``: shortest ROA
        prefix first, in table order within one prefix."""
        cached = self._covering_cache.get(prefix)
        if cached is None:
            network = prefix.network
            longest = prefix.length
            found: list[tuple] = []
            for length, mask in self._lengths:
                if length > longest:
                    break
                rows = self._by_prefix.get((network & mask, length))
                if rows is not None:
                    found.extend(rows)
            cached = self._covering_cache[prefix] = tuple(found)
        return cached

    def covering_roas(
        self, prefix: Prefix, *, day: datetime.date | None = None
    ) -> tuple[Roa, ...]:
        """Every ROA whose prefix covers ``prefix`` and is active on ``day``."""
        today = day.toordinal() if day is not None else None
        return tuple(
            _roa_of(row)
            for row in self._covering(prefix)
            if today is None or row[4] <= today <= row[5]
        )

    def validate(
        self,
        prefix: Prefix,
        origin: int,
        *,
        day: datetime.date | None = None,
    ) -> ValidationState:
        """RFC 6811 validation of ``origin`` announcing ``prefix``.

        ``day`` restricts the database to ROAs active that day
        (``None`` considers every ROA regardless of window).
        """
        if day is not None:
            threshold, steady = self._steady_entry(prefix, origin)
            if threshold is not None and day >= threshold:
                return steady  # type: ignore[return-value]
        return self._scan(prefix, origin, day)

    def validate_origins(
        self,
        prefix: Prefix,
        origins,
        *,
        day: datetime.date | None = None,
    ) -> ValidationState | None:
        """Worst-precedence rollup over a conflict's origin set.

        The per-day MOAS-episode question: one invalid origin makes the
        day ``INVALID``, otherwise any valid origin makes it ``VALID``,
        otherwise ``NOT_FOUND`` (``None`` for an empty origin set).
        Equivalent to folding :meth:`validate` per origin with
        :func:`worst_state`, but memoized per ``(prefix, origins)`` —
        episodes re-ask this every day they are live.
        """
        if day is not None:
            threshold, steady = self.steady_rollup(prefix, origins)
            if threshold is not None and day >= threshold:
                return steady
        rollup: ValidationState | None = None
        for origin in origins:
            state = self.validate(prefix, origin, day=day)
            if state is ValidationState.INVALID:
                return state
            rollup = worst_state(rollup, state)
        return rollup

    def steady_rollup(
        self, prefix: Prefix, origins
    ) -> tuple[datetime.date | None, ValidationState | None]:
        """``(threshold, state)``: on every day from ``threshold`` on,
        :meth:`validate_origins` of ``(prefix, origins)`` answers
        ``state``; ``(None, None)`` when a covering ROA expires (or the
        set is empty) and no such day exists.

        Derived once per ``(prefix, origins)`` pair and then answered
        with one dict probe, which is what lets the episode fold merge
        a recurring conflict's steady state without re-validating it.
        """
        key = (prefix, origins)
        entry = self._set_cache.get(key)
        if entry is None:
            entry = self._set_cache[key] = self._set_steady(prefix, origins)
        return entry

    def fold_episode_state(
        self,
        current: ValidationState | None,
        prefix: Prefix,
        origins,
        *,
        day: datetime.date | None = None,
    ) -> ValidationState | None:
        """Fold one conflict-day into an episode's running rollup.

        The streaming-fold step the episode tracker performs per
        conflict-day: ``INVALID`` is absorbing,
        otherwise the day's :meth:`validate_origins` rollup combines
        into ``current`` by worst-first precedence.
        """
        if current is ValidationState.INVALID:
            return current
        day_state = self.validate_origins(prefix, origins, day=day)
        if day_state is None:
            return current
        return worst_state(current, day_state)

    def _set_steady(
        self, prefix: Prefix, origins
    ) -> tuple[datetime.date | None, ValidationState | None]:
        """:meth:`steady_rollup` derived afresh: the latest of the
        origins' thresholds and the window-free rollup."""
        thresholds = []
        for origin in origins:
            threshold, _steady = self._steady_entry(prefix, origin)
            if threshold is None:
                return (None, None)
            thresholds.append(threshold)
        if not thresholds:
            return (None, None)
        return (max(thresholds), self.validate_origins(prefix, origins))

    def _steady_entry(
        self, prefix: Prefix, origin: int
    ) -> tuple[datetime.date | None, ValidationState | None]:
        """:meth:`_steady` of ``(prefix, origin)``, derived on the
        first ask only."""
        key = (prefix, origin)
        entry = self._steady_cache.get(key)
        if entry is None:
            entry = self._steady_cache[key] = self._steady(prefix, origin)
        return entry

    def _steady(
        self, prefix: Prefix, origin: int
    ) -> tuple[datetime.date | None, ValidationState | None]:
        """``(threshold, state)``: from ``threshold`` on, validation of
        ``(prefix, origin)`` always returns ``state``; ``(None, None)``
        when some covering ROA expires and no steady day exists."""
        covering = self._covering(prefix)
        if any(row[5] != _OPEN_END for row in covering):
            return (None, None)
        opened = max((row[4] for row in covering), default=_OPEN_START)
        threshold = (
            datetime.date.fromordinal(opened)
            if opened != _OPEN_START
            else datetime.date.min
        )
        return (threshold, self._scan(prefix, origin, None))

    def _scan(
        self, prefix: Prefix, origin: int, day: datetime.date | None
    ) -> ValidationState:
        covered = False
        length = prefix.length
        today = day.toordinal() if day is not None else None
        for row in self._covering(prefix):
            if today is not None and not row[4] <= today <= row[5]:
                continue
            covered = True
            if row[3] == origin and length <= row[2]:
                return ValidationState.VALID
        return (
            ValidationState.INVALID if covered else ValidationState.NOT_FOUND
        )

    # -- (de)serialization -------------------------------------------------

    def to_json(self) -> str:
        """The table as a one-line ``roas.json`` document, in canonical
        order."""
        return json.dumps(list(map(_row_dict, self._rows)))

    @classmethod
    def from_rows(cls, rows) -> "RoaTable":
        """Build a table from parsed ``roas.json`` rows in one validating
        pass; a malformed row raises :class:`ValueError` naming its
        position and field (see :func:`_parsed_rows`)."""
        table = cls.__new__(cls)
        table._index(_parsed_rows(rows))
        return table

    @classmethod
    def from_json(cls, text: str) -> "RoaTable":
        """Parse a :meth:`to_json` document (a JSON array of ROA rows)."""
        payload = json.loads(text)
        if not isinstance(payload, list):
            raise ValueError(
                "a ROA file is a JSON array of authorization objects"
            )
        return cls.from_rows(payload)

    @classmethod
    def load(cls, source) -> "RoaTable":
        """Resolve ``source`` into a table.

        Accepts an existing :class:`RoaTable` (returned unchanged), a
        ``roas.json`` file path, or a CDS archive directory containing
        one.  A file that does not parse, or holds a malformed row,
        raises :class:`ValueError` naming the file.
        """
        if isinstance(source, RoaTable):
            return source
        path = FsPath(source)
        if path.is_dir():
            candidate = path / "roas.json"
            if not candidate.is_file():
                raise FileNotFoundError(
                    f"no roas.json inside {path} (was the archive "
                    f"generated with --rpki?)"
                )
            path = candidate
        if not path.is_file():
            raise FileNotFoundError(f"no ROA file at {path}")
        try:
            return cls.from_json(path.read_text())
        except ValueError as error:
            raise ValueError(f"{path}: {error}") from None
