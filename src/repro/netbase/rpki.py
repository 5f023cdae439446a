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

Tables are immutable after construction and validation is a pure
function of ``(prefix, origin, day)``, so one table can be shared by
the study state and the verdict engine, and a resumed checkpoint can
verify it validates against the same database (:attr:`RoaTable.key`).
"""

from __future__ import annotations

import datetime
import enum
import json
from dataclasses import dataclass
from pathlib import Path as FsPath

from repro.netbase.prefix import Prefix


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
            raise ValueError(
                f"ROA max_length {self.max_length} outside "
                f"{self.prefix.length}..32 for {self.prefix}"
            )
        if self.origin < 0:
            raise ValueError(f"ROA origin {self.origin} is negative")
        if (
            self.valid_from is not None
            and self.valid_until is not None
            and self.valid_until < self.valid_from
        ):
            raise ValueError(
                f"ROA window ends {self.valid_until} before it "
                f"starts {self.valid_from}"
            )

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
        return {
            "prefix": str(self.prefix),
            "max_length": self.max_length,
            "origin": self.origin,
            "valid_from": (
                self.valid_from.isoformat()
                if self.valid_from is not None
                else None
            ),
            "valid_until": (
                self.valid_until.isoformat()
                if self.valid_until is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Roa":
        """Rebuild an authorization from :meth:`to_dict` output.

        Malformed rows raise :class:`ValueError` with a usable message
        rather than a bare ``KeyError``/``TypeError``.
        """
        if not isinstance(payload, dict):
            raise ValueError(
                f"a ROA row must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        missing = [
            key
            for key in ("prefix", "max_length", "origin")
            if key not in payload
        ]
        if missing:
            raise ValueError(
                f"ROA row is missing {', '.join(missing)}"
            )

        def window(key: str) -> datetime.date | None:
            value = payload.get(key)
            return (
                datetime.date.fromisoformat(value)
                if value is not None
                else None
            )

        return cls(
            prefix=Prefix.parse(payload["prefix"]),
            max_length=int(payload["max_length"]),
            origin=int(payload["origin"]),
            valid_from=window("valid_from"),
            valid_until=window("valid_until"),
        )


class RoaTable:
    """An immutable ROA database with RFC 6811 origin validation.

    Build it once from any iterable of :class:`Roa` rows.  The ROAs are
    indexed by ``(network, length)``, so the covering lookup probes the
    index once per ROA prefix length present in the table (at most 33),
    shortest first, whatever the table's size.
    The table never mutates after construction — one instance is safe
    to share across every accumulator of a study, and :attr:`key` (the
    sorted ROA tuple) lets a resumed study check it kept the same
    database.
    """

    def __init__(self, roas=()) -> None:
        self._roas = tuple(
            sorted(
                roas,
                key=lambda roa: (
                    roa.prefix.sort_key(),
                    roa.max_length,
                    roa.origin,
                    roa.valid_from or datetime.date.min,
                    roa.valid_until or datetime.date.max,
                ),
            )
        )
        #: ``(network, length)`` -> the ROAs on that prefix, in table
        #: order.
        by_prefix: dict[tuple[int, int], list[Roa]] = {}
        for roa in self._roas:
            by_prefix.setdefault(
                (roa.prefix.network, roa.prefix.length), []
            ).append(roa)
        self._by_prefix = by_prefix
        #: ``(length, netmask)`` of each ROA prefix length present,
        #: shortest first.
        self._lengths = tuple(
            (length, 0xFFFFFFFF ^ (0xFFFFFFFF >> length))
            for length in sorted({length for _network, length in by_prefix})
        )
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
        self._covering_cache: dict[Prefix, tuple[Roa, ...]] = {}
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
        return len(self._roas)

    def __iter__(self):
        return iter(self._roas)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoaTable):
            return NotImplemented
        return self._roas == other._roas

    def __hash__(self) -> int:
        return hash(self._roas)

    @property
    def key(self) -> tuple[Roa, ...]:
        """The table's identity: its ROAs in canonical order."""
        return self._roas

    def _covering(self, prefix: Prefix) -> tuple[Roa, ...]:
        """The ROAs whose prefix contains ``prefix``: shortest ROA
        prefix first, in table order within one prefix."""
        cached = self._covering_cache.get(prefix)
        if cached is None:
            network = prefix.network
            longest = prefix.length
            found: list[Roa] = []
            for length, mask in self._lengths:
                if length > longest:
                    break
                roas = self._by_prefix.get((network & mask, length))
                if roas is not None:
                    found.extend(roas)
            cached = self._covering_cache[prefix] = tuple(found)
        return cached

    def covering_roas(
        self, prefix: Prefix, *, day: datetime.date | None = None
    ) -> tuple[Roa, ...]:
        """Every ROA whose prefix covers ``prefix`` and is active on ``day``."""
        return tuple(
            roa for roa in self._covering(prefix) if roa.active_on(day)
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
        if any(roa.valid_until is not None for roa in covering):
            return (None, None)
        threshold = datetime.date.min
        for roa in covering:
            if roa.valid_from is not None and roa.valid_from > threshold:
                threshold = roa.valid_from
        return (threshold, self._scan(prefix, origin, None))

    def _scan(
        self, prefix: Prefix, origin: int, day: datetime.date | None
    ) -> ValidationState:
        covered = False
        length = prefix.length
        for roa in self._covering(prefix):
            if not roa.active_on(day):
                continue
            covered = True
            if roa.origin == origin and length <= roa.max_length:
                return ValidationState.VALID
        return (
            ValidationState.INVALID if covered else ValidationState.NOT_FOUND
        )

    # -- (de)serialization -------------------------------------------------

    def to_json(self) -> str:
        """The table as a ``roas.json`` document."""
        return json.dumps([roa.to_dict() for roa in self._roas], indent=2)

    @classmethod
    def from_rows(cls, rows) -> "RoaTable":
        """Build a table from ``roas.json`` rows (dicts or Roa objects)."""
        return cls(
            row if isinstance(row, Roa) else Roa.from_dict(row)
            for row in rows
        )

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
        one.
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
        return cls.from_json(path.read_text())
