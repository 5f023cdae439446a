"""The object-at-a-time ``roas.json`` row reader, kept as the reference
for :meth:`~repro.netbase.rpki.RoaTable.from_rows`.

:func:`roa_from_dict` builds one :class:`~repro.netbase.rpki.Roa` per
row through :meth:`Prefix.parse` and the dataclass's own checks, which
is how tables were loaded before the integer-row loader.  On every
well-formed row list the table built from its ROAs must equal the one
``from_rows`` builds, with the same iteration, ``to_json()`` and
digest; ``tests/netbase/test_rpki.py`` holds it to that.
"""

import datetime

from repro.netbase.prefix import Prefix
from repro.netbase.rpki import Roa


def roa_from_dict(payload: dict) -> Roa:
    """Rebuild an authorization from :meth:`Roa.to_dict` output.

    Malformed rows raise :class:`ValueError` with a usable message
    rather than a bare ``KeyError``/``TypeError``.
    """
    if not isinstance(payload, dict):
        raise ValueError(
            f"a ROA row must be a JSON object, got {type(payload).__name__}"
        )
    missing = [
        key for key in ("prefix", "max_length", "origin") if key not in payload
    ]
    if missing:
        raise ValueError(f"ROA row is missing {', '.join(missing)}")

    def window(key: str) -> datetime.date | None:
        value = payload.get(key)
        return datetime.date.fromisoformat(value) if value is not None else None

    return Roa(
        prefix=Prefix.parse(payload["prefix"]),
        max_length=int(payload["max_length"]),
        origin=int(payload["origin"]),
        valid_from=window("valid_from"),
        valid_until=window("valid_until"),
    )
