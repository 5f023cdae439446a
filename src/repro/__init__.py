"""repro — reproduction of Zhao et al., *An Analysis of BGP Multiple
Origin AS (MOAS) Conflicts* (IMC 2001).

The package layers as follows (lowest first):

- :mod:`repro.netbase` — IPv4 prefixes, AS numbers, AS paths, radix trie,
  RIB snapshots.
- :mod:`repro.mrt` — MRT archive codec (TABLE_DUMP / TABLE_DUMP_V2 /
  BGP4MP), our substitute for mrtparse.
- :mod:`repro.bgp` — a policy-aware BGP route-propagation engine
  (Gao-Rexford relationships, per-router decision process).
- :mod:`repro.topology` — Internet-like AS topology and address-space
  generation for the 1997-2001 study window.
- :mod:`repro.scenario` — the measurement world: MOAS cause processes,
  the simulated Route Views collector and the daily snapshot archive.
- :mod:`repro.core` — the paper's contribution: MOAS detection,
  classification, episode/duration tracking, statistics and cause
  attribution, plus a streaming real-time alerter.
- :mod:`repro.analysis` — the end-to-end study pipeline (serial, or
  with per-day detection fanned out over a process pool; see
  :mod:`repro.analysis.parallel`) and the table/figure report
  generators.
- :mod:`repro.api` — the canonical entry surface: pluggable
  :class:`~repro.api.sources.DetectionSource` adapters, the renderer
  registry, the checkpointable :class:`~repro.api.service.MoasService`
  session, and the unified ``repro`` CLI.

See README.md for install and quickstart, and CHANGES.md for the
release history.
"""

__version__ = "1.9.0"

from repro.netbase import (
    ASPath,
    PeerId,
    Prefix,
    RibSnapshot,
    Roa,
    RoaTable,
    Route,
    ValidationState,
)

__all__ = [
    "ASPath",
    "DetectionSource",
    "MoasService",
    "PeerId",
    "Prefix",
    "RibSnapshot",
    "Roa",
    "RoaTable",
    "Route",
    "ValidationState",
    "render",
    "__version__",
]


def __getattr__(name: str):
    """Lazily expose the :mod:`repro.api` facade at the top level.

    ``MoasService``, ``DetectionSource`` and ``render`` import the
    analysis stack; deferring that import keeps ``import repro`` cheap
    for callers that only need the value types.
    """
    if name in ("MoasService", "DetectionSource", "render"):
        import repro.api as api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
