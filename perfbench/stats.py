"""Summary statistics the workloads report.

A bounded read latency is a p90, not a median.  On the shared two-core
host the benchmark is sized for (see :mod:`perfbench.speed`), CPU speed
alternates between a steady contended state and faster bursts, and a
cold query takes nearly twice as long in the first.  A run's median
query lands on whichever state happened to dominate that run; its p90
stays on the steady state.  Over three recorded series of back to back
``batch-index`` repetitions cut into non-overlapping 20-30 s windows,
the quartile spread across windows of the median query was 6-51% of its
median, and of the p90 5-16%.
"""

from __future__ import annotations

import math
import statistics

#: A tail percentile needs at least this many samples beyond its rank.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``) of ``samples``.

    Raises ValueError when fewer than :data:`MIN_BEYOND` samples lie
    beyond the percentile's rank: a tail figure taken from fewer is
    mostly one sample's noise.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    count = len(samples)
    rank = max(1, math.ceil(q * count / 100))
    if count - rank < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} needs {MIN_BEYOND} samples beyond it; "
            f"{count} samples leave {count - rank}"
        )
    return sorted(samples)[rank - 1]


def median(samples) -> float:
    """The median of a non-empty sample."""
    return statistics.median(samples)


def open_loop_delays(records) -> tuple[list[float], list[float]]:
    """Latency and generator lateness of open-loop requests.

    ``records`` holds ``(due, sent, done)`` times.  Latency counts from
    when a request was due, so a stall also charges the requests queued
    behind it; lateness is how long after its due time the generator
    actually sent it.
    """
    latencies = [done - due for due, _sent, done in records]
    lateness = [max(0.0, sent - due) for due, sent, _done in records]
    return latencies, lateness


def ingest_lag(started: float, finished: float, days: int, delay: float) -> float:
    """Wall time to fold ``days`` days, minus the throttle the daemon slept."""
    return (finished - started) - days * delay
