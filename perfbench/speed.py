"""The host's CPU speed, probed beside the calls a workload times.

On the shared two-core host the benchmark is sized for, CPU speed
alternates between a steady contended state and bursts up to 1.6 times
faster (a cold query up to 1.9 times) that last from seconds to a
minute, and the mix of the two drifts over minutes.  A 15-30 s run
cannot average that out: its wall times move with whatever the host did
during that run, and ten runs of the same code spread by a third.

So ``batch-index`` runs a fixed probe right before and right after each
analyze call and right after each query (``serve-ingest`` probes from
its load generator, see :mod:`perfbench.serve`), and also reports the
calls at a reference speed: each query's time scaled by the probe's
reference time over the mean of the two probes on either side of it,
and the mean analyze time by the reference over the mean of every probe
in the run.  The probe decodes varints into tuples and a dict in pure
Python, the kind of work the program does, so it slows with the host
about as much as the calls do: over 100 s of alternating cold queries
and probes, the query's slow-to-fast ratio was 1.57, a plain arithmetic
loop's 1.28 and this probe's 1.44, and the quartile spread of 2 s means
of query time over probe time was 6% of its median against 29% for the
raw query time.

Over ten runs of the same code while the host slowed by up to 1.9
times, the raw median analyze time spread by 60% of its median and the
raw query p90 by 50%; scaled by one probe beside each call they spread
by 19% and 16%.  Averaging the probes on both sides of each query, and
every probe in the run for analyze, took five later runs from 15% and
22% raw to 5% and 4%.
"""

from __future__ import annotations

import time

#: Seconds one probe takes at the reference speed, about its time in
#: ``batch-index`` in the host's contended state, so that workload's
#: scaled times read close to its wall times there.  The serve load
#: generator probes beside a busy daemon and its own threads, which makes
#: its probes slower and its scaled times lower than its wall times; a
#: scaled time compares only with the same metric in other runs.
REFERENCE_S = 0.003


def _uvarint(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


#: 6000 varints of one to three bytes, about 18 KB.
_BLOB = b"".join(_uvarint(i * 2654435761 % (1 << 21)) for i in range(6000))


def probe() -> float:
    """Wall time of decoding :data:`_BLOB` into rows, in seconds."""
    started = time.perf_counter()
    raw = _BLOB
    at = 0
    values = []
    while at < len(raw):
        shift = value = 0
        while True:
            byte = raw[at]
            at += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        values.append(value)
    _rows = {values[i]: tuple(values[i : i + 3]) for i in range(0, len(values), 3)}
    return time.perf_counter() - started


def scaled(seconds: float, probe_seconds: float) -> float:
    """``seconds`` measured beside a probe of ``probe_seconds``, at the
    reference speed."""
    return seconds * REFERENCE_S / probe_seconds


def at_reference(seconds, probes) -> float:
    """Mean of ``seconds`` scaled to the reference speed by the mean of
    ``probes``."""
    return scaled(sum(seconds) / len(seconds), sum(probes) / len(probes))
