"""What one workload run reports, and how it is printed."""

from __future__ import annotations

import json
import resource
from dataclasses import dataclass, field

from perfbench.layers import MOVES


def peak_rss_mb(kilobytes: int | None = None) -> float:
    """Peak resident set size in MB (this process's, by default)."""
    if kilobytes is None:
        kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kilobytes / 1024


@dataclass
class Outcome:
    """One run: operations, the metrics it measured, and its trace.

    ``named`` holds the workload's own end-to-end metrics under their
    own names; ``shared`` maps each end-to-end name of
    ``BENCHMARK.json``, which every workload reports, to one of them.  A
    traced run adds the same metrics measured with tracing on
    (``traced``), the per-layer metrics and, where the workload has one
    top-level call, that call's self-time decomposition.
    """

    attempted: int
    failed: int
    named: dict
    shared: dict
    traced: dict | None = None
    layers: dict | None = None
    decomposition: tuple | None = None
    notes: list = field(default_factory=list)

    def print_report(self, workload: str, per_layer: list[str]) -> None:
        """Human-readable lines, then the one-line JSON result."""
        print(f"workload {workload}: {self.attempted} operations, {self.failed} failed")
        reported_as = {own: shared for shared, own in self.shared.items()}
        for name, (value, unit) in self.named.items():
            shared = f"  (reported as {reported_as[name]})" if name in reported_as else ""
            print(f"  {name} = {value:.6g} {unit}{shared}")
        for note in self.notes:
            print(f"  {note}")
        if self.traced is not None:
            print("tracing overhead (traced - untraced):")
            for name, (value, unit) in self.traced.items():
                base = self.named[name][0]
                print(
                    f"  {name}: {value:.6g} vs {base:.6g} {unit} "
                    f"({value - base:+.6g} {unit}, {(value / base - 1) * 100:+.1f}%)"
                )
        if self.layers is not None:
            print("per-layer metrics (-> the end-to-end metric each should move):")
            for name, (value, unit) in self.layers.items():
                key = "serve.route.*_p50_ms" if name.startswith("serve.route.") else name
                print(f"  {name} = {value:.6g} {unit}  -> {MOVES[key]}")
        if self.decomposition is not None:
            rows, total = self.decomposition
            print("self-time decomposition of one traced call:")
            for label, value in rows:
                print(f"  {label:24s} {value:10.4f} s")
            print(f"  {'sum':24s} {sum(value for _l, value in rows):10.4f} s")
            print(f"  {'traced total':24s} {total:10.4f} s")
        if self.layers is not None:
            metrics = {name: self.layers[name] for name in per_layer}
        else:
            metrics = {shared: self.named[own] for shared, own in self.shared.items()}
        print(
            json.dumps(
                {
                    "correct": self.failed == 0,
                    "attempted": self.attempted,
                    "failed": self.failed,
                    "metrics": {
                        name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                    },
                }
            )
        )
