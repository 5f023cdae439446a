"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload batch-index --seed 1 --seconds 15 --trace 0

Run from the repository root; the package under test is imported from
``src/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The lines before it print every
metric under the workload's own names, and with ``--trace 1`` the
tracing overhead on each end-to-end metric and every layer metric with
the end-to-end metric it should move.

``--generate``, ``--reference`` and ``--serve-child`` are the entry
points of the archive-generator, reference and daemon processes the
workloads start.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ENTRY = Path(__file__).resolve()
ROOT = ENTRY.parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Archive generations per run; ``setup_s`` takes their median.
SETUPS = 3


@dataclass
class Context:
    entry: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    world_seed: int
    setups: int = SETUPS


def _workloads() -> dict:
    from perfbench import batch, serve

    return {"batch-index": batch, "serve-ingest": serve}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=20011108)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--world-seed",
        type=int,
        default=None,
        help="seed of the simulated world (default 20011108)",
    )
    parser.add_argument("--generate", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--reference", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--serve-child", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--ingest-delay", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--report", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--trace-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from perfbench import inputs

    world_seed = inputs.WORLD_SEED if args.world_seed is None else args.world_seed
    if args.generate is not None:
        inputs.generate(args.generate, world_seed)
        return 0
    if args.serve_child is not None:
        from perfbench.serve import serve_child

        return serve_child(
            args.serve_child, args.ingest_delay, args.report, args.trace_child
        )

    workloads = _workloads()
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    if args.reference is not None:
        workloads[args.workload].reference(args.reference, args.seed, args.out)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [metric["name"] for metric in spec["per_layer"]]
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        outcome = workloads[args.workload].run(
            Context(
                entry=ENTRY,
                work=work,
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                world_seed=world_seed,
            )
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(
        f"inputs: v2 archive at scale {inputs.SCALE}, canned incidents, RPKI "
        f"shadow, world seed {world_seed}; seed {args.seed} draws "
        f"{inputs.PREFIXES} prefixes ({inputs.ABSENT_SHARE:.0%} absent)"
    )
    outcome.print_report(args.workload, per_layer)
    return 0


if __name__ == "__main__":
    sys.exit(main())
