"""The ``batch-index`` workload: ``repro analyze --index``, then cold queries.

Each repetition runs the CLI entry in this process exactly as a
researcher would: one serial ``analyze ARCHIVE OUT --index --rpki
ARCHIVE --checkpoint CKPT``, then one cold ``query ARCHIVE PREFIX
--format json`` per chosen prefix, each loading the index from disk.
The reference the outputs are checked against is built in a child
process, so its memory and garbage never reach the measured process.

The bounded metrics are the mean analyze time and the query p90 at the
reference speed of :mod:`perfbench.speed`; the raw median analyze time
and query percentiles are printed beside them.
"""

from __future__ import annotations

import gc
import io
import json
import random
import time
from contextlib import redirect_stderr, redirect_stdout

from perfbench import inputs, layers, speed
from perfbench.outcome import Outcome, peak_rss_mb
from perfbench.stats import median, percentile
from perfbench.tracing import Tracer

#: Repetitions per run, at least; each adds one analyze sample and one
#: query per chosen prefix, so the query p90 has more than ten samples
#: beyond it.
MIN_REPETITIONS = 4

#: Shared end-to-end name -> this workload's own metric.
END_TO_END = {
    "setup_s": "setup_s",
    "peak_rss_mb": "peak_rss_mb",
    "study_s": "analyze_ref_s",
    "read_p90_ms": "query_ref_p90_ms",
}


def reference(archive, seed: int, directory) -> None:
    """Build the expected outputs through the library, not the CLI.

    Runs in a child process.  Writes ``out/report.txt`` and
    ``episodes.idx`` from ``MoasService`` feed, evaluate and
    ``build_index``, and ``queries.json``: the seed's prefixes, each
    with its expected JSON answer, or null when it has no episode.
    """
    from repro.analysis.index import EpisodeIndex
    from repro.api.cli import write_analysis
    from repro.api.renderers import render_query
    from repro.api.service import MoasService

    service = MoasService(roa_table=archive)
    service.feed(archive)
    verdicts = service.evaluate(archive).verdicts
    index_path = service.build_index(directory / "episodes.idx", verdicts=verdicts)
    write_analysis(service.results(), directory / "out", scale=inputs.SCALE)
    index = EpisodeIndex.load(index_path)
    queries = [
        [str(prefix), render_query(index.query(prefix), "json") if present else None]
        for prefix, present in inputs.choose_prefixes(index, random.Random(seed))
    ]
    (directory / "queries.json").write_text(json.dumps(queries))


def _call(argv: list[str]) -> tuple[int, str, float]:
    """Run the CLI in-process; returns exit code, stdout and wall time."""
    from repro.api.cli import main

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        started = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - started
    return code, out.getvalue(), elapsed


def run(ctx) -> Outcome:
    from repro.analysis.index import INDEX_FILENAME

    archive, generation = inputs.generate_archive(
        ctx.entry, ctx.work, ctx.world_seed, ctx.setups
    )
    expected_dir = ctx.work / "reference"
    warm_up = inputs.build_reference(
        ctx.entry, "batch-index", archive, ctx.seed, expected_dir
    )
    report = (expected_dir / "out" / "report.txt").read_bytes()
    index_bytes = (expected_dir / "episodes.idx").read_bytes()
    queries = json.loads((expected_dir / "queries.json").read_text())

    out = ctx.work / "out"
    checkpoint = ctx.work / "study.ckpt"
    produced = (out / "report.txt", archive / INDEX_FILENAME)
    analyze_argv = [
        "analyze", str(archive), str(out), "--index", "--rpki", str(archive),
        "--checkpoint", str(checkpoint),
    ]
    tracer = Tracer() if ctx.trace else None
    modes = (False, True) if ctx.trace else (False,)
    samples = {
        mode: {"analyze": [], "probe": [], "query": [], "query_ref": []}
        for mode in modes
    }
    attempted = failed = 0
    window = time.perf_counter()
    repetition = 0
    while (
        time.perf_counter() - window < ctx.seconds
        or min(len(samples[mode]["analyze"]) for mode in modes) < MIN_REPETITIONS
    ):
        traced = modes[repetition % len(modes)]
        taken = samples[traced]
        repetition += 1
        for path in produced:
            path.unlink(missing_ok=True)
        # Every repetition starts from the same collector state, so one
        # repetition's garbage is not collected on the next one's clock.
        gc.collect()
        if traced:
            tracer.install(layers.PATCHES)
        try:
            taken["probe"].append(speed.probe())
            frame = tracer.begin("cli.analyze") if traced else None
            code, _stdout, elapsed = _call(analyze_argv)
            if traced:
                tracer.end(frame)
            taken["probe"].append(speed.probe())
            analyze_ok = (
                code == 0
                and produced[0].read_bytes() == report
                and produced[1].read_bytes() == index_bytes
            )
            attempted += 1
            failed += not analyze_ok
            taken["analyze"].append(elapsed)
            gc.collect()
            for prefix, answer in queries:
                frame = tracer.begin("cli.query") if traced else None
                code, text, elapsed = _call(
                    ["query", str(archive), prefix, "--format", "json"]
                )
                if traced:
                    tracer.end(frame)
                attempted += 1
                if answer is None:
                    failed += code != 2
                else:
                    failed += (code, text) != (0, answer)
                taken["query"].append(elapsed)
                taken["probe"].append(speed.probe())
                # The probes just before and just after the query.
                beside = (taken["probe"][-2] + taken["probe"][-1]) / 2
                taken["query_ref"].append(speed.scaled(elapsed, beside))
        finally:
            if traced:
                tracer.restore()

    def measured(traced: bool) -> dict:
        taken = samples[traced]
        return {
            "analyze_s": (median(taken["analyze"]), "s"),
            "analyze_ref_s": (speed.at_reference(taken["analyze"], taken["probe"]), "s"),
            "query_p50_ms": (percentile(taken["query"], 50) * 1e3, "ms"),
            "query_p90_ms": (percentile(taken["query"], 90) * 1e3, "ms"),
            "query_ref_p90_ms": (percentile(taken["query_ref"], 90) * 1e3, "ms"),
        }

    named = measured(False)
    named["setup_s"] = (median(generation) + warm_up, "s")
    named["peak_rss_mb"] = (peak_rss_mb(), "MB")
    outcome = Outcome(
        attempted=attempted,
        failed=failed,
        named=named,
        shared=END_TO_END,
    )
    outcome.notes.append(
        f"{len(samples[False]['analyze'])} analyze calls, "
        f"{len(samples[False]['query'])} queries"
    )
    if tracer is not None:
        per = len(samples[True]["analyze"])
        outcome.traced = measured(True)
        outcome.layers = layers.layer_metrics(tracer.table, tracer.samples, per=per)
        total = sum(
            stats.total
            for (root, parent, _name), stats in tracer.table.items()
            if root == "cli.analyze" and parent is None
        )
        outcome.decomposition = (
            [(label, value / per) for label, value in layers.decomposition(
                tracer.table, "cli.analyze"
            )],
            total / per,
        )
    return outcome
