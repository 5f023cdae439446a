"""Which functions the traced run times, and the per-layer metrics.

Each patch names a function or method where its caller looks it up,
so a name imported into another module is patched in that module.
Span names carry the layer's metric prefix.  ``rpki`` is timed once
and split by caller: under ``fold`` it is the study fold's RPKI rollup,
under ``verdict.feed`` the verdict engine's.

Every ``*_s`` layer time is self time, the span minus the other
layers' spans nested in it, so the layer times add up.  The one
exception is ``serve.fold_s``, the whole ``fold_detection`` call; its
self time is ``serve.fold_wait_s``, the wait for the app lock.
"""

from __future__ import annotations

from perfbench.stats import median
from perfbench.tracing import Patch


def _rows(columns, _args) -> dict:
    return {"days": 1, "rows": columns.num_rows}


def _conflicts(detection, _args) -> dict:
    return {"conflicts": len(detection.conflicts)}


def _fed_conflicts(_result, args) -> dict:
    return {"conflicts": len(args[1].conflicts)}


def _text_bytes(text, _args) -> dict:
    return {"bytes": len(text.encode())}


def _file_bytes(path, _args) -> dict:
    return {"bytes": path.stat().st_size}


def route_of(target: str) -> str:
    """Route name of a request target, e.g. ``history`` or ``figure1``."""
    path = target.partition("?")[0]
    parts = path.strip("/").split("/")
    if len(parts) >= 3 and parts[1] == "figure":
        return parts[2]
    return parts[1] if len(parts) > 1 else parts[0]


def _route_sample(args) -> str:
    return "serve.route." + route_of(args[2])


PATCHES = (
    Patch("repro.scenario.archive:ArchiveReader.__init__", "archive.scan"),
    Patch(
        "repro.scenario.archive:ArchiveReader.iter_day_columns",
        "archive.scan",
        count=_rows,
    ),
    Patch(
        "repro.analysis.sources:detect_day_columns", "detect", count=_conflicts
    ),
    Patch("repro.analysis.pipeline:StudyState.feed_day", "fold"),
    Patch("repro.core.episodes:EpisodeTracker.observe_day", "fold.episodes"),
    Patch("repro.analysis.pipeline:classify_day", "fold.classify"),
    Patch("repro.netbase.rpki:RoaTable.fold_episode_state", "rpki"),
    Patch("repro.api.service:MoasService.results", "results"),
    Patch(
        "repro.core.verdict:VerdictEngine.feed_day",
        "verdict.feed",
        count=_fed_conflicts,
    ),
    Patch("repro.core.verdict:classify_conflict", "verdict.classify"),
    Patch("repro.core.verdict:VerdictEngine.finalize", "verdict.finalize"),
    Patch("repro.core.realtime:DaySnapshotAlerter.feed_day", "alerter"),
    Patch("repro.analysis.index:EpisodeIndex.build", "index.build"),
    Patch(
        "repro.analysis.index:EpisodeIndex.save", "index.save", count=_file_bytes
    ),
    Patch("repro.analysis.index:EpisodeIndex.load", "index.load"),
    Patch("repro.analysis.index:EpisodeIndex.query", "index.query"),
    Patch("repro.api.cli:render", "render", count=_text_bytes),
    Patch("repro.api.serve:render", "render", count=_text_bytes),
    Patch("repro.api.renderers:render_query", "render", count=_text_bytes),
    Patch("repro.api.service:MoasService.feed", "service.feed"),
    Patch("repro.api.service:MoasService.evaluate", "service.evaluate"),
    Patch(
        "repro.api.service:MoasService.save_checkpoint",
        "service.checkpoint",
        count=_file_bytes,
    ),
    Patch("repro.api.serve:ServeApp.fold_detection", "serve.fold"),
    Patch("repro.api.serve:ServeApp.handle", "serve.handle", sample=_route_sample),
)

#: Spans a fresh read may have to rebuild under the app lock.
REBUILDS = ("results", "verdict.finalize", "index.build")

#: Per-layer metric -> the end-to-end metric it should move, and where.
#: ``study_s`` is ``analyze_ref_s`` on batch-index and ``ingest_lag_s`` on
#: serve-ingest; ``read_p90_ms`` is the cold-query p90 on batch-index
#: (``query_ref_p90_ms``, at the reference speed of
#: :mod:`perfbench.speed`) and the fresh-read p90 on serve-ingest.
MOVES = {
    "archive.scan_s": "study_s (batch-index, serve-ingest)",
    "archive.days": "study_s (batch-index, serve-ingest)",
    "archive.rows": "study_s (batch-index, serve-ingest)",
    "detect.s": "study_s (batch-index, serve-ingest)",
    "detect.conflicts": "study_s (batch-index, serve-ingest)",
    "fold.s": "study_s (batch-index, serve-ingest)",
    "fold.episodes_s": "study_s (batch-index, serve-ingest)",
    "fold.classify_s": "study_s (batch-index, serve-ingest)",
    "fold.rpki_s": "study_s (batch-index, serve-ingest)",
    "results.s": "read_p90_ms (serve-ingest); study_s (batch-index)",
    "results.calls": "read_p90_ms (serve-ingest)",
    "verdict.feed_s": "study_s (batch-index, serve-ingest)",
    "verdict.classify_s": "study_s (batch-index, serve-ingest)",
    "verdict.rpki_s": "study_s (batch-index, serve-ingest)",
    "verdict.conflict_days": "study_s (batch-index, serve-ingest)",
    "verdict.finalize_s": "read_p90_ms (serve-ingest); study_s (batch-index)",
    "verdict.finalize_calls": "read_p90_ms (serve-ingest)",
    "alerter.s": "study_s (serve-ingest)",
    "index.build_s": "read_p90_ms (serve-ingest); study_s (batch-index)",
    "index.builds": "read_p90_ms (serve-ingest)",
    "index.save_s": "study_s (batch-index)",
    "index.bytes": "study_s, read_p90_ms (batch-index)",
    "index.load_s": "read_p90_ms (batch-index)",
    "index.query_us": "read_p90_ms (batch-index, serve-ingest)",
    "render.s": "read_p90_ms (batch-index, serve-ingest); study_s (batch-index)",
    "render.bytes": "read_p90_ms (batch-index, serve-ingest)",
    "service.feed_s": "study_s (batch-index)",
    "service.evaluate_s": "study_s (batch-index)",
    "service.checkpoint_s": "study_s (batch-index)",
    "service.checkpoint_bytes": "study_s (batch-index)",
    "serve.fold_s": "study_s (serve-ingest)",
    "serve.fold_wait_s": "study_s (serve-ingest)",
    "serve.handle_s": "read_p90_ms (serve-ingest)",
    "serve.rebuilds_per_read": "read_p90_ms (serve-ingest)",
    "serve.route.*_p50_ms": "read_p90_ms (serve-ingest)",
    "gen.late_p50_ms": "none: checks the load generator",
    "gen.late_max_ms": "none: checks the load generator",
}


def _sum(table, name, field="self_time", parent=None) -> float:
    total = 0
    for (_root, span_parent, span), stats in table.items():
        if span == name and (parent is None or span_parent == parent):
            total += getattr(stats, field)
    return total


def _count(table, name, key) -> int:
    return sum(
        stats.counts.get(key, 0)
        for (_root, _parent, span), stats in table.items()
        if span == name
    )


def layer_metrics(table, samples, *, per: float = 1.0) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    Times and counts are divided by ``per`` (a workload's repetitions);
    ``index.query_us`` is the mean of one query.
    """
    calls = {}
    for (_root, _parent, span), stats in table.items():
        calls[span] = calls.get(span, 0) + stats.calls

    def seconds(name, parent=None):
        return (_sum(table, name, parent=parent) / per, "s")

    def counted(value):
        return (value / per, "count")

    query_calls = calls.get("index.query", 0)
    metrics = {
        "archive.scan_s": seconds("archive.scan"),
        "archive.days": counted(_count(table, "archive.scan", "days")),
        "archive.rows": counted(_count(table, "archive.scan", "rows")),
        "detect.s": seconds("detect"),
        "detect.conflicts": counted(_count(table, "detect", "conflicts")),
        "fold.s": seconds("fold"),
        "fold.episodes_s": seconds("fold.episodes"),
        "fold.classify_s": seconds("fold.classify"),
        "fold.rpki_s": seconds("rpki", parent="fold"),
        "results.s": seconds("results"),
        "results.calls": counted(calls.get("results", 0)),
        "verdict.feed_s": seconds("verdict.feed"),
        "verdict.classify_s": seconds("verdict.classify"),
        "verdict.rpki_s": seconds("rpki", parent="verdict.feed"),
        "verdict.conflict_days": counted(
            _count(table, "verdict.feed", "conflicts")
        ),
        "verdict.finalize_s": seconds("verdict.finalize"),
        "verdict.finalize_calls": counted(calls.get("verdict.finalize", 0)),
        "alerter.s": seconds("alerter"),
        "index.build_s": seconds("index.build"),
        "index.builds": counted(calls.get("index.build", 0)),
        "index.save_s": seconds("index.save"),
        "index.bytes": counted(_count(table, "index.save", "bytes")),
        "index.load_s": seconds("index.load"),
        "index.query_us": (
            _sum(table, "index.query") / query_calls * 1e6
            if query_calls
            else 0.0,
            "us",
        ),
        "render.s": seconds("render"),
        "render.bytes": counted(_count(table, "render", "bytes")),
        "service.feed_s": seconds("service.feed"),
        "service.evaluate_s": seconds("service.evaluate"),
        "service.checkpoint_s": seconds("service.checkpoint"),
        "service.checkpoint_bytes": counted(
            _count(table, "service.checkpoint", "bytes")
        ),
        "serve.fold_s": (_sum(table, "serve.fold", "total") / per, "s"),
        "serve.fold_wait_s": seconds("serve.fold"),
        "serve.handle_s": seconds("serve.handle"),
    }
    reads = calls.get("serve.handle", 0)
    if reads:
        rebuilds = sum(
            stats.calls
            for (_root, parent, span), stats in table.items()
            if span in REBUILDS and parent == "serve.handle"
        )
        metrics["serve.rebuilds_per_read"] = (rebuilds / reads, "ratio")
    for name in sorted(samples):
        if name.startswith("serve.route."):
            metrics[f"{name}_p50_ms"] = (median(samples[name]) * 1e3, "ms")
    return metrics


def rebuild_seconds(table) -> float:
    """Time reads spent rebuilding results, verdicts and the index."""
    return sum(
        stats.total
        for (_root, parent, span), stats in table.items()
        if span in REBUILDS and parent == "serve.handle"
    )


def decomposition(table, root: str) -> list[tuple[str, float]]:
    """Self time of every span under ``root``, plus the root's remainder.

    The rows add up to the root's total time: each span's self time is
    its duration minus its children, and the root's own self time is
    the remainder no layer span covers.
    """
    rows: dict[str, float] = {}
    for (span_root, parent, span), stats in table.items():
        if span_root != root:
            continue
        label = "remainder" if parent is None else span
        if span == "rpki":
            label = f"{parent}.rpki"
        rows[label] = rows.get(label, 0.0) + stats.self_time
    return sorted(rows.items(), key=lambda row: -row[1])
