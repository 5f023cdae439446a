"""The ``repro`` command: simulate/analyze/convert/report/evaluate/watch/serve.

One CLI over the :mod:`repro.api` facade.

- ``repro simulate ARCHIVE``: generate a synthetic Route Views archive
  (``--workers`` parallelizes the optional MRT day dumps;
  ``--archive-format v2`` writes the indexed binary day store;
  ``--rpki`` issues a ROA database beside it);
- ``repro analyze ARCHIVE OUT``: run the study and write every
  figure/table, with optional ``--checkpoint`` / ``--resume``,
  parallel ``--workers``, and ``--rpki roas.json`` RFC 6811 origin
  validation (``--resume`` also reads a legacy sharded checkpoint
  directory; ``--checkpoint`` always writes one file);
- ``repro convert SRC DST``: re-encode an archive between day-store
  formats (v1 <-> v2), atomically;
- ``repro report OUT``: print a previously generated report;
- ``repro query ARCHIVE PREFIX``: answer one prefix's episode history
  (optionally against a ``--day``/``--range`` window) from the O(log n)
  episode index written by ``repro analyze --index`` — typed errors
  (bad CIDR, missing/empty index, unindexed prefix) exit 2;
- ``repro evaluate ARCHIVE``: run the verdict engine over an archive
  and score its cause attribution against the archive's injected
  incident labels (see ``repro simulate --incidents``);
- ``repro watch UPDATES.mrt``: stream BGP4MP updates through the
  real-time alerter;
- ``repro serve ARCHIVE``: run the concurrent query + live-alert HTTP
  daemon over a long-lived study session (REST figures, SSE alerts,
  drop-directory ingestion, crash-safe checkpoints);
- ``repro check [PATHS]``: statically check the source tree against
  the project invariants (determinism, lock discipline, merge
  algebra, hot-path hygiene, wire/checkpoint symmetry).

``--workers`` accepts a worker count, ``auto``/``0`` for CPU
auto-detection, or ``1`` (the default) for the serial path that never
spawns a process.  Results are identical for every ``--workers``
count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.compare import compare_to_paper, comparison_table
from repro.analysis.pipeline import StudyResults
from repro.api.renderers import render
from repro.api.service import LEGACY_RESUME_NOTE, MoasService, answer_keys
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import parse_date


def _workers_arg(text: str) -> int:
    """Parse a ``--workers`` value: an integer or ``auto`` (= 0)."""
    if text.strip().lower() == "auto":
        return 0
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be an integer or 'auto', got {text!r}"
        ) from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0, got {value}"
        )
    return value


def _add_workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        metavar="N",
        help="process-pool size; 'auto' or 0 detects the CPU count, "
        "1 (default) runs serially without spawning processes",
    )


def main(argv: list[str] | None = None) -> int:
    """Entry point of the unified ``repro`` command."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of the IMC 2001 MOAS conflict study.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"repro {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_simulate(sub)
    _add_analyze(sub)
    _add_convert(sub)
    _add_report(sub)
    _add_query(sub)
    _add_evaluate(sub)
    _add_watch(sub)
    _add_serve(sub)
    _add_check(sub)
    args = parser.parse_args(argv)
    return args.func(args)


# -- simulate -----------------------------------------------------------------


def _add_simulate(sub) -> None:
    parser = sub.add_parser(
        "simulate",
        help="generate a synthetic 1997-2001 Route Views archive",
        description="Generate a synthetic 1997-2001 Route Views archive.",
    )
    parser.add_argument("archive_dir", type=Path)
    parser.add_argument(
        "--scale",
        type=float,
        default=0.125,
        help="fraction of real-Internet size (default 0.125)",
    )
    parser.add_argument("--seed", type=int, default=20011108)
    parser.add_argument(
        "--peers", type=int, default=12, help="collector peer count"
    )
    parser.add_argument(
        "--mrt-export",
        metavar="YYYY-MM-DD",
        action="append",
        default=[],
        help="additionally dump this day as a binary MRT file "
        "(repeatable)",
    )
    parser.add_argument(
        "--incidents",
        metavar="SCRIPT",
        help="inject labeled incidents: 'canned' (the standard "
        "evaluation suite) or a JSON incident-script file; ground "
        "truth lands in <archive>/incidents.json",
    )
    parser.add_argument(
        "--rpki",
        action="store_true",
        help="issue an RPKI shadow over the generated world: a ROA "
        "database (coverage, max-length slack, stale and misissued "
        "authorizations, incident shadows) written beside the archive "
        "as roas.json",
    )
    parser.add_argument(
        "--rpki-coverage",
        type=float,
        default=None,
        metavar="FRACTION",
        help="fraction of registered prefixes holding a ROA "
        "(implies --rpki; default 0.9)",
    )
    parser.add_argument(
        "--archive-format",
        choices=("v1", "v2"),
        default="v1",
        help="day-store encoding: v1 (default, the original stream) "
        "or v2 (indexed binary frames; faster to read, same study "
        "results)",
    )
    _add_workers_option(parser)
    parser.set_defaults(func=_run_simulate)


def _run_simulate(args: argparse.Namespace) -> int:
    incidents = None
    if args.incidents is not None:
        from repro.scenario.incidents import IncidentScript
        from repro.util.dates import PAPER_CALENDAR

        try:
            incidents = IncidentScript.from_spec(
                args.incidents, num_days=PAPER_CALENDAR.num_days
            )
        except (FileNotFoundError, ValueError, KeyError) as error:
            print(f"repro simulate: {error}", file=sys.stderr)
            return 1
    rpki = None
    if args.rpki or args.rpki_coverage is not None:
        from repro.scenario.rpki import RpkiConfig

        try:
            rpki = (
                RpkiConfig()
                if args.rpki_coverage is None
                else RpkiConfig(coverage=args.rpki_coverage)
            )
        except ValueError as error:
            print(f"repro simulate: {error}", file=sys.stderr)
            return 1
    config = ScenarioConfig(
        scale=args.scale,
        seed=args.seed,
        num_peers=args.peers,
        incidents=incidents,
        rpki=rpki,
        archive_format=args.archive_format,
    )
    export_days = {parse_date(text) for text in args.mrt_export}
    summary = simulate_study(
        args.archive_dir,
        config,
        mrt_export_days=export_days,
        workers=args.workers,
    )
    print(f"archive written to {args.archive_dir}")
    for key in (
        "observed_days",
        "num_ases_final",
        "num_prefixes_final",
        "events_total",
    ):
        print(f"  {key}: {summary[key]}")
    if "incidents_injected" in summary:
        print(f"  incidents_injected: {summary['incidents_injected']}")
    if "roas_issued" in summary:
        print(f"  roas_issued: {summary['roas_issued']}")
    return 0


# -- analyze ------------------------------------------------------------------


def _add_analyze(sub) -> None:
    parser = sub.add_parser(
        "analyze",
        help="run the MOAS study pipeline over an archive",
        description="Run the MOAS study pipeline over an archive.",
    )
    parser.add_argument("archive_dir", type=Path)
    parser.add_argument("output_dir", type=Path)
    parser.add_argument(
        "--resume",
        type=Path,
        metavar="CKPT",
        help="resume the session from this checkpoint file (or a "
        "legacy sharded checkpoint directory); archive days the "
        "checkpoint already covers are skipped",
    )
    parser.add_argument(
        "--checkpoint",
        type=Path,
        metavar="CKPT",
        help="write the final session state to this checkpoint file",
    )
    _add_workers_option(parser)
    parser.add_argument(
        "--rpki",
        type=Path,
        metavar="ROAS",
        help="validate every conflict origin against this ROA "
        "database (a roas.json file, or an archive directory holding "
        "one); adds the rpki.csv / longevity.csv figures and report "
        "sections",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="append a per-stage wall-clock and cProfile summary of "
        "the feed (decode vs detect vs fold); forces the serial "
        "in-process path, results are unchanged",
    )
    parser.add_argument(
        "--index",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="additionally write the episode query index (default "
        "<archive>/episodes.idx): the O(log n) prefix->history store "
        "'repro query' and the serve daemon answer from without "
        "re-folding the study; CDS archives enrich each record with "
        "the verdict engine's tag/suspicion view",
    )
    parser.set_defaults(func=_run_analyze)


def _run_analyze(args: argparse.Namespace) -> int:
    from repro.mrt.errors import MrtError

    profile = None
    try:
        if args.resume is not None:
            service = MoasService.load_checkpoint(
                args.resume, workers=args.workers, roa_table=args.rpki
            )
            if service.resumed_legacy:
                print(
                    f"repro analyze: resumed {args.resume}, "
                    f"{LEGACY_RESUME_NOTE}",
                    file=sys.stderr,
                )
        else:
            service = MoasService(workers=args.workers, roa_table=args.rpki)
        resumed = args.resume is not None
        if args.profile:
            from repro.analysis.profiling import profile_feed

            profile = profile_feed(
                service, args.archive_dir, skip_seen=resumed
            )
        else:
            service.feed(args.archive_dir, skip_seen=resumed)
    except (
        FileNotFoundError,
        ValueError,
        MrtError,
        json.JSONDecodeError,
    ) as error:
        print(f"repro analyze: {error}", file=sys.stderr)
        return 1
    results = service.results()
    if args.checkpoint is not None:
        try:
            service.save_checkpoint(args.checkpoint)
        except (ValueError, OSError) as error:
            print(f"repro analyze: {error}", file=sys.stderr)
            return 1

    # The paper-vs-measured table needs the generation scale, which
    # only CDS archives record; MRT inputs analyze without it.
    scale = None
    if (args.archive_dir / "manifest.json").is_file():
        from repro.api.sources import ArchiveSource

        recorded = ArchiveSource(args.archive_dir).manifest.get("scale")
        scale = float(recorded) if recorded else None
    report = write_analysis(results, args.output_dir, scale=scale)
    print(report)
    if args.index is not None:
        from repro.analysis.index import INDEX_FILENAME

        index_path = (
            Path(args.index)
            if args.index
            else args.archive_dir / INDEX_FILENAME
        )
        try:
            # The session's own verdicts, judged against the archive's
            # registry; a source without a CDS manifest has no
            # registry and indexes episodes and RPKI only.
            verdicts = None
            if (args.archive_dir / "manifest.json").is_file():
                registry, _injected, _organic = answer_keys(args.archive_dir)
                verdicts = service.verdicts(registry)
            service.build_index(index_path, verdicts=verdicts)
        except (
            FileNotFoundError,
            ValueError,
            MrtError,
            OSError,
            json.JSONDecodeError,
        ) as error:
            print(f"repro analyze: {error}", file=sys.stderr)
            return 1
        print(
            f"episode index written to {index_path} "
            f"({len(results.episodes)} episodes)"
        )
    if profile is not None:
        print()
        print(profile.report())
    return 0


def write_analysis(
    results: StudyResults,
    output_dir: Path | str,
    *,
    scale: float | None = None,
) -> str:
    """Write the full analysis output tree; returns the text report.

    Emits every figure CSV, the episode table, the JSON summary and the
    combined ``report.txt`` (with the paper-vs-measured table when the
    archive's generation ``scale`` is known) — the layout both the new
    and the legacy analyze commands produce.  Results produced with a
    ROA table (``--rpki``) additionally emit ``rpki.csv`` /
    ``longevity.csv`` and their report sections; without one the
    output tree is byte-identical to earlier releases.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "figure1.csv").write_text(render(results, "figure1", "csv"))
    (out / "figure3.csv").write_text(render(results, "figure3", "csv"))
    (out / "figure5.csv").write_text(render(results, "figure5", "csv"))
    (out / "figure6.csv").write_text(render(results, "figure6", "csv"))
    (out / "episodes.csv").write_text(render(results, "episodes", "csv"))
    (out / "summary.json").write_text(render(results, "summary", "json"))
    sections = [
        render(results, "summary", "ascii"),
        render(results, "figure2", "ascii"),
        render(results, "figure4", "ascii"),
        render(results, "figure1", "ascii"),
        render(results, "figure3", "ascii"),
        render(results, "figure5", "ascii"),
        render(results, "figure6", "ascii"),
    ]
    if results.rpki_episode_states:
        (out / "rpki.csv").write_text(render(results, "rpki", "csv"))
        (out / "longevity.csv").write_text(
            render(results, "longevity", "csv")
        )
        sections.append(render(results, "rpki", "ascii"))
        sections.append(render(results, "longevity", "ascii"))
    if scale:
        sections.append(
            comparison_table(compare_to_paper(results, scale=scale))
        )
    report = "\n\n".join(sections)
    (out / "report.txt").write_text(report + "\n")
    return report


# -- convert ------------------------------------------------------------------


def _add_convert(sub) -> None:
    parser = sub.add_parser(
        "convert",
        help="re-encode a CDS archive between day-store formats",
        description="Re-encode a CDS archive's day store (v1 <-> v2). "
        "The conversion is atomic: the destination appears only once "
        "it is complete, so a corrupt source never leaves a "
        "half-written archive behind.  Study results over the "
        "converted archive are identical to the original.",
    )
    parser.add_argument("source", type=Path, help="existing archive")
    parser.add_argument(
        "destination", type=Path, help="output archive (must not exist)"
    )
    parser.add_argument(
        "--to",
        choices=("v1", "v2"),
        default="v2",
        dest="target_format",
        help="target day-store format (default v2)",
    )
    parser.set_defaults(func=_run_convert)


def _run_convert(args: argparse.Namespace) -> int:
    from repro.scenario.archive import convert_archive

    try:
        summary = convert_archive(
            args.source, args.destination, format=args.target_format
        )
    except (
        FileNotFoundError,
        FileExistsError,
        ValueError,  # includes ArchiveError
        OSError,
        json.JSONDecodeError,
    ) as error:
        print(f"repro convert: {error}", file=sys.stderr)
        return 1
    print(
        f"converted {summary['source']} ({summary['source_format']}, "
        f"{summary['num_days']} days, {summary['num_prefixes']} "
        f"prefixes) -> {summary['destination']} "
        f"({summary['target_format']})"
    )
    return 0


# -- report -------------------------------------------------------------------


def _add_report(sub) -> None:
    parser = sub.add_parser(
        "report",
        help="print a previously generated analysis report",
        description="Print a previously generated analysis report.",
    )
    parser.add_argument("output_dir", type=Path)
    parser.set_defaults(func=_run_report)


def _run_report(args: argparse.Namespace) -> int:
    report_path = args.output_dir / "report.txt"
    if not report_path.exists():
        print(
            f"no report at {report_path}; run repro analyze first",
            file=sys.stderr,
        )
        return 1
    print(report_path.read_text(), end="")
    return 0


# -- query --------------------------------------------------------------------


def _add_query(sub) -> None:
    parser = sub.add_parser(
        "query",
        help="answer a prefix's episode history from the index",
        description="Answer one prefix's MOAS episode history — origin "
        "sets, start/end days, verdict tag + suspicion, RPKI state — "
        "from the episode index (episodes.idx) in O(log n), without "
        "re-folding the study.  Build the index with 'repro analyze "
        "--index'.  Typed errors (malformed CIDR, missing or empty "
        "index, prefix absent from the index) exit with status 2.",
    )
    parser.add_argument(
        "archive_dir",
        type=Path,
        metavar="ARCHIVE",
        help="archive directory holding episodes.idx, or a direct "
        "path to an index file",
    )
    parser.add_argument(
        "prefix", metavar="PREFIX", help="the CIDR prefix to look up"
    )
    window = parser.add_mutually_exclusive_group()
    window.add_argument(
        "--day",
        metavar="YYYY-MM-DD",
        help="point query: resolve the history against this one day",
    )
    window.add_argument(
        "--range",
        dest="day_range",
        metavar="A:B",
        help="range query: resolve against the inclusive day window "
        "A:B (two ISO dates)",
    )
    parser.add_argument(
        "--format",
        choices=("csv", "ascii", "json"),
        default="ascii",
        help="answer format (default ascii)",
    )
    parser.set_defaults(func=_run_query)


def _run_query(args: argparse.Namespace) -> int:
    from repro.analysis.index import INDEX_FILENAME, EpisodeIndex
    from repro.api.renderers import render_query
    from repro.netbase.prefix import Prefix
    from repro.scenario.archive import ArchiveError

    def fail(error) -> int:
        # Typed query errors exit 2 (argparse's own convention), so
        # scripts can tell "no such episode" from a crashed run.
        print(f"repro query: {error}", file=sys.stderr)
        return 2

    try:
        prefix = Prefix.parse(args.prefix)
    except ValueError as error:
        return fail(error)
    day = window = None
    try:
        if args.day is not None:
            day = parse_date(args.day)
        if args.day_range is not None:
            start_text, sep, end_text = args.day_range.partition(":")
            if not sep:
                raise ValueError(
                    f"--range wants A:B (two ISO dates), got "
                    f"{args.day_range!r}"
                )
            window = (parse_date(start_text), parse_date(end_text))
    except ValueError as error:
        return fail(error)
    path = args.archive_dir
    if path.is_dir():
        path = path / INDEX_FILENAME
    if not path.is_file():
        return fail(
            f"no episode index at {path}; build one with "
            f"'repro analyze --index'"
        )
    try:
        index = EpisodeIndex.load(path)
    except ArchiveError as error:
        return fail(error)
    if len(index) == 0:
        return fail(
            f"episode index {path} is empty: the indexed study "
            f"recorded no MOAS episodes"
        )
    answer = index.query(prefix, day=day, window=window)
    if answer is None:
        return fail(
            f"no MOAS episode recorded for {prefix} in {path}"
        )
    print(render_query(answer, args.format), end="")
    return 0


# -- evaluate -----------------------------------------------------------------


def _add_evaluate(sub) -> None:
    parser = sub.add_parser(
        "evaluate",
        help="score the verdict engine against injected ground truth",
        description="Run the verdict engine over an archive and score "
        "its cause attribution (per-kind precision/recall, confusion "
        "matrix) against the archive's incident labels.",
    )
    parser.add_argument("archive_dir", type=Path)
    parser.add_argument(
        "--format",
        choices=("ascii", "csv", "json"),
        default="ascii",
        help="report format printed to stdout (default ascii)",
    )
    parser.add_argument(
        "--json-out",
        type=Path,
        metavar="FILE",
        help="additionally write the full JSON scoring payload here "
        "(the CI artifact format)",
    )
    _add_workers_option(parser)
    parser.set_defaults(func=_run_evaluate)


def _run_evaluate(args: argparse.Namespace) -> int:
    from repro.mrt.errors import MrtError

    try:
        service = MoasService(workers=args.workers)
        report = service.evaluate(args.archive_dir)
    except (
        FileNotFoundError,
        ValueError,
        MrtError,
        json.JSONDecodeError,
    ) as error:
        print(f"repro evaluate: {error}", file=sys.stderr)
        return 1
    print(render(report.result, "evaluation", args.format), end="")
    if args.json_out is not None:
        from repro.util.io import atomic_write_text

        args.json_out.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            args.json_out, render(report.result, "evaluation", "json")
        )
    return 0


# -- watch --------------------------------------------------------------------


def _add_watch(sub) -> None:
    parser = sub.add_parser(
        "watch",
        help="stream BGP4MP updates through the real-time MOAS alerter",
        description="Stream a BGP4MP update file through the real-time "
        "MOAS alerter and print every origin-set transition.",
    )
    parser.add_argument("updates_file", type=Path)
    parser.add_argument(
        "--expected-origins",
        type=Path,
        metavar="JSON",
        help="JSON file mapping prefix -> legitimate origin ASN "
        "(a registry; unexpected origins are flagged)",
    )
    parser.set_defaults(func=_run_watch)


def _run_watch(args: argparse.Namespace) -> int:
    from repro.core.realtime import StreamingMoasDetector
    from repro.mrt.reader import MrtReader, decode_record
    from repro.mrt.records import Bgp4mpMessage, Bgp4mpStateChange
    from repro.netbase.prefix import Prefix

    if not args.updates_file.exists():
        print(
            f"repro watch: no update file at {args.updates_file}",
            file=sys.stderr,
        )
        return 1
    expected = None
    if args.expected_origins is not None:
        raw = json.loads(args.expected_origins.read_text())
        expected = {
            Prefix.parse(text): int(asn) for text, asn in raw.items()
        }
    detector = StreamingMoasDetector(expected_origins=expected)
    alerts = 0
    with MrtReader(args.updates_file) as reader:
        for record in reader.records():
            decoded = decode_record(record)
            if isinstance(decoded, Bgp4mpStateChange):
                triggered = detector.process_state_change(
                    decoded, record.timestamp
                )
            elif isinstance(decoded, Bgp4mpMessage):
                triggered = detector.process_update(decoded, record.timestamp)
            else:
                continue
            for alert in triggered:
                alerts += 1
                origins = ",".join(str(asn) for asn in sorted(alert.origins))
                line = (
                    f"{alert.timestamp} {alert.kind.value} {alert.prefix} "
                    f"origins=[{origins}] changed={alert.changed_origin}"
                )
                if not detector.is_expected_origin(
                    alert.prefix, alert.changed_origin
                ):
                    line += " UNEXPECTED-ORIGIN"
                print(line)
    ongoing = detector.current_conflicts()
    print(
        f"{alerts} alerts; {len(ongoing)} prefixes still in MOAS "
        f"at end of stream"
    )
    return 0


# -- serve --------------------------------------------------------------------


def _add_serve(sub) -> None:
    parser = sub.add_parser(
        "serve",
        help="run the concurrent query + live-alert HTTP daemon",
        description="Serve a long-lived MOAS study session over HTTP: "
        "REST figure/episode/verdict queries rendered from consistent "
        "day-boundary snapshots, a Server-Sent-Events alert stream, "
        "background ingestion of the archive (and, with --watch, of "
        "MRT day dumps dropped into a directory), and crash-safe "
        "periodic checkpoints.",
    )
    parser.add_argument(
        "archive_dir",
        type=Path,
        nargs="?",
        default=None,
        help="archive to feed at startup (optional with --watch)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=8731,
        help="listen port; 0 picks an ephemeral port (default 8731)",
    )
    parser.add_argument(
        "--watch",
        type=Path,
        metavar="DIR",
        help="poll this directory for new *.mrt day dumps and fold "
        "them into the live session as they appear",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="drop-directory poll interval (default 2.0)",
    )
    parser.add_argument(
        "--checkpoint",
        type=Path,
        metavar="CKPT",
        help="persist the session here (resumed at next boot; written "
        "after the initial feed, periodically during ingestion, and "
        "on shutdown)",
    )
    parser.add_argument(
        "--checkpoint-every-days",
        type=int,
        default=0,
        metavar="N",
        help="additionally checkpoint every N newly ingested days "
        "(default 0: only at feed boundaries and shutdown)",
    )
    parser.add_argument(
        "--rpki",
        type=Path,
        metavar="ROAS",
        help="validate conflict origins against this ROA database "
        "(default: the archive's own roas.json when present)",
    )
    parser.set_defaults(func=_run_serve)


def _run_serve(args: argparse.Namespace) -> int:
    from repro.api.serve import ServeConfig, run_serve

    try:
        config = ServeConfig(
            archive=args.archive_dir,
            host=args.host,
            port=args.port,
            watch=args.watch,
            poll_interval=args.poll_interval,
            checkpoint=args.checkpoint,
            checkpoint_every_days=args.checkpoint_every_days,
            rpki=args.rpki,
        )
        return run_serve(config)
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 1


# -- check --------------------------------------------------------------------


def _add_check(sub) -> None:
    parser = sub.add_parser(
        "check",
        help="statically check the source against project invariants",
        description="Static analysis of the source tree against the "
        "project invariants: determinism, lock discipline, merge "
        "algebra, hot-path hygiene, and wire/checkpoint schema "
        "symmetry.  Configured via [tool.repro-check] in "
        "pyproject.toml; findings suppress with "
        "'# repro: ignore[rule-id]' line comments.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: configured paths)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE_ID",
        help="run only this rule (repeatable)",
    )
    parser.add_argument(
        "--format",
        choices=("ascii", "json"),
        default="ascii",
        dest="output_format",
        help="report format (default: ascii)",
    )
    parser.add_argument(
        "--write-schema",
        action="store_true",
        help="regenerate the checkpoint schema snapshot and exit",
    )
    parser.set_defaults(func=_run_check)


def _run_check(args: argparse.Namespace) -> int:
    from repro.tools import check as checker

    argv = list(args.paths)
    for rule in args.rules or ():
        argv += ["--rule", rule]
    argv += ["--format", args.output_format]
    if args.write_schema:
        argv.append("--write-schema")
    return checker.main(argv)


if __name__ == "__main__":
    sys.exit(main())
