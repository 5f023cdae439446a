"""``repro serve`` — a concurrent query + live-alert daemon over
:class:`~repro.api.service.MoasService`.

Production BGP monitors are long-running services: they answer point
queries ("what happened to 10.2.3.0/24?") and push anomaly alerts the
moment they fire, instead of making every consumer pay a full batch
``analyze`` run.  This module is that architecture in miniature — the
announce/subscribe shape of systems like GRIP, without the kafka —
built entirely on the standard library: a hand-rolled asyncio
HTTP/1.1 server (no ``http.server``), the renderer registry as the
response layer, and an SSE event stream for live alerts.

Layout:

- :class:`ServeApp` — the synchronous request core: routes ``GET``
  targets to JSON/CSV/ASCII responses rendered from consistent
  detached snapshots of the shared session (the snapshot
  isolation contract of :meth:`~repro.api.service.MoasService.results`).
- :class:`ServeDaemon` — the asyncio shell: accepts connections,
  streams ``/v1/alerts`` over SSE, runs the ingestion loop (initial
  archive feed, then an MRT drop-directory tail) on a worker thread so
  the event loop never blocks on a day fold, and checkpoints
  crash-safely through the existing atomic checkpoint writer.
- :class:`BackgroundServer` — a thread harness for tests, benchmarks
  and notebooks: boot a daemon, get its URL, stop it.

Endpoints (all ``GET``):

========================================  =====================================
``/healthz``                              liveness probe (``ok``)
``/v1/status``                            daemon + session state, version
``/v1/figures``                           registered figure/format matrix
``/v1/figure/{name}?format=csv|ascii|json``  any registry rendering
``/v1/episodes/{prefix}``                 one prefix's episode record
``/v1/history/{prefix}?day=D|range=A:B``  indexed episode history answer
``/v1/verdicts``                          verdict engine assessments
``/v1/evaluation?format=...``             verdicts scored vs ground truth
``/v1/alerts?replay=N``                   SSE stream of live MOAS alerts
========================================  =====================================

Responses carry ``X-Repro-Days`` (days folded into the snapshot that
produced the body) so clients — and the acceptance tests — can pin any
response to one exact day boundary: every body is byte-identical to a
fresh ``render()`` over a batch ``analyze`` stopped at that day.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from pathlib import Path
from urllib.parse import parse_qs, unquote

from repro import __version__
from repro.api.renderers import available_renderings, render
from repro.api.service import LEGACY_RESUME_NOTE, MoasService, answer_keys
from repro.api.sources import open_source
from repro.core.detector import DayDetection
from repro.core.realtime import DaySnapshotAlerter, MoasAlert
from repro.util.concurrency import guarded_by

#: Content types per renderer format.
_CONTENT_TYPES = {
    "csv": "text/csv; charset=utf-8",
    "ascii": "text/plain; charset=utf-8",
    "json": "application/json",
}

#: Seconds a stopping daemon waits for its open connections to close
#: before cancelling the handlers still running.
_DRAIN_GRACE = 5.0

#: Seconds a client has to send one request's line and all its header
#: lines, together: a client dribbling header lines cannot hold a
#: connection open past it.
_HEAD_DEADLINE = 30.0

#: Header lines one request may carry, repeated names included.
_MAX_HEADER_LINES = 128

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


@dataclass(frozen=True)
class Response:
    """One finished HTTP response: status, content type, body, headers."""

    status: int
    content_type: str
    body: bytes
    headers: dict = field(default_factory=dict)

    @classmethod
    def json(
        cls, payload, status: int = 200, headers: dict | None = None
    ) -> "Response":
        """A JSON response from any ``json.dumps``-able payload."""
        return cls(
            status=status,
            content_type="application/json",
            body=(json.dumps(payload, indent=2) + "\n").encode(),
            headers=headers or {},
        )

    @classmethod
    def text(
        cls,
        body: str,
        status: int = 200,
        content_type: str = "text/plain; charset=utf-8",
        headers: dict | None = None,
    ) -> "Response":
        """A plain-text (or registry-rendered) response."""
        return cls(
            status=status,
            content_type=content_type,
            body=body.encode(),
            headers=headers or {},
        )

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        """A JSON error document (``{"error": ...}``)."""
        return cls.json({"error": message}, status=status)

    def encode(self, *, close: bool = False) -> bytes:
        """The full HTTP/1.1 wire form of this response."""
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        if close:
            lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body


class AlertHub:
    """Fan-out of alert events to SSE subscribers, with replay.

    Lives entirely on the event loop thread: :meth:`publish` is called
    by the daemon after each day folds, subscribers are per-connection
    ``asyncio.Queue`` objects, and a bounded ring buffer keeps the most
    recent events so late subscribers can ``?replay=N`` what they
    missed.  :meth:`close` ends every stream with a ``None`` marker.
    """

    def __init__(self, history: int = 512) -> None:
        self._subscribers: set[asyncio.Queue] = set()
        self._history: deque[tuple[int, dict]] = deque(maxlen=history)
        self._next_id = 1
        self.published = 0

    @property
    def subscriber_count(self) -> int:
        """Currently connected SSE subscribers."""
        return len(self._subscribers)

    def publish(self, payload: dict) -> int:
        """Assign the next event id, buffer, and enqueue to everyone."""
        event_id = self._next_id
        self._next_id += 1
        self.published += 1
        self._history.append((event_id, payload))
        for queue in self._subscribers:
            queue.put_nowait((event_id, payload))
        return event_id

    def subscribe(self) -> asyncio.Queue:
        """Register a new subscriber queue (unsubscribe when done)."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.add(queue)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Drop a subscriber registered with :meth:`subscribe`."""
        self._subscribers.discard(queue)

    def close(self) -> None:
        """End every subscriber's stream (daemon shutdown)."""
        for queue in self._subscribers:
            queue.put_nowait(None)

    def replay(self, count: int) -> list[tuple[int, dict]]:
        """The last ``count`` buffered ``(event id, payload)`` events."""
        if count <= 0:
            return []
        return list(self._history)[-count:]


@dataclass
class IngestState:
    """Mutable ingestion-progress record surfaced by ``/v1/status``."""

    active: bool = False
    #: True once the initial archive feed has fully folded.
    initial_complete: bool = False
    days_ingested: int = 0
    checkpoints_written: int = 0
    #: Last ingestion problem (bad drop file, failed checkpoint
    #: write, ...), or None.
    last_error: str | None = None


@dataclass
class ServeConfig:
    """Everything a serve daemon needs to boot.

    ``archive`` is the initial day source (a CDS archive directory, or
    anything :func:`~repro.api.sources.open_source` accepts as a path);
    ``watch`` optionally names an MRT drop directory whose new
    ``*.mrt`` day dumps are folded as they appear.  At least one of the
    two must be set.

    ``checkpoint`` enables crash-safe persistence: the session state is
    written there after the initial feed, every
    ``checkpoint_every_days`` newly folded days (0 = only at feed
    boundaries and shutdown), and on clean shutdown — and an existing
    checkpoint at boot resumes the session, skipping archive days it
    already covers.  With ``rpki`` set, the resumed checkpoint must have
    been validating against that same ROA table.  A failed checkpoint
    write is reported (``ingest.last_error``) and ingestion goes on.
    The checkpoint must be a file: the daemon writes back to the path
    it resumed from, so a legacy sharded checkpoint directory is
    refused at boot.

    ``ingest_delay`` throttles the fold loop (seconds between days) so
    tests and benchmarks can hold the daemon in its "ingesting" phase;
    ``sse_keepalive`` is the idle-comment interval of the alert stream.
    """

    archive: Path | None = None
    host: str = "127.0.0.1"
    port: int = 8731
    watch: Path | None = None
    poll_interval: float = 2.0
    checkpoint: Path | None = None
    checkpoint_every_days: int = 0
    rpki: Path | None = None
    ingest_delay: float = 0.0
    sse_keepalive: float = 15.0

    def __post_init__(self) -> None:
        """Normalize paths and validate the source configuration."""
        if self.archive is not None:
            self.archive = Path(self.archive)
        if self.watch is not None:
            self.watch = Path(self.watch)
        if self.checkpoint is not None:
            self.checkpoint = Path(self.checkpoint)
        if self.rpki is not None:
            self.rpki = Path(self.rpki)
        if self.archive is None and self.watch is None:
            raise ValueError(
                "serve needs a day source: an archive, a --watch "
                "drop directory, or both"
            )


@guarded_by("_lock", "_evaluation")
class ServeApp:
    """The daemon's synchronous core: shared state + request routing.

    One instance wraps one :class:`MoasService` plus the serving
    extras — the :class:`~repro.core.realtime.DaySnapshotAlerter` that
    derives live alerts from the session's conflict origin map, and the
    archive's answer keys (incident labels, ground truth, registry) for
    ``/v1/verdicts`` and ``/v1/evaluation``.  Verdicts are the
    session's own (:meth:`MoasService.verdicts`), so a session resumed
    from a checkpoint serves what an uninterrupted one would.

    Thread model: the ingestion loop calls :meth:`fold_detection` from
    a worker thread; request handlers call :meth:`handle` from others.
    Every read asks ``self.service`` for what the session derives per
    fed day — its results, its episode index, its ``/v1/verdicts`` rows
    and its verdicts — which the session keeps, patches after a fold
    and hands out under its lock.  So readers always see results equal
    to a batch analyze stopped at some fed-day prefix, never a torn
    mid-fold state, and a session put in place of ``service`` is
    answered as a new app would answer it.  The app keeps only the
    evaluation it scored, with the verdict dict it scored.
    """

    def __init__(
        self, service: MoasService, *, archive: Path | None = None
    ) -> None:
        self.service = service
        self.archive = Path(archive) if archive is not None else None
        self.alerter = DaySnapshotAlerter()
        #: Set by the daemon so ``/v1/status`` can report SSE fan-out.
        self.hub: AlertHub | None = None
        self.ingest = IngestState()
        self.started_monotonic = time.monotonic()
        self._lock = threading.RLock()
        #: ``(verdicts, days fed, EvaluationResult)``: the last
        #: evaluation scored, the verdict dict it scored and its day
        #: count.
        self._evaluation: tuple | None = None
        self._registry, self._injected, self._organic = (
            answer_keys(self.archive)
            if self.archive is not None
            and (self.archive / "manifest.json").is_file()
            else (None, [], [])
        )

    # -- ingestion side ------------------------------------------------------

    @property
    def sse_subscribers(self) -> int:
        """Connected SSE subscribers (0 when no hub is attached)."""
        return self.hub.subscriber_count if self.hub is not None else 0

    @property
    def last_day(self):
        """The most recent day folded, or None for a fresh session."""
        return self.service.last_day

    @property
    def days_fed(self) -> int:
        """Days folded into the session so far."""
        return self.service.days_fed

    def fold_detection(self, detection: DayDetection) -> list[MoasAlert]:
        """Fold one day into the session; returns the day's alerts.

        The day folds first, and the alerts replay the transitions of
        the session's conflict origin map it returns.  Called from the
        ingestion worker thread; atomic with respect to every reader,
        and returns the alerts the day triggered so the daemon can
        publish them to SSE subscribers.
        """
        with self._lock:
            transitions = self.service.feed_day(detection)
            return self.alerter.feed_day(detection.day, transitions)

    # -- consistent reads ----------------------------------------------------

    def current_evaluation(self) -> tuple[int, object]:
        """``(days fed, EvaluationResult)`` at the latest day boundary.

        Scored once per verdict dict: the session hands out the same
        dict until a day is fed (:meth:`MoasService.verdicts`), so every
        ``/v1/evaluation`` request between two folds renders the same
        result object.  The app lock, which :meth:`fold_detection`
        holds too, pairs the dict with its day count.
        """
        from repro.analysis.evaluation import evaluate_verdicts

        with self._lock:
            days = self.service.days_fed
            verdicts = self.service.verdicts(self._registry)
            scored = self._evaluation
            if scored is None or scored[0] is not verdicts:
                scored = self._evaluation = (
                    verdicts,
                    days,
                    evaluate_verdicts(
                        verdicts,
                        injected=self._injected,
                        organic=self._organic,
                    ),
                )
            return scored[1], scored[2]

    def current_index(self):
        """``(days fed, EpisodeIndex)``: the session's own index at its
        latest day boundary (:meth:`MoasService.index`), so
        ``/v1/episodes`` and ``/v1/history`` answers are byte-identical
        to a batch ``analyze --index`` + ``repro query`` run stopped at
        that day."""
        index = self.service.index(self._registry)
        return index.days_indexed, index

    # -- request routing -----------------------------------------------------

    def handle(self, method: str, target: str) -> Response:
        """Route one request target to a finished :class:`Response`.

        Synchronous and side-effect-free, so it is directly unit
        testable and safe to run on any thread.  The SSE endpoint is
        the one route *not* answered here (it must stream); the daemon
        intercepts ``/v1/alerts`` before calling this.
        """
        path, _, query_string = target.partition("?")
        path = unquote(path)
        query = {
            key: values[-1]
            for key, values in parse_qs(query_string).items()
        }
        if method != "GET":
            return Response.error(405, f"method {method} not allowed")
        try:
            if path in ("/healthz", "/healthz/"):
                return Response.text("ok\n")
            if path == "/v1/status":
                return self._handle_status()
            if path == "/v1/figures":
                return Response.json(self._figure_matrix())
            if path.startswith("/v1/figure/"):
                return self._handle_figure(
                    path[len("/v1/figure/"):], query
                )
            if path.startswith("/v1/episodes/"):
                return self._handle_episode(path[len("/v1/episodes/"):])
            if path.startswith("/v1/history/"):
                return self._handle_history(
                    path[len("/v1/history/"):], query
                )
            if path == "/v1/verdicts":
                return self._handle_verdicts(query)
            if path == "/v1/evaluation":
                return self._handle_evaluation(query)
            return Response.error(404, f"no route for {path}")
        except Exception as error:  # noqa: BLE001 — last-resort guard
            # A handler bug must not tear down the connection loop;
            # surface it as a clean 500 instead.
            return Response.error(
                500, f"{type(error).__name__}: {error}"
            )

    def _figure_matrix(self) -> dict:
        """figure -> formats servable by ``/v1/figure/...`` right now."""
        return {
            figure: list(formats)
            for figure, formats in available_renderings().items()
            if figure != "evaluation"  # scored route: /v1/evaluation
        }

    def _handle_status(self) -> Response:
        service = self.service
        last_day = service.last_day
        payload = {
            "service": "repro-moas",
            "version": __version__,
            "days_fed": service.days_fed,
            "last_day": last_day.isoformat() if last_day else None,
            "uptime_seconds": round(
                time.monotonic() - self.started_monotonic, 3
            ),
            "rpki": service.roa_table is not None,
            "ingest": {
                "active": self.ingest.active,
                "initial_complete": self.ingest.initial_complete,
                "days_ingested": self.ingest.days_ingested,
                "checkpoints_written": self.ingest.checkpoints_written,
                "last_error": self.ingest.last_error,
            },
            "alerts": {
                "emitted": self.alerter.alerts_emitted,
                "current_conflicts": len(service.conflict_origins()),
            },
            "evaluation": {
                "incident_labels": len(self._injected),
                "organic_events": len(self._organic),
            },
            "figures": sorted(self._figure_matrix()),
            "sse_subscribers": self.sse_subscribers,
        }
        return Response.json(payload)

    def _handle_figure(self, name: str, query: dict) -> Response:
        format = query.get("format", "csv")
        available = available_renderings()
        if name == "evaluation":
            # The evaluation renderers take an EvaluationResult, not
            # StudyResults; the scored document lives on its own route.
            return Response.error(
                400, "evaluation is served at /v1/evaluation"
            )
        if name not in available:
            return Response.error(
                404,
                f"unknown figure {name!r}; available: "
                f"{', '.join(sorted(available))}",
            )
        if format not in available[name]:
            return Response.error(
                400,
                f"figure {name!r} has no {format!r} renderer; "
                f"available formats: {', '.join(available[name])}",
            )
        results = self.service.results()
        if results.total_days == 0:
            return Response.error(503, "no days ingested yet")
        try:
            body = render(results, name, format)
        except ValueError as error:
            return Response.error(400, str(error))
        return Response.text(
            body,
            content_type=_CONTENT_TYPES[format],
            headers=_meta_headers(
                results.total_days, results.daily_series[-1][0]
            ),
        )

    def _handle_episode(self, prefix_text: str) -> Response:
        from repro.netbase.prefix import Prefix

        try:
            prefix = Prefix.parse(prefix_text)
        except ValueError as error:
            return Response.error(400, f"bad prefix: {error}")
        _days, index = self.current_index()
        record = index.lookup(prefix)
        if record is None:
            return Response.error(
                404, f"no MOAS episode recorded for {prefix}"
            )
        # IndexRecord.episode_dict() is byte-identical to
        # episode_record(results, prefix) — the equivalence the
        # property suite pins — so answering from the O(log n) index
        # preserves this route's wire contract.
        return Response.json(
            record.episode_dict(),
            headers=_meta_headers(index.days_indexed, index.last_day),
        )

    def _handle_history(self, prefix_text: str, query: dict) -> Response:
        from repro.netbase.prefix import Prefix
        from repro.util.dates import parse_date

        try:
            prefix = Prefix.parse(prefix_text)
        except ValueError as error:
            return Response.error(400, f"bad prefix: {error}")
        if "day" in query and "range" in query:
            return Response.error(
                400, "pass day or range, not both"
            )
        day = window = None
        try:
            if "day" in query:
                day = parse_date(query["day"])
            elif "range" in query:
                start_text, sep, end_text = query["range"].partition(
                    ":"
                )
                if not sep:
                    return Response.error(
                        400,
                        f"range wants A:B (two ISO dates), got "
                        f"{query['range']!r}",
                    )
                window = (parse_date(start_text), parse_date(end_text))
        except ValueError as error:
            return Response.error(400, str(error))
        _days, index = self.current_index()
        answer = index.query(prefix, day=day, window=window)
        if answer is None:
            return Response.error(
                404, f"no MOAS episode recorded for {prefix}"
            )
        return Response.json(
            answer.to_dict(),
            headers=_meta_headers(index.days_indexed, index.last_day),
        )

    def _handle_verdicts(self, query: dict) -> Response:
        min_suspicion = 0.0
        if "min_suspicion" in query:
            try:
                min_suspicion = float(query["min_suspicion"])
            except ValueError:
                min_suspicion = math.nan
            if math.isnan(min_suspicion):
                return Response.error(
                    400,
                    f"min_suspicion must be a float, got "
                    f"{query['min_suspicion']!r}",
                )
        kind = query.get("kind")
        fragments = []
        days, rows = self.service.verdict_rows(self._registry)
        for row in rows:
            verdict = row[0]
            if verdict.suspicion < min_suspicion or (
                kind is not None and verdict.kind != kind
            ):
                continue
            fragment = row[1]
            if fragment is None:
                # The same bytes whichever reader renders them first.
                fragment = row[1] = _verdict_fragment(verdict)
            fragments.append(fragment)
        # Byte-identical to Response.json over the row dicts.
        head = (
            f'{{\n  "days_fed": {days},\n  "count": {len(fragments)},\n'
            f'  "verdicts": '
        )
        listing = (
            (b"[\n", b",\n".join(fragments), b"\n  ]") if fragments else (b"[]",)
        )
        return Response(
            status=200,
            content_type="application/json",
            body=b"".join((head.encode(), *listing, b"\n}\n")),
            headers={"X-Repro-Days": str(days)},
        )

    def _handle_evaluation(self, query: dict) -> Response:
        format = query.get("format", "json")
        if format not in ("ascii", "csv", "json"):
            return Response.error(
                400,
                f"evaluation has no {format!r} renderer; available "
                f"formats: ascii, csv, json",
            )
        days, result = self.current_evaluation()
        return Response.text(
            render(result, "evaluation", format),
            content_type=_CONTENT_TYPES[format],
            headers={"X-Repro-Days": str(days)},
        )


def _meta_headers(days: int, last_day) -> dict:
    """The headers that pin a body to the day boundary it answers for."""
    headers = {"X-Repro-Days": str(days)}
    if last_day is not None:
        headers["X-Repro-Last-Day"] = last_day.isoformat()
    return headers


def _verdict_fragment(verdict) -> bytes:
    """``verdict.to_dict()`` as ``Response.json`` writes it two levels
    deep, in the ``"verdicts"`` list.

    Byte-identical to ``json.dumps(verdict.to_dict(), indent=2)`` with
    every line indented four spaces, without the pure-Python encoder
    that ``json.dumps`` falls back to whenever it indents: the keys of
    ``to_dict()`` are fixed, so each value is formatted in place.
    """
    encode = encode_basestring_ascii
    text = (
        f'    {{\n      "prefix": {encode(str(verdict.prefix))},\n'
        f'      "kind": {encode(verdict.kind)},\n'
        f'      "tags": {_json_list(map(encode, sorted(verdict.tags)))},\n'
        f'      "suspicion": {_json_float(verdict.suspicion)},\n'
        f'      "benign": {"true" if verdict.benign else "false"},\n'
        f'      "days_observed": {int.__repr__(verdict.days_observed)},\n'
        f'      "origins": '
        f"{_json_list(map(int.__repr__, sorted(verdict.origins)))},\n"
        f'      "perpetrators": '
        f"{_json_list(map(int.__repr__, sorted(verdict.perpetrators)))}"
    )
    if verdict.rpki_state is not None:
        text += f',\n      "rpki_state": {encode(verdict.rpki_state)}'
    return (text + "\n    }").encode()


def _json_list(items) -> str:
    """A list of JSON texts at the fragment's depth."""
    items = ",\n        ".join(items)
    return f"[\n        {items}\n      ]" if items else "[]"


def _json_float(value: float) -> str:
    """A float as ``json.dumps`` writes it."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _sse_event(event_id: int, payload: dict) -> bytes:
    """One alert in SSE wire form (``id`` + ``event`` + ``data``)."""
    data = json.dumps(payload, separators=(",", ":"))
    return f"id: {event_id}\nevent: alert\ndata: {data}\n\n".encode()


class ServeDaemon:
    """The asyncio shell: listener, SSE streaming, ingestion, checkpoints.

    Build one from a :class:`ServeConfig` and either ``await``
    :meth:`run` (the CLI path — serves until :meth:`request_stop` or
    cancellation) or drive :class:`BackgroundServer` from synchronous
    code.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        #: True when the checkpoint written on shutdown failed.
        self.final_checkpoint_failed = False
        if config.checkpoint is not None and config.checkpoint.is_dir():
            raise ValueError(
                f"checkpoint {config.checkpoint} is a directory (a "
                f"legacy sharded checkpoint); serve writes one file, "
                f"so convert it first: repro analyze ARCHIVE OUT "
                f"--resume {config.checkpoint} --checkpoint FILE"
            )
        if (
            config.checkpoint is not None
            and config.checkpoint.exists()
        ):
            service = MoasService.load_checkpoint(
                config.checkpoint, roa_table=config.rpki
            )
            self.resumed = True
        else:
            roa_source = config.rpki
            if (
                roa_source is None
                and config.archive is not None
                and (config.archive / "roas.json").is_file()
            ):
                roa_source = config.archive
            service = MoasService(roa_table=roa_source)
            self.resumed = False
        self.app = ServeApp(service, archive=config.archive)
        self.hub = AlertHub()
        self.app.hub = self.hub
        self.port: int | None = None
        self._stop_event: asyncio.Event | None = None
        self._server: asyncio.Server | None = None
        #: Open connections: client handler task -> its writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}

    @property
    def url(self) -> str:
        """Base URL once the listener is bound."""
        return f"http://{self.config.host}:{self.port}"

    def request_stop(self) -> None:
        """Ask a running daemon to shut down cleanly (thread-unsafe:
        call on the loop thread, or via ``call_soon_threadsafe``)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def run(self, on_ready=None) -> None:
        """Serve until stopped: bind, ingest, stream, checkpoint.

        ``on_ready`` (optional) is called with the daemon once the
        listener is bound and the port is known — before the initial
        feed completes, because serving during ingestion is the point.
        On the way out the listener closes, open connections drain
        (:meth:`_drain_connections`), ingestion stops and a final
        checkpoint is written when configured; if that write fails,
        :attr:`final_checkpoint_failed` is set.
        """
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        print(f"[serve] listening on {self.url}", flush=True)
        if self.resumed:
            note = ""
            if self.app.service.resumed_legacy:
                note = f" ({LEGACY_RESUME_NOTE})"
            print(
                f"[serve] resumed checkpoint "
                f"{self.config.checkpoint} at "
                f"{self.app.days_fed} days{note}",
                flush=True,
            )
        if on_ready is not None:
            on_ready(self)
        ingest_task = asyncio.create_task(self._ingest())
        try:
            await self._stop_event.wait()
        finally:
            self._server.close()
            await self._drain_connections()
            await self._server.wait_closed()
            ingest_task.cancel()
            try:
                await ingest_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            if not await self._checkpoint():
                self.final_checkpoint_failed = True
            print("[serve] stopped", flush=True)

    async def _drain_connections(self) -> None:
        """End SSE streams, close every client, await their handlers.

        A handler still running when ``asyncio.run`` tears the loop
        down is cancelled wherever it waits — possibly inside its own
        ``writer.wait_closed()``, which Python 3.11's stream protocol
        then logs as an error.  Closing the connections first lets
        every handler finish on its own, within :data:`_DRAIN_GRACE`.
        """
        self.hub.close()
        for writer in self._connections.values():
            writer.close()
        if self._connections:
            await asyncio.wait(
                list(self._connections), timeout=_DRAIN_GRACE
            )

    # -- ingestion -----------------------------------------------------------

    def _write_checkpoint(self) -> None:
        self.app.service.save_checkpoint(self.config.checkpoint)
        self.app.ingest.checkpoints_written += 1

    async def _checkpoint(self) -> bool:
        """Write the configured checkpoint; False if the write failed.

        A failure is recorded in ``ingest.last_error`` and printed, and
        ingestion goes on: a later checkpoint may still succeed.
        """
        if self.config.checkpoint is None:
            return True
        try:
            await asyncio.get_running_loop().run_in_executor(
                None, self._write_checkpoint
            )
        except (OSError, ValueError) as error:
            self.app.ingest.last_error = f"checkpoint: {error}"
            print(f"[serve] checkpoint failed: {error}", flush=True)
            return False
        return True

    async def _feed_source(self, source) -> int:
        """Fold every not-yet-seen day of ``source``; returns days fed.

        Detection decoding and the fold itself run on the executor so
        the event loop keeps serving requests between days; alerts
        publish to the hub as each day lands.
        """
        loop = asyncio.get_running_loop()
        app = self.app
        adapted = open_source(source)
        iterator = iter(adapted.detections())
        fed = 0
        while True:
            detection = await loop.run_in_executor(
                None, next, iterator, None
            )
            if detection is None:
                break
            last = app.last_day
            if last is not None and detection.day <= last:
                continue
            alerts = await loop.run_in_executor(
                None, app.fold_detection, detection
            )
            for alert in alerts:
                self.hub.publish(alert.to_dict())
            fed += 1
            app.ingest.days_ingested += 1
            every = self.config.checkpoint_every_days
            if every > 0 and app.ingest.days_ingested % every == 0:
                await self._checkpoint()
            if self.config.ingest_delay > 0:
                await asyncio.sleep(self.config.ingest_delay)
        return fed

    async def _ingest(self) -> None:
        """Initial archive feed, then tail the MRT drop directory."""
        app = self.app
        config = self.config
        app.ingest.active = True
        try:
            if config.archive is not None:
                fed = await self._feed_source(config.archive)
                print(
                    f"[serve] initial feed complete: {fed} new days "
                    f"({app.days_fed} total)",
                    flush=True,
                )
                await self._checkpoint()
            app.ingest.initial_complete = True
            if config.watch is None:
                return
            seen: set[str] = set()
            while True:
                try:
                    dropped = sorted(
                        path
                        for path in config.watch.glob("*.mrt")
                        if path.name not in seen
                    )
                except OSError as error:
                    app.ingest.last_error = str(error)
                    dropped = []
                fed = 0
                for path in dropped:
                    seen.add(path.name)
                    try:
                        fed += await self._feed_source(path)
                    except asyncio.CancelledError:
                        raise
                    except Exception as error:  # noqa: BLE001
                        # One malformed drop file must not kill the
                        # tail; record it and keep watching.
                        app.ingest.last_error = (
                            f"{path.name}: {error}"
                        )
                        print(
                            f"[serve] skipping {path.name}: {error}",
                            flush=True,
                        )
                if fed:
                    print(
                        f"[serve] folded {fed} dropped day(s) "
                        f"({app.days_fed} total)",
                        flush=True,
                    )
                    await self._checkpoint()
                await asyncio.sleep(config.poll_interval)
        finally:
            app.ingest.active = False

    # -- connection handling -------------------------------------------------

    async def _read_request(self, reader):
        """One request head: ``(method, target, headers)``, or None.

        ``None`` means close the connection: the client hung up, sent
        an over-long line, or took longer than :data:`_HEAD_DEADLINE`
        for the request line and its headers together.  A malformed
        head, or one with more than :data:`_MAX_HEADER_LINES` header
        lines, comes back with an empty method (a 400).
        """
        try:
            async with asyncio.timeout(_HEAD_DEADLINE):
                line = await reader.readline()
                if not line:
                    return None
                parts = line.decode("latin-1", "replace").split()
                if len(parts) != 3:
                    return ("", "", {})  # malformed -> 400 from the caller
                method, target, _version = parts
                headers: dict[str, str] = {}
                lines = 0
                while True:
                    raw = await reader.readline()
                    if raw in (b"\r\n", b"\n", b""):
                        break
                    lines += 1
                    if lines > _MAX_HEADER_LINES:
                        return ("", "", {})
                    name, _, value = raw.decode(
                        "latin-1", "replace"
                    ).partition(":")
                    headers[name.strip().lower()] = value.strip()
        except (TimeoutError, ValueError):
            return None
        return method, target, headers

    async def _handle_client(self, reader, writer) -> None:
        """One connection: serve requests until close (keep-alive)."""
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()
        self._connections[task] = writer
        # The done callback receives the task: forget it however it ends.
        task.add_done_callback(self._connections.pop)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, headers = request
                if not method:
                    writer.write(
                        Response.error(
                            400, "malformed request"
                        ).encode(close=True)
                    )
                    await writer.drain()
                    break
                path = unquote(target.partition("?")[0])
                if path == "/v1/alerts":
                    await self._serve_alerts(writer, target)
                    break
                response = await loop.run_in_executor(
                    None, self.app.handle, method, target
                )
                wants_close = (
                    headers.get("connection", "").lower() == "close"
                )
                writer.write(response.encode(close=wants_close))
                await writer.drain()
                if wants_close:
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _serve_alerts(self, writer, target: str) -> None:
        """Stream the SSE alert feed until the client disconnects."""
        query_string = target.partition("?")[2]
        query = {
            key: values[-1]
            for key, values in parse_qs(query_string).items()
        }
        try:
            replay = int(query.get("replay", "0"))
        except ValueError:
            writer.write(
                Response.error(
                    400, "replay must be an integer"
                ).encode(close=True)
            )
            await writer.drain()
            return
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-cache\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + b": repro-moas alert stream\n\n")
        queue = self.hub.subscribe()
        try:
            for event_id, payload in self.hub.replay(replay):
                writer.write(_sse_event(event_id, payload))
            await writer.drain()
            while True:
                try:
                    event = await asyncio.wait_for(
                        queue.get(), timeout=self.config.sse_keepalive
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\n\n")
                    await writer.drain()
                    continue
                if event is None:
                    return  # the hub closed: daemon shutdown
                event_id, payload = event
                writer.write(_sse_event(event_id, payload))
                await writer.drain()
        finally:
            self.hub.unsubscribe(queue)


class BackgroundServer:
    """A serve daemon on a background thread, for synchronous callers.

    The test-suite and benchmark harness::

        with BackgroundServer(ServeConfig(archive=path)) as url:
            ...  # url like "http://127.0.0.1:43211"

    ``start()`` returns once the listener is bound (ingestion may still
    be running — that's the point); ``stop()`` shuts the daemon down
    cleanly, including its final checkpoint.
    """

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.daemon: ServeDaemon | None = None
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._error: BaseException | None = None

    def start(self) -> str:
        """Boot the daemon; returns its base URL once listening."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=60):
            raise RuntimeError("serve daemon did not become ready")
        if self._error is not None:
            raise RuntimeError(
                f"serve daemon failed to start: {self._error}"
            )
        return self.url

    @property
    def url(self) -> str:
        """The running daemon's base URL."""
        if self.daemon is None or self.daemon.port is None:
            raise RuntimeError("serve daemon is not running")
        return self.daemon.url

    def stop(self) -> None:
        """Shut the daemon down and join its thread."""
        if self._loop is not None and self.daemon is not None:
            try:
                self._loop.call_soon_threadsafe(
                    self.daemon.request_stop
                )
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> str:
        """Context-manager entry: start and return the base URL."""
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: always stop the daemon."""
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as error:  # noqa: BLE001 — reported to starter
            self._error = error
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            self.daemon = ServeDaemon(self.config)
        except BaseException as error:
            self._error = error
            self._ready.set()
            raise
        await self.daemon.run(on_ready=lambda _d: self._ready.set())


def run_serve(config: ServeConfig) -> int:
    """Run a serve daemon in the foreground until interrupted.

    The ``repro serve`` CLI body: blocks the calling thread, handles
    Ctrl-C as a clean shutdown (final checkpoint included), and returns
    a process exit code: 1 when the final checkpoint failed, else 0.
    """
    daemon = ServeDaemon(config)

    async def _main() -> None:
        task = asyncio.ensure_future(daemon.run())
        try:
            await task
        except asyncio.CancelledError:
            pass

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        # asyncio.run cancels the task tree on KeyboardInterrupt; the
        # daemon's finally-block checkpoint has already run by now.
        print("[serve] interrupted", flush=True)
    return 1 if daemon.final_checkpoint_failed else 0
