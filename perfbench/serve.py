"""The ``serve-ingest`` workload: ``repro serve`` read while it ingests.

The daemon under test runs in its own process, started from the
benchmark's entry script through ``ServeConfig`` and ``run_serve`` and
stopped with SIGINT.  It ingests the archive throttled by
``INGEST_DELAY`` per day.  One load-generator process drives it over two
keep-alive ``http.client`` connections, no more than the two cores the
benchmark is sized for, as an open loop: ``INGEST_REQUESTS`` requests
due at fixed times from the moment the daemon has folded its first day,
``INGEST_RATE`` per second.  Nearly every read follows a fold and so
rebuilds the daemon's results, verdicts and index under its lock.

The schedule is sized to end inside ingestion: at 2 requests per second
and a 20 ms delay, 100 reads take 50 s while ingestion ends after about
38 s, so the last fifth of the reads would hit a finished, fully cached
daemon.  At 2.5 per second and 25 ms the reads take 40 s; over five
runs ingestion took 46.6-52.7 s and no read was sent after it, and in a
traced run reads spent 26% of the ingestion rebuilding.

While it waits, the generator runs the speed probe of
:mod:`perfbench.speed` every ``PROBE_INTERVAL`` seconds, from the start
of the schedule to the end of ingestion.  The daemon runs in another
process on whichever core the host gives it, so the probe cannot follow
each of its calls; the ingest lag and the fresh-read p90 are also
reported scaled by the mean of the run's probes, which follows the
host's speed over the minute a run takes.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import signal
import subprocess
import sys
import threading
import time

from perfbench import inputs, layers, speed
from perfbench.outcome import Outcome, peak_rss_mb
from perfbench.stats import ingest_lag, median, open_loop_delays, percentile
from perfbench.tracing import SpanStats, Tracer

CONNECTIONS = 2
#: Seconds the daemon sleeps after folding each day.
INGEST_DELAY = 0.025
#: Requests per second, and their number.
INGEST_RATE = 2.5
INGEST_REQUESTS = 100
TIMEOUT = 60.0
#: Seconds between the generator's speed probes.
PROBE_INTERVAL = 0.25

#: Shared end-to-end name -> this workload's own metric.
END_TO_END = {
    "setup_s": "setup_s",
    "peak_rss_mb": "peak_rss_mb",
    "study_s": "ingest_lag_ref_s",
    "read_p90_ms": "fresh_read_ref_p90_ms",
}


# -- the daemon --------------------------------------------------------------


def serve_child(archive, delay: float, report, trace: bool) -> int:
    """Body of the daemon process: serve until SIGINT, then report.

    The report holds the process's peak RSS and, when traced, its
    spans.
    """
    from repro.api.serve import ServeConfig, run_serve

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install(layers.PATCHES)
    code = run_serve(ServeConfig(archive=archive, port=0, ingest_delay=delay))
    if tracer is not None:
        tracer.restore()
    payload = {"peak_rss_mb": peak_rss_mb(), "spans": None, "samples": None}
    if tracer is not None:
        payload["spans"] = [
            [root, parent, name, stats.calls, stats.total, stats.self_time, stats.counts]
            for (root, parent, name), stats in tracer.table.items()
        ]
        payload["samples"] = dict(tracer.samples)
    report.write_text(json.dumps(payload))
    return code


class Daemon:
    """A ``repro serve`` child process and the lines it prints."""

    def __init__(self, entry, archive, delay: float, report, trace: bool) -> None:
        self.report = report
        self.started_at = time.perf_counter()
        self.listening_at = self.fed_at = None
        self.port = None
        self._listening = threading.Event()
        self._fed = threading.Event()
        command = [
            sys.executable, str(entry), "--serve-child", str(archive),
            "--ingest-delay", repr(delay), "--report", str(report),
        ]
        if trace:
            command.append("--trace-child")
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            now = time.perf_counter()
            if line.startswith("[serve] listening on"):
                self.port = int(line.rsplit(":", 1)[1])
                self.listening_at = now
                self._listening.set()
            elif line.startswith("[serve] initial feed complete"):
                self.fed_at = now
                self._fed.set()
        self._listening.set()
        self._fed.set()

    def wait_listening(self) -> int:
        if not self._listening.wait(TIMEOUT) or self.port is None:
            raise RuntimeError("serve daemon did not start listening")
        return self.port

    def wait_fed(self, probes: list) -> float:
        """Wait for the initial feed to end, probing the host meanwhile."""
        deadline = time.perf_counter() + TIMEOUT * 3
        while not self._fed.wait(PROBE_INTERVAL):
            if time.perf_counter() > deadline:
                break
            probes.append(speed.probe())
        if self.fed_at is None:
            raise RuntimeError("serve daemon did not finish its initial feed")
        return self.fed_at

    def stop(self) -> dict:
        """SIGINT the daemon, wait for it, and read its report."""
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise RuntimeError("serve daemon ignored SIGINT") from None
        finally:
            self._reader.join(timeout=TIMEOUT)
        if self.process.returncode != 0:
            raise RuntimeError(f"serve daemon exited {self.process.returncode}")
        return json.loads(self.report.read_text())

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._reader.join(timeout=TIMEOUT)


class Connection:
    """One keep-alive HTTP connection to the daemon."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._http = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)

    def get(self, target: str) -> tuple[int, str | None, bytes]:
        """``(status, X-Repro-Days, body)``; reconnects after an error."""
        try:
            self._http.request("GET", target)
            response = self._http.getresponse()
            return response.status, response.getheader("X-Repro-Days"), response.read()
        except (OSError, http.client.HTTPException):
            self._http.close()
            self._http = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=TIMEOUT
            )
            raise

    def status(self) -> dict:
        code, _days, body = self.get("/v1/status")
        if code != 200:
            raise RuntimeError(f"/v1/status answered {code}")
        return json.loads(body)

    def close(self) -> None:
        self._http.close()


def _expected_status(present) -> tuple[int, ...]:
    if present is False:
        return (404,)
    if present:
        # Mid-ingestion a prefix may not have had its first conflict yet.
        return (200, 404)
    return (200,)


def _days_of(target: str, days: str | None, body: bytes) -> int | None:
    if days is not None:
        return int(days)
    if target == "/v1/status":
        return json.loads(body)["days_fed"]
    return None


# -- load generator ----------------------------------------------------------


def open_loop(
    port: int, mix: list, start: float, rate: float, probes: list
) -> list[dict]:
    """Send ``mix[i]`` due at ``start + i / rate``, whatever the replies.

    A connection takes the next due request as soon as it is free, so
    when both are busy requests wait in the generator and go out late.
    A read fails on a connection error, an unexpected status, or an
    ``X-Repro-Days`` lower than one its connection has already seen.
    Meanwhile this thread appends a speed probe to ``probes`` every
    ``PROBE_INTERVAL`` seconds.
    """
    records = []
    errors = []
    lock = threading.Lock()
    cursor = itertools.count()

    def work(connection):
        last_days = 0
        while True:
            with lock:
                position = next(cursor)
            if position >= len(mix):
                return
            target, present = mix[position]
            due = start + position / rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            ok = True
            try:
                code, days, body = connection.get(target)
            except (OSError, http.client.HTTPException):
                ok = False
            done = time.perf_counter()
            if ok:
                ok = code in _expected_status(present)
            if ok and code == 200:
                seen = _days_of(target, days, body)
                if seen is not None:
                    ok = seen >= last_days
                    last_days = max(last_days, seen)
            with lock:
                records.append(
                    {"due": due, "sent": sent, "done": done, "ok": ok, "target": target}
                )

    def body():
        connection = Connection(port)
        try:
            work(connection)
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)
        finally:
            connection.close()

    threads = [threading.Thread(target=body) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        probes.append(speed.probe())
        time.sleep(PROBE_INTERVAL)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return records


# -- checks ------------------------------------------------------------------


def reference_app(archive):
    """An in-process ``ServeApp`` fed the same archive."""
    from repro.api.serve import ServeApp
    from repro.api.service import MoasService
    from repro.api.sources import open_source

    app = ServeApp(MoasService(roa_table=archive), archive=archive)
    for detection in open_source(archive).detections():
        app.fold_detection(detection)
    return app


def reference(archive, seed: int, directory) -> None:
    """Draw the request mix and record every answer a finished daemon gives.

    Runs in a child process.  The mix's prefixes come from a fully fed
    in-process ``ServeApp``'s index, the index the daemon answers from
    once ingestion ends; ``reference.json`` holds the mix, the days fed,
    and each distinct target's status and body (``/v1/status`` apart,
    whose uptime changes).
    """
    app = reference_app(archive)
    _snapshot, index = app.current_index()
    rng = random.Random(seed)
    block = sum(share for _kind, share in inputs.MIX_BLOCK)
    mix = inputs.request_mix(
        inputs.choose_prefixes(index, rng), rng, -(-INGEST_REQUESTS // block)
    )[:INGEST_REQUESTS]
    answers = {}
    for target in sorted({target for target, _present in mix} - {"/v1/status"}):
        response = app.handle("GET", target)
        answers[target] = [response.status, response.body.decode("latin-1")]
    (directory / "reference.json").write_text(
        json.dumps({"mix": mix, "days_fed": app.days_fed, "answers": answers})
    )


def final_check(port: int, expected: dict) -> tuple[int, int]:
    """Compare every distinct target's answer with the reference.

    Returns ``(attempted, failed)``.
    """
    connection = Connection(port)
    attempted = failed = 0
    try:
        status = connection.status()
        attempted += 1
        failed += not (
            status["days_fed"] == expected["days_fed"]
            and status["ingest"]["initial_complete"]
        )
        for target, (code, body) in expected["answers"].items():
            attempted += 1
            answer = connection.get(target)
            failed += (answer[0], answer[2]) != (code, body.encode("latin-1"))
    finally:
        connection.close()
    return attempted, failed


# -- the workload ------------------------------------------------------------


def _child_tracer(report: dict) -> Tracer:
    tracer = Tracer()
    for root, parent, name, calls, total, self_time, counts in report["spans"]:
        tracer.table[(root, parent, name)] = SpanStats(calls, total, self_time, counts)
    tracer.samples.update(report["samples"])
    return tracer


def _ingest_once(ctx, archive, expected, traced: bool) -> dict:
    """One daemon ingesting the archive under the open-loop mix."""
    mix = expected["mix"]
    daemon = Daemon(
        ctx.entry, archive, INGEST_DELAY, ctx.work / "daemon.json", traced
    )
    try:
        port = daemon.wait_listening()
        poll = Connection(port)
        try:
            while poll.status()["days_fed"] < 1:
                time.sleep(0.005)
        finally:
            poll.close()
        probes = []
        records = open_loop(port, mix, time.perf_counter(), INGEST_RATE, probes)
        fed_at = daemon.wait_fed(probes)
        checked, mismatched = final_check(port, expected)
        child = daemon.stop()
    except BaseException:
        daemon.kill()
        raise
    # Failed reads stay in the sample, timed to when they failed, so a
    # failure is counted in ``failed`` and never shrinks the sample.
    latencies, lateness = open_loop_delays(
        [(r["due"], r["sent"], r["done"]) for r in records]
    )
    lag = ingest_lag(daemon.listening_at, fed_at, expected["days_fed"], INGEST_DELAY)
    p90 = percentile(latencies, 90)
    mean_probe = sum(probes) / len(probes)
    return {
        "attempted": len(records) + checked,
        "failed": sum(not r["ok"] for r in records) + mismatched,
        "named": {
            "ingest_lag_s": (lag, "s"),
            "ingest_lag_ref_s": (speed.scaled(lag, mean_probe), "s"),
            "fresh_read_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
            "fresh_read_p90_ms": (p90 * 1e3, "ms"),
            "fresh_read_ref_p90_ms": (speed.scaled(p90, mean_probe) * 1e3, "ms"),
        },
        "boot": daemon.listening_at - daemon.started_at,
        "ingestion": fed_at - daemon.listening_at,
        "late": lateness,
        "stale": sum(r["sent"] > fed_at for r in records),
        "child": child,
    }


def run(ctx) -> Outcome:
    archive, generation = inputs.generate_archive(
        ctx.entry, ctx.work, ctx.world_seed, ctx.setups
    )
    expected_dir = ctx.work / "reference"
    warm_up = inputs.build_reference(
        ctx.entry, "serve-ingest", archive, ctx.seed, expected_dir
    )
    expected = json.loads((expected_dir / "reference.json").read_text())
    base = _ingest_once(ctx, archive, expected, traced=False)
    named = dict(base["named"])
    named["setup_s"] = (median(generation) + warm_up + base["boot"], "s")
    named["peak_rss_mb"] = (base["child"]["peak_rss_mb"], "MB")
    outcome = Outcome(
        attempted=base["attempted"],
        failed=base["failed"],
        named=named,
        shared=END_TO_END,
    )
    outcome.notes.append(
        f"{INGEST_REQUESTS} reads at {INGEST_RATE:g}/s over {CONNECTIONS} "
        f"connections, {INGEST_DELAY * 1e3:g} ms ingest delay; ingestion took "
        f"{base['ingestion']:.1f} s and {base['stale']} reads were sent after it; "
        f"the generator sent reads {max(base['late']) * 1e3:.1f} ms late at most"
    )
    if ctx.trace:
        traced = _ingest_once(ctx, archive, expected, traced=True)
        outcome.attempted += traced["attempted"]
        outcome.failed += traced["failed"]
        outcome.traced = traced["named"]
        tracer = _child_tracer(traced["child"])
        outcome.layers = layers.layer_metrics(tracer.table, tracer.samples)
        outcome.layers["gen.late_p50_ms"] = (median(traced["late"]) * 1e3, "ms")
        outcome.layers["gen.late_max_ms"] = (max(traced["late"]) * 1e3, "ms")
        rebuild = layers.rebuild_seconds(tracer.table)
        outcome.notes.append(
            f"traced: reads rebuilt for {rebuild:.1f} s of the "
            f"{traced['ingestion']:.1f} s ingestion "
            f"({rebuild / traced['ingestion']:.0%})"
        )
    return outcome
