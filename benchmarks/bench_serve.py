"""SERVE — query latency and throughput of the live daemon.

Boots the serve daemon over a canned-incident world, holds it in its
ingestion phase (throttled fold loop), and drives N concurrent clients
through the figure endpoints and the per-prefix history, episode and
verdict routes — the paper-repro equivalent of a monitoring dashboard
fan-out hitting a feed that is still ingesting.  The history and
episode requests name a prefix that conflicts on the archive's first
day, and the clients start once the daemon has folded that day, so
every request has an answer.

Gates (env-tunable; generous defaults so CI variance never flakes,
order-of-magnitude regressions always fail):

- sustained request rate across all clients >= ``REPRO_BENCH_SERVE_MIN_RPS``
  (default 50 req/s);
- p99 latency <= ``REPRO_BENCH_SERVE_MAX_P99_MS`` (default 2000 ms);
- zero failed requests;
- once the clients stop and the initial feed completes, every target
  but ``/v1/status``, and ``/v1/evaluation?format=json``, answers the
  body an in-process ``ServeApp`` fed the same archive answers: reads
  that raced the ingestion must have left nothing torn or stale behind.

The measured latency distribution (p50/p90/p99, req/s, client count)
is written to ``BENCH_serve.json`` (override with
``REPRO_BENCH_SERVE_OUT``) so CI publishes the serving-performance
trajectory run over run.
"""

import datetime
import json
import os
import threading
import time
import urllib.error
import urllib.request
from contextlib import closing
from pathlib import Path

from repro.api.serve import BackgroundServer, ServeApp, ServeConfig
from repro.api.service import MoasService
from repro.api.sources import open_source
from repro.scenario.incidents import IncidentScript
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar

SCALE = float(os.environ.get("REPRO_BENCH_SERVE_SCALE", "0.02"))
CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "8"))
DURATION = float(os.environ.get("REPRO_BENCH_SERVE_SECONDS", "6"))
MIN_RPS = float(os.environ.get("REPRO_BENCH_SERVE_MIN_RPS", "50"))
MAX_P99_MS = float(
    os.environ.get("REPRO_BENCH_SERVE_MAX_P99_MS", "2000")
)
OUT_PATH = Path(
    os.environ.get("REPRO_BENCH_SERVE_OUT", "BENCH_serve.json")
)

CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1998, 2, 15)
)  # 100 days

#: The request mix: every response format, light and heavy figures;
#: :func:`prefix_targets` adds the routes that name a prefix.
TARGETS = (
    "/v1/figure/figure1?format=csv",
    "/v1/figure/figure2?format=ascii",
    "/v1/figure/summary?format=json",
    "/v1/figure/episodes?format=json",
    "/v1/status",
)


def prefix_targets(prefix) -> tuple[str, ...]:
    """The history, episode and verdict requests of the mix."""
    return (
        f"/v1/history/{prefix}",
        f"/v1/episodes/{prefix}",
        "/v1/verdicts?min_suspicion=0.6",
    )


def reference_app(directory: Path) -> ServeApp:
    """An in-process ``ServeApp`` fed the archive the daemon ingests,
    over a session built as the daemon builds its own."""
    roas = directory if (directory / "roas.json").is_file() else None
    app = ServeApp(MoasService(roa_table=roas), archive=directory)
    for detection in open_source(directory).detections():
        app.fold_detection(detection)
    return app


def fetch(url: str) -> bytes:
    """One GET's body."""
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.read()


def percentile(sorted_values: list[float], fraction: float) -> float:
    """The ``fraction`` percentile of an ascending-sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1,
        int(fraction * (len(sorted_values) - 1) + 0.5),
    )
    return sorted_values[index]


def test_serve_latency_under_concurrent_load(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bench-serve") / "archive"
    simulate_study(
        directory,
        ScenarioConfig(
            scale=SCALE,
            calendar=CALENDAR,
            paper_archive_gaps=False,
            incidents=IncidentScript.canned(CALENDAR.num_days),
        ),
    )
    with closing(open_source(directory).detections()) as detections:
        prefix = next(detections).conflicts[0].prefix
    targets = TARGETS + prefix_targets(prefix)

    # Pace ingestion so the measurement window overlaps live folding:
    # 100 days spread across the whole run keeps the daemon in its
    # "readers racing the writer" regime the entire time.
    config = ServeConfig(
        archive=directory,
        port=0,
        ingest_delay=max(0.01, DURATION / CALENDAR.num_days),
    )
    latencies_ms: list[float] = []
    failures: list[str] = []
    lock = threading.Lock()
    stop = threading.Event()

    def client(index: int, url: str) -> None:
        count = 0
        while not stop.is_set():
            target = targets[(index + count) % len(targets)]
            count += 1
            started = time.perf_counter()
            try:
                with urllib.request.urlopen(
                    url + target, timeout=30
                ) as response:
                    response.read()
                    status = response.status
            except urllib.error.HTTPError as error:
                if error.code == 503:
                    continue  # warm-up: nothing ingested yet
                with lock:
                    failures.append(f"{target}: HTTP {error.code}")
                continue
            except Exception as error:  # noqa: BLE001 — recorded below
                with lock:
                    failures.append(f"{target}: {error}")
                continue
            elapsed_ms = (time.perf_counter() - started) * 1000
            with lock:
                if status == 200:
                    latencies_ms.append(elapsed_ms)
                else:
                    failures.append(f"{target}: HTTP {status}")

    with BackgroundServer(config) as url:
        while True:
            with urllib.request.urlopen(
                url + "/v1/status", timeout=30
            ) as response:
                if json.loads(response.read())["days_fed"] >= 1:
                    break
            time.sleep(0.005)
        threads = [
            threading.Thread(target=client, args=(index, url))
            for index in range(CLIENTS)
        ]
        window_started = time.perf_counter()
        for thread in threads:
            thread.start()
        time.sleep(DURATION)
        stop.set()
        for thread in threads:
            thread.join(timeout=60)
        window_seconds = time.perf_counter() - window_started
        deadline = time.monotonic() + 120
        while True:
            status_payload = json.loads(fetch(url + "/v1/status"))
            if status_payload["ingest"]["initial_complete"]:
                break
            assert time.monotonic() < deadline, "initial feed never completed"
            time.sleep(0.05)
        checked = [
            target for target in targets if target != "/v1/status"
        ] + ["/v1/evaluation?format=json"]
        served = {target: fetch(url + target) for target in checked}

    reference = reference_app(directory)
    stale = [
        target
        for target in checked
        if served[target] != reference.handle("GET", target).body
    ]

    ordered = sorted(latencies_ms)
    requests_per_second = len(ordered) / window_seconds
    payload = {
        "scale": SCALE,
        "days": CALENDAR.num_days,
        "clients": CLIENTS,
        "window_seconds": round(window_seconds, 3),
        "requests": len(ordered),
        "requests_per_second": round(requests_per_second, 1),
        "latency_ms": {
            "p50": round(percentile(ordered, 0.50), 2),
            "p90": round(percentile(ordered, 0.90), 2),
            "p99": round(percentile(ordered, 0.99), 2),
            "max": round(ordered[-1], 2) if ordered else 0.0,
        },
        "days_fed_at_end": status_payload["days_fed"],
        "alerts_emitted": status_payload["alerts"]["emitted"],
        "failures": len(failures),
        "bodies_checked": len(checked),
        "bodies_differing": len(stale),
        "floors": {
            "min_requests_per_second": MIN_RPS,
            "max_p99_ms": MAX_P99_MS,
        },
    }
    OUT_PATH.write_text(json.dumps(payload, indent=2))
    print(
        f"\n[serve] {CLIENTS} clients, {len(ordered)} requests in "
        f"{window_seconds:.1f}s = {requests_per_second:.0f} req/s; "
        f"p50 {payload['latency_ms']['p50']}ms, "
        f"p99 {payload['latency_ms']['p99']}ms "
        f"(floors: >={MIN_RPS} req/s, p99 <= {MAX_P99_MS}ms); "
        f"payload -> {OUT_PATH}"
    )

    assert not failures, f"{len(failures)} failed requests: {failures[:5]}"
    assert not stale, (
        f"bodies differ from an in-process app fed the same archive: "
        f"{stale}"
    )
    assert len(ordered) > 0, "no successful requests measured"
    assert requests_per_second >= MIN_RPS, (
        f"sustained rate {requests_per_second:.1f} req/s below the "
        f"pinned floor {MIN_RPS}"
    )
    p99 = percentile(ordered, 0.99)
    assert p99 <= MAX_P99_MS, (
        f"p99 latency {p99:.1f} ms above the pinned ceiling "
        f"{MAX_P99_MS} ms"
    )
