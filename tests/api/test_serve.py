"""The serve daemon: concurrent queries, SSE alerts, ingestion.

Acceptance for the serving subsystem: with ingestion still folding
days, at least 8 concurrent clients query figures and every response
body is byte-identical to a fresh ``render()`` over an equivalent
batch analyze stopped at the day count the response's ``X-Repro-Days``
header names.
"""

from __future__ import annotations

import asyncio
import datetime
import json
import logging
import os
import select
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.api import serve as serve_module
from repro.api.renderers import render
from repro.api.serve import (
    _DRAIN_GRACE,
    AlertHub,
    BackgroundServer,
    Response,
    ServeApp,
    ServeConfig,
    ServeDaemon,
)
from repro.api.service import LEGACY_RESUME_NOTE, MoasService
from repro.api.sources import open_source
from repro.core.realtime import MoasAlert
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar
from tests.fixtures import legacy_checkpoint_writer as legacy

CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1997, 12, 17)
)
MRT_DAYS = {datetime.date(1997, 12, 16), datetime.date(1997, 12, 17)}


@pytest.fixture(scope="module")
def serve_archive(tmp_path_factory):
    """A 40-day archive (with two MRT day dumps) for the serve tests."""
    directory = tmp_path_factory.mktemp("serve") / "archive"
    simulate_study(
        directory,
        ScenarioConfig(
            scale=0.02, calendar=CALENDAR, paper_archive_gaps=False
        ),
        mrt_export_days=MRT_DAYS,
    )
    return directory


@pytest.fixture(scope="module")
def serve_detections(serve_archive):
    """The archive's daily detections, materialized once."""
    return list(open_source(serve_archive).detections())


def http_get(url: str, timeout: float = 30):
    """GET returning (status, headers dict, body bytes)."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def wait_for_ingest(url: str, timeout: float = 120) -> dict:
    """Poll ``/v1/status`` until the initial feed completes."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, _, body = http_get(url + "/v1/status")
        payload = json.loads(body)
        if status == 200 and payload["ingest"]["initial_complete"]:
            return payload
        time.sleep(0.1)
    raise AssertionError("initial ingestion did not complete in time")


class TestServeIntegration:
    FIGURES = (
        ("figure1", "csv"),
        ("figure2", "ascii"),
        ("summary", "json"),
        ("episodes", "json"),
    )

    def test_concurrent_clients_byte_identical_during_ingestion(
        self, serve_archive, serve_detections
    ):
        """8 clients query mid-ingestion; every body = batch render."""
        config = ServeConfig(
            archive=serve_archive, port=0, ingest_delay=0.03
        )
        observed: list[tuple[str, str, int, bytes]] = []
        lock = threading.Lock()
        stop = threading.Event()
        errors: list[str] = []

        def client(index: int, url: str) -> None:
            combos = self.FIGURES
            attempt = 0
            successes = 0
            while not stop.is_set() or successes < 3:
                figure, format = combos[(index + attempt) % len(combos)]
                status, headers, body = http_get(
                    f"{url}/v1/figure/{figure}?format={format}"
                )
                attempt += 1
                if status == 503:
                    continue  # nothing ingested yet
                if status != 200:
                    errors.append(f"{figure}/{format} -> {status}")
                    return
                successes += 1
                days = int(headers["X-Repro-Days"])
                with lock:
                    observed.append((figure, format, days, body))

        with BackgroundServer(config) as url:
            threads = [
                threading.Thread(target=client, args=(index, url))
                for index in range(8)
            ]
            for thread in threads:
                thread.start()
            wait_for_ingest(url)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            # Cover the final state explicitly: with ingestion done,
            # every figure must render at the full day count too.
            for figure, format in self.FIGURES:
                status, headers, body = http_get(
                    f"{url}/v1/figure/{figure}?format={format}"
                )
                assert status == 200
                observed.append(
                    (figure, format, int(headers["X-Repro-Days"]), body)
                )
        assert not errors, errors
        assert len(observed) >= 24  # every client got responses

        # Clients must have raced ingestion, not just the final state.
        day_counts = sorted({days for _, _, days, _ in observed})
        assert len(day_counts) > 1, (
            "every response saw the same day count; ingestion was "
            "not concurrent with the clients"
        )
        assert day_counts[-1] == len(serve_detections)

        # Reference: a batch analyze stopped at each observed day
        # count, rendered fresh — the serve bodies must match bytewise.
        needed = {days for _, _, days, _ in observed}
        reference: dict[int, dict] = {}
        service = MoasService()
        for fed, detection in enumerate(serve_detections, start=1):
            service.feed_day(detection)
            if fed in needed:
                results = service.results()
                reference[fed] = {
                    (figure, format): render(results, figure, format)
                    for figure, format in self.FIGURES
                }
        for figure, format, days, body in observed:
            expected = reference[days][(figure, format)].encode()
            assert body == expected, (
                f"{figure}/{format} at {days} days diverged from "
                f"batch analyze"
            )

    def test_status_health_and_version(self, serve_archive):
        from repro import __version__

        config = ServeConfig(archive=serve_archive, port=0)
        with BackgroundServer(config) as url:
            payload = wait_for_ingest(url)
            assert payload["service"] == "repro-moas"
            assert payload["version"] == __version__
            assert payload["days_fed"] == CALENDAR.num_days
            assert payload["last_day"] == CALENDAR.end.isoformat()
            assert payload["alerts"]["emitted"] > 0
            assert "figure1" in payload["figures"]
            assert "evaluation" not in payload["figures"]
            status, _, body = http_get(url + "/healthz")
            assert (status, body) == (200, b"ok\n")

    def test_episode_verdict_and_evaluation_endpoints(
        self, serve_archive
    ):
        config = ServeConfig(archive=serve_archive, port=0)
        with BackgroundServer(config) as url:
            wait_for_ingest(url)
            _, _, body = http_get(url + "/v1/figure/episodes?format=json")
            episodes = json.loads(body)
            assert episodes
            prefix = episodes[0]["prefix"]
            status, headers, body = http_get(
                f"{url}/v1/episodes/{prefix}"
            )
            assert status == 200
            assert json.loads(body) == episodes[0]
            assert int(headers["X-Repro-Days"]) == CALENDAR.num_days

            status, _, body = http_get(url + "/v1/verdicts")
            assert status == 200
            verdicts = json.loads(body)
            assert verdicts["count"] == len(verdicts["verdicts"])
            assert verdicts["count"] > 0
            suspicions = [
                row["suspicion"] for row in verdicts["verdicts"]
            ]
            status, _, body = http_get(
                url + "/v1/verdicts?min_suspicion=0.5"
            )
            filtered = json.loads(body)
            assert filtered["count"] == sum(
                1 for value in suspicions if value >= 0.5
            )

            status, _, body = http_get(url + "/v1/evaluation?format=json")
            assert status == 200
            scored = json.loads(body)
            assert "per_kind" in scored or scored  # a JSON document

    def test_history_endpoint_answers_from_the_index(
        self, serve_archive
    ):
        """/v1/history carries the full indexed answer for a prefix."""
        config = ServeConfig(archive=serve_archive, port=0)
        with BackgroundServer(config) as url:
            wait_for_ingest(url)
            _, _, body = http_get(url + "/v1/figure/episodes?format=json")
            episodes = json.loads(body)
            prefix = episodes[0]["prefix"]

            status, headers, body = http_get(
                f"{url}/v1/history/{prefix}"
            )
            assert status == 200
            answer = json.loads(body)
            # The episode slice is byte-identical to the episode route.
            assert answer["episode"] == episodes[0]
            assert answer["query"]["prefix"] == prefix
            assert not answer["query"]["explicit_window"]
            assert answer["query"]["days_indexed"] == int(
                headers["X-Repro-Days"]
            )
            assert answer["query"]["total_episodes"] == len(episodes)
            assert "verdict" in answer

            # Point query against the episode's own first day.
            day = answer["episode"]["first_day"]
            _, _, body = http_get(
                f"{url}/v1/history/{prefix}?day={day}"
            )
            point = json.loads(body)
            assert point["query"]["explicit_window"]
            assert point["query"]["active"]
            assert point["query"]["overlap_days"] == 1

            # Range query over the full study window covers everyone.
            _, _, body = http_get(
                f"{url}/v1/history/{prefix}?range="
                f"{CALENDAR.start.isoformat()}:"
                f"{CALENDAR.end.isoformat()}"
            )
            ranged = json.loads(body)
            assert ranged["query"]["concurrent_episodes"] == len(
                episodes
            )

    def test_history_racing_ingestion_is_day_boundary_consistent(
        self, serve_archive, serve_detections
    ):
        """History answers mid-ingestion = batch index at that day.

        Every ``/v1/history`` body must byte-equal the answer of an
        index built from a batch fold (plus verdict engine) stopped at
        the day count the response's ``X-Repro-Days`` header names —
        the index inherits serve's snapshot isolation (ISSUE 10
        satellite).
        """
        from repro.analysis.index import EpisodeIndex
        from repro.core.verdict import VerdictEngine
        from repro.scenario.archive import ArchiveReader

        # A prefix conflicted on day 1, so early day counts answer 200.
        first_conflicts = serve_detections[0].conflicts
        assert first_conflicts, "fixture archive has a quiet first day"
        prefix = first_conflicts[0].prefix

        config = ServeConfig(
            archive=serve_archive, port=0, ingest_delay=0.03
        )
        observed: list[tuple[int, bytes]] = []
        lock = threading.Lock()
        stop = threading.Event()

        def client(url: str) -> None:
            successes = 0
            while not stop.is_set() or successes < 3:
                status, headers, body = http_get(
                    f"{url}/v1/history/{prefix}"
                )
                if status != 200:
                    continue  # not conflicted / nothing folded yet
                successes += 1
                with lock:
                    observed.append(
                        (int(headers["X-Repro-Days"]), body)
                    )

        with BackgroundServer(config) as url:
            threads = [
                threading.Thread(target=client, args=(url,))
                for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            wait_for_ingest(url)
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            status, headers, body = http_get(
                f"{url}/v1/history/{prefix}"
            )
            assert status == 200
            observed.append((int(headers["X-Repro-Days"]), body))

        day_counts = sorted({days for days, _ in observed})
        assert day_counts[-1] == len(serve_detections)

        reader = ArchiveReader(serve_archive)
        try:
            registry = reader.registry
        finally:
            reader.close()
        needed = {days for days, _ in observed}
        reference: dict[int, bytes] = {}
        service = MoasService()
        engine = VerdictEngine()
        for fed, detection in enumerate(serve_detections, start=1):
            service.feed_day(detection)
            engine.feed_day(detection)
            if fed in needed:
                index = EpisodeIndex.build(
                    service.results(),
                    verdicts=engine.finalize(registry=registry),
                )
                answer = index.query(prefix)
                reference[fed] = (
                    json.dumps(answer.to_dict(), indent=2) + "\n"
                ).encode()
        for days, body in observed:
            assert body == reference[days], (
                f"history answer at {days} days diverged from a "
                f"batch-built index"
            )

    def test_error_paths(self, serve_archive):
        config = ServeConfig(archive=serve_archive, port=0)
        with BackgroundServer(config) as url:
            wait_for_ingest(url)
            for path, expected in (
                ("/v1/figure/nope", 404),
                ("/v1/figure/summary?format=xml", 400),
                ("/v1/figure/evaluation", 400),
                ("/v1/episodes/banana", 400),
                ("/v1/episodes/203.0.113.0/24", 404),
                ("/v1/history/banana", 400),
                ("/v1/history/203.0.113.0/24", 404),
                ("/v1/history/10.0.0.0/8?day=soon", 400),
                ("/v1/history/10.0.0.0/8?range=1998-01-01", 400),
                (
                    "/v1/history/10.0.0.0/8"
                    "?day=1998-01-01&range=1998-01-01:1998-01-02",
                    400,
                ),
                ("/v1/verdicts?min_suspicion=lots", 400),
                ("/v1/verdicts?min_suspicion=nan", 400),
                ("/v1/evaluation?format=xml", 400),
                ("/nope", 404),
            ):
                status, _, body = http_get(url + path)
                assert status == expected, (path, status)
                assert "error" in json.loads(body)
            # Non-GET methods are rejected.
            request = urllib.request.Request(
                url + "/v1/status", data=b"{}", method="POST"
            )
            try:
                with urllib.request.urlopen(request, timeout=30):
                    raise AssertionError("POST was accepted")
            except urllib.error.HTTPError as error:
                assert error.code == 405

    def test_sse_stream_delivers_alerts(self, serve_archive):
        config = ServeConfig(
            archive=serve_archive, port=0, ingest_delay=0.03
        )
        with BackgroundServer(config) as url:
            host, port = url.replace("http://", "").split(":")
            connection = socket.create_connection(
                (host, int(port)), timeout=30
            )
            connection.sendall(
                b"GET /v1/alerts?replay=100 HTTP/1.1\r\n"
                b"Host: test\r\n\r\n"
            )
            wait_for_ingest(url)
            # Drain whatever the stream has pushed by now.
            connection.settimeout(2)
            chunks = []
            try:
                while True:
                    chunk = connection.recv(65536)
                    if not chunk:
                        break
                    chunks.append(chunk)
            except socket.timeout:
                pass
            connection.close()
            text = b"".join(chunks).decode()
        assert "text/event-stream" in text
        events = [
            json.loads(line[len("data: "):])
            for line in text.splitlines()
            if line.startswith("data: ")
        ]
        assert events, "no alerts arrived on the SSE stream"
        for payload in events:
            # Every event is a valid alert document.
            alert = MoasAlert.from_dict(payload)
            assert str(alert.prefix) == payload["prefix"]

    def test_checkpoint_resume_skips_seen_days(
        self, serve_archive, tmp_path
    ):
        checkpoint = tmp_path / "serve.ckpt"
        config = ServeConfig(
            archive=serve_archive, port=0, checkpoint=checkpoint
        )
        with BackgroundServer(config) as url:
            first = wait_for_ingest(url)
            _, _, summary_first = http_get(
                url + "/v1/figure/summary?format=json"
            )
        assert checkpoint.exists()
        with BackgroundServer(config) as url:
            resumed = wait_for_ingest(url)
            assert resumed["days_fed"] == first["days_fed"]
            assert resumed["ingest"]["days_ingested"] == 0
            _, _, summary_resumed = http_get(
                url + "/v1/figure/summary?format=json"
            )
        assert summary_resumed == summary_first

    def test_watch_directory_folds_dropped_days(
        self, serve_archive, tmp_path
    ):
        """A watch-only daemon ingests MRT day dumps as they appear."""
        drop = tmp_path / "drop"
        drop.mkdir()
        config = ServeConfig(
            watch=drop, port=0, poll_interval=0.1
        )
        with BackgroundServer(config) as url:
            payload = json.loads(http_get(url + "/v1/status")[2])
            assert payload["days_fed"] == 0
            status, _, _ = http_get(
                url + "/v1/figure/summary?format=json"
            )
            assert status == 503  # nothing ingested yet
            for day in sorted(MRT_DAYS):
                name = f"rib.{day.isoformat()}.mrt"
                shutil.copy(
                    serve_archive / "mrt" / name, drop / name
                )
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                payload = json.loads(http_get(url + "/v1/status")[2])
                if payload["days_fed"] == len(MRT_DAYS):
                    break
                time.sleep(0.1)
            assert payload["days_fed"] == len(MRT_DAYS)
            assert payload["last_day"] == max(MRT_DAYS).isoformat()
            status, _, _ = http_get(
                url + "/v1/figure/summary?format=json"
            )
            assert status == 200


@pytest.fixture(scope="module")
def early_archive(tmp_path_factory):
    """An archive that ends the day before the serve archive's MRT
    dumps, so a dropped dump is a new day for it."""
    directory = tmp_path_factory.mktemp("serve-early") / "archive"
    simulate_study(
        directory,
        ScenarioConfig(
            scale=0.01,
            calendar=StudyCalendar(
                CALENDAR.start, min(MRT_DAYS) - datetime.timedelta(days=1)
            ),
            paper_archive_gaps=False,
        ),
    )
    return directory


class TestCheckpointFailures:
    """A checkpoint that cannot be written is reported, not fatal."""

    def test_ingestion_survives_a_failed_checkpoint(
        self, early_archive, serve_archive, tmp_path
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        drop = tmp_path / "drop"
        drop.mkdir()
        server = BackgroundServer(
            ServeConfig(
                archive=early_archive,
                port=0,
                watch=drop,
                poll_interval=0.1,
                checkpoint=blocker / "s.ckpt",
            )
        )
        with server as url:
            status = wait_for_ingest(url, timeout=60)
            ingest = status["ingest"]
            assert ingest["active"]
            assert ingest["checkpoints_written"] == 0
            assert ingest["last_error"].startswith("checkpoint: ")
            fed = status["days_fed"]
            name = f"rib.{min(MRT_DAYS).isoformat()}.mrt"
            shutil.copy(serve_archive / "mrt" / name, drop / name)
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                status = json.loads(http_get(url + "/v1/status")[2])
                if status["days_fed"] == fed + 1:
                    break
                time.sleep(0.1)
            assert status["days_fed"] == fed + 1
            assert status["last_day"] == min(MRT_DAYS).isoformat()
        assert server._error is None
        assert server.daemon.final_checkpoint_failed

    def test_cli_exits_1_when_the_final_checkpoint_fails(
        self, early_archive, tmp_path
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file, not a directory")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        failed = threading.Event()
        lines: list[str] = []
        with subprocess.Popen(
            [
                sys.executable,
                "-c",
                "import sys; from repro.api.cli import main; "
                "sys.exit(main(sys.argv[1:]))",
                "serve",
                str(early_archive),
                "--port",
                "0",
                "--checkpoint",
                str(blocker / "s.ckpt"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        ) as process:

            def read_stdout() -> None:
                for line in process.stdout:
                    lines.append(line)
                    if line.startswith("[serve] checkpoint failed:"):
                        failed.set()

            reader = threading.Thread(target=read_stdout)
            reader.start()
            try:
                assert failed.wait(timeout=60), "".join(lines)
                process.send_signal(signal.SIGINT)
                process.wait(timeout=60)
            finally:
                process.kill()
                reader.join(timeout=60)
            stderr = process.stderr.read()
        assert process.returncode == 1
        assert "Traceback" not in stderr
        failures = [
            line
            for line in lines
            if line.startswith("[serve] checkpoint failed:")
        ]
        assert len(failures) == 2  # after the initial feed, at stop


class TestLegacyCheckpoints:
    """Serve resumes a legacy multi-state checkpoint file and writes it
    back as one state; it refuses a legacy checkpoint directory."""

    def test_resumes_a_legacy_payload_file_as_one_state(
        self, serve_archive, serve_detections, tmp_path, capsys
    ):
        checkpoint = tmp_path / "serve.ckpt"
        checkpoint.write_text(
            json.dumps(legacy.shard_payload(serve_detections[:20], 3, "range"))
        )
        straight = MoasService()
        straight.feed(serve_detections)
        config = ServeConfig(
            archive=serve_archive, port=0, checkpoint=checkpoint
        )
        with BackgroundServer(config) as url:
            status = wait_for_ingest(url)
            assert status["days_fed"] == CALENDAR.num_days
            assert status["ingest"]["days_ingested"] == CALENDAR.num_days - 20
            _, _, summary = http_get(url + "/v1/figure/summary?format=json")
            assert summary == render(
                straight.results(), "summary", "json"
            ).encode()
        resumed_lines = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("[serve] resumed checkpoint")
        ]
        assert resumed_lines == [
            f"[serve] resumed checkpoint {checkpoint} at 20 days "
            f"({LEGACY_RESUME_NOTE})"
        ]
        payload = json.loads(checkpoint.read_text())
        assert set(payload) == {"version", "pipeline", "state"}
        resumed = MoasService.load_checkpoint(checkpoint)
        assert resumed.results() == straight.results()

    def test_refuses_a_legacy_checkpoint_directory(
        self, serve_archive, serve_detections, tmp_path
    ):
        directory = legacy.write_checkpoint(
            tmp_path / "legacy", serve_detections[:10], 2
        )
        before = {path.name: path.read_bytes() for path in directory.iterdir()}
        with pytest.raises(ValueError, match="legacy sharded checkpoint"):
            ServeDaemon(
                ServeConfig(
                    archive=serve_archive, port=0, checkpoint=directory
                )
            )
        after = {path.name: path.read_bytes() for path in directory.iterdir()}
        assert after == before

    def test_status_reports_no_shard_layout(self, serve_archive):
        app = ServeApp(MoasService(), archive=serve_archive)
        payload = json.loads(app.handle("GET", "/v1/status").body)
        assert set(payload) == {
            "service",
            "version",
            "days_fed",
            "last_day",
            "uptime_seconds",
            "rpki",
            "ingest",
            "alerts",
            "evaluation",
            "figures",
            "sse_subscribers",
        }


def asyncio_errors(caplog) -> list[logging.LogRecord]:
    """ERROR records the asyncio logger emitted during the test."""
    return [
        record
        for record in caplog.records
        if record.name == "asyncio" and record.levelno >= logging.ERROR
    ]


class TestShutdownDrain:
    """``stop()`` drains open connections before the loop shuts down."""

    def test_closing_client_is_not_cancelled_in_wait_closed(
        self, serve_archive, monkeypatch, caplog
    ):
        """A handler still closing its writer finishes, unlogged."""
        real_wait_closed = asyncio.StreamWriter.wait_closed

        async def slow_wait_closed(writer):
            await asyncio.sleep(0.5)
            return await real_wait_closed(writer)

        monkeypatch.setattr(
            asyncio.StreamWriter, "wait_closed", slow_wait_closed
        )
        caplog.set_level(logging.ERROR, logger="asyncio")
        server = BackgroundServer(ServeConfig(archive=serve_archive, port=0))
        url = server.start()
        try:
            status, _, body = http_get(url + "/healthz")
        finally:
            server.stop()
        assert (status, body) == (200, b"ok\n")
        assert not server._thread.is_alive()
        assert asyncio_errors(caplog) == []

    def test_idle_and_streaming_clients_do_not_delay_stop(
        self, serve_archive, caplog
    ):
        """Keep-alive and SSE clients are closed, not waited out."""
        caplog.set_level(logging.ERROR, logger="asyncio")
        server = BackgroundServer(ServeConfig(archive=serve_archive, port=0))
        url = server.start()
        host, port = url.replace("http://", "").split(":")
        idle = socket.create_connection((host, int(port)), timeout=30)
        stream = socket.create_connection((host, int(port)), timeout=30)
        try:
            idle.sendall(b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n")
            assert idle.recv(65536).startswith(b"HTTP/1.1 200")
            stream.sendall(
                b"GET /v1/alerts HTTP/1.1\r\nHost: test\r\n\r\n"
            )
            head = b""
            while b"\r\n\r\n" not in head:
                head += stream.recv(65536)
            assert b"text/event-stream" in head
            started = time.monotonic()
            server.stop()
            elapsed = time.monotonic() - started
            # Both connections were closed by the daemon.
            assert idle.recv(65536) == b""
            while stream.recv(65536):
                pass
        finally:
            idle.close()
            stream.close()
        assert not server._thread.is_alive()
        assert elapsed < _DRAIN_GRACE / 2
        assert asyncio_errors(caplog) == []


def read_response(connection: socket.socket) -> bytes:
    """Everything the daemon sends until it closes the connection."""
    chunks = []
    try:
        while chunk := connection.recv(65536):
            chunks.append(chunk)
    except ConnectionResetError:
        pass
    return b"".join(chunks)


class TestRequestHead:
    """The header-line cap and the whole-head deadline."""

    def test_repeated_header_lines_count_toward_the_cap(
        self, serve_archive
    ):
        server = BackgroundServer(ServeConfig(archive=serve_archive, port=0))
        url = server.start()
        host, port = url.replace("http://", "").split(":")
        try:
            for repeats, expected in ((127, b"200"), (500, b"400")):
                connection = socket.create_connection(
                    (host, int(port)), timeout=30
                )
                with connection:
                    connection.sendall(
                        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
                        + b"X-A: b\r\n" * repeats
                        + b"\r\n"
                    )
                    answer = read_response(connection)
                assert answer.startswith(b"HTTP/1.1 " + expected), repeats
        finally:
            server.stop()

    def test_slow_head_is_closed_at_the_deadline(
        self, serve_archive, serve_detections, monkeypatch
    ):
        """A client dribbling header lines is cut off at the deadline
        while a well-behaved client keeps getting correct answers."""
        monkeypatch.setattr(serve_module, "_HEAD_DEADLINE", 1.0)
        prefix = serve_detections[0].conflicts[0].prefix
        targets = (f"/v1/history/{prefix}", "/v1/verdicts?min_suspicion=0.6")
        reference = ServeApp(MoasService(), archive=serve_archive)
        for detection in serve_detections:
            reference.fold_detection(detection)
        expected = {
            target: reference.handle("GET", target).body
            for target in targets
        }
        done = threading.Event()
        answers: list[tuple[str, int, bytes]] = []

        def well_behaved(url: str) -> None:
            while not done.is_set():
                for target in targets:
                    status, _, body = http_get(url + target)
                    answers.append((target, status, body))

        config = ServeConfig(archive=serve_archive, port=0)
        with BackgroundServer(config) as url:
            wait_for_ingest(url)
            host, port = url.replace("http://", "").split(":")
            worker = threading.Thread(target=well_behaved, args=(url,))
            worker.start()
            slow = socket.create_connection((host, int(port)), timeout=30)
            started = time.monotonic()
            closed_after = None
            try:
                slow.sendall(b"GET /v1/status HTTP/1.1\r\n")
                while time.monotonic() - started < 10:
                    try:
                        slow.sendall(b"X-Slow: 1\r\n")
                    except OSError:
                        closed_after = time.monotonic() - started
                        break
                    readable, _, _ = select.select([slow], [], [], 0.2)
                    if readable and read_response(slow) == b"":
                        closed_after = time.monotonic() - started
                        break
            finally:
                slow.close()
                done.set()
                worker.join(timeout=60)
        assert not worker.is_alive()
        assert closed_after is not None and 0.9 <= closed_after < 2.5
        assert len(answers) >= len(targets)
        for target, status, body in answers:
            assert (status, body) == (200, expected[target]), target


class TestEvaluationCache:
    """``/v1/evaluation`` is scored once per day boundary."""

    def test_scored_once_per_day_count(
        self, serve_archive, serve_detections, monkeypatch
    ):
        from repro.analysis import evaluation

        calls = []
        real = evaluation.evaluate_verdicts

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate_verdicts", counting)
        app = ServeApp(MoasService(), archive=serve_archive)
        for detection in serve_detections[:20]:
            app.fold_detection(detection)
        first = app.handle("GET", "/v1/evaluation?format=json")
        second = app.handle("GET", "/v1/evaluation?format=json")
        app.handle("GET", "/v1/evaluation?format=ascii")
        assert first.status == 200
        assert first.headers["X-Repro-Days"] == "20"
        assert second.body == first.body
        assert len(calls) == 1

        app.fold_detection(serve_detections[20])
        third = app.handle("GET", "/v1/evaluation?format=json")
        assert len(calls) == 2
        assert third.headers["X-Repro-Days"] == "21"
        fresh = ServeApp(MoasService(), archive=serve_archive)
        for detection in serve_detections[:21]:
            fresh.fold_detection(detection)
        assert fresh.handle("GET", "/v1/evaluation?format=json") == third


class TestServeConfig:
    def test_requires_a_day_source(self):
        with pytest.raises(ValueError, match="day source"):
            ServeConfig()

    def test_string_paths_are_normalized(self, tmp_path):
        config = ServeConfig(archive=str(tmp_path))
        assert config.archive == tmp_path


class TestAlertHub:
    def test_publish_reaches_every_subscriber(self):
        import asyncio

        async def scenario():
            hub = AlertHub()
            queues = [hub.subscribe() for _ in range(3)]
            hub.publish({"kind": "moas_started"})
            for queue in queues:
                event_id, payload = queue.get_nowait()
                assert event_id == 1
                assert payload == {"kind": "moas_started"}
            hub.unsubscribe(queues[0])
            hub.publish({"kind": "moas_ended"})
            assert queues[0].empty()
            assert hub.subscriber_count == 2
            assert hub.published == 2

        asyncio.run(scenario())

    def test_replay_returns_most_recent(self):
        import asyncio

        async def scenario():
            hub = AlertHub(history=4)
            for index in range(10):
                hub.publish({"index": index})
            recent = hub.replay(2)
            assert [payload["index"] for _, payload in recent] == [8, 9]
            # The ring buffer bounds history.
            assert len(hub.replay(100)) == 4
            assert hub.replay(0) == []

        asyncio.run(scenario())


class TestResponseEncoding:
    def test_wire_form_has_content_length(self):
        response = Response.json({"ok": True})
        wire = response.encode()
        head, _, body = wire.partition(b"\r\n\r\n")
        assert b"HTTP/1.1 200 OK" in head
        assert f"Content-Length: {len(body)}".encode() in head
        assert json.loads(body) == {"ok": True}

    def test_close_header_appended(self):
        wire = Response.text("x").encode(close=True)
        assert b"Connection: close" in wire
