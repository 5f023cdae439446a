"""Snapshot isolation of MoasService under concurrent feeding.

The serve daemon folds days on one thread while request handlers read
on others.  The service's contract: every concurrent
``snapshot_state()`` / ``results()`` equals the state after some
*prefix* of the fed day stream — a day boundary — never a torn
mid-fold mixture.  These tests hammer that contract from real threads.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.api.service import MoasService
from repro.netbase.prefix import Prefix


@pytest.fixture(scope="module")
def day_stream(api_detections):
    """A bounded slice of the shared archive's detections."""
    return api_detections[:60]


@pytest.fixture(scope="module")
def reference_states(day_stream):
    """``snapshot_state()`` after each day-count prefix of the stream.

    reference_states[k] is the canonical state after exactly k days —
    the full set of states a concurrent reader is allowed to observe.
    """
    service = MoasService()
    states = [service.snapshot_state()]
    for detection in day_stream:
        service.feed_day(detection)
        states.append(service.snapshot_state())
    return states


class TestSnapshotConsistency:
    def test_concurrent_snapshots_are_day_boundaries(
        self, day_stream, reference_states
    ):
        """Every snapshot taken mid-feed equals some stream prefix."""
        service = MoasService()
        observed: list[dict] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                observed.append(service.snapshot_state())

        threads = [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        try:
            for detection in day_stream:
                service.feed_day(detection)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        observed.append(service.snapshot_state())  # the final state

        total_days = [
            len(state["state"]["daily_counts"]) for state in observed
        ]
        assert total_days[-1] == len(day_stream)
        for state, days in zip(observed, total_days):
            assert state == reference_states[days], (
                f"snapshot at {days} days is not the day-{days} "
                f"prefix state"
            )

    def test_concurrent_results_match_prefix_results(
        self, day_stream
    ):
        """results() under concurrent feeding = results at some prefix."""
        reference = MoasService()
        prefix_results = [reference.results()]
        for detection in day_stream:
            reference.feed_day(detection)
            prefix_results.append(reference.results())

        service = MoasService()
        observed = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                observed.append(service.results())

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for detection in day_stream:
                service.feed_day(detection)
        finally:
            stop.set()
            thread.join()

        assert observed, "reader thread never completed a results()"
        for results in observed:
            assert results == prefix_results[results.total_days]

    def test_results_snapshot_detached_from_live_session(
        self, day_stream
    ):
        """A results() snapshot never mutates as feeding continues."""
        service = MoasService()
        service.feed_day(day_stream[0])
        snapshot = service.results()
        frozen_days = snapshot.total_days
        frozen_episodes = dict(snapshot.episodes)
        for detection in day_stream[1:10]:
            service.feed_day(detection)
        assert snapshot.total_days == frozen_days
        assert snapshot.episodes == frozen_episodes

    def test_concurrent_index_builds_are_day_boundaries(
        self, day_stream
    ):
        """episode_index() racing feed_day = index at some day prefix.

        The query index inherits the service's snapshot isolation: an
        index built while days fold concurrently must byte-equal the
        index of some *prefix* of the day stream, never a torn
        mid-fold mixture (ISSUE 10 satellite).
        """
        reference = MoasService()
        prefix_bytes = [reference.episode_index().to_bytes()]
        for detection in day_stream:
            reference.feed_day(detection)
            prefix_bytes.append(reference.episode_index().to_bytes())

        service = MoasService()
        observed: list[tuple[int, bytes]] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                index = service.episode_index()
                observed.append(
                    (index.days_indexed, index.to_bytes())
                )

        threads = [
            threading.Thread(target=reader) for _ in range(3)
        ]
        for thread in threads:
            thread.start()
        try:
            for detection in day_stream:
                service.feed_day(detection)
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        final = service.episode_index()
        observed.append((final.days_indexed, final.to_bytes()))

        assert observed[-1][0] == len(day_stream)
        for days, raw in observed:
            assert raw == prefix_bytes[days], (
                f"index built at {days} days is not the day-{days} "
                f"prefix index"
            )

    def test_kept_index_and_verdict_rows_are_day_boundaries(
        self, day_stream
    ):
        """The session's kept index and ``/v1/verdicts`` rows racing
        feed_day = those of some day prefix, then and after every later
        fold.

        A later day's index and rows are patched copies: a listing a
        reader already holds is never patched in place, so each one
        read mid-feed must still equal its day's cold build once the
        whole stream has folded.
        """
        reference = MoasService()
        cold_bytes, cold_rows = [], []
        for detection in [None, *day_stream]:
            if detection is not None:
                reference.feed_day(detection)
            verdicts = reference.verdicts()
            cold_bytes.append(
                reference.episode_index(verdicts=verdicts).to_bytes()
            )
            cold_rows.append(in_prefix_order(verdicts))

        service = MoasService()
        observed: list[tuple] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                index = service.index()
                days, rows = service.verdict_rows()
                observed.append(
                    (
                        index,
                        index.to_bytes(),
                        days,
                        rows,
                        [verdict for verdict, _fragment in rows],
                    )
                )

        threads = [
            threading.Thread(target=reader) for _ in range(3)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for detection in day_stream:
                service.feed_day(detection)
                # Let a read land before the next fold, so listings of
                # many days are held while later folds patch copies.
                read = len(observed)
                deadline = time.monotonic() + 5
                while len(observed) == read and time.monotonic() < deadline:
                    time.sleep(0.0005)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        days, rows = service.verdict_rows()
        observed.append(
            (service.index(), service.index().to_bytes(), days, rows, None)
        )

        assert observed[-1][0].days_indexed == len(day_stream)
        assert len({index.days_indexed for index, *_rest in observed}) > 2
        for index, raw, days, rows, read in observed:
            indexed = index.days_indexed
            assert raw == cold_bytes[indexed], (
                f"index read at {indexed} days is not the day-{indexed} "
                f"prefix index"
            )
            assert index.to_bytes() == raw, (
                f"the day-{indexed} index changed after later folds"
            )
            listed = [verdict for verdict, _fragment in rows]
            assert listed == cold_rows[days], (
                f"verdict rows at {days} days are not the day-{days} rows"
            )
            if read is not None:
                assert read == cold_rows[days]

    def test_checkpoint_under_feed_is_consistent(
        self, day_stream, tmp_path
    ):
        """save_checkpoint during feeding loads as one day boundary."""
        service = MoasService()
        errors: list[BaseException] = []
        loaded_days: list[int] = []
        stop = threading.Event()

        def checkpointer():
            index = 0
            while not stop.is_set():
                path = tmp_path / f"ckpt-{index}"
                index += 1
                try:
                    service.save_checkpoint(path)
                    resumed = MoasService.load_checkpoint(path)
                    loaded_days.append(resumed.days_fed)
                except BaseException as error:  # noqa: BLE001
                    errors.append(error)
                    return

        thread = threading.Thread(target=checkpointer)
        thread.start()
        try:
            for detection in day_stream[:30]:
                service.feed_day(detection)
        finally:
            stop.set()
            thread.join()
        assert not errors, errors
        assert loaded_days
        assert all(0 <= days <= 30 for days in loaded_days)
        assert loaded_days == sorted(loaded_days)


def in_prefix_order(verdicts: dict) -> list:
    """The verdicts sorted by prefix, as ``/v1/verdicts`` lists them."""
    return [verdicts[prefix] for prefix in sorted(verdicts, key=Prefix.sort_key)]
