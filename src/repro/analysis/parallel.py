"""Process-pool parallel execution of the study engine.

The study's expensive step is per-day detection: decoding one archive
chunk and scanning it for multi-origin prefixes.  Days are independent,
so :func:`iter_detections` fans contiguous day ranges out over a
``concurrent.futures`` process pool and streams the resulting
:class:`~repro.core.detector.DayDetection` records back *in
chronological order*; the caller folds each one into its single
:class:`~repro.analysis.pipeline.StudyState`.  Folding is deterministic
and cheap relative to detection, so results are identical to a serial
run for every worker count — the engine's core invariant, enforced by
the equality tests.

Partitionable sources are the file-backed ones: CDS archive
directories, split into ordinal day ranges whatever the day-store
format (a v2 reader positions through its footer index in O(1), a v1
reader seeks over the earlier days' payloads), with a per-process
:class:`~repro.scenario.archive.ArchiveReader` cache, and MRT file
lists (chunked by file).  Live ``Network`` simulations and
in-memory feeds cannot be partitioned and silently fall back to the
serial path, as does ``workers=1`` — the documented serial fallback
that never spawns a process.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from repro.core.detector import DayDetection, detect_day_columns
from repro.util.workers import resolve_workers

__all__ = [
    "CHUNKS_PER_WORKER",
    "iter_detections",
    "partition_tasks",
    "resolve_workers",
]

#: How many chunks each worker should get on average.  More chunks mean
#: finer-grained scheduling (stragglers hurt less) but more per-task
#: overhead; 4 balances both for archive-sized studies.
CHUNKS_PER_WORKER = 4


# -- worker-side task functions ----------------------------------------------
#
# These run inside pool processes, so they must be module-level (picklable
# by reference) and self-contained.

#: Per-process ArchiveReader cache: the registry and path table load
#: once per worker process, not once per task.
_ARCHIVE_READERS: dict[str, object] = {}


def _cached_reader(directory: str):
    reader = _ARCHIVE_READERS.get(directory)
    if reader is None:
        from repro.scenario.archive import ArchiveReader

        reader = _ARCHIVE_READERS[directory] = ArchiveReader(directory)
    return reader


def _detect_archive_range(
    directory: str, start: int, stop: int
) -> list[DayDetection]:
    """Detect over observed days ``[start, stop)`` of a CDS archive.

    Each day is decoded as a columnar batch and scanned run-wise by
    :func:`~repro.core.detector.detect_day_columns`.
    """
    reader = _cached_reader(directory)
    return [
        detect_day_columns(columns, reader)
        for columns in reader.iter_day_columns(start, stop)
    ]


def _detect_mrt_files(
    paths: list[str], days: list | None
) -> list[DayDetection]:
    """Detect over a chunk of MRT table-dump files."""
    from repro.analysis.sources import detections_from_mrt_files

    return list(detections_from_mrt_files(paths, days=days))


# -- source partitioning -------------------------------------------------------


def _archive_directory(source) -> Path | None:
    """The CDS archive directory behind ``source``, if there is one."""
    directory = getattr(source, "directory", None)
    if directory is None and isinstance(source, (str, Path)):
        directory = source
    if directory is None:
        return None
    directory = Path(directory)
    if (directory / "manifest.json").exists():
        return directory
    return None


def partition_tasks(
    source, workers: int, *, chunks_per_worker: int = CHUNKS_PER_WORKER
) -> list[tuple] | None:
    """Split ``source`` into picklable detection tasks, if possible.

    Returns a chronologically ordered list of ``(function, args)``
    pairs for the process pool, or ``None`` when the source cannot be
    partitioned (live networks, in-memory feeds) and detection must run
    serially.
    """
    directory = _archive_directory(source)
    if directory is not None:
        manifest = json.loads((directory / "manifest.json").read_text())
        num_days = int(manifest["num_days"])
        if num_days == 0:
            return []
        chunks = max(1, min(num_days, workers * chunks_per_worker))
        size = math.ceil(num_days / chunks)
        return [
            (
                _detect_archive_range,
                (str(directory), start, min(start + size, num_days)),
            )
            for start in range(0, num_days, size)
        ]
    paths = getattr(source, "paths", None)
    if paths:
        paths = list(paths)
        days = getattr(source, "days", None)
        chunks = max(1, min(len(paths), workers * chunks_per_worker))
        size = math.ceil(len(paths) / chunks)
        return [
            (
                _detect_mrt_files,
                (
                    [str(path) for path in paths[index : index + size]],
                    list(days[index : index + size])
                    if days is not None
                    else None,
                ),
            )
            for index in range(0, len(paths), size)
        ]
    return None


def _serial_detections(source) -> Iterator[DayDetection]:
    """The serial fallback: stream the source in-process."""
    if isinstance(source, (str, Path)):
        directory = _archive_directory(source)
        if directory is None:
            raise FileNotFoundError(
                f"no CDS archive (manifest.json) at {source!r}"
            )
        from repro.analysis.sources import detections_from_archive

        return detections_from_archive(directory)
    detections = getattr(source, "detections", None)
    if callable(detections):
        return iter(detections())
    if isinstance(source, Iterable):
        return iter(source)
    raise TypeError(
        f"cannot stream detections from {type(source).__name__}"
    )


def iter_detections(source, workers: int | None = 1) -> Iterator[DayDetection]:
    """Stream a source's daily detections, in order, possibly in parallel.

    With ``workers > 1`` and a partitionable source, detection tasks
    run on a process pool while this generator yields their results in
    chronological order; a bounded submission window keeps every worker
    busy without materializing the whole study.  Anything else falls
    back to the serial path with identical output.
    """
    workers = resolve_workers(workers)
    tasks = partition_tasks(source, workers) if workers > 1 else None
    if tasks is None or len(tasks) <= 1 or workers <= 1:
        yield from _serial_detections(source)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        task_iter = iter(tasks)
        pending: deque = deque(
            pool.submit(function, *args)
            for function, args in itertools.islice(task_iter, workers + 2)
        )
        while pending:
            batch = pending.popleft().result()
            for function, args in itertools.islice(task_iter, 1):
                pending.append(pool.submit(function, *args))
            yield from batch
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
