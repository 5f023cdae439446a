"""Adapters turning raw archives into streams of daily detections.

The pipeline is source-agnostic: the paper's own two archive
generations (NLANR-era and PCH-era MRT files) and our CDS archive all
reduce to the same :class:`~repro.core.detector.DayDetection` stream.
"""

from __future__ import annotations

import datetime
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.core.detector import (
    DayDetection,
    detect_day_columns,
    detect_snapshot,
)
from repro.mrt.reader import read_rib_snapshot
from repro.scenario.archive import ArchiveReader


def detections_from_archive(archive_dir: Path | str) -> Iterator[DayDetection]:
    """Stream daily detections from a CDS archive directory.

    Each day is decoded as a columnar batch and scanned by
    :func:`~repro.core.detector.detect_day_columns`.  The reader is
    closed when the stream ends, including when the consumer stops
    early and the generator is closed.
    """
    reader = ArchiveReader(archive_dir)
    try:
        for columns in reader.iter_day_columns():
            yield detect_day_columns(columns, reader)
    finally:
        reader.close()


def detections_from_mrt_files(
    paths: Iterable[Path | str],
    *,
    days: Iterable[datetime.date] | None = None,
) -> Iterator[DayDetection]:
    """Stream daily detections from individual MRT table dumps.

    ``days`` optionally overrides the snapshot dates (positionally);
    otherwise dates come from the MRT record timestamps, like the
    paper's date-named archive files.
    """
    day_list = list(days) if days is not None else None
    for index, path in enumerate(paths):
        override = day_list[index] if day_list is not None else None
        snapshot = read_rib_snapshot(path, day=override)
        yield detect_snapshot(snapshot)
