"""Per-stage instrumentation of the serial analyze hot path.

``repro analyze --profile`` answers "where does an analyze second go?"
with data instead of folklore: it re-runs the feed serially in-process,
splitting wall clock into the three stages every study pays —

- **decode**: turning archive bytes into columnar
  :class:`~repro.scenario.archive.DayColumns` day batches;
- **detect**: the per-day MOAS conflict scan
  (:func:`~repro.core.detector.detect_day_columns`);
- **fold**: folding each :class:`~repro.core.detector.DayDetection`
  into the session's study state.

A :mod:`cProfile` capture runs alongside so the summary also names the
hottest functions, which is where the next hot-path PR should start.
The profiled feed produces exactly the same session state as
``service.feed`` — profiling a study does not change its results, it
only forces the serial path.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.core.detector import detect_day_columns
from repro.scenario.archive import ArchiveReader

#: Stage names, in pipeline order (also the report's row order).
STAGES = ("decode", "detect", "fold")


@dataclass
class StageProfile:
    """Wall-clock breakdown of one profiled serial analyze feed."""

    days: int = 0
    rows: int = 0
    conflicts: int = 0
    decode_seconds: float = 0.0
    detect_seconds: float = 0.0
    fold_seconds: float = 0.0
    hotspots: str = ""

    @property
    def total_seconds(self) -> float:
        return self.decode_seconds + self.detect_seconds + self.fold_seconds

    def stage_seconds(self) -> dict[str, float]:
        """Stage name -> wall-clock seconds, in pipeline order."""
        return {
            "decode": self.decode_seconds,
            "detect": self.detect_seconds,
            "fold": self.fold_seconds,
        }

    def report(self) -> str:
        """The human-readable per-stage summary the CLI prints."""
        total = self.total_seconds
        lines = [
            "profile: serial feed, columnar scan — "
            f"{self.days} day(s), {self.rows} row(s), "
            f"{self.conflicts} conflict-day(s)",
            f"  {'stage':<8} {'seconds':>9} {'share':>7} {'ms/day':>9}",
        ]
        for stage, seconds in self.stage_seconds().items():
            share = seconds / total if total else 0.0
            per_day = 1000.0 * seconds / self.days if self.days else 0.0
            lines.append(
                f"  {stage:<8} {seconds:>9.4f} {share:>6.1%} {per_day:>9.3f}"
            )
        lines.append(
            f"  {'total':<8} {total:>9.4f} {'100.0%':>7} "
            f"{1000.0 * total / self.days if self.days else 0.0:>9.3f}"
        )
        if total:
            lines.append(
                f"  throughput: {self.days / total:.1f} days/s, "
                f"{self.rows / total:.0f} rows/s"
            )
        if self.hotspots:
            lines.append("")
            lines.append(self.hotspots.rstrip())
        return "\n".join(lines)


def profile_feed(
    service,
    archive_dir: Path | str,
    *,
    skip_seen: bool = False,
    top: int = 12,
) -> StageProfile:
    """Feed ``archive_dir`` into ``service`` serially, timing each stage.

    The instrumented twin of ``service.feed(archive_dir)``: identical
    session state afterwards, but decode/detect/fold are timed per day
    and a cProfile capture runs across the whole feed.  Always serial
    and in-process — stage attribution across pool workers would be
    meaningless.  ``skip_seen`` mirrors ``feed(..., skip_seen=True)``
    (already-covered days are decoded and detected, but not folded);
    ``top`` bounds the hotspot listing.  Requires a CDS archive
    directory.
    """
    directory = Path(archive_dir)
    if not (directory / "manifest.json").is_file():
        raise ValueError(
            f"--profile requires a CDS archive directory; no "
            f"manifest.json under {directory}"
        )
    profile = StageProfile()
    reader = ArchiveReader(directory)
    profiler = cProfile.Profile()
    try:
        batches = reader.iter_day_columns()
        profiler.enable()
        try:
            while True:
                started = perf_counter()
                batch = next(batches, None)
                decoded = perf_counter()
                if batch is None:
                    break
                profile.decode_seconds += decoded - started
                detection = detect_day_columns(batch, reader)
                detected = perf_counter()
                profile.detect_seconds += detected - decoded
                profile.rows += batch.num_rows
                profile.conflicts += detection.num_conflicts
                if (
                    skip_seen
                    and service.last_day is not None
                    and detection.day <= service.last_day
                ):
                    continue
                service.feed_day(detection)
                profile.fold_seconds += perf_counter() - detected
                profile.days += 1
        finally:
            profiler.disable()
    finally:
        reader.close()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("cumulative").print_stats(top)
    profile.hotspots = stream.getvalue()
    return profile
