"""Worker-count resolution shared by every parallel entry point.

One rule everywhere (CLI flags, :class:`~repro.api.service.MoasService`,
:func:`~repro.analysis.parallel.iter_detections`, the simulator's MRT
export pool): ``0``/``None`` auto-detects the CPUs available to this
process, ``1`` means the serial fallback, anything higher is taken
literally.
"""

from __future__ import annotations

import os


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request.

    ``None`` or ``0`` auto-detects the CPUs available to this process
    (``os.process_cpu_count`` where available, honoring affinity
    masks); any positive integer passes through; negatives are an
    error.
    """
    if workers is None or workers == 0:
        counter = getattr(os, "process_cpu_count", None)
        detected = counter() if counter is not None else os.cpu_count()
        return max(1, detected or 1)
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers
