"""Crash-safe file writing.

Checkpoints and manifests must never be observable half-written: a
process dying mid-``write_text`` leaves a truncated JSON file that a
later resume reads as corruption.  :func:`atomic_write_text` gives the
standard fix — write a temporary file in the *same directory* (same
filesystem, so the final rename cannot degrade to a copy) and
``os.replace`` it over the destination, which POSIX guarantees is
atomic: readers see either the old complete file or the new one.

The temporary file is created with mode 0666 and the kernel applies
the process umask, so the final file gets the mode ``open(path, "w")``
gives a new file (0644 under umask 022) — never ``mkstemp``'s 0600,
which would hide an index or checkpoint from every other account.
"""

from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: Path | str, text: str) -> Path:
    """Write ``text`` to ``path`` so no reader ever sees a torn file."""
    return _atomic_write(Path(path), text, mode="w")


def atomic_write_bytes(path: Path | str, data: bytes) -> Path:
    """Binary twin of :func:`atomic_write_text` (same guarantees).

    Used by binary side files such as the episode query index, whose
    readers treat a torn file as corruption — the rename makes a
    half-written index unobservable.
    """
    return _atomic_write(Path(path), data, mode="wb")


def _atomic_write(path: Path, payload, *, mode: str) -> Path:
    # O_EXCL: never write through a name someone else already holds.
    temp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    descriptor = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(descriptor, mode) as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        try:
            os.unlink(temp)
        except FileNotFoundError:
            pass
        raise
    return path
