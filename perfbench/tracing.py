"""Nested timing spans kept in memory, and the wrappers that record them.

A :class:`Tracer` keeps one stack of open spans per thread.  When a span
closes, its duration is added to its parent's child time, and the span
is folded into a table keyed by ``(root, parent, name)``: call count,
total time, self time (the span minus its children) and any counts the
wrapper measured.  Keying by root lets a workload add up everything one
top-level call did; keying by parent tells apart the same function
called from two layers.

:meth:`Tracer.install` patches functions and methods where callers look
them up, and :meth:`Tracer.restore` puts every original object back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    """Aggregate of every span with one ``(root, parent, name)`` key."""

    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0
    counts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Patch:
    """One function or method to time.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``, named
    where callers look it up.  ``count(result, args)`` returns counts to
    add to the span; ``sample(args)`` names a list that keeps every
    call's duration.
    """

    target: str
    span: str
    count: object = None
    sample: object = None


class Tracer:
    """Records nested spans from any number of threads."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.table: dict[tuple, SpanStats] = {}
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> list:
        """Open a span on this thread; returns its frame for :meth:`end`."""
        frame = [name, 0.0, 0.0]  # name, child time, start
        self._stack().append(frame)
        frame[2] = self.clock()
        return frame

    def end(self, frame: list, counts=None, sample: str | None = None) -> None:
        """Close ``frame`` (the innermost open span on this thread)."""
        finish = self.clock()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        stack.pop()
        duration = finish - frame[2]
        if stack:
            stack[-1][1] += duration
            key = (stack[0][0], stack[-1][0], frame[0])
        else:
            key = (frame[0], None, frame[0])
        with self._lock:
            stats = self.table.get(key)
            if stats is None:
                stats = self.table[key] = SpanStats()
            stats.calls += 1
            stats.total += duration
            stats.self_time += duration - frame[1]
            if counts:
                for name, value in counts.items():
                    stats.counts[name] = stats.counts.get(name, 0) + value
            if sample is not None:
                self.samples[sample].append(duration)

    # -- wrappers ------------------------------------------------------------

    def install(self, patches) -> None:
        """Replace each patch target with a timing wrapper."""
        for patch in patches:
            owner, attr = _resolve(patch.target)
            original = owner.__dict__[attr]
            setattr(owner, attr, self._wrap(original, patch))
            self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every object :meth:`install` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, patch: Patch):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, patch))
        if isinstance(original, staticmethod):
            return staticmethod(self._wrap(original.__func__, patch))
        if inspect.isgeneratorfunction(original):
            return _wrap_generator(self, original, patch)
        return _wrap_function(self, original, patch)


def _resolve(target: str) -> tuple[object, str]:
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if attr not in owner.__dict__:
        raise AttributeError(f"{target} is not defined where it is patched")
    return owner, attr


def _wrap_function(tracer: Tracer, function, patch: Patch):
    name, count, sample = patch.span, patch.count, patch.sample

    @functools.wraps(function)
    def traced(*args, **kwargs):
        frame = tracer.begin(name)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            tracer.end(frame)
            raise
        tracer.end(
            frame,
            count(result, args) if count is not None else None,
            sample(args) if sample is not None else None,
        )
        return result

    return traced


def _wrap_generator(tracer: Tracer, function, patch: Patch):
    """Time each resumption of a generator as one span."""
    name, count = patch.span, patch.count

    @functools.wraps(function)
    def traced(*args, **kwargs):
        inner = function(*args, **kwargs)
        try:
            while True:
                frame = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer.end(frame)
                    return
                except BaseException:
                    tracer.end(frame)
                    raise
                tracer.end(
                    frame, count(item, args) if count is not None else None
                )
                yield item
        finally:
            inner.close()

    return traced
