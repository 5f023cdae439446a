"""Pluggable detection sources behind one protocol.

Every input the study can consume — CDS archives, binary MRT table
dumps, live :class:`~repro.bgp.network.Network` simulations, in-memory
feeds — reduces to the same contract: an object whose ``detections()``
method yields chronological :class:`~repro.core.detector.DayDetection`
records.  New inputs plug in by registering an adapter class with
:func:`register_source`; callers go through :func:`open_source`, which
auto-detects what it was handed.
"""

from __future__ import annotations

import datetime
import itertools
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.core.detector import DayDetection, detect_snapshot
from repro.netbase.rib import RibSnapshot


@runtime_checkable
class DetectionSource(Protocol):
    """The contract every study input adapter satisfies.

    ``detections()`` yields one :class:`DayDetection` per observed day,
    in strictly increasing date order — exactly what
    :meth:`repro.api.MoasService.feed` and
    :meth:`repro.analysis.pipeline.StudyPipeline.run` consume.
    """

    def detections(self) -> Iterator[DayDetection]:
        """Stream the source's daily detections in date order."""
        ...


#: Registered adapter kinds, for ``open_source("kind:...")`` specs and
#: introspection.
_SOURCE_KINDS: dict[str, type] = {}


def register_source(kind: str) -> Callable[[type], type]:
    """Class decorator registering a :class:`DetectionSource` adapter.

    ``kind`` becomes the scheme accepted by :func:`open_source` string
    specs (``"archive:/data/run1"``).  The class must implement
    ``detections()`` and a ``from_spec(rest)`` classmethod for spec
    strings.
    """

    def decorate(cls: type) -> type:
        if kind in _SOURCE_KINDS:
            raise ValueError(f"source kind {kind!r} already registered")
        _SOURCE_KINDS[kind] = cls
        cls.kind = kind
        return cls

    return decorate


def source_kinds() -> tuple[str, ...]:
    """The registered source kinds, sorted."""
    return tuple(sorted(_SOURCE_KINDS))


@register_source("archive")
class ArchiveSource:
    """Daily detections from a CDS archive directory."""

    def __init__(self, directory: Path | str) -> None:
        self.directory = Path(directory)

    @classmethod
    def from_spec(cls, rest: str, **options) -> "ArchiveSource":
        """Build from the path part of an ``archive:`` spec."""
        return cls(rest, **options)

    @property
    def manifest(self) -> dict:
        """The archive's manifest (scale, seed, day count, ...).

        Read straight from ``manifest.json`` — constructing a reader
        here would load the registry, path table, and (for v2 stores)
        the whole footer just to answer a metadata question.
        """
        import json

        with open(Path(self.directory) / "manifest.json") as handle:
            return json.load(handle)

    def detections(self) -> Iterator[DayDetection]:
        """Stream detections straight off the archive's day chunks."""
        from repro.analysis.sources import detections_from_archive

        return detections_from_archive(self.directory)


@register_source("mrt")
class MrtFilesSource:
    """Daily detections from binary MRT table-dump files.

    ``paths`` are scanned in the given order; ``days`` optionally
    overrides the snapshot dates positionally (otherwise dates come
    from MRT record timestamps, like the paper's date-named archives).
    """

    def __init__(
        self,
        paths: Iterable[Path | str],
        *,
        days: Iterable[datetime.date] | None = None,
    ) -> None:
        self.paths = [Path(path) for path in paths]
        self.days = list(days) if days is not None else None

    @classmethod
    def from_spec(cls, rest: str, **options) -> "MrtFilesSource":
        """Build from an ``mrt:`` spec: a file, glob, or directory.

        Keyword options (e.g. ``days``) pass through to the
        constructor.  A spec matching no files is an error — a silent
        empty source would mask a typo'd path as a zero-day study.
        """
        import glob as globmodule

        path = Path(rest)
        if path.is_dir():
            matched = sorted(path.glob("*.mrt"))
        elif any(char in rest for char in "*?["):
            matched = sorted(Path(hit) for hit in globmodule.glob(rest))
        else:
            matched = [path]
        if not matched:
            raise FileNotFoundError(f"no MRT files match {rest!r}")
        return cls(matched, **options)

    def detections(self) -> Iterator[DayDetection]:
        """Parse each table dump and scan it for conflicts."""
        from repro.analysis.sources import detections_from_mrt_files

        return detections_from_mrt_files(self.paths, days=self.days)


@register_source("network")
class NetworkSource:
    """Daily detections from a live BGP :class:`Network` simulation.

    Each day the optional ``mutate(network, day)`` hook applies that
    day's events (originations, withdrawals, policy changes), the
    network is run to convergence, a Route Views style snapshot is taken
    from ``peer_asns``, and the paper's detector scans it.
    """

    def __init__(
        self,
        network,
        days: Iterable[datetime.date],
        peer_asns: list[int],
        *,
        mutate: Callable[[object, datetime.date], None] | None = None,
    ) -> None:
        self.network = network
        self.days = list(days)
        self.peer_asns = list(peer_asns)
        self.mutate = mutate

    @classmethod
    def from_spec(cls, rest: str, **options) -> "NetworkSource":
        """Network sources hold live objects; specs cannot name them."""
        raise ValueError(
            "network sources cannot be opened from a string spec; "
            "construct NetworkSource(network, days, peer_asns) directly"
        )

    def detections(self) -> Iterator[DayDetection]:
        """Mutate, converge, snapshot and detect, one day at a time."""
        for day in self.days:
            if self.mutate is not None:
                self.mutate(self.network, day)
            self.network.run_to_convergence()
            snapshot = self.network.collector_snapshot(day, self.peer_asns)
            yield detect_snapshot(snapshot)


@register_source("memory")
class MemorySource:
    """Daily detections from an in-memory feed.

    Items may be ready-made :class:`DayDetection` records or raw
    :class:`RibSnapshot` tables (scanned on the fly) — the bridge for
    tests, notebooks, and services that assemble updates themselves.
    """

    def __init__(
        self, items: Iterable[DayDetection | RibSnapshot]
    ) -> None:
        self.items = items

    @classmethod
    def from_spec(cls, rest: str, **options) -> "MemorySource":
        """Memory sources hold live objects; specs cannot name them."""
        raise ValueError(
            "memory sources cannot be opened from a string spec; "
            "construct MemorySource(items) directly"
        )

    def detections(self) -> Iterator[DayDetection]:
        """Yield items as-is, detecting over raw snapshots."""
        for item in self.items:
            if isinstance(item, RibSnapshot):
                yield detect_snapshot(item)
            else:
                yield item


def open_source(obj, **options) -> DetectionSource:
    """Adapt ``obj`` into a :class:`DetectionSource`.

    Accepted forms:

    - an existing :class:`DetectionSource` (returned unchanged);
    - a ``"kind:rest"`` spec string for any registered kind;
    - a path: a CDS archive directory (``manifest.json`` present), a
      directory of ``*.mrt`` dumps, or a single MRT file;
    - a BGP :class:`~repro.bgp.network.Network` (requires ``days`` and
      ``peer_asns`` keyword options);
    - any iterable of :class:`DayDetection` / :class:`RibSnapshot`
      items or MRT file paths.
    """
    from repro.bgp.network import Network

    if isinstance(obj, DetectionSource) and not isinstance(
        obj, (str, Path, Network)
    ):
        return obj
    if isinstance(obj, Network):
        return NetworkSource(obj, **options)
    if isinstance(obj, str) and ":" in obj and not Path(obj).exists():
        kind, _, rest = obj.partition(":")
        if kind not in _SOURCE_KINDS:
            raise ValueError(
                f"unknown source kind {kind!r}; "
                f"registered: {', '.join(source_kinds())}"
            )
        return _SOURCE_KINDS[kind].from_spec(rest, **options)
    if isinstance(obj, (str, Path)):
        path = Path(obj)
        if (path / "manifest.json").exists():
            return ArchiveSource(path, **options)
        if path.is_dir():
            dumps = sorted(path.glob("*.mrt"))
            if not dumps:
                raise FileNotFoundError(
                    f"{path} is neither a CDS archive (no manifest.json) "
                    f"nor an MRT directory (no *.mrt files)"
                )
            return MrtFilesSource(dumps, **options)
        if not path.exists():
            raise FileNotFoundError(
                f"no CDS archive or MRT file at {path}"
            )
        return MrtFilesSource([path], **options)
    if isinstance(obj, Iterable):
        # Peek one element to type-sniff without materializing the
        # whole feed — streaming sources stay streaming.
        iterator = iter(obj)
        try:
            first = next(iterator)
        except StopIteration:
            return MemorySource([], **options)
        rest = itertools.chain([first], iterator)
        if isinstance(first, (str, Path)):
            return MrtFilesSource(rest, **options)
        return MemorySource(rest, **options)
    raise TypeError(f"cannot adapt {type(obj).__name__} into a DetectionSource")
