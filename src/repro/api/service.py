"""The MoasService facade: one session object for the whole study.

Wraps detector -> classifier -> episode tracker -> statistics as an
incrementally-feedable session.  Feed any
:class:`~repro.api.sources.DetectionSource` (or anything
:func:`~repro.api.sources.open_source` can adapt), checkpoint the
streaming state to JSON at any point, resume later — possibly in a
different process, against a different shard of the archive — and the
final :class:`~repro.analysis.pipeline.StudyResults` are identical to
an uninterrupted run.

The session scales out in two independent directions:

- ``workers=N`` fans per-day detection over a process pool when the
  source is partitionable (CDS archives, MRT file lists); ``N=1`` (the
  default) is the documented serial fallback that never spawns a
  process, and ``N=0`` auto-detects the CPU count.
- ``shards=M`` folds the streaming state into ``M`` prefix-space
  shards.  Checkpoints of a sharded session are directories (one
  ``state_dict`` file per shard plus a manifest) so each shard can be
  stored, shipped, or resumed independently.

Results are identical for every ``workers``/``shards`` combination —
the engine's core invariant — and for both CDS archive day-store
formats (v1 and v2; the reader auto-detects, see
:mod:`repro.scenario.archive`).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from repro.analysis.parallel import (
    ParallelExecutor,
    iter_detections,
    resolve_workers,
)
from repro.analysis.pipeline import StudyPipeline, StudyResults, StudyState
from repro.api.renderers import render
from repro.api.sources import open_source
from repro.core.detector import DayDetection
from repro.util.concurrency import guarded_by
from repro.util.io import atomic_write_text

#: Checkpoint payload version; bump on incompatible layout changes.
#: Version 1 (single ``state`` payload) is still readable.
CHECKPOINT_VERSION = 2

#: File name of the manifest inside a sharded checkpoint directory.
CHECKPOINT_MANIFEST = "manifest.json"


@guarded_by("_lock", "_states")
class MoasService:
    """An incrementally-feedable, checkpointable MOAS study session.

    Usage::

        service = MoasService(workers=4, shards=2)
        service.feed("path/to/archive")        # any DetectionSource
        print(service.render("summary", "ascii"))
        service.save_checkpoint("study.ckpt")  # ... later ...
        service = MoasService.load_checkpoint("study.ckpt")
        service.feed(next_shard)               # continue where we left off
        results = service.results()
    """

    def __init__(
        self,
        pipeline: StudyPipeline | None = None,
        *,
        workers: int = 1,
        shards: int = 1,
        shard_scheme: str = "hash",
        roa_table=None,
    ) -> None:
        self.pipeline = pipeline or StudyPipeline()
        # One source of truth for worker resolution and shard layout:
        # the same executor the pipeline path uses.
        executor = ParallelExecutor(
            workers=workers, shards=shards, scheme=shard_scheme
        )
        self.workers = executor.workers
        self.shards = executor.shards
        # Anything RoaTable.load accepts: a table, a roas.json path, or
        # an archive directory carrying one.  The table is immutable
        # and shared by every shard; fed conflicts are validated per
        # RFC 6811 and results gain the rpki/longevity breakdowns.
        if roa_table is not None:
            from repro.netbase.rpki import RoaTable

            roa_table = RoaTable.load(roa_table)
        self.roa_table = roa_table
        self._states = executor.make_states(
            self.pipeline, roa_table=roa_table
        )
        # Snapshot isolation for concurrent readers (the serve daemon
        # folds days on one thread while request handlers read).  Every
        # mutation and every multi-structure read holds this lock, so
        # readers always observe a day boundary — state as it stood
        # after some prefix of the fed day stream, never a torn
        # mid-fold mixture.  Single-threaded batch use pays one
        # uncontended RLock acquire per day, which is noise.
        self._lock = threading.RLock()

    # -- feeding -----------------------------------------------------------

    @property
    def days_fed(self) -> int:
        """Observed days folded into the session so far."""
        with self._lock:
            return self._states[0].total_days

    @property
    def last_day(self):
        """The most recent day fed, or None for a fresh session."""
        with self._lock:
            return self._states[0].last_day

    def feed_day(self, detection: DayDetection) -> None:
        """Fold one day's detection into the session.

        Days must arrive in strictly increasing date order (ValueError
        otherwise) — use ``feed(..., skip_seen=True)`` when re-streaming
        a source that overlaps what this session already saw.  Every
        shard folds the full detection (day-level aggregates are shared,
        per-prefix state is shard-filtered).

        The fold is atomic with respect to :meth:`results`,
        :meth:`snapshot_state` and :meth:`save_checkpoint` running on
        other threads: a concurrent reader sees the session either
        before or after the whole day, never mid-fold.
        """
        with self._lock:
            for state in self._states:
                state.feed_day(detection)

    def feed(
        self,
        source,
        *,
        skip_seen: bool = False,
        workers: int | None = None,
        **options,
    ) -> int:
        """Stream a whole source into the session; returns days fed.

        ``source`` is anything :func:`~repro.api.sources.open_source`
        accepts: a DetectionSource, an archive directory, MRT files, a
        live Network (with ``days``/``peer_asns`` options), or an
        in-memory iterable.  With ``skip_seen`` days not newer than
        :attr:`last_day` are silently skipped, making it safe to re-feed
        a source that overlaps an earlier feed or a resumed checkpoint.

        ``workers`` overrides the session's worker count for this feed;
        with more than one worker, partitionable sources are detected
        on a process pool (others fall back to the serial path — see
        :mod:`repro.analysis.parallel`).
        """
        adapted = open_source(source, **options)
        effective = resolve_workers(
            self.workers if workers is None else workers
        )
        fed = 0
        for detection in iter_detections(adapted, workers=effective):
            # Check against the *advancing* last_day so duplicate days
            # inside one stream are skipped too, not just overlap with
            # what an earlier feed or resumed checkpoint covered.
            if (
                skip_seen
                and self.last_day is not None
                and detection.day <= self.last_day
            ):
                continue
            self.feed_day(detection)
            fed += 1
        return fed

    # -- results and rendering ---------------------------------------------

    def results(self) -> StudyResults:
        """The full study statistics for everything fed so far.

        Non-destructive: the session remains feedable, so interim
        results can be read mid-study.  Sharded sessions merge their
        shard states on the fly (the states themselves are untouched).

        The returned :class:`StudyResults` is a detached copy-on-merge
        snapshot: it shares no mutable state with the live session (see
        :meth:`StudyState.results`), and assembly holds the session
        lock, so a service thread can keep rendering it while
        :meth:`feed_day` continues on another thread.
        """
        with self._lock:
            return StudyState.merged(self._states).results()

    def render(self, figure: str, format: str = "csv") -> str:
        """Render one figure/table from the current session state."""
        return render(self.results(), figure, format)

    # -- episode query index -------------------------------------------------

    def episode_index(self, *, verdicts: dict | None = None):
        """An :class:`~repro.analysis.index.EpisodeIndex` of the session.

        Built from a day-boundary snapshot (:meth:`results` holds the
        session lock), so an index taken while :meth:`feed_day` runs on
        another thread always equals the index of a batch analyze
        stopped at some fed-day prefix.  ``verdicts`` optionally
        enriches each record with the verdict engine's tag/suspicion
        view (e.g. ``service.evaluate(archive).verdicts``).
        """
        from repro.analysis.index import EpisodeIndex

        return EpisodeIndex.build(self.results(), verdicts=verdicts)

    def build_index(
        self, path: Path | str, *, verdicts: dict | None = None
    ) -> Path:
        """Write the session's episode query index to ``path``.

        The on-disk by-product of ``repro analyze --index``: a
        crash-safe (atomic-rename) binary side file that ``repro
        query`` and the serve daemon answer point/range lookups from
        without re-folding the study.  Because the index derives from
        the checkpointable session state, a resumed session
        (``--resume``) rebuilds it without re-folding already-seen
        days.
        """
        return self.episode_index(verdicts=verdicts).save(path)

    # -- verdicts and evaluation ---------------------------------------------

    def evaluate(
        self, source, *, config=None, workers=None, rpki=None, **options
    ):
        """Run the verdict engine over ``source`` and score it.

        Streams the source's daily detections (worker-parallel exactly
        like :meth:`feed`, sharded like the session) through a
        :class:`~repro.core.verdict.VerdictEngine`, finalizes one
        :class:`~repro.core.verdict.Verdict` per prefix, and — when the
        source is a CDS archive carrying answer keys — scores the
        predicted kinds against ``incidents.json`` (injected labels)
        and ``ground_truth.json`` (organic causes).  Returns an
        :class:`~repro.analysis.evaluation.EvaluationReport`; its
        ``result`` renders via ``render(result, "evaluation", fmt)``.

        ``rpki`` supplies a ROA database for RFC 6811 origin validation
        (anything :meth:`~repro.netbase.rpki.RoaTable.load` accepts);
        left unset, the session's own table is used, and failing that
        the archive's ``roas.json`` is picked up automatically — an
        archive generated with ``--rpki`` always evaluates with its
        RPKI shadow on.

        Evaluation is independent of the session's fed study state: it
        only borrows the session's worker/shard layout (and default
        ROA table).
        """
        from repro.analysis.evaluation import (
            EvaluationReport,
            evaluate_verdicts,
        )
        from repro.core.verdict import VerdictConfig, VerdictEngine
        from repro.netbase.rpki import RoaTable
        from repro.scenario.incidents import IncidentLabel

        config = config or VerdictConfig()
        adapted = open_source(source, **options)

        # Resolve the archive's answer keys (and its ROA database)
        # before streaming: the engines validate while they feed.
        registry = None
        injected: list[IncidentLabel] = []
        organic: list[dict] = []
        roa_table = self.roa_table if rpki is None else RoaTable.load(rpki)
        directory = getattr(adapted, "directory", None)
        if directory is not None and (
            Path(directory) / "manifest.json"
        ).is_file():
            from repro.scenario.archive import ArchiveReader

            reader = ArchiveReader(directory)
            try:
                registry = reader.registry
                if reader.has_incidents():
                    injected = [
                        IncidentLabel.from_dict(row)
                        for row in reader.incident_labels()
                    ]
                if (Path(directory) / "ground_truth.json").is_file():
                    organic = reader.ground_truth()
                if roa_table is None and reader.has_roas():
                    roa_table = RoaTable.from_rows(reader.roas())
            finally:
                reader.close()

        with self._lock:
            shard_specs = [state.shard for state in self._states]
        engines = [
            VerdictEngine(config, shard=shard, roa_table=roa_table)
            for shard in shard_specs
        ]
        effective = resolve_workers(
            self.workers if workers is None else workers
        )
        for detection in iter_detections(adapted, workers=effective):
            for engine in engines:
                engine.feed_day(detection)
        merged = VerdictEngine.merged(engines)

        verdicts = merged.finalize(registry=registry)
        result = evaluate_verdicts(
            verdicts, injected=injected, organic=organic
        )
        return EvaluationReport(
            verdicts=verdicts,
            result=result,
            labels=tuple(injected),
            config=config.to_dict(),
        )

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """The session as a JSON-serializable checkpoint payload.

        Taken atomically at a day boundary even while :meth:`feed_day`
        runs on another thread: the payload always equals the state
        after some prefix of the fed day stream (and all shards agree
        on which prefix), never a torn mid-fold mixture.
        """
        with self._lock:
            return {
                "version": CHECKPOINT_VERSION,
                "pipeline": self.pipeline.config_dict(),
                "shards": [state.state_dict() for state in self._states],
            }

    @classmethod
    def resume(cls, snapshot: dict, *, workers: int = 1) -> "MoasService":
        """Rebuild a session from a :meth:`snapshot_state` payload.

        Accepts both the current sharded layout (version 2) and legacy
        single-state version-1 checkpoints.  The worker count is an
        execution-resource choice, not study state, so it is never part
        of the checkpoint — pass ``workers`` to continue in parallel.
        """
        version = snapshot.get("version")
        if version not in (1, CHECKPOINT_VERSION):
            raise ValueError(
                f"unsupported checkpoint version {version!r}; "
                f"expected {CHECKPOINT_VERSION}"
            )
        pipeline = StudyPipeline.from_config_dict(snapshot["pipeline"])
        if version == 1:
            shard_states = [snapshot["state"]]
        else:
            shard_states = snapshot["shards"]
        if not shard_states:
            raise ValueError("checkpoint contains no shard states")
        service = cls(pipeline, workers=workers)
        service._states = [
            StudyState.from_state(state, pipeline=pipeline)
            for state in shard_states
        ]
        service.shards = len(service._states)
        # RPKI-enabled checkpoints carry their table in every shard
        # state (each shard file is self-contained); normalize the
        # restored session to one shared instance so the validation
        # memos warm once, not per shard.
        table = service._states[0].roa_table
        for state in service._states[1:]:
            if state.roa_table != table:
                raise ValueError(
                    "checkpoint shards disagree on the ROA table"
                )
            state.roa_table = table
        service.roa_table = table
        return service

    def save_checkpoint(self, path: Path | str) -> Path:
        """Write the session checkpoint to ``path``.

        Single-shard sessions write one JSON file, exactly as before.
        Sharded sessions write a *directory*: a ``manifest.json``
        naming the layout plus one ``shard-NN.gG.json`` state file per
        shard, so shards can be inspected or shipped independently and
        :meth:`load_checkpoint` can reassemble them.

        Every write is crash-safe.  Files go down via temp-file +
        ``os.replace`` (a truncated file is never observable), and the
        directory layout commits through the manifest: shard files
        carry a fresh generation suffix, the manifest naming them is
        replaced *last*, and only then are the previous generation's
        files pruned — a crash at any point leaves the prior checkpoint
        fully loadable.
        """
        path = Path(path)
        with self._lock:
            num_shards = len(self._states)
        if num_shards == 1:
            if path.is_dir():
                raise ValueError(
                    f"checkpoint path {path} is an existing directory "
                    f"(a sharded checkpoint?); remove it or choose "
                    f"another path"
                )
            path.parent.mkdir(parents=True, exist_ok=True)
            # Atomic replace: a crash mid-write must leave the previous
            # checkpoint intact, never a truncated JSON file.
            atomic_write_text(path, json.dumps(self.snapshot_state()))
            return path
        if path.is_file():
            raise ValueError(
                f"checkpoint path {path} is an existing file (an "
                f"unsharded checkpoint?); remove it or choose another "
                f"path"
            )
        path.mkdir(parents=True, exist_ok=True)
        generation = 0
        manifest_path = path / CHECKPOINT_MANIFEST
        if manifest_path.is_file():
            try:
                previous = json.loads(manifest_path.read_text())
                generation = int(previous.get("generation", 0)) + 1
            except (json.JSONDecodeError, TypeError, ValueError):
                generation = 1
        shard_files = []
        # One lock hold across every shard: all files must describe
        # the same day boundary even while another thread keeps feeding.
        with self._lock:
            shard_dicts = [state.state_dict() for state in self._states]
        for index, payload in enumerate(shard_dicts):
            name = f"shard-{index:02d}.g{generation}.json"
            atomic_write_text(path / name, json.dumps(payload))
            shard_files.append(name)
        manifest = {
            "version": CHECKPOINT_VERSION,
            "pipeline": self.pipeline.config_dict(),
            "shard_count": len(shard_files),
            "shard_files": shard_files,
            "generation": generation,
        }
        # The manifest is the commit point: it lands last, atomically,
        # and names only complete files.  A crash before this line
        # leaves the previous manifest pointing at the previous
        # generation's files, all still present and consistent.
        atomic_write_text(manifest_path, json.dumps(manifest))
        # Only after the commit: prune superseded generations (and any
        # extra shards a wider previous layout left behind).
        for stale in path.glob("shard-*.json"):
            if stale.name not in shard_files:
                stale.unlink()
        return path

    @classmethod
    def load_checkpoint(
        cls, path: Path | str, *, workers: int = 1
    ) -> "MoasService":
        """Rebuild a session from a :meth:`save_checkpoint` file or dir.

        ``workers`` sets the resumed session's pool size (checkpoints
        never record one; see :meth:`resume`).
        """
        path = Path(path)
        if path.is_dir():
            manifest = json.loads(
                (path / CHECKPOINT_MANIFEST).read_text()
            )
            version = manifest.get("version")
            if version != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version {version!r}; "
                    f"expected {CHECKPOINT_VERSION}"
                )
            snapshot = {
                "version": version,
                "pipeline": manifest["pipeline"],
                "shards": [
                    json.loads((path / name).read_text())
                    for name in manifest["shard_files"]
                ],
            }
            return cls.resume(snapshot, workers=workers)
        return cls.resume(json.loads(path.read_text()), workers=workers)
