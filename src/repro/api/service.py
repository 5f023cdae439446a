"""The MoasService facade: one session object for the whole study.

Wraps detector -> classifier -> episode tracker -> statistics as an
incrementally-feedable session.  Feed any
:class:`~repro.api.sources.DetectionSource` (or anything
:func:`~repro.api.sources.open_source` can adapt), checkpoint the
streaming state to one JSON file at any point, resume later — possibly
in a different process, on a later part of the archive — and the final
:class:`~repro.analysis.pipeline.StudyResults` are identical to an
uninterrupted run.

``workers=N`` fans per-day detection over a process pool when the
source is partitionable (CDS archives, MRT file lists); ``N=1`` (the
default) is the documented serial fallback that never spawns a
process, and ``N=0`` auto-detects the CPU count.  Results are
identical for every worker count — the engine's core invariant — and
for both CDS archive day-store formats (v1 and v2; the reader
auto-detects, see :mod:`repro.scenario.archive`).

A checkpoint is one version-4 file holding one study state, whose
episode records carry the verdict evidence and whose conflict origin
map drives serve's alerts: a resumed session answers and alerts as an
uninterrupted one would.  The ROA table the state was validating
against is an input, not state: the checkpoint names it by
:attr:`~repro.netbase.rpki.RoaTable.digest`, and its rows sit beside
the file as ``roas-<digest>.json`` (:func:`roa_rows_path`), written
once and read back, digest-checked, on resume unless the caller passes
the table.  Version-3 files embedded the rows and still load from
them.  Version-1/2 files and the legacy sharded directories earlier
releases wrote still load too, converted once by
:func:`_checkpoint_state` (:func:`_merge_legacy_shards` folds shard
states into one); they carry no class votes and no alert map
(:data:`LEGACY_RESUME_NOTE`).
"""

from __future__ import annotations

import json
import threading
from collections import Counter
from pathlib import Path

from repro.analysis.parallel import iter_detections, resolve_workers
from repro.analysis.pipeline import StudyPipeline, StudyResults, StudyState
from repro.api.renderers import render
from repro.api.sources import open_source
from repro.core.detector import DayDetection
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import RoaTable
from repro.util.concurrency import guarded_by
from repro.util.io import atomic_write_text

#: Checkpoint payload version; bump on incompatible layout changes.
#: Version 4 names the ROA table by digest instead of carrying its
#: rows; version 3 (:data:`EMBEDDED_ROWS_VERSION`) and versions 1 and 2
#: (:data:`LEGACY_VERSIONS`) are still readable.
CHECKPOINT_VERSION = 4

#: The last checkpoint version that embeds its ROA rows.  It loads as
#: it was written: its records carry class votes and it has an alert
#: map, so resuming it prints no legacy note.
EMBEDDED_ROWS_VERSION = 3

#: Checkpoint versions written by earlier releases that still load.
LEGACY_VERSIONS = (1, 2)

#: What resuming a :data:`LEGACY_VERSIONS` checkpoint reports: those
#: carry no class votes and no alert map.
LEGACY_RESUME_NOTE = (
    "a version-1/2 checkpoint: verdict class tags count only days fed "
    "after the resume, and the first day re-announces every ongoing "
    "conflict"
)

#: File name of the manifest inside a legacy sharded checkpoint
#: directory.
CHECKPOINT_MANIFEST = "manifest.json"

#: State fields every shard of a legacy checkpoint folded from the full
#: day stream, so all shards must hold the same value.
_DAY_LEVEL_FIELDS = (
    "daily_series",
    "recent_counts",
    "days_per_year",
    "classification",
    "case_studies",
    "as_set_excluded_max",
    "total_days",
)


def _merge_legacy_shards(states: list[dict]) -> dict:
    """Fold a legacy checkpoint's shard states into one state dict.

    Each shard of an earlier release's sharded session folded the full
    day stream but kept per-prefix data only for its slice of the
    prefix space.  So the day-level fields come from the first state,
    tracker records are concatenated in manifest order, prefix-length
    tallies are summed and RPKI states are unioned.  A single state
    with a null ``shard`` passes through unchanged.

    A checkpoint is input from outside the program, so every
    assumption is checked, each failure a :class:`ValueError` that
    names it: the shard specs share one count and scheme and cover
    each index exactly once, the shards agree on the ROA table and on
    the day stream, and no prefix appears in two shards.
    """
    specs = [state.get("shard") for state in states]
    if specs == [None]:
        return states[0]
    if None in specs:
        raise ValueError(
            "checkpoint mixes a whole-space state with shard states"
        )
    count, scheme = specs[0]["count"], specs[0].get("scheme", "hash")
    for spec in specs[1:]:
        if (spec["count"], spec.get("scheme", "hash")) != (count, scheme):
            raise ValueError(
                f"checkpoint shards use different partitionings: "
                f"{count} {scheme} shards and {spec['count']} "
                f"{spec.get('scheme', 'hash')} shards"
            )
    covered = Counter(index for spec in specs for index in spec["indices"])
    for problem, indices in (
        ("repeats", [i for i in sorted(covered) if covered[i] > 1]),
        ("is missing", [i for i in range(count) if i not in covered]),
        ("has out-of-range", [i for i in sorted(covered) if not 0 <= i < count]),
    ):
        if indices:
            raise ValueError(
                f"checkpoint {problem} shard index "
                f"{', '.join(map(str, indices))} of {count}"
            )
    first = states[0]
    for state in states[1:]:
        if _roa_rows(state) != _roa_rows(first):
            raise ValueError("checkpoint shards disagree on the ROA table")
        for name in _DAY_LEVEL_FIELDS:
            if state[name] != first[name]:
                raise ValueError(f"checkpoint shards disagree on {name}")
        if state["tracker"]["last_fed_day"] != first["tracker"][
            "last_fed_day"
        ]:
            raise ValueError(
                "checkpoint shards disagree on the last fed day"
            )
    records: list = []
    seen: set[tuple[int, int]] = set()
    length_sums: dict[str, dict[str, int]] = {}
    rpki_states: dict[str, str] = {}
    for state in states:
        for record in state["tracker"]["prefixes"]:
            key = (record[0], record[1])
            if key in seen:
                raise ValueError(
                    f"checkpoint holds prefix "
                    f"{Prefix(*key, strict=False)} in two shards"
                )
            seen.add(key)
            records.append(record)
        for year, bucket in state["length_sums"].items():
            target = length_sums.setdefault(year, {})
            for length, tally in bucket.items():
                target[length] = target.get(length, 0) + tally
        if state.get("rpki") is not None:
            rpki_states.update(state["rpki"]["states"])
    merged = {
        **first,
        "shard": None,
        "tracker": {
            "last_fed_day": first["tracker"]["last_fed_day"],
            "prefixes": records,
        },
        "length_sums": length_sums,
    }
    if first.get("rpki") is not None:
        merged["rpki"] = {"roas": first["rpki"]["roas"], "states": rpki_states}
    return merged


def _roa_rows(state: dict) -> list | None:
    """The ROA rows a state was validated against (None without)."""
    rpki = state.get("rpki")
    return rpki["roas"] if rpki is not None else None


def _legacy_state(state: dict) -> dict:
    """A version-1/2 study state in the version-3 layout: records gain
    empty votes and their ``rpki.states`` rollup, the fed days move into
    the tracker, and the alert map starts empty."""
    rpki = state.get("rpki")
    rollups = rpki["states"] if rpki is not None else {}
    prefixes = [
        [*record, [0, 0, 0], rollups.get(str(Prefix(*record[:2], strict=False)))]
        for record in state["tracker"]["prefixes"]
    ]
    series = state["daily_series"]
    return {
        "tracker": {
            "days": [day for day, _count in series],
            "roas": _roa_rows(state),
            "prefixes": prefixes,
        },
        "daily_counts": [count for _day, count in series],
        **{name: state[name] for name in _CARRIED_FIELDS},
        "conflict_origins": [],
    }


#: Fields a version-3 state keeps as earlier versions wrote them.
_CARRIED_FIELDS = (
    "length_sums",
    "classification",
    "case_studies",
    "as_set_excluded_max",
)


def _checkpoint_state(snapshot) -> tuple[int, dict, dict, RoaTable | None]:
    """``(version, pipeline config, version-4 state, embedded table)``
    of a checkpoint payload of any loadable version.

    A version-2 payload's shard states are merged first
    (:func:`_merge_legacy_shards`).  Versions 1 to 3 carry their ROA
    rows, which become the embedded table (None for a version-4 payload
    or one validated against no table).  Shape errors below the top
    level surface as ``KeyError``/``TypeError``/``AttributeError``,
    which :meth:`MoasService.resume` turns into a :class:`ValueError`.
    """
    if not isinstance(snapshot, dict):
        raise ValueError("checkpoint is not a JSON object")
    version = snapshot.get("version")
    if version not in (CHECKPOINT_VERSION, EMBEDDED_ROWS_VERSION, *LEGACY_VERSIONS):
        raise ValueError(
            f"unsupported checkpoint version {version!r}; "
            f"expected {CHECKPOINT_VERSION}"
        )
    pipeline = _typed(snapshot, "pipeline", dict)
    if version == 2:
        shards = _typed(snapshot, "shards", list)
        if not shards:
            raise ValueError("checkpoint contains no shard states")
        state = _legacy_state(_merge_legacy_shards(shards))
    else:
        state = _typed(snapshot, "state", dict)
        if version == 1:
            state = _legacy_state(_merge_legacy_shards([state]))
    if version == CHECKPOINT_VERSION:
        return version, pipeline, state, None
    return (version, pipeline, *_unembedded(state))


def _unembedded(state: dict) -> tuple[dict, RoaTable | None]:
    """A version-3 state in the version-4 layout, and the ROA table
    its embedded rows hold: the tracker names that table by digest."""
    tracker = dict(state["tracker"])
    rows = tracker.pop("roas")
    table = RoaTable.from_rows(rows) if rows is not None else None
    tracker["roa_digest"] = table.digest if table is not None else None
    return {**state, "tracker": tracker}, table


def roa_rows_path(checkpoint: Path | str, digest: str) -> Path:
    """The rows file of the ROA table of digest ``digest`` beside the
    checkpoint file ``checkpoint``: ``roas-<digest>.json``, itself a
    ``roas.json``."""
    return Path(checkpoint).with_name(f"roas-{digest}.json")


def _resume_table(
    named: str | None,
    embedded: RoaTable | None,
    given: RoaTable | None,
    source,
    checkpoint: Path | None,
) -> RoaTable | None:
    """The ROA table a checkpoint resumes with.

    ``named`` is the digest of the table the checkpoint was validating
    against (None for none) and ``embedded`` the table a version-1 to 3
    checkpoint carried.  ``given`` is the table the caller passed, read
    from ``source`` (the ``--rpki`` option): it must be the named one.
    Without it, the embedded table, or else the rows file beside the
    checkpoint file ``checkpoint`` (:func:`roa_rows_path`), whose
    digest must be the named one.  Every refusal is one
    :class:`ValueError` line.
    """
    if given is not None:
        if named is None:
            raise ValueError(
                "checkpoint was not validating against a ROA table; "
                "--rpki cannot be turned on mid-study"
            )
        if given.digest != named:
            label = (
                f"ROA table {given.digest}"
                if isinstance(source, RoaTable)
                else f"--rpki {source}"
            )
            raise ValueError(
                f"{label} differs from the ROA table the checkpoint was "
                f"validating against; a study cannot switch databases "
                f"mid-stream"
            )
        return given
    if embedded is not None or named is None:
        return embedded
    if checkpoint is None:
        raise ValueError(
            f"checkpoint was validating against ROA table {named}; "
            f"resume it with that table"
        )
    rows = roa_rows_path(checkpoint, named)
    remedy = "restore it beside the checkpoint or pass the table with --rpki"
    if not rows.is_file():
        raise ValueError(f"checkpoint ROA table {rows} is missing; {remedy}")
    try:
        table = RoaTable.load(rows)
    except ValueError as error:
        raise ValueError(f"checkpoint ROA table {error}; {remedy}") from None
    if table.digest != named:
        raise ValueError(
            f"checkpoint ROA table {rows} does not hold the table the "
            f"checkpoint names; {remedy}"
        )
    return table


def _typed(payload: dict, key: str, kind: type):
    """``payload[key]``, which must be a ``kind``."""
    value = payload[key]
    if not isinstance(value, kind):
        raise ValueError(f"checkpoint key {key!r} is not a {kind.__name__}")
    return value


def answer_keys(directory) -> tuple[list, list, list]:
    """``(registry, incident labels, organic events)`` of a CDS archive.

    The prefix registry verdicts are judged against, and the injected
    (``incidents.json``) and organic (``ground_truth.json``) answer
    keys evaluation scores them with; a missing key file reads as
    empty.
    """
    from repro.scenario.archive import read_registry
    from repro.scenario.incidents import IncidentLabel

    def rows(name: str) -> list:
        path = Path(directory) / name
        return json.loads(path.read_text()) if path.is_file() else []

    return (
        read_registry(directory),
        [IncidentLabel.from_dict(row) for row in rows("incidents.json")],
        rows("ground_truth.json"),
    )


@guarded_by("_lock", "_state")
class MoasService:
    """An incrementally-feedable, checkpointable MOAS study session.

    Usage::

        service = MoasService(workers=4)
        service.feed("path/to/archive")        # any DetectionSource
        print(service.render("summary", "ascii"))
        service.save_checkpoint("study.ckpt")  # ... later ...
        service = MoasService.load_checkpoint("study.ckpt")
        service.feed(more_days)                # continue where we left off
        results = service.results()
    """

    def __init__(
        self,
        pipeline: StudyPipeline | None = None,
        *,
        workers: int = 1,
        roa_table=None,
    ) -> None:
        self.pipeline = pipeline or StudyPipeline()
        self.workers = resolve_workers(workers)
        # Anything RoaTable.load accepts: a table, a roas.json path, or
        # an archive directory carrying one.  Fed conflicts are
        # validated per RFC 6811 and results gain the rpki/longevity
        # breakdowns.
        if roa_table is not None:
            roa_table = RoaTable.load(roa_table)
        self.roa_table = roa_table
        #: Version of the checkpoint the session resumed from (see
        #: :meth:`resume`), or None for a session started fresh.
        self.checkpoint_version: int | None = None
        self._state = self.pipeline.start(roa_table=roa_table)
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
            return self._state.total_days

    @property
    def last_day(self):
        """The most recent day fed, or None for a fresh session."""
        with self._lock:
            return self._state.last_day

    def feed_day(self, detection: DayDetection) -> list[tuple]:
        """Fold one day's detection into the session; returns the
        day's conflict-map transitions (:meth:`StudyState.feed_day`),
        which the serve daemon derives its alerts from.

        Days must arrive in strictly increasing date order (ValueError
        otherwise) — use ``feed(..., skip_seen=True)`` when re-streaming
        a source that overlaps what this session already saw.

        The fold is atomic with respect to :meth:`results`,
        :meth:`snapshot_state` and :meth:`save_checkpoint` running on
        other threads: a concurrent reader sees the session either
        before or after the whole day, never mid-fold.
        """
        with self._lock:
            return self._state.feed_day(detection)

    def conflict_origins(self) -> dict:
        """:attr:`StudyState.conflict_origins` (read only)."""
        with self._lock:
            return self._state.conflict_origins

    def feed(self, source, *, skip_seen: bool = False, **options) -> int:
        """Stream a whole source into the session; returns days fed.

        ``source`` is anything :func:`~repro.api.sources.open_source`
        accepts: a DetectionSource, an archive directory, MRT files, a
        live Network (with ``days``/``peer_asns`` options), or an
        in-memory iterable.  With ``skip_seen`` days not newer than
        :attr:`last_day` are silently skipped, making it safe to re-feed
        a source that overlaps an earlier feed or a resumed checkpoint.

        With more than one session worker, partitionable sources are
        detected on a process pool (others fall back to the serial
        path — see :mod:`repro.analysis.parallel`).
        """
        adapted = open_source(source, **options)
        fed = 0
        for detection in iter_detections(adapted, workers=self.workers):
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
        results can be read mid-study.

        The returned :class:`StudyResults` is a detached snapshot: it
        shares no mutable state with the live session (see
        :meth:`StudyState.results`), and assembly holds the session
        lock, so a service thread can keep rendering it while
        :meth:`feed_day` continues on another thread.
        """
        with self._lock:
            return self._state.results()

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
        view (e.g. ``service.verdicts(registry)``).
        """
        from repro.analysis.index import EpisodeIndex

        return EpisodeIndex.build(self.results(), verdicts=verdicts)

    def index(self, registry=None):
        """The session's own episode index (:meth:`StudyState.index`):
        its episodes with its own verdicts judged against ``registry``,
        kept and patched per fed day under the session lock.  Its
        ``days_indexed`` and ``last_day`` name the day boundary it
        answers for."""
        with self._lock:
            return self._state.index(registry)

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

    def verdicts(self, registry=None) -> dict:
        """The session's own verdicts (:meth:`StudyState.verdicts`),
        judged under the session lock: those of a batch run stopped at
        some fed-day prefix.  RPKI tags follow the session's ROA
        table."""
        with self._lock:
            return self._state.verdicts(registry)

    def verdict_rows(self, registry=None) -> tuple[int, list]:
        """``(days fed, rows)``: :meth:`StudyState.verdict_rows` under
        the session lock, with the day count they were derived at."""
        with self._lock:
            return self._state.total_days, self._state.verdict_rows(registry)

    def evaluate(self, source, **options):
        """Run the verdict engine over ``source`` and score it.

        Streams the source's daily detections (worker-parallel exactly
        like :meth:`feed`) through a
        :class:`~repro.core.verdict.VerdictEngine`'s own tracker (a
        session's verdicts over what it was fed come from
        :meth:`verdicts`, without a second pass), finalizes one
        :class:`~repro.core.verdict.Verdict` per prefix, and — when the
        source is a CDS archive carrying answer keys — scores the
        predicted kinds against ``incidents.json`` (injected labels)
        and ``ground_truth.json`` (organic causes).  Returns an
        :class:`~repro.analysis.evaluation.EvaluationReport`; its
        ``result`` renders via ``render(result, "evaluation", fmt)``.

        RFC 6811 origin validation uses the session's own ROA table,
        and failing that the archive's ``roas.json``: an archive
        generated with ``--rpki`` always evaluates with its RPKI shadow
        on.

        Evaluation is independent of the session's fed study state: it
        only borrows the session's worker count (and default ROA
        table).
        """
        from repro.analysis.evaluation import (
            EvaluationReport,
            evaluate_verdicts,
        )
        from repro.core.verdict import VerdictEngine

        adapted = open_source(source, **options)

        # Resolve the archive's answer keys (and its ROA database)
        # before streaming: the engine validates while it feeds.
        registry, injected, organic = None, [], []
        roa_table = self.roa_table
        directory = getattr(adapted, "directory", None)
        if directory is not None and (
            Path(directory) / "manifest.json"
        ).is_file():
            registry, injected, organic = answer_keys(directory)
            if roa_table is None and (Path(directory) / "roas.json").is_file():
                roa_table = RoaTable.load(directory)

        engine = VerdictEngine(roa_table=roa_table)
        for detection in iter_detections(adapted, workers=self.workers):
            engine.feed_day(detection)

        verdicts = engine.finalize(registry=registry)
        result = evaluate_verdicts(
            verdicts, injected=injected, organic=organic
        )
        return EvaluationReport(
            verdicts=verdicts, result=result, labels=tuple(injected)
        )

    # -- checkpointing -----------------------------------------------------

    def snapshot_state(self) -> dict:
        """The session as a JSON-serializable checkpoint payload.

        Taken atomically at a day boundary even while :meth:`feed_day`
        runs on another thread: the payload always equals the state
        after some prefix of the fed day stream, never a torn mid-fold
        mixture.
        """
        with self._lock:
            return {
                "version": CHECKPOINT_VERSION,
                "pipeline": self.pipeline.config_dict(),
                "state": self._state.state_dict(),
            }

    @property
    def resumed_legacy(self) -> bool:
        """True when the session resumed from a version-1/2 checkpoint
        (see :data:`LEGACY_RESUME_NOTE`)."""
        return self.checkpoint_version in LEGACY_VERSIONS

    @classmethod
    def resume(
        cls, snapshot: dict, *, workers: int = 1, roa_table=None
    ) -> "MoasService":
        """Rebuild a session from a :meth:`snapshot_state` payload.

        Accepts version-4 and version-3 payloads and the legacy
        versions 1 and 2, converted once, here
        (:func:`_checkpoint_state`); a version-2 payload holding several
        shard states is merged.  A payload of the wrong shape raises
        :class:`ValueError` naming the key.  The worker count is an
        execution-resource choice, not study state, so it is never part
        of the checkpoint — pass ``workers`` to continue in parallel.

        A version-4 payload names the ROA table it was validating
        against by digest, so a session that had one resumes only with
        ``roa_table``, that same table (anything
        :meth:`RoaTable.load` accepts); earlier versions carry their
        rows.  A different table, or one given to a session that had
        none, is refused with a :class:`ValueError`.
        """
        return cls._restore(snapshot, workers, roa_table, None)

    @classmethod
    def _restore(
        cls, snapshot, workers: int, source, checkpoint: Path | None
    ) -> "MoasService":
        """:meth:`resume`, taking a version-4 payload's ROA table from
        the rows file beside ``checkpoint`` when no ``source`` is given
        (see :func:`_resume_table`)."""
        given = RoaTable.load(source) if source is not None else None
        try:
            version, config, state, embedded = _checkpoint_state(snapshot)
            pipeline = StudyPipeline.from_config_dict(config)
            table = _resume_table(
                state["tracker"]["roa_digest"], embedded, given, source, checkpoint
            )
            restored = StudyState.from_state(
                state, pipeline=pipeline, roa_table=table
            )
        except KeyError as missing:
            raise ValueError(f"checkpoint is missing key {missing}") from None
        except (AttributeError, TypeError) as error:
            raise ValueError(f"checkpoint has a mistyped key: {error}") from None
        service = cls(pipeline, workers=workers)
        service._state = restored
        service.roa_table = restored.roa_table
        service.checkpoint_version = version
        return service

    def save_checkpoint(self, path: Path | str) -> Path:
        """Write the session checkpoint to the file ``path``.

        A session validating against a ROA table first writes the
        table's rows beside it (:func:`roa_rows_path`), unless that
        file already exists: the checkpoint names the table by digest.
        Crash-safe: each file goes down via temp-file + ``os.replace``,
        so a crash mid-write leaves the previous checkpoint intact,
        never a truncated JSON file.  Returns the checkpoint's path.
        """
        path = Path(path)
        if path.is_dir():
            raise ValueError(
                f"checkpoint path {path} is an existing directory "
                f"(a sharded checkpoint?); remove it or choose "
                f"another path"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        table = self.roa_table
        if table is not None:
            rows = roa_rows_path(path, table.digest)
            if not rows.exists():
                atomic_write_text(rows, table.to_json())
        atomic_write_text(path, json.dumps(self.snapshot_state()))
        return path

    @classmethod
    def load_checkpoint(
        cls, path: Path | str, *, workers: int = 1, roa_table=None
    ) -> "MoasService":
        """Rebuild a session from a :meth:`save_checkpoint` file.

        ``path`` may also be a legacy sharded checkpoint directory; its
        shard files are read in manifest order and merged once
        (:func:`_merge_legacy_shards`).  ``workers`` sets the resumed
        session's pool size (checkpoints never record one; see
        :meth:`resume`).

        ``roa_table`` (anything :meth:`RoaTable.load` accepts) asks
        that the study go on validating against that database: a
        checkpoint that was validating against none, or against a
        different one, is refused with a :class:`ValueError`.  Without
        it, a version-4 checkpoint's table comes from the rows file
        beside it (:func:`roa_rows_path`), and a missing or edited
        rows file is refused the same way.
        """
        path = Path(path)
        if path.is_dir():
            manifest = json.loads(
                (path / CHECKPOINT_MANIFEST).read_text()
            )
            version = (
                manifest.get("version") if isinstance(manifest, dict) else None
            )
            if version != 2:
                raise ValueError(
                    f"unsupported checkpoint version {version!r}; "
                    f"expected 2 in a sharded checkpoint directory"
                )
            try:
                snapshot = {
                    "version": version,
                    "pipeline": manifest["pipeline"],
                    "shards": [
                        json.loads((path / name).read_text())
                        for name in manifest["shard_files"]
                    ],
                }
            except KeyError as missing:
                raise ValueError(
                    f"checkpoint manifest is missing key {missing}"
                ) from None
        else:
            snapshot = json.loads(path.read_text())
        return cls._restore(snapshot, workers, roa_table, path)
