"""The sharded checkpoint writer of earlier releases, kept only to prove
legacy sharded checkpoints stay readable.

Earlier releases could split a session's study state into prefix-space
shards and checkpoint it as a directory: a ``manifest.json`` naming one
``shard-NN.gG.json`` state file per shard.  ``repro`` no longer writes
that layout; it merges one at load
(``repro.api.service._merge_legacy_shards``).  This module writes it the
way the removed writer did.  Each shard folded the full day stream for
its day-level fields but kept only its own prefixes' tracker records,
prefix-length tallies and RPKI states, under the removed ``shard_of``
partition.  It reproduces the committed ``checkpoint_v2/`` and
``checkpoint_v2_rpki/`` byte for byte, and the legacy-resume suites use
it to checkpoint any study in any layout the old writer supported.

It writes the version-2 state layout on its own — the ``shard`` key,
seven-field tracker records, the ``rpki.states`` block — and never the
live ``state_dict``, so the live layout can change without changing
what counts as a legacy checkpoint.  Only the figure-6 tallies and the
spike case studies come from the live fold, through its public
results.
"""

import dataclasses
import json
from collections import Counter, deque
from pathlib import Path

from repro.analysis.pipeline import StudyPipeline
from repro.api.service import CHECKPOINT_MANIFEST
from repro.netbase.prefix import Prefix

#: The checkpoint version the removed writer wrote.
VERSION = 2

#: The partition schemes earlier releases offered.
SCHEMES = ("hash", "range")

#: Layouts the legacy-resume suites checkpoint in: ``(count, scheme)``.
LAYOUTS = ((2, "hash"), (3, "range"), (8, "hash"))


def layout_id(layout: tuple[int, str]) -> str:
    """The pytest id of a ``(count, scheme)`` layout, e.g. ``3-range``."""
    return "%d-%s" % layout


_MIX_NETWORK = 0x9E3779B1
_MIX_LENGTH = 0x85EBCA77
_MASK32 = 0xFFFFFFFF


def shard_of(prefix: Prefix, count: int, scheme: str = "hash") -> int:
    """The shard index the removed partition gave ``prefix``.

    ``hash`` scattered prefixes by a multiplicative mix of network and
    length; ``range`` split the 32-bit address space into ``count``
    contiguous bands.
    """
    if scheme == "hash":
        key = (
            prefix.network * _MIX_NETWORK + prefix.length * _MIX_LENGTH
        ) & _MASK32
        key ^= key >> 16
        return key % count
    if scheme == "range":
        return (prefix.network * count) >> 32
    raise ValueError(f"unknown shard scheme {scheme!r}")


def shard_states(
    detections,
    count: int,
    scheme: str = "hash",
    *,
    pipeline: StudyPipeline | None = None,
    roa_table=None,
) -> list[dict]:
    """The state dicts of a ``count``-way sharded session fed ``detections``."""
    pipeline = pipeline or StudyPipeline()
    detections = list(detections)
    whole = _whole_state(pipeline, roa_table, detections)
    states = []
    for index in range(count):
        own = _prefix_fields(
            roa_table,
            [
                dataclasses.replace(
                    detection,
                    conflicts=tuple(
                        conflict
                        for conflict in detection.conflicts
                        if shard_of(conflict.prefix, count, scheme) == index
                    ),
                )
                for detection in detections
            ],
        )
        state = {
            **whole,
            "shard": {"indices": [index], "count": count, "scheme": scheme},
            "tracker": own["tracker"],
            "length_sums": own["length_sums"],
        }
        if "rpki" in whole:
            state["rpki"] = own["rpki"]
        states.append(state)
    return states


def shard_payload(detections, count, scheme="hash", **options) -> dict:
    """A version-2 single-file payload holding every shard's state."""
    pipeline = options.get("pipeline") or StudyPipeline()
    return {
        "version": VERSION,
        "pipeline": pipeline.config_dict(),
        "shards": shard_states(detections, count, scheme, **options),
    }


def v1_payload(detections, **options) -> dict:
    """A version-1 payload: one whole-space state under ``state``."""
    pipeline = options.get("pipeline") or StudyPipeline()
    return {
        "version": 1,
        "pipeline": pipeline.config_dict(),
        "state": _whole_state(
            pipeline, options.get("roa_table"), list(detections)
        ),
    }


def write_checkpoint(
    path: Path | str,
    detections,
    count: int,
    scheme: str = "hash",
    **options,
) -> Path:
    """Write a legacy sharded checkpoint directory at ``path``, as a
    first save (generation 0) of the removed writer."""
    payload = shard_payload(detections, count, scheme, **options)
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    shard_files = []
    for index, state in enumerate(payload["shards"]):
        name = f"shard-{index:02d}.g0.json"
        (path / name).write_text(json.dumps(state))
        shard_files.append(name)
    manifest = {
        "version": payload["version"],
        "pipeline": payload["pipeline"],
        "shard_count": len(shard_files),
        "shard_files": shard_files,
        "generation": 0,
    }
    (path / CHECKPOINT_MANIFEST).write_text(json.dumps(manifest))
    return path


def _prefix_fields(roa_table, detections) -> dict:
    """The tracker, prefix-length tallies and RPKI block of a version-2
    state fed ``detections``."""
    records: dict[Prefix, list] = {}
    length_sums: dict[str, dict[str, int]] = {}
    rollups: dict = {}
    for detection in detections:
        day = detection.day
        bucket = length_sums.setdefault(str(day.year), {})
        for conflict in detection.conflicts:
            prefix = conflict.prefix
            record = records.get(prefix)
            if record is None:
                records[prefix] = [
                    day, day, 1, set(conflict.origins), len(conflict.origins)
                ]
            else:
                record[1] = day
                record[2] += 1
                record[3] |= conflict.origins
                record[4] = max(record[4], len(conflict.origins))
            length = str(prefix.length)
            bucket[length] = bucket.get(length, 0) + 1
            if roa_table is not None:
                folded = roa_table.fold_episode_state(
                    rollups.get(prefix), prefix, conflict.origins, day=day
                )
                if folded is not None:
                    rollups[prefix] = folded
    fields = {
        "tracker": {
            "last_fed_day": (
                detections[-1].day.isoformat() if detections else None
            ),
            "prefixes": [
                [
                    prefix.network,
                    prefix.length,
                    first.isoformat(),
                    last.isoformat(),
                    days,
                    sorted(origins),
                    width,
                ]
                for prefix, (first, last, days, origins, width) in records.items()
            ],
        },
        "length_sums": length_sums,
    }
    if roa_table is not None:
        fields["rpki"] = {
            "roas": [roa.to_dict() for roa in roa_table],
            "states": {
                str(prefix): state.value
                for prefix, state in sorted(
                    rollups.items(), key=lambda item: item[0].sort_key()
                )
            },
        }
    return fields


def _whole_state(pipeline, roa_table, detections) -> dict:
    """The version-2 state of a whole-space session fed ``detections``."""
    state = pipeline.start()
    for detection in detections:
        state.feed_day(detection)
    results = state.results()
    own = _prefix_fields(roa_table, detections)
    counts = [len(detection.conflicts) for detection in detections]
    whole = {
        "shard": None,
        "tracker": own["tracker"],
        "daily_series": [
            [detection.day.isoformat(), count]
            for detection, count in zip(detections, counts)
        ],
        "recent_counts": list(deque(counts, maxlen=pipeline.spike_window_days)),
        "length_sums": own["length_sums"],
        "days_per_year": dict(
            Counter(str(detection.day.year) for detection in detections)
        ),
        "classification": [
            [
                day.isoformat(),
                {found.value: tally for found, tally in counts_by.items()},
            ]
            for day, counts_by in results.classification_series
        ],
        "case_studies": [
            {
                "day": case.report.day.isoformat(),
                "total_conflicts": case.report.total_conflicts,
                "baseline_median": case.report.baseline_median,
                "culprit_asn": case.report.culprit_asn,
                "culprit_involved": case.report.culprit_involved,
                "upstream_asn": case.upstream_asn,
                "sequence_involved": case.sequence_involved,
                "sequence_total": case.sequence_total,
            }
            for case in results.case_studies
        ],
        "as_set_excluded_max": max(
            (detection.as_set_excluded for detection in detections), default=0
        ),
        "total_days": len(detections),
    }
    if roa_table is not None:
        whole["rpki"] = own["rpki"]
    return whole
