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
"""

import dataclasses
import json
from pathlib import Path

from repro.analysis.pipeline import StudyPipeline
from repro.api.service import CHECKPOINT_MANIFEST, CHECKPOINT_VERSION
from repro.netbase.prefix import Prefix

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
    whole = _fold(pipeline, roa_table, detections).state_dict()
    states = []
    for index in range(count):
        own = _fold(
            pipeline,
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
        ).state_dict()
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
        "version": CHECKPOINT_VERSION,
        "pipeline": pipeline.config_dict(),
        "shards": shard_states(detections, count, scheme, **options),
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


def _fold(pipeline, roa_table, detections):
    state = pipeline.start(roa_table=roa_table)
    for detection in detections:
        state.feed_day(detection)
    return state
