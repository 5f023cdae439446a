"""The benchmark's inputs: the simulated archive, query prefixes, request mix.

The archive is a v2 store simulated at scale 0.08 with the canned
incident script and the RPKI shadow.  0.08 is the largest scale that
generates: 0.09 and up, the CLI default 0.125 included, raise
``PoolExhaustedError`` until the address-pool allocator is fixed.  The
world seed is fixed (``--world-seed`` overrides it) because some seeds
raise it even at 0.08 (world seed 1 does; 2 to 6 do not), and because a
world that changed with every run would change the archive's size with
it.  The run's ``--seed`` draws the query prefixes and orders the
request mix.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from pathlib import Path

SCALE = 0.08
WORLD_SEED = 20011108

#: Share of looked-up prefixes that have no MOAS episode.
ABSENT_SHARE = 0.2
#: Prefixes looked up per workload.
PREFIXES = 40

#: Requests in one block of the serve mix; the mix repeats whole blocks.
MIX_BLOCK = (
    ("history", 10),
    ("episodes", 3),
    ("figure1", 2),
    ("summary", 1),
    ("verdicts", 2),
    ("status", 2),
)
MIN_SUSPICION = 0.6


def generate(directory: Path, world_seed: int) -> None:
    """Simulate the benchmark archive into ``directory`` (child process)."""
    from repro.scenario.incidents import IncidentScript
    from repro.scenario.rpki import RpkiConfig
    from repro.scenario.world import ScenarioConfig, simulate_study
    from repro.util.dates import PAPER_CALENDAR

    config = ScenarioConfig(
        scale=SCALE,
        seed=world_seed,
        archive_format="v2",
        incidents=IncidentScript.canned(num_days=PAPER_CALENDAR.num_days),
        rpki=RpkiConfig(),
    )
    simulate_study(directory, config)


def generate_archive(
    entry: Path, work: Path, world_seed: int, repeats: int
) -> tuple[Path, list[float]]:
    """Generate the archive ``repeats`` times, each in a fresh process.

    The generator runs in a child so that its memory never counts
    toward the measured process.  Returns the last archive and every
    generation's wall time.
    """
    times = []
    archive = None
    for attempt in range(repeats):
        archive = work / f"archive-{attempt}"
        started = time.perf_counter()
        subprocess.run(
            [
                sys.executable,
                str(entry),
                "--generate",
                str(archive),
                "--world-seed",
                str(world_seed),
            ],
            check=True,
        )
        times.append(time.perf_counter() - started)
    return archive, times


def build_reference(
    entry: Path, workload: str, archive: Path, seed: int, directory: Path
) -> float:
    """Build ``workload``'s expected outputs into ``directory`` in a child.

    Like the generator, the reference runs in its own process, so the
    process measured never holds it.  Returns the child's wall time.
    """
    directory.mkdir()
    started = time.perf_counter()
    subprocess.run(
        [
            sys.executable,
            str(entry),
            "--reference",
            str(archive),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--out",
            str(directory),
        ],
        check=True,
    )
    return time.perf_counter() - started


def choose_prefixes(index, rng: random.Random, count: int = PREFIXES) -> list:
    """``(prefix, present)`` pairs: indexed prefixes plus absent ones."""
    from repro.netbase.prefix import Prefix

    absent = round(count * ABSENT_SHARE)
    indexed = list(index.prefixes())
    chosen = [(prefix, True) for prefix in rng.sample(indexed, count - absent)]
    while len(chosen) < count:
        network = rng.getrandbits(24) << 8
        prefix = Prefix(network, 24)
        if index.lookup(prefix) is None and (prefix, False) not in chosen:
            chosen.append((prefix, False))
    rng.shuffle(chosen)
    return chosen


def target_of(kind: str, prefix) -> str:
    """The request target of one mix entry."""
    if kind == "history":
        return f"/v1/history/{prefix}"
    if kind == "episodes":
        return f"/v1/episodes/{prefix}"
    if kind == "figure1":
        return "/v1/figure/figure1?format=csv"
    if kind == "summary":
        return "/v1/figure/summary?format=json"
    if kind == "verdicts":
        return f"/v1/verdicts?min_suspicion={MIN_SUSPICION}"
    return "/v1/status"


def request_mix(prefixes, rng: random.Random, blocks: int) -> list[tuple]:
    """``blocks`` shuffled copies of :data:`MIX_BLOCK`.

    Each entry is ``(target, present)``; ``present`` is None for
    targets that do not name a prefix.  Whole blocks keep the mix's
    shares the same in every stretch of the run.
    """
    mix = []
    for _block in range(blocks):
        kinds = [kind for kind, share in MIX_BLOCK for _ in range(share)]
        rng.shuffle(kinds)
        for kind in kinds:
            if kind in ("history", "episodes"):
                prefix, present = rng.choice(prefixes)
                mix.append((target_of(kind, prefix), present))
            else:
                mix.append((target_of(kind, None), None))
    return mix
