"""Regenerate the committed single-file checkpoint golden fixture.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/make_checkpoint_fixtures.py

Writes ``checkpoint_v1.json`` (a version-1, single-state payload) from
a small hand-crafted detection stream, then prints the results digest
that ``tests/api/test_checkpoint_golden.py`` pins.

The sharded checkpoint directories beside it, ``checkpoint_v2/`` and
``checkpoint_v2_rpki/``, are frozen output of the sharded checkpoint
writer that earlier releases had: the program can no longer write
them, only read them.  Both hold the stream below; the RPKI one
carries a three-row ROA table and three ``range`` shards, one of them
empty.  Never regenerate or edit them.

Only regenerate ``checkpoint_v1.json`` for an *intentional*,
documented checkpoint format change — and when you do, keep the old
fixtures loading too (that is the compatibility promise the golden
test enforces).
"""

import datetime
import json
from pathlib import Path

from repro.api.service import MoasService
from repro.core.detector import DailyConflict, DayDetection
from repro.netbase.prefix import Prefix

FIXTURES = Path(__file__).parent

START = datetime.date(1998, 1, 1)

#: day index -> {prefix: origins}; a tiny study with one long-lived
#: conflict, one flapper, and one one-day event.
_DAYS = {
    0: {"10.0.0.0/8": (7, 9)},
    1: {"10.0.0.0/8": (7, 9), "192.0.2.0/24": (20, 21)},
    2: {"10.0.0.0/8": (7, 9, 11)},
    3: {"10.0.0.0/8": (7, 9), "172.16.0.0/12": (30, 31)},
    4: {"10.0.0.0/8": (7, 9), "192.0.2.0/24": (20, 22)},
}


def detections() -> list[DayDetection]:
    stream = []
    for index in sorted(_DAYS):
        conflicts = tuple(
            DailyConflict(
                prefix=Prefix.parse(text), origins=frozenset(origins)
            )
            for text, origins in sorted(_DAYS[index].items())
        )
        stream.append(
            DayDetection(
                day=START + datetime.timedelta(days=index),
                conflicts=conflicts,
                prefixes_scanned=40,
                as_set_excluded=1,
            )
        )
    return stream


def main() -> None:
    stream = detections()

    single = MoasService()
    single.feed(stream)
    snapshot = single.snapshot_state()
    v1 = {
        "version": 1,
        "pipeline": snapshot["pipeline"],
        "state": snapshot["shards"][0],
    }
    (FIXTURES / "checkpoint_v1.json").write_text(
        json.dumps(v1, indent=2) + "\n"
    )

    from test_checkpoint_golden import results_digest  # noqa: E402

    print("digest:", results_digest(single.results()))


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(FIXTURES.parent / "api"))
    main()
