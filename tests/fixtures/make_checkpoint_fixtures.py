"""Regenerate the committed version-4 checkpoint golden fixture.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/make_checkpoint_fixtures.py

Writes ``checkpoint_v4.json`` with the live checkpoint writer
(``MoasService.save_checkpoint``) from :func:`detections_with_paths`,
validated against :data:`RPKI_ROAS`, and beside it the table's rows
file ``roas-<digest>.json`` the checkpoint names, then prints the
digests and the next day's alerts that
``tests/api/test_checkpoint_golden.py`` pins.  Its conflicts carry AS
paths, so the episode records hold class votes, and its last day
leaves a non-empty alert map.

Every other checkpoint golden beside it is frozen: ``checkpoint_v3.json``
(the same session as a version-3 payload, which embedded the ROA rows),
``checkpoint_v1.json`` (a version-1 single-state payload) and the
sharded directories ``checkpoint_v2/`` and ``checkpoint_v2_rpki/`` are
output of writers earlier releases had.  The program can no longer
write them, only read them.  The version-1 and version-2 goldens hold
the path-free stream of :func:`detections`; the RPKI directory carries
the three-row ROA table and three ``range`` shards, one of them empty.
Never regenerate or edit them.

Only regenerate ``checkpoint_v4.json`` for an *intentional*, documented
checkpoint format change — and when you do, keep the old fixtures
loading too (that is the compatibility promise the golden test
enforces).
"""

import datetime
from pathlib import Path

from repro.api.service import MoasService
from repro.core.detector import DailyConflict, DayDetection
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import RoaTable

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

#: The ROA table ``checkpoint_v2_rpki/``, ``checkpoint_v3.json`` and
#: ``checkpoint_v4.json`` validate against.
RPKI_ROAS = (
    {"prefix": "10.0.0.0/8", "max_length": 8, "origin": 7},
    {"prefix": "172.16.0.0/12", "max_length": 12, "origin": 30},
    {"prefix": "172.16.0.0/12", "max_length": 12, "origin": 31},
)

#: prefix -> the transit hops in front of each origin: disjoint paths
#: (DistinctPaths) for 10/8, a shared hop (SplitView) for 192.0.2/24,
#: and origin 31 transiting for 30 (OrigTranAS) on 172.16/12.
_TRANSIT = {
    "10.0.0.0/8": {7: (1, 2), 9: (3,), 11: (4, 5)},
    "192.0.2.0/24": {20: (6,), 21: (6,), 22: (6, 8)},
    "172.16.0.0/12": {30: (6, 31), 31: (6,)},
}


def _stream(with_paths: bool) -> list[DayDetection]:
    stream = []
    for index in sorted(_DAYS):
        conflicts = tuple(
            DailyConflict(
                prefix=Prefix.parse(text),
                origins=frozenset(origins),
                paths_by_origin=(
                    tuple(
                        (origin, ((*_TRANSIT[text][origin], origin),))
                        for origin in sorted(origins)
                    )
                    if with_paths
                    else ()
                ),
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


def detections() -> list[DayDetection]:
    """The path-free stream every frozen golden holds."""
    return _stream(with_paths=False)


def detections_with_paths() -> list[DayDetection]:
    """The same stream with one AS path per origin (``checkpoint_v3``
    and ``checkpoint_v4``)."""
    return _stream(with_paths=True)


def next_day() -> DayDetection:
    """The day after the stream, whose alerts the v3 and v4 goldens
    pin."""
    return DayDetection(
        day=START + datetime.timedelta(days=5),
        conflicts=(
            DailyConflict(
                prefix=Prefix.parse("10.0.0.0/8"),
                origins=frozenset((7, 11)),
            ),
            DailyConflict(
                prefix=Prefix.parse("172.16.0.0/12"),
                origins=frozenset((30, 31)),
            ),
        ),
        prefixes_scanned=40,
        as_set_excluded=0,
    )


def path_session() -> MoasService:
    """The session ``checkpoint_v3.json`` and ``checkpoint_v4.json``
    checkpoint."""
    service = MoasService(roa_table=RoaTable.from_rows(RPKI_ROAS))
    service.feed(detections_with_paths())
    return service


def main() -> None:
    service = path_session()
    service.save_checkpoint(FIXTURES / "checkpoint_v4.json")

    from test_checkpoint_golden import (  # noqa: E402
        RPKI_FIGURES,
        next_day_alerts,
        results_digest,
        verdicts_digest,
    )

    print("results digest:", results_digest(service.results(), RPKI_FIGURES))
    print("verdicts digest:", verdicts_digest(service.verdicts()))
    print("next day's alerts:", next_day_alerts(service))


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(FIXTURES.parent / "api"))
    sys.path.insert(0, str(FIXTURES.parent.parent))
    main()
