"""Regenerate the committed EIX2 episode-index golden fixture.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/make_episode_index_fixture.py

Builds one index from a small hand-crafted detection stream (with an
ROA table and the verdict engine's view) and writes it to
``episode_index/golden_eix2.idx`` through :meth:`EpisodeIndex.save`,
the EIX2 format ``repro`` writes today.  ``episode_index/golden.idx``
is a real file in the first format, EIX1, which ``repro`` no longer
reads; it stays committed as written so the refusal tests load it, and
this script leaves it alone.

It prints the file's digest and the per-query answer digests that
``tests/analysis/test_index_golden.py`` pins.  Only regenerate for an
*intentional*, documented index format change — bumping
``repro.analysis.index._VERSION`` — and keep old index files loading
(or failing with a clear :class:`ArchiveError`) when you do.
"""

import datetime
import hashlib
import json
from pathlib import Path

from repro.analysis.index import EpisodeIndex
from repro.analysis.pipeline import StudyPipeline
from repro.core.detector import DailyConflict, DayDetection
from repro.core.verdict import VerdictEngine
from repro.netbase.prefix import Prefix
from repro.netbase.rpki import Roa, RoaTable

FIXTURES = Path(__file__).parent

START = datetime.date(1998, 1, 1)

#: day index -> {prefix: origins}; one long-lived conflict, one
#: flapper, one one-day event — same shape as the checkpoint fixture.
_DAYS = {
    0: {"10.0.0.0/8": (7, 9)},
    1: {"10.0.0.0/8": (7, 9), "192.0.2.0/24": (20, 21)},
    2: {"10.0.0.0/8": (7, 9, 11)},
    3: {"10.0.0.0/8": (7, 9), "172.16.0.0/12": (30, 31)},
    4: {"10.0.0.0/8": (7, 9), "192.0.2.0/24": (20, 22)},
}

#: A tiny ROA table: 10/8 authorized for AS 7, 192.0.2/24 for AS 99
#: (so its observed origins are invalid), 172.16/12 left unknown.
_ROAS = (
    Roa(Prefix.parse("10.0.0.0/8"), 8, 7),
    Roa(Prefix.parse("192.0.2.0/24"), 24, 99),
)


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


def build() -> EpisodeIndex:
    table = RoaTable(_ROAS)
    state = StudyPipeline().start(roa_table=table)
    engine = VerdictEngine(roa_table=table)
    for detection in detections():
        state.feed_day(detection)
        engine.feed_day(detection)
    return EpisodeIndex.build(
        state.results(), verdicts=engine.finalize()
    )


def answer_digest(index: EpisodeIndex, prefix_text: str, **kw) -> str:
    answer = index.query(Prefix.parse(prefix_text), **kw)
    blob = json.dumps(answer.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def main() -> None:
    index = build()
    path = index.save(FIXTURES / "episode_index" / "golden_eix2.idx")
    raw = path.read_bytes()
    print(f"wrote {path} ({len(raw)} bytes)")
    print("file sha256:", hashlib.sha256(raw).hexdigest())
    loaded = EpisodeIndex.load(path)
    print("q(10.0.0.0/8):", answer_digest(loaded, "10.0.0.0/8"))
    print(
        "q(192.0.2.0/24 @1998-01-02):",
        answer_digest(loaded, "192.0.2.0/24", day=datetime.date(1998, 1, 2)),
    )
    print(
        "q(172.16.0.0/12 1998-01-01:1998-01-03):",
        answer_digest(
            loaded,
            "172.16.0.0/12",
            window=(datetime.date(1998, 1, 1), datetime.date(1998, 1, 3)),
        ),
    )


if __name__ == "__main__":
    main()
