"""``repro analyze --index`` takes its verdicts from the session.

The index's verdict columns come from the session's own episode records
(``MoasService.verdicts``), not from re-streaming the archive through
``evaluate()``.  So the archive is read once, a run resumed from a
version-3 checkpoint written mid-study writes the straight run's index
byte for byte, and the verdicts' RPKI tags follow ``--rpki``: without
it the index carries no RPKI signal at all, even for an archive that
ships a ``roas.json`` (which ``repro evaluate`` still picks up).
"""

from __future__ import annotations

import datetime

import pytest

from repro.analysis.index import EpisodeIndex
from repro.api.cli import main
from repro.api.service import MoasService
from repro.api.sources import open_source
from repro.scenario.incidents import IncidentScript
from repro.scenario.rpki import RpkiConfig
from repro.scenario.world import ScenarioConfig, simulate_study
from repro.util.dates import StudyCalendar

CALENDAR = StudyCalendar(
    datetime.date(1997, 11, 8), datetime.date(1997, 12, 7)
)  # 30 days

RPKI_TAGS = {"rpki-valid", "rpki-invalid", "rpki-not-found"}


@pytest.fixture(scope="module")
def archive(tmp_path_factory):
    """A 30-day archive with a ``roas.json`` and the canned incidents."""
    directory = tmp_path_factory.mktemp("analyze-index") / "archive"
    simulate_study(
        directory,
        ScenarioConfig(
            scale=0.02,
            calendar=CALENDAR,
            paper_archive_gaps=False,
            incidents=IncidentScript.canned(CALENDAR.num_days),
            rpki=RpkiConfig(coverage=0.5, misissue_fraction=0.2),
        ),
    )
    return directory


def analyze(archive, out, index, *options) -> bytes:
    """The index ``repro analyze --index`` writes, as bytes."""
    assert (
        main(["analyze", str(archive), str(out), "--index", str(index), *options])
        == 0
    )
    return index.read_bytes()


def records(index_path) -> list:
    index = EpisodeIndex.load(index_path)
    return [index.lookup(prefix) for prefix in index.prefixes()]


@pytest.mark.parametrize("rpki", [True, False], ids=["rpki", "no-rpki"])
def test_resume_from_a_mid_study_checkpoint_writes_the_same_index(
    archive, tmp_path, capsys, rpki
):
    options = ["--rpki", str(archive)] if rpki else []
    straight = analyze(archive, tmp_path / "a", tmp_path / "a.idx", *options)
    detections = list(open_source(archive).detections())
    half = MoasService(roa_table=archive if rpki else None)
    half.feed(detections[: len(detections) // 2])
    checkpoint = half.save_checkpoint(tmp_path / "half.ckpt")
    resumed = analyze(
        archive,
        tmp_path / "b",
        tmp_path / "b.idx",
        "--resume",
        str(checkpoint),
        *options,
    )
    assert resumed == straight
    assert capsys.readouterr().err == ""
    for name in ("report.txt", "episodes.csv", "figure6.csv"):
        assert (tmp_path / "b" / name).read_bytes() == (
            tmp_path / "a" / name
        ).read_bytes()


def test_index_verdicts_equal_evaluate_with_the_same_table(archive, tmp_path):
    """The batch-index reference: a session fed the archive, indexed
    with ``evaluate()``'s verdicts under the session's table."""
    written = analyze(
        archive, tmp_path / "out", tmp_path / "a.idx", "--rpki", str(archive)
    )
    service = MoasService(roa_table=archive)
    service.feed(archive)
    reference = service.build_index(
        tmp_path / "ref.idx", verdicts=service.evaluate(archive).verdicts
    )
    assert written == reference.read_bytes()
    assert any(
        RPKI_TAGS & set(record.verdict_tags)
        for record in records(tmp_path / "a.idx")
    )


def test_verdict_rpki_tags_follow_the_rpki_option(archive, tmp_path):
    """Without ``--rpki`` the index has no RPKI signal, although the
    archive ships a ``roas.json`` that ``evaluate()`` picks up."""
    analyze(archive, tmp_path / "out", tmp_path / "a.idx")
    indexed = records(tmp_path / "a.idx")
    assert indexed and any(record.verdict_kind for record in indexed)
    assert all(record.rpki_state is None for record in indexed)
    assert not any(RPKI_TAGS & set(record.verdict_tags) for record in indexed)
    evaluated = MoasService().evaluate(archive).verdicts
    assert any(verdict.rpki_state is not None for verdict in evaluated.values())
