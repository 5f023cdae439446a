"""Golden checkpoint-compatibility fixtures.

``tests/fixtures/`` commits one checkpoint per layout ever written, all
holding the hand-crafted detection stream of
``make_checkpoint_fixtures.py``:

- ``checkpoint_v1.json``: the version-1 single-state payload;
- ``checkpoint_v2/``: a version-2 sharded directory (two ``hash``
  shards);
- ``checkpoint_v2_rpki/``: a version-2 sharded directory validated
  against a three-row ROA table (three ``range`` shards, one empty);
- ``checkpoint_v3.json``: a version-3 payload, from the same stream
  with AS paths and the same ROA table, so its records carry class
  votes and RPKI rollups and its alert map is not empty; it embeds the
  ROA rows;
- ``checkpoint_v4.json``: the version-4 payload the program writes, of
  the same session, which names its ROA table by digest, and beside it
  ``roas-<digest>.json``, that table's rows file.

The version-1 and version-3 files and the directories are frozen
output of writers earlier releases had; the program only reads them
now, converting them to one version-4 state (merging shards) once at
load.  The version-1/2 ones carry no class votes and no alert map, and
``TestLegacyResumeReport`` pins what a resume from them reports.
Loading each must keep producing byte-for-byte the same study results,
pinned here as digests, and the fixture files are pinned by sha256, so
checkpoint compatibility can never silently break: a load failure means
old checkpoints stopped parsing, a digest mismatch means they parse
into different science.

``legacy_checkpoint_writer.py`` models the removed writer.  It must
reproduce both directories byte for byte; the suite then writes the
fixture stream in every layout the writer supported, and each must load
to the pinned digests.

A checkpoint is input from outside the program, so the legacy merge
also validates it.  The ``TestLegacyShardValidation`` cases break a
copy of a golden one way each and expect a ``ValueError`` naming the
problem, and a one-line ``repro analyze --resume`` error;
``TestRowsFileRefusals`` does the same for a version-4 checkpoint whose
rows file is missing or edited.
"""

import dataclasses
import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.api.renderers import render
from repro.api.serve import ServeApp
from repro.api.service import (
    CHECKPOINT_VERSION,
    LEGACY_RESUME_NOTE,
    MoasService,
    roa_rows_path,
)
from repro.core.detector import DailyConflict
from repro.netbase.rpki import RoaTable
from tests.fixtures import legacy_checkpoint_writer as legacy
from tests.fixtures.make_checkpoint_fixtures import (
    RPKI_ROAS,
    detections,
    detections_with_paths,
    next_day,
    path_session,
)

FIXTURES = Path(__file__).parent.parent / "fixtures"

#: sha256 over the canonical renderings of the fixture study.  Only an
#: intentional, documented checkpoint/statistics format change may
#: update this constant (regenerate via make_checkpoint_fixtures.py).
GOLDEN_DIGEST = (
    "2fbe93545869ec6c0171c878fe4efce26128e087c2221373eb979193ea0d0267"
)

#: The same digest with the RPKI figures, for ``checkpoint_v2_rpki/``;
#: a serial RPKI run over the fixture stream renders the same bytes.
RPKI_DIGEST = (
    "d805a853be8e43bb94dd8afaf38506971abd1d1ce56f1779c93492716dcbe102"
)

#: :data:`RPKI_FIGURES` over ``checkpoint_v3.json`` and
#: ``checkpoint_v4.json``: the paths change no figure (figure 6's window
#: lies after the stream), so the digest is the path-free stream's.
V3_DIGEST = RPKI_DIGEST

#: sha256 over the verdicts of ``checkpoint_v3.json`` and
#: ``checkpoint_v4.json`` (:func:`verdicts_digest`).
V3_VERDICTS_DIGEST = (
    "f6fcd376f9082413feeb36e4a3d75a8221ab30fec4253ef28981b76db47bce5c"
)

#: The alerts :func:`next_day` raises after resuming
#: ``checkpoint_v3.json`` or ``checkpoint_v4.json``.
V3_NEXT_DAY_ALERTS = [
    {
        "timestamp": 884044800,
        "day": "1998-01-06",
        "prefix": prefix,
        "kind": kind,
        "origins": origins,
        "previous_origins": previous,
        "changed_origin": changed,
    }
    for prefix, kind, origins, previous, changed in (
        ("10.0.0.0/8", "moas_origin_added", [7, 9, 11], [7, 9], 11),
        ("10.0.0.0/8", "moas_origin_removed", [7, 11], [7, 9, 11], 9),
        ("172.16.0.0/12", "moas_started", [30, 31], [30], 31),
        ("192.0.2.0/24", "moas_ended", [22], [20, 22], 20),
    )
]

#: The rows file ``checkpoint_v4.json`` names: the digest of the
#: :data:`RPKI_ROAS` table.
ROWS_FILE = (
    "roas-890dafe85b4620428aeb0992127914bdb13f23ada5f2ea653439f6479f83a2cf.json"
)

#: sha256 of every committed checkpoint golden file.
FIXTURE_SHA256 = {
    "checkpoint_v1.json": (
        "ba1841d8107a9ddc60e864e9c017ede716ed000b5e152247e8551535e39a9dfb"
    ),
    "checkpoint_v2/manifest.json": (
        "f87cdcbca8f1624f9b40ed85d4d9f70a27fe081abd80aa547c974ec7fd9230e3"
    ),
    "checkpoint_v2/shard-00.g0.json": (
        "4296c010bf20094c422f77b7fce519b91644bd5c63371be354b3907296c28b78"
    ),
    "checkpoint_v2/shard-01.g0.json": (
        "a0adb59478e3f8e0d0bd14615e9c0502be83bc7fd69ef06e63f1e82d2ab888a3"
    ),
    "checkpoint_v2_rpki/manifest.json": (
        "b292a77e592e7d03436e1da8ad58001da0b3816a185d7d1c0755ec1502fb802b"
    ),
    "checkpoint_v2_rpki/shard-00.g0.json": (
        "08d41bb0c5da3ddd0ece3974e2b5279b79faea589ce7b8e343ac87e00141fbc2"
    ),
    "checkpoint_v2_rpki/shard-01.g0.json": (
        "e535637daaec2822ee5dbc7450522bf399ad0c4edbdf4551fa29c219652dfe6c"
    ),
    "checkpoint_v2_rpki/shard-02.g0.json": (
        "0242234d63cc24c65d9675d7bed67a2db04f36c8fdd562f73a86497adeb16000"
    ),
    "checkpoint_v3.json": (
        "434f7fbad3aad1fb045651b2af08049f544d44f78c16c260f4e9c9bb425ad27c"
    ),
    "checkpoint_v4.json": (
        "a3785ed9f3b162c3af8f254f28b204002945bb864ca799bf1c71f1f0ba1af1aa"
    ),
    ROWS_FILE: (
        "3bb127be784225e7cedb5c3b534704b4cb728e935b65a615320a5a78a8898c50"
    ),
}

#: The figures every fixture digest renders.
FIGURES = (
    ("summary", "json"),
    ("episodes", "csv"),
    ("figure1", "csv"),
    ("figure3", "csv"),
    ("figure4", "csv"),
    ("figure5", "csv"),
)

#: What :data:`RPKI_DIGEST` renders on top of :data:`FIGURES`.
RPKI_FIGURES = FIGURES + (("rpki", "csv"), ("longevity", "csv"))


def results_digest(results, figures=FIGURES) -> str:
    """A stable digest over every figure the fixture study renders."""
    blob = "\n".join(render(results, figure, fmt) for figure, fmt in figures)
    return hashlib.sha256(blob.encode()).hexdigest()


def verdicts_digest(verdicts: dict) -> str:
    """A stable digest over a session's verdicts, in prefix order."""
    rows = [
        verdicts[prefix].to_dict()
        for prefix in sorted(verdicts, key=lambda prefix: prefix.sort_key())
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def next_day_alerts(service: MoasService) -> list[dict]:
    """The alerts :func:`next_day` raises in a serve app over ``service``."""
    app = ServeApp(service)
    return [alert.to_dict() for alert in app.fold_detection(next_day())]


def test_fixture_files_are_pinned():
    committed = {
        str(path.relative_to(FIXTURES))
        for pattern in ("checkpoint_v*.json", "checkpoint_v2*/*", "roas-*.json")
        for path in FIXTURES.glob(pattern)
    }
    assert committed == set(FIXTURE_SHA256)
    for name, digest in FIXTURE_SHA256.items():
        content = (FIXTURES / name).read_bytes()
        assert hashlib.sha256(content).hexdigest() == digest, name


@pytest.mark.parametrize(
    "fixture", ["checkpoint_v1.json", "checkpoint_v2"]
)
def test_fixture_checkpoints_load_to_pinned_results(fixture):
    service = MoasService.load_checkpoint(FIXTURES / fixture)
    assert service.days_fed == 5
    assert results_digest(service.results()) == GOLDEN_DIGEST


def test_rpki_fixture_loads_to_pinned_results():
    service = MoasService.load_checkpoint(FIXTURES / "checkpoint_v2_rpki")
    results = service.results()
    assert service.days_fed == 5
    assert results_digest(results) == GOLDEN_DIGEST
    assert results_digest(results, RPKI_FIGURES) == RPKI_DIGEST
    assert sorted(results.rpki_episode_states.values()) == [
        "invalid",
        "not_found",
        "valid",
    ]
    serial = MoasService(roa_table=service.roa_table)
    serial.feed(detections())
    assert results_digest(serial.results(), RPKI_FIGURES) == RPKI_DIGEST


@pytest.mark.parametrize(
    "fixture,count,scheme,roas",
    [
        ("checkpoint_v2", 2, "hash", None),
        ("checkpoint_v2_rpki", 3, "range", RPKI_ROAS),
    ],
    ids=["checkpoint_v2", "checkpoint_v2_rpki"],
)
def test_legacy_writer_reproduces_the_frozen_directory(
    fixture, count, scheme, roas, tmp_path
):
    written = legacy.write_checkpoint(
        tmp_path / fixture,
        detections(),
        count,
        scheme,
        roa_table=RoaTable.from_rows(roas) if roas else None,
    )
    frozen = FIXTURES / fixture
    names = sorted(path.name for path in frozen.iterdir())
    assert sorted(path.name for path in written.iterdir()) == names
    for name in names:
        assert (written / name).read_bytes() == (frozen / name).read_bytes()


@pytest.mark.parametrize("scheme", legacy.SCHEMES)
@pytest.mark.parametrize("count", [2, 3, 5, 8])
def test_every_legacy_layout_loads_to_the_pinned_digests(
    count, scheme, tmp_path
):
    """Any count, either scheme, empty shards included: one answer."""
    path = legacy.write_checkpoint(
        tmp_path / "legacy",
        detections(),
        count,
        scheme,
        roa_table=RoaTable.from_rows(RPKI_ROAS),
    )
    results = MoasService.load_checkpoint(path).results()
    assert results_digest(results) == GOLDEN_DIGEST
    assert results_digest(results, RPKI_FIGURES) == RPKI_DIGEST


@pytest.mark.parametrize(
    "fixture,figures,digest",
    [
        ("checkpoint_v2", FIGURES, GOLDEN_DIGEST),
        ("checkpoint_v2_rpki", RPKI_FIGURES, RPKI_DIGEST),
    ],
    ids=["checkpoint_v2", "checkpoint_v2_rpki"],
)
def test_legacy_payload_file_loads_like_its_directory(
    fixture, figures, digest, tmp_path
):
    """A version-2 file holding every shard state merges the same way."""
    manifest = json.loads((FIXTURES / fixture / "manifest.json").read_text())
    path = tmp_path / "legacy.ckpt"
    path.write_text(
        json.dumps(
            {
                "version": manifest["version"],
                "pipeline": manifest["pipeline"],
                "shards": [
                    json.loads((FIXTURES / fixture / name).read_text())
                    for name in manifest["shard_files"]
                ],
            }
        )
    )
    service = MoasService.load_checkpoint(path)
    assert service.days_fed == 5
    assert results_digest(service.results(), figures) == digest


@pytest.mark.parametrize(
    "fixture,figures,digest",
    [
        ("checkpoint_v2", FIGURES, GOLDEN_DIGEST),
        ("checkpoint_v2_rpki", RPKI_FIGURES, RPKI_DIGEST),
    ],
    ids=["checkpoint_v2", "checkpoint_v2_rpki"],
)
def test_manifest_order_does_not_change_the_results(
    fixture, figures, digest, tmp_path
):
    path = legacy_copy(tmp_path, fixture)
    edit_json(
        path / "manifest.json",
        lambda manifest: manifest["shard_files"].reverse(),
    )
    results = MoasService.load_checkpoint(path).results()
    assert results_digest(results, figures) == digest


def test_fixture_layouts_differ_but_agree():
    legacy = MoasService.load_checkpoint(FIXTURES / "checkpoint_v1.json")
    sharded = MoasService.load_checkpoint(FIXTURES / "checkpoint_v2")
    assert legacy.results() == sharded.results()


def test_merged_directory_state_equals_the_v1_state():
    """The load-time merge rebuilds exactly the serial state."""
    merged = MoasService.load_checkpoint(FIXTURES / "checkpoint_v2")
    v1 = MoasService.load_checkpoint(FIXTURES / "checkpoint_v1.json")
    assert json.dumps(merged.snapshot_state()["state"]) == json.dumps(
        v1.snapshot_state()["state"]
    )


@pytest.mark.parametrize(
    "fixture,figures,digest",
    [
        ("checkpoint_v2", FIGURES, GOLDEN_DIGEST),
        ("checkpoint_v2_rpki", RPKI_FIGURES, RPKI_DIGEST),
    ],
    ids=["checkpoint_v2", "checkpoint_v2_rpki"],
)
def test_legacy_directory_migrates_to_a_file(
    fixture, figures, digest, tmp_path
):
    service = MoasService.load_checkpoint(FIXTURES / fixture)
    path = service.save_checkpoint(tmp_path / "study.ckpt")
    assert path.is_file()
    payload = json.loads(path.read_text())
    assert set(payload) == {"version", "pipeline", "state"}
    assert payload["version"] == CHECKPOINT_VERSION
    assert "shard" not in payload["state"]
    reloaded = MoasService.load_checkpoint(path)
    assert results_digest(reloaded.results(), figures) == digest


def test_fixture_checkpoints_remain_feedable():
    """A loaded golden checkpoint is a live session, not a museum piece."""
    import datetime

    from repro.core.detector import DayDetection

    service = MoasService.load_checkpoint(FIXTURES / "checkpoint_v2")
    service.feed_day(
        DayDetection(
            day=datetime.date(1998, 1, 6),
            conflicts=(),
            prefixes_scanned=40,
            as_set_excluded=0,
        )
    )
    assert service.days_fed == 6
    assert results_digest(service.results()) != GOLDEN_DIGEST


def test_a_shard_state_alone_is_not_restorable():
    """A shard's state passed off as a version-1 whole-space state."""
    v1 = json.loads((FIXTURES / "checkpoint_v1.json").read_text())
    state = json.loads(
        (FIXTURES / "checkpoint_v2" / "shard-00.g0.json").read_text()
    )
    with pytest.raises(ValueError, match="missing shard index 1 of 2"):
        MoasService.resume({**v1, "state": state})


def legacy_copy(tmp_path, fixture="checkpoint_v2") -> Path:
    """A writable copy of one legacy checkpoint directory."""
    return Path(shutil.copytree(FIXTURES / fixture, tmp_path / fixture))


def edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


#: One edit per day-level field (``daily_series`` has its own test)
#: that makes a shard disagree with the first shard's day stream.
DAY_LEVEL_EDITS = {
    "recent_counts": lambda state: state["recent_counts"].pop(),
    "days_per_year": lambda state: state["days_per_year"].update(
        {"1998": 6}
    ),
    "classification": lambda state: state["classification"].append(
        ["1998-01-05", {}]
    ),
    "case_studies": lambda state: state["case_studies"].append(
        {
            "day": "1998-01-05",
            "total_conflicts": 2,
            "baseline_median": 1,
            "culprit_asn": 7,
            "culprit_involved": 1,
            "upstream_asn": None,
            "sequence_involved": 0,
            "sequence_total": 0,
        }
    ),
    "as_set_excluded_max": lambda state: state.update(as_set_excluded_max=2),
    "total_days": lambda state: state.update(total_days=4),
}


class TestLegacyShardValidation:
    def assert_rejected(self, path, match, capsys):
        with pytest.raises(ValueError, match=match):
            MoasService.load_checkpoint(path)
        code = main(
            [
                "analyze",
                str(path.parent / "archive"),
                str(path.parent / "out"),
                "--resume",
                str(path),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro analyze: ")

    def test_trimmed_manifest(self, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        edit_json(
            path / "manifest.json",
            lambda manifest: manifest.update(
                shard_files=["shard-00.g0.json"]
            ),
        )
        self.assert_rejected(path, "missing shard index 1 of 2", capsys)

    def test_duplicated_file_entry(self, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        edit_json(
            path / "manifest.json",
            lambda manifest: manifest.update(
                shard_files=["shard-00.g0.json", "shard-00.g0.json"]
            ),
        )
        self.assert_rejected(path, "repeats shard index 0 of 2", capsys)

    def test_lone_shard_payload(self, tmp_path, capsys):
        manifest = json.loads(
            (FIXTURES / "checkpoint_v2" / "manifest.json").read_text()
        )
        state = json.loads(
            (FIXTURES / "checkpoint_v2" / "shard-01.g0.json").read_text()
        )
        path = tmp_path / "lone.ckpt"
        path.write_text(
            json.dumps(
                {
                    "version": 2,
                    "pipeline": manifest["pipeline"],
                    "shards": [state],
                }
            )
        )
        self.assert_rejected(path, "missing shard index 0 of 2", capsys)

    def test_mismatched_daily_series(self, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        edit_json(
            path / "shard-01.g0.json",
            lambda state: state["daily_series"][2].__setitem__(1, 9),
        )
        self.assert_rejected(path, "disagree on daily_series", capsys)

    @pytest.mark.parametrize("field", list(DAY_LEVEL_EDITS))
    def test_mismatched_day_level_field(self, field, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        edit_json(path / "shard-01.g0.json", DAY_LEVEL_EDITS[field])
        self.assert_rejected(path, f"disagree on {field}", capsys)

    def test_mismatched_last_fed_day(self, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        edit_json(
            path / "shard-00.g0.json",
            lambda state: state["tracker"].update(last_fed_day="1998-01-04"),
        )
        self.assert_rejected(path, "disagree on the last fed day", capsys)

    def test_roa_table_on_only_some_shards(self, tmp_path, capsys):
        path = legacy_copy(tmp_path, "checkpoint_v2_rpki")
        edit_json(path / "shard-01.g0.json", lambda state: state.pop("rpki"))
        self.assert_rejected(path, "disagree on the ROA table", capsys)

    def test_unsupported_manifest_version(self, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        edit_json(
            path / "manifest.json", lambda manifest: manifest.update(version=3)
        )
        self.assert_rejected(path, "unsupported checkpoint version 3", capsys)

    def test_manifest_names_a_missing_file(self, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        (path / "shard-01.g0.json").unlink()
        with pytest.raises(FileNotFoundError):
            MoasService.load_checkpoint(path)
        code = main(
            [
                "analyze",
                str(tmp_path / "archive"),
                str(tmp_path / "out"),
                "--resume",
                str(path),
            ]
        )
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("repro analyze: ")
        assert "shard-01.g0.json" in err[0]

    def test_mismatched_roa_table(self, tmp_path, capsys):
        path = legacy_copy(tmp_path, "checkpoint_v2_rpki")
        edit_json(
            path / "shard-02.g0.json",
            lambda state: state["rpki"]["roas"].pop(),
        )
        self.assert_rejected(path, "disagree on the ROA table", capsys)

    def test_prefix_in_two_shards(self, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        first = json.loads((path / "shard-00.g0.json").read_text())
        edit_json(
            path / "shard-01.g0.json",
            lambda state: state["tracker"]["prefixes"].append(
                first["tracker"]["prefixes"][0]
            ),
        )
        self.assert_rejected(
            path, "prefix 10.0.0.0/8 in two shards", capsys
        )

    def test_out_of_range_index(self, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        edit_json(
            path / "shard-01.g0.json",
            lambda state: state["shard"].update(indices=[1, 2]),
        )
        self.assert_rejected(
            path, "out-of-range shard index 2 of 2", capsys
        )

    def test_whole_space_state_among_shards(self, tmp_path, capsys):
        v1 = json.loads((FIXTURES / "checkpoint_v1.json").read_text())
        state = json.loads(
            (FIXTURES / "checkpoint_v2" / "shard-01.g0.json").read_text()
        )
        path = tmp_path / "mixed.ckpt"
        path.write_text(
            json.dumps(
                {
                    "version": 2,
                    "pipeline": v1["pipeline"],
                    "shards": [v1["state"], state],
                }
            )
        )
        self.assert_rejected(path, "mixes a whole-space state", capsys)

    @pytest.mark.parametrize(
        "spec",
        [
            {"indices": [1], "count": 3, "scheme": "hash"},
            {"indices": [1], "count": 2, "scheme": "range"},
        ],
        ids=["count", "scheme"],
    )
    def test_mismatched_count_or_scheme(self, spec, tmp_path, capsys):
        path = legacy_copy(tmp_path)
        edit_json(
            path / "shard-01.g0.json",
            lambda state: state.update(shard=spec),
        )
        self.assert_rejected(path, "different partitionings", capsys)


class TestV3Golden:
    """The frozen version-3 golden, which embeds its ROA rows."""

    PATH = FIXTURES / "checkpoint_v3.json"

    def test_loads_to_pinned_results_and_verdicts(self):
        service = MoasService.load_checkpoint(self.PATH)
        assert service.checkpoint_version == 3
        assert not service.resumed_legacy
        assert service.days_fed == 5
        assert results_digest(service.results(), RPKI_FIGURES) == V3_DIGEST
        assert verdicts_digest(service.verdicts()) == V3_VERDICTS_DIGEST

    def test_resume_prints_no_legacy_note(self, tmp_path, capsys):
        code = main(
            [
                "analyze",
                str(tmp_path / "archive"),
                str(tmp_path / "out"),
                "--resume",
                str(self.PATH),
            ]
        )
        assert code == 1  # no archive to continue on
        err = capsys.readouterr().err
        assert LEGACY_RESUME_NOTE not in err
        assert len(err.splitlines()) == 1

    def test_resume_answers_like_the_live_session(self):
        live = path_session()
        loaded = MoasService.load_checkpoint(self.PATH)
        assert loaded.snapshot_state() == live.snapshot_state()
        assert loaded.verdicts() == live.verdicts()
        assert next_day_alerts(loaded) == V3_NEXT_DAY_ALERTS
        assert next_day_alerts(live) == V3_NEXT_DAY_ALERTS

    def test_state_carries_votes_rollups_and_the_alert_map(self):
        payload = json.loads(self.PATH.read_text())
        assert set(payload) == {"version", "pipeline", "state"}
        state = payload["state"]
        records = state["tracker"]["prefixes"]
        # Every conflict-day carried paths, so every one voted.
        assert [sum(record[7]) for record in records] == [
            record[4] for record in records
        ]
        assert sorted(record[8] for record in records) == [
            "invalid",
            "not_found",
            "valid",
        ]
        assert state["conflict_origins"] == [
            [167772160, 8, [7, 9]],
            [3221225984, 24, [20, 22]],
        ]
        assert RoaTable.from_rows(state["tracker"]["roas"]) == (
            RoaTable.from_rows(RPKI_ROAS)
        )

    def test_straight_run_over_the_stream_matches(self):
        straight = MoasService(roa_table=RoaTable.from_rows(RPKI_ROAS))
        for detection in detections_with_paths():
            straight.feed_day(detection)
        loaded = MoasService.load_checkpoint(self.PATH)
        assert verdicts_digest(straight.verdicts()) == V3_VERDICTS_DIGEST
        assert loaded.results() == straight.results()


class TestV4Golden:
    """The version-4 golden: what the live writer checkpoints, the ROA
    table named by digest and its rows in the file beside it."""

    PATH = FIXTURES / "checkpoint_v4.json"

    def test_loads_to_pinned_results_verdicts_and_alerts(self):
        service = MoasService.load_checkpoint(self.PATH)
        assert service.checkpoint_version == CHECKPOINT_VERSION == 4
        assert not service.resumed_legacy
        assert service.days_fed == 5
        assert service.roa_table == RoaTable.from_rows(RPKI_ROAS)
        assert results_digest(service.results(), RPKI_FIGURES) == V3_DIGEST
        assert verdicts_digest(service.verdicts()) == V3_VERDICTS_DIGEST
        assert next_day_alerts(service) == V3_NEXT_DAY_ALERTS

    def test_names_its_table_and_embeds_no_rows(self):
        payload = json.loads(self.PATH.read_text())
        tracker = payload["state"]["tracker"]
        assert "roas" not in tracker
        digest = RoaTable.from_rows(RPKI_ROAS).digest
        assert tracker["roa_digest"] == digest
        assert roa_rows_path(self.PATH, digest) == FIXTURES / ROWS_FILE
        # The rows file is itself a roas.json.
        assert RoaTable.load(FIXTURES / ROWS_FILE) == RoaTable.from_rows(
            RPKI_ROAS
        )

    def test_equals_the_v3_golden_and_the_live_session(self):
        v4 = MoasService.load_checkpoint(self.PATH)
        v3 = MoasService.load_checkpoint(TestV3Golden.PATH)
        live = path_session()
        assert v4.snapshot_state() == v3.snapshot_state() == live.snapshot_state()
        assert v4.verdicts() == live.verdicts()

    def test_resume_with_the_table_needs_no_rows_file(self, tmp_path):
        checkpoint = tmp_path / "study.ckpt"
        shutil.copyfile(self.PATH, checkpoint)
        table = RoaTable.from_rows(RPKI_ROAS)
        resumed = MoasService.load_checkpoint(checkpoint, roa_table=table)
        assert resumed.roa_table is table
        assert next_day_alerts(resumed) == V3_NEXT_DAY_ALERTS

    def test_save_writes_the_rows_file_once(self, tmp_path, monkeypatch):
        service = MoasService.load_checkpoint(self.PATH)
        checkpoint = service.save_checkpoint(tmp_path / "study.ckpt")
        assert checkpoint.read_bytes() == self.PATH.read_bytes()
        rows = tmp_path / ROWS_FILE
        assert rows.read_bytes() == (FIXTURES / ROWS_FILE).read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            ROWS_FILE,
            "study.ckpt",
        ]
        # A later save leaves the existing rows file alone.
        rows.write_text("kept")
        monkeypatch.setattr(
            RoaTable,
            "to_json",
            lambda self: pytest.fail("the rows file was written again"),
        )
        service.save_checkpoint(checkpoint)
        assert rows.read_text() == "kept"


#: ``(fixture, figures, digest)`` of each legacy golden.
LEGACY_GOLDENS = [
    ("checkpoint_v1.json", FIGURES, GOLDEN_DIGEST),
    ("checkpoint_v2", FIGURES, GOLDEN_DIGEST),
    ("checkpoint_v2_rpki", RPKI_FIGURES, RPKI_DIGEST),
]


@pytest.mark.parametrize(
    "fixture,figures,digest",
    LEGACY_GOLDENS,
    ids=[fixture for fixture, _figures, _digest in LEGACY_GOLDENS],
)
class TestLegacyResumeReport:
    """What a session resumed from a version-1/2 golden reports.

    Those checkpoints recorded no class votes and no alert map: the
    figures are exact, verdict class tags count only the days fed after
    the resume, and the first day re-announces every ongoing conflict.
    """

    def test_results_digests_are_unchanged(self, fixture, figures, digest):
        service = MoasService.load_checkpoint(FIXTURES / fixture)
        assert service.resumed_legacy
        assert results_digest(service.results(), figures) == digest

    def test_class_tags_cover_only_post_resume_days(
        self, fixture, figures, digest
    ):
        service = MoasService.load_checkpoint(FIXTURES / fixture)
        prefix = detections()[0].conflicts[0].prefix
        records = service.snapshot_state()["state"]["tracker"]["prefixes"]
        assert [record[7] for record in records] == [[0, 0, 0]] * 3
        assert "distinct-paths" not in service.verdicts()[prefix].tags
        # One post-resume day whose paths share a transit hop.
        service.feed_day(
            dataclasses.replace(
                next_day(),
                conflicts=(
                    DailyConflict(
                        prefix=prefix,
                        origins=frozenset((7, 11)),
                        paths_by_origin=((7, ((6, 7),)), (11, ((6, 11),))),
                    ),
                ),
            )
        )
        verdict = service.verdicts()[prefix]
        assert verdict.days_observed == 6
        assert "split-view" in verdict.tags
        records = service.snapshot_state()["state"]["tracker"]["prefixes"]
        assert records[0][:2] == [prefix.network, prefix.length]
        assert records[0][7] == [0, 1, 0]

    def test_first_post_resume_day_announces_every_ongoing_conflict(
        self, fixture, figures, digest
    ):
        service = MoasService.load_checkpoint(FIXTURES / fixture)
        alerts = next_day_alerts(service)
        assert [(alert["prefix"], alert["kind"]) for alert in alerts] == [
            (str(conflict.prefix), "moas_started")
            for conflict in next_day().conflicts
        ]


def malformed_payloads() -> dict:
    """Checkpoint payloads of the wrong shape, by test id."""
    v3 = json.loads((FIXTURES / "checkpoint_v3.json").read_text())
    v4 = json.loads((FIXTURES / "checkpoint_v4.json").read_text())
    tracker = {
        key: value
        for key, value in v4["state"]["tracker"].items()
        if key != "roa_digest"
    }
    return {
        "no-pipeline": {"version": 2},
        "not-an-object": [],
        "empty-shard-state": {"version": 2, "pipeline": {}, "shards": [{}]},
        "v3-without-state": {"version": 3, "pipeline": v3["pipeline"]},
        "mistyped-state": {**v3, "state": []},
        "mistyped-tracker": {**v3, "state": {**v3["state"], "tracker": 7}},
        "v4-without-digest": {
            **v4, "state": {**v4["state"], "tracker": tracker}
        },
        "v4-mistyped-tracker": {**v4, "state": {**v4["state"], "tracker": []}},
    }


class TestMalformedCheckpoints:
    """A checkpoint of the wrong shape is one clean error line."""

    @pytest.mark.parametrize("name", sorted(malformed_payloads()))
    def test_load_raises_a_value_error(self, name, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps(malformed_payloads()[name]))
        with pytest.raises(ValueError, match="checkpoint"):
            MoasService.load_checkpoint(path)

    @pytest.mark.parametrize("command", ["analyze", "serve"])
    @pytest.mark.parametrize("name", sorted(malformed_payloads()))
    def test_cli_prints_one_line(self, name, command, tmp_path, capsys):
        path = tmp_path / "bad.ckpt"
        path.write_text(json.dumps(malformed_payloads()[name]))
        archive = str(tmp_path / "archive")
        argv = (
            ["analyze", archive, str(tmp_path / "out"), "--resume", str(path)]
            if command == "analyze"
            else ["serve", archive, "--port", "0", "--checkpoint", str(path)]
        )
        assert main(argv) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro {command}: ")
        assert "checkpoint" in err[0]
        assert "Traceback" not in captured.err + captured.out


class TestServeRpkiResume:
    """``repro serve --rpki`` holds a resumed checkpoint to its table,
    exactly as ``repro analyze --resume --rpki`` does."""

    def roas(self, tmp_path, rows) -> str:
        path = tmp_path / "roas.json"
        path.write_text(RoaTable.from_rows(rows).to_json())
        return str(path)

    @pytest.mark.parametrize(
        "fixture,rows,message",
        [
            (
                "checkpoint_v1.json",
                RPKI_ROAS,
                "checkpoint was not validating against a ROA table; "
                "--rpki cannot be turned on mid-study",
            ),
            (
                "checkpoint_v3.json",
                RPKI_ROAS[:2],
                "differs from the ROA table the checkpoint was "
                "validating against; a study cannot switch databases "
                "mid-stream",
            ),
            (
                "checkpoint_v4.json",
                RPKI_ROAS[:2],
                "differs from the ROA table the checkpoint was "
                "validating against; a study cannot switch databases "
                "mid-stream",
            ),
        ],
        ids=["table-less", "different-table", "v4-different-table"],
    )
    def test_serve_and_analyze_refuse_alike(
        self, fixture, rows, message, tmp_path, capsys
    ):
        checkpoint = tmp_path / "study.ckpt"
        shutil.copyfile(FIXTURES / fixture, checkpoint)
        roas = self.roas(tmp_path, rows)
        archive = str(tmp_path / "archive")
        lines = {}
        for command, argv in (
            ("serve", ["serve", archive, "--port", "0"]),
            ("analyze", ["analyze", archive, str(tmp_path / "out")]),
        ):
            flag = "--checkpoint" if command == "serve" else "--resume"
            assert main([*argv, flag, str(checkpoint), "--rpki", roas]) == 1
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and message in err[0]
            lines[command] = err[0].removeprefix(f"repro {command}: ")
        assert lines["serve"] == lines["analyze"]

    @pytest.mark.parametrize(
        "fixture", ["checkpoint_v3.json", "checkpoint_v4.json"]
    )
    def test_an_equal_table_resumes(self, fixture, tmp_path):
        from repro.api.serve import ServeConfig, ServeDaemon

        checkpoint = tmp_path / "study.ckpt"
        shutil.copyfile(FIXTURES / fixture, checkpoint)
        daemon = ServeDaemon(
            ServeConfig(
                archive=tmp_path / "archive",
                port=0,
                checkpoint=checkpoint,
                rpki=self.roas(tmp_path, RPKI_ROAS),
            )
        )
        assert daemon.resumed
        assert daemon.app.service.roa_table == RoaTable.from_rows(RPKI_ROAS)
        status = json.loads(daemon.app.handle("GET", "/v1/status").body)
        assert status["rpki"] is True
        assert status["days_fed"] == 5


class TestRowsFileRefusals:
    """A version-4 checkpoint resumed without ``--rpki`` reads its ROA
    table from the rows file beside it, digest-checked: a missing or
    edited rows file is one line naming the file and ``--rpki``, from
    ``repro analyze`` and ``repro serve`` alike."""

    def copy(self, tmp_path) -> Path:
        checkpoint = tmp_path / "study.ckpt"
        shutil.copyfile(FIXTURES / "checkpoint_v4.json", checkpoint)
        shutil.copyfile(FIXTURES / ROWS_FILE, tmp_path / ROWS_FILE)
        return checkpoint

    def assert_refused(self, checkpoint, capsys):
        rows = checkpoint.parent / ROWS_FILE
        with pytest.raises(ValueError, match="--rpki"):
            MoasService.load_checkpoint(checkpoint)
        archive = str(checkpoint.parent / "archive")
        lines = {}
        for command, argv in (
            ("serve", ["serve", archive, "--port", "0", "--checkpoint"]),
            ("analyze", ["analyze", archive, str(checkpoint.parent / "out"), "--resume"]),
        ):
            assert main([*argv, str(checkpoint)]) == 1
            captured = capsys.readouterr()
            err = captured.err.splitlines()
            assert len(err) == 1
            assert str(rows) in err[0] and "--rpki" in err[0]
            assert "Traceback" not in captured.err + captured.out
            lines[command] = err[0].removeprefix(f"repro {command}: ")
        assert lines["serve"] == lines["analyze"]

    def test_copied_with_its_rows_file_resumes(self, tmp_path):
        service = MoasService.load_checkpoint(self.copy(tmp_path))
        assert results_digest(service.results(), RPKI_FIGURES) == V3_DIGEST

    def test_missing_rows_file(self, tmp_path, capsys):
        checkpoint = self.copy(tmp_path)
        (tmp_path / ROWS_FILE).unlink()
        self.assert_refused(checkpoint, capsys)

    @pytest.mark.parametrize(
        "rows",
        [RPKI_ROAS[:2], [*RPKI_ROAS, {**RPKI_ROAS[0], "origin": 8}], []],
        ids=["row-dropped", "row-added", "emptied"],
    )
    def test_edited_rows_file(self, rows, tmp_path, capsys):
        checkpoint = self.copy(tmp_path)
        (tmp_path / ROWS_FILE).write_text(RoaTable.from_rows(rows).to_json())
        self.assert_refused(checkpoint, capsys)

    @pytest.mark.parametrize(
        "text", ["", "[", '{"roas": []}', '[{"prefix": 10}]'],
        ids=["empty", "truncated", "not-an-array", "malformed-row"],
    )
    def test_corrupt_rows_file(self, text, tmp_path, capsys):
        checkpoint = self.copy(tmp_path)
        (tmp_path / ROWS_FILE).write_text(text)
        self.assert_refused(checkpoint, capsys)

    def test_resume_of_a_payload_needs_its_table(self):
        payload = json.loads((FIXTURES / "checkpoint_v4.json").read_text())
        table = RoaTable.from_rows(RPKI_ROAS)
        with pytest.raises(ValueError, match=table.digest):
            MoasService.resume(payload)
        with pytest.raises(ValueError, match="differs from the ROA table"):
            MoasService.resume(payload, roa_table=RoaTable.from_rows(RPKI_ROAS[:2]))
        resumed = MoasService.resume(payload, roa_table=table)
        assert resumed.roa_table is table
        assert verdicts_digest(resumed.verdicts()) == V3_VERDICTS_DIGEST
