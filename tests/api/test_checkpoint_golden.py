"""Golden checkpoint-compatibility fixtures.

``tests/fixtures/`` commits one checkpoint per layout ever written, all
holding the hand-crafted detection stream of
``make_checkpoint_fixtures.py``:

- ``checkpoint_v1.json``: the version-1 single-state payload;
- ``checkpoint_v2/``: a version-2 sharded directory (two ``hash``
  shards);
- ``checkpoint_v2_rpki/``: a version-2 sharded directory validated
  against a three-row ROA table (three ``range`` shards, one empty).

The directories are frozen output of the sharded writer earlier
releases had; the program only reads them now, merging their shards
once at load.  Loading each must keep producing byte-for-byte the same
study results, pinned here as digests, and the fixture files are
pinned by sha256, so checkpoint compatibility can never silently
break: a load failure means old checkpoints stopped parsing, a digest
mismatch means they parse into different science.

``legacy_checkpoint_writer.py`` models the removed writer.  It must
reproduce both directories byte for byte; the suite then writes the
fixture stream in every layout the writer supported, and each must load
to the pinned digests.

A checkpoint is input from outside the program, so the legacy merge
also validates it.  The ``TestLegacyShardValidation`` cases break a
copy of a golden one way each and expect a ``ValueError`` naming the
problem, and a one-line ``repro analyze --resume`` error.
"""

import hashlib
import json
import shutil
from pathlib import Path

import pytest

from repro.analysis.pipeline import StudyState
from repro.api.cli import main
from repro.api.renderers import render
from repro.api.service import MoasService
from repro.netbase.rpki import RoaTable
from tests.fixtures import legacy_checkpoint_writer as legacy
from tests.fixtures.make_checkpoint_fixtures import detections

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
}

#: The ROA table ``checkpoint_v2_rpki/`` validates against.
RPKI_ROAS = (
    {"prefix": "10.0.0.0/8", "max_length": 8, "origin": 7},
    {"prefix": "172.16.0.0/12", "max_length": 12, "origin": 30},
    {"prefix": "172.16.0.0/12", "max_length": 12, "origin": 31},
)

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


def test_fixture_files_are_pinned():
    committed = {
        str(path.relative_to(FIXTURES))
        for pattern in ("checkpoint_v1.json", "checkpoint_v2*/*")
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
    v1 = json.loads((FIXTURES / "checkpoint_v1.json").read_text())
    assert json.dumps(merged.snapshot_state()["shards"][0]) == json.dumps(
        v1["state"]
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
    assert len(payload["shards"]) == 1
    assert payload["shards"][0]["shard"] is None
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
    state = json.loads(
        (FIXTURES / "checkpoint_v2" / "shard-00.g0.json").read_text()
    )
    with pytest.raises(ValueError, match="prefix shard"):
        StudyState.from_state(state)


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
