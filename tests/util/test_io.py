"""Tests for crash-safe file writing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.util.io import atomic_write_text


class TestAtomicWriteText:
    def test_creates_and_overwrites(self, tmp_path):
        target = tmp_path / "data.json"
        atomic_write_text(target, "first")
        assert target.read_text() == "first"
        atomic_write_text(target, "second")
        assert target.read_text() == "second"

    def test_no_temp_files_left_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "data.json", "payload")
        assert [path.name for path in tmp_path.iterdir()] == ["data.json"]

    def test_failed_replace_preserves_original(self, tmp_path, monkeypatch):
        target = tmp_path / "data.json"
        atomic_write_text(target, "intact")

        def exploding_replace(src, dst):
            raise OSError("simulated crash")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(OSError, match="simulated crash"):
            atomic_write_text(target, "torn")
        assert target.read_text() == "intact"

    def test_failed_replace_cleans_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "data.json"
        monkeypatch.setattr(
            os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError())
        )
        with pytest.raises(OSError):
            atomic_write_text(target, "torn")
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_never_touches_target(
        self, tmp_path, monkeypatch
    ):
        """A crash mid-write leaves the destination byte-identical."""
        target = tmp_path / "data.json"
        atomic_write_text(target, "x" * 4096)

        def exploding_fsync(fd):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write_text(target, "y" * 10)
        assert target.read_text() == "x" * 4096


_MODE_PROBE = """
import os, stat, sys
from pathlib import Path
from repro.util.io import atomic_write_bytes, atomic_write_text

os.umask(int(sys.argv[1], 8))
directory = Path(sys.argv[2])
modes = []
for name, write, payload in (
    ("data.txt", atomic_write_text, "text"),
    ("data.bin", atomic_write_bytes, b"bytes"),
):
    target = directory / name
    write(target, payload)
    modes.append(stat.S_IMODE(target.stat().st_mode))
    os.chmod(target, 0o600)  # what the mkstemp-based writer left
    write(target, payload)
    modes.append(stat.S_IMODE(target.stat().st_mode))
print(" ".join(oct(mode) for mode in modes))
"""


class TestFileMode:
    """The written file's mode follows the umask, like ``open(path,
    "w")``: new and overwritten files, text and bytes.  Each case runs
    in a subprocess because the umask is process-wide."""

    @pytest.mark.parametrize(
        "umask,expected", (("022", "0o644"), ("077", "0o600"))
    )
    def test_mode_follows_the_umask(self, tmp_path, umask, expected):
        source = str(Path(repro.__file__).parent.parent)
        result = subprocess.run(
            [sys.executable, "-c", _MODE_PROBE, umask, str(tmp_path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": source},
            timeout=60,
            check=True,
        )
        assert result.stdout.split() == [expected] * 4
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "data.bin",
            "data.txt",
        ]
        assert (tmp_path / "data.txt").read_text() == "text"
        assert (tmp_path / "data.bin").read_bytes() == b"bytes"
