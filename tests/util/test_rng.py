"""Tests for deterministic named RNG streams."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.util.rng import RngStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(7, "a", "b") == derive_seed(7, "a", "b")

    def test_name_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_root_sensitivity(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_path_structure_matters(self):
        # ("ab",) and ("a", "b") must not collide.
        assert derive_seed(1, "ab") != derive_seed(1, "a", "b")


class TestRngStreams:
    def test_python_streams_reproducible(self):
        first = RngStreams(42).python("events").random()
        second = RngStreams(42).python("events").random()
        assert first == second

    def test_numpy_streams_reproducible(self):
        first = RngStreams(42).numpy("topology").integers(0, 1 << 30)
        second = RngStreams(42).numpy("topology").integers(0, 1 << 30)
        assert first == second

    def test_streams_independent_of_creation_order(self):
        streams_ab = RngStreams(42)
        value_a_first = streams_ab.python("a").random()
        streams_ab.python("b").random()

        streams_ba = RngStreams(42)
        streams_ba.python("b").random()
        value_a_second = streams_ba.python("a").random()
        assert value_a_first == value_a_second

    def test_stream_caching_returns_same_object(self):
        streams = RngStreams(1)
        assert streams.python("x") is streams.python("x")
        assert streams.numpy("x") is streams.numpy("x")

    def test_child_streams_are_namespaced(self):
        parent = RngStreams(42)
        child = parent.child("scenario")
        assert child.root_seed != parent.root_seed
        # Child streams are reproducible too.
        assert (
            RngStreams(42).child("scenario").python("x").random()
            == child.python("x").random()
        )

    def test_different_streams_give_different_values(self):
        streams = RngStreams(42)
        values = {streams.python(name).random() for name in "abcdef"}
        assert len(values) == 6


class TestStreamIndependence:
    """Draw-count isolation: the property the determinism rule exists
    to protect.  Consuming one stream must never perturb another."""

    def test_extra_python_draws_do_not_shift_sibling_streams(self):
        control = RngStreams(42)
        baseline = [control.python("events").random() for _ in range(5)]

        noisy = RngStreams(42)
        for _ in range(1000):  # a component grew new draws
            noisy.python("topology").random()
        assert [
            noisy.python("events").random() for _ in range(5)
        ] == baseline

    def test_extra_numpy_draws_do_not_shift_sibling_streams(self):
        control = RngStreams(7)
        baseline = control.numpy("faults").integers(0, 1 << 30, size=8)

        noisy = RngStreams(7)
        noisy.numpy("growth").random(size=4096)
        assert list(
            noisy.numpy("faults").integers(0, 1 << 30, size=8)
        ) == list(baseline)

    def test_python_and_numpy_streams_of_one_name_are_independent(self):
        control = RngStreams(7)
        baseline = [control.python("mix").random() for _ in range(5)]

        noisy = RngStreams(7)
        noisy.numpy("mix").random(size=1024)
        assert [
            noisy.python("mix").random() for _ in range(5)
        ] == baseline

    def test_child_factories_do_not_share_state_with_parent(self):
        parent = RngStreams(42)
        parent_child = parent.child("sub")
        baseline = [parent_child.python("x").random() for _ in range(3)]

        perturbed = RngStreams(42)
        for _ in range(100):
            perturbed.python("x").random()  # parent-level stream
        child = perturbed.child("sub")
        assert [child.python("x").random() for _ in range(3)] == baseline

    def test_sibling_children_are_independent(self):
        first = RngStreams(42)
        baseline = first.child("a").python("x").random()

        second = RngStreams(42)
        second.child("b").python("x").random()  # consume a sibling
        assert second.child("a").python("x").random() == baseline


class TestNumpyImport:
    def test_reading_a_study_does_not_load_numpy(self):
        """Only ``RngStreams.numpy`` imports numpy (the simulator)."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
        probe = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, repro.api.cli, repro.api.serve, "
                "repro.analysis.index; print('numpy' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert probe.stdout.strip() == "False"
