"""Deterministic, named random-number streams.

Every stochastic component of the simulation draws from its own named
stream derived from a single root seed.  This keeps runs reproducible and
— more importantly — makes components *independent*: adding draws to the
topology generator does not perturb the fault-event schedule.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def derive_seed(root_seed: int, *names: str) -> int:
    """Derive a child seed from ``root_seed`` and a path of stream names.

    Uses SHA-256 so the mapping is stable across Python versions and
    machines (unlike ``hash()``).
    """
    digest = hashlib.sha256()
    digest.update(str(int(root_seed)).encode("ascii"))
    for name in names:
        digest.update(b"/")
        digest.update(name.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class RngStreams:
    """A factory of independent named RNG streams under one root seed.

    >>> streams = RngStreams(42)
    >>> streams.python("events").random() == RngStreams(42).python("events").random()
    True
    """

    def __init__(self, root_seed: int) -> None:
        self.root_seed = int(root_seed)
        self._python_cache: dict[tuple[str, ...], random.Random] = {}
        self._numpy_cache: dict[tuple[str, ...], np.random.Generator] = {}

    def python(self, *names: str) -> random.Random:
        """A cached :class:`random.Random` for the named stream."""
        key = tuple(names)
        if key not in self._python_cache:
            self._python_cache[key] = random.Random(
                derive_seed(self.root_seed, *names)
            )
        return self._python_cache[key]

    def numpy(self, *names: str) -> np.random.Generator:
        """A cached :class:`numpy.random.Generator` for the named stream.

        numpy is imported here, on first use, so that processes which
        only read a study (``query``, ``analyze``, ``serve``) never
        load it; the simulator's Poisson draws are its one user.
        """
        import numpy as np

        key = tuple(names)
        if key not in self._numpy_cache:
            self._numpy_cache[key] = np.random.default_rng(
                derive_seed(self.root_seed, *names)
            )
        return self._numpy_cache[key]

    def child(self, *names: str) -> "RngStreams":
        """A new stream factory rooted under a namespaced child seed."""
        return RngStreams(derive_seed(self.root_seed, *names))
