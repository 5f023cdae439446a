"""The Section V conflict taxonomy: OrigTranAS / SplitView / DistinctPaths.

Given two AS paths for the same prefix ending in different origins:

- **OrigTranAS** — the origin of one path appears as a *transit* hop in
  the other: a single AS announces itself both as origin and as transit
  for the prefix.
- **SplitView** — the paths share some transit AS but neither origin
  transits in the other: the shared AS offers different routes (ending
  at different origins) to different neighbors.
- **DistinctPaths** — the paths share no AS at all: two completely
  disjoint routes to the same prefix (the dominant class in the paper).

A conflict with more than two visible paths is classified by examining
one representative path per origin and taking the most structurally
specific relationship found (OrigTranAS ≻ SplitView ≻ DistinctPaths).
"""

from __future__ import annotations

import enum
import weakref
from collections import Counter
from collections.abc import Sequence

from repro.core.detector import DailyConflict


class ConflictClass(enum.Enum):
    """The paper's three conflict classes."""

    ORIG_TRAN_AS = "OrigTranAS"
    SPLIT_VIEW = "SplitView"
    DISTINCT_PATHS = "DistinctPaths"


#: Specificity order used to aggregate pairwise results.
_PRECEDENCE = (
    ConflictClass.ORIG_TRAN_AS,
    ConflictClass.SPLIT_VIEW,
    ConflictClass.DISTINCT_PATHS,
)


def classify_pair(
    path_a: Sequence[int], path_b: Sequence[int]
) -> ConflictClass:
    """Classify one pair of AS paths with different origins.

    Raises :class:`ValueError` when the paths share their origin —
    that pair is not a MOAS conflict and classifying it would hide a
    caller bug.
    """
    if not path_a or not path_b:
        raise ValueError("cannot classify an empty AS path")
    origin_a = path_a[-1]
    origin_b = path_b[-1]
    if origin_a == origin_b:
        raise ValueError(
            f"paths share origin AS {origin_a}; not a MOAS pair"
        )
    if origin_a in path_b[:-1] or origin_b in path_a[:-1]:
        return ConflictClass.ORIG_TRAN_AS
    if set(path_a[:-1]) & set(path_b[:-1]):
        return ConflictClass.SPLIT_VIEW
    return ConflictClass.DISTINCT_PATHS


def representative_path(
    paths: Sequence[Sequence[int]],
) -> tuple[int, ...]:
    """The representative among one origin's observed paths.

    The most frequently observed path wins; ties break to the shortest,
    then lexicographically smallest, so classification is deterministic
    across runs.
    """
    if not paths:
        raise ValueError("no paths to choose a representative from")
    counts = Counter(tuple(path) for path in paths)
    return min(
        counts,
        key=lambda path: (-counts[path], len(path), path),
    )


def classify_conflict(conflict: DailyConflict) -> ConflictClass:
    """Classify a multi-origin prefix observation.

    One representative path per origin is chosen, every origin pair is
    classified, and the most specific class found is returned.
    Conflicts without path information cannot be classified and raise
    :class:`ValueError`.
    """
    representatives = [
        representative_path(paths)
        for _origin, paths in conflict.paths_by_origin
        if paths
    ]
    if len(representatives) < 2:
        raise ValueError(
            f"conflict on {conflict.prefix} lacks paths for two origins"
        )
    found: set[ConflictClass] = set()
    for index, path_a in enumerate(representatives):
        for path_b in representatives[index + 1 :]:
            if path_a[-1] == path_b[-1]:
                continue
            found.add(classify_pair(path_a, path_b))
    for conflict_class in _PRECEDENCE:
        if conflict_class in found:
            return conflict_class
    raise ValueError(
        f"no classifiable origin pairs for {conflict.prefix}"
    )


#: id(conflict) -> (weakref to it, its class or None).  DailyConflict is
#: frozen and classification is a pure function of it, so when the
#: columnar detector hands back the same cached object day after day its
#: class is looked up, not recomputed.  The weakref guards against id
#: reuse (the referent must still *be* the conflict) and its callback
#: evicts the entry when the conflict dies, so nothing is pinned.
_CLASS_MEMO: dict[int, tuple] = {}


def conflict_class(conflict: DailyConflict) -> ConflictClass | None:
    """:func:`classify_conflict`, memoized per conflict object.

    ``None`` for a conflict that cannot be classified (no paths for two
    origins): it counts toward no figure-6 class and casts no verdict
    vote.  The one class memo both the figure-6 tally and the episode
    tracker's votes read.
    """
    key = id(conflict)
    entry = _CLASS_MEMO.get(key)
    if entry is not None and entry[0]() is conflict:
        return entry[1]
    try:
        found = classify_conflict(conflict)
    except ValueError:
        found = None
    _CLASS_MEMO[key] = (
        weakref.ref(
            conflict,
            lambda _ref, _memo=_CLASS_MEMO, _key=key: _memo.pop(_key, None),
        ),
        found,
    )
    return found


def classify_day(
    conflicts: Sequence[DailyConflict],
) -> dict[ConflictClass, int]:
    """Per-class conflict counts for one day (the figure-6 series).

    Conflicts :func:`conflict_class` cannot classify count toward no
    class.
    """
    counts = {found: 0 for found in ConflictClass}
    for conflict in conflicts:
        found = conflict_class(conflict)
        if found is not None:
            counts[found] += 1
    return counts
