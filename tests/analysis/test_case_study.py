"""Spike-day case studies against the four-walk reference.

:func:`repro.analysis.pipeline._case_study` finds the culprit, its
involvement, its most common upstream hop and the sequence count in one
walk over the origin sets and one over the paths that contain the
culprit.  :func:`reference_case_study` is the four-walk version it
replaced: the origin count, :func:`involvement_fraction`, a walk over
every path's hops, and :func:`sequence_involvement_fraction`.  The two
must give equal :class:`CaseStudy` objects on any spike day, including
a culprit prepended within a path, conflicts without paths, and tied
upstreams (the first counted wins in both).

Example counts come from the hypothesis profile (``dev`` for tier-1,
``ci`` for the dedicated property leg).
"""

import datetime
from collections import Counter

from hypothesis import given, strategies as st

from repro.analysis.pipeline import CaseStudy, _case_study
from repro.core.causes import SpikeReport
from repro.core.detector import DailyConflict
from repro.core.stats import involvement_fraction, sequence_involvement_fraction
from repro.netbase.prefix import Prefix

DAY = datetime.date(1998, 4, 7)


def reference_case_study(day, conflicts, count, baseline) -> CaseStudy:
    """The culprit evidence of a spike day, one walk per statistic."""
    involvement: Counter[int] = Counter()
    for conflict in conflicts:
        for origin in conflict.origins:
            involvement[origin] += 1
    culprit, _hits = involvement.most_common(1)[0]
    involved, _total = involvement_fraction(conflicts, culprit)
    report = SpikeReport(
        day=day,
        total_conflicts=count,
        baseline_median=float(baseline),
        culprit_asn=culprit,
        culprit_involved=involved,
    )
    upstream_counts: Counter[int] = Counter()
    for conflict in conflicts:
        for path in conflict.all_paths():
            for left, right in zip(path, path[1:]):
                if right == culprit:
                    upstream_counts[left] += 1
    upstream = (
        upstream_counts.most_common(1)[0][0] if upstream_counts else None
    )
    if upstream is not None:
        seq_involved, seq_total = sequence_involvement_fraction(
            conflicts, upstream, culprit
        )
    else:
        seq_involved, seq_total = 0, len(conflicts)
    return CaseStudy(
        report=report,
        upstream_asn=upstream,
        sequence_involved=seq_involved,
        sequence_total=seq_total,
    )


#: A small pool, so origins and upstreams often tie and hops often hit
#: the culprit, also twice in one path.
asns = st.integers(1, 5)


@st.composite
def spike_conflicts(draw):
    """One conflict: two to four origins, each with zero to two paths
    ending at it (hops may repeat, which prepends), or no paths at all."""
    prefix = Prefix(draw(st.integers(0, 255)) << 24, 8)
    origins = draw(st.frozensets(asns, min_size=2, max_size=4))
    if draw(st.booleans()):
        return DailyConflict(prefix, origins)
    paths = tuple(
        (
            origin,
            tuple(
                (*hops, origin)
                for hops in draw(
                    st.lists(st.lists(asns, max_size=4), max_size=2)
                )
            ),
        )
        for origin in sorted(origins)
    )
    return DailyConflict(prefix, origins, paths)


@given(st.lists(spike_conflicts(), min_size=1, max_size=12), st.integers(1, 9))
def test_case_study_equals_the_four_walk_reference(conflicts, baseline):
    expected = reference_case_study(DAY, conflicts, len(conflicts), baseline)
    assert _case_study(DAY, conflicts, len(conflicts), baseline) == expected


def test_prepended_culprit_counts_each_hop():
    """A path that prepends the culprit hops into it from itself too."""
    paths = ((7, ((1, 2, 7, 7),)),)
    conflicts = [
        DailyConflict(Prefix.parse("10.0.0.0/8"), frozenset({7, 9}), paths),
        DailyConflict(Prefix.parse("11.0.0.0/8"), frozenset({7, 8})),
    ]
    case = _case_study(DAY, conflicts, 2, 1)
    assert case == reference_case_study(DAY, conflicts, 2, 1)
    assert case.report.culprit_asn == 7
    assert case.report.culprit_involved == 2
    assert case.upstream_asn == 2  # tied with 7; counted first
    assert (case.sequence_involved, case.sequence_total) == (1, 2)
