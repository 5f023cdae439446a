"""The day-snapshot alerter against the streaming-detector bridge.

For any stream of daily conflict snapshots — prefixes in any detection
order, leaving and coming back, origin sets growing, shrinking and
swapping — :class:`~repro.core.realtime.DaySnapshotAlerter`, reading
the study state's conflict origin map, raises exactly the alerts the
:class:`~tests.core.snapshot_bridge.SnapshotBridge` raises, in the same
order.  The same holds when the state is checkpointed and resumed
between any two days: the map, and its order, travel in the checkpoint.
The alerter replays the transitions the state derives from the episode
tracker's day diff, which skips a conflict that is the object its
prefix was fed the day before; so the streams also recur objects, as
``test_merge_properties.play`` does: the same object across days, an
equal twin, two objects that alternate, a return after a gap and a
replacement.

Example counts come from the hypothesis profile (``dev`` for tier-1,
``ci`` for the dedicated property leg).
"""

import datetime
import json

from hypothesis import given, strategies as st

from repro.analysis.pipeline import StudyState
from repro.core.detector import DailyConflict, DayDetection
from repro.netbase.prefix import Prefix
from tests.analysis.test_merge_properties import conflict_plans, play
from tests.core.snapshot_bridge import SnapshotBridge, SnapshotFeed

START = datetime.date(1998, 1, 1)

#: A small pool, so prefixes often leave and come back.
POOL = [Prefix.parse(f"10.{index}.0.0/16") for index in range(6)]


@st.composite
def snapshot_streams(draw):
    """Daily detections over :data:`POOL`, in drawn detection order."""
    stream = []
    for index in range(draw(st.integers(1, 12))):
        chosen = draw(st.lists(st.sampled_from(POOL), unique=True))
        stream.append(
            DayDetection(
                day=START + datetime.timedelta(days=index),
                conflicts=tuple(
                    DailyConflict(
                        prefix=prefix,
                        origins=draw(
                            st.frozensets(
                                st.integers(1, 6), min_size=2, max_size=4
                            )
                        ),
                    )
                    for prefix in chosen
                ),
                prefixes_scanned=len(chosen) + 3,
                as_set_excluded=0,
            )
        )
    return stream


def resumed(feed: SnapshotFeed) -> SnapshotFeed:
    """``feed`` with its state taken through a JSON checkpoint."""
    payload = json.loads(json.dumps(feed.state.state_dict()))
    return SnapshotFeed(StudyState.from_state(payload))


def check_against_the_bridge(stream, resume_day: int) -> None:
    """Feed ``stream`` to the bridge and to the state with its alerter,
    resuming the state before day ``resume_day``; both raise the same
    alerts and hold the same conflicts every day."""
    bridge = SnapshotBridge()
    feed = SnapshotFeed()
    for index, detection in enumerate(stream):
        if index == resume_day:
            feed = resumed(feed)
        assert feed.feed_day(detection) == bridge.feed_day(detection)
        assert feed.current_conflicts() == bridge.current_conflicts()
        del detection  # let replaced conflicts die before the next day


def check_streak_order(stream) -> None:
    """A prefix keeps its slot while its streak lasts and goes to the
    end when it comes back."""
    feed = SnapshotFeed()
    expected: dict[Prefix, frozenset[int]] = {}
    for detection in stream:
        feed.feed_day(detection)
        today = {conflict.prefix: conflict.origins for conflict in detection.conflicts}
        expected = {
            **{prefix: today[prefix] for prefix in expected if prefix in today},
            **{prefix: origins for prefix, origins in today.items() if prefix not in expected},
        }
        assert list(feed.state.conflict_origins.items()) == list(expected.items())
        del detection


@given(snapshot_streams(), st.integers(0, 12))
def test_alerts_equal_the_bridge_across_a_resume(stream, resume_day):
    check_against_the_bridge(stream, resume_day)


@given(snapshot_streams())
def test_map_holds_the_last_day_in_streak_order(stream):
    check_streak_order(stream)


@given(conflict_plans(), st.integers(0, 14))
def test_recurring_objects_alert_like_the_bridge_across_a_resume(
    plan, resume_day
):
    check_against_the_bridge(play(plan), resume_day)


@given(conflict_plans())
def test_recurring_objects_keep_the_map_in_streak_order(plan):
    check_streak_order(play(plan))
