"""Tests for episode tracking and the paper's duration accounting."""

import copy
import datetime
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.pipeline import StudyState
from repro.core.detector import DailyConflict, DayDetection
from repro.core.episodes import EpisodeTracker
from repro.netbase.prefix import Prefix

P1 = Prefix.parse("10.0.0.0/8")
P2 = Prefix.parse("192.0.2.0/24")
START = datetime.date(1997, 11, 8)


def day(offset: int) -> datetime.date:
    return START + datetime.timedelta(days=offset)


def conflict(prefix: Prefix, *origins: int) -> DailyConflict:
    return DailyConflict(prefix=prefix, origins=frozenset(origins or (1, 2)))


def detection(offset: int, *conflicts: DailyConflict) -> DayDetection:
    return DayDetection(
        day=day(offset),
        conflicts=conflicts,
        prefixes_scanned=len(conflicts),
        as_set_excluded=0,
    )


class TestTracking:
    def test_single_day_episode(self):
        tracker = EpisodeTracker()
        tracker.observe_day(day(0), [conflict(P1)])
        episodes = tracker.finalize()
        episode = episodes[P1]
        assert episode.days_observed == 1
        assert episode.one_time
        assert episode.first_day == episode.last_day == day(0)

    def test_continuous_episode(self):
        tracker = EpisodeTracker()
        for offset in range(5):
            tracker.observe_day(day(offset), [conflict(P1)])
        episode = tracker.finalize()[P1]
        assert episode.days_observed == 5
        assert not episode.one_time

    def test_discontinuous_days_merge_per_prefix(self):
        # The paper merges all of a prefix's conflict days into one
        # record, regardless of gaps or different origin sets.
        tracker = EpisodeTracker()
        tracker.observe_day(day(0), [conflict(P1, 1, 2)])
        tracker.observe_day(day(1), [])
        tracker.observe_day(day(50), [conflict(P1, 3, 4)])
        episode = tracker.finalize()[P1]
        assert episode.days_observed == 2
        assert episode.first_day == day(0)
        assert episode.last_day == day(50)
        assert episode.origins_ever == {1, 2, 3, 4}

    def test_max_origins_single_day(self):
        tracker = EpisodeTracker()
        tracker.observe_day(day(0), [conflict(P1, 1, 2, 3)])
        tracker.observe_day(day(1), [conflict(P1, 1, 2)])
        assert tracker.finalize()[P1].max_origins_single_day == 3

    def test_multiple_prefixes_tracked_independently(self):
        tracker = EpisodeTracker()
        tracker.observe_day(day(0), [conflict(P1), conflict(P2)])
        tracker.observe_day(day(1), [conflict(P1)])
        episodes = tracker.finalize()
        assert episodes[P1].days_observed == 2
        assert episodes[P2].days_observed == 1
        assert len(tracker) == 2

    def test_out_of_order_days_rejected(self):
        tracker = EpisodeTracker()
        tracker.observe_day(day(5), [conflict(P1)])
        with pytest.raises(ValueError, match="increasing order"):
            tracker.observe_day(day(4), [conflict(P1)])

    def test_duplicate_day_rejected(self):
        tracker = EpisodeTracker()
        tracker.observe_day(day(5), [conflict(P1)])
        with pytest.raises(ValueError, match="increasing order"):
            tracker.observe_day(day(5), [conflict(P1)])


class TestOngoing:
    def test_ongoing_at_default_end(self):
        tracker = EpisodeTracker()
        tracker.observe_day(day(0), [conflict(P1), conflict(P2)])
        tracker.observe_day(day(1), [conflict(P1)])
        episodes = tracker.finalize()
        assert episodes[P1].ongoing
        assert not episodes[P2].ongoing

    def test_ongoing_with_explicit_last_day(self):
        tracker = EpisodeTracker()
        tracker.observe_day(day(0), [conflict(P1)])
        episodes = tracker.finalize(last_observed_day=day(9))
        assert not episodes[P1].ongoing


class TestEpisodeInvariants:
    @given(
        st.lists(
            st.lists(st.booleans(), min_size=2, max_size=2),
            min_size=1,
            max_size=60,
        )
    )
    def test_duration_equals_days_present(self, presence):
        """Invariant: days_observed == number of days fed with the prefix."""
        tracker = EpisodeTracker()
        for offset, (p1_present, p2_present) in enumerate(presence):
            conflicts = []
            if p1_present:
                conflicts.append(conflict(P1))
            if p2_present:
                conflicts.append(conflict(P2))
            tracker.observe_day(day(offset), conflicts)
        episodes = tracker.finalize()
        expected_p1 = sum(1 for p1, _ in presence if p1)
        expected_p2 = sum(1 for _, p2 in presence if p2)
        if expected_p1:
            assert episodes[P1].days_observed == expected_p1
        else:
            assert P1 not in episodes
        if expected_p2:
            assert episodes[P2].days_observed == expected_p2

    @given(
        st.lists(st.booleans(), min_size=1, max_size=60),
    )
    def test_ongoing_iff_present_on_last_fed_day(self, presence):
        tracker = EpisodeTracker()
        for offset, present in enumerate(presence):
            tracker.observe_day(
                day(offset), [conflict(P1)] if present else []
            )
        episodes = tracker.finalize()
        if not any(presence):
            assert P1 not in episodes
            return
        # finalize() without argument marks ongoing relative to the
        # last day fed, so P1 is ongoing iff present on that day.
        assert episodes[P1].ongoing == presence[-1]

    @given(st.lists(st.booleans(), min_size=1, max_size=40))
    def test_first_last_bracket_duration(self, presence):
        tracker = EpisodeTracker()
        for offset, present in enumerate(presence):
            tracker.observe_day(
                day(offset), [conflict(P1)] if present else []
            )
        episodes = tracker.finalize()
        if P1 not in episodes:
            return
        episode = episodes[P1]
        span = (episode.last_day - episode.first_day).days + 1
        assert episode.days_observed <= span


def feed(tracker: EpisodeTracker, offsets) -> EpisodeTracker:
    """Feed P1 on even days and P2 (with a third origin on day 2) on
    the first three."""
    for offset in offsets:
        today = [conflict(P1, 1, 2)] if offset % 2 == 0 else []
        if offset < 3:
            today.append(conflict(P2, 3, 4, *([5] if offset == 2 else [])))
        tracker.observe_day(day(offset), today)
    return tracker


def restored(tracker: EpisodeTracker) -> EpisodeTracker:
    """``tracker`` through a JSON checkpoint round trip."""
    return EpisodeTracker.from_state(
        json.loads(json.dumps(tracker.state_dict()))
    )


class TestRestore:
    """A restored tracker is the original's equal, and independent."""

    def test_restored_tracker_keeps_feeding_like_the_original(self):
        straight = feed(EpisodeTracker(), range(5))
        resumed = feed(restored(feed(EpisodeTracker(), range(2))), range(2, 5))
        assert resumed.finalize() == straight.finalize()
        assert resumed.state_dict() == straight.state_dict()

    def test_restored_tracker_keeps_feeding_in_order(self):
        tracker = restored(feed(EpisodeTracker(), range(4)))
        with pytest.raises(ValueError, match="increasing order"):
            tracker.observe_day(day(3), [conflict(P1)])
        tracker.observe_day(day(4), [conflict(P1)])
        assert tracker.finalize()[P1].days_observed == 3

    def test_restore_shares_nothing_with_its_payload(self):
        original = feed(EpisodeTracker(), range(3))
        payload = original.state_dict()
        frozen = copy.deepcopy(payload)
        clone = EpisodeTracker.from_state(payload)
        clone.observe_day(day(3), [conflict(P1, 1, 9, 10), conflict(P2, 8)])
        assert clone.finalize()[P1].max_origins_single_day == 3
        assert payload == frozen
        assert original.state_dict() == frozen
        episode = original.finalize()[P1]
        assert episode.max_origins_single_day == 2
        assert episode.origins_ever == {1, 2}

    def test_record_order_does_not_change_the_episodes(self):
        """A legacy sharded checkpoint lists records shard by shard,
        not in first-seen order; the episodes must not notice."""
        straight = feed(EpisodeTracker(), range(5))
        payload = feed(EpisodeTracker(), range(3)).state_dict()
        payload["prefixes"].reverse()
        shuffled = feed(EpisodeTracker.from_state(payload), range(3, 5))
        assert shuffled.finalize() == straight.finalize()


class TestEpisodeMemo:
    """A study's results reuse an episode until its record is observed
    again or its ongoing flag flips; the tracker keeps no memo."""

    def test_unobserved_record_keeps_its_episode_object(self):
        state = StudyState()
        state.feed_day(detection(0, conflict(P1), conflict(P2)))
        state.feed_day(detection(1, conflict(P1)))
        results = state.results()
        # The same results until a day is fed ...
        assert state.results() is results
        first = results.episodes
        assert first[P1].ongoing
        # ... and new ones after it, which keep the episode of a record
        # neither fed since nor then ongoing.
        state.feed_day(detection(2, conflict(P1)))
        later = state.results()
        assert later is not results
        second = later.episodes
        assert second is not first and second == state._tracker.finalize()
        assert second[P2] is first[P2]
        assert second[P1] is not first[P1] and second[P1].ongoing
        assert state.results().episodes[P1] is second[P1]
        # P1 goes quiet: same counts, but no longer ongoing.
        state.feed_day(detection(3, conflict(P2)))
        third = state.results().episodes
        assert not third[P1].ongoing
        assert third[P1].days_observed == second[P1].days_observed
        assert third[P2].days_observed == 2 and third[P2].ongoing
        assert third == state._tracker.finalize()
        # An explicit last observed day flips the flag the other way.
        assert state._tracker.finalize(day(2))[P1].ongoing
        assert state._tracker.finalize(day(2)) == EpisodeTracker.from_state(
            state._tracker.state_dict()
        ).finalize(day(2))

    def test_state_dict_ignores_finalize(self):
        plain, finalized = EpisodeTracker(), EpisodeTracker()
        recurring = conflict(P1)
        for offset in range(4):
            conflicts = [recurring] + ([conflict(P2)] if offset % 2 else [])
            for tracker in (plain, finalized):
                tracker.observe_day(day(offset), conflicts)
            finalized.finalize()
            assert finalized.fed_since(day(offset)) == [
                found.prefix for found in reversed(conflicts)
            ]
        assert finalized.state_dict() == plain.state_dict()

    def test_restore_starts_memo_free(self):
        state = StudyState()
        state.feed_day(detection(0, conflict(P1), conflict(P2)))
        episodes = state.results().episodes
        fresh = StudyState.from_state(state.state_dict()).results().episodes
        assert fresh == episodes
        assert all(fresh[p] is not episodes[p] for p in episodes)


#: The prefixes the drawn streams put in conflict.
POOL = [Prefix(0x0A000000 | (n << 8), 24) for n in range(6)]


class TestFedSince:
    """``fed_since(day)`` hands over exactly the records last fed on or
    after ``day``, newest first, from a fed tracker, a restored one and
    one fed on after a restore alike."""

    def test_a_refed_record_moves_to_the_newest(self):
        tracker = EpisodeTracker()
        tracker.observe_day(day(0), [conflict(P1), conflict(P2)])
        assert tracker.fed_since(day(0)) == [P2, P1]
        tracker.observe_day(day(1), [conflict(P1)])
        assert tracker.fed_since(day(0)) == [P1, P2]
        assert tracker.fed_since(day(1)) == [P1]
        assert list(tracker._order) == [1, 0]

    def test_each_reader_keeps_its_own_day(self):
        tracker = EpisodeTracker()
        others = [Prefix.parse(f"10.{n}.0.0/16") for n in range(2)]
        tracker.observe_day(
            day(0), [conflict(P1), conflict(P2), *map(conflict, others)]
        )
        early = tracker.last_fed_day
        recurring = conflict(P1)
        tracker.observe_day(day(1), [recurring])
        # A reader at the newest day gets what was fed since and what
        # was then ongoing; from the next day, only what was fed since.
        assert tracker.fed_since(early) == [P1, others[1], others[0], P2]
        assert tracker.fed_since(early + datetime.timedelta(days=1)) == [P1]
        late = tracker.last_fed_day
        tracker.observe_day(day(2), [recurring, conflict(P2)])
        assert set(tracker.fed_since(early)) == {P1, P2, *others}
        assert tracker.fed_since(late) == [P2, P1]
        assert tracker.fed_since(day(3)) == []

    def test_a_restored_tracker_hands_over_alike(self):
        tracker = EpisodeTracker()
        tracker.observe_day(day(0), [conflict(P1), conflict(P2)])
        tracker.observe_day(day(2), [conflict(P1)])
        fresh = restored(tracker)
        for offset in range(4):
            assert fresh.fed_since(day(offset)) == tracker.fed_since(day(offset))
        fresh.observe_day(day(3), [conflict(P2)])
        assert fresh.fed_since(day(2)) == [P2, P1]
        assert fresh.fed_since(day(3)) == [P2]

    def test_a_reader_far_behind_gets_exactly_what_changed(self):
        """No cap sends a reader that last read long ago cold: it gets
        the records fed since its day, however many folds ago."""
        tracker = EpisodeTracker()
        tracker.observe_day(day(0), [conflict(P1), conflict(P2)])
        behind = tracker.last_fed_day
        for offset in range(1, 400):
            tracker.observe_day(day(offset), [conflict(P1)])
            assert len(tracker._order) == len(tracker) == 2
        assert tracker.fed_since(behind) == [P1, P2]
        assert tracker.fed_since(behind + datetime.timedelta(days=1)) == [P1]

    def test_an_empty_tracker_hands_over_nothing(self):
        tracker = EpisodeTracker()
        assert tracker.fed_since(day(0)) == []
        tracker.observe_day(day(0), [])
        assert tracker.fed_since(day(0)) == []
        assert len(tracker._order) == 0

    @given(
        st.lists(
            st.tuples(
                # Calendar days since the last fed day.
                st.integers(1, 3),
                st.frozensets(st.integers(0, len(POOL) - 1)),
                # Feed yesterday's conflict objects again (the fold's
                # identity fast path) or new ones.
                st.booleans(),
            ),
            min_size=1,
            max_size=25,
        ),
        st.data(),
    )
    def test_hands_over_every_record_fed_on_or_after_the_day(
        self, stream, data
    ):
        cut = data.draw(st.integers(0, len(stream) - 1), label="restored after")
        tracker = EpisodeTracker()
        objects: dict[int, DailyConflict] = {}
        offset = 0
        for step, (gap, present, reuse) in enumerate(stream):
            offset += gap
            if not reuse:
                objects.clear()
            for n in present:
                objects.setdefault(n, conflict(POOL[n], 1, 2 + n % 3))
            tracker.observe_day(day(offset), [objects[n] for n in sorted(present)])
            if step == cut:
                tracker = restored(tracker)
            episodes = tracker.finalize()
            # The tracker fed so far, and one restored from it now.
            for candidate in (tracker, restored(tracker)):
                for since in map(day, range(offset + 2)):
                    fed = candidate.fed_since(since)
                    assert set(fed) == {
                        prefix
                        for prefix, episode in episodes.items()
                        if episode.last_day >= since
                    }
                    assert len(fed) == len(set(fed))
                    lasts = [episodes[prefix].last_day for prefix in fed]
                    assert lasts == sorted(lasts, reverse=True)
                # One order entry per record.
                assert sorted(candidate._order) == list(range(len(candidate)))
