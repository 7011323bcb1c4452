"""Unit and property tests for the interval algebra.

IntervalSet underpins both the simulator (power/link/association spans) and
the availability analysis (up-interval reconstruction), so its invariants
get the heaviest property-based coverage in the suite.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.intervals import (
    BOUNDS_MIN_INSTANTS,
    BOUNDS_PER_INTERVAL,
    IntervalSet,
    contains,
    intersect,
)

# Strategy: small sets of raw (possibly overlapping, unordered) intervals.
raw_interval = st.tuples(
    st.floats(min_value=0, max_value=1000, allow_nan=False),
    st.floats(min_value=0, max_value=1000, allow_nan=False),
)
interval_sets = st.lists(raw_interval, max_size=12).map(IntervalSet)


class TestNormalization:
    def test_empty(self):
        assert len(IntervalSet()) == 0
        assert not IntervalSet()

    def test_drops_empty_and_inverted(self):
        s = IntervalSet([(5, 5), (7, 3)])
        assert len(s) == 0

    def test_merges_overlapping(self):
        s = IntervalSet([(0, 5), (3, 8)])
        assert s.intervals == ((0, 8),)

    def test_merges_touching(self):
        s = IntervalSet([(0, 5), (5, 8)])
        assert s.intervals == ((0, 8),)

    def test_sorts(self):
        s = IntervalSet([(10, 12), (0, 2)])
        assert s.intervals == ((0, 2), (10, 12))

    @pytest.mark.parametrize("start, end", [
        (0.0, float("inf")), (float("nan"), 1.0), (0.0, float("nan")),
        (float("nan"), float("nan")), (float("inf"), float("inf"))])
    def test_rejects_non_finite(self, start, end):
        """Both constructors reject, even bounds that compare as empty."""
        with pytest.raises(ValueError):
            IntervalSet([(start, end)])
        with pytest.raises(ValueError):
            IntervalSet.from_event_arrays(np.array([start]), np.array([end]))

    @given(interval_sets)
    def test_normalized_is_disjoint_and_sorted(self, s):
        prev_end = -float("inf")
        for start, end in s:
            assert start < end
            assert start > prev_end  # strictly: touching merged away
            prev_end = end

    @given(interval_sets)
    def test_idempotent(self, s):
        assert IntervalSet(s.intervals) == s


class TestQueries:
    def test_contains_half_open(self):
        s = IntervalSet([(0, 10)])
        assert s.contains(0)
        assert s.contains(9.999)
        assert not s.contains(10)
        assert not s.contains(-0.001)

    def test_contains_many_matches_scalar(self):
        s = IntervalSet([(0, 10), (20, 30)])
        points = [-1, 0, 5, 10, 15, 20, 29.9, 30, 100]
        vec = s.contains_many(points)
        assert list(vec) == [s.contains(p) for p in points]

    def test_contains_many_empty_set(self):
        assert not IntervalSet().contains_many([1.0, 2.0]).any()

    def test_total_duration(self):
        assert IntervalSet([(0, 10), (20, 25)]).total_duration() == 15

    def test_durations(self):
        assert list(IntervalSet([(0, 10), (20, 25)]).durations()) == [10, 5]

    def test_span(self):
        assert IntervalSet([(5, 6), (1, 2)]).span == (1, 6)

    def test_span_of_empty_raises(self):
        with pytest.raises(ValueError):
            IntervalSet().span


class TestAlgebra:
    @given(interval_sets, interval_sets)
    @settings(max_examples=60)
    def test_union_covers_both(self, a, b):
        u = a.union(b)
        for s in (a, b):
            for start, end in s:
                mid = (start + end) / 2
                assert u.contains(mid)

    @given(interval_sets, interval_sets)
    @settings(max_examples=60)
    def test_intersection_subset_durations(self, a, b):
        i = a.intersection(b)
        assert i.total_duration() <= min(a.total_duration(),
                                         b.total_duration()) + 1e-9

    @given(interval_sets, interval_sets)
    @settings(max_examples=60)
    def test_inclusion_exclusion(self, a, b):
        union = a.union(b).total_duration()
        inter = a.intersection(b).total_duration()
        assert union + inter == pytest.approx(
            a.total_duration() + b.total_duration(), abs=1e-6)

    @given(interval_sets)
    @settings(max_examples=60)
    def test_complement_partitions_window(self, s):
        window = (0.0, 1000.0)
        gaps = s.complement(window)
        clipped = s.clip(*window)
        assert clipped.total_duration() + gaps.total_duration() == \
            pytest.approx(window[1] - window[0], abs=1e-6)
        assert clipped.intersection(gaps).total_duration() == \
            pytest.approx(0.0, abs=1e-9)

    def test_complement_empty_window(self):
        assert len(IntervalSet([(0, 1)]).complement((5, 5))) == 0

    def test_clip(self):
        s = IntervalSet([(0, 10), (20, 30)]).clip(5, 25)
        assert s.intervals == ((5, 10), (20, 25))

    def test_clip_empty_window(self):
        assert len(IntervalSet([(0, 10)]).clip(5, 5)) == 0

    def test_filter_min_duration(self):
        s = IntervalSet([(0, 5), (10, 100)]).filter_min_duration(10)
        assert s.intervals == ((10, 100),)

    def test_filter_min_duration_rejects_negative(self):
        with pytest.raises(ValueError):
            IntervalSet().filter_min_duration(-1)

    def test_intersection_two_pointer_edge(self):
        a = IntervalSet([(0, 2), (4, 6), (8, 10)])
        b = IntervalSet([(1, 9)])
        assert a.intersection(b).intervals == ((1, 2), (4, 6), (8, 9))


class TestKernel:
    """The bare-array functions IntervalSet's array backing runs on."""

    @given(st.lists(interval_sets, min_size=1, max_size=4), interval_sets)
    @settings(max_examples=60)
    def test_intersect_batches_concatenated_sets(self, sets, b):
        """Sets concatenated as ``a`` intersect ``b`` in one call: each
        set's overlaps are its tuple-path intersection, in order, and
        ``rows`` maps every overlap to its own set."""
        a = np.asarray([pair for s in sets for pair in s],
                       dtype=float).reshape(-1, 2)
        owner = np.repeat(np.arange(len(sets)), [len(s) for s in sets])
        b_arr = np.asarray(b.intervals, dtype=float).reshape(-1, 2)
        starts, ends, rows = intersect(a[:, 0], a[:, 1],
                                       b_arr[:, 0], b_arr[:, 1])
        tags = owner[rows]
        assert (np.diff(tags) >= 0).all()
        for index, s in enumerate(sets):
            mine = tags == index
            assert tuple(zip(starts[mine].tolist(), ends[mine].tolist())) \
                == s.intersection(b).intervals


@st.composite
def sets_and_sorted_instants(draw):
    """0-50 normalized intervals, and sorted instants with duplicates and
    instants on, and one ulp beside, each bound; repeated so that the
    instant count falls on either side of the bounds path's size gate."""
    bounds = draw(st.lists(st.floats(-1e6, 1e6, allow_nan=False),
                           max_size=100))
    s = IntervalSet(zip(bounds[::2], bounds[1::2]))
    edges = [bound for pair in s for bound in pair]
    near = st.sampled_from(edges).flatmap(lambda bound: st.sampled_from([
        bound, np.nextafter(bound, -np.inf), np.nextafter(bound, np.inf)])) \
        if edges else st.nothing()
    picks = draw(st.lists(st.one_of(near, st.floats(-2e6, 2e6)),
                          min_size=1, max_size=60))
    copies = draw(st.sampled_from([1, 2, BOUNDS_MIN_INSTANTS + 1]))
    return s, np.sort(np.repeat(np.asarray(picks, dtype=float), copies))


class TestContains:
    @given(sets_and_sorted_instants())
    @settings(max_examples=150, deadline=None)
    def test_bounds_and_per_instant_paths_agree(self, case):
        """Searched by the bounds, per instant (a trailing NaN is not
        sorted) or on the tuple path, an instant is inside or not alike."""
        s, instants = case
        arr = np.asarray(s.intervals, dtype=float).reshape(-1, 2)
        starts, ends = arr[:, 0], arr[:, 1]
        event("bounds path" if instants.size > max(
            BOUNDS_MIN_INSTANTS, BOUNDS_PER_INTERVAL * len(s))
            else "per-instant path")
        got = contains(starts, ends, instants)
        per_instant = contains(starts, ends, np.append(instants, np.nan))
        assert got.dtype == bool and got.shape == instants.shape
        assert not per_instant[-1]
        assert got.tolist() == per_instant[:-1].tolist()
        assert got.tolist() == [s.contains(t) for t in instants.tolist()]

    def test_large_sorted_grid_uses_half_open_bounds(self):
        ticks = np.repeat(np.arange(0.0, 1000.0), 2)
        inside = contains(np.array([10.0, 500.0]), np.array([20.0, 501.0]),
                          ticks)
        assert np.flatnonzero(inside).tolist() == \
            [*range(20, 40), 1000, 1001]


class TestFromTimestamps:
    def test_single_gap_split(self):
        ts = [0, 60, 120, 1200, 1260]
        s = IntervalSet.from_timestamps(ts, max_gap=600)
        assert len(s) == 2
        assert s.intervals[0] == (0, 120)
        assert s.intervals[1] == (1200, 1260)

    def test_empty(self):
        assert len(IntervalSet.from_timestamps([], max_gap=600)) == 0

    def test_single_timestamp_has_duration(self):
        s = IntervalSet.from_timestamps([100.0], max_gap=600)
        assert s.total_duration() > 0

    def test_unsorted_input_tolerated(self):
        s = IntervalSet.from_timestamps([120, 0, 60], max_gap=600)
        assert s.intervals[0] == (0, 120)

    def test_rejects_bad_gap(self):
        with pytest.raises(ValueError):
            IntervalSet.from_timestamps([0], max_gap=0)

    @given(st.lists(st.floats(min_value=0, max_value=10000,
                              allow_nan=False), max_size=50))
    def test_all_timestamps_covered(self, ts):
        s = IntervalSet.from_timestamps(ts, max_gap=600)
        for t in ts:
            assert s.contains(t) or any(abs(t - e) < 1.5 for _, e in s)

    @given(st.lists(st.floats(min_value=0, max_value=100000,
                              allow_nan=False), min_size=2, max_size=50))
    def test_internal_gaps_exceed_threshold(self, ts):
        s = IntervalSet.from_timestamps(ts, max_gap=600)
        ordered = sorted(s.intervals)
        for (_, end_a), (start_b, _) in zip(ordered, ordered[1:]):
            assert start_b - end_a > 0
