"""Interval algebra over half-open time ranges ``[start, end)``.

Both the simulator (router power periods, ISP outages, device association
spans) and the availability analysis (up-intervals reconstructed from
heartbeats, gap extraction) work in terms of sets of disjoint intervals.
:class:`IntervalSet` provides the normalized representation plus the set
operations the pipeline needs: union, intersection, complement, clipping,
and total duration.

Storage is dual: a set can be *tuple-backed* (built from Python pairs, the
reference path) or *array-backed* (built by the columnar materializer from
``(starts, ends)`` float arrays), and either lazily produces the other on
demand.  The array backing runs on the bare-array kernel below, which the
columnar collector also calls on its column slices.  Every operation yields bitwise-identical floats regardless of
backing — the digest-pin suite holds that invariant.  In particular
:func:`total_duration` always sums interval lengths in sequential order
(never ``np.sum``'s pairwise reduction), because analysis thresholds
compare against those sums.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isfinite
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

Interval = Tuple[float, float]


def normalize_interval_arrays(
        starts: np.ndarray, ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sort, drop empty, and merge touching intervals — pure array form.

    The exact array counterpart of the tuple-path normalization: reject
    non-finite bounds, sort by ``(start, end)``, then merge any interval
    whose start does not exceed the running maximum end.  Returns new
    ``(starts, ends)`` arrays.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    # Before the empty-row filter: a NaN fails ``ends > starts`` and would
    # be dropped silently where the tuple path raises.
    if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
        raise ValueError("non-finite interval bounds")
    keep = ends > starts
    if not keep.all():
        starts = starts[keep]
        ends = ends[keep]
    if starts.size == 0:
        return starts, ends
    order = np.lexsort((ends, starts))
    starts = starts[order]
    ends = ends[order]
    running_end = np.maximum.accumulate(ends)
    new_group = np.empty(starts.size, dtype=bool)
    new_group[0] = True
    # Same rule as the scalar merge: start <= merged[-1][1] joins the group.
    new_group[1:] = starts[1:] > running_end[:-1]
    group_starts = np.flatnonzero(new_group)
    group_last = np.append(group_starts[1:] - 1, starts.size - 1)
    return starts[group_starts], running_end[group_last]


# -- the bare-array kernel: normalized (starts, ends) float arrays ------------

def is_sorted(values: np.ndarray) -> bool:
    """Whether a 1-D array is in non-decreasing order; a NaN breaks it."""
    return values.ndim == 1 and bool((values[1:] >= values[:-1]).all())


#: :func:`contains` searches a sorted instant array by the interval
#: bounds once it holds more than ``BOUNDS_MIN_INSTANTS`` instants and
#: more than ``BOUNDS_PER_INTERVAL`` per interval.  Below that the
#: per-instant search's smaller fixed cost wins: the two cross between
#: 640 and 900 instants for 1-128 intervals, and between 3 and 6
#: instants per interval for 200-4,000 intervals (2-core host, numpy
#: 2.4).  The deep plan's largest call, 576 intervals on a 56,448-tick
#: grid, is far past both.
BOUNDS_MIN_INSTANTS = 768
BOUNDS_PER_INTERVAL = 4


def contains(starts: np.ndarray, ends: np.ndarray,
             instants: np.ndarray) -> np.ndarray:
    """Which of the float array *instants* fall inside some interval.

    ``t`` is inside ``[s, e)`` iff ``s <= t < e``.  A sorted 1-D
    *instants* that outnumbers the intervals is searched by the bounds:
    each interval's instants are the run from the first ``>= s`` to the
    first ``>= e``, and the runs alternate with the gaps between them.
    Any other *instants* (unsorted, a NaN, few) is searched per instant.
    """
    if starts.size == 0:
        return np.zeros(instants.shape, dtype=bool)
    n = instants.size
    if n > max(BOUNDS_MIN_INSTANTS, BOUNDS_PER_INTERVAL * starts.size) \
            and is_sorted(instants):
        # Normalized intervals are disjoint and ordered, so the run
        # edges never decrease: gap, run, gap, ..., run, gap.
        edges = np.empty(2 * starts.size + 2, dtype=np.intp)
        edges[0], edges[-1] = 0, n
        edges[1:-1:2] = np.searchsorted(instants, starts, side="left")
        edges[2:-1:2] = np.searchsorted(instants, ends, side="left")
        inside = np.zeros(2 * starts.size + 1, dtype=bool)
        inside[1::2] = True
        return np.repeat(inside, np.diff(edges))
    idx = np.searchsorted(starts, instants, side="right") - 1
    valid = idx >= 0
    # maximum() instead of np.clip: the searchsorted already bounds idx
    # above, and clip's dtype-limit probing dominated this path.
    clamped = np.maximum(idx, 0)
    inside = (instants >= starts[clamped]) & (instants < ends[clamped])
    return valid & inside


def clip(starts: np.ndarray, ends: np.ndarray,
         lo: float, hi: float) -> Tuple[np.ndarray, np.ndarray]:
    """Restrict the intervals to the window ``[lo, hi)``."""
    if hi <= lo:
        return np.empty(0), np.empty(0)
    keep = (ends > lo) & (starts < hi)
    return np.maximum(starts[keep], lo), np.minimum(ends[keep], hi)


def intersect(a_starts: np.ndarray, a_ends: np.ndarray,
              b_starts: np.ndarray, b_ends: np.ndarray,
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``a ∩ b`` as ``(starts, ends, rows)``; ``a[rows[k]]`` holds overlap k.

    Binary search finds each ``a`` row's overlapping run of ``b``; each
    overlap is ``(max(starts), min(ends))``, the tuple path's two-pointer
    sweep pair for pair.  Each ``a`` row searches ``b`` on its own, so ``a``
    may concatenate several normalized sets: each set's intersection comes
    out contiguous and in order, and ``rows`` maps it back to its set.
    """
    if a_starts.size == 0 or b_starts.size == 0:
        return np.empty(0), np.empty(0), np.empty(0, dtype=np.intp)
    # Row i overlaps b[lo[i]:lo[i] + counts[i]]: one output per pair.
    lo = np.searchsorted(b_ends, a_starts, side="right")
    counts = np.searchsorted(b_starts, a_ends, side="left") - lo
    a_idx = np.repeat(np.arange(a_starts.size), counts)
    first_output = np.cumsum(counts) - counts
    b_idx = np.arange(a_idx.size) + np.repeat(lo - first_output, counts)
    starts = np.maximum(a_starts[a_idx], b_starts[b_idx])
    ends = np.minimum(a_ends[a_idx], b_ends[b_idx])
    keep = ends > starts
    return starts[keep], ends[keep], a_idx[keep]


def total_duration(starts: np.ndarray, ends: np.ndarray) -> float:
    """Sum of interval lengths, added in sequence: the tuple path's floats
    (``np.sum``'s pairwise order would differ)."""
    return float(sum((ends - starts).tolist()))


class IntervalSet:
    """An immutable, normalized set of disjoint half-open intervals.

    Normalization sorts the intervals, drops empty ones, and merges any that
    touch or overlap, so two IntervalSets covering the same instants always
    compare equal.

    Point queries are hot (the firmware asks "was X up at tick t" millions
    of times per campaign), so the start points are kept as a parallel
    tuple for :func:`bisect.bisect_right` and the interval matrix used by
    :meth:`contains_many` is built lazily and cached.  Array-backed sets
    defer building the tuple form until something iterates them.
    """

    __slots__ = ("_tuple", "_starts_tuple", "_array")

    def __init__(self, intervals: Iterable[Interval] = ()):
        self._tuple: Optional[Tuple[Interval, ...]] = \
            self._normalize(intervals)
        self._starts_tuple: Optional[Tuple[float, ...]] = None
        self._array: Optional[np.ndarray] = None

    @classmethod
    def from_normalized_arrays(cls, starts: np.ndarray,
                               ends: np.ndarray) -> "IntervalSet":
        """Adopt already-normalized ``(starts, ends)`` arrays without copying.

        The caller guarantees the intervals are sorted, non-empty, and
        pairwise disjoint (strictly: each start exceeds the previous end).
        This is the columnar materializer's constructor: no per-interval
        Python objects are created until someone iterates the set.
        """
        obj = cls.__new__(cls)
        arr = np.empty((len(starts), 2), dtype=float)
        arr[:, 0] = starts
        arr[:, 1] = ends
        obj._tuple = None
        obj._starts_tuple = None
        obj._array = arr
        return obj

    @classmethod
    def from_event_arrays(cls, starts: np.ndarray,
                          ends: np.ndarray) -> "IntervalSet":
        """Build from unsorted, possibly overlapping event arrays."""
        return cls.from_normalized_arrays(
            *normalize_interval_arrays(starts, ends))

    @staticmethod
    def _normalize(intervals: Iterable[Interval]) -> Tuple[Interval, ...]:
        cleaned: List[Interval] = []
        for start, end in intervals:
            start = float(start)
            end = float(end)
            if not (isfinite(start) and isfinite(end)):
                raise ValueError(f"non-finite interval ({start!r}, {end!r})")
            if end > start:
                cleaned.append((start, end))
        cleaned.sort()
        merged: List[Interval] = []
        for start, end in cleaned:
            if merged and start <= merged[-1][1]:
                prev_start, prev_end = merged[-1]
                merged[-1] = (prev_start, max(prev_end, end))
            else:
                merged.append((start, end))
        return tuple(merged)

    # -- lazy representations -------------------------------------------------

    def _as_tuple(self) -> Tuple[Interval, ...]:
        """The interval tuple, materialized from the array on first need."""
        if self._tuple is None:
            self._tuple = tuple(
                (row[0], row[1]) for row in self._array.tolist())
        return self._tuple

    def _as_array(self) -> np.ndarray:
        """The (n, 2) interval matrix, built once and cached."""
        if self._array is None:
            if self._tuple:
                self._array = np.asarray(self._tuple, dtype=float)
            else:
                self._array = np.empty((0, 2), dtype=float)
        return self._array

    def _starts(self) -> Tuple[float, ...]:
        if self._starts_tuple is None:
            self._starts_tuple = tuple(s for s, _ in self._as_tuple())
        return self._starts_tuple

    # -- pickling (skip the lazy caches, rebuild derived state) ---------------

    def __getstate__(self) -> Tuple[Interval, ...]:
        return self._as_tuple()

    def __setstate__(self, intervals: Tuple[Interval, ...]) -> None:
        self._tuple = intervals
        self._starts_tuple = None
        self._array = None

    # -- basic container protocol -------------------------------------------

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._as_tuple())

    def __len__(self) -> int:
        if self._tuple is not None:
            return len(self._tuple)
        return self._array.shape[0]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._as_tuple() == other._as_tuple()

    def __hash__(self) -> int:
        return hash(self._as_tuple())

    def __repr__(self) -> str:
        inner = ", ".join(f"[{s:g}, {e:g})" for s, e in self._as_tuple())
        return f"IntervalSet({inner})"

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """The normalized intervals as an immutable tuple."""
        return self._as_tuple()

    @property
    def span(self) -> Interval:
        """The smallest single interval containing the whole set.

        Raises ValueError on an empty set.
        """
        if not self:
            raise ValueError("empty IntervalSet has no span")
        arr = self._as_array()
        return (float(arr[0, 0]), float(arr[-1, 1]))

    def total_duration(self) -> float:
        """Sum of interval lengths (sequential summation order)."""
        if self._tuple is not None:
            return float(sum(end - start for start, end in self._tuple))
        return total_duration(self._array[:, 0], self._array[:, 1])

    def durations(self) -> np.ndarray:
        """Lengths of each interval, in order."""
        if not self:
            return np.empty(0)
        arr = self._as_array()
        return arr[:, 1] - arr[:, 0]

    # -- point and set queries ----------------------------------------------

    def contains(self, instant: float) -> bool:
        """True when *instant* falls inside some interval."""
        return self.interval_at(instant) is not None

    def interval_at(self, instant: float) -> Optional[Interval]:
        """The interval covering *instant*, or None (bisect, O(log n))."""
        idx = bisect_right(self._starts(), instant) - 1
        if idx < 0:
            return None
        start, end = self._as_tuple()[idx]
        if start <= instant < end:
            return (start, end)
        return None

    def contains_many(self, instants: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`contains` returning a boolean array."""
        arr = self._as_array()
        return contains(arr[:, 0], arr[:, 1],
                        np.asarray(instants, dtype=float))

    # -- set algebra ----------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        """Instants covered by either set."""
        if self._tuple is None or other._tuple is None:
            a, b = self._as_array(), other._as_array()
            return IntervalSet.from_event_arrays(
                np.concatenate((a[:, 0], b[:, 0])),
                np.concatenate((a[:, 1], b[:, 1])))
        return IntervalSet(self._tuple + other._tuple)

    def intersection(self, other: "IntervalSet") -> "IntervalSet":
        """Instants covered by both sets."""
        if self._tuple is None or other._tuple is None:
            a, b = self._as_array(), other._as_array()
            starts, ends, _ = intersect(a[:, 0], a[:, 1], b[:, 0], b[:, 1])
            return IntervalSet.from_normalized_arrays(starts, ends)
        result: List[Interval] = []
        i, j = 0, 0
        a, b = self._tuple, other._tuple
        while i < len(a) and j < len(b):
            start = max(a[i][0], b[j][0])
            end = min(a[i][1], b[j][1])
            if end > start:
                result.append((start, end))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return IntervalSet(result)

    def complement(self, window: Interval) -> "IntervalSet":
        """Instants inside *window* not covered by this set (the "gaps")."""
        win_start, win_end = window
        if win_end <= win_start:
            return IntervalSet()
        clipped = self.clip(win_start, win_end)
        if clipped._tuple is None:
            arr = clipped._as_array()
            gap_starts = np.concatenate(([win_start], arr[:, 1]))
            gap_ends = np.concatenate((arr[:, 0], [win_end]))
            keep = gap_ends > gap_starts
            return IntervalSet.from_normalized_arrays(
                gap_starts[keep], gap_ends[keep])
        gaps: List[Interval] = []
        cursor = win_start
        for start, end in clipped:
            if start > cursor:
                gaps.append((cursor, start))
            cursor = max(cursor, end)
        if cursor < win_end:
            gaps.append((cursor, win_end))
        return IntervalSet(gaps)

    def clip(self, start: float, end: float) -> "IntervalSet":
        """Restrict the set to the window ``[start, end)``."""
        if self._tuple is None:
            return IntervalSet.from_normalized_arrays(
                *clip(self._array[:, 0], self._array[:, 1], start, end))
        if end <= start:
            return IntervalSet()
        clipped = [
            (max(s, start), min(e, end))
            for s, e in self._tuple
            if e > start and s < end
        ]
        return IntervalSet(clipped)

    def filter_min_duration(self, min_duration: float) -> "IntervalSet":
        """Keep only intervals at least *min_duration* long.

        This is the "gaps of ten minutes or longer" rule the paper uses to
        separate downtime from heartbeat loss.
        """
        if min_duration < 0:
            raise ValueError("min_duration cannot be negative")
        if self._tuple is None:
            arr = self._array
            keep = (arr[:, 1] - arr[:, 0]) >= min_duration
            return IntervalSet.from_normalized_arrays(arr[keep, 0],
                                                      arr[keep, 1])
        return IntervalSet(
            (s, e) for s, e in self._tuple if (e - s) >= min_duration
        )

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_timestamps(cls, timestamps: Sequence[float],
                        max_gap: float) -> "IntervalSet":
        """Reconstruct up-intervals from a sorted stream of heartbeats.

        Consecutive timestamps closer than *max_gap* belong to the same
        up-interval; each interval extends from its first to its last
        heartbeat.  This is how the availability analysis rebuilds router
        uptime from the Heartbeats data set.
        """
        if max_gap <= 0:
            raise ValueError("max_gap must be positive")
        ts = np.asarray(timestamps, dtype=float)
        if ts.size == 0:
            return cls()
        if not is_sorted(ts):
            ts = np.sort(ts)
        gaps = np.diff(ts)
        breaks = np.flatnonzero(gaps > max_gap)
        starts = np.concatenate(([0], breaks + 1))
        ends = np.concatenate((breaks, [ts.size - 1]))
        # A lone heartbeat still proves ~one sampling period of uptime.
        return cls(
            (float(ts[i]), float(max(ts[j], ts[i] + 1.0)))
            for i, j in zip(starts, ends)
        )
