"""Interval algebra over half-open time ranges ``[start, end)``.

Both the simulator (router power periods, ISP outages, device association
spans) and the availability analysis (up-intervals reconstructed from
heartbeats, gap extraction) work in terms of sets of disjoint intervals.
:class:`IntervalSet` provides the normalized representation plus the set
operations the pipeline needs: union, intersection, complement, clipping,
and total duration.

Storage is dual: a set can be *tuple-backed* (built from Python pairs, the
historical path) or *array-backed* (built by the columnar materializer from
``(starts, ends)`` float arrays).  Either backing lazily produces the other
representation on demand, and every operation yields bitwise-identical
floats regardless of backing — the digest-pin suite holds that invariant.
In particular :meth:`total_duration` always sums interval lengths in
sequential order (never ``np.sum``'s pairwise reduction), because analysis
thresholds compare against those sums.
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

    The exact array counterpart of the tuple-path normalization: sort by
    ``(start, end)``, then merge any interval whose start does not exceed
    the running maximum end.  Returns new ``(starts, ends)`` arrays.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    keep = ends > starts
    if not keep.all():
        starts = starts[keep]
        ends = ends[keep]
    if starts.size == 0:
        return starts, ends
    if not (np.isfinite(starts).all() and np.isfinite(ends).all()):
        raise ValueError("non-finite interval bounds")
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
        arr = self._array
        # Element-wise subtraction then a sequential Python sum: identical
        # floats to the tuple path (np.sum's pairwise order would not be).
        return float(sum((arr[:, 1] - arr[:, 0]).tolist()))

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
        instants = np.asarray(instants, dtype=float)
        if not self:
            return np.zeros(instants.shape, dtype=bool)
        arr = self._as_array()
        idx = np.searchsorted(arr[:, 0], instants, side="right") - 1
        valid = idx >= 0
        # maximum() instead of np.clip: the searchsorted already bounds
        # idx above, and clip's dtype-limit probing dominated this path.
        clamped = np.maximum(idx, 0)
        inside = (instants >= arr[clamped, 0]) & (instants < arr[clamped, 1])
        return valid & inside

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
            return self._intersection_arrays(other)
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

    def _intersection_arrays(self, other: "IntervalSet") -> "IntervalSet":
        """Array path of :meth:`intersection`: identical pairs and floats.

        For each interval of ``self``, the overlapping run of ``other`` is
        located by binary search; the overlap of each pair is
        ``(max(starts), min(ends))`` exactly as in the two-pointer sweep.
        """
        a = self._as_array()
        b = other._as_array()
        if a.shape[0] == 0 or b.shape[0] == 0:
            return IntervalSet.from_normalized_arrays(
                np.empty(0), np.empty(0))
        lo = np.searchsorted(b[:, 1], a[:, 0], side="right")
        hi = np.searchsorted(b[:, 0], a[:, 1], side="left")
        counts = hi - lo
        pos = counts > 0
        if not pos.any():
            return IntervalSet.from_normalized_arrays(
                np.empty(0), np.empty(0))
        a_idx = np.repeat(np.flatnonzero(pos), counts[pos])
        offsets = np.concatenate(([0], np.cumsum(counts[pos])))[:-1]
        b_idx = (np.arange(a_idx.size) - np.repeat(offsets, counts[pos])
                 + np.repeat(lo[pos], counts[pos]))
        starts = np.maximum(a[a_idx, 0], b[b_idx, 0])
        ends = np.minimum(a[a_idx, 1], b[b_idx, 1])
        keep = ends > starts
        return IntervalSet.from_normalized_arrays(starts[keep], ends[keep])

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
        if end <= start:
            return IntervalSet()
        if self._tuple is None:
            arr = self._array
            keep = (arr[:, 1] > start) & (arr[:, 0] < end)
            return IntervalSet.from_normalized_arrays(
                np.maximum(arr[keep, 0], start),
                np.minimum(arr[keep, 1], end))
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
        gaps = np.diff(ts)
        if np.any(gaps < 0):
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
