"""Online accumulators: the state of every figure's fold.

Each Section 4-6 figure is a per-home fold in its section module
(:mod:`repro.core.availability`, :mod:`repro.core.infrastructure`,
:mod:`repro.core.usage`) that keeps its state here, so a pass over a
million-home archive holds one home's records, never the archive:

* :class:`QuantileSketch` — the ``EmpiricalCdf`` query interface
  (``quantile``, ``median``, ``fraction_at_most/least``, ``series``,
  ``n``, ``mean``) over a t-digest-style merging-centroid summary.
  Below :attr:`~QuantileSketch.exact_threshold` samples it keeps the raw
  values and delegates every query to a real ``EmpiricalCdf``;
  :func:`exact_sketch` never leaves that mode.  Past the threshold it
  compresses into at most ~2x``compression`` centroids with the classic
  rank-error bound: tightest at the tails, worst (~``1/compression``
  relative rank) at the median; :data:`QUANTILE_RANK_TOLERANCE` is the
  bound CI asserts.
* :class:`StreamingMeanSpread` — Welford's online mean/variance,
  finalized into a :class:`~repro.core.stats.MeanWithSpread`.
* :class:`StreamingHourProfile` — 24-slot sum/count accumulation,
  finalized via :meth:`HourOfDayProfile.from_sums`.
* :class:`RankedShareAccumulator` — running padded rank sums;
  :func:`repro.core.stats.mean_ranked_shares` is implemented on top of
  it.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.stats import EmpiricalCdf, HourOfDayProfile, MeanWithSpread

#: Declared rank-error bound for a *compressed* sketch: for every q,
#: ``sketch.quantile(q)`` lies between the exact quantiles at
#: ``q - tol`` and ``q + tol``, and ``fraction_at_most`` is within
#: ``+/- tol`` of the exact fraction.  With ``compression=200`` the
#: worst-case mid-distribution error is ~1/200; 0.02 adds slack for
#: interpolation.  Uncompressed sketches are bitwise-exact.
QUANTILE_RANK_TOLERANCE = 0.02

#: Sample count up to which the sketch stays exact.  Every per-country /
#: per-group distribution in a paper-scale (126-home) study is far below
#: this, so small studies reproduce the exact figures bitwise.
DEFAULT_EXACT_THRESHOLD = 4096


def _k_scale(q: float, compression: float) -> float:
    """The t-digest k1 scale function: maps quantile to centroid index."""
    return compression / (2.0 * math.pi) * math.asin(
        min(1.0, max(-1.0, 2.0 * q - 1.0)))


def _k_scale_inv(k: float, compression: float) -> float:
    """Inverse of :func:`_k_scale` (clamped to [0, 1])."""
    return min(1.0, max(0.0, (1.0 + math.sin(
        2.0 * math.pi * k / compression)) / 2.0))


class QuantileSketch:
    """A quantile sketch behind the ``EmpiricalCdf`` interface.

    Exact below ``exact_threshold`` samples (queries delegate to a cached
    :class:`EmpiricalCdf` over the raw values), t-digest merging-centroid
    summary above it (memory bounded by ~2x``compression`` centroids no
    matter how many samples stream through).
    """

    def __init__(self, compression: int = 200,
                 exact_threshold: int = DEFAULT_EXACT_THRESHOLD):
        if compression < 20:
            raise ValueError("compression must be at least 20")
        self.compression = compression
        self.exact_threshold = exact_threshold
        #: Raw values while exact; None once compressed (one-way door).
        self._exact: Optional[List[float]] = []
        self._cdf: Optional[EmpiricalCdf] = None
        self._means = np.empty(0)
        self._weights = np.empty(0)
        self._buffer: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- ingest ------------------------------------------------------------------

    def add(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        self._cdf = None
        if self._exact is not None:
            self._exact.append(value)
            if len(self._exact) > self.exact_threshold:
                self._buffer = self._exact
                self._exact = None
                self._compress()
            return
        self._buffer.append(value)
        if len(self._buffer) >= 4 * self.compression:
            self._compress()

    def add_many(self, values: Iterable[float]) -> None:
        """Add a batch of observations."""
        for value in np.asarray(
                values if isinstance(values, np.ndarray) else list(values),
                dtype=float).ravel():
            self.add(value)

    def _compress(self) -> None:
        """Fold the buffer into the centroid summary (k1 size limits)."""
        if self._buffer:
            points = np.asarray(self._buffer, dtype=float)
            self._buffer = []
            self._means = np.concatenate([self._means, points])
            self._weights = np.concatenate(
                [self._weights, np.ones(points.size)])
        if self._means.size <= 1:
            return
        order = np.argsort(self._means, kind="stable")
        means = self._means[order]
        weights = self._weights[order]
        total = float(weights.sum())
        out_means: List[float] = []
        out_weights: List[float] = []
        cur_mean = float(means[0])
        cur_weight = float(weights[0])
        emitted = 0.0  # weight already flushed to out_*
        q_limit = _k_scale_inv(_k_scale(0.0, self.compression) + 1.0,
                               self.compression)
        for mean, weight in zip(means[1:], weights[1:]):
            candidate = (emitted + cur_weight + weight) / total
            if candidate <= q_limit:
                cur_weight += weight
                cur_mean += weight * (mean - cur_mean) / cur_weight
            else:
                out_means.append(cur_mean)
                out_weights.append(cur_weight)
                emitted += cur_weight
                q_limit = _k_scale_inv(
                    _k_scale(emitted / total, self.compression) + 1.0,
                    self.compression)
                cur_mean = float(mean)
                cur_weight = float(weight)
        out_means.append(cur_mean)
        out_weights.append(cur_weight)
        self._means = np.asarray(out_means)
        self._weights = np.asarray(out_weights)

    # -- queries -----------------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of observations added."""
        return self._count

    @property
    def compressed(self) -> bool:
        """True once the sketch left exact mode (error bounds apply)."""
        return self._exact is None

    @property
    def mean(self) -> float:
        """The exact CDF's mean while exact, then the running mean."""
        if self._count == 0:
            return float("nan")
        if self._exact is not None:
            return self._exact_cdf().mean
        return self._sum / self._count

    def _exact_cdf(self) -> EmpiricalCdf:
        if self._cdf is None:
            self._cdf = EmpiricalCdf.from_samples(self._exact or [])
        return self._cdf

    def _centroid_centers(self) -> Tuple[np.ndarray, np.ndarray]:
        """Centroid means and the cumulative weight at each center."""
        self._compress()
        cum = np.cumsum(self._weights)
        centers = cum - self._weights / 2.0
        return self._means, centers

    def quantile(self, q: float) -> float:
        """The q-quantile (0 <= q <= 1); exact or within the rank bound."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if self._count == 0:
            raise ValueError("quantile of an empty CDF")
        if self._exact is not None:
            return self._exact_cdf().quantile(q)
        means, centers = self._centroid_centers()
        index = q * self._count
        if means.size == 1 or index <= centers[0]:
            if centers[0] <= 0:
                return float(means[0])
            lo, hi = self._min, float(means[0])
            frac = index / centers[0]
            return float(lo + frac * (hi - lo))
        if index >= centers[-1]:
            span = self._count - centers[-1]
            if span <= 0:
                return float(means[-1])
            frac = (index - centers[-1]) / span
            return float(means[-1] + frac * (self._max - means[-1]))
        hi_idx = int(np.searchsorted(centers, index, side="right"))
        lo_idx = hi_idx - 1
        span = centers[hi_idx] - centers[lo_idx]
        frac = 0.0 if span <= 0 else (index - centers[lo_idx]) / span
        return float(means[lo_idx] + frac * (means[hi_idx] - means[lo_idx]))

    @property
    def median(self) -> float:
        """Convenience for :meth:`quantile` at 0.5."""
        return self.quantile(0.5)

    def _cdf_at(self, threshold: float) -> float:
        means, centers = self._centroid_centers()
        if threshold < self._min:
            return 0.0
        if threshold >= self._max:
            return 1.0
        # Piecewise-linear through (min, 0), every centroid center, (max, n).
        xs = np.concatenate([[self._min], means, [self._max]])
        ys = np.concatenate([[0.0], centers, [float(self._count)]])
        return float(np.interp(threshold, xs, ys) / self._count)

    def fraction_at_most(self, threshold: float) -> float:
        """P(X <= threshold); exact or within the rank bound."""
        if self._count == 0:
            raise ValueError("fraction of an empty CDF")
        if self._exact is not None:
            return self._exact_cdf().fraction_at_most(threshold)
        return self._cdf_at(threshold)

    def fraction_at_least(self, threshold: float) -> float:
        """P(X >= threshold); exact or within the rank bound."""
        if self._count == 0:
            raise ValueError("fraction of an empty CDF")
        if self._exact is not None:
            return self._exact_cdf().fraction_at_least(threshold)
        return 1.0 - self._cdf_at(threshold)

    def series(self, points: int = 50) -> List[Tuple[float, float]]:
        """Downsample to ~*points* (value, fraction) pairs for rendering."""
        if self._count == 0:
            return []
        if self._exact is not None:
            return self._exact_cdf().series(points)
        means, centers = self._centroid_centers()
        values = np.concatenate([[self._min], means, [self._max]])
        fractions = np.concatenate(
            [[0.0], centers / self._count, [1.0]])
        if values.size <= points:
            return list(zip(values.tolist(), fractions.tolist()))
        idx = np.unique(np.linspace(0, values.size - 1, points).astype(int))
        return [(float(values[i]), float(fractions[i])) for i in idx]

    def to_cdf(self) -> EmpiricalCdf:
        """Materialize an :class:`EmpiricalCdf` view of this sketch.

        Exact mode returns the true empirical CDF; compressed mode returns
        the centroid-center approximation (same data :meth:`series` plots).
        """
        if self._exact is not None:
            return self._exact_cdf()
        means, centers = self._centroid_centers()
        return EmpiricalCdf(values=means.copy(),
                            fractions=centers / max(self._count, 1))


def exact_sketch() -> QuantileSketch:
    """A sketch that never compresses: it answers as an EmpiricalCdf."""
    return QuantileSketch(exact_threshold=sys.maxsize)


class StreamingMeanSpread:
    """Welford online mean/std, finalized as a ``MeanWithSpread``.

    Sequential, so it agrees with numpy's pairwise
    :meth:`MeanWithSpread.from_samples` only to the last few bits (both
    are stable).  Every Figs. 8/9 bar and the port mean come from here.
    """

    __slots__ = ("_n", "_mean", "_m2")

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Add one observation."""
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)

    @property
    def n(self) -> int:
        return self._n

    def result(self) -> MeanWithSpread:
        """Finalize (nan mean/std for an empty accumulator)."""
        if self._n == 0:
            return MeanWithSpread(mean=float("nan"), std=float("nan"), n=0)
        return MeanWithSpread(mean=self._mean,
                              std=math.sqrt(max(self._m2, 0.0) / self._n),
                              n=self._n)


class StreamingHourProfile:
    """24-slot sum/count accumulation for :class:`HourOfDayProfile`.

    Adding each (hour, value) sample in record order performs the same
    float additions ``np.add.at`` does in
    :meth:`HourOfDayProfile.from_samples`, so the profiles are bitwise
    identical.
    """

    __slots__ = ("_sums", "_counts")

    def __init__(self) -> None:
        self._sums = np.zeros(24)
        self._counts = np.zeros(24)

    def add(self, hour: int, value: float) -> None:
        """Add one sample (hour must be 0..23)."""
        if not 0 <= hour <= 23:
            raise ValueError("hours must be in 0..23")
        self._sums[hour] += value
        self._counts[hour] += 1

    def add_many(self, hours: np.ndarray, values: np.ndarray) -> None:
        """Add samples in order, as :meth:`add` one at a time would: the
        same float additions per slot (``np.add.at`` applies them in
        index order).  Any hour outside 0..23 rejects the whole batch."""
        hours = np.asarray(hours)
        if hours.size and not 0 <= hours.min() <= hours.max() <= 23:
            raise ValueError("hours must be in 0..23")
        np.add.at(self._sums, hours, values)
        self._counts += np.bincount(hours, minlength=24)

    def result(self) -> HourOfDayProfile:
        return HourOfDayProfile.from_sums(self._sums.copy(),
                                          self._counts.copy())


class RankedShareAccumulator:
    """Running mean of the rank-k share across homes (Figs. 17-19 shape).

    :func:`repro.core.stats.mean_ranked_shares` delegates to this class,
    so exact and streamed ranked shares are identical by construction.
    """

    __slots__ = ("_sums", "_homes")

    def __init__(self, ranks: int) -> None:
        if ranks <= 0:
            raise ValueError("ranks must be positive")
        self._sums = np.zeros(ranks)
        self._homes = 0

    def add(self, share_vec: np.ndarray) -> None:
        """Add one home's descending share vector (padded with zeros)."""
        vec = np.asarray(share_vec, dtype=float)
        take = min(self._sums.size, vec.size)
        self._sums[:take] += vec[:take]
        self._homes += 1

    def result(self) -> np.ndarray:
        """The mean share per rank (zeros when no home was added)."""
        if self._homes == 0:
            return np.zeros(self._sums.size)
        return self._sums / self._homes
