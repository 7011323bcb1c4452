"""Tests for the streaming accumulators in repro.core.sketches.

The contract under test: below the exact threshold a QuantileSketch is
bitwise-identical to EmpiricalCdf; past it, every quantile stays within
the declared rank-error bound; the other accumulators match their exact
counterparts bitwise (hour profiles, ranked shares) or to float noise
(Welford mean/std).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.sketches import (
    QUANTILE_RANK_TOLERANCE,
    QuantileSketch,
    RankedShareAccumulator,
    StreamingHourProfile,
    StreamingMeanSpread,
)
from repro.core.stats import (
    EmpiricalCdf,
    HourOfDayProfile,
    MeanWithSpread,
    mean_ranked_shares,
)

samples = st.lists(st.floats(min_value=-1e6, max_value=1e6,
                             allow_nan=False), min_size=1, max_size=200)


def rank_bounds(values, q, tol=QUANTILE_RANK_TOLERANCE):
    """Exact quantiles at q -/+ tol — the declared sketch error band."""
    arr = np.sort(np.asarray(values, dtype=float))
    lo = float(np.quantile(arr, max(0.0, q - tol)))
    hi = float(np.quantile(arr, min(1.0, q + tol)))
    return lo, hi


class TestQuantileSketchExactMode:
    """Below the threshold the sketch IS an EmpiricalCdf."""

    @given(samples)
    @example([0.1] * 10 + [0.2] * 7)  # sequential sum != numpy's mean
    @settings(max_examples=50)
    def test_bitwise_equal_to_empirical_cdf(self, xs):
        sketch = QuantileSketch()
        sketch.add_many(xs)
        cdf = EmpiricalCdf.from_samples(xs)
        assert not sketch.compressed
        assert sketch.n == cdf.n
        assert sketch.mean == cdf.mean
        for q in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
            assert sketch.quantile(q) == cdf.quantile(q)
        for threshold in (min(xs), max(xs), np.median(xs), 0.0):
            assert sketch.fraction_at_most(threshold) == \
                cdf.fraction_at_most(threshold)
            assert sketch.fraction_at_least(threshold) == \
                cdf.fraction_at_least(threshold)
        assert sketch.series() == cdf.series()

    def test_mean_matches(self):
        sketch = QuantileSketch()
        sketch.add_many([1.0, 2.0, 4.0])
        assert sketch.mean == pytest.approx(7.0 / 3.0)

    def test_empty(self):
        sketch = QuantileSketch()
        assert sketch.n == 0
        assert np.isnan(sketch.mean)
        assert sketch.series() == []
        with pytest.raises(ValueError):
            sketch.quantile(0.5)
        with pytest.raises(ValueError):
            sketch.fraction_at_most(1.0)

    def test_single_sample(self):
        sketch = QuantileSketch()
        sketch.add(3.5)
        assert sketch.median == 3.5
        assert sketch.fraction_at_most(3.5) == 1.0
        assert sketch.fraction_at_least(3.5) == 1.0

    def test_quantile_bounds_validated(self):
        sketch = QuantileSketch()
        sketch.add(1.0)
        with pytest.raises(ValueError):
            sketch.quantile(-0.1)
        with pytest.raises(ValueError):
            sketch.quantile(1.1)

    def test_compression_validated(self):
        with pytest.raises(ValueError):
            QuantileSketch(compression=5)


class TestQuantileSketchCompressed:
    """Past the threshold: bounded memory, bounded rank error."""

    def _filled(self, values, threshold=256):
        sketch = QuantileSketch(compression=100, exact_threshold=threshold)
        sketch.add_many(values)
        return sketch

    def test_compresses_past_threshold(self):
        rng = np.random.default_rng(7)
        values = rng.normal(size=5000)
        sketch = self._filled(values)
        assert sketch.compressed
        assert sketch.n == 5000
        # Memory bound: centroids, not samples.
        sketch._compress()
        assert sketch._means.size < 400

    @pytest.mark.parametrize("dist", ["normal", "lognormal", "uniform",
                                      "bimodal"])
    def test_quantiles_within_rank_tolerance(self, dist):
        rng = np.random.default_rng(13)
        values = {
            "normal": rng.normal(size=20000),
            "lognormal": rng.lognormal(size=20000),
            "uniform": rng.uniform(size=20000),
            "bimodal": np.concatenate([rng.normal(-10, 1, 10000),
                                       rng.normal(10, 1, 10000)]),
        }[dist]
        sketch = self._filled(values)
        for q in (0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99):
            lo, hi = rank_bounds(values, q)
            assert lo <= sketch.quantile(q) <= hi, f"q={q}"

    def test_extremes_exact(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=10000)
        sketch = self._filled(values)
        assert sketch.quantile(0.0) == float(values.min())
        assert sketch.quantile(1.0) == float(values.max())

    def test_fraction_at_most_within_tolerance(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=20000)
        sketch = self._filled(values)
        for threshold in (-2.0, -0.5, 0.0, 0.5, 2.0):
            exact = float((values <= threshold).mean())
            approx = sketch.fraction_at_most(threshold)
            assert abs(approx - exact) <= QUANTILE_RANK_TOLERANCE
            assert sketch.fraction_at_least(threshold) == \
                pytest.approx(1.0 - approx)

    def test_mean_stays_exact(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=20000)
        sketch = self._filled(values)
        assert sketch.mean == pytest.approx(float(values.mean()), rel=1e-12)

    def test_series_is_valid_cdf(self):
        rng = np.random.default_rng(17)
        sketch = self._filled(rng.normal(size=20000))
        series = sketch.series(points=40)
        xs = [x for x, _ in series]
        fs = [f for _, f in series]
        assert xs == sorted(xs)
        assert fs == sorted(fs)
        assert fs[0] == 0.0 and fs[-1] == 1.0


class TestQuantileSketchMerge:
    def test_merge_exact_stays_exact(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.add_many([1.0, 2.0])
        b.add_many([3.0, 4.0])
        a.merge(b)
        assert not a.compressed
        cdf = EmpiricalCdf.from_samples([1.0, 2.0, 3.0, 4.0])
        assert a.median == cdf.median
        assert a.n == 4

    def test_merge_empty_is_noop(self):
        a, b = QuantileSketch(), QuantileSketch()
        a.add(1.0)
        a.merge(b)
        assert a.n == 1 and a.median == 1.0
        b.merge(a)
        assert b.n == 1 and b.median == 1.0

    def test_merge_overflowing_compresses_without_double_count(self):
        a = QuantileSketch(compression=100, exact_threshold=100)
        b = QuantileSketch(compression=100, exact_threshold=100)
        rng = np.random.default_rng(23)
        xs, ys = rng.normal(size=80), rng.normal(size=80)
        a.add_many(xs)
        b.add_many(ys)
        a.merge(b)
        assert a.compressed
        assert a.n == 160
        combined = np.concatenate([xs, ys])
        assert a.mean == pytest.approx(float(combined.mean()), rel=1e-12)
        for q in (0.1, 0.5, 0.9):
            lo, hi = rank_bounds(combined, q)
            assert lo <= a.quantile(q) <= hi

    def test_merge_compressed_sketches(self):
        rng = np.random.default_rng(29)
        xs, ys = rng.normal(size=5000), rng.normal(3.0, 1.0, size=5000)
        a = QuantileSketch(compression=100, exact_threshold=256)
        b = QuantileSketch(compression=100, exact_threshold=256)
        a.add_many(xs)
        b.add_many(ys)
        a.merge(b)
        combined = np.concatenate([xs, ys])
        assert a.n == 10000
        for q in (0.05, 0.5, 0.95):
            lo, hi = rank_bounds(combined, q)
            assert lo <= a.quantile(q) <= hi


class TestStreamingMeanSpread:
    @given(samples)
    @settings(max_examples=50)
    def test_matches_numpy(self, xs):
        acc = StreamingMeanSpread()
        for x in xs:
            acc.add(x)
        exact = MeanWithSpread.from_samples(xs)
        got = acc.result()
        assert got.n == exact.n
        assert got.mean == pytest.approx(exact.mean, rel=1e-9, abs=1e-9)
        assert got.std == pytest.approx(exact.std, rel=1e-9, abs=1e-9)

    def test_empty_is_nan(self):
        got = StreamingMeanSpread().result()
        assert got.n == 0
        assert np.isnan(got.mean) and np.isnan(got.std)

    @given(samples, samples)
    @settings(max_examples=50)
    def test_merge_equals_concat(self, xs, ys):
        a, b, both = (StreamingMeanSpread(), StreamingMeanSpread(),
                      StreamingMeanSpread())
        for x in xs:
            a.add(x)
            both.add(x)
        for y in ys:
            b.add(y)
            both.add(y)
        a.merge(b)
        assert a.result().mean == pytest.approx(both.result().mean,
                                                rel=1e-9, abs=1e-9)
        assert a.result().std == pytest.approx(both.result().std,
                                               rel=1e-9, abs=1e-6)

    def test_merge_into_empty(self):
        a, b = StreamingMeanSpread(), StreamingMeanSpread()
        b.add(2.0)
        b.add(4.0)
        a.merge(b)
        assert a.result().mean == 3.0


class TestStreamingHourProfile:
    def test_bitwise_equal_to_from_samples(self):
        rng = np.random.default_rng(31)
        hours = rng.integers(0, 24, size=500)
        values = rng.uniform(0, 10, size=500)
        acc = StreamingHourProfile()
        for h, v in zip(hours, values):
            acc.add(int(h), float(v))
        exact = HourOfDayProfile.from_samples(hours.tolist(),
                                              values.tolist())
        got = acc.result()
        assert np.array_equal(got.means, exact.means, equal_nan=True)
        assert np.array_equal(got.counts, exact.counts)

    def test_validates_hour(self):
        acc = StreamingHourProfile()
        with pytest.raises(ValueError):
            acc.add(24, 1.0)
        with pytest.raises(ValueError):
            acc.add(-1, 1.0)

    def test_merge(self):
        a, b = StreamingHourProfile(), StreamingHourProfile()
        a.add(3, 1.0)
        b.add(3, 3.0)
        b.add(5, 7.0)
        a.merge(b)
        profile = a.result()
        assert profile.means[3] == 2.0
        assert profile.means[5] == 7.0


class TestRankedShareAccumulator:
    def test_matches_mean_ranked_shares(self):
        vectors = [np.array([0.7, 0.2, 0.1]), np.array([1.0]),
                   np.array([0.5, 0.5])]
        acc = RankedShareAccumulator(4)
        for vec in vectors:
            acc.add(vec)
        assert np.array_equal(acc.result(), mean_ranked_shares(vectors, 4))

    def test_truncates_long_vectors(self):
        acc = RankedShareAccumulator(2)
        acc.add(np.array([0.4, 0.3, 0.2, 0.1]))
        assert np.array_equal(acc.result(), np.array([0.4, 0.3]))

    def test_zero_homes_is_zeros(self):
        assert np.array_equal(RankedShareAccumulator(3).result(),
                              np.zeros(3))

    def test_validates_ranks(self):
        with pytest.raises(ValueError):
            RankedShareAccumulator(0)

    def test_merge_requires_same_ranks(self):
        a, b = RankedShareAccumulator(2), RankedShareAccumulator(3)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge(self):
        a, b = RankedShareAccumulator(2), RankedShareAccumulator(2)
        a.add(np.array([1.0]))
        b.add(np.array([0.5, 0.5]))
        a.merge(b)
        assert a.homes == 2
        assert np.array_equal(a.result(), np.array([0.75, 0.25]))
