"""Statistical inference for the paper's group comparisons.

The paper argues from CDF plots that developed and developing homes differ
(Figs. 3, 4, 11) and acknowledges its small samples ("some country data
... may be inconclusive", Section 4.1).  This module quantifies those
comparisons with the standard nonparametric machinery — two-sample
Kolmogorov-Smirnov and Mann-Whitney U — plus a bootstrap interval for
medians, so every "X sees more than Y" claim carries a p-value and an
effect size.

scipy provides the test statistics; everything else is assembled here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy import stats as scipy_stats

from repro.core import availability
from repro.core.datasets import StudyData, fold_homes
from repro.core.records import Spectrum


@dataclass(frozen=True)
class GroupComparison:
    """One two-sample comparison with tests and effect size."""

    quantity: str
    n_a: int
    n_b: int
    median_a: float
    median_b: float
    #: Kolmogorov-Smirnov two-sample statistic and p-value.
    ks_statistic: float
    ks_pvalue: float
    #: Mann-Whitney U p-value (two-sided).
    mw_pvalue: float
    #: Cliff's delta in [-1, 1]: probability-scale effect size
    #: (positive ⇒ group A stochastically larger).
    cliffs_delta: float

    @property
    def significant(self) -> bool:
        """True when both tests reject at the 5% level."""
        return self.ks_pvalue < 0.05 and self.mw_pvalue < 0.05

    @property
    def effect_label(self) -> str:
        """Conventional |delta| bands: negligible/small/medium/large."""
        magnitude = abs(self.cliffs_delta)
        if magnitude < 0.147:
            return "negligible"
        if magnitude < 0.33:
            return "small"
        if magnitude < 0.474:
            return "medium"
        return "large"


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta: P(a > b) − P(a < b) over all cross pairs."""
    a_arr = np.asarray(list(a), dtype=float)
    b_arr = np.asarray(list(b), dtype=float)
    if a_arr.size == 0 or b_arr.size == 0:
        raise ValueError("both samples must be non-empty")
    greater = np.sum(a_arr[:, None] > b_arr[None, :])
    lesser = np.sum(a_arr[:, None] < b_arr[None, :])
    return float((greater - lesser) / (a_arr.size * b_arr.size))


def compare_samples(quantity: str, a: Sequence[float],
                    b: Sequence[float]) -> GroupComparison:
    """Run the full comparison battery on two samples."""
    a_arr = np.asarray(list(a), dtype=float)
    b_arr = np.asarray(list(b), dtype=float)
    if a_arr.size < 2 or b_arr.size < 2:
        raise ValueError("need at least two observations per group")
    ks = scipy_stats.ks_2samp(a_arr, b_arr)
    mw = scipy_stats.mannwhitneyu(a_arr, b_arr, alternative="two-sided")
    return GroupComparison(
        quantity=quantity,
        n_a=int(a_arr.size),
        n_b=int(b_arr.size),
        median_a=float(np.median(a_arr)),
        median_b=float(np.median(b_arr)),
        ks_statistic=float(ks.statistic),
        ks_pvalue=float(ks.pvalue),
        mw_pvalue=float(mw.pvalue),
        cliffs_delta=cliffs_delta(a_arr, b_arr),
    )


def bootstrap_median_ci(samples: Sequence[float],
                        confidence: float = 0.95,
                        iterations: int = 2000,
                        seed: int = 0) -> Tuple[float, float]:
    """Percentile-bootstrap confidence interval for a median."""
    arr = np.asarray(list(samples), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(iterations, arr.size))
    medians = np.median(arr[idx], axis=1)
    alpha = (1 - confidence) / 2
    return (float(np.quantile(medians, alpha)),
            float(np.quantile(medians, 1 - alpha)))


# -- the paper's group claims, tested ------------------------------------------------

def development_divide(data: StudyData) -> List[GroupComparison]:
    """Test every developed-vs-developing claim the data supports.

    Returns one :class:`GroupComparison` per claim (downtime rate, downtime
    duration, neighbor APs); claims without enough data in both groups are
    skipped.
    """
    from repro.core import infrastructure  # local to avoid cycle at import

    heartbeats = fold_homes(availability.HeartbeatFold(data.routers),
                            data.heartbeats)
    wifi = fold_homes(infrastructure.WifiFold(data.routers), data.wifi_scans)
    claims = [
        ("downtimes/day (developing vs developed)",
         heartbeats.rates["developing"], heartbeats.rates["developed"]),
        ("downtime duration seconds (developing vs developed)",
         heartbeats.durations["developing"],
         heartbeats.durations["developed"]),
        ("2.4 GHz neighbor APs (developed vs developing)",
         wifi.neighbor_aps[(Spectrum.GHZ_2_4, "developed")],
         wifi.neighbor_aps[(Spectrum.GHZ_2_4, "developing")]),
    ]
    comparisons: List[GroupComparison] = []
    for label, a, b in claims:
        if a.n >= 2 and b.n >= 2:
            comparisons.append(compare_samples(
                label, a.to_cdf().values.tolist(), b.to_cdf().values.tolist()))
    return comparisons
