"""The ISP access link: capacity, outages, and the bufferbloat queue.

Three paper findings live here:

* Heartbeats vanish when the *link* is down even though the router is
  powered (Fig. 6c) — outages arrive as a background Poisson process plus
  occasional multi-day "bad periods" with an elevated rate, which is what
  the April-2013 sporadic-outage household looked like.
* ShaperProbe measures access capacity every 12 hours (the Capacity data
  set); estimates are stable with small noise (Fig. 14's flat dotted line).
* A deep modem buffer ("bufferbloat") lets gateway-side per-second
  throughput counts exceed line rate while the buffer fills, which is how
  uplink utilization can exceed measured capacity (Figs. 15, 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.intervals import IntervalSet
from repro.simulation.timebase import DAY

MBPS = 1e6  # bits per second in one Mbps

#: A capacity probe's multiplicative noise sigma, and its Mbps floor.
CAPACITY_NOISE = 0.03
CAPACITY_FLOOR_MBPS = 0.05


@dataclass(frozen=True)
class AccessLinkConfig:
    """Static parameters of one home's access link."""

    downstream_mbps: float
    upstream_mbps: float
    #: Background mean outages per day (any duration).
    outage_rate_per_day: float
    #: Median outage duration, seconds.
    outage_median_seconds: float
    #: Lognormal sigma of outage durations.
    outage_duration_sigma: float
    #: Mean arrivals per day of multi-day elevated-outage periods.
    bad_period_rate_per_day: float = 1.0 / 120.0
    #: Outage-rate multiplier while inside a bad period.
    bad_period_multiplier: float = 15.0
    #: How far gateway-side uplink throughput can exceed line rate while the
    #: modem buffer fills: 0 disables bufferbloat, 1.2 allows up to 2.2x
    #: line rate (Fig. 15's worst home sits near 2.5).
    bufferbloat_overshoot: float = 1.2

    def __post_init__(self) -> None:
        if self.downstream_mbps <= 0 or self.upstream_mbps <= 0:
            raise ValueError("link capacities must be positive")
        if self.outage_rate_per_day < 0:
            raise ValueError("outage rate cannot be negative")
        if self.bufferbloat_overshoot < 0:
            raise ValueError("bufferbloat overshoot cannot be negative")


class AccessLink:
    """One home's access link over the study span.

    Outage intervals are generated once at construction (deterministic per
    seed); capacity probes and uplink shaping are pure functions of the
    stored state plus the caller's RNG.
    """

    def __init__(self, rng: np.random.Generator,
                 span: Tuple[float, float],
                 config: AccessLinkConfig):
        if span[1] <= span[0]:
            raise ValueError("link span must be non-empty")
        self.span = span
        self.config = config
        self._outages = self._generate_outages(rng)
        self.up = self._outages.complement(span)

    @classmethod
    def from_columns(cls, span: Tuple[float, float], config: AccessLinkConfig,
                     outages: IntervalSet, up: IntervalSet,
                     bad_periods: IntervalSet) -> "AccessLink":
        """Rebuild a link from cohort columns (no RNG consumed)."""
        obj = cls.__new__(cls)
        obj.span = span
        obj.config = config
        obj._outages = outages
        obj.up = up
        obj.bad_periods = bad_periods
        return obj

    # -- outage process -------------------------------------------------------

    def _generate_outages(self, rng: np.random.Generator) -> IntervalSet:
        start, end = self.span
        cfg = self.config
        events: List[Tuple[np.ndarray, np.ndarray]] = []

        bad_periods = self._bad_periods(rng)
        events.append(self._poisson_outages(rng, (start, end),
                                            cfg.outage_rate_per_day))
        for period in bad_periods:
            events.append(self._poisson_outages(
                rng, period,
                cfg.outage_rate_per_day * cfg.bad_period_multiplier))
        self.bad_periods = IntervalSet(bad_periods)
        return IntervalSet.from_event_arrays(
            np.concatenate([s for s, _ in events]),
            np.concatenate([e for _, e in events])).clip(start, end)

    def _bad_periods(self, rng: np.random.Generator) -> List[Tuple[float, float]]:
        start, end = self.span
        expected = (end - start) / DAY * self.config.bad_period_rate_per_day
        count = int(rng.poisson(expected))
        periods = []
        for _ in range(count):
            p_start = float(rng.uniform(start, end))
            p_len = float(rng.uniform(2.0, 8.0)) * DAY
            periods.append((p_start, min(p_start + p_len, end)))
        return periods

    def _poisson_outages(self, rng: np.random.Generator,
                         window: Tuple[float, float],
                         rate_per_day: float,
                         ) -> Tuple[np.ndarray, np.ndarray]:
        start, end = window
        if end <= start or rate_per_day <= 0:
            return np.empty(0), np.empty(0)
        cfg = self.config
        count = int(rng.poisson((end - start) / DAY * rate_per_day))
        if count == 0:
            return np.empty(0), np.empty(0)
        times = rng.uniform(start, end, size=count)
        durations = rng.lognormal(np.log(cfg.outage_median_seconds),
                                  cfg.outage_duration_sigma, size=count)
        return times, np.minimum(times + durations, end)

    # -- queries ---------------------------------------------------------------

    def up_intervals(self, start: float, end: float) -> IntervalSet:
        """Link-up intervals clipped to ``[start, end)``."""
        return self.up.clip(start, end)

    def is_up(self, epoch: float) -> bool:
        """True when the access link is passing traffic at *epoch*."""
        return self.up.contains(epoch)

    @property
    def downstream_bps(self) -> float:
        """Line rate toward the home, bits/second."""
        return self.config.downstream_mbps * MBPS

    @property
    def upstream_bps(self) -> float:
        """Line rate toward the Internet, bits/second."""
        return self.config.upstream_mbps * MBPS

    # -- ShaperProbe-style capacity measurement ---------------------------------

    def measure_capacity(self, epoch: float,
                         rng: np.random.Generator) -> "Tuple[float, float] | None":
        """Probe the link at *epoch*; returns (down, up) Mbps or None if down.

        Estimates carry ~3% multiplicative noise, matching the paper's
        near-constant capacity lines in Fig. 14.
        """
        if not self.is_up(epoch):
            return None
        noise_down = float(rng.normal(1.0, CAPACITY_NOISE))
        noise_up = float(rng.normal(1.0, CAPACITY_NOISE))
        down = max(self.config.downstream_mbps * noise_down,
                   CAPACITY_FLOOR_MBPS)
        up = max(self.config.upstream_mbps * noise_up, CAPACITY_FLOOR_MBPS)
        return (down, up)

    # -- bufferbloat shaping -----------------------------------------------------

    def shape_uplink_peak(self, offered_bps: float,
                          rng: np.random.Generator) -> float:
        """Gateway-side peak 1-second uplink throughput for an offered load.

        Below line rate the gateway sees the offered load.  At or above line
        rate, the modem buffer absorbs the excess, so the *gateway-side*
        counter transiently exceeds line rate by up to the configured
        overshoot — the paper's bufferbloat artifact (Fig. 16a).
        """
        if offered_bps < 0:
            raise ValueError("offered load cannot be negative")
        capacity = self.upstream_bps
        if offered_bps < capacity:
            return offered_bps
        if offered_bps < 1.15 * capacity:
            # A transient spike drains before the buffer builds a backlog.
            return capacity
        overshoot = self.config.bufferbloat_overshoot
        factor = 1.0 + overshoot * float(rng.uniform(0.3, 1.0))
        return min(offered_bps, capacity * factor)

    def shape_downlink_peak(self, offered_bps: float) -> float:
        """Downlink peak: the remote side paces, so it caps at line rate."""
        if offered_bps < 0:
            raise ValueError("offered load cannot be negative")
        return min(offered_bps, self.downstream_bps)

    # -- vectorized shaping ------------------------------------------------------
    #
    # Array equivalents of the two scalar shapers, used by the traffic
    # monitor's per-minute series.  Both preserve the scalar semantics
    # element-wise, and `shape_uplink_peak_many` consumes the RNG exactly
    # as the scalar loop would: one uniform draw per minute whose offered
    # load reaches the bufferbloat region, in minute order, and none
    # elsewhere — so a vectorized caller stays bitwise-identical.

    def shape_uplink_peak_many(self, offered_bps: "np.ndarray",
                               rng: np.random.Generator) -> "np.ndarray":
        """Vectorized :meth:`shape_uplink_peak` over a minute series."""
        offered = np.asarray(offered_bps, dtype=float)
        if np.any(offered < 0):
            raise ValueError("offered load cannot be negative")
        capacity = self.upstream_bps
        peaks = offered.copy()
        spike = (offered >= capacity) & (offered < 1.15 * capacity)
        peaks[spike] = capacity
        backlog = offered >= 1.15 * capacity
        n_backlog = int(np.count_nonzero(backlog))
        if n_backlog:
            draws = rng.uniform(0.3, 1.0, size=n_backlog)
            factor = 1.0 + self.config.bufferbloat_overshoot * draws
            peaks[backlog] = np.minimum(offered[backlog], capacity * factor)
        return peaks

    def shape_downlink_peak_many(self,
                                 offered_bps: "np.ndarray") -> "np.ndarray":
        """Vectorized :meth:`shape_downlink_peak` over a minute series."""
        offered = np.asarray(offered_bps, dtype=float)
        if np.any(offered < 0):
            raise ValueError("offered load cannot be negative")
        return np.minimum(offered, self.downstream_bps)
