"""Section 4: availability of home broadband access.

The methodology follows the paper exactly:

* a router's *up intervals* are reconstructed from its heartbeat log —
  consecutive heartbeats less than ten minutes apart belong to the same up
  interval;
* *downtime* is any gap between consecutive heartbeats of ten minutes or
  longer (shorter gaps are attributed to heartbeat loss);
* downtime *frequency* is events per observed day (Fig. 3), *duration* is
  the gap length (Fig. 4), and both are grouped by development class and
  joined against per-capita GDP (Fig. 5);
* the Uptime data set disambiguates, where it can, whether a downtime was a
  powered-off router or a network outage (Section 4.2 / Fig. 6).

Every deployment-level statistic is defined once, in the per-router
:class:`HeartbeatFold` the public functions run.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.datasets import GROUP, HeartbeatLog, StudyData, fold_homes
from repro.core.intervals import IntervalSet
from repro.core.records import RouterInfo
from repro.core.sketches import QuantileSketch, exact_sketch
from repro.core.stats import EmpiricalCdf
from repro.simulation.timebase import DAY, MINUTE

#: The paper's downtime threshold: gaps of ten minutes or longer.
DOWNTIME_THRESHOLD = 10 * MINUTE


# -- per-router primitives -----------------------------------------------------

def up_intervals(log: HeartbeatLog,
                 max_gap: float = DOWNTIME_THRESHOLD) -> IntervalSet:
    """Reconstruct one router's up intervals from its heartbeat log."""
    return IntervalSet.from_timestamps(log.timestamps, max_gap=max_gap)


def downtime_events(log: HeartbeatLog,
                    threshold: float = DOWNTIME_THRESHOLD) -> IntervalSet:
    """Gaps of at least *threshold* between consecutive heartbeats.

    Only *internal* gaps count: time before the first heartbeat or after
    the last says nothing (the router may simply not have been deployed).
    """
    ts = log.timestamps
    if ts.size < 2:
        return IntervalSet()
    gaps = np.diff(ts)
    idx = np.flatnonzero(gaps >= threshold)
    return IntervalSet((float(ts[i]), float(ts[i + 1])) for i in idx)


def observed_days(log: HeartbeatLog) -> float:
    """Days between a router's first and last heartbeat."""
    ts = log.timestamps
    if ts.size < 2:
        return 0.0
    return float((ts[-1] - ts[0]) / DAY)


def _per_observed_day(events: IntervalSet,
                      log: HeartbeatLog) -> Optional[float]:
    days = observed_days(log)
    return len(events) / days if days > 0 else None


def downtime_rate_per_day(log: HeartbeatLog,
                          threshold: float = DOWNTIME_THRESHOLD) -> Optional[float]:
    """Average ≥threshold downtimes per observed day (None if unobserved)."""
    return _per_observed_day(downtime_events(log, threshold), log)


def availability_fraction(log: HeartbeatLog) -> Optional[float]:
    """Fraction of the observed span the router was up (heartbeat-based)."""
    ts = log.timestamps
    if ts.size < 2:
        return None
    span = float(ts[-1] - ts[0])
    if span <= 0:
        return None
    return up_intervals(log).total_duration() / span


def availability_timeline(log: HeartbeatLog,
                          window: Tuple[float, float]) -> IntervalSet:
    """The Fig. 6 timeline: up intervals clipped to a display window."""
    return up_intervals(log).clip(*window)


# -- deployment-level statistics -------------------------------------------------

@dataclass(frozen=True)
class CountryDowntime:
    """One point of the Fig. 5 scatter."""

    country_code: str
    gdp_ppp_per_capita: float
    developed: bool
    routers: int
    #: Median per-home downtime count, normalized to *normalize_days* days.
    median_downtimes: float
    #: Median downtime duration (seconds) across the country's events.
    median_duration: float


class HeartbeatFold:
    """Figs. 3-5, Table 3 and appliance detection, one router at a time.

    Figs. 3-5 count registered homes observed for *min_observed_days*;
    Fig. 5 scales each home's rate to *normalize_days* and keeps the
    countries with *min_routers* such homes.  Appliance detection (low
    availability and ~daily cycling) looks at every log.
    """

    def __init__(self, routers: Dict[str, RouterInfo],
                 sketch: Callable[[], QuantileSketch] = exact_sketch,
                 min_observed_days: float = 1.0,
                 normalize_days: float = 197.0,
                 min_routers: int = 3,
                 max_availability: float = 0.6,
                 min_daily_cycles: float = 0.7) -> None:
        self.routers = routers
        self.sketch = sketch
        self.min_observed_days = min_observed_days
        self.normalize_days = normalize_days
        self.min_routers = min_routers
        self.max_availability = max_availability
        self.min_daily_cycles = min_daily_cycles
        #: Fig. 3 — downtimes per observed day, per development group.
        self.rates = {label: sketch() for label in GROUP.values()}
        #: Fig. 4 — downtime durations (seconds), per development group.
        self.durations = {label: sketch() for label in GROUP.values()}
        #: Per country: its first home's metadata, Fig. 5's normalized
        #: downtime counts and downtime durations.
        self._countries: Dict[str, Tuple[RouterInfo, QuantileSketch,
                                         QuantileSketch]] = {}
        self._availability: Dict[str, QuantileSketch] = \
            collections.defaultdict(sketch)
        #: Routers that behave like Fig. 6b appliances, in log order.
        self.appliances: List[str] = []

    def add_home(self, router_id: str, log: HeartbeatLog) -> int:
        """Fold one router's log in; returns how many heartbeats it read."""
        fraction = availability_fraction(log)
        events = downtime_events(log)
        rate = _per_observed_day(events, log)
        if fraction is not None and rate is not None and \
                fraction <= self.max_availability and \
                rate >= self.min_daily_cycles:
            self.appliances.append(router_id)
        info = self.routers.get(router_id)
        if fraction is not None and info is not None:
            self._availability[info.country_code].add(fraction)
        if info is None or rate is None or \
                observed_days(log) < self.min_observed_days:
            return len(log)
        if info.country_code not in self._countries:
            self._countries[info.country_code] = (info, self.sketch(),
                                                  self.sketch())
        _, counts, durations = self._countries[info.country_code]
        lengths = events.durations()
        self.rates[GROUP[info.developed]].add(rate)
        self.durations[GROUP[info.developed]].add_many(lengths)
        counts.add(rate * self.normalize_days)
        durations.add_many(lengths)
        return len(log)

    def days_between_downtimes(self, developed: bool) -> Optional[float]:
        """Median over homes of days per downtime (None without homes)."""
        rates = self.rates[GROUP[developed]]
        if rates.n == 0:
            return None
        rate = rates.median
        return float("inf") if rate == 0 else 1.0 / rate

    def _points(self) -> List[CountryDowntime]:
        """Every country's Fig. 5 point, by GDP."""
        points = [CountryDowntime(
            code, info.gdp_ppp_per_capita, info.developed, counts.n,
            counts.median, durations.median if durations.n else 0.0)
            for code, (info, counts, durations)
            in sorted(self._countries.items())]
        points.sort(key=lambda p: p.gdp_ppp_per_capita)
        return points

    def country_downtimes(self) -> List[CountryDowntime]:
        """Fig. 5: the countries with at least *min_routers* homes."""
        return [p for p in self._points() if p.routers >= self.min_routers]

    def availability_by_country(self) -> Dict[str, float]:
        """Table 3: median availability per country."""
        return {code: self._availability[code].median
                for code in sorted(self._availability)}

    def highlights(self) -> "Section4Highlights":
        """Table 3's claims; the worst countries ignore *min_routers*."""
        worst = sorted(self._points(), key=lambda p: -p.median_downtimes)[:2]
        worst_codes = tuple(p.country_code for p in worst)
        worst_codes += ("??",) * (2 - len(worst_codes))
        days = [self.days_between_downtimes(developed)
                for developed in (True, False)]
        return Section4Highlights(
            *(float("nan") if d is None else d for d in days),
            worst_codes, len(self.appliances))  # type: ignore[arg-type]


def _fold(data: StudyData, **inputs) -> HeartbeatFold:
    return fold_homes(HeartbeatFold(data.routers, **inputs), data.heartbeats)


def downtime_rate_cdf(data: StudyData, developed: bool,
                      min_observed_days: float = 1.0) -> EmpiricalCdf:
    """Fig. 3: CDF over homes of average ≥10-min downtimes per day."""
    fold = _fold(data, min_observed_days=min_observed_days)
    return fold.rates[GROUP[developed]].to_cdf()


def downtime_duration_cdf(data: StudyData, developed: bool,
                          min_observed_days: float = 1.0) -> EmpiricalCdf:
    """Fig. 4: CDF of individual downtime durations (seconds), pooled."""
    fold = _fold(data, min_observed_days=min_observed_days)
    return fold.durations[GROUP[developed]].to_cdf()


def median_days_between_downtimes(data: StudyData,
                                  developed: bool) -> Optional[float]:
    """The Table 3 headline: median over homes of days per downtime."""
    return _fold(data).days_between_downtimes(developed)


def downtimes_by_country(data: StudyData, min_routers: int = 3,
                         normalize_days: float = 197.0) -> List[CountryDowntime]:
    """Fig. 5: per-country median downtime counts vs per-capita GDP.

    The paper plots raw counts over its 6.5-month window (~197 days); we
    normalize each home's rate to *normalize_days* so shortened simulation
    windows produce comparable numbers.
    """
    return _fold(data, min_routers=min_routers,
                 normalize_days=normalize_days).country_downtimes()


def median_availability_by_country(data: StudyData) -> Dict[str, float]:
    """Median heartbeat-based availability per country (Section 4.2).

    This is the "the median US user has his router on 98.25% of the time"
    statistic (the paper reads it as power-on time; heartbeats conflate
    link outages, which is one of its acknowledged limitations).
    """
    return _fold(data).availability_by_country()


# -- downtime attribution (power vs network) -------------------------------------

def classify_downtime(data: StudyData, router_id: str,
                      downtime: Tuple[float, float]) -> str:
    """Attribute one downtime: ``"power"``, ``"network"``, or ``"unknown"``.

    Uses the Uptime data set (Section 3.2.2): if a report after the gap
    shows the router booted *inside or after* the gap, the router was
    powered off; if a report after the gap shows uptime spanning the whole
    gap, the router stayed powered — a network outage.  No covering report
    means the 12-hour cadence was too coarse: unknown.
    """
    gap_start, gap_end = downtime
    for report in data.uptime_reports:
        if report.router_id != router_id or report.timestamp < gap_end:
            continue
        boot = report.boot_time
        if boot >= gap_start:
            return "power"
        return "network"
    return "unknown"


def downtime_attribution(data: StudyData,
                         router_id: str) -> Dict[str, int]:
    """Count one router's downtimes by attribution class."""
    log = data.heartbeats.get(router_id)
    if log is None:
        return {"power": 0, "network": 0, "unknown": 0}
    counts = {"power": 0, "network": 0, "unknown": 0}
    for event in downtime_events(log):
        counts[classify_downtime(data, router_id, event)] += 1
    return counts


def appliance_mode_routers(data: StudyData,
                           max_availability: float = 0.6,
                           min_daily_cycles: float = 0.7) -> List[str]:
    """Routers that behave like Fig. 6b appliances.

    An appliance-mode home has low overall availability *and* cycles at
    least ~daily — distinguishing it from a mostly-up home with rare long
    outages.
    """
    return sorted(_fold(data, max_availability=max_availability,
                        min_daily_cycles=min_daily_cycles).appliances)


# -- Table 3 ---------------------------------------------------------------------

@dataclass(frozen=True)
class Section4Highlights:
    """The three Table 3 claims, as measured."""

    median_days_between_downtimes_developed: float
    median_days_between_downtimes_developing: float
    worst_two_countries_by_downtimes: Tuple[str, str]
    appliance_mode_router_count: int


def section4_highlights(data: StudyData) -> Section4Highlights:
    """Compute Table 3 from the Heartbeats + Uptime data sets."""
    return _fold(data).highlights()
