"""Section 6: usage characteristics of home networks.

Inputs: the Devices censuses (diurnal device presence), the Capacity data
set, and the Traffic data set (per-minute throughput, flow records).
Outputs: Figs. 13-20 and Table 6.

Each figure is defined once, in a per-home fold (:class:`DiurnalFold`,
:class:`FlowFold`, :class:`SaturationFold`) the public functions run.

One methodological note: the paper's Fig. 13 uses the WiFi data set's
associated-client counts.  Our scanner, like the real one, backs off while
clients are associated — which biases scan-derived client counts — so the
diurnal profile here uses the hourly Devices censuses instead; they measure
the identical quantity (wireless devices associated, by local hour) without
the back-off bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.datasets import (
    CalendarPool,
    FlowTotals,
    StudyData,
    ThroughputSeries,
    by_router,
    fold_homes,
)
from repro.core.records import RouterInfo
from repro.core.sketches import RankedShareAccumulator, StreamingHourProfile
from repro.core.stats import HourOfDayProfile, shares

MBPS = 1e6


# -- Fig. 13: diurnal device presence ----------------------------------------------

class DiurnalFold:
    """Fig. 13, one home's hourly censuses at a time: wireless devices
    online per local hour, weekdays and weekends apart.  Homes without
    router metadata have no local time and are skipped."""

    def __init__(self, routers: Dict[str, RouterInfo]) -> None:
        self.calendars = CalendarPool(routers)
        self.profiles = {"weekday": StreamingHourProfile(),
                         "weekend": StreamingHourProfile()}

    def add_home(self, router_id: str, samples: Iterable) -> None:
        """Fold one home's censuses in."""
        calendar = self.calendars.get(router_id)
        if calendar is None:
            return
        for sample in samples:
            weekend = calendar.is_weekend(sample.timestamp)
            self.profiles["weekend" if weekend else "weekday"].add(
                calendar.hour_of_day(sample.timestamp), float(sample.wireless))

    def profile(self, weekend: bool) -> HourOfDayProfile:
        return self.profiles["weekend" if weekend else "weekday"].result()


def _amplitude_ratio(weekday: HourOfDayProfile,
                     weekend: HourOfDayProfile) -> float:
    if weekend.amplitude() == 0:
        return float("inf")
    return weekday.amplitude() / weekend.amplitude()


def diurnal_device_profile(data: StudyData, weekend: bool) -> HourOfDayProfile:
    """Fig. 13: mean wireless devices online per local hour of day."""
    return fold_homes(DiurnalFold(data.routers),
                      data.device_counts).profile(weekend)


def diurnal_amplitude_ratio(data: StudyData) -> float:
    """How much more diurnal weekdays are than weekends (Table 6, row 1).

    Ratio of weekday to weekend peak-to-trough amplitude; > 1 means the
    weekday profile swings harder.
    """
    fold = fold_homes(DiurnalFold(data.routers), data.device_counts)
    return _amplitude_ratio(fold.profile(False), fold.profile(True))


# -- Figs. 17-19: the flow fold -------------------------------------------------------

@dataclass(frozen=True)
class DomainShareSummary:
    """Fig. 19's three panels in numbers."""

    #: Mean share of whitelisted bytes carried by the rank-k volume domain.
    volume_share_by_rank: np.ndarray
    #: Mean share of connections made to the rank-k connection domain.
    connection_share_by_rank: np.ndarray
    #: Mean share of connections made to the rank-k *volume* domain
    #: (Fig. 19c: the volume-top domain holds few connections).
    connections_of_volume_ranked: np.ndarray
    #: Mean fraction of all bytes that went to whitelisted domains (~65%).
    whitelist_byte_coverage: float


class FlowFold:
    """Figs. 17-19 and the Traffic homes, one home's flows at a time.

    :meth:`add_home` keeps the homes whose flows moved the paper's 100 MB
    and tallies each MAC's bytes across every home in
    :attr:`device_bytes`, for Fig. 12's byte filter; :meth:`add_traffic`
    folds in a home chosen elsewhere.
    """

    def __init__(self, ranks: int = 10) -> None:
        #: Figs. 15-19's homes: every home folded in.
        self.qualifying: Set[str] = set()
        self.device_bytes: Dict[str, float] = {}
        #: Fig. 17 — mean share of the rank-k device.
        self.device_shares = RankedShareAccumulator(ranks)
        self._top: Dict[str, List[int]] = {}
        self._shares = [RankedShareAccumulator(ranks) for _ in range(3)]
        self._coverages: List[float] = []

    def add_home(self, router_id: str, flows: Iterable) -> int:
        """Fold one home's flows in; returns how many it read."""
        home = FlowTotals(flows, self.device_bytes)
        if home.qualifies():
            self.add_traffic(router_id, home)
        return home.flows

    def add_traffic(self, router_id: str, home: FlowTotals) -> None:
        """Fold in one home's summed flows, whatever their volume."""
        self.qualifying.add(router_id)
        self.device_shares.add(shares(list(home.devices.values())))
        visible = home.visible()
        by_volume = sorted(visible.items(), key=lambda kv: -kv[1][0])
        for rank, (name, _totals) in enumerate(by_volume[:10]):
            top = self._top.setdefault(name, [0, 0])
            top[0] += rank < 5
            top[1] += 1
        if not visible:
            return
        bytes_all = sum(t[0] for t in home.domains.values())
        bytes_wl = sum(t[0] for t in visible.values())
        conns_wl = sum(t[1] for t in visible.values())
        if bytes_all > 0:
            self._coverages.append(bytes_wl / bytes_all)
        volume, connections, connections_of_volume = self._shares
        if bytes_wl > 0:
            volume.add(np.asarray([t[0] / bytes_wl for _, t in by_volume]))
        if conns_wl > 0:
            by_conns = sorted(visible.values(), key=lambda t: -t[1])
            connections.add(np.asarray([t[1] / conns_wl for t in by_conns]))
            connections_of_volume.add(np.asarray(
                [t[1] / conns_wl for _, t in by_volume]))

    def domain_top_counts(self) -> Dict[str, Tuple[int, int]]:
        """Fig. 18: per domain, #homes ranking it top-5 / top-10."""
        ordered = sorted(self._top.items(),
                         key=lambda kv: (-kv[1][0], -kv[1][1]))
        return {name: (top5, top10) for name, (top5, top10) in ordered}

    def domain_share(self) -> DomainShareSummary:
        """Fig. 19's per-rank shares and whitelist coverage."""
        return DomainShareSummary(
            *(accumulator.result() for accumulator in self._shares),
            whitelist_byte_coverage=(float(np.mean(self._coverages))
                                     if self._coverages else float("nan")))


def _qualifying_homes(data: StudyData, router_ids: Optional[Iterable[str]]
                      ) -> Iterable[Tuple[str, FlowTotals]]:
    """Figs. 17-19's homes with their summed flows: those in *router_ids*
    if given, else those whose flows moved the paper's 100 MB."""
    wanted = None if router_ids is None else set(router_ids)
    for rid, flows in by_router(data.flows):
        if wanted is None or rid in wanted:
            home = FlowTotals(flows)
            if wanted is not None or home.qualifies():
                yield rid, home


def _traffic_fold(data: StudyData, ranks: int = 10,
                  router_ids: Optional[Iterable[str]] = None) -> FlowFold:
    fold = FlowFold(ranks)
    for rid, home in _qualifying_homes(data, router_ids):
        fold.add_traffic(rid, home)
    return fold


# -- Figs. 14-16: link utilization ---------------------------------------------------

def median_capacity(data: StudyData,
                    router_id: str) -> Optional[Tuple[float, float]]:
    """Median (down, up) capacity estimate in Mbps for one router."""
    fold = SaturationFold({router_id})
    fold.add_capacity(router_id, (m for m in data.capacity
                                  if m.router_id == router_id))
    return fold.capacities.get(router_id)


@dataclass(frozen=True)
class UtilizationTimeseries:
    """Fig. 14 / Fig. 16 contents for one home."""

    router_id: str
    series: ThroughputSeries
    capacity_down_mbps: float
    capacity_up_mbps: float

    def downlink_utilization(self) -> np.ndarray:
        """Per-minute downlink peak as a fraction of estimated capacity."""
        return self.series.down_bps / (self.capacity_down_mbps * MBPS)

    def uplink_utilization(self) -> np.ndarray:
        """Per-minute uplink peak as a fraction of estimated capacity."""
        return self.series.up_bps / (self.capacity_up_mbps * MBPS)


def utilization_timeseries(data: StudyData,
                           router_id: str) -> Optional[UtilizationTimeseries]:
    """Join one home's throughput series with its capacity estimates."""
    series = data.throughput.get(router_id)
    capacity = median_capacity(data, router_id)
    if series is None or capacity is None:
        return None
    down, up = capacity
    return UtilizationTimeseries(router_id=router_id, series=series,
                                 capacity_down_mbps=down,
                                 capacity_up_mbps=up)


@dataclass(frozen=True)
class SaturationPoint:
    """One home's point in the Fig. 15 scatter."""

    router_id: str
    capacity_down_mbps: float
    capacity_up_mbps: float
    downlink_utilization: float
    uplink_utilization: float


class SaturationFold:
    """Fig. 15 over two passes: the median capacity of each home in
    *homes*, then, one throughput series at a time, its *percentile*
    utilization each way over active minutes (some device exchanging
    traffic), matching Section 6.2's methodology."""

    def __init__(self, homes: Set[str], percentile: float = 95.0) -> None:
        self.homes = homes
        self.percentile = percentile
        #: Median (down, up) capacity in Mbps per home in *homes*.
        self.capacities: Dict[str, Tuple[float, float]] = {}
        self._points: Dict[str, SaturationPoint] = {}

    def add_capacity(self, router_id: str, measurements: Iterable) -> int:
        """Fold one home's capacity estimates in; returns how many."""
        down: List[float] = []
        up: List[float] = []
        for measurement in measurements:
            down.append(measurement.downstream_mbps)
            up.append(measurement.upstream_mbps)
        if router_id in self.homes and down:
            self.capacities[router_id] = (float(np.median(down)),
                                          float(np.median(up)))
        return len(down)

    def add_home(self, router_id: str, series: ThroughputSeries) -> int:
        """Fold one home's series in; returns how many minutes it read."""
        capacity = self.capacities.get(router_id)
        active = None if capacity is None else series.active_mask()
        if active is None or not np.any(active):
            return len(series)
        joined = UtilizationTimeseries(router_id, series, *capacity)
        self._points[router_id] = SaturationPoint(
            router_id, *capacity,
            float(np.percentile(joined.downlink_utilization()[active],
                                self.percentile)),
            float(np.percentile(joined.uplink_utilization()[active],
                                self.percentile)))
        return len(series)

    def points(self) -> List[SaturationPoint]:
        """The scatter, by router id."""
        return [self._points[rid] for rid in sorted(self._points)]


def _saturation_points(data: StudyData, homes: Set[str],
                       percentile: float = 95.0) -> List[SaturationPoint]:
    fold = SaturationFold(homes, percentile)
    for rid, measurements in by_router(data.capacity):
        fold.add_capacity(rid, measurements)
    return fold_homes(fold, data.throughput).points()


def link_saturation(data: StudyData, percentile: float = 95.0,
                    router_ids: Optional[Iterable[str]] = None,
                    ) -> List[SaturationPoint]:
    """Fig. 15: 95th-percentile utilization vs capacity, per home.

    Only active minutes count (some device exchanging traffic), matching
    Section 6.2's methodology.
    """
    homes = data.qualifying_traffic_routers() if router_ids is None \
        else router_ids
    return _saturation_points(data, set(homes), percentile)


def saturating_uplink_homes(points: Sequence[SaturationPoint]) -> List[str]:
    """Homes whose 95th-pct uplink utilization exceeds capacity (Fig. 16)."""
    return [p.router_id for p in points if p.uplink_utilization > 1.0]


# -- Figs. 17-19: per-device and per-domain shares ---------------------------------

def device_share_per_home(data: StudyData,
                          router_ids: Optional[Iterable[str]] = None,
                          ) -> Dict[str, np.ndarray]:
    """Per home: descending per-device byte shares from flow records."""
    return {rid: shares(list(home.devices.values()))
            for rid, home in _qualifying_homes(data, router_ids)}


def mean_device_share(data: StudyData, ranks: int = 5,
                      router_ids: Optional[Iterable[str]] = None) -> np.ndarray:
    """Fig. 17 summary: mean share of the rank-k device across homes."""
    return _traffic_fold(data, ranks, router_ids).device_shares.result()


def domain_rankings(data: StudyData,
                    router_ids: Optional[Iterable[str]] = None,
                    by: str = "bytes") -> Dict[str, List[Tuple[str, float]]]:
    """Per home: whitelisted domains ranked by bytes or connections."""
    if by not in ("bytes", "connections"):
        raise ValueError(f"rank key must be bytes/connections, got {by!r}")
    column = 0 if by == "bytes" else 1
    return {rid: sorted(((name, totals[column])
                         for name, totals in home.visible().items()),
                        key=lambda kv: -kv[1])
            for rid, home in _qualifying_homes(data, router_ids)}


def domain_top_counts(data: StudyData,
                      router_ids: Optional[Iterable[str]] = None,
                      ) -> Dict[str, Tuple[int, int]]:
    """Fig. 18: per domain, #homes where it ranks top-5 / top-10 by volume."""
    return _traffic_fold(data, router_ids=router_ids).domain_top_counts()


def domain_share(data: StudyData, ranks: int = 10,
                 router_ids: Optional[Iterable[str]] = None,
                 ) -> DomainShareSummary:
    """Fig. 19: per-rank domain shares of volume and connections."""
    return _traffic_fold(data, ranks, router_ids).domain_share()


# -- Fig. 20: per-device domain mixes -------------------------------------------------------

def device_domain_profile(data: StudyData, router_id: str,
                          device_mac: str,
                          top: int = 8) -> List[Tuple[str, float]]:
    """Fig. 20: one device's top domains by byte share."""
    totals: Dict[str, float] = {}
    grand_total = 0.0
    for flow in data.flows:
        if flow.router_id != router_id or flow.device_mac != device_mac:
            continue
        totals[flow.domain] = totals.get(flow.domain, 0.0) + flow.bytes_total
        grand_total += flow.bytes_total
    if grand_total == 0:
        return []
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return [(name, volume / grand_total) for name, volume in ranked]


def devices_in_traffic_home(data: StudyData, router_id: str,
                            min_bytes: float = 100e3) -> List[str]:
    """Device MACs in one traffic home that moved at least *min_bytes*."""
    totals: Dict[str, float] = {}
    for flow in data.flows:
        if flow.router_id == router_id:
            totals[flow.device_mac] = totals.get(flow.device_mac, 0.0) \
                + flow.bytes_total
    return sorted((mac for mac, total in totals.items()
                   if total >= min_bytes),
                  key=lambda mac: -totals[mac])


# -- Section 7: usage by country --------------------------------------------------------------

@dataclass(frozen=True)
class CountryUsage:
    """Per-country usage summary for the Section 7 expansion."""

    country_code: str
    homes: int
    total_bytes: float
    mean_daily_bytes_per_home: float
    top_device_share: float
    top_domain_volume_share: float
    whitelist_byte_coverage: float


def usage_by_country(data: StudyData,
                     min_bytes: float = 1e6) -> List[CountryUsage]:
    """Compare Section 6 statistics across countries with Traffic homes.

    The paper's Traffic data set was US-only; Section 7 proposed expanding
    it ("how usage patterns ... differ by country").  With international
    consents enabled in the deployment, this computes the comparison.
    Homes need only *min_bytes* to count — international cohorts are small,
    so the paper's 100 MB bar would leave single-home countries.
    """
    totals = data.traffic_bytes_by_router()
    by_country: Dict[str, List[str]] = {}
    for rid, total in totals.items():
        info = data.routers.get(rid)
        if info is None or total < min_bytes:
            continue
        by_country.setdefault(info.country_code, []).append(rid)

    window_days = max(
        (data.windows.traffic[1] - data.windows.traffic[0]) / 86400.0, 1e-6)
    results: List[CountryUsage] = []
    for code, rids in sorted(by_country.items()):
        traffic = _traffic_fold(data, ranks=1, router_ids=rids)
        shares = traffic.device_shares.result()
        domains = traffic.domain_share()
        country_bytes = sum(totals[rid] for rid in rids)
        results.append(CountryUsage(
            country_code=code,
            homes=len(rids),
            total_bytes=country_bytes,
            mean_daily_bytes_per_home=country_bytes / len(rids) / window_days,
            top_device_share=float(shares[0]) if shares.size else float("nan"),
            top_domain_volume_share=(
                float(domains.volume_share_by_rank[0])
                if domains.volume_share_by_rank.size else float("nan")),
            whitelist_byte_coverage=domains.whitelist_byte_coverage,
        ))
    results.sort(key=lambda c: -c.total_bytes)
    return results


# -- Table 6 -----------------------------------------------------------------------------------

@dataclass(frozen=True)
class Section6Highlights:
    """The Table 6 claims, as measured."""

    weekday_weekend_amplitude_ratio: float
    homes_with_saturated_uplink: int
    top_device_mean_share: float
    top_domain_mean_volume_share: float
    top_domain_mean_connection_share: float
    whitelist_byte_coverage: float

    @classmethod
    def from_figures(cls, weekday: HourOfDayProfile,
                     weekend: HourOfDayProfile,
                     points: Sequence[SaturationPoint],
                     device_shares: np.ndarray,
                     domains: DomainShareSummary) -> "Section6Highlights":
        """Table 6 from Figs. 13, 15, 17 and 19."""

        def top(by_rank: np.ndarray) -> float:
            return float(by_rank[0]) if by_rank.size else float("nan")

        return cls(_amplitude_ratio(weekday, weekend),
                   len(saturating_uplink_homes(points)), top(device_shares),
                   top(domains.volume_share_by_rank),
                   top(domains.connection_share_by_rank),
                   domains.whitelist_byte_coverage)


def section6_highlights(data: StudyData) -> Section6Highlights:
    """Compute Table 6 from the Devices + Capacity + Traffic data sets."""
    traffic = _traffic_fold(data)
    diurnal = fold_homes(DiurnalFold(data.routers), data.device_counts)
    return Section6Highlights.from_figures(
        diurnal.profile(False), diurnal.profile(True),
        _saturation_points(data, traffic.qualifying),
        traffic.device_shares.result(), traffic.domain_share())
