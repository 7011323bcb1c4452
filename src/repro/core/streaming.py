"""One-pass streaming analytics: every Section 4-6 figure at O(sketch) memory.

The exact analysis functions each take a fully-materialized
:class:`~repro.core.datasets.StudyData` and walk its record lists — fine
at paper scale, an O(study) memory wall at a million homes.  This module
is the streaming twin: :func:`stream_figures` routes each dataset's
record iterator through the per-figure accumulators of
:mod:`repro.core.sketches` in a single pass per dataset and emits a
:class:`StudyFigures` holding the same result dataclasses the exact
functions return.  :func:`compute_figures` computes the identical bundle
with the exact functions, so the in-RAM pipeline stays the oracle the
streamed results are asserted against.

Tolerance policy (asserted in ``tests/test_streaming.py`` and CI):

* **bitwise-equal** — integer counts and sets (Table 2, Table 5, ports
  fractions, Fig. 12, Fig. 18, appliance counts), ranked shares
  (Figs. 17/19, via the shared :class:`RankedShareAccumulator`), diurnal
  profiles (Fig. 13, via shared ``HourOfDayProfile.from_sums``),
  saturation points (Fig. 15), and — below the sketch's exact threshold
  — every quantile statistic (the sketch delegates to a real
  ``EmpiricalCdf``);
* **~1e-9 relative** — means/stds computed by Welford instead of numpy
  pairwise summation (Figs. 8/9, port means), and per-country medians
  (``np.median`` vs ``np.quantile(.., 0.5)`` rounding);
* **rank tolerance** (:data:`~repro.core.sketches.QUANTILE_RANK_TOLERANCE`)
  — quantiles of a *compressed* sketch, which only engages past
  thousands of samples per distribution.

Memory: per-record iterators plus per-home state flushed at group
boundaries (records are sorted by router), per-country/group sketches,
and per-traffic-home aggregates bounded by the consent count — never a
``StoreContents`` list.  The DNS dataset feeds no figure and is not read.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro import trace
from repro.core import availability, infrastructure, usage
from repro.core.availability import CountryDowntime, Section4Highlights
from repro.core.datasets import (
    TRAFFIC_MIN_BYTES,
    CalendarPool,
    DatasetSummary,
    HeartbeatLog,
    StudyData,
    ThroughputSeries,
    summarize_datasets,
)
from repro.core.infrastructure import (
    AlwaysConnectedRow,
    PortUsage,
    Section5Highlights,
)
from repro.core.records import (
    OBFUSCATED_DOMAIN,
    Medium,
    RouterInfo,
    Spectrum,
)
from repro.core.sketches import (
    DEFAULT_EXACT_THRESHOLD,
    QuantileSketch,
    RankedShareAccumulator,
    StreamingHourProfile,
    StreamingMeanSpread,
)
from repro.core.stats import HourOfDayProfile, MeanWithSpread, shares
from repro.core.usage import (
    DomainShareSummary,
    SaturationPoint,
    Section6Highlights,
)
from repro.netutils.mac import parse_mac
from repro.simulation.timebase import StudyWindows
from repro.simulation.vendors import BISMARK_OUI, vendor_category

GROUPS = ("developed", "developing")
SPECTRA = (Spectrum.GHZ_2_4, Spectrum.GHZ_5)


# -- stream sources ----------------------------------------------------------------

class StudyDataSource:
    """Stream adapter over an in-RAM :class:`StudyData` (oracle parity)."""

    _DATASETS = {
        "uptime": "uptime_reports",
        "capacity": "capacity",
        "device_counts": "device_counts",
        "roster": "roster",
        "wifi_scans": "wifi_scans",
        "flows": "flows",
        "dns": "dns",
    }

    def __init__(self, data: StudyData):
        self.data = data

    @property
    def routers(self) -> Dict[str, RouterInfo]:
        return self.data.routers

    @property
    def windows(self) -> StudyWindows:
        return self.data.windows

    def iter_dataset(self, name: str) -> Iterator:
        return iter(getattr(self.data, self._DATASETS[name]))

    def iter_heartbeats(self) -> Iterator[HeartbeatLog]:
        return iter(self.data.heartbeats.values())

    def iter_throughput(self) -> Iterator[ThroughputSeries]:
        return iter(self.data.throughput.values())


class StoreSource:
    """Stream adapter over a live RecordStore — never materializes.

    Reads through the backend's ``iter_*`` API; ``finalize()`` (which
    would build ``StoreContents`` lists) is never called.
    """

    def __init__(self, store) -> None:
        self.store = store

    @property
    def routers(self) -> Dict[str, RouterInfo]:
        return self.store.routers

    @property
    def windows(self) -> StudyWindows:
        return self.store.windows

    def iter_dataset(self, name: str) -> Iterator:
        return self.store.backend.iter_dataset(name)

    def iter_heartbeats(self) -> Iterator[HeartbeatLog]:
        return self.store.backend.iter_heartbeats()

    def iter_throughput(self) -> Iterator[ThroughputSeries]:
        return self.store.backend.iter_throughput()


# -- the figure bundle -------------------------------------------------------------

@dataclass
class StudyFigures:
    """Every Section 4-6 figure/table, from either analysis path.

    CDF-shaped entries hold an :class:`~repro.core.stats.EmpiricalCdf`
    (exact path) or a :class:`~repro.core.sketches.QuantileSketch`
    (stream path); both expose ``n``, ``mean``, ``quantile``, ``median``,
    ``fraction_at_most/least``, and ``series``.
    """

    datasets: List[DatasetSummary]
    #: Fig. 3/4 — downtime rate and duration CDFs per development group.
    fig3: Dict[str, object]
    fig4: Dict[str, object]
    #: Fig. 5 — per-country downtime medians vs GDP (min 3 routers).
    fig5: List[CountryDowntime]
    #: Section 4.2 — median availability per country.
    table3_availability: Dict[str, float]
    section4: Section4Highlights
    #: Fig. 7 — unique devices per home CDF.
    fig7: object
    #: Fig. 8/9 — mean connected devices by medium / band, per group.
    fig8: Dict[str, Dict[str, MeanWithSpread]]
    fig9: Dict[str, Dict[str, MeanWithSpread]]
    #: Fig. 10 — unique devices per band CDFs.
    fig10: Dict[Spectrum, object]
    table5: List[AlwaysConnectedRow]
    ports: PortUsage
    #: Fig. 11 — neighbor-AP CDFs keyed (band, "all"/"developed"/"developing").
    fig11: Dict[Tuple[Spectrum, str], object]
    #: Fig. 12 — vendor histogram, descending.
    fig12: Dict[str, int]
    section5: Section5Highlights
    #: Fig. 13 — diurnal profiles keyed "weekday"/"weekend".
    fig13: Dict[str, HourOfDayProfile]
    fig15: List[SaturationPoint]
    #: Fig. 17 — mean per-device byte share by rank (10 ranks).
    fig17: np.ndarray
    fig18: Dict[str, Tuple[int, int]]
    fig19: DomainShareSummary
    section6: Section6Highlights
    #: Records the stream path consumed (0 on the exact path).
    records_streamed: int = 0


#: Rank depth of :attr:`StudyFigures.fig17`; slices reproduce any
#: smaller ``mean_device_share(..., ranks=k)`` bitwise (per-rank sums
#: are independent).
DEVICE_SHARE_RANKS = 10


def compute_figures(data: StudyData) -> StudyFigures:
    """The exact in-RAM path: every figure via the Section 4-6 functions."""
    return StudyFigures(
        datasets=summarize_datasets(data),
        fig3={"developed": availability.downtime_rate_cdf(data, True),
              "developing": availability.downtime_rate_cdf(data, False)},
        fig4={"developed": availability.downtime_duration_cdf(data, True),
              "developing": availability.downtime_duration_cdf(data, False)},
        fig5=availability.downtimes_by_country(data),
        table3_availability=availability.median_availability_by_country(data),
        section4=availability.section4_highlights(data),
        fig7=infrastructure.devices_per_home_cdf(data),
        fig8={"developed": infrastructure.mean_connected_by_medium(data, True),
              "developing":
                  infrastructure.mean_connected_by_medium(data, False)},
        fig9={"developed":
                  infrastructure.mean_connected_by_spectrum(data, True),
              "developing":
                  infrastructure.mean_connected_by_spectrum(data, False)},
        fig10={spectrum:
                   infrastructure.unique_devices_per_spectrum_cdf(data,
                                                                  spectrum)
               for spectrum in SPECTRA},
        table5=infrastructure.always_connected_households(data),
        ports=infrastructure.ethernet_port_usage(data),
        fig11={(spectrum, label):
                   infrastructure.neighbor_ap_cdf(data, spectrum, developed)
               for spectrum in SPECTRA
               for label, developed in (("all", None), ("developed", True),
                                        ("developing", False))},
        fig12=infrastructure.vendor_histogram(data),
        section5=infrastructure.section5_highlights(data),
        fig13={"weekday": usage.diurnal_device_profile(data, weekend=False),
               "weekend": usage.diurnal_device_profile(data, weekend=True)},
        fig15=usage.link_saturation(data),
        fig17=usage.mean_device_share(data, ranks=DEVICE_SHARE_RANKS),
        fig18=usage.domain_top_counts(data),
        fig19=usage.domain_share(data),
        section6=usage.section6_highlights(data),
    )


# -- the streaming driver ----------------------------------------------------------

@dataclass
class _CountryStats:
    """Per-country Section 4 accumulators (Fig. 5 + Table 3)."""

    gdp: float = float("nan")
    developed: bool = False
    routers: int = 0
    counts: QuantileSketch = None  # type: ignore[assignment]
    durations: QuantileSketch = None  # type: ignore[assignment]
    avail: QuantileSketch = None  # type: ignore[assignment]


@dataclass
class _HomeFlows:
    """One traffic home's flow aggregates (bounded by consent count)."""

    device_bytes: Dict[str, float] = field(default_factory=dict)
    visible: Dict[str, Dict[str, float]] = field(default_factory=dict)
    everything: Dict[str, Dict[str, float]] = field(default_factory=dict)


def _by_router(records) -> Iterator[Tuple[str, Iterator]]:
    """Group a (router_id, ...)-sorted record stream by home."""
    return itertools.groupby(records, key=lambda r: r.router_id)


class _StreamingAnalysis:
    """Single-pass driver state; one method per dataset pass."""

    def __init__(self, source, compression: int, exact_threshold: int,
                 normalize_days: float):
        self.source = source
        self.routers: Dict[str, RouterInfo] = source.routers
        self.windows: StudyWindows = source.windows
        self.calendars = CalendarPool(self.routers)
        self.normalize_days = normalize_days
        self._compression = compression
        self._exact_threshold = exact_threshold
        self.records = 0

        # Table 2 distinct-router sets (O(#routers), the irreducible
        # working set — Table 2 counts distinct ids by definition).
        self.ids: Dict[str, set] = {name: set() for name in (
            "heartbeats", "capacity", "uptime", "devices", "wifi",
            "flows", "throughput")}

        # Section 4
        self.fig3 = {group: self._sketch() for group in GROUPS}
        self.fig4 = {group: self._sketch() for group in GROUPS}
        self.country: Dict[str, _CountryStats] = {}
        self.appliance_count = 0

        # Section 5
        self.fig7 = self._sketch()
        self.fig8 = {group: {"wired": StreamingMeanSpread(),
                             "wireless": StreamingMeanSpread()}
                     for group in GROUPS}
        self.fig9 = {group: {"2.4GHz": StreamingMeanSpread(),
                             "5GHz": StreamingMeanSpread()}
                     for group in GROUPS}
        self.fig10 = {spectrum: self._sketch() for spectrum in SPECTRA}
        self.table5_totals = {group: 0 for group in GROUPS}
        self.table5_wired = {group: 0 for group in GROUPS}
        self.table5_wireless = {group: 0 for group in GROUPS}
        self.port_homes = 0
        self.port_all_four = 0
        self.port_at_most_two = 0
        self.port_mean = StreamingMeanSpread()
        self.fig11 = {(spectrum, label): self._sketch()
                      for spectrum in SPECTRA
                      for label in ("all",) + GROUPS}
        self.fig12: Dict[str, int] = {}

        # Section 6
        self.fig13 = {"weekday": StreamingHourProfile(),
                      "weekend": StreamingHourProfile()}
        self.saturation: Dict[str, SaturationPoint] = {}
        self.flow_totals: Dict[str, float] = {}
        self.bytes_by_mac: Dict[str, float] = {}
        self.home_flows: Dict[str, _HomeFlows] = {}
        self.capacity_medians: Dict[str, Tuple[float, float]] = {}
        self.qualifying: set = set()

    def _sketch(self) -> QuantileSketch:
        return QuantileSketch(self._compression, self._exact_threshold)

    def _group(self, router_id: str) -> Optional[str]:
        info = self.routers.get(router_id)
        if info is None:
            return None
        return "developed" if info.developed else "developing"

    # -- passes (run order matters: flows first fixes the qualifying set) --------

    def pass_flows(self) -> None:
        for rid, group in _by_router(self.source.iter_dataset("flows")):
            agg = self.home_flows.setdefault(rid, _HomeFlows())
            for flow in group:
                self.records += 1
                self.ids["flows"].add(rid)
                self.flow_totals[rid] = self.flow_totals.get(rid, 0.0) \
                    + flow.bytes_total
                self.bytes_by_mac[flow.device_mac] = \
                    self.bytes_by_mac.get(flow.device_mac, 0.0) \
                    + flow.bytes_total
                agg.device_bytes[flow.device_mac] = \
                    agg.device_bytes.get(flow.device_mac, 0.0) \
                    + flow.bytes_total
                # Mirror usage._domain_totals' accumulation exactly.
                if flow.domain != OBFUSCATED_DOMAIN:
                    entry = agg.visible.setdefault(
                        flow.domain, {"bytes": 0.0, "connections": 0.0})
                    entry["bytes"] += flow.bytes_total
                    entry["connections"] += 1.0
                entry = agg.everything.setdefault(
                    flow.domain, {"bytes": 0.0, "connections": 0.0})
                entry["bytes"] += flow.bytes_total
                entry["connections"] += 1.0
        self.qualifying = {rid for rid, total in self.flow_totals.items()
                           if total >= TRAFFIC_MIN_BYTES}

    def pass_capacity(self) -> None:
        for rid, group in _by_router(self.source.iter_dataset("capacity")):
            down: List[float] = []
            up: List[float] = []
            for measurement in group:
                self.records += 1
                down.append(measurement.downstream_mbps)
                up.append(measurement.upstream_mbps)
            self.ids["capacity"].add(rid)
            if rid in self.qualifying:
                self.capacity_medians[rid] = (float(np.median(down)),
                                              float(np.median(up)))

    def pass_throughput(self, percentile: float = 95.0) -> None:
        for series in self.source.iter_throughput():
            rid = series.router_id
            self.records += len(series)
            self.ids["throughput"].add(rid)
            capacity = self.capacity_medians.get(rid)
            if rid not in self.qualifying or capacity is None:
                continue
            joined = usage.UtilizationTimeseries(
                router_id=rid, series=series,
                capacity_down_mbps=capacity[0],
                capacity_up_mbps=capacity[1])
            active = series.active_mask()
            if not np.any(active):
                continue
            down_util = joined.downlink_utilization()[active]
            up_util = joined.uplink_utilization()[active]
            self.saturation[rid] = SaturationPoint(
                router_id=rid,
                capacity_down_mbps=capacity[0],
                capacity_up_mbps=capacity[1],
                downlink_utilization=float(
                    np.percentile(down_util, percentile)),
                uplink_utilization=float(np.percentile(up_util, percentile)),
            )

    def _country_stats(self, info: RouterInfo) -> _CountryStats:
        stats = self.country.get(info.country_code)
        if stats is None:
            stats = _CountryStats(
                gdp=info.gdp_ppp_per_capita,
                developed=info.developed,
                counts=self._sketch(),
                durations=self._sketch(),
                avail=self._sketch())
            self.country[info.country_code] = stats
        return stats

    def pass_heartbeats(self, max_availability: float = 0.6,
                        min_daily_cycles: float = 0.7) -> None:
        for log in self.source.iter_heartbeats():
            rid = log.router_id
            self.records += len(log)
            self.ids["heartbeats"].add(rid)
            days = availability.observed_days(log)
            fraction = availability.availability_fraction(log)
            rate = availability.downtime_rate_per_day(log)
            # Appliance-mode detection deliberately precedes the
            # registration check, matching appliance_mode_routers.
            if fraction is not None and rate is not None and \
                    fraction <= max_availability and \
                    rate >= min_daily_cycles:
                self.appliance_count += 1
            info = self.routers.get(rid)
            if info is None:
                continue
            group = "developed" if info.developed else "developing"
            if days >= 1.0:
                durations = availability.downtime_events(log).durations()
                if rate is not None:
                    self.fig3[group].add(rate)
                self.fig4[group].add_many(durations)
                stats = self._country_stats(info)
                stats.routers += 1
                if rate is not None:
                    stats.counts.add(rate * self.normalize_days)
                stats.durations.add_many(durations)
            if fraction is not None:
                self._country_stats(info).avail.add(fraction)

    def pass_device_counts(self) -> None:
        for rid, group in _by_router(
                self.source.iter_dataset("device_counts")):
            calendar = self.calendars.get(rid)
            sums: Optional[np.ndarray] = None
            count = 0
            max_wired = 0
            for sample in group:
                self.records += 1
                vec = np.array([sample.wired, sample.wireless_2_4,
                                sample.wireless_5], dtype=float)
                if sums is None:
                    sums = vec
                else:
                    sums += vec
                count += 1
                max_wired = max(max_wired, sample.wired)
                if calendar is not None:
                    key = ("weekend"
                           if calendar.is_weekend(sample.timestamp)
                           else "weekday")
                    self.fig13[key].add(
                        calendar.hour_of_day(sample.timestamp),
                        float(sample.wireless))
            self.ids["devices"].add(rid)
            wired, w24, w5 = sums / count
            wireless = w24 + w5
            home_group = self._group(rid)
            if home_group is not None:
                self.fig8[home_group]["wired"].add(wired)
                self.fig8[home_group]["wireless"].add(wireless)
                self.fig9[home_group]["2.4GHz"].add(w24)
                self.fig9[home_group]["5GHz"].add(w5)
            self.port_homes += 1
            self.port_mean.add(wired)
            if max_wired >= 4:
                self.port_all_four += 1
            if max_wired <= 2:
                self.port_at_most_two += 1

    def pass_roster(self) -> None:
        vendor_wanted = self.ids["throughput"] | self.ids["flows"]
        for rid, group in _by_router(self.source.iter_dataset("roster")):
            n_devices = 0
            per_spectrum = {spectrum: 0 for spectrum in SPECTRA}
            has_always_wired = False
            has_always_wireless = False
            for entry in group:
                self.records += 1
                n_devices += 1
                if entry.spectrum is not None:
                    per_spectrum[entry.spectrum] += 1
                if entry.always_connected:
                    if entry.medium is Medium.WIRED:
                        has_always_wired = True
                    else:
                        has_always_wireless = True
                # Fig. 12, mirroring vendor_histogram's filters.
                if rid in vendor_wanted and \
                        self.bytes_by_mac.get(entry.device_mac, 0.0) >= 100e3:
                    mac = parse_mac(entry.device_mac)
                    if mac.oui != BISMARK_OUI:
                        category = vendor_category(mac.oui)
                        self.fig12[category] = \
                            self.fig12.get(category, 0) + 1
            self.fig7.add(n_devices)
            for spectrum in SPECTRA:
                self.fig10[spectrum].add(per_spectrum[spectrum])
            home_group = self._group(rid)
            if home_group is not None:
                self.table5_totals[home_group] += 1
                if has_always_wired:
                    self.table5_wired[home_group] += 1
                if has_always_wireless:
                    self.table5_wireless[home_group] += 1

    def pass_wifi(self) -> None:
        for rid, group in _by_router(self.source.iter_dataset("wifi_scans")):
            per_spectrum: Dict[Spectrum, List[int]] = \
                {spectrum: [] for spectrum in SPECTRA}
            for sample in group:
                self.records += 1
                per_spectrum[sample.spectrum].append(sample.neighbor_aps)
            self.ids["wifi"].add(rid)
            home_group = self._group(rid)
            for spectrum in SPECTRA:
                counts = per_spectrum[spectrum]
                if not counts:
                    continue
                q95 = float(np.quantile(np.asarray(counts), 0.95))
                self.fig11[(spectrum, "all")].add(q95)
                if home_group is not None:
                    self.fig11[(spectrum, home_group)].add(q95)

    def pass_uptime(self) -> None:
        for report in self.source.iter_dataset("uptime"):
            self.records += 1
            self.ids["uptime"].add(report.router_id)

    # -- finalize ----------------------------------------------------------------

    def _table2(self) -> List[DatasetSummary]:
        def row(name: str, kind: str, ids: set,
                window: Tuple[float, float]) -> DatasetSummary:
            countries = {self.routers[rid].country_code for rid in ids
                         if rid in self.routers}
            return DatasetSummary(name=name, kind=kind, routers=len(ids),
                                  countries=len(countries), window=window)

        return [
            row("Heartbeats", "active", self.ids["heartbeats"],
                self.windows.heartbeats),
            row("Capacity", "active", self.ids["capacity"],
                self.windows.capacity),
            row("Uptime", "passive", self.ids["uptime"],
                self.windows.uptime),
            row("Devices", "passive", self.ids["devices"],
                self.windows.devices),
            row("WiFi", "passive", self.ids["wifi"], self.windows.wifi),
            row("Traffic", "passive",
                self.ids["flows"] | self.ids["throughput"],
                self.windows.traffic),
        ]

    def _country_points(self) -> List[CountryDowntime]:
        """Per-country downtime points (every country; callers filter)."""
        points = []
        for code in sorted(self.country):
            stats = self.country[code]
            if stats.routers == 0 or stats.counts.n == 0:
                continue
            points.append(CountryDowntime(
                country_code=code,
                gdp_ppp_per_capita=stats.gdp,
                developed=stats.developed,
                routers=stats.routers,
                median_downtimes=stats.counts.median,
                median_duration=(stats.durations.median
                                 if stats.durations.n else 0.0),
            ))
        points.sort(key=lambda p: p.gdp_ppp_per_capita)
        return points

    def _section4(self, all_points: List[CountryDowntime]
                  ) -> Section4Highlights:
        worst = sorted(all_points, key=lambda p: -p.median_downtimes)[:2]
        worst_codes = tuple(p.country_code for p in worst)
        if len(worst_codes) < 2:
            worst_codes = worst_codes + ("??",) * (2 - len(worst_codes))

        def days_between(group: str) -> float:
            sketch = self.fig3[group]
            if sketch.n == 0:
                return float("nan")
            rate = sketch.median
            return float("inf") if rate == 0 else 1.0 / rate

        return Section4Highlights(
            median_days_between_downtimes_developed=days_between(
                "developed"),
            median_days_between_downtimes_developing=days_between(
                "developing"),
            worst_two_countries_by_downtimes=worst_codes,  # type: ignore[arg-type]
            appliance_mode_router_count=self.appliance_count,
        )

    def _ports(self) -> PortUsage:
        if self.port_homes == 0:
            return PortUsage(float("nan"), float("nan"), float("nan"))
        return PortUsage(
            mean_wired_in_use=self.port_mean.result().mean,
            fraction_all_four_used=self.port_all_four / self.port_homes,
            fraction_at_most_two_needed=(
                self.port_at_most_two / self.port_homes),
        )

    def _table5(self) -> List[AlwaysConnectedRow]:
        return [AlwaysConnectedRow(
            group=group,
            total_households=self.table5_totals[group],
            with_always_wired=self.table5_wired[group],
            with_always_wireless=self.table5_wireless[group],
        ) for group in GROUPS]

    def _section5(self, table5: List[AlwaysConnectedRow]
                  ) -> Section5Highlights:
        rows = {row.group: row for row in table5}
        cdf_24 = self.fig10[Spectrum.GHZ_2_4]
        cdf_5 = self.fig10[Spectrum.GHZ_5]
        ap_dev = self.fig11[(Spectrum.GHZ_2_4, "developed")]
        ap_dvg = self.fig11[(Spectrum.GHZ_2_4, "developing")]
        return Section5Highlights(
            always_wired_fraction_developed=rows["developed"].wired_fraction,
            always_wired_fraction_developing=(
                rows["developing"].wired_fraction),
            median_devices_2_4ghz=(cdf_24.median if cdf_24.n
                                   else float("nan")),
            median_devices_5ghz=cdf_5.median if cdf_5.n else float("nan"),
            median_neighbor_aps_developed=(ap_dev.median if ap_dev.n
                                           else float("nan")),
            median_neighbor_aps_developing=(ap_dvg.median if ap_dvg.n
                                            else float("nan")),
        )

    def _fig15(self) -> List[SaturationPoint]:
        return [self.saturation[rid] for rid in sorted(self.qualifying)
                if rid in self.saturation]

    def _fig17(self) -> np.ndarray:
        accumulator = RankedShareAccumulator(DEVICE_SHARE_RANKS)
        for rid, agg in self.home_flows.items():
            if rid in self.qualifying:
                accumulator.add(shares(list(agg.device_bytes.values())))
        return accumulator.result()

    def _fig18(self) -> Dict[str, Tuple[int, int]]:
        counts: Dict[str, List[int]] = {}
        for rid, agg in self.home_flows.items():
            if rid not in self.qualifying:
                continue
            ranked = sorted(
                ((name, t["bytes"]) for name, t in agg.visible.items()),
                key=lambda kv: -kv[1])
            for rank, (name, _volume) in enumerate(ranked[:10]):
                entry = counts.setdefault(name, [0, 0])
                if rank < 5:
                    entry[0] += 1
                entry[1] += 1
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1][0],
                                                         -kv[1][1]))
        return {name: (top5, top10) for name, (top5, top10) in ordered}

    def _fig19(self, ranks: int = 10) -> DomainShareSummary:
        volume = RankedShareAccumulator(ranks)
        connection = RankedShareAccumulator(ranks)
        conn_of_volume = RankedShareAccumulator(ranks)
        coverages: List[float] = []
        # Mirrors usage.domain_share home by home off the stored
        # aggregates (bounded by the consent count).
        for rid, agg in self.home_flows.items():
            if rid not in self.qualifying or not agg.visible:
                continue
            total_bytes_all = sum(t["bytes"]
                                  for t in agg.everything.values())
            total_bytes_wl = sum(t["bytes"] for t in agg.visible.values())
            total_conns_wl = sum(t["connections"]
                                 for t in agg.visible.values())
            if total_bytes_all > 0:
                coverages.append(total_bytes_wl / total_bytes_all)
            by_volume = sorted(agg.visible.values(),
                               key=lambda t: -t["bytes"])
            by_conns = sorted(agg.visible.values(),
                              key=lambda t: -t["connections"])
            if total_bytes_wl > 0:
                volume.add(np.asarray(
                    [t["bytes"] / total_bytes_wl for t in by_volume]))
            if total_conns_wl > 0:
                connection.add(np.asarray(
                    [t["connections"] / total_conns_wl for t in by_conns]))
                conn_of_volume.add(np.asarray(
                    [t["connections"] / total_conns_wl for t in by_volume]))
        return DomainShareSummary(
            volume_share_by_rank=volume.result(),
            connection_share_by_rank=connection.result(),
            connections_of_volume_ranked=conn_of_volume.result(),
            whitelist_byte_coverage=(float(np.mean(coverages))
                                     if coverages else float("nan")),
        )

    def _section6(self, fig13: Dict[str, HourOfDayProfile],
                  fig15: List[SaturationPoint], fig17: np.ndarray,
                  fig19: DomainShareSummary) -> Section6Highlights:
        weekday = fig13["weekday"].amplitude()
        weekend = fig13["weekend"].amplitude()
        ratio = float("inf") if weekend == 0 else weekday / weekend
        return Section6Highlights(
            weekday_weekend_amplitude_ratio=ratio,
            homes_with_saturated_uplink=len(
                usage.saturating_uplink_homes(fig15)),
            top_device_mean_share=(float(fig17[0]) if fig17.size
                                   else float("nan")),
            top_domain_mean_volume_share=(
                float(fig19.volume_share_by_rank[0])
                if fig19.volume_share_by_rank.size else float("nan")),
            top_domain_mean_connection_share=(
                float(fig19.connection_share_by_rank[0])
                if fig19.connection_share_by_rank.size else float("nan")),
            whitelist_byte_coverage=fig19.whitelist_byte_coverage,
        )

    def result(self) -> StudyFigures:
        all_points = self._country_points()
        table5 = self._table5()
        fig13 = {key: profile.result()
                 for key, profile in self.fig13.items()}
        fig15 = self._fig15()
        fig17 = self._fig17()
        fig19 = self._fig19()
        return StudyFigures(
            datasets=self._table2(),
            fig3=dict(self.fig3),
            fig4=dict(self.fig4),
            fig5=[p for p in all_points if p.routers >= 3],
            table3_availability={
                code: self.country[code].avail.median
                for code in sorted(self.country)
                if self.country[code].avail.n},
            section4=self._section4(all_points),
            fig7=self.fig7,
            fig8={group: {k: acc.result() for k, acc in accs.items()}
                  for group, accs in self.fig8.items()},
            fig9={group: {k: acc.result() for k, acc in accs.items()}
                  for group, accs in self.fig9.items()},
            fig10=dict(self.fig10),
            table5=table5,
            ports=self._ports(),
            fig11=dict(self.fig11),
            fig12=dict(sorted(self.fig12.items(), key=lambda kv: -kv[1])),
            section5=self._section5(table5),
            fig13=fig13,
            fig15=fig15,
            fig17=fig17,
            fig18=self._fig18(),
            fig19=fig19,
            section6=self._section6(fig13, fig15, fig17, fig19),
            records_streamed=self.records,
        )


def stream_figures(source, compression: int = 200,
                   exact_threshold: int = DEFAULT_EXACT_THRESHOLD,
                   normalize_days: float = 197.0) -> StudyFigures:
    """Compute every Section 4-6 figure in one pass per dataset.

    *source* is a :class:`StoreSource` (streaming straight off a record
    store's backend — the spill store never materializes) or a
    :class:`StudyDataSource` (parity testing over in-RAM data).  Flows
    stream first so the paper's ≥100 MB qualifying-traffic set is fixed
    before capacity/throughput need it; DNS feeds no figure and is
    skipped.  See the module docstring for the tolerance policy.
    """
    analysis = _StreamingAnalysis(source, compression, exact_threshold,
                                  normalize_days)
    passes = (
        ("flows", analysis.pass_flows),
        ("capacity", analysis.pass_capacity),
        ("throughput", analysis.pass_throughput),
        ("heartbeats", analysis.pass_heartbeats),
        ("device_counts", analysis.pass_device_counts),
        ("roster", analysis.pass_roster),
        ("wifi_scans", analysis.pass_wifi),
        ("uptime", analysis.pass_uptime),
    )
    for name, run_pass in passes:
        with trace.span(f"analyze.{name}", cat="analyze"):
            run_pass()
    return analysis.result()
