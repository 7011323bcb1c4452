"""Section 5: the infrastructure inside home networks.

Inputs are the Devices data set (hourly censuses + the per-device roster)
and the WiFi data set (neighbor-AP scans); outputs are Figs. 7-12 and
Tables 4-5:

* device censuses: how many devices exist per home (Fig. 7) and how many
  are connected at a time, split wired/wireless (Fig. 8) and by band
  (Fig. 9 / Fig. 10);
* always-connected devices (Table 5);
* Ethernet port pressure (the "two ports would suffice" argument);
* neighbor-AP crowding per band and development class (Fig. 11);
* manufacturer profiles from roster OUIs (Fig. 12).

Each figure is defined once, in a per-home fold (:class:`CensusFold`,
:class:`RosterFold`, :class:`WifiFold`) the public functions run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.core.datasets import (
    GROUP,
    FlowTotals,
    StudyData,
    by_router,
    fold_homes,
)
from repro.core.records import Medium, RouterInfo, Spectrum
from repro.core.sketches import (
    QuantileSketch,
    StreamingMeanSpread,
    exact_sketch,
)
from repro.core.stats import EmpiricalCdf, MeanWithSpread
from repro.netutils.mac import parse_mac
from repro.simulation.vendors import BISMARK_OUI, vendor_category


# -- Figs. 8-9 and port pressure: the census fold ------------------------------------

@dataclass(frozen=True)
class PortUsage:
    """How hard homes push the four LAN ports (Section 5.2)."""

    mean_wired_in_use: float
    fraction_all_four_used: float
    fraction_at_most_two_needed: float


class CensusFold:
    """Figs. 8/9 and port pressure, one home's hourly censuses at a time:
    a registered home's mean census feeds its group's bars, and every
    home's busiest census counts toward all *ports* ports or at most two.
    """

    def __init__(self, routers: Dict[str, RouterInfo],
                 ports: int = 4) -> None:
        self.routers = routers
        self.ports = ports
        self._groups = {label: {key: StreamingMeanSpread() for key in (
            "wired", "wireless", "2.4GHz", "5GHz")}
            for label in GROUP.values()}
        self._wired = StreamingMeanSpread()
        self._all_ports = self._few_ports = 0

    def add_home(self, router_id: str, samples: Iterable) -> int:
        """Fold one home's censuses in; returns how many it read."""
        count = wired = w24 = w5 = busiest = 0
        for sample in samples:
            count += 1
            wired += sample.wired
            w24 += sample.wireless_2_4
            w5 += sample.wireless_5
            busiest = max(busiest, sample.wired)
        # Integer sums are exact, so these are the per-census means.
        wired, w24, w5 = wired / count, w24 / count, w5 / count
        info = self.routers.get(router_id)
        if info is not None:
            means = self._groups[GROUP[info.developed]]
            for key, value in (("wired", wired), ("wireless", w24 + w5),
                               ("2.4GHz", w24), ("5GHz", w5)):
                means[key].add(value)
        self._wired.add(wired)
        self._all_ports += busiest >= self.ports
        self._few_ports += busiest <= 2
        return count

    def means(self, *keys: str) -> Dict[str, Dict[str, MeanWithSpread]]:
        """Per group, the mean home's devices under each of *keys*."""
        return {label: {key: means[key].result() for key in keys}
                for label, means in self._groups.items()}

    def port_usage(self) -> PortUsage:
        homes = self._wired.n
        if homes == 0:
            return PortUsage(float("nan"), float("nan"), float("nan"))
        return PortUsage(self._wired.result().mean, self._all_ports / homes,
                         self._few_ports / homes)


def mean_connected_by_medium(data: StudyData,
                             developed: bool) -> Dict[str, MeanWithSpread]:
    """Fig. 8: mean simultaneously-connected devices, wired vs wireless."""
    fold = fold_homes(CensusFold(data.routers), data.device_counts)
    return fold.means("wired", "wireless")[GROUP[developed]]


def mean_connected_by_spectrum(data: StudyData,
                               developed: bool) -> Dict[str, MeanWithSpread]:
    """Fig. 9: mean simultaneously-connected wireless devices per band."""
    fold = fold_homes(CensusFold(data.routers), data.device_counts)
    return fold.means("2.4GHz", "5GHz")[GROUP[developed]]


def ethernet_port_usage(data: StudyData, ports: int = 4) -> PortUsage:
    """Wired-port statistics across all census samples."""
    return fold_homes(CensusFold(data.routers, ports),
                      data.device_counts).port_usage()


# -- Figs. 7, 10, 12 and Table 5: the roster fold --------------------------------------

@dataclass(frozen=True)
class AlwaysConnectedRow:
    """One row of Table 5."""

    group: str
    total_households: int
    with_always_wired: int
    with_always_wireless: int

    @property
    def wired_fraction(self) -> float:
        """Share of households with an always-connected wired device."""
        if self.total_households == 0:
            return float("nan")
        return self.with_always_wired / self.total_households

    @property
    def wireless_fraction(self) -> float:
        """Share of households with an always-connected wireless device."""
        if self.total_households == 0:
            return float("nan")
        return self.with_always_wireless / self.total_households


class RosterFold:
    """Figs. 7, 10 and 12 and Table 5, one home's device roster at a time.

    Fig. 12 follows the paper's filters: only homes in *traffic_homes*,
    only devices whose MAC moved at least *min_bytes* per *device_bytes*
    (as :class:`~repro.core.datasets.FlowTotals` tallies it), and the
    BISmark gateways themselves removed.  MACs are lower-24-hashed but
    keep their OUI, which is all the vendor lookup needs.
    """

    def __init__(self, routers: Dict[str, RouterInfo],
                 sketch: Callable[[], QuantileSketch] = exact_sketch,
                 device_bytes: Optional[Dict[str, float]] = None,
                 traffic_homes: Set[str] = frozenset(),
                 min_bytes: float = 100e3) -> None:
        self.routers = routers
        self.device_bytes = device_bytes or {}
        self.traffic_homes = traffic_homes
        self.min_bytes = min_bytes
        #: Fig. 7 — unique devices per home.
        self.devices = sketch()
        #: Fig. 10 — unique devices per home on each band (0 if none).
        self.by_spectrum = {spectrum: sketch() for spectrum in Spectrum}
        #: Table 5 — per group: homes, always-wired, always-wireless.
        self._households = {label: [0, 0, 0] for label in GROUP.values()}
        self._vendors: Dict[str, int] = {}

    def add_home(self, router_id: str, entries: Iterable) -> int:
        """Fold one home's roster in; returns how many entries it read."""
        devices = 0
        per_spectrum = dict.fromkeys(Spectrum, 0)
        always = {Medium.WIRED: False, Medium.WIRELESS: False}
        traffic_home = router_id in self.traffic_homes
        for entry in entries:
            devices += 1
            if entry.spectrum is not None:
                per_spectrum[entry.spectrum] += 1
            if entry.always_connected:
                always[entry.medium] = True
            if traffic_home and self.device_bytes.get(
                    entry.device_mac, 0.0) >= self.min_bytes:
                mac = parse_mac(entry.device_mac)
                if mac.oui != BISMARK_OUI:
                    category = vendor_category(mac.oui)
                    self._vendors[category] = \
                        self._vendors.get(category, 0) + 1
        self.devices.add(devices)
        for spectrum, count in per_spectrum.items():
            self.by_spectrum[spectrum].add(count)
        info = self.routers.get(router_id)
        if info is not None:
            row = self._households[GROUP[info.developed]]
            row[0] += 1
            row[1] += always[Medium.WIRED]
            row[2] += always[Medium.WIRELESS]
        return devices

    def always_connected(self) -> List[AlwaysConnectedRow]:
        """Table 5's rows, developed first."""
        return [AlwaysConnectedRow(label, *row)
                for label, row in self._households.items()]

    def vendor_histogram(self) -> Dict[str, int]:
        """Fig. 12's device counts per manufacturer bucket, descending."""
        return dict(sorted(self._vendors.items(), key=lambda kv: -kv[1]))


def devices_per_home(data: StudyData) -> Dict[str, int]:
    """Unique devices ever seen per home (roster size)."""
    return {rid: len(entries) for rid, entries in by_router(data.roster)}


def devices_per_home_cdf(data: StudyData) -> EmpiricalCdf:
    """Fig. 7: CDF of the number of unique devices per home."""
    return fold_homes(RosterFold(data.routers), data.roster).devices.to_cdf()


def always_connected_households(data: StudyData) -> List[AlwaysConnectedRow]:
    """Table 5: households with ≥1 never-disconnecting device, by group."""
    return fold_homes(RosterFold(data.routers),
                      data.roster).always_connected()


def unique_devices_per_spectrum_cdf(data: StudyData,
                                    spectrum: Spectrum) -> EmpiricalCdf:
    """Fig. 10: CDF over homes of unique devices seen on one band.

    Homes with Devices data but no device on the band contribute zero, as
    in the paper (the CDFs start well above zero at x=0 for 5 GHz).
    """
    fold = fold_homes(RosterFold(data.routers), data.roster)
    return fold.by_spectrum[spectrum].to_cdf()


def vendor_histogram(data: StudyData,
                     router_ids: Optional[Iterable[str]] = None,
                     min_bytes: float = 100e3) -> Dict[str, int]:
    """Fig. 12: device counts per manufacturer bucket.

    The homes are the Traffic data set's (or *router_ids*); see
    :class:`RosterFold` for the filters.
    """
    homes = set(router_ids) if router_ids is not None else (
        {flow.router_id for flow in data.flows} | set(data.throughput))
    device_bytes: Dict[str, float] = {}
    for rid, flows in by_router(data.flows):
        if rid in homes:
            FlowTotals(flows, device_bytes)  # tallies each MAC's bytes
    fold = RosterFold(data.routers, device_bytes=device_bytes,
                      traffic_homes=homes, min_bytes=min_bytes)
    return fold_homes(fold, data.roster).vendor_histogram()


# -- Fig. 11: the neighbor-AP fold -------------------------------------------------------

#: Fig. 11's per-home statistic: this quantile of a band's neighbor-AP
#: counts across the home's scans.
NEIGHBOR_AP_QUANTILE = 0.95


def _neighbor_aps(scans: Iterable, quantile: float
                  ) -> Tuple[Dict[Spectrum, float], int]:
    """One home's q-quantile of neighbor-AP counts per scanned band, and
    how many scans it read."""
    # Bands match by identity: hashing an enum member per scan would cost
    # more than the rest of the loop.
    counts: List[Tuple[Spectrum, List[int]]] = [
        (spectrum, []) for spectrum in Spectrum]
    read = 0
    for scan in scans:
        read += 1
        for spectrum, values in counts:
            if scan.spectrum is spectrum:
                values.append(scan.neighbor_aps)
                break
    return {spectrum: float(np.quantile(np.asarray(values), quantile))
            for spectrum, values in counts if values}, read


class WifiFold:
    """Fig. 11, one home's scans at a time, keyed (band, "all") and
    (band, group); only registered homes have a group."""

    def __init__(self, routers: Dict[str, RouterInfo],
                 sketch: Callable[[], QuantileSketch] = exact_sketch) -> None:
        self.routers = routers
        self.neighbor_aps = {(spectrum, label): sketch()
                             for spectrum in Spectrum
                             for label in ("all", *GROUP.values())}

    def add_home(self, router_id: str, scans: Iterable) -> int:
        """Fold one home's scans in; returns how many it read."""
        per_band, read = _neighbor_aps(scans, NEIGHBOR_AP_QUANTILE)
        info = self.routers.get(router_id)
        for spectrum, aps in per_band.items():
            self.neighbor_aps[(spectrum, "all")].add(aps)
            if info is not None:
                self.neighbor_aps[(spectrum, GROUP[info.developed])].add(aps)
        return read


def neighbor_aps_per_home(data: StudyData, spectrum: Spectrum,
                          quantile: float = NEIGHBOR_AP_QUANTILE
                          ) -> Dict[str, float]:
    """Per home: the q-quantile of neighbor-AP counts across its scans.

    A high quantile approximates "unique access points seen" while staying
    robust to scans taken while neighbors were off.
    """
    per_home = {rid: _neighbor_aps(scans, quantile)[0]
                for rid, scans in by_router(data.wifi_scans)}
    return {rid: per_band[spectrum] for rid, per_band in per_home.items()
            if spectrum in per_band}


def neighbor_ap_cdf(data: StudyData, spectrum: Spectrum,
                    developed: Optional[bool] = None) -> EmpiricalCdf:
    """Fig. 11: CDF over homes of visible neighbor APs on one band."""
    fold = fold_homes(WifiFold(data.routers), data.wifi_scans)
    label = "all" if developed is None else GROUP[developed]
    return fold.neighbor_aps[(spectrum, label)].to_cdf()


def neighbor_ap_bimodality(cdf: EmpiricalCdf,
                           low: float = 3.0,
                           gap_high: float = 10.0) -> float:
    """Fraction of homes outside the (low, gap_high) middle band.

    The paper observes "either there are very few access points in that
    channel or there are a lot"; values near 1 mean strongly bimodal.
    """
    if cdf.n == 0:
        return float("nan")
    middle = cdf.fraction_at_most(gap_high) - cdf.fraction_at_most(low)
    return 1.0 - middle


# -- Table 4 --------------------------------------------------------------------------------

@dataclass(frozen=True)
class Section5Highlights:
    """The Table 4 claims, as measured."""

    always_wired_fraction_developed: float
    always_wired_fraction_developing: float
    median_devices_2_4ghz: float
    median_devices_5ghz: float
    median_neighbor_aps_developed: float
    median_neighbor_aps_developing: float

    @classmethod
    def from_folds(cls, roster: RosterFold,
                   wifi: WifiFold) -> "Section5Highlights":
        developed, developing = roster.always_connected()

        def median(sketch: QuantileSketch) -> float:
            return sketch.median if sketch.n else float("nan")

        return cls(
            developed.wired_fraction, developing.wired_fraction,
            median(roster.by_spectrum[Spectrum.GHZ_2_4]),
            median(roster.by_spectrum[Spectrum.GHZ_5]),
            median(wifi.neighbor_aps[(Spectrum.GHZ_2_4, "developed")]),
            median(wifi.neighbor_aps[(Spectrum.GHZ_2_4, "developing")]))


def section5_highlights(data: StudyData) -> Section5Highlights:
    """Compute Table 4 from the Devices + WiFi data sets."""
    return Section5Highlights.from_folds(
        fold_homes(RosterFold(data.routers), data.roster),
        fold_homes(WifiFold(data.routers), data.wifi_scans))
