"""Every Section 4-6 figure in one pass per data set, from either source.

Each figure is defined once, as a per-home fold in the section module
that owns it.  This module holds the two sources the folds read
(:class:`StudyDataSource` over an in-RAM study, :class:`StoreSource`
straight off a record store), the :class:`StudyFigures` bundle, and one
pass loop, which :func:`compute_figures` runs with sketches that never
compress and :func:`stream_figures` with sketches that compress past
their exact threshold — the only difference between the two.

Passes run flows first (they fix the ≥100 MB qualifying homes and the
per-MAC volume), then capacity, throughput, heartbeats, device_counts,
roster, wifi_scans and uptime; DNS feeds no figure.  Memory is one
home's records at a time plus the folds' sketches, never a whole data
set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Set, Tuple

import numpy as np

from repro import trace
from repro.core import availability, infrastructure, usage
from repro.core.availability import CountryDowntime, Section4Highlights
from repro.core.datasets import (
    DatasetSummary,
    StudyData,
    by_router,
    dataset_summaries,
    home_columns,
)
from repro.core.infrastructure import (
    AlwaysConnectedRow,
    PortUsage,
    Section5Highlights,
)
from repro.core.records import RECORD_DATASETS, RouterInfo, Spectrum
from repro.core.sketches import QuantileSketch, exact_sketch
from repro.core.stats import HourOfDayProfile, MeanWithSpread
from repro.core.usage import (
    DomainShareSummary,
    SaturationPoint,
    Section6Highlights,
)


class StudyDataSource:
    """Source over an in-RAM :class:`StudyData`."""

    def __init__(self, data: StudyData):
        self.data = data
        self.routers = data.routers
        self.windows = data.windows

    def iter_homes(self, name: str) -> Iterator[Tuple[str, object]]:
        """``(router_id, records)`` per home; see :func:`by_router`."""
        table = RECORD_DATASETS.get(name)
        return by_router(getattr(self.data,
                                 name if table is None else table.attr))


class StoreSource:
    """Source over a live RecordStore — never materializes.

    Reads through the backend's ``iter_homes``, the reader
    ``RecordStore.to_study_data`` uses too, one home at a time.
    """

    def __init__(self, store) -> None:
        self.store = store
        self.windows = store.windows

    @property
    def routers(self) -> Dict[str, RouterInfo]:
        return self.store.routers

    def iter_homes(self, name: str) -> Iterator[Tuple[str, object]]:
        return self.store.backend.iter_homes(name)


@dataclass
class StudyFigures:
    """Every Section 4-6 figure/table, from either entry point.

    CDF-shaped entries are :class:`~repro.core.sketches.QuantileSketch`
    objects.  From :func:`compute_figures` they never compress, so they
    answer exactly as an :class:`~repro.core.stats.EmpiricalCdf` would.
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
    #: Records the folds read (DNS is never read).
    records_streamed: int = 0


#: Rank depth of :attr:`StudyFigures.fig17`; slices reproduce any
#: smaller ``mean_device_share(..., ranks=k)`` bitwise (per-rank sums
#: are independent).
DEVICE_SHARE_RANKS = 10


def _analyze(source, sketch: Callable[[], QuantileSketch]) -> StudyFigures:
    """Run every figure's fold over *source*, one pass per data set."""
    routers = source.routers
    seen: Dict[str, Set[str]] = {}  # Table 2's routers per data set
    records = 0

    def run(dataset: str, step: Callable[[str, object], int]) -> None:
        """One pass: *step* folds in one home's records, returning how
        many it read; a pass's per-home state dies with the pass."""
        nonlocal records
        ids = seen.setdefault(dataset, set())
        with trace.span(f"analyze.{dataset}", cat="analyze"):
            for router_id, home in source.iter_homes(dataset):
                ids.add(router_id)
                records += step(router_id, home)

    traffic = usage.FlowFold(ranks=DEVICE_SHARE_RANKS)
    run("flows", traffic.add_home)
    saturation = usage.SaturationFold(traffic.qualifying)
    run("capacity", saturation.add_capacity)
    run("throughput", saturation.add_home)
    heartbeats = availability.HeartbeatFold(routers, sketch)
    run("heartbeats", heartbeats.add_home)
    census = infrastructure.CensusFold(routers)
    diurnal = usage.DiurnalFold(routers)

    def censuses(router_id: str, samples: Iterator) -> int:
        columns = home_columns(  # both folds read them
            "device_counts", samples, "timestamp", "wired", "wireless_2_4",
            "wireless_5")
        diurnal.add_home(router_id, columns)
        return census.add_home(router_id, columns)

    run("device_counts", censuses)
    roster = infrastructure.RosterFold(
        routers, sketch, device_bytes=traffic.device_bytes,
        traffic_homes=seen["flows"] | seen["throughput"])
    run("roster", roster.add_home)
    wifi = infrastructure.WifiFold(routers, sketch)
    run("wifi_scans", wifi.add_home)
    run("uptime", lambda _, reports: len(
        home_columns("uptime", reports, "timestamp")["timestamp"]))

    fig13 = {key: diurnal.profile(key == "weekend")
             for key in diurnal.profiles}
    fig15 = saturation.points()
    fig17 = traffic.device_shares.result()
    fig19 = traffic.domain_share()
    return StudyFigures(
        datasets=dataset_summaries(seen, routers, source.windows),
        fig3=heartbeats.rates,
        fig4=heartbeats.durations,
        fig5=heartbeats.country_downtimes(),
        table3_availability=heartbeats.availability_by_country(),
        section4=heartbeats.highlights(),
        fig7=roster.devices,
        fig8=census.means("wired", "wireless"),
        fig9=census.means("2.4GHz", "5GHz"),
        fig10=roster.by_spectrum,
        table5=roster.always_connected(),
        ports=census.port_usage(),
        fig11=wifi.neighbor_aps,
        fig12=roster.vendor_histogram(),
        section5=Section5Highlights.from_folds(roster, wifi),
        fig13=fig13,
        fig15=fig15,
        fig17=fig17,
        fig18=traffic.domain_top_counts(),
        fig19=fig19,
        section6=Section6Highlights.from_figures(
            fig13["weekday"], fig13["weekend"], fig15, fig17, fig19),
        records_streamed=records,
    )


def compute_figures(data: StudyData) -> StudyFigures:
    """Every figure of an in-RAM study, with sketches that never compress."""
    return _analyze(StudyDataSource(data), exact_sketch)


def stream_figures(source) -> StudyFigures:
    """Compute every Section 4-6 figure in one pass per data set.

    *source* is a :class:`StoreSource` (streaming straight off a record
    store's backend — the spill store never materializes) or a
    :class:`StudyDataSource`.  Its sketches are default
    :class:`QuantileSketch` instances, which compress past their exact
    threshold.
    """
    return _analyze(source, QuantileSketch)
