"""Typed containers for the six collected data sets, plus Table 2.

:class:`StudyData` is the hand-off point between collection and analysis —
everything Sections 4-6 compute starts from one of these.  Two data sets
are keyed, one value of numpy arrays per router (:data:`KEYED_DATASETS`):
heartbeat timestamps (:class:`HeartbeatLog`) and per-minute throughput
(:class:`ThroughputSeries`); the rest are plain record lists, which the
per-home figure folds read through :func:`by_router`.  One home's flows
summed (:class:`FlowTotals`) carry the paper's ≥100 MB Traffic bar.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.core.records import (
    OBFUSCATED_DOMAIN,
    RECORD_DATASETS,
    CapacityMeasurement,
    DeviceCountSample,
    DeviceRosterEntry,
    DnsRecord,
    FlowRecord,
    RouterInfo,
    ThroughputSample,
    UptimeReport,
    WifiScanSample,
)
from repro.simulation.timebase import MINUTE, StudyCalendar, StudyWindows

#: The paper's activity bar for the Traffic data set (Section 3.2.2).
TRAFFIC_MIN_BYTES = 100e6

#: Development-group label by ``RouterInfo.developed``, developed first.
GROUP = {True: "developed", False: "developing"}


def by_router(records: Iterable) -> Iterator[Tuple[str, object]]:
    """A data set's ``(router_id, records)`` per home.

    Records are grouped in first-appearance order, keeping each home's
    record order (float sums depend on it); a home's records need not be
    contiguous.  A keyed data set (heartbeat logs, throughput series)
    holds one entry per home already.
    """
    if isinstance(records, dict):
        return iter(records.items())
    homes: Dict[str, List] = {}
    for router_id, run in itertools.groupby(records,
                                            key=attrgetter("router_id")):
        homes.setdefault(router_id, []).extend(run)
    return iter(homes.items())


def fold_homes(fold, records: Iterable):
    """Feed a data set to a figure fold home by home; returns *fold*."""
    for router_id, home in by_router(records):
        fold.add_home(router_id, home)
    return fold


class FlowTotals:
    """One home's flows summed per device and per domain, in record order.

    Passing *device_bytes* also adds each flow to that per-MAC tally.
    """

    def __init__(self, flows: Iterable,
                 device_bytes: Optional[Dict[str, float]] = None) -> None:
        count = 0
        total = 0.0
        devices: Dict[str, float] = {}
        domains: Dict[str, List[float]] = {}
        for flow in flows:
            count += 1
            volume = flow.bytes_total
            total += volume
            mac = flow.device_mac
            devices[mac] = devices.get(mac, 0.0) + volume
            if device_bytes is not None:
                device_bytes[mac] = device_bytes.get(mac, 0.0) + volume
            totals = domains.get(flow.domain)
            if totals is None:
                domains[flow.domain] = [volume, 1.0]
            else:
                totals[0] += volume
                totals[1] += 1.0
        #: Flows read, their bytes, and bytes per device MAC; per domain,
        #: ``[bytes, connections]`` (the obfuscated domain included).
        self.flows, self.total, self.devices, self.domains = \
            count, total, devices, domains

    def qualifies(self, min_bytes: float = TRAFFIC_MIN_BYTES) -> bool:
        """Whether the home clears the Traffic activity bar."""
        return self.total >= min_bytes

    def visible(self) -> Dict[str, List[float]]:
        """The whitelisted domains' totals (the obfuscated is never ranked)."""
        return {name: totals for name, totals in self.domains.items()
                if name != OBFUSCATED_DOMAIN}


class CalendarPool:
    """Shared memoized :class:`StudyCalendar` lookup for a router table.

    Calendars only depend on the timezone offset, so one instance per
    distinct offset serves every router in it.  The Fig. 13 fold uses
    this pool instead of a per-function cache.
    """

    def __init__(self, routers: Dict[str, "RouterInfo"]):
        self._routers = routers
        self._by_offset: Dict[float, StudyCalendar] = {}

    def get(self, router_id: str) -> Optional[StudyCalendar]:
        """The router's local calendar, or None for an unknown router."""
        info = self._routers.get(router_id)
        if info is None:
            return None
        calendar = self._by_offset.get(info.tz_offset_hours)
        if calendar is None:
            calendar = StudyCalendar(info.tz_offset_hours)
            self._by_offset[info.tz_offset_hours] = calendar
        return calendar


@dataclass
class HeartbeatLog:
    """All heartbeats received from one router, as a sorted timestamp array."""

    router_id: str
    timestamps: np.ndarray

    def __post_init__(self) -> None:
        self.timestamps = np.asarray(self.timestamps, dtype=float)
        if self.timestamps.ndim != 1:
            raise ValueError("heartbeat timestamps must be one-dimensional")
        if not np.isfinite(self.timestamps).all():
            raise ValueError("heartbeat timestamps must be finite")
        if np.any(np.diff(self.timestamps) < 0):
            self.timestamps = np.sort(self.timestamps)

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def clipped(self, start: float, end: float) -> "HeartbeatLog":
        """Heartbeats within ``[start, end)``."""
        mask = (self.timestamps >= start) & (self.timestamps < end)
        return HeartbeatLog(self.router_id, self.timestamps[mask])


@dataclass
class ThroughputSeries:
    """Per-minute peak-throughput series for one router (Section 6.2)."""

    router_id: str
    start: float
    up_bps: np.ndarray
    down_bps: np.ndarray
    interval_seconds: float = MINUTE

    def __post_init__(self) -> None:
        self.up_bps = np.asarray(self.up_bps, dtype=float)
        self.down_bps = np.asarray(self.down_bps, dtype=float)
        if self.up_bps.shape != self.down_bps.shape:
            raise ValueError("up/down series must be the same length")
        if not math.isfinite(self.start):
            raise ValueError("series start must be finite")
        if not 0 < self.interval_seconds < math.inf:
            raise ValueError("interval must be finite and positive")
        for values in (self.up_bps, self.down_bps):
            if not (np.isfinite(values) & (values >= 0)).all():
                raise ValueError("throughput must be finite and non-negative")

    def __len__(self) -> int:
        return int(self.up_bps.size)

    @property
    def timestamps(self) -> np.ndarray:
        """Epochs of each minute slot's start."""
        return self.start + np.arange(self.up_bps.size) * self.interval_seconds

    def samples(self) -> Iterator[ThroughputSample]:
        """Materialize record objects (for export; analysis uses arrays)."""
        for epoch, up, down in zip(self.timestamps, self.up_bps, self.down_bps):
            yield ThroughputSample(self.router_id, float(epoch),
                                   float(up), float(down))

    def active_mask(self) -> np.ndarray:
        """Minutes during which some device exchanged traffic.

        The paper's utilization statistic "only consider[s] instances when
        there is some device exchanging traffic with the Internet".
        """
        return (self.up_bps > 0) | (self.down_bps > 0)


class KeyedDataset(NamedTuple):
    """One keyed data set's entry in :data:`KEYED_DATASETS`."""

    #: The per-router value class: ``router_id`` and the fields below.
    value: type
    #: Scalar fields, kept with their int/float kind.
    scalars: Tuple[str, ...]
    #: Array fields, float64.
    arrays: Tuple[str, ...]

    def canonical(self, value) -> Tuple[tuple, tuple]:
        """*value*'s scalars as floats and its arrays' float64 bytes:
        what :func:`study_digest` hashes, so two values are bitwise
        identical when these are equal."""
        return (tuple(float(getattr(value, name)) for name in self.scalars),
                tuple(np.ascontiguousarray(getattr(value, name),
                                           dtype=float).tobytes()
                      for name in self.arrays))


#: The two keyed data sets, one value per router rather than a record
#: list.  Each name is also the value's :class:`StudyData` attribute.
KEYED_DATASETS: Dict[str, KeyedDataset] = {
    "heartbeats": KeyedDataset(HeartbeatLog, (), ("timestamps",)),
    "throughput": KeyedDataset(ThroughputSeries,
                               ("start", "interval_seconds"),
                               ("up_bps", "down_bps")),
}


@dataclass
class StudyData:
    """Everything the deployment collected, ready for analysis."""

    routers: Dict[str, RouterInfo]
    windows: StudyWindows
    heartbeats: Dict[str, HeartbeatLog] = field(default_factory=dict)
    uptime_reports: List[UptimeReport] = field(default_factory=list)
    capacity: List[CapacityMeasurement] = field(default_factory=list)
    device_counts: List[DeviceCountSample] = field(default_factory=list)
    roster: List[DeviceRosterEntry] = field(default_factory=list)
    wifi_scans: List[WifiScanSample] = field(default_factory=list)
    flows: List[FlowRecord] = field(default_factory=list)
    throughput: Dict[str, ThroughputSeries] = field(default_factory=dict)
    dns: List[DnsRecord] = field(default_factory=list)
    #: Per-router heartbeat delivery tally ``{router_id: (sent, delivered)}``
    #: from the collection server's loss accounting.  Operational metadata,
    #: not collected data: it feeds the deployment-health report and is
    #: deliberately excluded from :func:`study_digest` (the digest covers
    #: what was *collected*, and older archives lack the tally).
    heartbeat_delivery: Dict[str, Tuple[int, int]] = field(
        default_factory=dict)

    # -- router helpers --------------------------------------------------------

    def router_ids(self) -> List[str]:
        """All deployed router ids, sorted."""
        return sorted(self.routers)

    def developed_ids(self) -> List[str]:
        """Routers in developed countries."""
        return sorted(rid for rid, info in self.routers.items()
                      if info.developed)

    def developing_ids(self) -> List[str]:
        """Routers in developing countries."""
        return sorted(rid for rid, info in self.routers.items()
                      if not info.developed)

    def info(self, router_id: str) -> RouterInfo:
        """Metadata for one router (KeyError if unknown)."""
        return self.routers[router_id]

    def countries_of(self, router_ids: Sequence[str]) -> List[str]:
        """Distinct country codes among *router_ids*, sorted."""
        return sorted({self.routers[rid].country_code for rid in router_ids
                       if rid in self.routers})

    # -- traffic helpers ---------------------------------------------------------

    def traffic_bytes_by_router(self) -> Dict[str, float]:
        """Total Traffic-data-set bytes per router (from flow records)."""
        return {rid: FlowTotals(flows).total
                for rid, flows in by_router(self.flows)}

    def qualifying_traffic_routers(
            self, min_bytes: float = TRAFFIC_MIN_BYTES) -> List[str]:
        """Routers whose Traffic data clears the paper's ≥100 MB bar."""
        return sorted(rid for rid, flows in by_router(self.flows)
                      if FlowTotals(flows).qualifies(min_bytes))


#: Digest line tag per data set, in digest order: heartbeats first,
#: throughput between flows and DNS.  A record list hashes its RowCodec
#: rows, a keyed value its :meth:`KeyedDataset.canonical` form.
_DIGEST_TAGS = {"heartbeats": "heartbeats", "uptime": "uptime",
                "capacity": "capacity", "device_counts": "device_counts",
                "roster": "roster", "wifi_scans": "wifi", "flows": "flow",
                "throughput": "throughput", "dns": "dns"}


def study_digest(data: StudyData) -> str:
    """Canonical SHA-256 digest of everything a study collected.

    Two ``StudyData`` bundles digest identically iff every record, array,
    and window matches bitwise.  Record lists hash in their stored
    (deterministically sorted) order; keyed dicts hash in sorted-key
    order; floats hash via their exact binary representation — so the
    digest is the engine's determinism oracle: ``workers=1`` vs
    ``workers=4``, memory vs spill backend, must all agree.
    """
    hasher = hashlib.sha256()

    def put(*parts: object) -> None:
        for part in parts:
            if isinstance(part, float):
                hasher.update(np.float64(part).tobytes())
            else:
                # Row values: None hashes as "" and a bool as 0/1.
                if part is None:
                    part = ""
                elif isinstance(part, bool):
                    part = int(part)
                hasher.update(str(part).encode())
            hasher.update(b"\x1f")
        hasher.update(b"\n")

    for name in ("heartbeats", "uptime", "capacity", "devices", "wifi",
                 "traffic"):
        window = getattr(data.windows, name)
        put("window", name, float(window[0]), float(window[1]))
    for rid in sorted(data.routers):
        info = data.routers[rid]
        put("router", rid, info.country_code, int(info.developed),
            float(info.tz_offset_hours), float(info.gdp_ppp_per_capita))
    for dataset, tag in _DIGEST_TAGS.items():
        keyed = KEYED_DATASETS.get(dataset)
        if keyed is not None:
            values = getattr(data, dataset)
            for rid in sorted(values):
                scalars, arrays = keyed.canonical(values[rid])
                put(tag, rid, *scalars, len(values[rid]))
                for blob in arrays:
                    hasher.update(blob)
            continue
        table = RECORD_DATASETS[dataset]
        to_row = table.codec.to_row
        for record in getattr(data, table.attr):
            put(tag, *to_row(record))
    return hasher.hexdigest()


@dataclass(frozen=True)
class DatasetSummary:
    """One row of the paper's Table 2."""

    name: str
    kind: str  # "active" or "passive"
    routers: int
    countries: int
    window: Tuple[float, float]


#: Table 2's rows: name, kind and the data sets whose routers it counts;
#: each row's window is the :class:`StudyWindows` field of its name.
_TABLE2_ROWS = (
    ("Heartbeats", "active", ("heartbeats",)),
    ("Capacity", "active", ("capacity",)),
    ("Uptime", "passive", ("uptime",)),
    ("Devices", "passive", ("device_counts",)),
    ("WiFi", "passive", ("wifi_scans",)),
    ("Traffic", "passive", ("flows", "throughput")),
)


def dataset_summaries(router_sets: Dict[str, set],
                      routers: Dict[str, RouterInfo],
                      windows: StudyWindows) -> List[DatasetSummary]:
    """Table 2 from the distinct routers each data set holds records of."""
    rows = []
    for name, kind, sources in _TABLE2_ROWS:
        ids = set().union(*(router_sets[source] for source in sources))
        countries = {routers[rid].country_code for rid in ids
                     if rid in routers}
        rows.append(DatasetSummary(name, kind, len(ids), len(countries),
                                   getattr(windows, name.lower())))
    return rows


def summarize_datasets(data: StudyData) -> List[DatasetSummary]:
    """Reproduce Table 2: per-data-set router/country counts and windows."""
    router_sets = {name: {record.router_id
                          for record in getattr(data, table.attr)}
                   for name, table in RECORD_DATASETS.items()}
    router_sets.update((name, set(getattr(data, name)))
                       for name in KEYED_DATASETS)
    return dataset_summaries(router_sets, data.routers, data.windows)
