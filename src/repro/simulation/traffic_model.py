"""The traffic generator: sessions, flows, and per-minute byte series.

This is the substrate under all of Section 6.  For each consenting home it
produces:

* a list of :class:`SimFlow` — one entry per TCP connection, carrying the
  *real* device MAC and the *real* domain (the firmware anonymizes both
  before anything leaves the home);
* per-minute upstream/downstream byte series at the gateway, from which the
  traffic monitor derives the paper's "maximum per-second throughput every
  minute" statistic.

Generation walks device-hours: whenever a device is associated and the
household is active, the device opens sessions at its own rate; each session
picks a domain from the home's :class:`~repro.simulation.domains.DomainSampler`
and expands into connections whose byte counts follow the domain category's
flow shape.  Two special *uplink saturator* behaviours reproduce Fig. 16:
``"continuous"`` uploads scientific data around the clock; ``"diurnal"``
bursts uploads in the evening.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.intervals import IntervalSet
from repro.simulation.behavior import ActivitySchedule
from repro.simulation.device_models import SimDevice
from repro.simulation.domains import Domain, DomainSampler
from repro.simulation.timebase import HOUR, MINUTE, StudyCalendar


@dataclass(frozen=True)
class SimFlow:
    """One simulated TCP connection, pre-anonymization."""

    timestamp: float
    device_index: int
    domain: Domain
    bytes_up: float
    bytes_down: float
    duration_seconds: float


@dataclass
class HomeTraffic:
    """One home's generated traffic over a window."""

    window: Tuple[float, float]
    flows: List[SimFlow]
    #: Per-minute gateway byte counts; index 0 is the window start minute.
    minute_up_bytes: np.ndarray
    minute_down_bytes: np.ndarray

    @property
    def minutes(self) -> int:
        """Number of minute slots in the window."""
        return int(self.minute_up_bytes.size)

    def total_bytes(self) -> float:
        """All bytes in both directions."""
        return float(self.minute_up_bytes.sum() + self.minute_down_bytes.sum())


# Overall session-rate scale: sessions per active device-hour per unit of
# device traffic weight.  Tuned so a typical home moves 0.5-5 GB/day.
_SESSIONS_PER_WEIGHT_HOUR = 1.1


class TrafficGenerator:
    """Generates one home's traffic over the Traffic window."""

    def __init__(self, rng: np.random.Generator,
                 devices: Sequence[SimDevice],
                 schedule: ActivitySchedule,
                 calendar: StudyCalendar,
                 sampler: DomainSampler,
                 online: IntervalSet,
                 uplink_saturator: Optional[str] = None,
                 upstream_capacity_bps: float = 1e6,
                 intensity: float = 1.0):
        if uplink_saturator not in (None, "continuous", "diurnal"):
            raise ValueError(f"unknown saturator mode {uplink_saturator!r}")
        if intensity <= 0:
            raise ValueError("intensity must be positive")
        self.rng = rng
        self.devices = list(devices)
        self.schedule = schedule
        self.calendar = calendar
        self.sampler = sampler
        self.online = online
        self.uplink_saturator = uplink_saturator
        self.upstream_capacity_bps = upstream_capacity_bps
        self.intensity = intensity

    # -- top level -------------------------------------------------------------

    def generate(self, start: float, end: float) -> HomeTraffic:
        """Generate flows and minute series for ``[start, end)``."""
        if end <= start:
            raise ValueError("traffic window must be non-empty")
        n_minutes = int(np.ceil((end - start) / MINUTE))
        up = np.zeros(n_minutes)
        down = np.zeros(n_minutes)
        flows: List[SimFlow] = []
        spreads: List[Tuple[int, int, float, float]] = []

        for index, device in enumerate(self.devices):
            for hour_start, hour_end in device.connected_intervals(start, end):
                cursor = hour_start
                while cursor < hour_end:
                    slot_end = min(cursor + HOUR, hour_end)
                    self._device_hour(index, device, cursor, slot_end,
                                      start, up, flows, spreads)
                    cursor = slot_end

        # Flush every connection's bin spread in one pass, before the
        # saturator overlay touches the series (as the incremental adds
        # used to happen before it).
        self._flush_spreads(spreads, up, down)

        if self.uplink_saturator is not None:
            self._add_saturator_upload(start, end, up, flows)

        self._mask_offline(start, up, down)
        if flows:
            timestamps = np.fromiter((f.timestamp for f in flows),
                                     dtype=np.float64, count=len(flows))
            keep = self.online.contains_many(timestamps)
            flows = [f for f, k in zip(flows, keep) if k]
        flows.sort(key=lambda f: f.timestamp)
        return HomeTraffic(window=(start, end), flows=flows,
                           minute_up_bytes=up, minute_down_bytes=down)

    # -- pieces ----------------------------------------------------------------

    def _device_hour(self, index: int, device: SimDevice,
                     slot_start: float, slot_end: float,
                     window_start: float,
                     up: np.ndarray, flows: List[SimFlow],
                     spreads: List[Tuple[int, int, float, float]]) -> None:
        """Generate the sessions one device opens during one hour slot."""
        activity = self.schedule.activity(self.calendar, slot_start)
        mean_sessions = (device.traffic_weight * activity
                         * _SESSIONS_PER_WEIGHT_HOUR * self.intensity
                         * (slot_end - slot_start) / HOUR)
        n_sessions = int(self.rng.poisson(mean_sessions))
        if n_sessions == 0:
            return
        profile_key = device.traits.traffic_profile
        domains = self.sampler.sample(self.rng, profile_key, n_sessions)
        for domain in domains:
            session_start = float(self.rng.uniform(slot_start, slot_end))
            self._expand_session(index, domain, session_start,
                                 window_start, up, flows, spreads)

    def _expand_session(self, device_index: int, domain: Domain,
                        session_start: float, window_start: float,
                        up: np.ndarray, flows: List[SimFlow],
                        spreads: List[Tuple[int, int, float, float]]) -> None:
        """Expand one session into connections and account their bytes.

        The RNG draws stay scalar and in the original per-connection order
        (the digest contract); only the RNG-free work is batched — the log
        of the profile means is hoisted out of the connection loop and the
        bin spreads are recorded for one vectorized flush.
        """
        profile = domain.profile
        n_conns = 1 + int(self.rng.poisson(
            max(profile.connections_per_session - 1, 0)))
        log_bytes = np.log(profile.bytes_per_connection)
        log_duration = np.log(profile.duration_seconds)
        for conn in range(n_conns):
            conn_start = session_start + conn * float(self.rng.uniform(0.5, 10.0))
            total = float(self.rng.lognormal(log_bytes, profile.bytes_sigma))
            bytes_up = total * profile.upstream_fraction
            bytes_down = total - bytes_up
            duration = max(float(self.rng.lognormal(log_duration, 0.6)), 1.0)
            flows.append(SimFlow(
                timestamp=conn_start,
                device_index=device_index,
                domain=domain,
                bytes_up=bytes_up,
                bytes_down=bytes_down,
                duration_seconds=duration,
            ))
            self._accumulate(conn_start, duration, bytes_up, bytes_down,
                             window_start, up.size, spreads)

    @staticmethod
    def _accumulate(conn_start: float, duration: float,
                    bytes_up: float, bytes_down: float,
                    window_start: float, n_minutes: int,
                    spreads: List[Tuple[int, int, float, float]]) -> None:
        """Record which minute bins a connection's bytes spread across."""
        first = int((conn_start - window_start) // MINUTE)
        last = int((conn_start + duration - window_start) // MINUTE)
        first = max(first, 0)
        last = min(max(last, first), n_minutes - 1)
        if first >= n_minutes:
            return
        spreads.append((first, last - first + 1, bytes_up, bytes_down))

    @staticmethod
    def _flush_spreads(spreads: List[Tuple[int, int, float, float]],
                       up: np.ndarray, down: np.ndarray) -> None:
        """Apply all recorded bin spreads in one vectorized pass.

        ``np.add.at`` applies repeated-index contributions in index-array
        order, and the index array concatenates each connection's bins in
        connection order — so every bin receives exactly the additions the
        per-connection slice adds performed, in the same order, keeping
        the float accumulation bitwise identical.
        """
        if not spreads:
            return
        count = len(spreads)
        firsts = np.fromiter((s[0] for s in spreads), dtype=np.int64,
                             count=count)
        spans = np.fromiter((s[1] for s in spreads), dtype=np.int64,
                            count=count)
        bytes_up = np.fromiter((s[2] for s in spreads), dtype=np.float64,
                               count=count)
        bytes_down = np.fromiter((s[3] for s in spreads), dtype=np.float64,
                                 count=count)
        total = int(spans.sum())
        # Concatenated aranges: for each connection, first .. first+span-1.
        resets = np.repeat(np.cumsum(spans) - spans, spans)
        indices = np.repeat(firsts, spans) + np.arange(total) - resets
        np.add.at(up, indices, np.repeat(bytes_up / spans, spans))
        np.add.at(down, indices, np.repeat(bytes_down / spans, spans))

    def _add_saturator_upload(self, start: float, end: float,
                              up: np.ndarray,
                              flows: List[SimFlow]) -> None:
        """Overlay the Fig. 16 upload process onto the uplink series.

        ``continuous`` keeps the uplink offered load above capacity nearly
        all the time (the scientific-data uploader of Fig. 16a);
        ``diurnal`` pushes bursts during evening hours (Fig. 16b).
        """
        capacity_bytes_per_minute = self.upstream_capacity_bps / 8 * MINUTE
        cloud = next((d for d in self.sampler.universe
                      if d.category == "cloud" and d.whitelisted), None)
        minute_epochs = start + np.arange(up.size) * MINUTE
        for slot, epoch in enumerate(minute_epochs):
            if self.uplink_saturator == "continuous":
                load = float(self.rng.uniform(1.05, 1.9))
            else:
                hour = self.calendar.hour_of_day(epoch)
                if 18 <= hour <= 23:
                    load = float(self.rng.uniform(0.9, 1.8))
                elif 8 <= hour < 18:
                    load = float(self.rng.uniform(0.1, 0.5))
                else:
                    load = 0.05
            up[slot] += load * capacity_bytes_per_minute
        # Record the upload as daily long-running flows so domain/device
        # accounting (Figs. 17, 19) sees the bytes too.
        if cloud is not None:
            day = 86400.0
            cursor = start
            while cursor < end:
                chunk_end = min(cursor + day, end)
                seconds = chunk_end - cursor
                flows.append(SimFlow(
                    timestamp=cursor + 1.0,
                    device_index=0,
                    domain=cloud,
                    bytes_up=self.upstream_capacity_bps / 8 * seconds * 0.9,
                    bytes_down=1e6,
                    duration_seconds=seconds,
                ))
                cursor = chunk_end

    def _mask_offline(self, start: float,
                      up: np.ndarray, down: np.ndarray) -> None:
        """Zero traffic in minutes when the gateway or link was down."""
        minute_epochs = start + np.arange(up.size) * MINUTE + MINUTE / 2
        mask = self.online.contains_many(minute_epochs)
        up[~mask] = 0.0
        down[~mask] = 0.0
