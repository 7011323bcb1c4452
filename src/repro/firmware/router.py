"""One instrumented gateway: the collectors wired onto one household.

:class:`BismarkRouter` runs whichever collectors the home's consent tier
enables (paper Section 3.2.1: most homes only report non-PII diagnostics;
only homes with written consent run the traffic monitor) and returns a
:class:`RouterOutput` bundle for the collection server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.collection.batches import ColumnarRecords
from repro.core.datasets import ThroughputSeries
from repro.core.records import (
    CapacityMeasurement,
    DeviceCountSample,
    DeviceRosterEntry,
    DnsRecord,
    FlowRecord,
    UptimeReport,
    WifiScanSample,
)
from repro.simulation.household import Household
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import StudyWindows
from repro.firmware.anonymize import AnonymizationPolicy
from repro.firmware.capacity import capacity_measurements
from repro.firmware.devices import device_counts, device_roster
from repro.firmware.heartbeat import heartbeat_send_times
from repro.firmware.traffic import monitor_traffic
from repro.firmware.uptime import uptime_reports
from repro.firmware.wifi import wifi_scans


@dataclass
class RouterOutput:
    """Everything one router produced over the study."""

    router_id: str
    heartbeat_sends: np.ndarray
    uptime: List[UptimeReport] = field(default_factory=list)
    capacity: List[CapacityMeasurement] = field(default_factory=list)
    device_counts: List[DeviceCountSample] = field(default_factory=list)
    roster: List[DeviceRosterEntry] = field(default_factory=list)
    wifi_scans: List[WifiScanSample] = field(default_factory=list)
    flows: List[FlowRecord] = field(default_factory=list)
    throughput: Optional[ThroughputSeries] = None
    dns: List[DnsRecord] = field(default_factory=list)


class BismarkRouter:
    """The firmware stack for one home."""

    def __init__(self, household: Household, seeds: SeedHierarchy,
                 policy: AnonymizationPolicy,
                 collect_uptime: bool = True,
                 collect_devices: bool = True,
                 collect_wifi: bool = True,
                 collect_traffic: bool = False):
        self.household = household
        self.policy = policy
        self.collect_uptime = collect_uptime
        self.collect_devices = collect_devices
        self.collect_wifi = collect_wifi
        self.collect_traffic = collect_traffic
        self._seeds = seeds.child("firmware", household.router_id)

    def run(self, windows: StudyWindows) -> RouterOutput:
        """Run every enabled collector over its Table 2 window."""
        home = self.household
        heartbeat_sends = heartbeat_send_times(
            home, *windows.heartbeats,
            rng=self._seeds.generator("heartbeat"))
        capacity = capacity_measurements(
            home, *windows.capacity,
            rng=self._seeds.generator("capacity"))
        output = RouterOutput(
            router_id=home.router_id,
            heartbeat_sends=heartbeat_sends,
            capacity=capacity,
        )
        if self.collect_uptime:
            output.uptime = uptime_reports(
                home, *windows.uptime,
                rng=self._seeds.generator("uptime"))
        if self.collect_devices:
            output.device_counts = device_counts(
                home, *windows.devices,
                rng=self._seeds.generator("devices"))
            output.roster = device_roster(home, *windows.devices,
                                          self.policy)
        if self.collect_wifi:
            output.wifi_scans = wifi_scans(
                home, *windows.wifi, rng=self._seeds.generator("wifi"))
        if self.collect_traffic:
            output.throughput, flows, dns = monitor_traffic(
                home, *windows.traffic,
                rng=self._seeds.generator("traffic"),
                policy=self.policy)
            output.flows = list(ColumnarRecords("flows", home.router_id,
                                                flows))
            output.dns = list(ColumnarRecords("dns", home.router_id, dns))
        return output
