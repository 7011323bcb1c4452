"""The 12-hourly uptime reporter (paper Section 3.2.2, "Uptime").

Starting March 2013 each router reported its kernel uptime every twelve
hours.  Uptime resets on power cycles but *not* on ISP outages, which is
how the paper distinguishes "router powered off" from "router online but
disconnected" — at the coarse granularity the 12-hour cadence allows.

Reports are only delivered while the router can reach the server (powered
and link up); a powered router behind a dead link queues nothing.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.records import UptimeReport
from repro.simulation.household import Household
from repro.simulation.timebase import HOUR

UPTIME_INTERVAL = 12 * HOUR


def uptime_reports(household: Household, start: float, end: float,
                   rng: np.random.Generator,
                   interval: float = UPTIME_INTERVAL) -> List[UptimeReport]:
    """Collect the uptime reports one router delivered in ``[start, end)``."""
    if interval <= 0:
        raise ValueError("report interval must be positive")
    reports: List[UptimeReport] = []
    phase = float(rng.uniform(0, interval))
    tick = start + phase
    while tick < end:
        if household.is_online(tick):
            uptime = household.uptime_at(tick)
            if uptime is not None:
                reports.append(UptimeReport(
                    router_id=household.router_id,
                    timestamp=tick,
                    uptime_seconds=uptime,
                ))
        tick += interval
    return reports
