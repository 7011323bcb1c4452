"""The 12-hourly ShaperProbe-style capacity measurement.

Every twelve hours the firmware measures the access link's upstream and
downstream capacity (paper Section 3.2.2, "Capacity"; the real tool was
ShaperProbe).  The probe only runs when the router is online, and its
estimates carry the small multiplicative noise modeled by
:meth:`repro.simulation.link.AccessLink.measure_capacity` — Fig. 14 shows
the resulting near-constant capacity lines.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.records import CapacityMeasurement
from repro.simulation.household import Household
from repro.simulation.timebase import HOUR

CAPACITY_INTERVAL = 12 * HOUR


def capacity_measurements(household: Household, start: float, end: float,
                          rng: np.random.Generator,
                          interval: float = CAPACITY_INTERVAL,
                          ) -> List[CapacityMeasurement]:
    """Collect the capacity probes one router ran in ``[start, end)``."""
    if interval <= 0:
        raise ValueError("probe interval must be positive")
    measurements: List[CapacityMeasurement] = []
    phase = float(rng.uniform(0, interval))
    tick = start + phase
    while tick < end:
        if household.is_online(tick):
            estimate = household.link.measure_capacity(tick, rng)
            if estimate is not None:
                down, up = estimate
                measurements.append(CapacityMeasurement(
                    router_id=household.router_id,
                    timestamp=tick,
                    downstream_mbps=down,
                    upstream_mbps=up,
                ))
        tick += interval
    return measurements
