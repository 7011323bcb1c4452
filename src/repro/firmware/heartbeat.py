"""The heartbeat sender: ~one packet per minute, no retransmissions.

The real daemon sends a UDP heartbeat to the central server roughly every
minute whenever the router is up and the link carries traffic; heartbeats
are never retransmitted (paper Section 3.2.2).  The simulator therefore
emits a *send* timestamp for every minute slot during which the household
was online; delivery loss is the collection path's job
(:mod:`repro.collection.path`).
"""

from __future__ import annotations

import numpy as np

from repro.simulation.household import Household
from repro.simulation.timebase import MINUTE

HEARTBEAT_INTERVAL = MINUTE
#: Each send lands uniformly within this many seconds of its tick.
HEARTBEAT_JITTER_SECONDS = 2.0


def heartbeat_send_times(household: Household, start: float, end: float,
                         rng: np.random.Generator,
                         interval: float = HEARTBEAT_INTERVAL,
                         jitter_seconds: float = HEARTBEAT_JITTER_SECONDS,
                         ) -> np.ndarray:
    """Epochs at which the router transmitted a heartbeat in ``[start, end)``.

    The daemon ticks on its own clock (a fixed phase per boot, approximated
    here by a fixed per-router phase) and only transmits when the router is
    powered *and* the access link is up — a powered router behind a dead
    link cannot reach the server, which is exactly the ambiguity the
    paper's Section 3.3 discusses.
    """
    if end <= start:
        return np.empty(0)
    if interval <= 0:
        raise ValueError("heartbeat interval must be positive")
    phase = float(rng.uniform(0, interval))
    ticks = np.arange(start + phase, end, interval)
    if ticks.size == 0:
        return ticks
    online = household.online_intervals(start, end)
    sendable = online.contains_many(ticks)
    times = ticks[sendable]
    if jitter_seconds > 0 and times.size:
        times = times + rng.uniform(-jitter_seconds, jitter_seconds,
                                    size=times.size)
    return np.sort(times)
