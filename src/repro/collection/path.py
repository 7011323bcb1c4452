"""The router→server network path: where heartbeats get lost.

Section 3.3 of the paper is explicit that missing heartbeats are ambiguous:
"a loss of heartbeats might simply result from problems along the network
path between the BISmark router and Georgia Tech".  The path model has two
loss mechanisms:

* independent per-packet loss (a fraction of a percent — far too sparse to
  fake a ≥10-minute downtime by itself);
* rare *collection outages* shared by every router (server maintenance,
  campus network problems), which do create correlated artificial gaps —
  the reason the paper calls its downtime attribution approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.intervals import IntervalSet
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import DAY


@dataclass(frozen=True)
class PathConfig:
    """Loss characteristics of the collection path."""

    #: Independent loss probability per heartbeat.
    packet_loss: float = 0.004
    #: Mean collection-infrastructure outages per day (shared by all homes).
    outage_rate_per_day: float = 1.0 / 180.0
    #: Median collection outage duration, seconds.
    outage_median_seconds: float = 2400.0
    #: Lognormal sigma of collection outage durations.
    outage_sigma: float = 0.8

    def __post_init__(self) -> None:
        if not 0 <= self.packet_loss < 1:
            raise ValueError("packet_loss must be in [0, 1)")
        if self.outage_rate_per_day < 0:
            raise ValueError("outage rate cannot be negative")


class CollectionPath:
    """The shared path/infrastructure loss process for one study."""

    def __init__(self, rng: np.random.Generator,
                 span: Tuple[float, float],
                 config: PathConfig = PathConfig()):
        if span[1] <= span[0]:
            raise ValueError("path span must be non-empty")
        self.config = config
        self.span = span
        self._rng = rng
        self.outages = self._generate_outages(rng)

    @classmethod
    def for_study(cls, seed: int, span: Tuple[float, float],
                  config: Optional[PathConfig] = None) -> "CollectionPath":
        """The path of the study seeded *seed*.  Every ingest route builds
        its path here, so their digests agree for one seed."""
        return cls(SeedHierarchy(seed).generator("collection-path"), span,
                   config or PathConfig())

    def _generate_outages(self, rng: np.random.Generator) -> IntervalSet:
        start, end = self.span
        cfg = self.config
        expected = (end - start) / DAY * cfg.outage_rate_per_day
        count = int(rng.poisson(expected))
        events: List[Tuple[float, float]] = []
        for _ in range(count):
            t = float(rng.uniform(start, end))
            duration = float(rng.lognormal(
                np.log(cfg.outage_median_seconds), cfg.outage_sigma))
            events.append((t, min(t + duration, end)))
        return IntervalSet(events)

    def rng_state(self) -> dict:
        """JSON-able bit-generator state of the path's loss RNG.

        Together with the deterministic ingest order this is what makes
        a campaign resumable: a checkpoint records the state after the
        last ingested shard, and :meth:`set_rng_state` positions a fresh
        path exactly there, so re-ingested shards draw identical loss.
        """
        return self._rng.bit_generator.state

    def set_rng_state(self, state: dict) -> None:
        """Restore the loss RNG to a :meth:`rng_state` snapshot."""
        self._rng.bit_generator.state = state

    def deliver(self, send_times: np.ndarray) -> np.ndarray:
        """Filter one router's heartbeat send times down to deliveries.

        Drops packets inside collection outages, then applies independent
        per-packet loss.  Returns the delivered timestamps in send order;
        :class:`~repro.core.datasets.HeartbeatLog` sorts them.
        """
        times = np.asarray(send_times, dtype=float)
        if times.size == 0:
            return times
        alive = ~self.outages.contains_many(times)
        times = times[alive]
        if times.size and self.config.packet_loss > 0:
            kept = self._rng.random(times.size) >= self.config.packet_loss
            times = times[kept]
        return times
