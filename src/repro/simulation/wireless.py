"""The wireless neighborhood: how many other APs does a home hear?

Figure 11 of the paper shows two things this module reproduces:

* developed-country homes hear far more 2.4 GHz neighbors (median ≈ 20)
  than developing-country homes (median ≈ 2);
* both distributions are *bimodal* — a home either hears very few APs
  (detached house, rural) or a lot (apartment building, dense urban).

The 5 GHz band is nearly empty everywhere (median ≈ 1).

Each home gets a static *density class* (sparse or dense) and a concrete
neighborhood: every neighboring AP has a channel assignment
(:mod:`repro.simulation.channels`), and a scan hears only the neighbors
whose channel overlaps the scanned one — reproducing the paper's
configured-channel-only vantage and letting the full-spectrum ablation
quantify what it misses.  Individual scans jitter because neighboring APs
power-cycle and signal conditions vary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional

import numpy as np

from repro.core.records import Spectrum
from repro.simulation.channels import (
    assign_channels,
    audible,
    channel_weights,
    contention_index,
    least_contended_channel,
)

#: Default channels the BISmark firmware configures (Section 3.2.2): the
#: scanner only sees APs sharing (or overlapping) the configured channel.
DEFAULT_CHANNELS: Dict[Spectrum, int] = {
    Spectrum.GHZ_2_4: 11,
    Spectrum.GHZ_5: 36,
}

#: Per-scan churn (see :meth:`WirelessEnvironment.scan_neighbor_count`):
#: the chance each audible neighbor is heard, and the mean transient APs.
SCAN_VISIBILITY = 0.85
TRANSIENT_AP_MEAN = 0.15


@dataclass(frozen=True)
class WirelessEnvironmentConfig:
    """Static parameters of one home's radio neighborhood."""

    #: Mean 2.4 GHz neighbor count *visible on the configured channel* for
    #: dense homes in this country (the Fig. 11 calibration target).
    neighbor_ap_level: float
    #: Probability the home is in a sparse (few-neighbor) location.
    sparse_probability: float = 0.35

    def __post_init__(self) -> None:
        if self.neighbor_ap_level < 0:
            raise ValueError("neighbor_ap_level cannot be negative")
        if not 0 <= self.sparse_probability <= 1:
            raise ValueError("sparse_probability must be in [0, 1]")


@lru_cache(maxsize=None)
def _audible_mass(spectrum: Spectrum, channel: int) -> float:
    """Fraction of neighborhood popularity audible from *channel*."""
    channels, weights = channel_weights(spectrum)
    return float(sum(w for c, w in zip(channels, weights)
                     if audible(spectrum, channel, c)))


class WirelessEnvironment:
    """One home's neighbor-AP population, with per-AP channels.

    The home's density class, total neighborhood size, and each neighbor's
    channel are drawn once at construction;
    :meth:`scan_neighbor_count` produces the per-scan counts the WiFi
    collector records.
    """

    def __init__(self, rng: np.random.Generator,
                 config: WirelessEnvironmentConfig):
        self.config = config
        self.sparse = bool(rng.random() < config.sparse_probability)
        self.channels = dict(DEFAULT_CHANNELS)

        # Calibrate the *visible-on-default-channel* count (the Fig. 11
        # quantity), then size the total neighborhood so that the expected
        # audible fraction reproduces it.
        if self.sparse:
            visible_24 = rng.poisson(max(config.neighbor_ap_level * 0.08,
                                         0.4))
        else:
            visible_24 = rng.poisson(max(config.neighbor_ap_level, 0.4))
        visible_5 = rng.poisson(1.2 if not self.sparse else 0.2)

        self._neighbors: Dict[Spectrum, List[int]] = {}
        for spectrum, visible in ((Spectrum.GHZ_2_4, int(visible_24)),
                                  (Spectrum.GHZ_5, int(visible_5))):
            mass = _audible_mass(spectrum, self.channels[spectrum])
            total = int(round(visible / mass)) if visible else 0
            channels = assign_channels(rng, spectrum, total)
            # Guarantee the calibrated visible count exactly: top up with
            # co-channel neighbors if the draw under-shot.
            audible_now = sum(
                1 for c in channels
                if audible(spectrum, self.channels[spectrum], c))
            channels += [self.channels[spectrum]] * max(
                visible - audible_now, 0)
            self._neighbors[spectrum] = channels

    @classmethod
    def from_columns(cls, config: WirelessEnvironmentConfig, sparse: bool,
                     neighbors: Dict[Spectrum, List[int]],
                     ) -> "WirelessEnvironment":
        """Rebuild an environment from cohort columns (no RNG consumed).

        The columnar materializer stores ``(sparse, neighbor channels)``
        after drawing them once; this reconstructs an object identical to
        the one the draws produced.
        """
        obj = cls.__new__(cls)
        obj.config = config
        obj.sparse = sparse
        obj.channels = dict(DEFAULT_CHANNELS)
        obj._neighbors = neighbors
        return obj

    # -- ground-truth queries ---------------------------------------------------

    def neighborhood_channels(self, spectrum: Spectrum) -> List[int]:
        """Every neighbor's channel on one band (ground truth)."""
        return list(self._neighbors[spectrum])

    def total_neighbors(self, spectrum: Spectrum) -> int:
        """All neighboring APs on one band, audible or not."""
        return len(self._neighbors[spectrum])

    def base_neighbor_count(self, spectrum: Spectrum,
                            channel: Optional[int] = None) -> int:
        """Neighbors audible from *channel* (default: the configured one)."""
        scan_channel = channel if channel is not None \
            else self.channels[spectrum]
        return sum(1 for c in self._neighbors[spectrum]
                   if audible(spectrum, scan_channel, c))

    def contention(self, spectrum: Spectrum,
                   channel: Optional[int] = None) -> float:
        """Interference pressure on a channel from the whole neighborhood."""
        own = channel if channel is not None else self.channels[spectrum]
        return contention_index(spectrum, own,
                                self._neighbors[spectrum])

    def best_channel(self, spectrum: Spectrum) -> int:
        """The least-contended channel (what a spectrum-aware AP picks)."""
        return least_contended_channel(spectrum,
                                       self._neighbors[spectrum])

    # -- the scanner's view --------------------------------------------------------

    def scan_neighbor_count(self, spectrum: Spectrum,
                            rng: np.random.Generator,
                            channel: Optional[int] = None) -> int:
        """One scan's visible-AP count: audible neighbors plus churn.

        Churn is per-neighbor Bernoulli thinning (some neighbors asleep or
        below the noise floor) plus a small Poisson arrival of transient
        networks (hotspots, printers).
        """
        base = self.base_neighbor_count(spectrum, channel)
        visible = int(rng.binomial(base, SCAN_VISIBILITY)) if base > 0 else 0
        transient = int(rng.poisson(TRANSIENT_AP_MEAN))
        return visible + transient
