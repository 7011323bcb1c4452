"""The WiFi scanner: neighbor APs on the configured channel (Section 3.2.2).

Every ~10 minutes the firmware scans the channel each radio is configured
for (2.4 GHz channel 11, 5 GHz channel 36 by default) and records visible
access points.  Scanning can knock associated clients off the AP, so the
real firmware backs off when clients are associated — we reproduce that:
with clients present, two of every three scheduled scans are skipped.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.records import Medium, Spectrum, WifiScanSample
from repro.simulation.channels import CHANNELS_2_4, CHANNELS_5, audible_counts
from repro.simulation.household import Household
from repro.simulation.timebase import MINUTE
from repro.simulation.wireless import SCAN_VISIBILITY, TRANSIENT_AP_MEAN

SCAN_INTERVAL = 10 * MINUTE
#: With associated clients, only one in this many scheduled scans runs.
BACKOFF_FACTOR = 3


def _associated_clients(household: Household, epoch: float,
                        spectrum: Spectrum) -> int:
    return sum(
        1 for device in household.devices
        if device.medium is Medium.WIRELESS
        and device.spectrum is spectrum
        and device.is_connected(epoch)
    )


def _client_counts(household: Household, spectrum: Spectrum,
                   ticks: np.ndarray) -> np.ndarray:
    """Associated-client counts on one band for every tick at once.

    Element-wise identical to calling :func:`_associated_clients` per tick
    — the per-spectrum wireless device list is collected once and each
    device contributes its association mask in one vectorized query
    instead of a per-tick scan over all devices.
    """
    counts = np.zeros(ticks.size, dtype=np.int64)
    for device in household.devices:
        if device.medium is not Medium.WIRELESS or device.spectrum is not spectrum:
            continue
        if device.always_connected:
            counts += 1
        else:
            counts += device.connected.contains_many(ticks)
    return counts


def wifi_scans(household: Household, start: float, end: float,
               rng: np.random.Generator,
               interval: float = SCAN_INTERVAL,
               backoff_factor: int = BACKOFF_FACTOR) -> List[WifiScanSample]:
    """Collect the neighbor-AP scans one router ran in ``[start, end)``.

    The per-tick work (router powered? clients on band?) is precomputed
    with vectorized interval queries; the remaining loop only builds the
    samples that actually scan, drawing the neighbor-count RNG in exactly
    the original tick/spectrum order.
    """
    if interval <= 0:
        raise ValueError("scan interval must be positive")
    if backoff_factor < 1:
        raise ValueError("backoff factor must be at least 1")
    samples: List[WifiScanSample] = []
    phase = float(rng.uniform(0, interval))
    # Accumulate ticks exactly as the original `tick += interval` loop did
    # (np.arange would multiply instead and can differ in the last ulp).
    tick_list: List[float] = []
    tick = start + phase
    while tick < end:
        tick_list.append(tick)
        tick += interval
    if not tick_list:
        return samples
    ticks = np.asarray(tick_list)
    powered = household.power.on_intervals.contains_many(ticks)
    clients_by_spectrum = {
        spectrum: _client_counts(household, spectrum, ticks).tolist()
        for spectrum in (Spectrum.GHZ_2_4, Spectrum.GHZ_5)
    }
    wireless = household.wireless
    for index, tick in enumerate(tick_list):
        if not powered[index]:
            continue
        backed_off = index % backoff_factor != 0
        for spectrum in (Spectrum.GHZ_2_4, Spectrum.GHZ_5):
            clients = clients_by_spectrum[spectrum][index]
            if clients > 0 and backed_off:
                continue
            samples.append(WifiScanSample(
                router_id=household.router_id,
                timestamp=tick,
                spectrum=spectrum,
                neighbor_aps=wireless.scan_neighbor_count(spectrum, rng),
                associated_clients=clients,
                channel=wireless.channels[spectrum],
            ))
    return samples


def full_spectrum_scans(household: Household, epoch: float,
                        rng: np.random.Generator) -> List[WifiScanSample]:
    """Sweep every channel of both bands once (the Section 7 extension).

    The deployed firmware never did this (a sweep takes the radio off the
    service channel for seconds), but it is the measurement the paper says
    it wants: "more widespread statistics about the usage of wireless
    spectrum".  The ablation bench quantifies what the deployed
    single-channel scan misses.

    The per-channel loop is batched: client counts come from one
    ``_client_counts`` query per band and the audible-neighbor base
    counts from one :func:`~repro.simulation.channels.audible_counts`
    broadcast over the whole band, leaving only the RNG draws — which
    stay scalar, per channel in sweep order, so the samples are
    bitwise-identical to the per-channel ``scan_neighbor_count`` path.
    """
    samples: List[WifiScanSample] = []
    router_id = household.router_id
    wireless = household.wireless
    tick = np.asarray([epoch])
    for spectrum, channels in ((Spectrum.GHZ_2_4, CHANNELS_2_4),
                               (Spectrum.GHZ_5, CHANNELS_5)):
        clients = int(_client_counts(household, spectrum, tick)[0])
        bases = audible_counts(spectrum, channels,
                               wireless.neighborhood_channels(spectrum))
        for channel, base in zip(channels, bases.tolist()):
            visible = (int(rng.binomial(base, SCAN_VISIBILITY))
                       if base > 0 else 0)
            samples.append(WifiScanSample(
                router_id=router_id,
                timestamp=epoch,
                spectrum=spectrum,
                neighbor_aps=visible + int(rng.poisson(TRANSIENT_AP_MEAN)),
                associated_clients=clients,
                channel=channel,
            ))
    return samples
