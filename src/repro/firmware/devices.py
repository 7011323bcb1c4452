"""The hourly device census (paper Section 3.2.2, "Devices").

Every hour the firmware counts devices on the wired Ethernet ports and
associated clients on each wireless band.  The WNDR3800 has exactly four
LAN ports, so the wired count is physically capped at four — the paper
leans on this ("only a few households use all four Ethernet ports").

The census is a *local* observation: it needs the router powered but not
the access link (devices associate with the AP regardless of the ISP), and
it is delivered later in batch, so link outages don't create census holes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

import numpy as np

from repro.core.records import DeviceCountSample, DeviceRosterEntry, Medium, Spectrum
from repro.simulation.household import Household
from repro.simulation.timebase import HOUR

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.firmware.anonymize import AnonymizationPolicy

#: LAN ports on the Netgear WNDR3800/WNDR3700v2.
ETHERNET_PORTS = 4

CENSUS_INTERVAL = HOUR
#: See *min_on_fraction* in :func:`device_roster`.
MIN_ON_FRACTION = 0.25


def census_at(household: Household, epoch: float) -> DeviceCountSample:
    """Count connected devices at one instant (router assumed powered)."""
    wired = 0
    wireless_24 = 0
    wireless_5 = 0
    for device in household.devices:
        if not device.is_connected(epoch):
            continue
        if device.medium is Medium.WIRED:
            wired += 1
        elif device.spectrum is Spectrum.GHZ_5:
            wireless_5 += 1
        else:
            wireless_24 += 1
    return DeviceCountSample(
        router_id=household.router_id,
        timestamp=epoch,
        wired=min(wired, ETHERNET_PORTS),
        wireless_2_4=wireless_24,
        wireless_5=wireless_5,
    )


def device_roster(household: Household, start: float, end: float,
                  policy: "AnonymizationPolicy",
                  min_on_fraction: float = MIN_ON_FRACTION,
                  ) -> List[DeviceRosterEntry]:
    """Enumerate every device the gateway saw in ``[start, end)``.

    A device counts as *always connected* when its association covers all
    the router's powered time in the window (the gateway cannot observe
    anything while itself unpowered), which is the observable form of the
    paper's "never disconnects from the home gateway router" criterion.
    Appliance-mode homes whose router is on less than *min_on_fraction* of
    the window cannot certify anything as always-connected — a phone that
    shows up for every three-hour evening block is not "never disconnects
    for over five weeks".
    """
    router_on = household.power.up_intervals(start, end)
    enough_observation = (
        router_on.total_duration() >= min_on_fraction * (end - start))
    entries: List[DeviceRosterEntry] = []
    for device in household.devices:
        seen = device.connected_intervals(start, end)
        observed = seen.intersection(router_on)
        if not observed:
            continue
        covers_all_on = (
            enough_observation
            and router_on.intersection(seen).total_duration()
            >= router_on.total_duration() - 1.0
        )
        entries.append(DeviceRosterEntry(
            router_id=household.router_id,
            device_mac=policy.anonymize_mac(device.mac),
            medium=device.medium,
            spectrum=device.spectrum,
            first_seen=observed.span[0],
            last_seen=observed.span[1],
            always_connected=covers_all_on and bool(router_on),
        ))
    return entries


def device_counts(household: Household, start: float, end: float,
                  rng: np.random.Generator,
                  interval: float = CENSUS_INTERVAL,
                  ) -> List[DeviceCountSample]:
    """Collect the hourly censuses one router took in ``[start, end)``.

    Equivalent to running :func:`census_at` at every powered tick, but the
    per-device association lookups are batched: each device answers for
    all ticks in one vectorized interval query, so the cost scales with
    devices + ticks rather than devices × ticks.
    """
    if interval <= 0:
        raise ValueError("census interval must be positive")
    samples: List[DeviceCountSample] = []
    phase = float(rng.uniform(0, interval))
    # Same accumulating tick walk as before (bitwise-identical timestamps).
    tick_list: List[float] = []
    tick = start + phase
    while tick < end:
        tick_list.append(tick)
        tick += interval
    if not tick_list:
        return samples
    ticks = np.asarray(tick_list)
    powered = household.power.on_intervals.contains_many(ticks)
    wired = np.zeros(ticks.size, dtype=np.int64)
    wireless_24 = np.zeros(ticks.size, dtype=np.int64)
    wireless_5 = np.zeros(ticks.size, dtype=np.int64)
    for device in household.devices:
        if device.always_connected:
            connected: "np.ndarray | int" = 1
        else:
            connected = device.connected.contains_many(ticks)
        if device.medium is Medium.WIRED:
            wired += connected
        elif device.spectrum is Spectrum.GHZ_5:
            wireless_5 += connected
        else:
            wireless_24 += connected
    wired = np.minimum(wired, ETHERNET_PORTS)
    for index, tick in enumerate(tick_list):
        if not powered[index]:
            continue
        samples.append(DeviceCountSample(
            router_id=household.router_id,
            timestamp=tick,
            wired=int(wired[index]),
            wireless_2_4=int(wireless_24[index]),
            wireless_5=int(wireless_5[index]),
        ))
    return samples
