"""Columnar firmware collection: every collector over a whole shard at once.

PR 5 made home *generation* columnar; this module does the same for the
measurement loop.  :func:`collect_shard` runs each collector (heartbeat,
capacity, uptime, device census + roster, wifi scans, traffic) for all
homes in a shard as batched numpy operations directly over the
:class:`~repro.simulation.cohort.ShardCohort` column arrays — the lazy
per-home ``Household`` views are never built on this path (the sole
exception is the handful of traffic-consenting homes, whose flow
generator is genuinely per-home).

Determinism contract (the reason ``study_digest`` pins survive):

* Every router's randomness still comes from the exact streams the
  per-home :class:`~repro.firmware.router.BismarkRouter` used:
  ``seeds.child("firmware", router_id).generator(name)``.  Streams are
  independent per ``(home, collector)``, so iterating collector-major
  instead of home-major changes nothing; only the draw order *within*
  one stream is load-bearing, and each columnar collector reproduces it:

  - **heartbeat**: one phase ``uniform(0, interval)``, then — only when
    sendable ticks exist — one ``uniform(-jitter, jitter, size=k)``
    array draw (bitwise what *k* scalar draws would consume).
  - **capacity**: one phase, then one ``normal(1.0, noise, size=2k)``
    array draw for the *k* online ticks; even indices are the downstream
    noise, odd the upstream, exactly the per-tick (down, up) pair order.
  - **uptime / devices**: one phase each; no further draws.
  - **wifi**: one phase, then per *executed* scan — tick order, 2.4 GHz
    before 5 GHz — a conditional ``binomial(base, visibility)`` (skipped
    when the home's audible-neighbor base is zero) followed by a
    ``poisson(transient)``, matching ``WirelessEnvironment
    .scan_neighbor_count``.
  - **traffic**: delegated unchanged to ``monitor_traffic``.

* Tick schedules are bitwise-identical: the heartbeat grid is
  ``np.arange`` (as the reference), while the four accumulating
  ``tick += interval`` walks are reproduced by :func:`_tick_walk` as a
  ``cumsum`` over ``[first, interval, interval, ...]`` — ``cumsum``
  performs the same sequential additions, so every element equals the
  scalar walk by induction.

* Interval algebra is :mod:`repro.core.intervals`' bare-array kernel, and
  every cadence and model constant comes from the module whose reference
  collector or model reads it: each rule is written once.

Columns read per collector (see ``build_shard_cohort`` for the layout):

====================  =====================================================
collector             columns
====================  =====================================================
heartbeat             ``power_on``, ``link_up``
capacity              ``power_on``, ``link_up``, ``link_down``,
                      ``link_up_mbps``
uptime                ``power_on``, ``link_up``
devices (census)      ``power_on``, ``device_*``, ``associations``
devices (roster)      ``power_on``, ``device_*``, ``associations``
wifi                  ``power_on``, ``device_*``, ``associations``,
                      ``neighbors``
====================  =====================================================

The ``associations`` runs are exact only inside the hours the cohort
solved (``ShardCohort.solved``, the plan's device, WiFi and traffic
windows): the device and WiFi passes refuse a window outside them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import trace
from repro.collection.batches import RouterUpload, batch_columns, build_upload
from repro.core.intervals import (clip, contains, intersect, is_sorted,
                                  total_duration)
from repro.core.records import (RECORD_DATASETS, SPECTRUM_2_4, SPECTRUM_5,
                                Medium, RouterInfo, Spectrum)
from repro.firmware.anonymize import AnonymizationPolicy
from repro.firmware.capacity import CAPACITY_INTERVAL
from repro.firmware.devices import (CENSUS_INTERVAL, ETHERNET_PORTS,
                                    MIN_ON_FRACTION)
from repro.firmware.heartbeat import (HEARTBEAT_INTERVAL,
                                      HEARTBEAT_JITTER_SECONDS)
from repro.firmware.traffic import monitor_traffic
from repro.firmware.uptime import UPTIME_INTERVAL
from repro.firmware.wifi import BACKOFF_FACTOR, SCAN_INTERVAL
from repro.netutils.mac import MacAddress
from repro.simulation.channels import audible_counts
from repro.simulation.cohort import ShardCohort
from repro.simulation.deployment import DeploymentPlan
from repro.simulation.device_models import KIND_ORDER, kind_traits
from repro.simulation.link import CAPACITY_FLOOR_MBPS, CAPACITY_NOISE
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.wireless import (DEFAULT_CHANNELS, SCAN_VISIBILITY,
                                       TRANSIENT_AP_MEAN)


# -- schedule + membership helpers --------------------------------------------

def _tick_walk(first: float, end: float, interval: float) -> np.ndarray:
    """The ``tick += interval`` schedule starting at *first*, as an array.

    The reference collectors accumulate (``tick += interval``), which can
    differ from ``np.arange``'s multiply-based grid in the last ulp — so
    we accumulate too: ``cumsum`` over ``[first, interval, interval, ...]``
    computes ``out[i] = out[i-1] + interval`` sequentially, which is
    bitwise the scalar walk by induction.  The length estimate only needs
    to overshoot (``+2`` absorbs any ulp drift); the ``< end`` filter is
    the loop's exit test.
    """
    if first >= end:
        return np.empty(0)
    steps = np.full(int(np.ceil((end - first) / interval)) + 2, interval,
                    dtype=np.float64)
    steps[0] = first
    ticks = np.cumsum(steps)
    return ticks[ticks < end]


def _slices(cols: Dict[str, object], key: str, n: int,
            ) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Per-home ``(starts, ends)`` views of one flattened interval column."""
    starts, ends, offsets = cols[key]
    return [(starts[offsets[i]:offsets[i + 1]],
             ends[offsets[i]:offsets[i + 1]]) for i in range(n)]


class _HomeDevices:
    """One home's device table decoded from the cohort columns."""

    __slots__ = ("kinds", "media", "spec_codes", "always", "slots", "macs",
                 "_assoc", "_groups")

    def __init__(self, cols: Dict[str, object], index: int) -> None:
        offsets = cols["device_offsets"]
        lo, hi = int(offsets[index]), int(offsets[index + 1])
        self.kinds = cols["device_kind"][lo:hi]
        self.media = [kind_traits(KIND_ORDER[code]).medium
                      for code in self.kinds]
        self.spec_codes = cols["device_spectrum"][lo:hi]
        self.always = cols["device_always"][lo:hi]
        self.slots = cols["device_slot"][lo:hi]
        self.macs = cols["device_mac"][lo:hi]
        self._assoc = cols["associations"]
        self._groups: Optional[Dict[str, Tuple[np.ndarray, np.ndarray, int]]] \
            = None

    def __len__(self) -> int:
        return len(self.media)

    def groups(self) -> Dict[str, Tuple[np.ndarray, np.ndarray, int]]:
        """Per connectivity class: sorted interval bounds + always count.

        Classes mirror the census/wifi classification exactly: ``wired``
        (medium is WIRED), ``w5`` (wireless on 5 GHz), ``w24`` (every
        other non-wired device).  Each entry holds the class's pooled
        association interval ``(sorted starts, sorted ends)`` plus how
        many of its devices are always-connected, which is all
        :func:`_group_counts` needs to count connected devices per tick
        without a per-device pass.
        """
        if self._groups is None:
            pools: Dict[str, List[np.ndarray]] = \
                {"wired": [], "w24": [], "w5": []}
            always_n = {"wired": 0, "w24": 0, "w5": 0}
            for dev in range(len(self.media)):
                if self.media[dev] is Medium.WIRED:
                    key = "wired"
                elif self.spec_codes[dev] == SPECTRUM_5:
                    key = "w5"
                else:
                    key = "w24"
                if self.always[dev]:
                    always_n[key] += 1
                else:
                    pools[key].append(
                        _assoc_slice(self._assoc, int(self.slots[dev])))
            self._groups = {}
            for key, parts in pools.items():
                if parts:
                    starts = np.sort(np.concatenate([p[0] for p in parts]))
                    ends = np.sort(np.concatenate([p[1] for p in parts]))
                else:
                    starts = ends = np.empty(0)
                self._groups[key] = (starts, ends, always_n[key])
        return self._groups


def _group_counts(group: Tuple[np.ndarray, np.ndarray, int],
                  ticks: np.ndarray) -> np.ndarray:
    """Connected-device count per tick for one pooled class.

    For disjoint-per-device intervals, summing per-device membership
    equals ``#(starts <= t) - #(ends <= t)`` over the pooled bounds —
    the comparisons are the same ``t >= start`` / ``t < end`` float
    tests ``intervals.contains`` runs, just counted in bulk — plus the
    class's always-connected devices.
    """
    starts, ends, always_n = group
    if starts.size == 0:
        counts = np.zeros(ticks.size, dtype=np.int64)
    else:
        counts = (np.searchsorted(starts, ticks, side="right")
                  - np.searchsorted(ends, ticks, side="right"))
    if always_n:
        counts = counts + always_n
    return counts


def _check_solved(cohort: ShardCohort, window: Tuple[float, float],
                  name: str) -> None:
    """Refuse a window outside the hours the cohort solved device
    associations over: its runs are cut at their edges."""
    if not cohort.solves(*window):
        raise ValueError(
            f"the {name} window {window} is not inside the hours the "
            f"cohort solved device associations over {cohort.solved}")


def _assoc_slice(assoc: Tuple[np.ndarray, np.ndarray, np.ndarray],
                 slot: int) -> Tuple[np.ndarray, np.ndarray]:
    starts, ends, offsets = assoc
    lo, hi = offsets[slot], offsets[slot + 1]
    return starts[lo:hi], ends[lo:hi]


# -- per-collector columnar passes --------------------------------------------

def _heartbeat_sends(rng: np.random.Generator, start: float, end: float,
                     online: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """``heartbeat_send_times`` over column slices, draw-for-draw.

    *online* is the home's precomputed power∩link interval set:
    membership in the intersection is exactly membership in both.
    """
    if end <= start:
        return np.empty(0)
    phase = float(rng.uniform(0, HEARTBEAT_INTERVAL))
    ticks = np.arange(start + phase, end, HEARTBEAT_INTERVAL)
    if ticks.size == 0:
        return ticks
    # The reference tests a power∩link set *clipped* to the window; ticks
    # sit at/above start always, but arange can overshoot ``end`` by an
    # ulp, so the window's right edge needs re-imposing here.
    sendable = contains(*online, ticks) & (ticks < end)
    times = ticks[sendable]
    if HEARTBEAT_JITTER_SECONDS > 0 and times.size:
        # In place: the same additions, and no second array per home.
        times += rng.uniform(-HEARTBEAT_JITTER_SECONDS,
                             HEARTBEAT_JITTER_SECONDS, size=times.size)
    return times if is_sorted(times) else np.sort(times)


def _online_ticks(rng: np.random.Generator, start: float, end: float,
                  interval: float,
                  online: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Phase draw + accumulated walk + ``is_online`` filter (unclipped)."""
    phase = float(rng.uniform(0, interval))
    ticks = _tick_walk(start + phase, end, interval)
    if not ticks.size:
        return ticks
    return ticks[contains(*online, ticks)]


def _capacity_columns(rng: np.random.Generator, start: float, end: float,
                      online: Tuple[np.ndarray, np.ndarray],
                      down_mbps: float, up_mbps: float,
                      ) -> Optional[Dict[str, np.ndarray]]:
    """``capacity_measurements`` over column slices, draw-for-draw."""
    ticks = _online_ticks(rng, start, end, CAPACITY_INTERVAL, online)
    if not ticks.size:
        return None
    # The reference draws (down, up) noise pairs per online tick; one
    # array draw of 2k consumes the stream identically, with the even
    # indices landing on the downstream draws.
    noise = rng.normal(1.0, CAPACITY_NOISE, size=2 * ticks.size)
    down = np.maximum(down_mbps * noise[0::2], CAPACITY_FLOOR_MBPS)
    up = np.maximum(up_mbps * noise[1::2], CAPACITY_FLOOR_MBPS)
    return {"timestamp": ticks, "downstream_mbps": down,
            "upstream_mbps": up}


def _uptime_columns(rng: np.random.Generator, start: float, end: float,
                    power: Tuple[np.ndarray, np.ndarray],
                    online: Tuple[np.ndarray, np.ndarray],
                    ) -> Optional[Dict[str, np.ndarray]]:
    """``uptime_reports`` over column slices, draw-for-draw."""
    ticks = _online_ticks(rng, start, end, UPTIME_INTERVAL, online)
    if not ticks.size:
        return None
    p_starts = power[0]
    idx = np.searchsorted(p_starts, ticks, side="right") - 1
    uptimes = ticks - p_starts[idx]
    return {"timestamp": ticks, "uptime_seconds": uptimes}


def _census_columns(rng: np.random.Generator, start: float, end: float,
                    power: Tuple[np.ndarray, np.ndarray],
                    devices: _HomeDevices,
                    ) -> Optional[Dict[str, np.ndarray]]:
    """``device_counts`` over column slices, draw-for-draw."""
    phase = float(rng.uniform(0, CENSUS_INTERVAL))
    ticks = _tick_walk(start + phase, end, CENSUS_INTERVAL)
    if not ticks.size:
        return None
    powered = contains(*power, ticks)
    if not powered.any():
        return None
    groups = devices.groups()
    wired = _group_counts(groups["wired"], ticks)
    wireless_24 = _group_counts(groups["w24"], ticks)
    wireless_5 = _group_counts(groups["w5"], ticks)
    wired = np.minimum(wired, ETHERNET_PORTS)
    return {"timestamp": ticks[powered], "wired": wired[powered],
            "wireless_2_4": wireless_24[powered],
            "wireless_5": wireless_5[powered]}


#: A roster medium column's values by code.
_MEDIA = RECORD_DATASETS["roster"].codec.codes["medium"]


def _roster_entries(start: float, end: float,
                    power: Tuple[np.ndarray, np.ndarray],
                    devices: _HomeDevices,
                    assoc: Tuple[np.ndarray, np.ndarray, np.ndarray],
                    policy: AnonymizationPolicy,
                    ) -> Dict[str, object]:
    """``device_roster`` over column slices (RNG-free), as roster columns.

    The interval kernel computes float-for-float what the per-home path's
    ``clip``/``intersection``/``total_duration``/``span`` do.  The
    non-always devices are intersected with router-on in ONE ``intersect``
    call: their concatenated rows stay device-grouped, so per-device
    firsts/lasts are group boundaries and per-device durations fall out of
    a ``bincount``, which accumulates in the same sequential order as the
    reference's Python ``sum``.
    """
    on_starts, on_ends = clip(*power, start, end)
    on_duration = total_duration(on_starts, on_ends)
    enough_observation = on_duration >= MIN_ON_FRACTION * (end - start)
    has_on_time = on_starts.size > 0
    n_dev = len(devices)

    parts: List[Tuple[np.ndarray, np.ndarray]] = []
    part_dev: List[int] = []
    for dev in range(n_dev):
        if not devices.always[dev]:
            parts.append(_assoc_slice(assoc, int(devices.slots[dev])))
            part_dev.append(dev)
    dur_by_dev = np.full(n_dev, -1.0)
    first_by_dev = np.empty(n_dev)
    last_by_dev = np.empty(n_dev)
    if parts and has_on_time:
        a_starts = np.concatenate([p[0] for p in parts])
        a_ends = np.concatenate([p[1] for p in parts])
        owner = np.repeat(np.arange(len(parts)),
                          [p[0].size for p in parts])
        keep = (a_ends > start) & (a_starts < end)
        obs_starts, obs_ends, rows = intersect(
            np.maximum(a_starts[keep], start),
            np.minimum(a_ends[keep], end),
            on_starts, on_ends)
        obs_owner = owner[keep][rows]
        if obs_owner.size:
            # intersection() is symmetric down to the float level, so the
            # reference's router_on∩seen duration is observed's duration.
            durs = np.bincount(obs_owner, weights=obs_ends - obs_starts,
                               minlength=len(parts))
            uniq, first_idx = np.unique(obs_owner, return_index=True)
            last_idx = np.concatenate((first_idx[1:], [obs_owner.size])) - 1
            devs = np.asarray(part_dev, dtype=np.intp)[uniq]
            dur_by_dev[devs] = durs[uniq]
            first_by_dev[devs] = obs_starts[first_idx]
            last_by_dev[devs] = obs_ends[last_idx]

    entries: List[tuple] = []
    for dev in range(n_dev):
        if devices.always[dev]:
            # seen = [(start, end)] ⊇ router_on (already clipped to the
            # window), so the intersection IS router_on and its duration
            # is on_duration — no recomputation needed.
            if not has_on_time:
                continue
            first_seen = float(on_starts[0])
            last_seen = float(on_ends[-1])
            observed_duration = on_duration
        else:
            observed_duration = float(dur_by_dev[dev])
            if observed_duration < 0.0:
                continue
            first_seen = float(first_by_dev[dev])
            last_seen = float(last_by_dev[dev])
        covers_all_on = (enough_observation
                        and observed_duration >= on_duration - 1.0)
        entries.append((
            policy.anonymize_mac(MacAddress(int(devices.macs[dev]))),
            _MEDIA.index(devices.media[dev]),
            int(devices.spec_codes[dev]),
            first_seen,
            last_seen,
            covers_all_on and has_on_time,
        ))
    return batch_columns("roster", entries)


def _wifi_columns(rng: np.random.Generator, start: float, end: float,
                  power: Tuple[np.ndarray, np.ndarray],
                  devices: _HomeDevices,
                  base_24: int, base_5: int, channel_24: int, channel_5: int,
                  ) -> Optional[Dict[str, np.ndarray]]:
    """``wifi_scans`` over column slices, draw-for-draw.

    The audible-neighbor base count per band is static for a home (the
    neighborhood doesn't move), so the caller hoists it; the remaining
    loop only touches executed scans, drawing the conditional binomial
    then the poisson in exactly the reference tick/band order.
    """
    phase = float(rng.uniform(0, SCAN_INTERVAL))
    ticks = _tick_walk(start + phase, end, SCAN_INTERVAL)
    if not ticks.size:
        return None
    powered = contains(*power, ticks)
    groups = devices.groups()
    clients_24 = _group_counts(groups["w24"], ticks)
    clients_5 = _group_counts(groups["w5"], ticks)
    backed_off = (np.arange(ticks.size) % BACKOFF_FACTOR) != 0
    executed_24 = powered & ~((clients_24 > 0) & backed_off)
    executed_5 = powered & ~((clients_5 > 0) & backed_off)
    # One row per executed scan: tick order, 2.4 GHz (band 0) before 5.
    scan_tick, band = np.nonzero(np.stack((executed_24, executed_5), axis=1))
    if not scan_tick.size:
        return None
    binomial = rng.binomial
    poisson = rng.poisson
    bases = ((base_24, base_24 > 0), (base_5, base_5 > 0))
    neighbor_aps = []
    for base, audible in map(bases.__getitem__, band.tolist()):
        visible = int(binomial(base, SCAN_VISIBILITY)) if audible else 0
        neighbor_aps.append(visible + int(poisson(TRANSIENT_AP_MEAN)))
    on_5 = band.astype(bool)
    return {"timestamp": ticks[scan_tick],
            "spectrum": np.where(on_5, SPECTRUM_5, SPECTRUM_2_4),
            "neighbor_aps": np.array(neighbor_aps),
            "associated_clients": np.where(on_5, clients_5[scan_tick],
                                           clients_24[scan_tick]),
            "channel": np.where(on_5, channel_5, channel_24)}


# -- the shard pass -----------------------------------------------------------

def _router_info(config) -> RouterInfo:
    country = config.country
    return RouterInfo(
        router_id=config.router_id,
        country_code=country.code,
        developed=country.developed,
        tz_offset_hours=country.tz_offset_hours,
        gdp_ppp_per_capita=country.gdp_ppp_per_capita,
    )


def collect_shard(cohort: ShardCohort, plan: DeploymentPlan,
                  seeds: SeedHierarchy, policy: AnonymizationPolicy,
                  ) -> List[RouterUpload]:
    """Run every collector for every home in *cohort*; return the uploads.

    Output-equivalent to running :class:`BismarkRouter` per home (same
    records, same batch chunking, same dataset order) but iterates
    collector-major over the cohort columns.  Each collector runs under a
    ``collect.<name>`` trace sub-span; every span is entered once per
    shard even when no home subscribes to it, so profiles always cover
    the full stage set.
    """
    cols = cohort.columns
    configs = cohort.configs
    windows = plan.windows
    n = len(configs)
    firmware = [seeds.child("firmware", config.router_id)
                for config in configs]
    power = _slices(cols, "power_on", n)
    link = _slices(cols, "link_up", n)
    assoc = cols["associations"]

    heartbeats: List[np.ndarray] = [None] * n  # type: ignore[list-item]
    capacity: List[Optional[Dict[str, np.ndarray]]] = [None] * n
    uptime: List[Optional[Dict[str, np.ndarray]]] = [None] * n
    census: List[Optional[Dict[str, np.ndarray]]] = [None] * n
    roster: List[Optional[Dict[str, object]]] = [None] * n
    wifi: List[Optional[Dict[str, np.ndarray]]] = [None] * n
    throughput = [None] * n
    flows: List[Optional[Dict[str, object]]] = [None] * n
    dns: List[Optional[Dict[str, object]]] = [None] * n

    with trace.span("collect.heartbeat", cat="shard"):
        start, end = windows.heartbeats
        # power∩link, computed once per home here and reused by the
        # capacity and uptime passes below (`is_online` membership in the
        # intersection equals membership in both sets).
        online = [intersect(*power[i], *link[i])[:2] for i in range(n)]
        for i in range(n):
            heartbeats[i] = _heartbeat_sends(
                firmware[i].generator("heartbeat"), start, end, online[i])

    with trace.span("collect.capacity", cat="shard"):
        start, end = windows.capacity
        down_col = cols["link_down"]
        up_col = cols["link_up_mbps"]
        for i in range(n):
            capacity[i] = _capacity_columns(
                firmware[i].generator("capacity"), start, end,
                online[i], float(down_col[i]), float(up_col[i]))

    with trace.span("collect.uptime", cat="shard"):
        start, end = windows.uptime
        for i in range(n):
            if configs[i].router_id not in plan.uptime_routers:
                continue
            uptime[i] = _uptime_columns(
                firmware[i].generator("uptime"), start, end,
                power[i], online[i])

    devices_cache: Dict[int, _HomeDevices] = {}

    def home_devices(i: int) -> _HomeDevices:
        table = devices_cache.get(i)
        if table is None:
            table = devices_cache[i] = _HomeDevices(cols, i)
        return table

    with trace.span("collect.devices", cat="shard"):
        start, end = windows.devices
        if n:
            _check_solved(cohort, windows.devices, "devices")
        for i in range(n):
            rid = configs[i].router_id
            if rid not in plan.devices_routers:
                continue
            devices = home_devices(i)
            census[i] = _census_columns(
                firmware[i].generator("devices"), start, end,
                power[i], devices)
            roster[i] = _roster_entries(start, end, power[i], devices,
                                        assoc, policy)

    with trace.span("collect.wifi", cat="shard"):
        start, end = windows.wifi
        if n:
            _check_solved(cohort, windows.wifi, "wifi")
        channel_24 = DEFAULT_CHANNELS[Spectrum.GHZ_2_4]
        channel_5 = DEFAULT_CHANNELS[Spectrum.GHZ_5]
        flat_24, offsets_24 = cols["neighbors"][Spectrum.GHZ_2_4]
        flat_5, offsets_5 = cols["neighbors"][Spectrum.GHZ_5]
        for i in range(n):
            if configs[i].router_id not in plan.wifi_routers:
                continue
            base_24 = int(audible_counts(
                Spectrum.GHZ_2_4, (channel_24,),
                flat_24[offsets_24[i]:offsets_24[i + 1]])[0])
            base_5 = int(audible_counts(
                Spectrum.GHZ_5, (channel_5,),
                flat_5[offsets_5[i]:offsets_5[i + 1]])[0])
            wifi[i] = _wifi_columns(
                firmware[i].generator("wifi"), start, end,
                power[i], home_devices(i),
                base_24, base_5, channel_24, channel_5)

    with trace.span("collect.traffic", cat="shard"):
        start, end = windows.traffic
        for i in range(n):
            if configs[i].router_id not in plan.traffic_routers:
                continue
            # Traffic is the one genuinely per-home collector (flow
            # generation walks device schedules); ~4% of homes consent,
            # so the lazy Household view is built only for them.
            throughput[i], flows[i], dns[i] = monitor_traffic(
                cohort.household(i), start, end,
                rng=firmware[i].generator("traffic"), policy=policy)

    with trace.span("collect.serialize", cat="shard"):
        return [build_upload(_router_info(config), heartbeats[i], {
            "uptime": uptime[i], "capacity": capacity[i],
            "device_counts": census[i], "roster": roster[i],
            "wifi_scans": wifi[i], "flows": flows[i], "dns": dns[i]},
            throughput[i]) for i, config in enumerate(configs)]
