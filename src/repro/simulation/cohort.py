"""Shard-wide columnar household materialization.

Materializing a home used to mean building its full Python object graph —
power schedule, outage process, wireless neighborhood, and (dominating
everything) one Markov association timeline per device, each expanded by a
per-hour Python loop.  At 252 homes that was ~4.4s of a ~5.8s serial
campaign; on the road to 1M homes it is the scale ceiling.

This module replaces per-home object construction with *shard-wide
columnar generation*:

* a single **draw pass** walks the shard's homes in deployment order and
  consumes every per-home RNG stream exactly as the reference
  ``Household.__init__`` path does (same streams, same call sequence, same
  sizes) — the bitwise-determinism contract lives here;
* the expensive **expansions** are batched: device association timelines
  are solved for the whole shard at once (see :class:`_AssociationBatch`),
  and power/link/schedule/wireless results are stored as flat column
  arrays instead of per-home object graphs;
* :class:`ShardCohort` holds the columns; ``Household`` becomes a thin
  view that assembles model objects lazily from column slices
  (:meth:`ShardCohort.household`).

The Markov recurrence ``state[i] = draws[i] < (prob_on if state[i-1] else
prob_off)[i]`` looks inherently sequential, but because the clamp keeps
``prob_off <= prob_on`` element-wise, an hour with ``draws < prob_off``
(an *on-hour*) is on whatever came before, and one with ``draws >=
prob_on`` (a *forced-off hour*) is off; any other hour keeps the state
of the hour before.  So a device's runs start at the first on-hour after
the span's start or after a forced-off hour, and end at the next
forced-off hour or the span's end: one ``flatnonzero`` over a device's
hours finds them, with no matrix of hours.  DESIGN.md §10 documents the
draw-order contract and this derivation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import trace
from repro.core.intervals import IntervalSet
from repro.core.records import SPECTRUM_BY_CODE, Spectrum
from repro.simulation.behavior import ActivitySchedule
from repro.simulation.device_models import (
    KIND_CODE,
    KIND_ORDER,
    SimDevice,
    association_probs,
    association_span_hours,
    association_time_index,
    generate_device_draws,
    kind_traits,
)
from repro.netutils.mac import MacAddress
from repro.simulation.domains import Domain, default_universe
from repro.simulation.household import Household, HouseholdConfig
from repro.simulation.link import AccessLink, AccessLinkConfig
from repro.simulation.power import (
    MODE_APPLIANCE,
    AlwaysOnPower,
    AppliancePower,
    draw_power_model,
)
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import HOUR, StudyCalendar
from repro.simulation.wireless import (
    WirelessEnvironment,
    WirelessEnvironmentConfig,
)

_SPECTRA = (Spectrum.GHZ_2_4, Spectrum.GHZ_5)


class _AssociationBatch:
    """The shard's device association timelines, solved device by device.

    ``push`` takes one device's hourly draws and transition probabilities
    and returns its slot index; ``finalize`` returns every slot's
    connected runs as flat interval columns.  A device's runs come from
    its on-hours and forced-off hours (see the module docstring), and
    their epochs from the scalar reference's float expressions
    (``span_start + hour_index * HOUR``), so the intervals are
    bitwise-identical.
    """

    def __init__(self, span: Tuple[float, float], hours: int):
        self.span = span
        self.hours = hours
        #: Per slot, its runs' first hours and the hours they end at.
        self._starts: List[np.ndarray] = []
        self._ends: List[np.ndarray] = []

    def push(self, draws: np.ndarray, prob_off: np.ndarray,
             prob_on: np.ndarray) -> int:
        on = draws < prob_off
        # The hours that set the state: on-hours and forced-off hours.
        events = np.flatnonzero(on | (draws >= prob_on))
        kind = on[events]
        # The state flips at the first event, if an on-hour, and at each
        # event of the other kind than the one before: alternately a run's
        # first hour and the forced-off hour that ends it.
        flips = np.empty(events.size, dtype=bool)
        flips[:1] = kind[:1]
        np.not_equal(kind[1:], kind[:-1], out=flips[1:])
        marks = events[flips]
        ends = marks[1::2]
        if marks.size % 2:  # the last run lasts to the span's end
            ends = np.append(ends, self.hours)
        self._starts.append(marks[0::2])
        self._ends.append(ends)
        return len(self._starts) - 1

    def finalize(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return every slot's runs: (flat starts, flat ends, offsets)."""
        span_start, span_end = self.span
        start_hours, offsets = _flatten(self._starts)
        end_hours, _ = _flatten(self._ends)
        self._starts.clear()
        self._ends.clear()
        return (span_start + start_hours * HOUR,
                np.minimum(span_start + end_hours * HOUR, span_end),
                offsets)


def _flatten(parts: List[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """Concatenate per-home arrays into (flat values, offsets)."""
    lengths = np.fromiter((arr.size for arr in parts), dtype=np.int64,
                          count=len(parts))
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    flat = (np.concatenate(parts) if parts else np.empty(0))
    return flat, offsets


class ShardCohort(Sequence):
    """Column-array cohort for one shard, with lazy ``Household`` views.

    Behaves as an immutable sequence of :class:`Household` objects (so
    existing callers that iterate, index, or slice a materialized shard
    keep working), but the per-home models only come into existence when
    a view attribute is first touched — and then only as thin objects
    wrapping column slices.
    """

    def __init__(self, seed: int, configs: Sequence[HouseholdConfig],
                 universe: Sequence[Domain], columns: Dict[str, object]):
        self.seed = seed
        self.configs = tuple(configs)
        self.universe = universe
        self.seeds = SeedHierarchy(seed)
        self._columns = columns
        self._views: List[Optional[Household]] = [None] * len(self.configs)
        self._calendars: Dict[float, StudyCalendar] = {}

    @property
    def columns(self) -> Dict[str, object]:
        """The raw column arrays (see :func:`build_shard_cohort` layout).

        The columnar collection pass (``firmware.shard_collect``) reads
        these directly instead of rebuilding per-home ``Household`` views.
        Treat the arrays as immutable: views alias them.
        """
        return self._columns

    # -- sequence protocol ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.configs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self.household(i)
                    for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("cohort index out of range")
        return self.household(index)

    def household(self, index: int) -> Household:
        """The (cached) household view at *index*."""
        view = self._views[index]
        if view is None:
            view = Household._from_cohort(self, index)
            self._views[index] = view
        return view

    def calendar_for(self, config: HouseholdConfig) -> StudyCalendar:
        tz = config.country.tz_offset_hours
        calendar = self._calendars.get(tz)
        if calendar is None:
            calendar = self._calendars[tz] = StudyCalendar(tz)
        return calendar

    # -- column slice assembly ------------------------------------------------

    def _interval_slice(self, flat_key: str, index: int) -> IntervalSet:
        starts, ends, offsets = self._columns[flat_key]
        lo, hi = offsets[index], offsets[index + 1]
        return IntervalSet.from_normalized_arrays(starts[lo:hi],
                                                  ends[lo:hi])

    def _build_schedule(self, index: int) -> ActivitySchedule:
        curves = self._columns["schedule"]
        return ActivitySchedule(
            presence_weekday=curves[0][index],
            presence_weekend=curves[1][index],
            activity_weekday=curves[2][index],
            activity_weekend=curves[3][index],
        )

    def _build_power(self, index: int):
        config = self.configs[index]
        cls = (AppliancePower if self._columns["power_mode"][index]
               else AlwaysOnPower)
        return cls.from_on_intervals(config.span,
                                     self._interval_slice("power_on", index))

    def _build_link(self, index: int) -> AccessLink:
        config = self.configs[index]
        profile = config.country.behavior
        link_config = AccessLinkConfig(
            downstream_mbps=float(self._columns["link_down"][index]),
            upstream_mbps=float(self._columns["link_up_mbps"][index]),
            outage_rate_per_day=profile.isp_outage_rate_per_day,
            outage_median_seconds=profile.isp_outage_median_seconds,
            outage_duration_sigma=profile.isp_outage_duration_sigma,
        )
        return AccessLink.from_columns(
            config.span, link_config,
            outages=self._interval_slice("link_outages", index),
            up=self._interval_slice("link_up", index),
            bad_periods=self._interval_slice("link_bad", index))

    def _build_wireless(self, index: int) -> WirelessEnvironment:
        config = self.configs[index]
        profile = config.country.behavior
        env_config = WirelessEnvironmentConfig(
            neighbor_ap_level=profile.neighbor_ap_level,
            sparse_probability=0.30 if config.country.developed else 0.42,
        )
        neighbors: Dict[Spectrum, List[int]] = {}
        for spectrum in _SPECTRA:
            flat, offsets = self._columns["neighbors"][spectrum]
            lo, hi = offsets[index], offsets[index + 1]
            neighbors[spectrum] = flat[lo:hi].tolist()
        return WirelessEnvironment.from_columns(
            env_config, bool(self._columns["wireless_sparse"][index]),
            neighbors)

    def _build_devices(self, index: int) -> List[SimDevice]:
        config = self.configs[index]
        cols = self._columns
        dev_offsets = cols["device_offsets"]
        assoc_starts, assoc_ends, assoc_offsets = cols["associations"]
        devices: List[SimDevice] = []
        for position, dev in enumerate(
                range(int(dev_offsets[index]),
                      int(dev_offsets[index + 1]))):
            kind = KIND_ORDER[cols["device_kind"][dev]]
            traits = kind_traits(kind)
            always = bool(cols["device_always"][dev])
            if always:
                connected = IntervalSet([config.span])
            else:
                slot = int(cols["device_slot"][dev])
                lo, hi = assoc_offsets[slot], assoc_offsets[slot + 1]
                connected = IntervalSet.from_normalized_arrays(
                    assoc_starts[lo:hi], assoc_ends[lo:hi])
            devices.append(SimDevice(
                device_id=f"{config.router_id}-dev{position:02d}",
                kind=kind,
                mac=MacAddress(int(cols["device_mac"][dev])),
                medium=traits.medium,
                spectrum=SPECTRUM_BY_CODE[cols["device_spectrum"][dev]],
                always_connected=always,
                connected=connected,
                traffic_weight=float(cols["device_weight"][dev]),
            ))
        return devices


def build_shard_cohort(seed: int, configs: Sequence[HouseholdConfig],
                       universe: Optional[Sequence[Domain]] = None,
                       ) -> ShardCohort:
    """Draw and expand one shard's homes into a :class:`ShardCohort`.

    The per-home draw pass consumes each home's streams in exactly the
    order the reference ``Household.__init__`` path does; expansions are
    columnar.  Sub-stage timings land under ``materialize.*`` spans when
    :mod:`repro.trace` is enabled.
    """
    if universe is None:
        universe = default_universe()
    seeds = SeedHierarchy(seed)
    cohort_configs = tuple(configs)

    curves = ([], [], [], [])
    power_mode: List[int] = []
    power_on_parts: List[np.ndarray] = []
    link_down: List[float] = []
    link_up_mbps: List[float] = []
    link_outage_parts: List[np.ndarray] = []
    link_up_parts: List[np.ndarray] = []
    link_bad_parts: List[np.ndarray] = []
    sparse_flags: List[bool] = []
    neighbor_parts: Dict[Spectrum, List[np.ndarray]] = {
        s: [] for s in _SPECTRA}
    device_counts: List[int] = []
    device_kind: List[int] = []
    device_mac: List[int] = []
    device_spectrum: List[int] = []
    device_always: List[bool] = []
    device_weight: List[float] = []
    device_slot: List[int] = []

    calendars: Dict[float, StudyCalendar] = {}
    time_indices: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}
    batch: Optional[_AssociationBatch] = None
    prob_cache: Dict[Tuple[bool, float], Tuple[np.ndarray, np.ndarray]] = {}

    for config in cohort_configs:
        scope = seeds.child("household", config.router_id)
        profile = config.country.behavior
        tz = config.country.tz_offset_hours
        calendar = calendars.get(tz)
        if calendar is None:
            calendar = calendars[tz] = StudyCalendar(tz)

        with trace.span("materialize.schedule", cat="shard"):
            schedule = ActivitySchedule.generate(scope.generator("schedule"))
            curves[0].append(schedule.presence_weekday)
            curves[1].append(schedule.presence_weekend)
            curves[2].append(schedule.activity_weekday)
            curves[3].append(schedule.activity_weekend)

        with trace.span("materialize.power", cat="shard"):
            if config.appliance_hint is None:
                appliance_probability = profile.appliance_probability
            else:
                appliance_probability = 1.0 if config.appliance_hint else 0.0
            power = draw_power_model(
                scope.generator("power"), config.span, calendar, schedule,
                appliance_probability, config.country.developed,
                nightly_off_probability=profile.nightly_off_probability)
            power_mode.append(1 if power.mode == MODE_APPLIANCE else 0)
            power_on_parts.append(power.on_intervals._as_array())

        with trace.span("materialize.link", cat="shard"):
            link_rng = scope.generator("link")
            capacity_jitter = float(link_rng.lognormal(0.0, 0.35))
            link = AccessLink(link_rng, config.span, AccessLinkConfig(
                downstream_mbps=profile.downstream_mbps * capacity_jitter,
                upstream_mbps=profile.upstream_mbps * capacity_jitter,
                outage_rate_per_day=profile.isp_outage_rate_per_day,
                outage_median_seconds=profile.isp_outage_median_seconds,
                outage_duration_sigma=profile.isp_outage_duration_sigma,
            ))
            link_down.append(link.config.downstream_mbps)
            link_up_mbps.append(link.config.upstream_mbps)
            link_outage_parts.append(link._outages._as_array())
            link_up_parts.append(link.up._as_array())
            link_bad_parts.append(link.bad_periods._as_array())

        with trace.span("materialize.wireless", cat="shard"):
            wireless = WirelessEnvironment(
                scope.generator("wireless"),
                WirelessEnvironmentConfig(
                    neighbor_ap_level=profile.neighbor_ap_level,
                    sparse_probability=(0.30 if config.country.developed
                                        else 0.42),
                ))
            sparse_flags.append(wireless.sparse)
            for spectrum in _SPECTRA:
                neighbor_parts[spectrum].append(np.asarray(
                    wireless._neighbors[spectrum], dtype=np.int64))

        with trace.span("materialize.devices", cat="shard"):
            if batch is None:
                batch = _AssociationBatch(
                    config.span, association_span_hours(config.span))
            elif batch.span != config.span:
                raise ValueError(
                    "all homes in a shard must share one study span")
            prob_cache.clear()
            time_index = time_indices.get(tz)
            if time_index is None:
                time_index = time_indices[tz] = association_time_index(
                    config.span, calendar)

            def push_association(follows: bool, scale: float,
                                 draws: np.ndarray) -> int:
                probs = prob_cache.get((follows, scale))
                if probs is None:
                    probs = association_probs(
                        config.span, calendar, schedule, follows, scale,
                        time_index=time_index)
                    prob_cache[(follows, scale)] = probs
                return batch.push(draws, *probs)

            draws = generate_device_draws(
                scope.generator("devices"), config.span, calendar, schedule,
                config.country.developed, profile.mean_devices,
                profile.always_wired_probability,
                profile.always_wireless_probability, push_association)
            device_counts.append(len(draws))
            for draw in draws:
                device_kind.append(KIND_CODE[draw.kind])
                device_mac.append(draw.mac_value)
                device_spectrum.append(draw.spectrum_code)
                device_always.append(draw.always_connected)
                device_weight.append(draw.traffic_weight)
                device_slot.append(draw.markov_slot)

    with trace.span("materialize.devices", cat="shard"):
        if batch is None:
            associations = (np.empty(0), np.empty(0),
                            np.zeros(1, dtype=np.int64))
        else:
            associations = batch.finalize()

    device_offsets = np.zeros(len(cohort_configs) + 1, dtype=np.int64)
    np.cumsum(np.asarray(device_counts, dtype=np.int64),
              out=device_offsets[1:])

    columns: Dict[str, object] = {
        "schedule": tuple(
            np.vstack(rows) if rows else np.empty((0, 24))
            for rows in curves),
        "power_mode": np.asarray(power_mode, dtype=np.int8),
        "power_on": _flatten_intervals(power_on_parts),
        "link_down": np.asarray(link_down, dtype=float),
        "link_up_mbps": np.asarray(link_up_mbps, dtype=float),
        "link_outages": _flatten_intervals(link_outage_parts),
        "link_up": _flatten_intervals(link_up_parts),
        "link_bad": _flatten_intervals(link_bad_parts),
        "wireless_sparse": np.asarray(sparse_flags, dtype=bool),
        "neighbors": {s: _flatten(neighbor_parts[s]) for s in _SPECTRA},
        "device_offsets": device_offsets,
        "device_kind": np.asarray(device_kind, dtype=np.int16),
        "device_mac": np.asarray(device_mac, dtype=np.int64),
        "device_spectrum": np.asarray(device_spectrum, dtype=np.int8),
        "device_always": np.asarray(device_always, dtype=bool),
        "device_weight": np.asarray(device_weight, dtype=float),
        "device_slot": np.asarray(device_slot, dtype=np.int64),
        "associations": associations,
    }
    return ShardCohort(seed, cohort_configs, universe, columns)


def _flatten_intervals(parts: List[np.ndarray],
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate per-home (k, 2) interval matrices into flat columns."""
    lengths = np.fromiter((arr.shape[0] for arr in parts), dtype=np.int64,
                          count=len(parts))
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    if parts:
        stacked = np.concatenate([arr.reshape(-1, 2) for arr in parts])
    else:
        stacked = np.empty((0, 2))
    return stacked[:, 0].copy(), stacked[:, 1].copy(), offsets
