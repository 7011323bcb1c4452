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
  are solved for the whole shard at once, and only over the hours the
  collectors read (see :class:`ReadHours`), and power/link/schedule/
  wireless results are stored as flat column arrays instead of per-home
  object graphs;
* :class:`ShardCohort` holds the columns; ``Household`` becomes a thin
  view that assembles model objects lazily from column slices
  (:meth:`ShardCohort.household`).  A view's devices replay the home's
  ``"devices"`` stream through the same solver, over the whole span.

The Markov recurrence ``state[i] = draws[i] < (prob_on if state[i-1] else
prob_off)[i]`` looks inherently sequential, but because the clamp keeps
``prob_off <= prob_on`` element-wise, an hour with ``draws < prob_off``
(an *on-hour*) is on whatever came before, and one with ``draws >=
prob_on`` (a *forced-off hour*) is off; any other hour keeps the state
of the hour before.  So an hour's state is the kind of the last on-hour
or forced-off hour at or before it, and off when there is none since
the span's start: one ``np.repeat`` of those hours' kinds fills a
devices × hours matrix, and the runs start and end where the state
changes.  A range of hours that starts later takes that hour from the
hours just before it, its lookback.  DESIGN.md §10 documents the
draw-order contract and this derivation.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro import trace
from repro.core.intervals import IntervalSet
from repro.core.records import SPECTRUM_BY_CODE, Spectrum
from repro.simulation.behavior import ActivitySchedule
from repro.simulation.device_models import (
    KIND_CODE,
    KIND_ORDER,
    TABLE_SLOTS,
    DeviceDraw,
    SimDevice,
    association_clock,
    association_levels,
    association_span_hours,
    generate_device_draws,
    kind_traits,
    transition_probs,
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
from repro.simulation.timebase import HOUR, StudyCalendar, StudyWindows
from repro.simulation.wireless import (
    WirelessEnvironment,
    WirelessEnvironmentConfig,
)

_SPECTRA = (Spectrum.GHZ_2_4, Spectrum.GHZ_5)


#: Hours gathered before each read range: the last on-hour or forced-off
#: hour among them fixes the state the range starts in.  Under the clamp
#: an hour is one of the two with probability at least 0.45, so all 24
#: are neither with probability at most 0.55 ** 24 (about 6e-7 per device
#: and range); such a device is solved again from its replayed draws.
LOOKBACK_HOURS = 24


class ReadHours:
    """The hour ranges of a span that association runs are solved over.

    *ranges* are half-open ranges of the span's *hours*, clipped to it
    and merged where they overlap or touch.  Each range is gathered with
    up to :data:`LOOKBACK_HOURS` hours before it: :attr:`columns` lists
    the gathered hours, range by range.
    """

    def __init__(self, hours: int, ranges: Iterable[Tuple[int, int]]):
        merged: List[List[int]] = []
        for lo, hi in sorted((max(lo, 0), min(hi, hours))
                             for lo, hi in ranges):
            if lo >= hi:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        self.hours = hours
        self.ranges = tuple((lo, hi) for lo, hi in merged)
        columns: List[np.ndarray] = []
        next_hours: List[np.ndarray] = []
        #: Per range, its first gathered column.
        self._firsts: List[int] = []
        #: Per range starting past its lookback's reach of hour 0, the
        #: slice of its lookback and first read column.
        self._lookbacks: List[Tuple[int, int]] = []
        #: Per range, the slice of its read columns.
        self._reads: List[Tuple[int, int]] = []
        width = 0
        for lo, hi in self.ranges:
            first = max(lo - LOOKBACK_HOURS, 0)
            columns.append(np.arange(first, hi))
            self._firsts.append(width)
            if first:  # the hours before the lookback go unread
                self._lookbacks.append((width, width + lo - first + 1))
            self._reads.append((width + lo - first, width + hi - first))
            # The run bounds the state's changes fall on: a change into
            # the range's hour h is at h, one after its last hour at hi.
            next_hours.append(np.arange(lo, hi + 1))
            width += hi - first
        self.columns = (np.concatenate(columns) if columns
                        else np.empty(0, dtype=np.int64))
        self._next_hours = (np.concatenate(next_hours) if next_hours
                            else np.empty(0, dtype=np.int64))

    def _runs(self, draws: np.ndarray, prob_off: np.ndarray,
              prob_on: np.ndarray,
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each row's runs over the ranges and the rows whose lookback
        fixes no state: ``(start hours, end hours, runs per row, unknown
        rows)``, the runs ordered by row, then hour."""
        n = draws.shape[0]
        on = draws < prob_off
        fixed = draws >= prob_on
        fixed |= on
        fixes = np.ones(n, dtype=bool)
        for lo, hi in self._lookbacks:
            fixes &= fixed[:, lo:hi].any(axis=1)
        unknown = np.flatnonzero(~fixes)
        # Each range's first gathered hour sets the state: off unless an
        # on-hour.  From hour 0 that is the walk's own start; past it, the
        # lookback's last on-hour or forced-off hour overrules it before
        # the range begins (or the row is unknown).
        fixed[:, self._firsts] = True
        events = np.flatnonzero(fixed)
        if not events.size:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                    np.zeros(n, dtype=np.int64), unknown)
        # An hour's state is its last event's kind.
        lasting = np.empty_like(events)
        np.subtract(events[1:], events[:-1], out=lasting[:-1])
        lasting[-1] = fixed.size - events[-1]
        state = np.repeat(on.ravel()[events], lasting).reshape(draws.shape)
        # The read columns, each range between off columns, so the state
        # changes alternate between run starts and run ends.
        padded = np.zeros((n, self._next_hours.size + 1), dtype=bool)
        at = 1
        for lo, hi in self._reads:
            padded[:, at:at + hi - lo] = state[:, lo:hi]
            at += hi - lo + 1
        changes = padded[:, 1:] != padded[:, :-1]
        bounds = self._next_hours[np.flatnonzero(changes)
                                  % self._next_hours.size]
        return (bounds[0::2], bounds[1::2],
                np.count_nonzero(changes, axis=1) // 2, unknown)

    def solve(self, draws: np.ndarray, prob_off: np.ndarray,
              prob_on: np.ndarray,
              full_rows: Callable[[np.ndarray], Tuple[np.ndarray, ...]],
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every row's association runs over the ranges, in hours.

        *draws*, *prob_off* and *prob_on* hold one row per device and
        one column per gathered hour (:attr:`columns`).  Returns ``(start
        hours, end hours, offsets)``: row ``i``'s runs are
        ``offsets[i]:offsets[i + 1]``, in time order, and a run that
        crosses a range's edge is cut there.  The rows whose lookback
        fixes no state are solved again over the whole span, from the
        ``(draws, prob_off, prob_on)`` matrices ``full_rows(rows)`` gives
        for them, and cut to the ranges.
        """
        n = draws.shape[0]
        starts, ends, counts, unknown = self._runs(draws, prob_off, prob_on)
        if unknown.size:
            rows = np.repeat(np.arange(n), counts)
            whole = ReadHours(self.hours, [(0, self.hours)])
            redo_starts, redo_ends, redo_counts, _ = whole._runs(
                *full_rows(unknown))
            redo = np.repeat(unknown, redo_counts)
            keep = ~np.isin(rows, unknown)
            parts = [(rows[keep], starts[keep], ends[keep])]
            for lo, hi in self.ranges:
                cut = (redo_ends > lo) & (redo_starts < hi)
                parts.append((redo[cut], np.maximum(redo_starts[cut], lo),
                              np.minimum(redo_ends[cut], hi)))
            rows, starts, ends = (np.concatenate(column)
                                  for column in zip(*parts))
            order = np.lexsort((starts, rows))
            starts, ends = starts[order], ends[order]
            counts = np.bincount(rows, minlength=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return starts, ends, offsets


class _AssociationBatch:
    """Device association runs over read hours, solved in one batch.

    ``push`` keeps a device's draws at the read hours, the 48-slot
    schedule levels it follows, its scale and its clock (the table slot
    of each hour of the span, :func:`association_clock`) and returns its
    slot; ``finalize`` gathers every slot's transition probabilities from
    its table and solves all slots at once.  A slot whose lookback fixes
    no state is solved from ``replay(slot)``, its full-span draws.  Run
    epochs are the scalar reference's ``span_start + hour_index * HOUR``,
    so within the read ranges the intervals are bitwise its own.
    """

    def __init__(self, span: Tuple[float, float], read: ReadHours,
                 replay: Optional[Callable[[int], np.ndarray]]):
        self.span = span
        self.read = read
        self._replay = replay
        self._draws: List[np.ndarray] = []
        self._levels: List[np.ndarray] = []
        self._scales: List[float] = []
        self._clock_of: List[int] = []
        self._clocks: List[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._draws)

    def add_clock(self, slots: np.ndarray) -> int:
        """Register one timezone's clock; returns its index."""
        self._clocks.append(slots)
        return len(self._clocks) - 1

    def push(self, draws: np.ndarray, levels: np.ndarray, scale: float,
             clock: int) -> int:
        self._draws.append(draws[self.read.columns])
        self._levels.append(levels)
        self._scales.append(scale)
        self._clock_of.append(clock)
        return len(self._draws) - 1

    @property
    def solved(self) -> Tuple[Tuple[float, float], ...]:
        """The read ranges, as epoch intervals of the span."""
        bounds = np.array(self.read.ranges, dtype=np.int64).reshape(-1, 2)
        starts, ends = run_epochs(self.span, *bounds.T)
        return tuple(zip(starts.tolist(), ends.tolist()))

    def finalize(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return every slot's runs: (flat starts, flat ends, offsets)."""
        n = len(self._draws)
        if not n:
            return np.empty(0), np.empty(0), np.zeros(1, dtype=np.int64)
        prob_off, prob_on = transition_probs(
            np.array(self._levels), np.array(self._scales)[:, None])
        base = np.arange(n)[:, None] * TABLE_SLOTS
        slots = np.array([clock[self.read.columns]
                          for clock in self._clocks])[self._clock_of]
        slots += base

        def full_rows(rows: np.ndarray) -> Tuple[np.ndarray, ...]:
            full = np.array([self._clocks[self._clock_of[row]]
                             for row in rows.tolist()]) + base[rows]
            return (np.array([self._replay(row) for row in rows.tolist()]),
                    prob_off.take(full), prob_on.take(full))

        starts, ends, offsets = self.read.solve(
            np.array(self._draws), prob_off.take(slots),
            prob_on.take(slots), full_rows)
        return (*run_epochs(self.span, starts, ends), offsets)


def run_epochs(span: Tuple[float, float], start_hours: np.ndarray,
               end_hours: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Runs in hours of *span* as epochs: the scalar reference's
    ``span_start + hour_index * HOUR``, ends clipped to the span."""
    span_start, span_end = span
    return (span_start + start_hours * HOUR,
            np.minimum(span_start + end_hours * HOUR, span_end))


def _hour_ranges(span: Tuple[float, float],
                 windows: Iterable[Tuple[float, float]],
                 ) -> List[Tuple[int, int]]:
    """The ranges of the span's hours that overlap each window."""
    start = span[0]
    ranges = []
    for lo_epoch, hi_epoch in windows:
        lo = math.floor((lo_epoch - start) / HOUR)
        while start + lo * HOUR > lo_epoch:
            lo -= 1
        hi = math.ceil((hi_epoch - start) / HOUR)
        while start + hi * HOUR < hi_epoch:
            hi += 1
        ranges.append((lo, hi))
    return ranges


def _device_draws(scope: SeedHierarchy, config: HouseholdConfig, hours: int,
                  push: Callable[[bool, float, np.ndarray], int],
                  ) -> List[DeviceDraw]:
    """One home's device draws from its ``"devices"`` stream."""
    profile = config.country.behavior
    return generate_device_draws(
        scope.generator("devices"), hours, config.country.developed,
        profile.mean_devices, profile.always_wired_probability,
        profile.always_wireless_probability, push)


def _push_home(batch: _AssociationBatch, scope: SeedHierarchy,
               config: HouseholdConfig, schedule: ActivitySchedule,
               clock: int) -> List[DeviceDraw]:
    """Draw one home's devices, pushing each Markov device to *batch*."""
    # Indexed by follows_presence: activity, then presence.
    levels = (association_levels(schedule, False),
              association_levels(schedule, True))

    def push(follows: bool, scale: float, draws: np.ndarray) -> int:
        return batch.push(draws, levels[follows], scale, clock)

    return _device_draws(scope, config, batch.read.hours, push)


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
                 universe: Sequence[Domain], columns: Dict[str, object],
                 solved: Tuple[Tuple[float, float], ...]):
        self.seed = seed
        self.configs = tuple(configs)
        self.universe = universe
        self.seeds = SeedHierarchy(seed)
        self._columns = columns
        #: The epoch ranges the ``associations`` runs are exact in: the
        #: read hours, each run cut at their edges.
        self.solved = solved
        self._views: List[Optional[Household]] = [None] * len(self.configs)
        self._calendars: Dict[float, StudyCalendar] = {}
        self._clocks: Dict[float, np.ndarray] = {}

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

    def solves(self, start: float, end: float) -> bool:
        """Whether the ``associations`` runs are exact inside ``[start,
        end)``: the window lies inside one solved range."""
        return any(lo <= start and end <= hi for lo, hi in self.solved)

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
        """The home's devices, their timelines over the whole span: the
        home's ``"devices"`` stream replayed through the solver, with the
        span as its one range (which has no lookback to replay)."""
        config = self.configs[index]
        span = config.span
        hours = association_span_hours(span)
        tz = config.country.tz_offset_hours
        if tz not in self._clocks:
            self._clocks[tz] = association_clock(span,
                                                 self.calendar_for(config))
        batch = _AssociationBatch(span, ReadHours(hours, [(0, hours)]), None)
        clock = batch.add_clock(self._clocks[tz])
        _push_home(batch, self.seeds.child("household", config.router_id),
                   config, self._build_schedule(index), clock)
        return self._devices(index, *batch.finalize())

    def _devices_within(self, index: int, start: float,
                        end: float) -> Optional[List[SimDevice]]:
        """The home's devices with the cohort's solved runs as their
        timelines, which are exact inside ``[start, end)``; None when the
        window is not inside the solved ranges."""
        if not self.solves(start, end):
            return None
        starts, ends, offsets = self._columns["associations"]
        lo, hi = self._columns["device_offsets"][index:index + 2]
        slots = self._columns["device_slot"][lo:hi]
        markov = slots[slots >= 0]
        first = int(markov[0]) if markov.size else 0
        return self._devices(index, starts, ends,
                             offsets[first:first + markov.size + 1])

    def _devices(self, index: int, starts: np.ndarray, ends: np.ndarray,
                 offsets: np.ndarray) -> List[SimDevice]:
        """The home's devices from the device columns; its Markov
        devices' runs, in order, are ``offsets`` apart in *starts* and
        *ends*."""
        config = self.configs[index]
        cols = self._columns
        lo, hi = cols["device_offsets"][index:index + 2]
        devices: List[SimDevice] = []
        markov = 0
        for position, dev in enumerate(range(int(lo), int(hi))):
            kind = KIND_ORDER[cols["device_kind"][dev]]
            always = bool(cols["device_always"][dev])
            if always:
                connected = IntervalSet([config.span])
            else:
                run_lo, run_hi = offsets[markov:markov + 2]
                connected = IntervalSet.from_normalized_arrays(
                    starts[run_lo:run_hi], ends[run_lo:run_hi])
                markov += 1
            devices.append(SimDevice(
                device_id=f"{config.router_id}-dev{position:02d}",
                kind=kind,
                mac=MacAddress(int(cols["device_mac"][dev])),
                medium=kind_traits(kind).medium,
                spectrum=SPECTRUM_BY_CODE[cols["device_spectrum"][dev]],
                always_connected=always,
                connected=connected,
                traffic_weight=float(cols["device_weight"][dev]),
            ))
        return devices


def build_shard_cohort(seed: int, configs: Sequence[HouseholdConfig],
                       windows: StudyWindows,
                       universe: Optional[Sequence[Domain]] = None,
                       ) -> ShardCohort:
    """Draw and expand one shard's homes into a :class:`ShardCohort`.

    The per-home draw pass consumes each home's streams in exactly the
    order the reference ``Household.__init__`` path does; expansions are
    columnar.  Device associations are solved over the hours of the
    *windows* in which collectors read them (:attr:`ShardCohort.solved`).
    Sub-stage timings land under ``materialize.*`` spans when
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
    clocks: Dict[float, int] = {}
    batch: Optional[_AssociationBatch] = None
    scopes: List[SeedHierarchy] = []
    #: Per home, the batch slot of its first Markov device.
    first_slots: List[int] = []

    def replay(slot: int) -> np.ndarray:
        """A device's full-span draws, replayed from its home's stream.

        It reads nothing of the batch: a batch holding a closure over
        itself would be a reference cycle, which keeps every shard's
        draws alive until the cyclic collector runs.
        """
        home = bisect.bisect_right(first_slots, slot) - 1
        config = cohort_configs[home]
        drawn: List[np.ndarray] = []

        def keep(follows: bool, scale: float, draws: np.ndarray) -> int:
            drawn.append(draws)
            return -1

        _device_draws(scopes[home], config,
                      association_span_hours(config.span), keep)
        return drawn[slot - first_slots[home]]

    for config in cohort_configs:
        scope = seeds.child("household", config.router_id)
        scopes.append(scope)
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
                # The windows in which collectors observe devices: the
                # census and roster, the WiFi scans' client counts and
                # the traffic monitor's flows.
                read = ReadHours(association_span_hours(config.span),
                                 _hour_ranges(config.span, (
                                     windows.devices, windows.wifi,
                                     windows.traffic)))
                batch = _AssociationBatch(config.span, read, replay)
            elif batch.span != config.span:
                raise ValueError(
                    "all homes in a shard must share one study span")
            clock = clocks.get(tz)
            if clock is None:
                clock = clocks[tz] = batch.add_clock(
                    association_clock(config.span, calendar))
            first_slots.append(len(batch))
            draws = _push_home(batch, scope, config, schedule, clock)
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
            solved: Tuple[Tuple[float, float], ...] = ()
        else:
            associations = batch.finalize()
            solved = batch.solved

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
    return ShardCohort(seed, cohort_configs, universe, columns, solved)


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
