"""Device archetypes and household device-population generation.

A household's device population determines most of Section 5: how many
devices exist (Fig. 7), how many are connected at once (Figs. 8, 9), which
band they use (Fig. 10), which vendors appear (Fig. 12), and which homes
have always-connected devices (Table 5).

Each device gets:

* a *kind* (phone, laptop, desktop, media box, ...), which fixes its
  attachment medium, band capability, vendor-bucket mix, presence behaviour,
  and traffic profile;
* a MAC allocated from the vendor registry;
* an hour-granularity association process: a Markov chain whose stationary
  distribution tracks the household presence/activity curves, so devices
  stay connected for realistic stretches instead of flapping hourly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.intervals import IntervalSet
from repro.core.records import (SPECTRUM_2_4, SPECTRUM_5, SPECTRUM_NONE,
                                Medium, Spectrum)
from repro.netutils.mac import MacAddress
from repro.simulation.behavior import ActivitySchedule
from repro.simulation.timebase import HOUR, StudyCalendar
from repro.simulation.vendors import allocate_mac


class DeviceKind(enum.Enum):
    """Archetypes the simulator knows how to behave as."""

    PHONE = "phone"
    TABLET = "tablet"
    LAPTOP = "laptop"
    DESKTOP = "desktop"
    MEDIA_BOX = "media_box"
    CONSOLE = "console"
    PRINTER = "printer"
    VOIP_PHONE = "voip_phone"
    IOT = "iot"


@dataclass(frozen=True)
class KindTraits:
    """Static behaviour of one device kind."""

    medium: Medium
    #: Probability the device is dual-band capable (can use 5 GHz).
    dual_band_probability: float
    #: Vendor-bucket mix this kind draws its MAC from.
    vendor_mix: Tuple[Tuple[str, float], ...]
    #: Whether the association process follows presence (portables) or
    #: activity (powered-during-use devices); always-connected overrides.
    follows_presence: bool
    #: Multiplier on the schedule curve for this kind.
    schedule_scale: float
    #: Relative traffic intensity (sessions per active hour).
    session_rate: float
    #: Traffic profile key used by :mod:`repro.simulation.domains`.
    traffic_profile: str


_TRAITS: Dict[DeviceKind, KindTraits] = {
    DeviceKind.PHONE: KindTraits(
        Medium.WIRELESS, 0.30,
        (("Apple", 0.50), ("Samsung", 0.22), ("SmartPhone", 0.28)),
        follows_presence=True, schedule_scale=1.0,
        session_rate=5.0, traffic_profile="phone"),
    DeviceKind.TABLET: KindTraits(
        Medium.WIRELESS, 0.80,
        (("Apple", 0.66), ("Samsung", 0.20), ("ODM", 0.14)),
        follows_presence=True, schedule_scale=0.85,
        session_rate=3.0, traffic_profile="tablet"),
    DeviceKind.LAPTOP: KindTraits(
        Medium.WIRELESS, 0.75,
        (("Apple", 0.16), ("Intel", 0.30), ("ODM", 0.42), ("Asus", 0.03),
         ("Hewlett-Packard", 0.04), ("WirelessCard", 0.05)),
        follows_presence=True, schedule_scale=0.75,
        session_rate=8.0, traffic_profile="laptop"),
    DeviceKind.DESKTOP: KindTraits(
        Medium.WIRED, 0.0,
        (("Apple", 0.10), ("Intel", 0.36), ("ODM", 0.26), ("Asus", 0.08),
         ("Hewlett-Packard", 0.08), ("Hardware", 0.08), ("Gateway", 0.02),
         ("VMware", 0.04)),
        follows_presence=False, schedule_scale=0.9,
        session_rate=8.0, traffic_profile="desktop"),
    DeviceKind.MEDIA_BOX: KindTraits(
        Medium.WIRED, 0.0,
        (("InternetTV", 0.85), ("Misc.", 0.15)),
        follows_presence=False, schedule_scale=0.8,
        session_rate=1.2, traffic_profile="media_box"),
    DeviceKind.CONSOLE: KindTraits(
        Medium.WIRED, 0.0,
        (("Gaming", 0.55), ("Microsoft", 0.45)),
        follows_presence=False, schedule_scale=0.5,
        session_rate=1.5, traffic_profile="console"),
    DeviceKind.PRINTER: KindTraits(
        Medium.WIRED, 0.0,
        (("Printer", 0.60), ("Hewlett-Packard", 0.40)),
        follows_presence=False, schedule_scale=0.25,
        session_rate=0.6, traffic_profile="background"),
    DeviceKind.VOIP_PHONE: KindTraits(
        Medium.WIRELESS, 0.0,
        (("VoIP", 0.70), ("Misc.", 0.30)),
        follows_presence=False, schedule_scale=0.3,
        session_rate=1.0, traffic_profile="background"),
    DeviceKind.IOT: KindTraits(
        Medium.WIRELESS, 0.10,
        (("Raspberry-Pi", 0.30), ("WirelessCard", 0.30), ("Misc.", 0.25),
         ("Hardware", 0.15)),
        follows_presence=False, schedule_scale=0.4,
        session_rate=1.0, traffic_profile="background"),
}


def kind_traits(kind: DeviceKind) -> KindTraits:
    """Static traits for a device kind."""
    return _TRAITS[kind]


@dataclass
class SimDevice:
    """One concrete device in one home."""

    device_id: str
    kind: DeviceKind
    mac: MacAddress
    medium: Medium
    #: Band the device associates on (None for wired devices).
    spectrum: Optional[Spectrum]
    always_connected: bool
    #: Hour-granularity association spans over the study span.
    connected: IntervalSet
    #: Relative traffic weight within the home (drives Fig. 17 dominance).
    traffic_weight: float

    @property
    def traits(self) -> KindTraits:
        """Static traits of this device's kind."""
        return kind_traits(self.kind)

    def is_connected(self, epoch: float) -> bool:
        """True when the device is associated/powered at *epoch*."""
        return self.always_connected or self.connected.contains(epoch)

    def connected_intervals(self, start: float, end: float) -> IntervalSet:
        """Association intervals clipped to a window."""
        if self.always_connected:
            return IntervalSet([(start, end)])
        return self.connected.clip(start, end)


def association_span_hours(span: Tuple[float, float]) -> int:
    """Whole hours the association process covers (ceil of the span)."""
    start, end = span
    return int(np.ceil((end - start) / HOUR))


#: Entries of an association table: weekday hours 0-23, then weekend
#: hours 0-23.
TABLE_SLOTS = 48


def association_clock(span: Tuple[float, float],
                      calendar: StudyCalendar) -> np.ndarray:
    """Per hour of the span, its association-table slot: the local
    hour of day, plus 24 on a local weekend.

    Depends only on the calendar's timezone and the span, so a cohort
    computes it once per timezone.
    """
    start, _ = span
    epochs = start + np.arange(association_span_hours(span)) * HOUR
    slots = calendar.hour_of_day_many(epochs)
    slots[calendar.is_weekend_many(epochs)] += 24
    return slots


def association_levels(schedule: ActivitySchedule, follows_presence: bool,
                       ) -> np.ndarray:
    """The schedule curve a device follows, by association-table slot."""
    if follows_presence:
        return np.concatenate((schedule.presence_weekday,
                               schedule.presence_weekend))
    return np.concatenate((schedule.activity_weekday,
                           schedule.activity_weekend))


def transition_probs(levels: np.ndarray, scale,
                     persistence: float = 0.55,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Transition probabilities ``(prob_off, prob_on)`` at schedule
    *levels* scaled by *scale* (a number, or a column of one per row).

    Pure elementwise arithmetic, so computing it on a 48-slot table and
    gathering the result by hour gives bitwise what computing it hour by
    hour gives.  ``prob_off`` is the connect probability from the
    disconnected state, ``prob_on`` from the connected state; the shared
    clamp keeps ``prob_off <= prob_on`` element-wise, which the columnar
    solver relies on.
    """
    target = levels * scale
    np.minimum(target, 1.0, out=target)
    stay = (1 - persistence) * target
    floor = 0.02 * target
    # ceiling = 1 - 0.02 * (1 - target), kept as the same three
    # elementwise steps so the floats don't move.
    ceiling = 1.0 - target
    ceiling *= 0.02
    np.subtract(1.0, ceiling, out=ceiling)
    # Transition probability given the previous state, pre-clamped.
    # ``stay + persistence * state`` collapses to ``stay`` for state 0
    # (stay is never -0.0, so adding +0.0 is the identity) and a scalar
    # add of ``persistence`` for state 1.
    prob_off = np.maximum(stay, floor)
    np.minimum(prob_off, ceiling, out=prob_off)
    prob_on = stay + persistence
    np.maximum(prob_on, floor, out=prob_on)
    np.minimum(prob_on, ceiling, out=prob_on)
    return prob_off, prob_on


def association_probs(span: Tuple[float, float],
                      calendar: StudyCalendar,
                      schedule: ActivitySchedule,
                      follows_presence: bool,
                      scale: float,
                      persistence: float = 0.55,
                      ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-hour transition probabilities ``(prob_off, prob_on)``.

    Pure arithmetic over the schedule curves — no RNG.  The level lookup
    indexes the schedule's hourly curves hour by hour, as
    ``ActivitySchedule.presence`` and ``activity`` do; the cohort gathers
    the same values from a 48-slot table (:func:`association_levels`,
    :func:`association_clock`).
    """
    start, _ = span
    epochs = start + np.arange(association_span_hours(span)) * HOUR
    hour_index = calendar.hour_of_day_many(epochs)
    weekend = calendar.is_weekend_many(epochs)
    if follows_presence:
        levels = np.where(weekend, schedule.presence_weekend[hour_index],
                          schedule.presence_weekday[hour_index])
    else:
        levels = np.where(weekend, schedule.activity_weekend[hour_index],
                          schedule.activity_weekday[hour_index])
    return transition_probs(levels, scale, persistence)


def _markov_association(rng: np.random.Generator,
                        span: Tuple[float, float],
                        calendar: StudyCalendar,
                        schedule: ActivitySchedule,
                        follows_presence: bool,
                        scale: float,
                        persistence: float = 0.55) -> IntervalSet:
    """Hourly association process tracking the household schedule.

    Each hour the device is connected with probability equal to the
    (scaled) schedule level, but transitions are smoothed: the previous
    state pulls the draw toward itself with weight *persistence*, giving
    realistic multi-hour sessions while preserving the hourly marginals.

    This is the scalar reference path; the columnar materializer solves
    the same recurrence shard-wide (see ``repro.simulation.cohort``) and
    the cohort equivalence suite pins the two together bitwise.
    """
    hours = association_span_hours(span)
    if hours <= 0:
        return IntervalSet()
    # One uniform draw per hour, exactly as the scalar loop consumed them:
    # Generator.random(n) produces the same stream as n scalar .random()
    # calls, so pre-drawing is bitwise-neutral (the digest-pin test holds
    # this invariant).  The schedule levels and transition probabilities
    # are pure arithmetic, so they vectorize bitwise-identically too.
    prob_off, prob_on = association_probs(span, calendar, schedule,
                                          follows_presence, scale,
                                          persistence)
    return _markov_runs(span, rng.random(hours), prob_off, prob_on)


def _markov_runs(span: Tuple[float, float], draws: np.ndarray,
                 prob_off: np.ndarray, prob_on: np.ndarray) -> IntervalSet:
    """The association state walked hour by hour over *draws*: the
    device connects in an hour when its draw is below the hour's
    ``prob_on`` if it was connected the hour before, else below its
    ``prob_off``; its connected runs clipped to *span*."""
    start, end = span
    hours = len(draws)
    epoch_list = (start + np.arange(hours) * HOUR).tolist()
    prob_off = prob_off.tolist()
    prob_on = prob_on.tolist()
    draws = draws.tolist()
    connected: List[Tuple[float, float]] = []
    state = False
    run_start = 0.0
    for idx in range(hours):
        new_state = draws[idx] < (prob_on[idx] if state else prob_off[idx])
        if new_state and not state:
            run_start = epoch_list[idx]
        elif state and not new_state:
            connected.append((run_start, epoch_list[idx]))
        state = new_state
    if state:
        connected.append((run_start, start + hours * HOUR))
    return IntervalSet(connected).clip(start, end)


# Population mixes: (kind, mean count per home).  Calibrated so developed
# homes average ~7-8 unique devices with ~2.5 wired, developing ~4-5 with
# ~1.2 wired (Figs. 7, 8) and the Fig. 12 vendor histogram emerges.
_DEVELOPED_MIX: Tuple[Tuple[DeviceKind, float], ...] = (
    (DeviceKind.PHONE, 2.8),
    (DeviceKind.LAPTOP, 2.1),
    (DeviceKind.TABLET, 0.9),
    (DeviceKind.DESKTOP, 0.5),
    (DeviceKind.MEDIA_BOX, 0.7),
    (DeviceKind.CONSOLE, 0.45),
    (DeviceKind.PRINTER, 0.25),
    (DeviceKind.VOIP_PHONE, 0.12),
    (DeviceKind.IOT, 0.55),
)

_DEVELOPING_MIX: Tuple[Tuple[DeviceKind, float], ...] = (
    (DeviceKind.PHONE, 2.0),
    (DeviceKind.LAPTOP, 1.3),
    (DeviceKind.TABLET, 0.35),
    (DeviceKind.DESKTOP, 0.55),
    (DeviceKind.MEDIA_BOX, 0.15),
    (DeviceKind.CONSOLE, 0.12),
    (DeviceKind.PRINTER, 0.12),
    (DeviceKind.VOIP_PHONE, 0.08),
    (DeviceKind.IOT, 0.12),
)


#: Cached (labels, CDF) per vendor-mix tuple: ``Generator.choice(p=...)``
#: internally cumsums the weights, renormalizes by the last element, draws
#: one uniform, and binary-searches — so this cache draws the identical
#: label from the identical stream position at a fraction of the cost.
_VENDOR_CDF: Dict[Tuple[Tuple[str, float], ...],
                  Tuple[Tuple[str, ...], np.ndarray]] = {}


def _choose_weighted(rng: np.random.Generator,
                     options: Tuple[Tuple[str, float], ...]) -> str:
    cached = _VENDOR_CDF.get(options)
    if cached is None:
        labels = tuple(label for label, _ in options)
        weights = np.asarray([w for _, w in options], dtype=float)
        weights /= weights.sum()
        cdf = weights.cumsum()
        cdf /= cdf[-1]
        cached = _VENDOR_CDF[options] = (labels, cdf)
    labels, cdf = cached
    return labels[int(np.searchsorted(cdf, rng.random(), side="right"))]


def generate_devices(rng: np.random.Generator,
                     router_id: str,
                     span: Tuple[float, float],
                     calendar: StudyCalendar,
                     schedule: ActivitySchedule,
                     developed: bool,
                     mean_devices: float,
                     always_wired_probability: float,
                     always_wireless_probability: float) -> List[SimDevice]:
    """Generate one household's device population.

    The per-kind Poisson counts are rescaled so the expected total matches
    the country's ``mean_devices``; every home gets at least one device.
    """
    mix = _DEVELOPED_MIX if developed else _DEVELOPING_MIX
    base_total = sum(mean for _, mean in mix)
    # Household size varies far more than Poisson alone allows: Fig. 7 shows
    # ~20% of homes with two or fewer devices next to double-digit homes.
    size_factor = float(rng.lognormal(-0.10, 0.55))
    scale = mean_devices / base_total * size_factor

    kinds: List[DeviceKind] = []
    for kind, mean in mix:
        kinds.extend([kind] * int(rng.poisson(mean * scale)))
    if not kinds:
        kinds.append(DeviceKind.PHONE)

    # Table 5: decide up-front whether this home keeps an always-connected
    # wired and/or wireless device, then pin one eligible device of each.
    wants_always_wired = bool(rng.random() < always_wired_probability)
    wants_always_wireless = bool(rng.random() < always_wireless_probability)
    if wants_always_wired and not any(
            kind_traits(k).medium is Medium.WIRED for k in kinds):
        kinds.append(DeviceKind.MEDIA_BOX)

    # Dirichlet traffic weights with a heavy lead device: the paper's
    # Fig. 17 dominance (top device ~60-65% of bytes) comes from here.
    alphas = np.full(len(kinds), 0.45)
    weights = rng.dirichlet(alphas)

    devices: List[SimDevice] = []
    assigned_always_wired = False
    assigned_always_wireless = False
    for index, kind in enumerate(kinds):
        traits = kind_traits(kind)
        category = _choose_weighted(rng, traits.vendor_mix)
        mac = allocate_mac(rng, category)
        spectrum = None
        if traits.medium is Medium.WIRELESS:
            dual = rng.random() < traits.dual_band_probability
            use_5 = dual and rng.random() < 0.60
            spectrum = Spectrum.GHZ_5 if use_5 else Spectrum.GHZ_2_4
        always = False
        if (wants_always_wired and not assigned_always_wired
                and traits.medium is Medium.WIRED):
            always = True
            assigned_always_wired = True
        elif (wants_always_wireless and not assigned_always_wireless
              and traits.medium is Medium.WIRELESS):
            always = True
            assigned_always_wireless = True
        if always:
            connected = IntervalSet([span])
        else:
            connected = _markov_association(
                rng, span, calendar, schedule,
                traits.follows_presence, traits.schedule_scale)
        devices.append(SimDevice(
            device_id=f"{router_id}-dev{index:02d}",
            kind=kind,
            mac=mac,
            medium=traits.medium,
            spectrum=spectrum,
            always_connected=always,
            connected=connected,
            traffic_weight=float(weights[index]) * traits.session_rate,
        ))
    return devices


# -- columnar draw pass -------------------------------------------------------
#
# The shard-wide materializer (repro.simulation.cohort) splits device
# generation in two: a *draw pass* that consumes the home's "devices"
# stream in exactly the order generate_devices() does, and a batched
# association solve over the whole shard.  The draw pass emits one
# DeviceDraw per device; non-always devices hand their hourly uniform
# draws to a sink and receive a slot index to claim the solved intervals
# from later.  Replaying the stream gives the same draws again.

#: Stable kind <-> small-int code mapping for the cohort's kind column.
KIND_ORDER: Tuple[DeviceKind, ...] = tuple(DeviceKind)
KIND_CODE: Dict[DeviceKind, int] = {k: i for i, k in enumerate(KIND_ORDER)}


@dataclass
class DeviceDraw:
    """One device's drawn scalars, before association intervals exist."""

    kind: DeviceKind
    mac_value: int
    spectrum_code: int
    always_connected: bool
    traffic_weight: float
    #: Index into the shard's association batch (-1 for always-connected).
    markov_slot: int


def generate_device_draws(rng: np.random.Generator,
                          hours: int,
                          developed: bool,
                          mean_devices: float,
                          always_wired_probability: float,
                          always_wireless_probability: float,
                          push_association) -> List[DeviceDraw]:
    """Columnar twin of :func:`generate_devices`: draws only, no expansion.

    Consumes the ``"devices"`` stream draw-for-draw like the reference
    path (the cohort equivalence suite asserts this), but defers the
    Markov run-extraction: for each non-always device it calls
    ``push_association(follows_presence, schedule_scale, hourly_draws)``
    with the span's *hours* uniforms and records the returned slot.
    """
    mix = _DEVELOPED_MIX if developed else _DEVELOPING_MIX
    base_total = sum(mean for _, mean in mix)
    size_factor = float(rng.lognormal(-0.10, 0.55))
    scale = mean_devices / base_total * size_factor

    kinds: List[DeviceKind] = []
    for kind, mean in mix:
        kinds.extend([kind] * int(rng.poisson(mean * scale)))
    if not kinds:
        kinds.append(DeviceKind.PHONE)

    wants_always_wired = bool(rng.random() < always_wired_probability)
    wants_always_wireless = bool(rng.random() < always_wireless_probability)
    if wants_always_wired and not any(
            kind_traits(k).medium is Medium.WIRED for k in kinds):
        kinds.append(DeviceKind.MEDIA_BOX)

    alphas = np.full(len(kinds), 0.45)
    weights = rng.dirichlet(alphas)

    draws_out: List[DeviceDraw] = []
    assigned_always_wired = False
    assigned_always_wireless = False
    for index, kind in enumerate(kinds):
        traits = kind_traits(kind)
        category = _choose_weighted(rng, traits.vendor_mix)
        mac = allocate_mac(rng, category)
        spectrum_code = SPECTRUM_NONE
        if traits.medium is Medium.WIRELESS:
            dual = rng.random() < traits.dual_band_probability
            use_5 = dual and rng.random() < 0.60
            spectrum_code = SPECTRUM_5 if use_5 else SPECTRUM_2_4
        always = False
        if (wants_always_wired and not assigned_always_wired
                and traits.medium is Medium.WIRED):
            always = True
            assigned_always_wired = True
        elif (wants_always_wireless and not assigned_always_wireless
              and traits.medium is Medium.WIRELESS):
            always = True
            assigned_always_wireless = True
        if always:
            slot = -1
        else:
            slot = push_association(traits.follows_presence,
                                    traits.schedule_scale,
                                    rng.random(hours))
        draws_out.append(DeviceDraw(
            kind=kind,
            mac_value=mac.value,
            spectrum_code=spectrum_code,
            always_connected=always,
            traffic_weight=float(weights[index]) * traits.session_rate,
            markov_slot=slot,
        ))
    return draws_out
