"""Household activity schedules: who is home and who is using the network.

Two distinct hour-of-day curves drive the simulation, because the paper's
Figure 13 shows device *presence* dips only slightly at night (phones stay
associated while people sleep) whereas *traffic* collapses at night:

* **presence** — probability a portable device is at home, powered, and
  associated with the AP.  High at night, low during weekday work hours,
  peaking in the evening.
* **activity** — probability the household is actively generating traffic.
  Near-zero at night, moderate in the morning, peaking in the evening.

Weekends flatten both curves (Fig. 13b: "usage on weekends is more
constant").  Each household gets a private, jittered copy of the base curves
so homes differ without losing the population-level shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.timebase import StudyCalendar

#: Base probability a portable device is associated, by local hour (weekday).
_PRESENCE_WEEKDAY = np.array([
    0.60, 0.60, 0.59, 0.59, 0.59, 0.59,   # 00-05 asleep, phones connected
    0.58, 0.55, 0.44,                     # 06-08 leaving for work/school
    0.32, 0.30, 0.28, 0.28, 0.30, 0.31, 0.34,  # 09-15 workday trough
    0.44, 0.56,                           # 16-17 returning home
    0.64, 0.68, 0.70, 0.69,               # 18-21 evening peak
    0.66, 0.64,                           # 22-23 winding down
])

#: Weekend presence: flatter, people home most of the day (Fig. 13b).
_PRESENCE_WEEKEND = np.array([
    0.62, 0.62, 0.61, 0.61, 0.61, 0.61,
    0.60, 0.58, 0.55,
    0.53, 0.51, 0.50, 0.50, 0.50, 0.51, 0.52,
    0.54, 0.57,
    0.61, 0.64, 0.65, 0.64,
    0.63, 0.62,
])

#: Base probability of active network use, by local hour (weekday).
_ACTIVITY_WEEKDAY = np.array([
    0.12, 0.08, 0.05, 0.04, 0.04, 0.06,
    0.20, 0.40, 0.42,
    0.30, 0.28, 0.27, 0.28, 0.28, 0.29, 0.32,
    0.45, 0.60,
    0.80, 0.92, 0.95, 0.88,
    0.60, 0.30,
])

#: Weekend activity: higher during the day, similar evening peak.
_ACTIVITY_WEEKEND = np.array([
    0.18, 0.12, 0.07, 0.05, 0.05, 0.06,
    0.15, 0.28, 0.42,
    0.52, 0.58, 0.60, 0.58, 0.56, 0.55, 0.56,
    0.60, 0.66,
    0.75, 0.82, 0.84, 0.80,
    0.62, 0.35,
])


def _jitter_curve(base: np.ndarray, rng: np.random.Generator,
                  scale_sigma: float, shift_hours: int) -> np.ndarray:
    """Produce a household-private variant of a base curve.

    The curve is scaled by a lognormal factor and circularly shifted by up
    to ±*shift_hours* so households peak at slightly different times.
    """
    scale = float(rng.lognormal(mean=0.0, sigma=scale_sigma))
    shift = int(rng.integers(-shift_hours, shift_hours + 1))
    curve = np.roll(base, shift) * scale
    return np.clip(curve, 0.0, 1.0)


@dataclass(frozen=True)
class ActivitySchedule:
    """One household's presence and activity curves (24 slots each)."""

    presence_weekday: np.ndarray
    presence_weekend: np.ndarray
    activity_weekday: np.ndarray
    activity_weekend: np.ndarray

    def __post_init__(self) -> None:
        for curve in (self.presence_weekday, self.presence_weekend,
                      self.activity_weekday, self.activity_weekend):
            if curve.shape != (24,):
                raise ValueError("schedule curves must have 24 hourly slots")
            if curve.min() < 0 or curve.max() > 1:
                raise ValueError("schedule curves must stay within [0, 1]")

    @classmethod
    def generate(cls, rng: np.random.Generator) -> "ActivitySchedule":
        """Draw a household-private schedule around the base curves."""
        return cls(
            presence_weekday=_jitter_curve(_PRESENCE_WEEKDAY, rng, 0.08, 1),
            presence_weekend=_jitter_curve(_PRESENCE_WEEKEND, rng, 0.08, 1),
            activity_weekday=_jitter_curve(_ACTIVITY_WEEKDAY, rng, 0.15, 1),
            activity_weekend=_jitter_curve(_ACTIVITY_WEEKEND, rng, 0.15, 1),
        )

    @classmethod
    def baseline(cls) -> "ActivitySchedule":
        """The unjittered population curves (useful for tests)."""
        return cls(
            presence_weekday=_PRESENCE_WEEKDAY.copy(),
            presence_weekend=_PRESENCE_WEEKEND.copy(),
            activity_weekday=_ACTIVITY_WEEKDAY.copy(),
            activity_weekend=_ACTIVITY_WEEKEND.copy(),
        )

    def presence(self, calendar: StudyCalendar, epoch: float) -> float:
        """Probability a portable device is associated at *epoch*."""
        curve = (self.presence_weekend if calendar.is_weekend(epoch)
                 else self.presence_weekday)
        return float(curve[calendar.hour_of_day(epoch)])

    def activity(self, calendar: StudyCalendar, epoch: float) -> float:
        """Probability the household is generating traffic at *epoch*."""
        curve = (self.activity_weekend if calendar.is_weekend(epoch)
                 else self.activity_weekday)
        return float(curve[calendar.hour_of_day(epoch)])

    def evening_block(self, calendar: StudyCalendar,
                      day_start_epoch: float,
                      rng) -> "tuple[float, float]":
        """Sample the contiguous evening-use block for an appliance-mode home.

        Returns (start, end) epochs within the local day starting at
        *day_start_epoch*.  Weekends produce earlier, longer blocks —
        matching the Chinese household of Fig. 6b whose router is on
        "briefly in evenings and during weekends".  *rng* is anything
        with a ``Generator``'s ``uniform(low, high)``.
        """
        weekend = calendar.is_weekend(day_start_epoch + 12 * 3600)
        if weekend:
            start_hour = float(rng.uniform(10.0, 16.0))
            duration_hours = float(rng.uniform(4.0, 9.0))
        else:
            start_hour = float(rng.uniform(17.5, 20.0))
            duration_hours = float(rng.uniform(1.5, 4.5))
        start = day_start_epoch + start_hour * 3600
        return (start, start + duration_hours * 3600)
