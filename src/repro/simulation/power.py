"""Router power models: when is the gateway actually powered on?

Section 4.2 of the paper found two very different regimes:

* **Always-on** homes (typical in developed countries, Fig. 6a): the router
  stays powered except for rare reboots and occasional longer power-downs
  (moves, vacations, "turn it off and on again").  The median US router is
  on 98.25% of the time.
* **Appliance-mode** homes (common in developing countries, Fig. 6b): the
  router is switched on only while the household actively uses the
  Internet — brief evening blocks on weekdays, longer blocks on weekends.
  The median Indian router is on only 76.01% of the time.

A third ingredient — some developing-country homes switching the router off
overnight — produces the intermediate uptimes the paper reports for India
and South Africa without full appliance behaviour.

Power is modeled independently of the ISP link (:mod:`repro.simulation.link`);
a heartbeat requires both.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.intervals import IntervalSet
from repro.simulation.behavior import ActivitySchedule
from repro.simulation.timebase import DAY, HOUR, MINUTE, StudyCalendar

#: Power-mode labels, used by tests and the Fig. 6 bench.
MODE_ALWAYS_ON = "always-on"
MODE_APPLIANCE = "appliance"


def _sample_events(rng: np.random.Generator, span: Tuple[float, float],
                   rate_per_day: float, median_seconds: float,
                   sigma: float) -> Tuple[np.ndarray, np.ndarray]:
    """Poisson-arriving events with lognormal durations inside *span*.

    Returns parallel ``(starts, ends)`` arrays; ends are clamped to the
    span (element-wise ``min``, bitwise-equal to the former scalar loop).
    """
    start, end = span
    if end <= start or rate_per_day <= 0:
        return np.empty(0), np.empty(0)
    expected = (end - start) / DAY * rate_per_day
    count = int(rng.poisson(expected))
    if count == 0:
        return np.empty(0), np.empty(0)
    times = np.sort(rng.uniform(start, end, size=count))
    durations = rng.lognormal(mean=np.log(median_seconds), sigma=sigma,
                              size=count)
    return times, np.minimum(times + durations, end)


class _DayDraws:
    """The uniforms a loop over days takes from *rng*, drawn in blocks.

    Every day takes at least one draw, its first (:meth:`day`).  A block
    holds the least the days left still take, one draw each, and when a
    day takes more it is topped up the same way, so the stream ends
    exactly where drawing one value at a time leaves it.  ``random()``
    values are the stream's, and ``uniform(low, high)`` is ``low + (high
    - low) * random()``, as ``Generator.uniform`` computes it, so the
    day loops read as if they drew from the generator itself.
    """

    __slots__ = ("_rng", "_block", "_next", "_later")

    def __init__(self, rng: np.random.Generator, days: int):
        self._rng = rng
        #: Days after the current one.
        self._later = days
        self._block: List[float] = []
        self._next = 0

    def day(self) -> float:
        """The next day's first draw."""
        self._later -= 1
        return self.random()

    def random(self) -> float:
        if self._next == len(self._block):
            # This draw, then one for each day still to come.
            self._block = self._rng.random(1 + self._later).tolist()
            self._next = 0
        value = self._block[self._next]
        self._next += 1
        return value

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()


def _day_starts(span: Tuple[float, float],
                calendar: StudyCalendar) -> List[float]:
    """The local midnights from the one before the span's start, each a
    day after the last, until the span's end."""
    starts = []
    day_start = calendar.local_midnight_before(span[0])
    while day_start < span[1]:
        starts.append(day_start)
        day_start += DAY
    return starts


class PowerModel:
    """Base class: a precomputed on-interval set over the study span.

    Subclasses populate :attr:`on_intervals` at construction so every query
    over any sub-window is consistent and deterministic.
    """

    mode: str = "abstract"

    def __init__(self, span: Tuple[float, float], on_intervals: IntervalSet):
        if span[1] <= span[0]:
            raise ValueError("power model span must be non-empty")
        self.span = span
        self.on_intervals = on_intervals

    @classmethod
    def from_on_intervals(cls, span: Tuple[float, float],
                          on_intervals: IntervalSet) -> "PowerModel":
        """Rebuild a model from cohort columns (no RNG consumed).

        ``cls`` is the concrete subclass, so :attr:`mode` and type checks
        behave exactly as on a freshly-drawn model.
        """
        obj = cls.__new__(cls)
        obj.span = span
        obj.on_intervals = on_intervals
        return obj

    def up_intervals(self, start: float, end: float) -> IntervalSet:
        """Power-on intervals clipped to ``[start, end)``."""
        return self.on_intervals.clip(start, end)

    def is_on(self, epoch: float) -> bool:
        """True when the router is powered at *epoch*."""
        return self.on_intervals.contains(epoch)

    def on_fraction(self, start: float, end: float) -> float:
        """Fraction of the window the router spends powered on."""
        if end <= start:
            raise ValueError("window must be non-empty")
        return self.up_intervals(start, end).total_duration() / (end - start)


class AlwaysOnPower(PowerModel):
    """Fig. 6a behaviour: powered continuously, with rare interruptions.

    Interruptions come from three processes:

    * *reboots* — frequent but short (median ~3 min), usually under the
      10-minute downtime threshold;
    * *power-downs* — occasional ≥10-minute manual cycles;
    * *extended offs* — rare long absences (vacations, moves) that dominate
      the missing 1–2% of uptime.

    Developing-country variants add probabilistic overnight power-off.
    """

    mode = MODE_ALWAYS_ON

    def __init__(self, rng: np.random.Generator,
                 span: Tuple[float, float],
                 calendar: StudyCalendar,
                 reboot_rate_per_day: float = 0.08,
                 powerdown_rate_per_day: float = 0.006,
                 extended_rate_per_day: float = 0.004,
                 nightly_off_probability: float = 0.0):
        reboots = _sample_events(rng, span, reboot_rate_per_day,
                                 median_seconds=3 * MINUTE, sigma=0.6)
        powerdowns = _sample_events(rng, span, powerdown_rate_per_day,
                                    median_seconds=25 * MINUTE, sigma=0.9)
        extended = _sample_events(rng, span, extended_rate_per_day,
                                  median_seconds=8 * HOUR, sigma=1.0)
        nightly = self._nightly_offs(rng, span, calendar,
                                     nightly_off_probability)
        nightly_starts = np.asarray([s for s, _ in nightly], dtype=float)
        nightly_ends = np.asarray([e for _, e in nightly], dtype=float)
        off_set = IntervalSet.from_event_arrays(
            np.concatenate((reboots[0], powerdowns[0], extended[0],
                            nightly_starts)),
            np.concatenate((reboots[1], powerdowns[1], extended[1],
                            nightly_ends)))
        super().__init__(span, off_set.complement(span))

    @staticmethod
    def _nightly_offs(rng: np.random.Generator, span: Tuple[float, float],
                      calendar: StudyCalendar,
                      probability: float) -> List[Tuple[float, float]]:
        """Overnight power-off periods on a fraction of nights."""
        if probability <= 0:
            return []
        offs: List[Tuple[float, float]] = []
        day_starts = _day_starts(span, calendar)
        draws = _DayDraws(rng, len(day_starts))
        for day_start in day_starts:
            if draws.day() < probability:
                off_start = day_start + draws.uniform(0.0, 1.5) * HOUR
                off_end = day_start + draws.uniform(6.0, 8.0) * HOUR
                offs.append((off_start, off_end))
        return offs


class AppliancePower(PowerModel):
    """Fig. 6b behaviour: the router is an appliance, on only during use.

    Each local day either stays dark (with ``skip_day_probability``) or gets
    the household's evening block from
    :meth:`repro.simulation.behavior.ActivitySchedule.evening_block`;
    weekends occasionally earn a second daytime block.
    """

    mode = MODE_APPLIANCE

    def __init__(self, rng: np.random.Generator,
                 span: Tuple[float, float],
                 calendar: StudyCalendar,
                 schedule: ActivitySchedule,
                 skip_day_probability: float = 0.12,
                 weekend_second_block_probability: float = 0.5):
        on: List[Tuple[float, float]] = []
        day_starts = _day_starts(span, calendar)
        draws = _DayDraws(rng, len(day_starts))
        for day_start in day_starts:
            if draws.day() >= skip_day_probability:
                on.append(schedule.evening_block(calendar, day_start, draws))
                weekend = calendar.is_weekend(day_start + 12 * HOUR)
                if (weekend
                        and draws.random() < weekend_second_block_probability):
                    start = day_start + draws.uniform(8.0, 11.0) * HOUR
                    on.append((start,
                               start + draws.uniform(1.0, 3.0) * HOUR))
        on_set = IntervalSet.from_event_arrays(
            np.asarray([s for s, _ in on], dtype=float),
            np.asarray([e for _, e in on], dtype=float))
        super().__init__(span, on_set.clip(*span))


def draw_power_model(rng: np.random.Generator,
                     span: Tuple[float, float],
                     calendar: StudyCalendar,
                     schedule: ActivitySchedule,
                     appliance_probability: float,
                     developed: bool,
                     nightly_off_probability: float = 0.0) -> PowerModel:
    """Draw one household's power model from its country profile.

    Developed homes are nearly all always-on with negligible overnight
    switching; developing homes mix appliance-mode (per the country's
    ``appliance_probability``) with always-on-but-thrifty homes that power
    off overnight on a country-calibrated fraction of nights.
    """
    if rng.random() < appliance_probability:
        return AppliancePower(rng, span, calendar, schedule)
    jitter = float(rng.uniform(0.6, 1.4))
    nightly = min(nightly_off_probability * jitter, 0.9)
    if developed:
        return AlwaysOnPower(rng, span, calendar,
                             nightly_off_probability=min(nightly, 0.008))
    return AlwaysOnPower(
        rng, span, calendar,
        powerdown_rate_per_day=0.02,
        extended_rate_per_day=0.012,
        nightly_off_probability=nightly,
    )
