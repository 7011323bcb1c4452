"""Tests for household schedules and router power models."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.intervals import IntervalSet
from repro.simulation.behavior import ActivitySchedule
from repro.simulation.power import (
    MODE_ALWAYS_ON,
    MODE_APPLIANCE,
    AlwaysOnPower,
    AppliancePower,
    draw_power_model,
)
from repro.simulation.timebase import DAY, HOUR, StudyCalendar, utc

SPAN = (utc(2013, 3, 1), utc(2013, 4, 12))  # six weeks
CAL = StudyCalendar(0)


def schedule(seed=0):
    return ActivitySchedule.generate(np.random.default_rng(seed))


class TestActivitySchedule:
    def test_curves_within_unit_interval(self):
        s = schedule()
        for curve in (s.presence_weekday, s.presence_weekend,
                      s.activity_weekday, s.activity_weekend):
            assert curve.min() >= 0 and curve.max() <= 1

    def test_baseline_shapes(self):
        s = ActivitySchedule.baseline()
        # Weekday presence: evening peak above workday trough; small night dip.
        assert s.presence_weekday[20] > s.presence_weekday[12]
        assert s.presence_weekday[2] > s.presence_weekday[12]
        # Activity collapses at night, unlike presence.
        assert s.activity_weekday[3] < 0.3 * s.presence_weekday[3]

    def test_weekend_flatter_than_weekday(self):
        s = ActivitySchedule.baseline()
        weekday_amp = s.presence_weekday.max() - s.presence_weekday.min()
        weekend_amp = s.presence_weekend.max() - s.presence_weekend.min()
        assert weekend_amp < weekday_amp

    def test_generate_deterministic(self):
        a = ActivitySchedule.generate(np.random.default_rng(5))
        b = ActivitySchedule.generate(np.random.default_rng(5))
        assert np.array_equal(a.presence_weekday, b.presence_weekday)

    def test_presence_uses_local_time(self):
        s = ActivitySchedule.baseline()
        # 13:00 UTC is evening in India (+5.5): presence should be higher.
        noon_utc = utc(2013, 4, 1, 13)
        assert s.presence(StudyCalendar(5.5), noon_utc) > \
            s.presence(StudyCalendar(0), noon_utc)

    def test_rejects_bad_curves(self):
        with pytest.raises(ValueError):
            ActivitySchedule(np.zeros(23), np.zeros(24), np.zeros(24),
                             np.zeros(24))
        with pytest.raises(ValueError):
            ActivitySchedule(np.full(24, 1.5), np.zeros(24), np.zeros(24),
                             np.zeros(24))

    def test_evening_block_within_day(self):
        s = ActivitySchedule.baseline()
        rng = np.random.default_rng(0)
        day_start = CAL.local_midnight_before(utc(2013, 4, 2, 12))
        start, end = s.evening_block(CAL, day_start, rng)
        assert day_start <= start < end <= day_start + DAY + 6 * HOUR

    def test_weekend_blocks_longer_on_average(self):
        s = ActivitySchedule.baseline()
        rng = np.random.default_rng(0)
        weekday = CAL.local_midnight_before(utc(2013, 4, 2, 12))
        weekend = CAL.local_midnight_before(utc(2013, 4, 6, 12))
        wd = np.mean([np.subtract(*reversed(s.evening_block(CAL, weekday, rng)))
                      for _ in range(50)])
        we = np.mean([np.subtract(*reversed(s.evening_block(CAL, weekend, rng)))
                      for _ in range(50)])
        assert we > wd


class TestAlwaysOnPower:
    def test_high_on_fraction(self):
        power = AlwaysOnPower(np.random.default_rng(1), SPAN, CAL)
        assert power.on_fraction(*SPAN) > 0.93

    def test_intervals_within_span(self):
        power = AlwaysOnPower(np.random.default_rng(1), SPAN, CAL)
        for start, end in power.on_intervals:
            assert SPAN[0] <= start < end <= SPAN[1]

    def test_nightly_off_reduces_uptime(self):
        base = AlwaysOnPower(np.random.default_rng(2), SPAN, CAL,
                             nightly_off_probability=0.0)
        thrifty = AlwaysOnPower(np.random.default_rng(2), SPAN, CAL,
                                nightly_off_probability=0.9)
        assert thrifty.on_fraction(*SPAN) < base.on_fraction(*SPAN) - 0.1

    def test_mode_label(self):
        power = AlwaysOnPower(np.random.default_rng(1), SPAN, CAL)
        assert power.mode == MODE_ALWAYS_ON

    def test_is_on_matches_intervals(self):
        power = AlwaysOnPower(np.random.default_rng(3), SPAN, CAL)
        mid = (SPAN[0] + SPAN[1]) / 2
        assert power.is_on(mid) == power.on_intervals.contains(mid)

    def test_rejects_empty_span(self):
        with pytest.raises(ValueError):
            AlwaysOnPower(np.random.default_rng(0), (10.0, 10.0), CAL)


class TestAppliancePower:
    def test_low_on_fraction(self):
        power = AppliancePower(np.random.default_rng(1), SPAN, CAL, schedule())
        assert power.on_fraction(*SPAN) < 0.45

    def test_daily_cycling(self):
        power = AppliancePower(np.random.default_rng(1), SPAN, CAL, schedule())
        days = (SPAN[1] - SPAN[0]) / DAY
        # Roughly one on-block per day (minus skip days, plus weekend extras).
        assert 0.5 * days <= len(power.on_intervals) <= 2.2 * days

    def test_evening_bias_on_weekdays(self):
        power = AppliancePower(np.random.default_rng(1), SPAN, CAL, schedule())
        evening_on = sum(
            1 for day in range(10)
            if power.is_on(utc(2013, 3, 4 + day, 20, 30))
            and not CAL.is_weekend(utc(2013, 3, 4 + day, 20, 30)))
        morning_on = sum(
            1 for day in range(10)
            if power.is_on(utc(2013, 3, 4 + day, 4, 0)))
        assert evening_on > morning_on

    def test_mode_label(self):
        power = AppliancePower(np.random.default_rng(1), SPAN, CAL, schedule())
        assert power.mode == MODE_APPLIANCE


class TestDrawPowerModel:
    def test_appliance_probability_zero(self):
        for seed in range(5):
            model = draw_power_model(np.random.default_rng(seed), SPAN, CAL,
                                     schedule(), appliance_probability=0.0,
                                     developed=True)
            assert model.mode == MODE_ALWAYS_ON

    def test_appliance_probability_one(self):
        model = draw_power_model(np.random.default_rng(0), SPAN, CAL,
                                 schedule(), appliance_probability=1.0,
                                 developed=False)
        assert model.mode == MODE_APPLIANCE

    def test_developing_nightly_off_lowers_uptime(self):
        fractions_dev = []
        fractions_dvg = []
        for seed in range(8):
            dev = draw_power_model(np.random.default_rng(seed), SPAN, CAL,
                                   schedule(seed), 0.0, developed=True,
                                   nightly_off_probability=0.01)
            dvg = draw_power_model(np.random.default_rng(seed), SPAN, CAL,
                                   schedule(seed), 0.0, developed=False,
                                   nightly_off_probability=0.5)
            fractions_dev.append(dev.on_fraction(*SPAN))
            fractions_dvg.append(dvg.on_fraction(*SPAN))
        assert np.mean(fractions_dvg) < np.mean(fractions_dev) - 0.05


#: Probabilities of a day's draw: never, always, or anything between.
_PROBABILITY = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))

#: A span of whole and part days from any time of a day, in any zone.
_SPANS = st.tuples(st.floats(0.0, DAY), st.floats(HOUR, 30 * DAY),
                   st.sampled_from([-8.0, 0.0, 5.5, 9.0]))


class TestBlockDrawnDays:
    """The day loops take their uniforms in blocks: the same intervals
    as drawing one value at a time, and the stream left where that
    leaves it."""

    @staticmethod
    def nightly_offs(rng, span, calendar, probability):
        """The nightly-off loop drawing one value at a time."""
        if probability <= 0:
            return []
        offs = []
        day_start = calendar.local_midnight_before(span[0])
        while day_start < span[1]:
            if rng.random() < probability:
                off_start = day_start + float(rng.uniform(0.0, 1.5)) * HOUR
                off_end = day_start + float(rng.uniform(6.0, 8.0)) * HOUR
                offs.append((off_start, off_end))
            day_start += DAY
        return offs

    @staticmethod
    def appliance_on(rng, span, calendar, schedule, skip, second):
        """The appliance-mode loop drawing one value at a time."""
        on = []
        day_start = calendar.local_midnight_before(span[0])
        while day_start < span[1]:
            if rng.random() >= skip:
                on.append(schedule.evening_block(calendar, day_start, rng))
                weekend = calendar.is_weekend(day_start + 12 * HOUR)
                if weekend and rng.random() < second:
                    start = day_start + float(rng.uniform(8.0, 11.0)) * HOUR
                    on.append((start,
                               start + float(rng.uniform(1.0, 3.0)) * HOUR))
            day_start += DAY
        return IntervalSet.from_event_arrays(
            np.array([s for s, _ in on], dtype=float),
            np.array([e for _, e in on], dtype=float)).clip(*span)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), _SPANS, _PROBABILITY)
    @example(7, (0.0, 20 * DAY, 0.0), 1.0)  # every night off
    @example(7, (0.0, 20 * DAY, 0.0), 0.0)  # no night off, no draw
    def test_nightly_offs_match_scalar_loop(self, seed, window, probability):
        offset, length, tz = window
        span = (SPAN[0] + offset, SPAN[0] + offset + length)
        calendar = StudyCalendar(tz)
        block, scalar = (np.random.default_rng(seed) for _ in range(2))
        assert AlwaysOnPower._nightly_offs(block, span, calendar,
                                           probability) == \
            self.nightly_offs(scalar, span, calendar, probability)
        assert block.random() == scalar.random()

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), _SPANS, _PROBABILITY, _PROBABILITY)
    @example(7, (0.0, 20 * DAY, 0.0), 0.0, 1.0)  # every weekend twice
    @example(7, (0.0, 20 * DAY, 0.0), 1.0, 1.0)  # every day dark
    def test_appliance_days_match_scalar_loop(self, seed, window, skip,
                                              second):
        offset, length, tz = window
        span = (SPAN[0] + offset, SPAN[0] + offset + length)
        calendar = StudyCalendar(tz)
        home = schedule(seed % 7)
        block, scalar = (np.random.default_rng(seed) for _ in range(2))
        power = AppliancePower(block, span, calendar, home,
                               skip_day_probability=skip,
                               weekend_second_block_probability=second)
        assert power.on_intervals == self.appliance_on(
            scalar, span, calendar, home, skip, second)
        assert block.random() == scalar.random()
