"""Tests for the domain universe and the traffic generator."""

import numpy as np
import pytest

from repro.core.intervals import IntervalSet
from repro.simulation.behavior import ActivitySchedule
from repro.simulation.device_models import generate_devices
from repro.simulation.domains import (
    CATEGORY_PROFILES,
    DomainSampler,
    KIND_CATEGORY_APPETITE,
    WHITELIST_SIZE,
    build_domain_universe,
    zipf_weights,
)
from repro.simulation.timebase import DAY, StudyCalendar, utc
from repro.simulation.traffic_model import TrafficGenerator

CAL = StudyCalendar(-5)
WINDOW = (utc(2013, 4, 1), utc(2013, 4, 4))


class TestDomainUniverse:
    def test_whitelist_size(self):
        universe = build_domain_universe()
        whitelisted = [d for d in universe if d.whitelisted]
        assert len(whitelisted) == WHITELIST_SIZE

    def test_ranks_unique_and_contiguous(self):
        universe = build_domain_universe()
        ranks = sorted(d.rank for d in universe)
        assert ranks == list(range(1, len(universe) + 1))

    def test_head_matches_paper(self):
        universe = build_domain_universe()
        names = [d.name for d in universe[:6]]
        assert names == ["google.com", "youtube.com", "facebook.com",
                         "amazon.com", "apple.com", "twitter.com"]

    def test_streaming_services_whitelisted(self):
        by_name = {d.name: d for d in build_domain_universe()}
        for name in ("netflix.com", "hulu.com", "pandora.com", "dropbox.com"):
            assert by_name[name].whitelisted

    def test_tail_not_whitelisted(self):
        universe = build_domain_universe(tail_domains=50)
        tail = [d for d in universe if d.rank > WHITELIST_SIZE]
        assert len(tail) == 50
        assert not any(d.whitelisted for d in tail)

    def test_all_categories_have_profiles(self):
        for domain in build_domain_universe():
            assert domain.category in CATEGORY_PROFILES
            assert domain.profile.bytes_per_connection > 0

    def test_streaming_byte_heavy_connection_light(self):
        streaming = CATEGORY_PROFILES["streaming"]
        web = CATEGORY_PROFILES["web"]
        assert streaming.bytes_per_connection > 50 * web.bytes_per_connection
        assert streaming.connections_per_session < web.connections_per_session

    def test_cloud_is_upstream_heavy(self):
        assert CATEGORY_PROFILES["cloud"].upstream_fraction > \
            3 * CATEGORY_PROFILES["streaming"].upstream_fraction

    def test_rejects_negative_tail(self):
        with pytest.raises(ValueError):
            build_domain_universe(tail_domains=-1)


class TestZipfWeights:
    def test_normalized_and_decreasing(self):
        weights = zipf_weights(range(1, 101))
        assert float(weights.sum()) == pytest.approx(1.0)
        assert np.all(np.diff(weights) < 0)

    def test_rejects_rank_zero(self):
        with pytest.raises(ValueError):
            zipf_weights([0, 1])


class TestDomainSampler:
    def make(self, seed=0, **kwargs):
        return DomainSampler(np.random.default_rng(seed),
                             build_domain_universe(), **kwargs)

    def test_sample_count(self):
        sampler = self.make()
        rng = np.random.default_rng(1)
        assert len(sampler.sample(rng, "laptop", 25)) == 25
        assert sampler.sample(rng, "laptop", 0) == []

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            self.make().sample(np.random.default_rng(0), "laptop", -1)

    def test_media_box_samples_streaming(self):
        sampler = self.make()
        rng = np.random.default_rng(2)
        domains = sampler.sample(rng, "media_box", 300)
        streaming = sum(1 for d in domains if d.category == "streaming")
        assert streaming / len(domains) > 0.8

    def test_desktop_samples_more_cloud_than_media_box(self):
        sampler = self.make()
        rng = np.random.default_rng(3)
        desktop = sampler.sample(rng, "desktop", 400)
        box = sampler.sample(rng, "media_box", 400)
        cloud_desktop = sum(1 for d in desktop if d.category == "cloud")
        cloud_box = sum(1 for d in box if d.category == "cloud")
        assert cloud_desktop > cloud_box

    def test_favorite_is_whitelisted_streaming(self):
        sampler = self.make(seed=4)
        by_name = {d.name: d for d in sampler.universe}
        favorite = by_name[sampler.favorite_domain]
        assert favorite.category == "streaming" and favorite.whitelisted

    def test_unknown_profile_falls_back(self):
        sampler = self.make()
        rng = np.random.default_rng(5)
        assert len(sampler.sample(rng, "not-a-kind", 10)) == 10

    def test_empty_universe_rejected(self):
        with pytest.raises(ValueError):
            DomainSampler(np.random.default_rng(0), [])

    def test_appetites_cover_all_profile_keys(self):
        categories = set(CATEGORY_PROFILES)
        for key, appetite in KIND_CATEGORY_APPETITE.items():
            assert set(appetite) == categories, key


def _scalar_saturator_upload(generator, start, up):
    """The saturator overlay as one scalar draw per drawing minute, the
    reference its array draws must equal."""
    capacity_bytes_per_minute = generator.upstream_capacity_bps / 8 * 60
    for slot, epoch in enumerate(start + np.arange(up.size) * 60.0):
        if generator.uplink_saturator == "continuous":
            load = float(generator.rng.uniform(1.05, 1.9))
        else:
            hour = generator.calendar.hour_of_day(epoch)
            if 18 <= hour <= 23:
                load = float(generator.rng.uniform(0.9, 1.8))
            elif 8 <= hour < 18:
                load = float(generator.rng.uniform(0.1, 0.5))
            else:
                load = 0.05
        up[slot] += load * capacity_bytes_per_minute


class TestTrafficGenerator:
    def make_generator(self, seed=0, saturator=None, intensity=1.0,
                       online=None):
        rng = np.random.default_rng(seed)
        devices = generate_devices(
            np.random.default_rng(seed), "rT", WINDOW, CAL,
            ActivitySchedule.generate(np.random.default_rng(seed)),
            True, 7.0, 0.4, 0.2)
        sampler = DomainSampler(np.random.default_rng(seed),
                                build_domain_universe())
        return TrafficGenerator(
            rng=rng, devices=devices,
            schedule=ActivitySchedule.generate(np.random.default_rng(seed)),
            calendar=CAL, sampler=sampler,
            online=online if online is not None
            else IntervalSet([WINDOW]),
            uplink_saturator=saturator,
            upstream_capacity_bps=2e6,
            intensity=intensity,
        )

    def test_flows_within_window(self):
        traffic = self.make_generator().generate(*WINDOW)
        for flow in traffic.flows:
            assert WINDOW[0] <= flow.timestamp < WINDOW[1]

    def test_flows_sorted(self):
        traffic = self.make_generator().generate(*WINDOW)
        stamps = [f.timestamp for f in traffic.flows]
        assert stamps == sorted(stamps)

    def test_byte_series_shape(self):
        traffic = self.make_generator().generate(*WINDOW)
        minutes = int((WINDOW[1] - WINDOW[0]) / 60)
        assert traffic.minutes == minutes
        assert np.all(traffic.minute_up_bytes >= 0)
        assert np.all(traffic.minute_down_bytes >= 0)

    def test_intensity_scales_volume(self):
        quiet = self.make_generator(seed=1, intensity=0.01).generate(*WINDOW)
        loud = self.make_generator(seed=1, intensity=1.0).generate(*WINDOW)
        assert loud.total_bytes() > 5 * quiet.total_bytes()

    def test_offline_minutes_carry_no_traffic(self):
        online = IntervalSet([(WINDOW[0], WINDOW[0] + DAY)])
        traffic = self.make_generator(seed=2, online=online).generate(*WINDOW)
        first_day_minutes = int(DAY / 60)
        assert traffic.minute_up_bytes[first_day_minutes + 1:].sum() == 0
        assert traffic.minute_down_bytes[first_day_minutes + 1:].sum() == 0
        for flow in traffic.flows:
            assert flow.timestamp < WINDOW[0] + DAY

    def test_continuous_saturator_loads_uplink(self):
        plain = self.make_generator(seed=3).generate(*WINDOW)
        loaded = self.make_generator(seed=3, saturator="continuous") \
            .generate(*WINDOW)
        capacity_bytes_per_minute = 2e6 / 8 * 60
        saturated_minutes = np.mean(
            loaded.minute_up_bytes > capacity_bytes_per_minute)
        assert saturated_minutes > 0.9
        assert loaded.minute_up_bytes.sum() > plain.minute_up_bytes.sum()

    def test_diurnal_saturator_peaks_in_evening(self):
        traffic = self.make_generator(seed=4, saturator="diurnal") \
            .generate(*WINDOW)
        epochs = traffic.window[0] + np.arange(traffic.minutes) * 60
        hours = np.array([CAL.hour_of_day(e) for e in epochs])
        evening = traffic.minute_up_bytes[(hours >= 18) & (hours <= 23)].mean()
        night = traffic.minute_up_bytes[(hours >= 1) & (hours <= 5)].mean()
        assert evening > 3 * night

    @pytest.mark.parametrize("saturator", ["continuous", "diurnal"])
    @pytest.mark.parametrize("start", [WINDOW[0], WINDOW[0] + 7.5 * 3600])
    def test_saturator_overlay_matches_scalar_draws(self, saturator, start):
        """The overlay's array draws are the per-minute scalar draws it
        replaced: the same uplink bytes, bit for bit, and the stream left
        in the same state."""
        array = self.make_generator(seed=6, saturator=saturator)
        scalar = self.make_generator(seed=6, saturator=saturator)
        base = np.random.default_rng(6).uniform(0, 1e5, size=3000)
        up = base.copy()
        array._add_saturator_upload(start, start + 3000 * 60, up, [])
        expected = base.copy()
        _scalar_saturator_upload(scalar, start, expected)
        assert up.tobytes() == expected.tobytes()
        assert array.rng.bit_generator.state == \
            scalar.rng.bit_generator.state

    def test_rejects_unknown_saturator(self):
        with pytest.raises(ValueError):
            self.make_generator(saturator="sometimes")

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            self.make_generator().generate(WINDOW[0], WINDOW[0])

    def test_deterministic(self):
        a = self.make_generator(seed=5).generate(*WINDOW)
        b = self.make_generator(seed=5).generate(*WINDOW)
        assert a.total_bytes() == b.total_bytes()
        assert len(a.flows) == len(b.flows)
