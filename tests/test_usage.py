"""Unit tests for the Section 6 usage analysis, on synthetic data."""

import numpy as np
import pytest

from repro.core import usage
from repro.core.datasets import StudyData, ThroughputSeries, fold_homes
from repro.core.records import (
    OBFUSCATED_DOMAIN,
    CapacityMeasurement,
    DeviceCountSample,
    FlowRecord,
    RouterInfo,
)
from repro.simulation.timebase import DAY, HOUR, StudyWindows, utc

T0 = utc(2013, 4, 1)  # a Monday


def info(rid, tz=0.0):
    return RouterInfo(rid, "US", True, tz, 49800)


def flow(rid, mac, domain, bytes_down, bytes_up=0.0, ts=T0):
    return FlowRecord(rid, ts, mac, domain, 0xF0000001, 443, "https",
                      bytes_up, bytes_down, 10.0)


def base_data(routers, **kwargs):
    return StudyData(routers={r.router_id: r for r in routers},
                     windows=StudyWindows(), **kwargs)


class TestDiurnalProfile:
    def test_hourly_means_in_local_time(self):
        samples = []
        # Weekday: 3 devices at 20:00 local, 1 at 04:00 local, tz=-5.
        for day in range(4):  # Mon-Thu
            base = T0 + day * DAY
            samples.append(DeviceCountSample("r", base + 25 * HOUR, 0, 3, 0))
            samples.append(DeviceCountSample("r", base + 9 * HOUR, 0, 1, 0))
        data = base_data([info("r", tz=-5.0)], device_counts=samples)
        profile = usage.diurnal_device_profile(data, weekend=False)
        assert profile.means[20] == pytest.approx(3.0)
        assert profile.means[4] == pytest.approx(1.0)

    def test_weekend_split(self):
        saturday = T0 + 5 * DAY
        samples = [DeviceCountSample("r", saturday + 12 * HOUR, 0, 2, 0),
                   DeviceCountSample("r", T0 + 12 * HOUR, 0, 5, 0)]
        data = base_data([info("r", tz=0.0)], device_counts=samples)
        weekend = usage.diurnal_device_profile(data, weekend=True)
        weekday = usage.diurnal_device_profile(data, weekend=False)
        assert weekend.means[12] == pytest.approx(2.0)
        assert weekday.means[12] == pytest.approx(5.0)

    def test_amplitude_ratio(self):
        samples = []
        for hour, count in ((4, 1), (20, 5)):  # weekday swings by 4
            samples.append(DeviceCountSample("r", T0 + hour * HOUR, 0,
                                             count, 0))
        saturday = T0 + 5 * DAY
        for hour, count in ((4, 2), (20, 3)):  # weekend swings by 1
            samples.append(DeviceCountSample("r", saturday + hour * HOUR, 0,
                                             count, 0))
        data = base_data([info("r", tz=0.0)], device_counts=samples)
        assert usage.diurnal_amplitude_ratio(data) == pytest.approx(4.0)


class TestUtilization:
    def make_data(self, up_bps, down_bps, cap_down=10.0, cap_up=1.0):
        series = ThroughputSeries("r", T0, np.asarray(up_bps, dtype=float),
                                  np.asarray(down_bps, dtype=float))
        capacity = [CapacityMeasurement("r", T0 + i * HOUR, cap_down, cap_up)
                    for i in range(3)]
        return base_data([info("r")], throughput={"r": series},
                         capacity=capacity,
                         flows=[flow("r", "m", "google.com", 2e8)])

    def test_median_capacity(self):
        data = self.make_data([0], [0])
        assert usage.median_capacity(data, "r") == (10.0, 1.0)
        assert usage.median_capacity(data, "ghost") is None

    def test_joined_timeseries(self):
        data = self.make_data([5e5, 0], [5e6, 0])
        joined = usage.utilization_timeseries(data, "r")
        assert joined.capacity_down_mbps == 10.0
        assert joined.downlink_utilization()[0] == pytest.approx(0.5)
        assert joined.uplink_utilization()[0] == pytest.approx(0.5)

    def test_saturation_active_minutes_only(self):
        # 1 active minute at 50% plus 99 idle minutes: idle must not dilute.
        up = [5e5] + [0.0] * 99
        down = [5e6] + [0.0] * 99
        data = self.make_data(up, down)
        points = usage.link_saturation(data, router_ids=["r"])
        assert len(points) == 1
        assert points[0].downlink_utilization == pytest.approx(0.5)
        assert points[0].uplink_utilization == pytest.approx(0.5)

    def test_saturating_homes_detected(self):
        data = self.make_data([2e6] * 10, [1e6] * 10)  # uplink 2x capacity
        points = usage.link_saturation(data, router_ids=["r"])
        assert usage.saturating_uplink_homes(points) == ["r"]

    def test_percentile_parameter(self):
        up = [1e5] * 90 + [9e5] * 10
        data = self.make_data(up, up)
        p50 = usage.link_saturation(data, percentile=50, router_ids=["r"])
        p95 = usage.link_saturation(data, percentile=95, router_ids=["r"])
        assert p95[0].uplink_utilization > p50[0].uplink_utilization


class TestDeviceShare:
    def test_per_home_shares(self):
        flows = [flow("r", "mac1", "google.com", 600.0),
                 flow("r", "mac2", "google.com", 300.0),
                 flow("r", "mac3", "google.com", 100.0)]
        data = base_data([info("r")], flows=flows)
        shares = usage.device_share_per_home(data, router_ids=["r"])
        assert list(shares["r"]) == [0.6, 0.3, 0.1]

    def test_mean_ranked(self):
        flows = [flow("a", "m1", "google.com", 900.0),
                 flow("a", "m2", "google.com", 100.0),
                 flow("b", "m3", "google.com", 500.0),
                 flow("b", "m4", "google.com", 500.0)]
        data = base_data([info("a"), info("b")], flows=flows)
        result = usage.mean_device_share(data, ranks=2,
                                         router_ids=["a", "b"])
        assert result[0] == pytest.approx(0.7)
        assert result[1] == pytest.approx(0.3)


class TestDomainStatistics:
    def make_data(self):
        flows = []
        # Home a: netflix dominates volume via one fat flow; google dominates
        # connections via many small flows; some obfuscated traffic exists.
        flows.append(flow("a", "m1", "netflix.com", 8e8))
        for i in range(8):
            flows.append(flow("a", "m2", "google.com", 1e6,
                              ts=T0 + i))
        flows.append(flow("a", "m2", OBFUSCATED_DOMAIN, 4e8))
        return base_data([info("a")], flows=flows)

    def test_rankings_exclude_obfuscated(self):
        data = self.make_data()
        rankings = usage.domain_rankings(data, router_ids=["a"])
        names = [name for name, _ in rankings["a"]]
        assert OBFUSCATED_DOMAIN not in names
        assert names[0] == "netflix.com"

    def test_rankings_by_connections(self):
        data = self.make_data()
        rankings = usage.domain_rankings(data, router_ids=["a"],
                                         by="connections")
        assert rankings["a"][0][0] == "google.com"

    def test_rankings_rejects_bad_key(self):
        with pytest.raises(ValueError):
            usage.domain_rankings(self.make_data(), by="packets")

    def test_top_counts(self):
        data = self.make_data()
        counts = usage.domain_top_counts(data, router_ids=["a"])
        assert counts["netflix.com"] == (1, 1)
        assert counts["google.com"] == (1, 1)

    def test_share_summary(self):
        data = self.make_data()
        summary = usage.domain_share(data, router_ids=["a"])
        total_wl = 8e8 + 8e6
        assert summary.volume_share_by_rank[0] == \
            pytest.approx(8e8 / total_wl, rel=0.01)
        assert summary.connection_share_by_rank[0] == \
            pytest.approx(8 / 9, rel=0.01)
        # The volume-top domain (netflix) holds just one of nine connections.
        assert summary.connections_of_volume_ranked[0] == \
            pytest.approx(1 / 9, rel=0.01)
        assert summary.whitelist_byte_coverage == \
            pytest.approx(total_wl / (total_wl + 4e8), rel=0.01)

    def test_share_summary_empty(self):
        data = base_data([info("a")])
        summary = usage.domain_share(data, router_ids=["a"])
        assert np.isnan(summary.whitelist_byte_coverage)
        assert summary.volume_share_by_rank.sum() == 0


class TestDeviceDomainProfiles:
    def test_profile(self):
        flows = [flow("r", "roku", "netflix.com", 700.0),
                 flow("r", "roku", "hulu.com", 300.0),
                 flow("r", "imac", "dropbox.com", 100.0)]
        data = base_data([info("r")], flows=flows)
        profile = usage.device_domain_profile(data, "r", "roku")
        assert profile[0] == ("netflix.com", pytest.approx(0.7))
        assert profile[1] == ("hulu.com", pytest.approx(0.3))

    def test_profile_empty_device(self):
        data = base_data([info("r")])
        assert usage.device_domain_profile(data, "r", "ghost") == []

    def test_devices_in_home_ordered_by_bytes(self):
        flows = [flow("r", "big", "netflix.com", 1e9),
                 flow("r", "small", "google.com", 2e5),
                 flow("r", "tiny", "google.com", 10.0)]
        data = base_data([info("r")], flows=flows)
        devices = usage.devices_in_traffic_home(data, "r")
        assert devices == ["big", "small"]  # tiny is under 100 KB


class TestQualifyingFilter:
    def test_traffic_router_selection_uses_100mb_bar(self):
        flows = [flow("busy", "m", "google.com", 2e8),
                 flow("quiet", "m", "google.com", 1e6)]
        data = base_data([info("busy"), info("quiet")], flows=flows)
        assert data.qualifying_traffic_routers() == ["busy"]
        shares = usage.device_share_per_home(data)  # default = qualifying
        assert set(shares) == {"busy"}

    def test_fold_and_study_data_apply_one_bar(self):
        # "edge" reaches exactly 100 MB only with its last, interleaved flow.
        flows = [flow("edge", "m", "google.com", 6e7),
                 flow("quiet", "m", "google.com", 1e6),
                 flow("edge", "n", "google.com", 4e7)]
        data = base_data([info("edge"), info("quiet")], flows=flows)
        fold = fold_homes(usage.FlowFold(), data.flows)
        assert fold.qualifying == set(data.qualifying_traffic_routers()) \
            == {"edge"}
        assert data.traffic_bytes_by_router() == {"edge": 1e8, "quiet": 1e6}
        assert fold.device_bytes == {"m": 6e7 + 1e6, "n": 4e7}
