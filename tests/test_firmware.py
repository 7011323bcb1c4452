"""Tests for the BISmark firmware collectors."""

import numpy as np
import pytest

from repro.collection.batches import ColumnarRecords
from repro.core.records import (
    OBFUSCATED_DOMAIN,
    Medium,
    Spectrum,
)
from repro.netutils.mac import parse_mac
from repro.simulation.countries import country_by_code
from repro.simulation.household import Household, HouseholdConfig
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import DAY, HOUR, StudyWindows, utc
from repro.simulation.vendors import vendor_category
from repro.firmware.anonymize import AnonymizationPolicy
from repro.firmware.capacity import capacity_measurements
from repro.firmware.devices import census_at, device_counts, device_roster
from repro.firmware.heartbeat import heartbeat_send_times
from repro.firmware.router import BismarkRouter
from repro.firmware.traffic import monitor_traffic
from repro.firmware.uptime import uptime_reports
from repro.firmware.wifi import wifi_scans

SPAN = (utc(2013, 3, 1), utc(2013, 3, 22))  # three weeks


@pytest.fixture(scope="module")
def us_home():
    return Household(SeedHierarchy(11), HouseholdConfig(
        "US500", country_by_code("US"), SPAN, traffic_consent=True))


@pytest.fixture(scope="module")
def cn_home():
    return Household(SeedHierarchy(11), HouseholdConfig(
        "CN500", country_by_code("CN"), SPAN))


@pytest.fixture(scope="module")
def policy(us_home):
    whitelist = frozenset(d.name for d in us_home._universe if d.whitelisted)
    return AnonymizationPolicy(whitelist=whitelist)


class TestAnonymizationPolicy:
    def test_mac_keeps_oui(self, policy):
        mac = parse_mac("3c:07:54:01:02:03")
        anon = parse_mac(policy.anonymize_mac(mac))
        assert anon.oui == mac.oui
        assert anon.lower24 != mac.lower24

    def test_mac_stable(self, policy):
        mac = parse_mac("3c:07:54:01:02:03")
        assert policy.anonymize_mac(mac) == policy.anonymize_mac(mac)

    def test_domain_whitelisting(self, policy):
        assert policy.filter_domain("google.com") == "google.com"
        assert policy.filter_domain("shady.example") == OBFUSCATED_DOMAIN

    def test_ip_pseudonym(self, policy):
        assert policy.anonymize_ip(0x08080808) != 0x08080808

    def test_whitelist_coerced_to_frozenset(self):
        policy = AnonymizationPolicy(whitelist={"a.com"})
        assert isinstance(policy.whitelist, frozenset)

    def test_for_whitelist(self):
        policy = AnonymizationPolicy.for_whitelist(["a.com", "b.com"])
        assert policy.filter_domain("b.com") == "b.com"


class TestPolicyMemoization:
    """The per-instance caches must never leak between policies — two
    studies with different salts (or whitelists) produce unlinkable
    pseudonyms, cached or not."""

    def test_caches_are_per_instance(self):
        a = AnonymizationPolicy(whitelist=frozenset({"a.com"}))
        b = AnonymizationPolicy(whitelist=frozenset({"a.com"}))
        assert a._domain_cache is not b._domain_cache
        assert a._ip_cache is not b._ip_cache
        assert a._mac_cache is not b._mac_cache

    def test_different_salts_never_share_ip_pseudonyms(self):
        wl = frozenset({"a.com"})
        first = AnonymizationPolicy(whitelist=wl, salt=b"study-one")
        second = AnonymizationPolicy(whitelist=wl, salt=b"study-two")
        address = 0x08080808
        # Warm both caches, in both orders, then cross-check.
        one = first.anonymize_ip(address)
        two = second.anonymize_ip(address)
        assert one != two
        assert first.anonymize_ip(address) == one
        assert second.anonymize_ip(address) == two

    def test_different_salts_never_share_mac_pseudonyms(self):
        mac = parse_mac("3c:07:54:01:02:03")
        wl = frozenset({"a.com"})
        first = AnonymizationPolicy(whitelist=wl, salt=b"study-one")
        second = AnonymizationPolicy(whitelist=wl, salt=b"study-two")
        assert first.anonymize_mac(mac) != second.anonymize_mac(mac)
        assert first.anonymize_mac(mac) == first.anonymize_mac(mac)

    def test_different_whitelists_never_share_domain_filtering(self):
        allow = AnonymizationPolicy(whitelist=frozenset({"a.com"}))
        deny = AnonymizationPolicy(whitelist=frozenset({"b.com"}))
        assert allow.filter_domain("a.com") == "a.com"
        assert deny.filter_domain("a.com") == OBFUSCATED_DOMAIN
        # Re-query after both caches are warm: still isolated.
        assert allow.filter_domain("a.com") == "a.com"

    def test_cached_values_match_uncached(self):
        policy = AnonymizationPolicy(whitelist=frozenset({"a.com"}))
        fresh = AnonymizationPolicy(whitelist=frozenset({"a.com"}))
        address = 0x01020304
        mac = parse_mac("f8:1a:67:aa:bb:cc")
        for _ in range(3):  # repeated hits serve from cache
            assert policy.anonymize_ip(address) == fresh.anonymize_ip(address)
            assert policy.anonymize_mac(mac) == fresh.anonymize_mac(mac)
            assert policy.filter_domain("other.net") == OBFUSCATED_DOMAIN

    def test_policy_equality_ignores_caches(self):
        a = AnonymizationPolicy(whitelist=frozenset({"a.com"}))
        b = AnonymizationPolicy(whitelist=frozenset({"a.com"}))
        a.anonymize_ip(0x08080808)  # warm one cache only
        assert a == b
        assert hash(a) == hash(b)


class TestHeartbeat:
    def test_roughly_one_per_minute_while_online(self, us_home):
        rng = np.random.default_rng(0)
        sends = heartbeat_send_times(us_home, *SPAN, rng=rng)
        online_minutes = us_home.online_intervals(*SPAN).total_duration() / 60
        assert abs(len(sends) - online_minutes) / online_minutes < 0.02

    def test_all_sends_while_online(self, us_home):
        rng = np.random.default_rng(0)
        sends = heartbeat_send_times(us_home, *SPAN, rng=rng,
                                     jitter_seconds=0.0)
        online = us_home.online_intervals(*SPAN)
        assert online.contains_many(sends).all()

    def test_sorted(self, us_home):
        sends = heartbeat_send_times(us_home, *SPAN,
                                     rng=np.random.default_rng(1))
        assert np.all(np.diff(sends) >= 0)

    def test_empty_window(self, us_home):
        assert heartbeat_send_times(us_home, SPAN[0], SPAN[0],
                                    rng=np.random.default_rng(0)).size == 0

    def test_appliance_home_sends_fewer(self, us_home, cn_home):
        us = heartbeat_send_times(us_home, *SPAN,
                                  rng=np.random.default_rng(2))
        cn = heartbeat_send_times(cn_home, *SPAN,
                                  rng=np.random.default_rng(2))
        assert len(cn) < len(us)

    def test_rejects_bad_interval(self, us_home):
        with pytest.raises(ValueError):
            heartbeat_send_times(us_home, *SPAN,
                                 rng=np.random.default_rng(0), interval=0)


class TestUptimeReports:
    def test_cadence(self, us_home):
        reports = uptime_reports(us_home, *SPAN,
                                 rng=np.random.default_rng(0))
        expected = (SPAN[1] - SPAN[0]) / (12 * HOUR)
        assert abs(len(reports) - expected) <= expected * 0.3 + 1

    def test_boot_time_consistent_with_power(self, us_home):
        for report in uptime_reports(us_home, *SPAN,
                                     rng=np.random.default_rng(0)):
            assert us_home.power.is_on(report.timestamp - 1)
            boot = report.boot_time
            # Boot must land at the start of a power-on interval.
            starts = [s for s, _ in us_home.power.on_intervals]
            assert min(abs(boot - s) for s in starts) < 1.0

    def test_uptime_resets_on_cycles(self):
        # Force an appliance home: it can never accumulate days of uptime.
        home = None
        for seed in range(40):
            candidate = Household(SeedHierarchy(seed), HouseholdConfig(
                "CN900", country_by_code("CN"), SPAN))
            if candidate.power.mode == "appliance":
                home = candidate
                break
        assert home is not None, "no appliance CN home in 40 seeds"
        reports = uptime_reports(home, *SPAN, rng=np.random.default_rng(0))
        if reports:
            assert max(r.uptime_seconds for r in reports) < DAY


class TestCapacity:
    def test_estimates_track_link(self, us_home):
        measurements = capacity_measurements(us_home, *SPAN,
                                             rng=np.random.default_rng(0))
        assert measurements
        truth = us_home.link.config.downstream_mbps
        values = [m.downstream_mbps for m in measurements]
        assert abs(np.mean(values) - truth) / truth < 0.05

    def test_upstream_below_downstream(self, us_home):
        for m in capacity_measurements(us_home, *SPAN,
                                       rng=np.random.default_rng(1)):
            assert m.upstream_mbps < m.downstream_mbps


class TestDeviceCensus:
    def test_census_counts_connected(self, us_home):
        sample = census_at(us_home, SPAN[0] + 3 * DAY)
        manual_wired = sum(
            1 for d in us_home.devices
            if d.medium is Medium.WIRED and d.is_connected(SPAN[0] + 3 * DAY))
        assert sample.wired == min(manual_wired, 4)

    def test_port_cap(self, us_home):
        for sample in device_counts(us_home, *SPAN,
                                    rng=np.random.default_rng(0)):
            assert sample.wired <= 4

    def test_samples_only_when_powered(self, cn_home):
        for sample in device_counts(cn_home, *SPAN,
                                    rng=np.random.default_rng(0)):
            assert cn_home.power.is_on(sample.timestamp)

    def test_roster_macs_anonymized_with_oui(self, us_home, policy):
        roster = device_roster(us_home, *SPAN, policy)
        assert roster
        real_macs = {str(d.mac) for d in us_home.devices}
        for entry in roster:
            assert entry.device_mac not in real_macs
            assert vendor_category(parse_mac(entry.device_mac).oui) != "Unknown"

    def test_roster_always_flags_ground_truth(self, us_home, policy):
        roster = device_roster(us_home, *SPAN, policy)
        truth = {policy.anonymize_mac(d.mac): d.always_connected
                 for d in us_home.devices}
        for entry in roster:
            if truth[entry.device_mac]:
                assert entry.always_connected

    def test_appliance_home_cannot_certify_always(self, cn_home, policy):
        if cn_home.power.mode == "appliance":
            roster = device_roster(cn_home, *SPAN, policy)
            assert not any(e.always_connected for e in roster)


class TestWifiScans:
    def test_scan_cadence_and_backoff(self, us_home):
        scans = wifi_scans(us_home, *SPAN, rng=np.random.default_rng(0))
        assert scans
        # With backoff, strictly fewer scans than the raw schedule allows.
        max_possible = 2 * (SPAN[1] - SPAN[0]) / (10 * 60)
        assert len(scans) < max_possible

    def test_both_spectra_observed(self, us_home):
        scans = wifi_scans(us_home, *SPAN, rng=np.random.default_rng(0))
        spectra = {s.spectrum for s in scans}
        assert spectra == {Spectrum.GHZ_2_4, Spectrum.GHZ_5}

    def test_counts_nonnegative(self, us_home):
        for s in wifi_scans(us_home, *SPAN, rng=np.random.default_rng(1)):
            assert s.neighbor_aps >= 0
            assert s.associated_clients >= 0

    def test_rejects_bad_backoff(self, us_home):
        with pytest.raises(ValueError):
            wifi_scans(us_home, *SPAN, rng=np.random.default_rng(0),
                       backoff_factor=0)


class TestTrafficMonitor:
    @pytest.fixture(scope="class")
    def monitored(self, us_home, policy):
        """The series, and the flow and DNS columns as records."""
        window = (SPAN[0], SPAN[0] + 3 * DAY)
        series, flows, dns = monitor_traffic(
            us_home, *window, rng=np.random.default_rng(0), policy=policy)
        rid = us_home.router_id
        return (series, list(ColumnarRecords("flows", rid, flows)),
                list(ColumnarRecords("dns", rid, dns)))

    def test_series_length(self, monitored):
        series, _, _ = monitored
        assert len(series) == 3 * DAY // 60

    def test_downlink_capped_at_line_rate(self, monitored, us_home):
        series, _, _ = monitored
        assert series.down_bps.max() <= us_home.link.downstream_bps + 1e-6

    def test_flows_anonymized(self, monitored, us_home, policy):
        _, flows, _ = monitored
        assert flows
        real_macs = {str(d.mac) for d in us_home.devices}
        whitelist = policy.whitelist
        for flow in flows:
            assert flow.device_mac not in real_macs
            assert flow.domain in whitelist or flow.domain == OBFUSCATED_DOMAIN
            assert (flow.remote_ip >> 28) == 0xF  # pseudonym block

    def test_dns_sampled_from_flows(self, monitored):
        _, flows, dns = monitored
        assert 0 < len(dns) < len(flows)
        flow_domains = {f.domain for f in flows}
        for record in dns:
            assert record.domain in flow_domains
            if record.record_type == "A":
                assert record.address is not None
            else:
                assert record.address is None


class TestBismarkRouter:
    def test_consent_tiers(self, us_home, policy):
        windows = StudyWindows(
            heartbeats=SPAN, uptime=SPAN, capacity=SPAN, devices=SPAN,
            wifi=(SPAN[0], SPAN[0] + 2 * DAY),
            traffic=(SPAN[0], SPAN[0] + 2 * DAY))
        seeds = SeedHierarchy(1)
        without = BismarkRouter(us_home, seeds, policy,
                                collect_traffic=False).run(windows)
        assert without.flows == [] and without.throughput is None
        with_traffic = BismarkRouter(us_home, seeds, policy,
                                     collect_traffic=True).run(windows)
        assert with_traffic.flows and with_traffic.throughput is not None
        # Non-traffic collectors are unaffected by the consent tier.
        assert len(without.heartbeat_sends) == len(with_traffic.heartbeat_sends)

    def test_disabled_collectors_stay_empty(self, us_home, policy):
        windows = StudyWindows(
            heartbeats=SPAN, uptime=SPAN, capacity=SPAN, devices=SPAN,
            wifi=(SPAN[0], SPAN[0] + 2 * DAY),
            traffic=(SPAN[0], SPAN[0] + 2 * DAY))
        output = BismarkRouter(us_home, SeedHierarchy(1), policy,
                               collect_uptime=False, collect_devices=False,
                               collect_wifi=False).run(windows)
        assert output.uptime == []
        assert output.device_counts == [] and output.roster == []
        assert output.wifi_scans == []
        assert len(output.heartbeat_sends) > 0  # heartbeats are unconditional
