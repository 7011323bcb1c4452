"""Columnar collection equivalence: collect_shard == BismarkRouter per home.

The shard-wide columnar collectors (``repro.firmware.shard_collect``) must
be a pure re-expression of the per-home reference path: same streams, same
draw order, identical records, identical batch chunking.  These tests
compare every upload of every shard split of three small plans (one per
seed) against uploads built from the per-home reference collectors
(``BismarkRouter`` output as columns through ``build_upload``), plus the
columnar batch container, the tick-walk schedule helper, and the wifi
backoff determinism contract.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.collection.batches import ColumnarRecords, build_upload
from repro.collection.engine import _shard_statics
from repro.collection.storage import RecordStore
from repro.core.records import (LIST_DATASETS, RECORD_DATASETS,
                                DeviceRosterEntry, DnsRecord, FlowRecord,
                                Medium, RouterInfo, Spectrum, UptimeReport)
from repro.core.pipeline import StudyConfig, run_study
from repro.firmware.router import BismarkRouter
from repro.firmware.shard_collect import _tick_walk, collect_shard
from repro.firmware.wifi import SCAN_INTERVAL
from repro.simulation.deployment import (
    DeploymentConfig,
    build_deployment_plan,
    materialize_shard,
)
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import StudyWindows

from tests.columns import columns


#: ``(seed, router_scale)`` per plan: 21 homes at seed 2013, and 34 homes
#: with two appliance-mode homes at each of seeds 1 and 5.
PLAN_SEEDS = ((2013, 0.05), (1, 0.2), (5, 0.2))


@pytest.fixture(scope="module")
def plans():
    return [build_deployment_plan(DeploymentConfig(
        seed=seed, router_scale=scale,
        windows=StudyWindows().scaled(0.05),
        traffic_consents=2, low_activity_consents=1))
        for seed, scale in PLAN_SEEDS]


def _reference(plan):
    """The upload of each router of *plan* from the per-home reference
    collectors, every device timeline the home's full-span replay."""
    _, policy = _shard_statics()
    seeds = SeedHierarchy(plan.seed)
    uploads = {}
    for home in materialize_shard(plan, 0, 1):
        rid = home.router_id
        home.devices  # so traffic reads the replay, not the solved runs
        router = BismarkRouter(
            home, seeds, policy,
            collect_uptime=rid in plan.uptime_routers,
            collect_devices=rid in plan.devices_routers,
            collect_wifi=rid in plan.wifi_routers,
            collect_traffic=rid in plan.traffic_routers)
        output = router.run(plan.windows)
        uploads[rid] = build_upload(
            home.info, output.heartbeat_sends,
            {dataset: columns(dataset, getattr(output, dataset))
             for dataset in LIST_DATASETS}, output.throughput)
    return uploads


@pytest.fixture(scope="module")
def reference_uploads(plans):
    """Per plan, the upload of each router from the per-home reference
    collectors."""
    return [_reference(plan) for plan in plans]


def assert_same_upload(got, ref):
    """Equal send bytes, throughput series and list batches."""
    assert got.info == ref.info
    assert got.heartbeat_sends.dtype == ref.heartbeat_sends.dtype
    assert got.heartbeat_sends.tobytes() == ref.heartbeat_sends.tobytes()
    if ref.throughput is None:
        assert got.throughput is None
    else:
        got_series, ref_series = got.throughput, ref.throughput
        assert got_series.router_id == ref_series.router_id
        assert got_series.start == ref_series.start
        assert got_series.interval_seconds == ref_series.interval_seconds
        assert got_series.up_bps.tobytes() == ref_series.up_bps.tobytes()
        assert got_series.down_bps.tobytes() == ref_series.down_bps.tobytes()
    assert [b.dataset for b in got.batches] == \
        [b.dataset for b in ref.batches]
    for got_batch, ref_batch in zip(got.batches, ref.batches):
        dataset = got_batch.dataset
        assert len(got_batch) == len(ref_batch), dataset
        assert list(got_batch) == list(ref_batch), dataset


def test_reference_covers_every_collector(plans, reference_uploads):
    """Guard against a vacuous equivalence test: at every seed, every
    dataset occurs."""
    for plan, reference in zip(plans, reference_uploads):
        seen = {batch.dataset
                for upload in reference.values()
                for batch in upload.batches}
        assert seen == set(LIST_DATASETS), plan.seed
        assert any(upload.throughput is not None
                   for upload in reference.values()), plan.seed
        assert any(len(upload.heartbeat_sends)
                   for upload in reference.values()), plan.seed


@pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 7])
def test_every_shard_split_matches_reference(plans, reference_uploads,
                                             n_shards):
    """Columnar uploads are record-identical for every shard split."""
    universe, policy = _shard_statics()
    for plan, reference in zip(plans, reference_uploads):
        seeds = SeedHierarchy(plan.seed)
        covered = 0
        for shard_index in range(n_shards):
            cohort = materialize_shard(plan, shard_index, n_shards,
                                       domain_universe=universe)
            uploads = collect_shard(cohort, plan, seeds, policy)
            lo, hi = plan.shard_bounds(shard_index, n_shards)
            assert [u.router_id for u in uploads] == plan.router_ids[lo:hi]
            for upload in uploads:
                assert_same_upload(upload, reference[upload.router_id])
            covered += len(uploads)
        assert covered == len(plan)


def test_full_windows_match_reference():
    """At the paper's full windows the devices and traffic windows share
    one solved range, and the columnar uploads still match."""
    plan = build_deployment_plan(DeploymentConfig(
        seed=2013, router_scale=0.05, windows=StudyWindows(),
        traffic_consents=2, low_activity_consents=1))
    windows = plan.windows
    universe, policy = _shard_statics()
    seeds = SeedHierarchy(plan.seed)
    reference = _reference(plan)
    assert plan.traffic_routers
    for n_shards in (1, 3):
        for shard_index in range(n_shards):
            cohort = materialize_shard(plan, shard_index, n_shards,
                                       domain_universe=universe)
            assert len(cohort.solved) == 2
            assert cohort.solves(windows.devices[0], windows.traffic[1])
            for upload in collect_shard(cohort, plan, seeds, policy):
                assert_same_upload(upload, reference[upload.router_id])


def test_window_outside_solved_hours_refused(plans):
    """A cohort's association runs are cut at the hours it solved, so a
    device or WiFi window outside them is refused."""
    plan = plans[0]
    universe, policy = _shard_statics()
    cohort = materialize_shard(plan, 0, 1, domain_universe=universe)
    day = 24 * 3600.0
    for name in ("devices", "wifi"):
        start, end = getattr(plan.windows, name)
        moved = dataclasses.replace(plan, windows=dataclasses.replace(
            plan.windows, **{name: (start + day, end + day)}))
        with pytest.raises(ValueError, match=name):
            collect_shard(cohort, moved, SeedHierarchy(plan.seed), policy)


def test_traffic_reads_solved_runs(plans):
    """A view's traffic over a solved window comes from the cohort's
    runs, and equals its traffic from the full-span replay."""
    for plan in plans:
        start, end = plan.windows.traffic
        solved = materialize_shard(plan, 0, 1)
        replayed = materialize_shard(plan, 0, 1)
        for rid in sorted(plan.traffic_routers):
            index = plan.router_ids.index(rid)
            fast, full = solved.household(index), replayed.household(index)
            full.devices
            got, want = fast.traffic(start, end), full.traffic(start, end)
            assert fast._devices is None  # no replay on the fast path
            assert got.flows == want.flows
            assert got.minute_up_bytes.tobytes() == \
                want.minute_up_bytes.tobytes()
            assert got.minute_down_bytes.tobytes() == \
                want.minute_down_bytes.tobytes()


def test_uploads_pickle_roundtrip(plans, reference_uploads):
    """Uploads cross the process boundary columnar and come back equal."""
    universe, policy = _shard_statics()
    for plan, reference in zip(plans, reference_uploads):
        cohort = materialize_shard(plan, 0, 3, domain_universe=universe)
        uploads = collect_shard(cohort, plan, SeedHierarchy(plan.seed),
                                policy)
        restored = pickle.loads(pickle.dumps(uploads))
        for upload in restored:
            assert_same_upload(upload, reference[upload.router_id])


class TestTickWalk:
    """The checked-arange schedule equals the scalar accumulation walk."""

    @staticmethod
    def scalar_walk(first, end, interval):
        ticks = []
        tick = first
        while tick < end:
            ticks.append(tick)
            tick += interval
        return ticks

    def test_matches_accumulation_across_random_phases(self):
        rng = np.random.default_rng(7)
        start = 1349049600.0  # the study epoch range
        for _ in range(300):
            interval = float(rng.choice([60.0, 600.0, 3600.0, 43200.0]))
            first = start + float(rng.uniform(0, interval))
            end = first + float(rng.uniform(0, 400)) * interval \
                + float(rng.uniform(-interval, interval))
            assert _tick_walk(first, end, interval).tolist() == \
                self.scalar_walk(first, end, interval)

    def test_irrational_interval_still_exact(self):
        # Intervals with repeating binary fractions accumulate rounding,
        # forcing the scalar fallback — the result must still be exact.
        for interval in (0.1, 1.0 / 3.0, 7.3):
            first, end = 5.05, 5.05 + 1000 * interval
            assert _tick_walk(first, end, interval).tolist() == \
                self.scalar_walk(first, end, interval)

    def test_empty_and_single_tick_windows(self):
        assert _tick_walk(10.0, 10.0, 5.0).size == 0
        assert _tick_walk(12.0, 10.0, 5.0).size == 0
        assert _tick_walk(9.9, 10.0, 5.0).tolist() == [9.9]


def test_batches_ship_typed_columns(plans):
    """A collected batch holds each number, flag and code column as a
    1-D array, an int column in the narrowest unsigned type holding its
    largest value, and each text column as a list of ``str``."""
    universe, policy = _shard_statics()
    seen = set()
    for plan in plans:
        cohort = materialize_shard(plan, 0, 1, domain_universe=universe)
        for upload in collect_shard(cohort, plan, SeedHierarchy(plan.seed),
                                    policy):
            for batch in upload.batches:
                seen.add(batch.dataset)
                text = RECORD_DATASETS[batch.dataset].codec.text
                for name, column in batch.columns.items():
                    where = (batch.dataset, name)
                    if name in text:
                        assert type(column) is list, where
                        assert {type(cell) for cell in column} == {str}, where
                        continue
                    assert type(column) is np.ndarray, where
                    assert column.ndim == 1, where
                    if column.dtype.kind in "iu":
                        assert column.dtype == \
                            np.min_scalar_type(column.max()), where
    assert seen == set(LIST_DATASETS)


class _Name(str):
    """A str subclass: a frame decodes no such cell."""


class TestColumnarRecords:
    COLS = {"timestamp": [1.0, 2.0, 3.0], "uptime_seconds": [5.0, 0.0, 9.5]}

    @staticmethod
    def _assert_mac_cell_refused(cell):
        """A record and a flows batch both refuse *cell* as a MAC."""
        with pytest.raises(ValueError, match="device_mac"):
            FlowRecord("r", 1.0, cell, "a.com", 1, 443, "https", 1.0, 2.0,
                       3.0)
        with pytest.raises(ValueError, match="device_mac"):
            ColumnarRecords("flows", "r", {
                "timestamp": [1.0], "device_mac": [cell],
                "domain": ["a.com"], "remote_ip": [1], "port": [443],
                "application": ["https"], "bytes_up": [1.0],
                "bytes_down": [2.0], "duration_seconds": [3.0]})

    def test_str_subclass_cell_refused(self):
        self._assert_mac_cell_refused(_Name("3c:07:54:aa:bb:cc"))

    def test_numpy_str_cell_refused(self):
        self._assert_mac_cell_refused(np.str_("3c:07:54:aa:bb:cc"))

    def make(self):
        return ColumnarRecords("uptime", "us-001",
                               {k: list(v) for k, v in self.COLS.items()})

    def test_len_is_free_and_iteration_fabricates(self):
        records = self.make()
        assert len(records) == 3
        assert records._cache is None  # len() must not materialize
        materialized = list(records)
        assert [r.timestamp for r in materialized] == [1.0, 2.0, 3.0]
        assert [r.uptime_seconds for r in materialized] == [5.0, 0.0, 9.5]
        assert all(r.router_id == "us-001" for r in materialized)
        # Fabrication is cached: same objects on the second pass.
        assert records[0] is materialized[0]

    def test_fabricated_records_equal_real_ones(self):
        from repro.core.records import UptimeReport
        fabricated = list(self.make())
        real = [UptimeReport("us-001", ts, up)
                for ts, up in zip(self.COLS["timestamp"],
                                  self.COLS["uptime_seconds"])]
        assert fabricated == real

    def test_pickle_ships_columns_not_cache(self):
        records = self.make()
        list(records)  # populate the cache
        restored = pickle.loads(pickle.dumps(records))
        assert restored._cache is None
        assert list(restored) == list(records)

    def test_bulk_validation_mirrors_post_init(self):
        with pytest.raises(ValueError):
            ColumnarRecords("uptime", "r",
                            {"timestamp": [1.0], "uptime_seconds": [-1.0]})
        with pytest.raises(ValueError):
            ColumnarRecords("capacity", "r",
                            {"timestamp": [1.0], "downstream_mbps": [-0.1],
                             "upstream_mbps": [1.0]})
        with pytest.raises(ValueError):
            ColumnarRecords("device_counts", "r",
                            {"timestamp": [1.0], "wired": [-1],
                             "wireless_2_4": [0], "wireless_5": [0]})
        with pytest.raises(ValueError):
            ColumnarRecords("wifi_scans", "r",
                            {"timestamp": [1.0], "spectrum": [3],
                             "neighbor_aps": [0], "associated_clients": [0],
                             "channel": [11]})

    def test_bool_in_number_list_refused(self):
        """numpy would cast these bools to 1; a record refuses them."""
        with pytest.raises(ValueError, match="timestamp"):
            ColumnarRecords("uptime", "r", {"timestamp": [1e9, True],
                                            "uptime_seconds": [5.0, 6.0]})
        with pytest.raises(ValueError, match="wired"):
            ColumnarRecords("device_counts", "r",
                            {"timestamp": [1.0, 2.0], "wired": [True, 2],
                             "wireless_2_4": [0, 0], "wireless_5": [0, 0]})

    def test_relations_checked_at_construction(self):
        with pytest.raises(ValueError, match="first_seen"):
            ColumnarRecords("roster", "r", {
                "device_mac": ["3c:07:54:aa:bb:cc"], "medium": [2],
                "spectrum": [2], "first_seen": [3.0], "last_seen": [2.0],
                "always_connected": [False]})
        with pytest.raises(ValueError, match="TXT"):
            ColumnarRecords("dns", "r", {
                "timestamp": [1.0], "device_mac": ["3c:07:54:aa:bb:cc"],
                "domain": ["a.com"], "record_type": ["TXT"], "address": [0],
                "address_null": [True]})

    def test_text_enum_and_null_columns_build_records(self):
        entries = [DeviceRosterEntry("r", "3c:07:54:aa:bb:cc",
                                     Medium.WIRELESS, Spectrum.GHZ_5, 1.0,
                                     2.0, False),
                   DeviceRosterEntry("r", "b0:a7:37:aa:bb:cc", Medium.WIRED,
                                     None, 1.0, 3.0, True)]
        answers = [DnsRecord("r", 1.0, "3c:07:54:aa:bb:cc", "a.com", "A", 7),
                   DnsRecord("r", 2.0, "3c:07:54:aa:bb:cc", "a.com", "CNAME")]
        assert list(ColumnarRecords("roster", "r", {
            "device_mac": ["3c:07:54:aa:bb:cc", "b0:a7:37:aa:bb:cc"],
            "medium": [2, 1], "spectrum": [2, 0], "first_seen": [1.0, 1.0],
            "last_seen": [2.0, 3.0],
            "always_connected": [False, True]})) == entries
        assert list(ColumnarRecords("dns", "r", {
            "timestamp": [1.0, 2.0], "device_mac": ["3c:07:54:aa:bb:cc"] * 2,
            "domain": ["a.com"] * 2, "record_type": ["A", "CNAME"],
            "address": [7, 0], "address_null": [False, True]})) == answers

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            ColumnarRecords("heartbeats", "r", {})  # not a list data set
        with pytest.raises(ValueError):
            ColumnarRecords("uptime", "r", {"timestamp": [1.0]})
        with pytest.raises(ValueError):
            ColumnarRecords("uptime", "r",
                            {"timestamp": [1.0, 2.0],
                             "uptime_seconds": [1.0]})

    def test_wifi_spectrum_decoding(self):
        records = ColumnarRecords("wifi_scans", "r", {
            "timestamp": [1.0, 2.0], "spectrum": [1, 2],
            "neighbor_aps": [3, 0], "associated_clients": [0, 2],
            "channel": [11, 36]})
        scans = list(records)
        assert scans[0].spectrum is Spectrum.GHZ_2_4
        assert scans[1].spectrum is Spectrum.GHZ_5
        assert [s.channel for s in scans] == [11, 36]


class TestColumnarBatching:
    INFO = RouterInfo(router_id="r", country_code="US", developed=True,
                      tz_offset_hours=-5.0, gdp_ppp_per_capita=51000.0)
    SENDS = np.array([1.0, 2.0])

    def test_chunking_matches_list_batches(self):
        """Columns chunk where the record list's chunks end."""
        n = 5000
        cols = {"timestamp": [float(i) for i in range(n)],
                "uptime_seconds": [1.0] * n}
        records = [UptimeReport("r", float(i), 1.0) for i in range(n)]
        columnar = build_upload(self.INFO, self.SENDS, {"uptime": cols})
        assert [len(b) for b in columnar.batches] == [2048, 2048, 904]
        for lo, batch in zip(range(0, n, 2048), columnar.batches):
            assert isinstance(batch, ColumnarRecords)
            assert list(batch) == records[lo:lo + 2048]

    def test_empty_columns_emit_no_batch(self):
        for lists in ({}, {"uptime": None}, {"roster": {}},
                      {"uptime": {"timestamp": [], "uptime_seconds": []}}):
            assert build_upload(self.INFO, self.SENDS, lists).batches == ()

    def test_batches_follow_dataset_order(self):
        upload = build_upload(self.INFO, self.SENDS, {
            "dns": columns("dns", [DnsRecord("r", 1.0, "3c:07:54:aa:bb:cc",
                                             "a.com", "A")]),
            "uptime": columns("uptime", [UptimeReport("r", 1.0, 2.0)])})
        assert [b.dataset for b in upload.batches] == ["uptime", "dns"]
        assert upload.record_count == 4


class TestStoreRegistration:
    def test_columnar_batch_checks_registration_once(self):
        store = RecordStore(StudyWindows())
        records = ColumnarRecords("uptime", "ghost", {
            "timestamp": [1.0], "uptime_seconds": [2.0]})
        with pytest.raises(KeyError):
            store.add_records(records)
        store.register_router(RouterInfo(
            router_id="ghost", country_code="US", developed=True,
            tz_offset_hours=-5.0, gdp_ppp_per_capita=51000.0))
        store.add_records(records)


class TestWifiBackoffDeterminism:
    """Same seed ⇒ the same skipped-scan schedule, however the work splits."""

    def collect_schedules(self, plan, n_shards):
        universe, policy = _shard_statics()
        seeds = SeedHierarchy(plan.seed)
        per_router = {}
        for shard_index in range(n_shards):
            cohort = materialize_shard(plan, shard_index, n_shards,
                                       domain_universe=universe)
            for upload in collect_shard(cohort, plan, seeds, policy):
                scans = [record
                         for batch in upload.batches
                         if batch.dataset == "wifi_scans"
                         for record in batch]
                per_router[upload.router_id] = [
                    (s.timestamp, s.spectrum) for s in scans]
        return per_router

    def test_identical_across_shard_splits(self, plans):
        for plan in plans:
            first = self.collect_schedules(plan, 1)
            assert first == self.collect_schedules(plan, 3)
            assert first == self.collect_schedules(plan, 7)

    def test_backoff_gaps_are_scan_interval_multiples(self, plans):
        """Executed scans sit on the 10-minute grid; skips leave holes."""
        for plan in plans:
            saw_backoff = False
            for scans in self.collect_schedules(plan, 1).values():
                times = sorted(t for t, spectrum in scans
                               if spectrum is Spectrum.GHZ_2_4)
                gaps = np.diff(times)
                steps = gaps / SCAN_INTERVAL
                assert np.allclose(steps, np.round(steps), atol=1e-6)
                if (np.round(steps) > 1).any():
                    saw_backoff = True
            # client backoff actually skipped scans
            assert saw_backoff, plan.seed

    def test_identical_across_worker_counts(self):
        config = StudyConfig(seed=17, router_scale=0.1, duration_scale=0.02,
                             traffic_consents=2, low_activity_consents=0)
        serial = run_study(config).data
        parallel = run_study(StudyConfig(
            seed=17, router_scale=0.1, duration_scale=0.02,
            traffic_consents=2, low_activity_consents=0,
            workers=2, shard_size=4)).data

        def schedule(data):
            per_router = {}
            for scan in data.wifi_scans:
                per_router.setdefault(scan.router_id, []).append(
                    (scan.timestamp, scan.spectrum))
            return per_router

        assert schedule(serial) == schedule(parallel)
