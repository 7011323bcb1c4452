"""Tests for the collection path, record store, and CSV/JSON export."""

import numpy as np
import pytest

from repro.core.datasets import HeartbeatLog, ThroughputSeries
from repro.core.records import (
    CapacityMeasurement,
    DeviceCountSample,
    DeviceRosterEntry,
    DnsRecord,
    FlowRecord,
    Medium,
    RouterInfo,
    Spectrum,
    UptimeReport,
    WifiScanSample,
)
from repro.simulation.timebase import DAY, StudyWindows, utc
from repro.collection.backends import MemoryBackend, SpillBackend
from repro.collection.export import export_study, load_study
from repro.collection.path import CollectionPath, PathConfig
from repro.collection.storage import RecordStore

SPAN = (utc(2013, 3, 1), utc(2013, 3, 15))


def make_info(rid="US001"):
    return RouterInfo(rid, "US", True, -5.0, 49800)


class TestCollectionPath:
    def test_zero_loss_passes_everything(self):
        path = CollectionPath(np.random.default_rng(0), SPAN,
                              PathConfig(packet_loss=0.0,
                                         outage_rate_per_day=0.0))
        sends = np.linspace(SPAN[0], SPAN[1] - 1, 1000)
        assert len(path.deliver(sends)) == 1000

    def test_packet_loss_rate(self):
        path = CollectionPath(np.random.default_rng(0), SPAN,
                              PathConfig(packet_loss=0.1,
                                         outage_rate_per_day=0.0))
        sends = np.linspace(SPAN[0], SPAN[1] - 1, 20000)
        delivered = path.deliver(sends)
        assert abs(1 - len(delivered) / 20000 - 0.1) < 0.01

    def test_outages_drop_in_blocks(self):
        path = CollectionPath(np.random.default_rng(3), SPAN,
                              PathConfig(packet_loss=0.0,
                                         outage_rate_per_day=2.0,
                                         outage_median_seconds=7200))
        assert len(path.outages) > 0
        sends = np.linspace(SPAN[0], SPAN[1] - 1, 20000)
        delivered = path.deliver(sends)
        inside = path.outages.contains_many(delivered)
        assert not inside.any()

    def test_outages_shared_across_routers(self):
        path = CollectionPath(np.random.default_rng(3), SPAN,
                              PathConfig(packet_loss=0.0,
                                         outage_rate_per_day=2.0))
        a = path.deliver(np.linspace(SPAN[0], SPAN[1] - 1, 5000))
        b = path.deliver(np.linspace(SPAN[0], SPAN[1] - 1, 5000))
        # Identical send schedules see identical outage holes.
        assert np.array_equal(a, b)

    def test_empty_input(self):
        path = CollectionPath(np.random.default_rng(0), SPAN)
        assert path.deliver(np.empty(0)).size == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PathConfig(packet_loss=1.0)
        with pytest.raises(ValueError):
            PathConfig(outage_rate_per_day=-1)


class TestRecordStore:
    make_backend = MemoryBackend

    def make_store(self):
        store = RecordStore(StudyWindows(), self.make_backend())
        store.register_router(make_info())
        return store

    def test_requires_registration(self):
        store = RecordStore(StudyWindows(), self.make_backend())
        with pytest.raises(KeyError):
            store.add_keyed("heartbeats",
                            HeartbeatLog("ghost", np.array([1.0])))
        with pytest.raises(KeyError):
            store.add_records("uptime", [UptimeReport("ghost", 10.0, 5.0)])

    def test_conflicting_registration_rejected(self):
        store = self.make_store()
        with pytest.raises(ValueError):
            store.register_router(RouterInfo("US001", "GB", True, 0.0, 36000))

    def test_reregistration_identical_ok(self):
        store = self.make_store()
        store.register_router(make_info())  # no raise

    def test_records_sorted_in_output(self):
        store = self.make_store()
        store.register_router(make_info("US000"))
        store.add_records("uptime", [UptimeReport("US001", 20.0, 5.0),
                                     UptimeReport("US000", 10.0, 5.0)])
        data = store.to_study_data()
        assert [r.router_id for r in data.uptime_reports] == ["US000", "US001"]

    def test_heartbeats_conflicting_reupload_rejected(self):
        store = self.make_store()
        store.add_keyed("heartbeats", HeartbeatLog("US001", np.array([1.0])))
        with pytest.raises(ValueError):
            store.add_keyed("heartbeats",
                            HeartbeatLog("US001", np.array([1.0, 2.0])))
        assert len(store.to_study_data().heartbeats["US001"]) == 1

    def test_heartbeats_identical_reupload_is_noop(self):
        store = self.make_store()
        store.add_keyed("heartbeats",
                        HeartbeatLog("US001", np.array([1.0, 2.0])))
        store.add_keyed("heartbeats",
                        HeartbeatLog("US001", np.array([1.0, 2.0])))
        assert len(store.to_study_data().heartbeats["US001"]) == 2

    def test_throughput_conflicting_reupload_rejected(self):
        store = self.make_store()
        store.add_keyed("throughput", ThroughputSeries(
            "US001", 0.0, np.array([1.0]), np.array([2.0])))
        with pytest.raises(ValueError):
            store.add_keyed("throughput", ThroughputSeries(
                "US001", 0.0, np.array([9.0]), np.array([2.0])))
        assert store.add_keyed("throughput", ThroughputSeries(  # a retry
            "US001", 0.0, np.array([1.0]), np.array([2.0]))) is False

    def test_heartbeat_delivery_tally_accumulates(self):
        store = self.make_store()
        store.record_heartbeat_delivery("US001", 10, 9)
        store.record_heartbeat_delivery("US001", 5, 5)
        assert store.heartbeat_delivery["US001"] == (15, 14)
        assert store.to_study_data().heartbeat_delivery == {"US001": (15, 14)}
        with pytest.raises(ValueError):
            store.record_heartbeat_delivery("US001", 1, 2)

    def test_rejection_is_counted(self):
        from repro.telemetry import metrics

        store = self.make_store()
        store.add_keyed("heartbeats", HeartbeatLog("US001", np.array([1.0])))
        registry = metrics.enable()
        registry.clear()
        try:
            with pytest.raises(ValueError):
                store.add_keyed("heartbeats", HeartbeatLog(
                    "US001", np.array([1.0, 2.0])))
            key = ("ingest_rejections_total", (("dataset", "heartbeats"),))
            assert registry.counters[key] == 1
        finally:
            metrics.disable()


class TestSpillRecordStore(TestRecordStore):
    """The store contract over a spill backend, which reads a router's
    stored value back off disk to compare a second one with it."""

    @pytest.fixture(autouse=True)
    def spill_dir(self, tmp_path):
        self.tmp_path = tmp_path

    def make_backend(self):
        return SpillBackend(self.tmp_path)

    def test_restored_store_keeps_uploads(self, tmp_path):
        backend = SpillBackend(tmp_path)
        store = RecordStore(StudyWindows(), backend)
        store.register_router(make_info())
        series = ThroughputSeries("US001", 0.0, np.array([1.0, 2.0]),
                                  np.array([3.0, 4.0]), 60)
        store.add_keyed("heartbeats", HeartbeatLog("US001", np.array([1.0])))
        store.add_keyed("throughput", series)
        clone = SpillBackend(tmp_path)
        clone.restore_state(backend.state_dict())
        restored = RecordStore(StudyWindows(), clone)
        restored.restore_state(store.state_dict())
        assert restored.has_upload("US001")
        assert restored.add_keyed("throughput", series) is False
        with pytest.raises(ValueError):
            restored.add_keyed("throughput", ThroughputSeries(
                "US001", 0.0, np.array([1.0, 2.5]), np.array([3.0, 4.0]),
                60))
        back = restored.to_study_data().throughput["US001"]
        assert type(back.interval_seconds) is int


class TestServerLossAccounting:
    def _server(self, loss):
        from repro.collection.path import CollectionPath
        from repro.collection.server import CollectionServer

        store = RecordStore(StudyWindows())
        store.register_router(make_info())
        path = CollectionPath(np.random.default_rng(7), SPAN,
                              PathConfig(packet_loss=loss,
                                         outage_rate_per_day=0.0))
        return CollectionServer(store, path)

    @staticmethod
    def _heartbeats_upload(sends):
        from repro.collection.batches import RecordBatch, RouterUpload

        return RouterUpload(make_info(),
                            (RecordBatch("heartbeats", "US001", sends),))

    def test_sent_vs_delivered_tally(self):
        server = self._server(loss=0.2)
        sends = np.linspace(SPAN[0], SPAN[1] - 1, 5000)
        server.ingest(self._heartbeats_upload(sends))
        sent, delivered = server.store.heartbeat_delivery["US001"]
        assert sent == 5000
        assert delivered == len(server.store.to_study_data()
                                .heartbeats["US001"])
        assert 0 < delivered < sent

    def test_duplicate_upload_does_not_double_count(self):
        server = self._server(loss=0.0)
        sends = np.linspace(SPAN[0], SPAN[1] - 1, 100)
        assert server.ingest(self._heartbeats_upload(sends)) is True
        assert server.ingest(self._heartbeats_upload(sends)) is False
        assert server.store.heartbeat_delivery["US001"] == (100, 100)


class TestExportRoundTrip:
    @pytest.fixture()
    def study(self):
        store = RecordStore(StudyWindows())
        store.register_router(make_info())
        t0 = SPAN[0]
        store.add_keyed("heartbeats", HeartbeatLog(
            "US001", np.array([t0, t0 + 60, t0 + 120])))
        store.add_records("uptime", [UptimeReport("US001", t0 + 100, 99.5)])
        store.add_records("capacity",
                          [CapacityMeasurement("US001", t0, 20.5, 2.25)])
        store.add_records("device_counts",
                          [DeviceCountSample("US001", t0, 2, 3, 1)])
        store.add_records("roster", [
            DeviceRosterEntry("US001", "3c:07:54:aa:bb:cc", Medium.WIRELESS,
                              Spectrum.GHZ_2_4, t0, t0 + DAY, False),
            DeviceRosterEntry("US001", "b0:a7:37:aa:bb:cc", Medium.WIRED,
                              None, t0, t0 + DAY, True),
        ])
        store.add_records("wifi_scans", [
            WifiScanSample("US001", t0, Spectrum.GHZ_5, 1, 2)])
        store.add_records("flows", [
            FlowRecord("US001", t0 + 5, "3c:07:54:aa:bb:cc", "google.com",
                       0xF0000001, 443, "https", 100.0, 5000.0, 12.5)])
        store.add_keyed("throughput", ThroughputSeries(
            "US001", t0, np.array([100.0, 200.0]), np.array([1e6, 2e6])))
        store.add_records("dns", [
            DnsRecord("US001", t0 + 4, "3c:07:54:aa:bb:cc",
                      "google.com", "A", 0xF0000001),
            DnsRecord("US001", t0 + 6, "3c:07:54:aa:bb:cc",
                      "google.com", "CNAME", None)])
        store.record_heartbeat_delivery("US001", 4, 3)
        return store.to_study_data()

    def test_full_round_trip(self, study, tmp_path):
        export_study(study, tmp_path / "archive")
        loaded = load_study(tmp_path / "archive")
        assert loaded.routers == study.routers
        assert np.allclose(loaded.heartbeats["US001"].timestamps,
                           study.heartbeats["US001"].timestamps, atol=1e-3)
        assert loaded.uptime_reports[0].uptime_seconds == pytest.approx(99.5)
        assert loaded.capacity[0].downstream_mbps == pytest.approx(20.5)
        assert loaded.device_counts == study.device_counts
        assert loaded.roster == study.roster
        assert loaded.wifi_scans == study.wifi_scans
        assert loaded.flows[0].domain == "google.com"
        assert loaded.flows[0].bytes_down == pytest.approx(5000.0)
        assert np.allclose(loaded.throughput["US001"].down_bps,
                           study.throughput["US001"].down_bps)
        assert loaded.dns[0].address == 0xF0000001
        assert loaded.dns[1].address is None
        assert loaded.windows.heartbeats == study.windows.heartbeats
        assert loaded.heartbeat_delivery == {"US001": (4, 3)}

    def test_public_release_withholds_traffic(self, study, tmp_path):
        root = export_study(study, tmp_path / "public",
                            include_pii_datasets=False)
        assert not (root / "flows.csv").exists()
        assert not (root / "dns.csv").exists()
        loaded = load_study(root)
        assert loaded.flows == []
        assert loaded.throughput == {}
        # Non-PII data sets survive.
        assert loaded.roster == study.roster
        assert len(loaded.heartbeats["US001"]) == 3
