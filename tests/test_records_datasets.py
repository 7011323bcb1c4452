"""Tests for record validation and the dataset containers."""

import numpy as np
import pytest

from repro.collection.batches import ColumnarRecords
from repro.core.datasets import (
    HeartbeatLog,
    StudyData,
    ThroughputSeries,
    summarize_datasets,
)
from repro.core.records import (
    RECORD_DATASETS,
    CapacityMeasurement,
    DeviceCountSample,
    DeviceRosterEntry,
    DnsRecord,
    FlowRecord,
    Medium,
    RouterInfo,
    RowCodec,
    Spectrum,
    ThroughputSample,
    UptimeReport,
)
from repro.simulation.timebase import StudyWindows, utc

T0 = utc(2013, 4, 1)


class TestRecordValidation:
    def test_router_info(self):
        with pytest.raises(ValueError):
            RouterInfo("", "US", True, 0.0, 49800)
        with pytest.raises(ValueError):
            RouterInfo("r", "US", True, 0.0, -1)

    def test_uptime_report(self):
        with pytest.raises(ValueError):
            UptimeReport("r", T0, -1.0)
        assert UptimeReport("r", T0, 100.0).boot_time == T0 - 100.0

    def test_capacity(self):
        with pytest.raises(ValueError):
            CapacityMeasurement("r", T0, -1.0, 1.0)

    def test_device_counts(self):
        with pytest.raises(ValueError):
            DeviceCountSample("r", T0, -1, 0, 0)
        sample = DeviceCountSample("r", T0, 1, 2, 3)
        assert sample.wireless == 5
        assert sample.total == 6

    @pytest.mark.parametrize("timestamp", [1e300, -1.0])
    def test_timestamp_outside_its_range_refused(self, timestamp):
        """Every record time lies in ``TIMESTAMP``, so a day count of it
        fits the calendars' int64 arithmetic."""
        with pytest.raises(ValueError, match="timestamp"):
            DeviceCountSample("r", timestamp, 1, 1, 0)
        for column in ([T0, timestamp], np.array([T0, timestamp])):
            with pytest.raises(ValueError, match="timestamp"):
                ColumnarRecords("device_counts", "r", {
                    "timestamp": column, "wired": [1, 1],
                    "wireless_2_4": [1, 1], "wireless_5": [0, 0]})
        with pytest.raises(ValueError, match="first_seen"):
            DeviceRosterEntry("r", "00:11:22:33:44:55", Medium.WIRED, None,
                              timestamp, T0, False)

    def test_roster_entry(self):
        with pytest.raises(ValueError):
            DeviceRosterEntry("r", "m", Medium.WIRELESS, Spectrum.GHZ_2_4,
                              T0, T0 - 1, False)
        with pytest.raises(ValueError):
            DeviceRosterEntry("r", "m", Medium.WIRED, Spectrum.GHZ_2_4,
                              T0, T0, False)

    def test_flow_record(self):
        with pytest.raises(ValueError):
            FlowRecord("r", T0, "m", "d", 1, 80, "http", -1.0, 0.0, 1.0)
        flow = FlowRecord("r", T0, "m", "d", 1, 80, "http", 2.0, 3.0, 1.0)
        assert flow.bytes_total == 5.0

    def test_throughput_sample(self):
        with pytest.raises(ValueError):
            ThroughputSample("r", T0, -1.0, 0.0)

    def test_dns_record(self):
        with pytest.raises(ValueError):
            DnsRecord("r", T0, "m", "d", "TXT")


def _roster(**cells):
    """Two roster rows as typed columns; *cells* replace row 1's."""
    rows = [["3c:07:54:aa:bb:cc", 2, 2, T0, T0 + 1.0, False],
            [" B0-A7-37-AA-BB-CC\n", 1, 0, T0, T0, True]]
    names = ["device_mac", "medium", "spectrum", "first_seen", "last_seen",
             "always_connected"]
    rows[1] = [cells.get(name, cell) for name, cell in zip(names, rows[1])]
    codec = RECORD_DATASETS["roster"].codec
    return {name: column if name == "device_mac"
            else codec.array(name, column)
            for name, column in zip(names, map(list, zip(*rows)))}


def _dns(record_type="CNAME"):
    return {"timestamp": [T0, T0 + 1.0], "device_mac": ["3c:07:54:aa:bb:cc"] * 2,
            "domain": ["a.com"] * 2, "record_type": ["A", record_type],
            "address": [7, 0], "address_null": [False, True]}


class TestRelationsOnColumns:
    """A batch's column check runs the rules between fields on its
    columns, with the refusal a record of the breaking row gets."""

    def test_column_check_builds_no_record(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the column check built records")

        monkeypatch.setattr(RowCodec, "from_columns", refuse)
        assert len(ColumnarRecords("roster", "r", _roster())) == 2
        assert len(ColumnarRecords("dns", "r", _dns())) == 2

    @pytest.mark.parametrize("dataset, columns, record", [
        ("roster", _roster(first_seen=T0 + 5.0),
         lambda: DeviceRosterEntry("r", "b0:a7:37:aa:bb:cc", Medium.WIRED,
                                   None, T0 + 5.0, T0, True)),
        ("roster", _roster(spectrum=1),
         lambda: DeviceRosterEntry("r", "b0:a7:37:aa:bb:cc", Medium.WIRED,
                                   Spectrum.GHZ_2_4, T0, T0, True)),
        ("roster", _roster(device_mac="b0:a7:37:aa:bb"),
         lambda: DeviceRosterEntry("r", "b0:a7:37:aa:bb", Medium.WIRED,
                                   None, T0, T0, True)),
        ("roster", _roster(device_mac="b0:a7-37:aa:bb:cc"),
         lambda: DeviceRosterEntry("r", "b0:a7-37:aa:bb:cc", Medium.WIRED,
                                   None, T0, T0, True)),
        ("dns", _dns("TXT"),
         lambda: DnsRecord("r", T0 + 1.0, "3c:07:54:aa:bb:cc", "a.com",
                           "TXT")),
    ], ids=["first-seen-after-last-seen", "wired-with-spectrum",
            "short-mac", "mixed-separators", "txt-record-type"])
    def test_refusal_is_the_records(self, dataset, columns, record):
        with pytest.raises(ValueError) as refused:
            record()
        with pytest.raises(ValueError) as batch_refused:
            ColumnarRecords(dataset, "r", columns)
        assert str(batch_refused.value) == str(refused.value)


class TestHeartbeatLog:
    def test_sorts_unsorted_input(self):
        log = HeartbeatLog("r", np.array([3.0, 1.0, 2.0]))
        assert list(log.timestamps) == [1.0, 2.0, 3.0]

    def test_clipped(self):
        log = HeartbeatLog("r", np.arange(10.0))
        clipped = log.clipped(2.0, 5.0)
        assert list(clipped.timestamps) == [2.0, 3.0, 4.0]

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            HeartbeatLog("r", np.zeros((2, 2)))

    def test_len(self):
        assert len(HeartbeatLog("r", np.arange(5.0))) == 5


class TestThroughputSeries:
    def make(self):
        return ThroughputSeries("r", T0, np.array([1.0, 0.0, 3.0]),
                                np.array([2.0, 0.0, 4.0]))

    def test_timestamps(self):
        series = self.make()
        assert list(series.timestamps) == [T0, T0 + 60, T0 + 120]

    def test_samples_materialize(self):
        samples = list(self.make().samples())
        assert len(samples) == 3
        assert samples[2].up_bps == 3.0

    def test_active_mask(self):
        assert list(self.make().active_mask()) == [True, False, True]

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ThroughputSeries("r", T0, np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            ThroughputSeries("r", T0, np.array([1.0]), np.array([1.0]),
                             interval_seconds=0)


class TestStudyDataHelpers:
    def make_data(self):
        routers = {
            "US1": RouterInfo("US1", "US", True, -5, 49800),
            "IN1": RouterInfo("IN1", "IN", False, 5.5, 3700),
        }
        flows = [FlowRecord("US1", T0, "m", "google.com", 1, 443, "https",
                            0.0, 2e8, 1.0),
                 FlowRecord("IN1", T0, "m", "google.com", 1, 443, "https",
                            0.0, 1e6, 1.0)]
        return StudyData(routers=routers, windows=StudyWindows(), flows=flows)

    def test_group_ids(self):
        data = self.make_data()
        assert data.developed_ids() == ["US1"]
        assert data.developing_ids() == ["IN1"]
        assert data.router_ids() == ["IN1", "US1"]

    def test_countries_of(self):
        data = self.make_data()
        assert data.countries_of(["US1", "IN1", "ghost"]) == ["IN", "US"]

    def test_traffic_bytes(self):
        data = self.make_data()
        totals = data.traffic_bytes_by_router()
        assert totals["US1"] == pytest.approx(2e8)

    def test_qualifying_filter(self):
        data = self.make_data()
        assert data.qualifying_traffic_routers() == ["US1"]
        assert data.qualifying_traffic_routers(min_bytes=1.0) == \
            ["IN1", "US1"]


class TestTable2Summary:
    def test_summary_on_small_study(self, small_data):
        rows = {row.name: row for row in summarize_datasets(small_data)}
        assert set(rows) == {"Heartbeats", "Capacity", "Uptime", "Devices",
                             "WiFi", "Traffic"}
        total = len(small_data.routers)
        assert rows["Heartbeats"].routers == total
        assert rows["Uptime"].routers <= total
        assert rows["WiFi"].routers < total
        assert rows["Traffic"].countries <= 1  # US only
        assert rows["Heartbeats"].kind == "active"
        assert rows["Traffic"].kind == "passive"
        # Windows pass through from the configuration.
        assert rows["Heartbeats"].window == small_data.windows.heartbeats
