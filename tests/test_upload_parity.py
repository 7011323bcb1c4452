"""One damaged field, two stores: a memory store and a spill store agree.

A valid upload carries every record-list data set, as plain record lists
and, for the four columnar ones, as ``ColumnarRecords`` too.  One field
of one record, or one cell of one column, is replaced with a hostile
value, and the upload goes through the frame codec into a server over a
memory store and one over a spill store that spills every record.
Either both reject it before anything is applied (``FrameError`` at
decode, ``UploadRejected`` at ingest) and neither holds the router, or
both store it and read back equal records and equal ``study_digest``s.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import study_digest
from repro.collection.backends import SpillBackend
from repro.collection.batches import (
    FRAME_HEADER,
    ColumnarRecords,
    FrameError,
    RecordBatch,
    decode_payload,
    encode_frame,
)
from repro.collection.loadgen import LoadConfig, synthetic_upload
from repro.collection.path import CollectionPath, PathConfig
from repro.collection.server import CollectionServer, UploadRejected
from repro.collection.storage import RecordStore
from repro.core.records import (
    RECORD_DATASETS,
    CapacityMeasurement,
    DeviceCountSample,
    DeviceRosterEntry,
    DnsRecord,
    FlowRecord,
    Medium,
    Spectrum,
    WifiScanSample,
)
from repro.simulation.timebase import StudyWindows, utc

SPAN = (utc(2013, 3, 1), utc(2013, 3, 15))
MAC = "3c:07:54:aa:bb:cc"

#: The replacement values; ``"other-enum"`` stands for a member of the
#: enum the field does not hold.
HOSTILE = [float("nan"), float("inf"), -1, 0, 1.5, 2**63, 10**400, True,
           "", "x", b"x", None, "other-enum"]


def _upload():
    """A valid upload: every list data set as records, and the four
    columnar ones as columns too."""
    base = synthetic_upload(0, SPAN, LoadConfig(
        clients=1, connections=1, heartbeats_per_upload=6,
        uptime_reports_per_upload=1, seed=3))
    rid = base.router_id
    lists = {
        "capacity": [CapacityMeasurement(rid, 1.0, 10.0, 2.0)],
        "device_counts": [DeviceCountSample(rid, 1.0, 1, 2, 0)],
        "roster": [
            DeviceRosterEntry(rid, MAC, Medium.WIRELESS, Spectrum.GHZ_5,
                              1.0, 2.0, False),
            DeviceRosterEntry(rid, "b0:a7:37:aa:bb:cc", Medium.WIRED, None,
                              1.0, 3.0, True)],
        "wifi_scans": [WifiScanSample(rid, 1.0, Spectrum.GHZ_2_4, 3, 0, 11)],
        "flows": [FlowRecord(rid, 1.0, MAC, "google.com", 1, 443, "https",
                             1.0, 2.0, 3.0)],
        "dns": [DnsRecord(rid, 1.0, MAC, "google.com", "A", 1),
                DnsRecord(rid, 2.0, MAC, "google.com", "CNAME")],
    }
    columns = {
        "uptime": {"timestamp": [5.0, 6.0], "uptime_seconds": [7.0, 0.0]},
        "capacity": {"timestamp": [5.0], "downstream_mbps": [20.0],
                     "upstream_mbps": [1.5]},
        "device_counts": {"timestamp": [5.0, 6.0], "wired": [0, 4],
                          "wireless_2_4": [1, 0], "wireless_5": [2, 2]},
        "wifi_scans": {"timestamp": [5.0, 5.0], "spectrum": [1, 2],
                       "neighbor_aps": [3, 0], "associated_clients": [0, 2],
                       "channel": [11, 36]},
    }
    batches = list(base.batches)
    batches += [RecordBatch(dataset, records)
                for dataset, records in lists.items()]
    batches += [RecordBatch(dataset, ColumnarRecords(dataset, rid, values))
                for dataset, values in columns.items()]
    return dataclasses.replace(base, batches=tuple(batches))


def _value(drawn, kind):
    if drawn != "other-enum":
        return drawn
    return Medium.WIRED if kind is Spectrum else Spectrum.GHZ_5


@st.composite
def damaged_uploads(draw):
    """:func:`_upload` with one field or one column cell replaced."""
    upload = _upload()
    # The router's metadata, or one batch of records (not the sends).
    batch = draw(st.sampled_from([None, *upload.batches]))
    drawn = draw(st.sampled_from(HOSTILE))
    if batch is None:
        field = draw(st.sampled_from(dataclasses.fields(upload.info)))
        object.__setattr__(upload.info, field.name, _value(drawn, None))
    elif isinstance(batch.records, ColumnarRecords):
        columns = batch.records.columns
        name = draw(st.sampled_from(sorted(columns)))
        column = list(columns[name])
        column[draw(st.integers(0, len(column) - 1))] = _value(
            drawn, Spectrum if name == "spectrum" else None)
        columns[name] = column
    else:
        record = draw(st.sampled_from(batch.records))
        field = draw(st.sampled_from(
            RECORD_DATASETS[batch.dataset].codec.fields))
        object.__setattr__(record, field.name, _value(drawn, field.kind))
    return upload


def _server(backend):
    return CollectionServer(
        RecordStore(StudyWindows(), backend),
        CollectionPath(np.random.default_rng(7), SPAN,
                       PathConfig(packet_loss=0.2, outage_rate_per_day=0.0)))


class TestMemorySpillParity:
    @settings(max_examples=200, deadline=None)
    @given(damaged_uploads())
    def test_both_reject_or_both_read_back_equal(self, upload):
        frame = encode_frame(("upload", 0, upload))
        try:
            _, _, decoded = decode_payload(frame[FRAME_HEADER.size:])
        except FrameError:
            return
        servers = [_server(None),
                   _server(SpillBackend(max_buffered_records=1))]
        outcomes = []
        for server in servers:
            try:
                outcomes.append(server.ingest(decoded))
            except UploadRejected:
                outcomes.append(None)
                assert not server.store.routers
                assert not server.store.has_upload(decoded.router_id)
        assert outcomes[0] == outcomes[1]
        if outcomes[0] is None:
            return
        memory, spill = (server.store.to_study_data() for server in servers)
        for table in RECORD_DATASETS.values():
            assert getattr(memory, table.attr) == getattr(spill, table.attr)
        assert study_digest(memory) == study_digest(spill)
