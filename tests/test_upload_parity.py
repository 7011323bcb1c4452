"""One damaged cell, two stores: a memory store and a spill store agree.

A valid upload carries every record-list data set twice, as
``ColumnarRecords`` of list columns and of array columns (text stays a
list: a frame's arrays hold numbers).  One field of the router's
metadata, or one cell of one column, is replaced with a hostile value
after construction, and the upload goes through the frame codec into a
server over a memory store and one over a spill store that spills every
record.  Either both reject it before anything is applied
(``FrameError`` at encode or decode, ``UploadRejected`` at ingest) and
neither holds the router, or both store it and read back equal records
of equal types and equal ``study_digest``s.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import study_digest
from repro.collection.backends import SpillBackend
from repro.collection.batches import (
    FRAME_HEADER,
    ColumnarRecords,
    FrameError,
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
    UptimeReport,
    WifiScanSample,
)
from repro.simulation.timebase import StudyWindows, utc

from tests.columns import columns

SPAN = (utc(2013, 3, 1), utc(2013, 3, 15))
MAC = "3c:07:54:aa:bb:cc"

#: The replacement values; ``"other-enum"`` stands for a member of the
#: enum the field does not hold.
HOSTILE = [float("nan"), float("inf"), -1, 0, 1.5, 2**63, 10**400, True,
           np.uint64(2**63 - 1), "", "x", b"x", None, "other-enum"]


def _upload():
    """A valid upload: every list data set as list columns, and again as
    array columns."""
    base = synthetic_upload(0, SPAN, LoadConfig(
        clients=1, connections=1, heartbeats_per_upload=6,
        uptime_reports_per_upload=0, seed=3))
    rid = base.router_id
    lists = {
        "uptime": [UptimeReport(rid, 5.0, 7.0), UptimeReport(rid, 6.0, 0.0)],
        "capacity": [CapacityMeasurement(rid, 1.0, 10.0, 2.0)],
        "device_counts": [DeviceCountSample(rid, 1.0, 1, 2, 0),
                          DeviceCountSample(rid, 2.0, 4, 0, 2)],
        "roster": [
            DeviceRosterEntry(rid, MAC, Medium.WIRELESS, Spectrum.GHZ_5,
                              1.0, 2.0, False),
            DeviceRosterEntry(rid, "b0:a7:37:aa:bb:cc", Medium.WIRED, None,
                              1.0, 3.0, True)],
        "wifi_scans": [WifiScanSample(rid, 1.0, Spectrum.GHZ_2_4, 3, 0, 11),
                       WifiScanSample(rid, 1.0, Spectrum.GHZ_5, 0, 2, 36)],
        "flows": [FlowRecord(rid, 1.0, MAC, "google.com", 1, 443, "https",
                             1.0, 2.0, 3.0)],
        "dns": [DnsRecord(rid, 1.0, MAC, "google.com", "A", 1),
                DnsRecord(rid, 2.0, MAC, "google.com", "CNAME")],
    }
    batches = []
    for as_lists in (True, False):
        for dataset, records in lists.items():
            values = columns(dataset, records)
            batches.append(ColumnarRecords(dataset, rid, {
                name: column.tolist() if as_lists or column.dtype == object
                else column for name, column in values.items()}))
    return dataclasses.replace(base, batches=tuple(batches))


def _value(drawn, kind):
    if drawn != "other-enum":
        return drawn
    return Medium.WIRED if kind is Spectrum else Spectrum.GHZ_5


def _with_cell(column, index, value):
    """*column* with cell *index* set to *value*: a list stays a list, an
    array keeps its dtype if it holds *value*, else numpy picks one."""
    if isinstance(column, list):
        column = list(column)
        column[index] = value
        return column
    values = column.tolist()
    values[index] = value
    try:
        column = column.copy()
        column[index] = value
        return column
    except (TypeError, ValueError, OverflowError):
        return np.array(values)


@st.composite
def damaged_uploads(draw):
    """:func:`_upload` with one field or one column cell replaced."""
    upload = _upload()
    # The router's metadata, or one batch (not the sends).
    batch = draw(st.sampled_from([None, *upload.batches]))
    drawn = draw(st.sampled_from(HOSTILE))
    if batch is None:
        field = draw(st.sampled_from(dataclasses.fields(upload.info)))
        object.__setattr__(upload.info, field.name, _value(drawn, None))
    else:
        name = draw(st.sampled_from(sorted(batch.columns)))
        column = batch.columns[name]
        batch.columns[name] = _with_cell(
            column, draw(st.integers(0, len(column) - 1)), _value(
                drawn, Spectrum if name == "spectrum" else None))
    return upload


def _server(backend):
    return CollectionServer(
        RecordStore(StudyWindows(), backend),
        CollectionPath(np.random.default_rng(7), SPAN,
                       PathConfig(packet_loss=0.2, outage_rate_per_day=0.0)))


def _assert_parity(upload):
    """Assert both stores reject *upload* untouched (returns ``None``),
    or both read back equal records of equal types and equal digests
    (returns the study data read back)."""
    try:
        frame = encode_frame(("upload", 0, upload))
        _, _, decoded = decode_payload(frame[FRAME_HEADER.size:])
    except FrameError:
        return None
    servers = [_server(None),
               _server(SpillBackend(max_buffered_records=1))]
    with servers[0].store, servers[1].store:
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
            return None
        memory, spill = (server.store.to_study_data()
                         for server in servers)
        for table in RECORD_DATASETS.values():
            # repr tells an int field read back as a float from an int.
            assert repr(getattr(memory, table.attr)) == \
                repr(getattr(spill, table.attr))
        assert study_digest(memory) == study_digest(spill)
    return memory


#: List cells mixing numpy integers of both signs, and the field values
#: they give: numpy makes such a list floats unless told the column's
#: type.  Then narrow unsigned array columns at their types' maxima, as
#: a collector's batch ships them.  (The second DNS record's address is
#: null.)
MIXED_INTEGERS = [
    ("wifi_scans", "neighbor_aps", [np.int64(2**62 + 1), np.uint64(0)],
     [2**62 + 1, 0]),
    ("wifi_scans", "neighbor_aps", [np.uint64(2**63 - 1), np.int64(0)],
     [2**63 - 1, 0]),
    ("wifi_scans", "neighbor_aps", [np.uint64(2**62 + 1), 0],
     [2**62 + 1, 0]),
    ("dns", "address", [np.uint64(1), np.int64(0)], [1, None]),
    ("device_counts", "wired", [np.int64(2**62 + 1), np.uint64(2)],
     [2**62 + 1, 2]),
    ("wifi_scans", "neighbor_aps", np.array([2**8 - 1, 0], np.uint8),
     [2**8 - 1, 0]),
    ("device_counts", "wired", np.array([2**16 - 1, 2], np.uint16),
     [2**16 - 1, 2]),
    ("dns", "address", np.array([2**32 - 1, 0], np.uint32),
     [2**32 - 1, None]),
]


class TestMemorySpillParity:
    @settings(max_examples=200, deadline=None)
    @given(damaged_uploads())
    def test_both_reject_or_both_read_back_equal(self, upload):
        _assert_parity(upload)

    @pytest.mark.parametrize("dataset,name,cells,values", MIXED_INTEGERS)
    def test_mixed_numpy_integers_keep_their_values(self, dataset, name,
                                                    cells, values):
        upload = _upload()
        for batch in upload.batches:  # as lists, then as arrays
            if batch.dataset == dataset:
                batch.columns[name] = cells.copy()
                batch.__post_init__()  # cells a record may hold
        data = _assert_parity(upload)
        records = getattr(data, RECORD_DATASETS[dataset].attr)
        assert sorted((getattr(record, name) for record in records),
                      key=repr) == sorted(values * 2, key=repr)
