"""The spill segment codec: typed binary rows out, the same records back.

A spilled read must return, for every record the store accepts,
``codec.from_row(codec.to_row(record))`` in stable ``SORT_KEYS`` order
(ties in ingest order), whether its ``ColumnarRecords`` batch held list
or array columns.  The reference below is that expression itself; the
store keeps none.  A damaged segment must either raise one
``ValueError`` that names the file or yield records their constructors
accepted.
"""

import itertools
import math
import re
import tempfile
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collection.backends import SORT_KEYS, SpillBackend
from repro.collection.batches import ColumnarRecords
from repro.core.datasets import home_columns
from repro.core.records import (
    RECORD_DATASETS,
    SPECTRUM_BY_CODE,
    TIMESTAMP,
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
from repro.netutils.mac import format_mac

from tests.columns import batch, columns

#: Lone surrogates, NUL, multi-byte text: every str a segment must keep.
TEXT = st.text(alphabet=st.sampled_from(
    ["a", "b", "\x00", "\ud800", "\udc00", "\ud83d", "\ude00", "é", "中"]),
    max_size=3)
ROUTERS = st.one_of(st.sampled_from(["US001", "US002", "IN000"]), TEXT)
#: Record times: the declared range, its edges included.
LAST_TIMESTAMP = math.nextafter(TIMESTAMP.high, 0)
TIMESTAMPS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, LAST_TIMESTAMP]),
    st.floats(min_value=0.0, max_value=LAST_TIMESTAMP))
NON_NEGATIVE = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e308]),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
COUNTS = st.integers(0, 2**63 - 1)
#: A roster entry's MAC is one ``parse_mac`` reads.
MACS = st.integers(0, 2**48 - 1).map(format_mac)
IPV4 = st.integers(0, 2**32 - 1)


@st.composite
def rosters(draw, router):
    medium = draw(st.sampled_from(Medium))
    spectrum = None if medium is Medium.WIRED else draw(
        st.sampled_from([None, *Spectrum]))
    first, last = sorted((draw(TIMESTAMPS), draw(TIMESTAMPS)))
    return DeviceRosterEntry(draw(router), draw(MACS), medium, spectrum,
                             first, last, draw(st.booleans()))


RECORDS = {
    "uptime": lambda router: st.builds(
        UptimeReport, router, TIMESTAMPS, NON_NEGATIVE),
    "capacity": lambda router: st.builds(
        CapacityMeasurement, router, TIMESTAMPS, NON_NEGATIVE,
        NON_NEGATIVE),
    "device_counts": lambda router: st.builds(
        DeviceCountSample, router, TIMESTAMPS, COUNTS, COUNTS, COUNTS),
    "roster": rosters,
    "wifi_scans": lambda router: st.builds(
        WifiScanSample, router, TIMESTAMPS, st.sampled_from(Spectrum),
        COUNTS, COUNTS, COUNTS),
    "flows": lambda router: st.builds(
        FlowRecord, router, TIMESTAMPS, TEXT, TEXT, IPV4,
        st.integers(0, 65535), TEXT, NON_NEGATIVE, NON_NEGATIVE,
        NON_NEGATIVE),
    "dns": lambda router: st.builds(
        DnsRecord, router, TIMESTAMPS, TEXT, TEXT,
        st.sampled_from(["A", "CNAME"]),
        st.one_of(st.none(), IPV4)),
}


@st.composite
def batches(draw, datasets):
    """One appended batch: one router's records as list or array
    columns."""
    dataset = draw(datasets)
    records = draw(st.lists(RECORDS[dataset](st.just(draw(ROUTERS))),
                            min_size=1, max_size=12))
    values = columns(dataset, records)
    if draw(st.booleans()):
        values = {name: column.tolist() for name, column in values.items()}
    return dataset, records, ColumnarRecords(dataset, records[0].router_id,
                                             values)


@st.composite
def uploads(draw, names=sorted(RECORDS)):
    """Batches of up to three of the data sets *names*, so a segment can
    outgrow the smallest read chunk (32 rows) and a chunk boundary cut a
    home."""
    datasets = draw(st.lists(st.sampled_from(names), min_size=1,
                             max_size=3, unique=True))
    return draw(st.lists(batches(st.sampled_from(datasets)), min_size=1,
                         max_size=30))


def _exact(records):
    """Each record's field values with their types, floats by their bits."""
    return [[(type(value), value.hex() if isinstance(value, float) else value)
             for value in vars(record).values()] for record in records]


def _read(backend, dataset):
    homes = list(backend.iter_homes(dataset))
    routers = [rid for rid, _ in homes]
    assert routers == sorted(set(routers))
    for rid, records in homes:
        assert records and all(r.router_id == rid for r in records)
    return [record for _, records in homes for record in records]


class TestRoundTrip:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(uploads(), st.integers(1, 128))
    def test_read_returns_from_row_of_to_row(self, appended, buffer):
        with tempfile.TemporaryDirectory() as root:
            backend = SpillBackend(root, max_buffered_records=buffer)
            # The smallest read chunk: 32 rows.
            backend.merge_chunk_records = 1
            ingested = {dataset: [] for dataset in RECORDS}
            for dataset, records, appended_batch in appended:
                backend.append(dataset, appended_batch)
                ingested[dataset] += records
            for dataset, records in ingested.items():
                codec = RECORD_DATASETS[dataset].codec
                expected = sorted(
                    (codec.from_row(codec.to_row(r)) for r in records),
                    key=SORT_KEYS[dataset])
                assert _exact(_read(backend, dataset)) == _exact(expected)
            assert backend.peak_open_run_files <= 1

    def test_homes_cut_by_chunks_and_runs(self, tmp_path):
        """Every home spans several segments, and each segment outgrows
        the 32-row read chunk, so both joins run on every home."""
        backend = SpillBackend(tmp_path, max_buffered_records=120)
        backend.merge_chunk_records = 1
        routers = ("US002", "IN000", "US001")
        records = [UptimeReport(rid, float(t % 7), float(t))
                   for t in range(300) for rid in routers]
        for lo in range(0, len(records), 30):
            for rid in routers:
                backend.append("uptime", batch("uptime", [
                    r for r in records[lo:lo + 30] if r.router_id == rid]))
        assert len(backend.state_dict()["runs"]["uptime"]) > 3
        assert _exact(_read(backend, "uptime")) == \
            _exact(sorted(records, key=SORT_KEYS["uptime"]))

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(uploads(), st.integers(1, 24))
    def test_columnar_homes_read_as_their_records_columns(self, appended,
                                                          buffer):
        """A home, read through the folds' accessor, holds the columns of
        its records in ``SORT_KEYS`` order, though its rows came from
        several chunks and segments."""
        with tempfile.TemporaryDirectory() as root:
            backend = SpillBackend(root, max_buffered_records=buffer)
            backend.merge_chunk_records = 32
            ingested = {dataset: [] for dataset in RECORDS}
            for dataset, records, appended_batch in appended:
                backend.append(dataset, appended_batch)
                ingested[dataset] += records
            for dataset, records in ingested.items():
                codec = RECORD_DATASETS[dataset].codec
                names = [field.name for field in codec.fields[1:]]
                expected = {rid: columns(dataset, list(home))
                            for rid, home in itertools.groupby(sorted(
                                records, key=SORT_KEYS[dataset]),
                                key=attrgetter("router_id"))}
                got = {rid: home_columns(dataset, home, *names)
                       for rid, home in backend.iter_homes(dataset)}
                assert list(got) == list(expected)
                for rid, home in got.items():
                    for name in names:
                        want = expected[rid][name]
                        assert home[name].dtype == want.dtype
                        if want.dtype == object:  # text
                            assert home[name].tolist() == want.tolist()
                        else:
                            assert home[name].tobytes() == want.tobytes()

    def test_text_survives_exactly(self, tmp_path):
        """JSON would join this surrogate pair into one character."""
        text = "\ud83d\ude00\x00"
        backend = SpillBackend(tmp_path)
        backend.append("dns", batch(
            "dns", [DnsRecord(text, 1.0, text, text, "CNAME")]))
        [record] = _read(backend, "dns")
        assert (record.router_id, record.device_mac, record.domain) == \
            (text,) * 3
        assert record.address is None


# -- damaged segments ---------------------------------------------------------


def _regions(path, layout):
    """Byte ranges of a segment: its headers, string offsets, string
    blob, and the str and enum code fields of its rows."""
    regions = {"headers": [], "offsets": [], "blob": [], "codes": []}
    with path.open("rb") as handle:
        for kind, dtype in (("offsets", np.dtype("<i8")),
                            ("blob", np.dtype("|u1")), ("rows", layout)):
            start = handle.tell()
            np.lib.format.read_magic(handle)
            shape, _, _ = np.lib.format.read_array_header_1_0(handle)
            data = handle.tell()
            regions["headers"] += range(start, data)
            end = data + shape[0] * dtype.itemsize
            if kind != "rows":
                regions[kind] += range(data, end)
            handle.seek(end)
    coded = [name for name in layout.names
             if layout[name] in (np.dtype("<i4"), np.dtype("|u1"))]
    for row in range(shape[0]):
        for name in coded:
            offset = data + row * layout.itemsize + layout.fields[name][1]
            regions["codes"] += range(offset, offset + layout[name].itemsize)
    return regions


def _spilled(root):
    """A spilled store whose flows, roster and dns segments hold text,
    enum codes and null flags."""
    backend = SpillBackend(root, max_buffered_records=4096)
    for index, rid in enumerate(("IN000", "US001", "US002")):
        backend.append("flows", batch("flows", [
            FlowRecord(rid, 10.0 * k, f"3c:07:54:aa:bb:{k:02x}",
                       "google.com" if k % 2 else "(obfuscated)",
                       k, 443, "https", 1.0, 2.0, 3.0) for k in range(5)]))
        backend.append("roster", batch("roster", [
            DeviceRosterEntry(rid, "b0:a7:37:aa:bb:cc", Medium.WIRED, None,
                              1.0, 2.0, True),
            DeviceRosterEntry(rid, "3c:07:54:aa:bb:cc", Medium.WIRELESS,
                              Spectrum.GHZ_5, 1.0, 3.0, False)]))
        backend.append("dns", batch("dns", [
            DnsRecord(rid, 5.0, "3c:07:54:aa:bb:cc", "example.com", "A",
                      index),
            DnsRecord(rid, 6.0, "3c:07:54:aa:bb:cc", "example.com",
                      "CNAME")]))
    backend.flush()
    return backend


class TestDamagedSegment:
    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(["flows", "roster", "dns"]),
           st.sampled_from(["truncate", "headers", "offsets", "blob",
                            "codes"]),
           st.data())
    def test_damage_raises_naming_the_file(self, dataset, where, data):
        with tempfile.TemporaryDirectory() as root:
            backend = _spilled(root)
            [path] = backend._runs[dataset]
            raw = bytearray(path.read_bytes())
            if where == "truncate":
                raw = raw[:data.draw(st.integers(0, len(raw) - 1))]
            else:
                layout = RECORD_DATASETS[dataset].codec.layout
                position = data.draw(st.sampled_from(
                    _regions(path, layout)[where]))
                raw[position] ^= data.draw(st.integers(1, 255))
            path.write_bytes(bytes(raw))
            try:
                records = [r for _, home in backend.iter_homes(dataset)
                           for r in home]
            except ValueError as exc:
                assert str(path) in str(exc)
                return
            # Yielded records were built through their constructors; an
            # intact constructor call must accept each one again.
            for record in records:
                type(record)(*vars(record).values())

    def test_truncated_rows_name_the_file(self, tmp_path):
        backend = _spilled(tmp_path)
        [path] = backend._runs["flows"]
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            list(backend.iter_homes("flows"))

    def test_header_of_another_layout_rejected(self, tmp_path):
        backend = _spilled(tmp_path)
        [flows] = backend._runs["flows"]
        [dns] = backend._runs["dns"]
        flows.write_bytes(dns.read_bytes())
        with pytest.raises(ValueError, match="dtype"):
            list(backend.iter_homes("flows"))


def _rewrite(path, edit):
    """Rewrite a segment after *edit* changed its rows or string list."""
    with path.open("rb") as handle:
        ends, blob, rows = (np.load(handle) for _ in range(3))
        ends, blob, rows = list(ends), bytes(blob), rows.copy()
    strings = [blob[start:end].decode("utf-8", "surrogatepass")
               for start, end in zip([0, *ends[:-1]], ends)]
    edit(rows, strings)
    encoded = [string.encode("utf-8", "surrogatepass") for string in strings]
    with path.open("wb") as handle:
        np.save(handle, np.cumsum([len(blob) for blob in encoded],
                                  dtype="<i8"))
        np.save(handle, np.frombuffer(b"".join(encoded), dtype="|u1"))
        np.save(handle, rows)


def _later_first_seen(rows, strings):
    rows["first_seen"][0] = rows["last_seen"][0] + 1.0


def _wired_on_5ghz(rows, strings):
    wired = rows["medium"] == [*Medium].index(Medium.WIRED) + 1
    assert wired.any()
    rows["spectrum"][wired] = SPECTRUM_BY_CODE.index(Spectrum.GHZ_5)


def _txt_record(rows, strings):
    strings.append("TXT")
    rows["record_type"][0] = len(strings) - 1


def _no_band(rows, strings):
    rows["spectrum"][0] = 0


class TestDamagedRows:
    """Rows the read builds without constructors: a rule between fields,
    a text value outside its set and a code for no member still fail."""

    @pytest.mark.parametrize("dataset, edit", [
        ("roster", _later_first_seen),
        ("roster", _wired_on_5ghz),
        ("dns", _txt_record),
        ("wifi_scans", _no_band),
    ], ids=["first-seen-after-last-seen", "wired-with-spectrum",
            "txt-record-type", "wifi-spectrum-code-0"])
    def test_raises_naming_the_file(self, tmp_path, dataset, edit):
        backend = _spilled(tmp_path)
        backend.append("wifi_scans", batch("wifi_scans", [
            WifiScanSample("US001", 1.0, Spectrum.GHZ_2_4, 3, 0, 11),
            WifiScanSample("US001", 2.0, Spectrum.GHZ_5, 1, 2, 36)]))
        backend.flush()
        [path] = backend._runs[dataset]
        assert list(backend.iter_homes(dataset))
        _rewrite(path, edit)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            list(backend.iter_homes(dataset))
