"""The network ingest service: framing, daemon semantics, load harness.

The load-bearing contracts under test:

* the framed wire protocol round-trips and rejects garbage;
* frame decoding never executes attacker code (restricted unpickler);
* ``CollectionServer.ingest`` is all-or-nothing and idempotent, even
  across a daemon restart over an existing store, and a rejected upload
  leaves no trace — not even a loss draw;
* the heartbeat ledger closes: sent == delivered + dropped;
* ``records_ingested_total`` matches the store's contents exactly, even
  after re-upload conflicts;
* a campaign ingested over the socket daemon produces a ``study_digest``
  bitwise-identical to the in-process path;
* loss injection (mid-frame disconnects, dropped ACKs, shedding) never
  leaves the store inconsistent.
"""

import asyncio
import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import study_digest
from repro.core.datasets import ThroughputSeries
from repro.core.records import FlowRecord, RouterInfo, Spectrum
from repro.simulation.timebase import StudyWindows, utc
from repro.simulation.seeding import SeedHierarchy
from repro.telemetry import metrics
from repro.collection import batches
from repro.collection.batches import (
    FRAME_HEADER,
    ColumnarRecords,
    FrameError,
    RouterUpload,
    decode_payload,
    encode_frame,
    read_payload,
    validate_message,
)
from repro.collection.loadgen import (
    LoadConfig,
    run_load,
    run_load_over_loopback,
    synthetic_upload,
)
from repro.collection.netserve import (
    IngestClient,
    IngestDaemon,
    ServeConfig,
    run_campaign_over_socket,
)
from repro.collection.path import CollectionPath, PathConfig
from repro.collection.server import CollectionServer, UploadRejected
from repro.collection.storage import RecordStore

SPAN = (utc(2013, 3, 1), utc(2013, 3, 15))

#: One small fleet config reused across daemon tests.
SMALL_LOAD = LoadConfig(clients=40, connections=4, heartbeats_per_upload=6,
                        uptime_reports_per_upload=1, seed=3)


def make_server(loss=0.0, seed=7):
    store = RecordStore(StudyWindows())
    path = CollectionPath(np.random.default_rng(seed), SPAN,
                          PathConfig(packet_loss=loss,
                                     outage_rate_per_day=0.0))
    return CollectionServer(store, path)


def make_upload(index=0, config=SMALL_LOAD):
    return synthetic_upload(index, SPAN, config)


def make_daemon(config=None, loss=0.0):
    store = RecordStore(StudyWindows())
    path = CollectionPath(np.random.default_rng(11), SPAN,
                          PathConfig(packet_loss=loss,
                                     outage_rate_per_day=0.0))
    return IngestDaemon(store, path, config or ServeConfig(port=0))


@pytest.fixture()
def registry():
    reg = metrics.enable()
    reg.clear()
    yield reg
    metrics.disable()


def counter(registry, name, **labels):
    key = (name, tuple(sorted(labels.items())))
    return registry.counters.get(key, 0)


def read_frames(data):
    """Every message in *data*, read through the daemon's frame reader."""
    async def _read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        messages = []
        while not reader.at_eof():
            messages.append(decode_payload(await read_payload(reader)))
        return messages

    return asyncio.run(_read())


async def until(predicate, timeout=5.0):
    """Yield to the event loop until *predicate* holds."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not predicate():
        assert loop.time() < deadline, "condition never held"
        await asyncio.sleep(0.001)


class TestFraming:
    def test_round_trip(self):
        upload = make_upload()
        data = encode_frame(("upload", 3, upload))
        [message] = read_frames(data)
        assert message[0] == "upload" and message[1] == 3
        assert message[2].router_id == upload.router_id

    def test_short_buffer_incomplete(self):
        data = encode_frame(("ping",))
        with pytest.raises(asyncio.IncompleteReadError):
            read_frames(data[:3])
        with pytest.raises(asyncio.IncompleteReadError):
            read_frames(data[:-1])

    def test_oversized_frame_rejected(self, monkeypatch):
        data = encode_frame(("error", 0, "x" * 100))
        monkeypatch.setattr(batches, "DEFAULT_MAX_FRAME_BYTES", 32)
        with pytest.raises(FrameError):
            encode_frame(("error", 0, "x" * 100))
        with pytest.raises(FrameError):
            read_frames(data)
        # The length is refused before any payload byte is awaited.
        for header in (data[:FRAME_HEADER.size], FRAME_HEADER.pack(0)):
            with pytest.raises(FrameError):
                read_frames(header)

    def test_garbage_payload_rejected(self):
        garbage = b"\x00\x00\x00\x04spam"
        with pytest.raises(FrameError):
            read_frames(garbage)

    def test_malformed_messages_rejected(self):
        for message in (
                (),
                ("nope",),
                ("upload", -1, make_upload()),
                ("upload", 0, "not an upload"),
                ("ack", 0, "lost"),
                ("retry", 0, 0),
                ("retry", 0, "soon"),
                ("ping", 1),
                # Never compared or shown: its __eq__ and __repr__ raise.
                (object.__new__(RouterUpload),),
                ("ack", 0, np.array(["stored", "duplicate"])),
        ):
            with pytest.raises(FrameError):
                validate_message(message)

    def test_valid_messages_pass(self):
        for message in (
                ("upload", 0, make_upload()),
                ("ack", 9, "stored"),
                ("ack", 9, "duplicate"),
                ("retry", 2, 0.5),
                ("error", 4, "boom"),
                ("ping",),
                ("pong",),
                ("bye",),
        ):
            validate_message(message)

    def test_text_array_refused_at_encode(self):
        """A batch may hold its text as an object array in process, but
        no frame can carry one: the sender refuses it at once instead of
        the receiver dropping the connection."""
        rid = make_upload().router_id
        columns = {"timestamp": [1.0], "device_mac": ["3c:07:54:aa:bb:cc"],
                   "domain": ["google.com"], "record_type": ["A"],
                   "address": [1], "address_null": [False]}
        upload = dataclasses.replace(make_upload(), batches=(
            ColumnarRecords("dns", rid, dict(columns)),))
        [message] = read_frames(encode_frame(("upload", 0, upload)))
        assert message[2].batches[0].columns == columns
        upload = dataclasses.replace(make_upload(), batches=(
            ColumnarRecords("dns", rid, {**columns, "domain": np.array(
                ["google.com"], dtype=object)}),))
        with pytest.raises(FrameError, match="text columns cross as lists"):
            encode_frame(("upload", 0, upload))

    def test_serve_config_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(reorder_window=0)
        with pytest.raises(ValueError):
            ServeConfig(retry_after_seconds=0)


#: Side-effect flag for the hostile-reducer test below; decoding must
#: reject the payload before this ever runs.
PWNED = []


def _pwn(marker):  # pragma: no cover - must never execute
    PWNED.append(marker)
    return marker


class _EvilReducer:
    """Pickles to a call of ``_pwn`` — the classic pickle RCE shape."""

    def __reduce__(self):
        return (_pwn, ("boom",))


class _DtypeWithState:
    """Pickles to ``numpy.dtype("f8", False, True)`` given *state*."""

    def __init__(self, state):
        self.state = state

    def __reduce__(self):
        return (np.dtype, ("f8", False, True), self.state)


class TestSafeDeserialization:
    def test_hostile_reducer_rejected_before_execution(self):
        payload = pickle.dumps(("error", 0, _EvilReducer()),
                               protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(FrameError):
            decode_payload(payload)
        assert PWNED == []

    def test_disallowed_global_rejected(self):
        for smuggled in (print, pickle.loads, np.frombuffer):
            payload = pickle.dumps(("ping", smuggled),
                                   protocol=pickle.HIGHEST_PROTOCOL)
            with pytest.raises(FrameError):
                decode_payload(payload)

    @pytest.mark.parametrize("smuggled", [
        FlowRecord("r", 1.0, "3c:07:54:aa:bb:cc", "google.com", 1, 443,
                   "https", 1.0, 2.0, 3.0),
        Spectrum.GHZ_5], ids=["flow-record", "spectrum"])
    def test_record_objects_rejected(self, smuggled):
        """No record object crosses the wire: a batch is columns."""
        payload = pickle.dumps(("error", 0, smuggled),
                               protocol=pickle.HIGHEST_PROTOCOL)
        with pytest.raises(FrameError, match="disallowed global"):
            decode_payload(payload)

    def test_protocol_types_still_decode(self):
        upload = make_upload(0)
        payload = pickle.dumps(("upload", 0, upload),
                               protocol=pickle.HIGHEST_PROTOCOL)
        message = decode_payload(payload)
        assert message[2].router_id == upload.router_id

    def test_arrays_hold_plain_numbers(self):
        """numpy trusts a pickled dtype's state: the first state below
        crashes ``np.dtype.__setstate__``, the second gives a float
        dtype an object dtype's flags.  A frame's arrays hold bools or
        numbers, and nothing else of a dtype reaches numpy."""
        upload = make_upload(0)
        for sends in (_DtypeWithState((3, "<", None, -1, -1, 0)),
                      _DtypeWithState((3, "<", None, None, None, -1, -1, 63)),
                      np.array([1.0, None], dtype=object),
                      np.array(["1", "2"]), np.zeros(2, dtype="f8,i4")):
            hostile = _tampered(dataclasses.replace(upload),
                                heartbeat_sends=sends)
            with pytest.raises(FrameError):
                decode_payload(pickle.dumps(
                    ("upload", 0, hostile), protocol=pickle.HIGHEST_PROTOCOL))
        for sends in (np.arange(3.0).astype(">f8"), np.arange(3),
                      np.array([True, False])):
            _, _, decoded = decode_payload(pickle.dumps(
                ("upload", 0, dataclasses.replace(upload,
                                                  heartbeat_sends=sends)),
                protocol=pickle.HIGHEST_PROTOCOL))
            assert decoded.heartbeat_sends.dtype == sends.dtype
            assert np.array_equal(decoded.heartbeat_sends, sends)


class TestIngestAllOrNothing:
    def test_invalid_upload_registers_nothing(self, registry):
        server = make_server()
        bad = _foreign_uptime(make_upload(0))
        with pytest.raises(UploadRejected):
            server.ingest(bad)
        assert bad.router_id not in server.store.routers
        assert counter(registry, "routers_ingested_total") == 0
        assert counter(registry, "records_ingested_total",
                       dataset="heartbeats") == 0

    def test_two_heartbeat_batches_rejected(self):
        # An upload holds one send array; a second one could only come
        # as a batch, and a batch holds a record-list data set.
        server = make_server()
        upload = make_upload(0)
        with pytest.raises(ValueError):
            ColumnarRecords("heartbeats", upload.router_id,
                            {"timestamp": upload.heartbeat_sends})
        doubled = _with_batch(upload, _tampered(
            _uptime(upload.router_id), dataset="heartbeats",
            columns={"timestamp": upload.heartbeat_sends}))
        with pytest.raises(UploadRejected):
            server.ingest(doubled)
        assert upload.router_id not in server.store.routers

    def test_upload_without_heartbeats_rejected(self):
        # The store marks an upload ingested by its heartbeat log, so a
        # heartbeat-less upload would be re-appended by every restarted
        # daemon it was retried to.
        store = make_server().store
        upload = make_upload(0)
        with pytest.raises(TypeError):
            RouterUpload(upload.info, None, upload.batches)
        bare = _missing(dataclasses.replace(upload), "heartbeat_sends")
        assert bare.batches
        for _ in range(2):
            server = CollectionServer(store, make_server().path)
            with pytest.raises(UploadRejected):
                server.ingest(bare)
        assert upload.router_id not in store.routers
        assert store.to_study_data().uptime_reports == []

    def test_midingest_failure_rolls_back_registration(self, monkeypatch):
        server = make_server()
        upload = make_upload(0)

        def explode(dataset, value):
            raise RuntimeError("backend offline")

        monkeypatch.setattr(server.store, "add_keyed", explode)
        with pytest.raises(RuntimeError):
            server.ingest(upload)
        # A failure validation could not foresee must not leave a
        # registered-but-empty router inflating cohort coverage.
        assert upload.router_id not in server.store.routers

    def test_duplicate_ingest_is_idempotent(self, registry):
        server = make_server()
        upload = make_upload(0)
        assert server.ingest(upload) is True
        assert server.ingest(upload) is False
        data = server.store.to_study_data()
        assert len(data.uptime_reports) == \
            SMALL_LOAD.uptime_reports_per_upload
        assert counter(registry, "routers_ingested_total") == 1
        assert counter(registry, "uploads_duplicate_total") == 1
        assert counter(registry, "records_ingested_total",
                       dataset="uptime") == len(data.uptime_reports)

    def test_duplicate_with_conflicting_info_rejected(self):
        server = make_server()
        upload = make_upload(0)
        server.ingest(upload)
        imposter = dataclasses.replace(upload, info=RouterInfo(
            upload.router_id, "GB", True, 0.0, 36000.0))
        with pytest.raises(ValueError):
            server.ingest(imposter)

    def test_unregister_refuses_with_stored_uploads(self):
        server = make_server()
        upload = make_upload(0)
        server.ingest(upload)
        with pytest.raises(ValueError):
            server.store.unregister_router(upload.router_id)

    def test_failed_upload_stages_nothing(self, registry):
        """A consistency failure on a *later* batch must leave the
        store byte-for-byte as it was: the whole upload is checked
        before any batch is applied, so a client retry cannot
        double-append the earlier append-only batches."""
        server = make_server()
        rid = "LG000000"
        info = RouterInfo(rid, "US", True, -5.0, 50_000.0)
        server.store.register_router(info)
        original = ThroughputSeries(rid, SPAN[0], np.ones(4), np.ones(4))
        server.store.add_keyed("throughput", original)

        sends = np.linspace(SPAN[0], SPAN[0] + 3600.0, 5)
        conflicting = ThroughputSeries(rid, SPAN[0], np.zeros(4),
                                       np.ones(4))
        with pytest.raises(ValueError):
            server.ingest(RouterUpload(
                info, sends, (_uptime(rid),), conflicting))
        # Nothing before the conflicting batch leaked into the store or
        # the metrics registry.
        assert not server.store.has_upload(rid)
        assert counter(registry, "heartbeats_sent_total") == 0
        assert counter(registry, "records_ingested_total",
                       dataset="uptime") == 0
        assert counter(registry, "routers_ingested_total") == 0
        # The retry with the original (non-conflicting) series ingests
        # everything exactly once.
        assert server.ingest(RouterUpload(
            info, sends, (_uptime(rid),), original)) is True
        data = server.store.to_study_data()
        assert len(data.uptime_reports) == 1
        assert len(data.heartbeats[rid]) == len(sends)

    def test_rejected_upload_draws_no_loss(self, registry):
        """Every check that can reject an upload runs before the loss
        draws: a rejected upload must not advance the path RNG, which
        would shift every later router's deliveries.  Only a lossy path
        shows this — with ``packet_loss=0`` the path draws nothing."""
        server = make_server(loss=0.3)
        rid = "LG000000"
        info = RouterInfo(rid, "US", True, -5.0, 50_000.0)
        server.store.register_router(info)
        server.store.add_keyed("throughput",
                               ThroughputSeries(rid, SPAN[0], np.ones(4),
                                                np.ones(4)))
        rng_state = server.path.rng_state()
        store_state = server.store.state_dict()
        digest = study_digest(server.store.to_study_data())
        with pytest.raises(ValueError):
            server.ingest(RouterUpload(
                info, np.linspace(SPAN[0], SPAN[0] + 3600.0, 50),
                (_uptime(rid),),
                ThroughputSeries(rid, SPAN[0], np.zeros(4), np.ones(4))))
        assert server.path.rng_state() == rng_state
        assert server.store.state_dict() == store_state
        assert study_digest(server.store.to_study_data()) == digest
        assert counter(registry, "heartbeats_sent_total") == 0

    def test_restart_over_existing_store_is_duplicate(self, registry):
        """A retry landing at a daemon *restarted over an existing
        store* must be a duplicate no-op, not a double-append of the
        list datasets (the in-memory idempotency set is empty there;
        the store's one-shot upload markers have to carry it)."""
        store = RecordStore(StudyWindows())

        def fresh_server():
            return CollectionServer(store, CollectionPath(
                np.random.default_rng(7), SPAN,
                PathConfig(packet_loss=0.0, outage_rate_per_day=0.0)))

        upload = make_upload(0)
        assert fresh_server().ingest(upload) is True
        assert fresh_server().ingest(upload) is False
        data = store.to_study_data()
        assert len(data.uptime_reports) == \
            SMALL_LOAD.uptime_reports_per_upload
        assert counter(registry, "uploads_duplicate_total") == 1
        assert counter(registry, "routers_ingested_total") == 1


def _tampered(record, **fields):
    """*record* with *fields* overwritten past its frozen-field checks."""
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


def _missing(record, name):
    """*record* without field *name*, as a hostile pickle can leave it."""
    del record.__dict__[name]
    return record


def _with_batch(upload, batch):
    return dataclasses.replace(upload, batches=upload.batches + (batch,))


#: A valid batch's columns per record-list data set.
VALID_COLUMNS = {
    "uptime": {"timestamp": [SPAN[0] + 60.0], "uptime_seconds": [1000.0]},
    "capacity": {"timestamp": [1.0], "downstream_mbps": [2.0],
                 "upstream_mbps": [1.0]},
    "device_counts": {"timestamp": [1.0], "wired": [1],
                      "wireless_2_4": [0], "wireless_5": [0]},
    "roster": {"device_mac": ["3c:07:54:aa:bb:cc"], "medium": [2],
               "spectrum": [2], "first_seen": [1.0], "last_seen": [2.0],
               "always_connected": [False]},
    "wifi_scans": {"timestamp": [1.0, 2.0], "spectrum": [1, 2],
                   "neighbor_aps": [3, 0], "associated_clients": [0, 2],
                   "channel": [11, 36]},
    "flows": {"timestamp": [1.0], "device_mac": ["3c:07:54:aa:bb:cc"],
              "domain": ["google.com"], "remote_ip": [1], "port": [443],
              "application": ["https"], "bytes_up": [1.0],
              "bytes_down": [2.0], "duration_seconds": [3.0]},
    "dns": {"timestamp": [1.0], "device_mac": ["3c:07:54:aa:bb:cc"],
            "domain": ["google.com"], "record_type": ["A"], "address": [1],
            "address_null": [False]},
}


def _columns(dataset, rid, **overrides):
    """A valid *dataset* batch of router *rid*, then whole columns
    replaced after its constructor checked it, as a hostile client can
    send it."""
    batch = ColumnarRecords(dataset, rid, {
        name: list(column) for name, column in VALID_COLUMNS[dataset].items()})
    batch.columns.update(overrides)
    return batch


def _uptime(rid):
    """One valid uptime report of router *rid* as a batch."""
    return _columns("uptime", rid)


def _foreign_uptime(upload):
    """*upload* with an uptime batch of another router's report."""
    return _with_batch(upload, _uptime("LG000099"))


def _hostile_uploads():
    """Uploads whose hostility unpickling alone cannot see."""
    upload = make_upload(0)
    rid = upload.router_id

    def columns(dataset, **overrides):
        return _with_batch(upload, _columns(dataset, rid, **overrides))

    def wifi(**overrides):
        return columns("wifi_scans", **overrides)

    def flow(**overrides):
        return columns("flows", **overrides)

    def roster(**overrides):
        return columns("roster", **overrides)

    def series(**fields):
        return dataclasses.replace(upload, throughput=_tampered(
            ThroughputSeries(rid, 1.0, np.ones(2), np.ones(2)), **fields))

    def router(**fields):
        return dataclasses.replace(upload, info=_tampered(
            RouterInfo(rid, "US", True, -5.0, 50_000.0), **fields))

    sends = upload.heartbeat_sends

    def beats(records):
        return _tampered(dataclasses.replace(upload),
                         heartbeat_sends=records)

    portless = _columns("flows", rid)
    del portless.columns["port"]
    nested = _columns("uptime", rid)
    nested.columns["timestamp"] = nested
    return {
        "wifi-spectrum-code": wifi(spectrum=[7, 1]),
        "wifi-negative-aps": wifi(neighbor_aps=[-3, 0]),
        "wifi-negative-aps-behind-nan": wifi(neighbor_aps=[np.nan, -3]),
        "wifi-ragged-columns": wifi(channel=[11]),
        "wifi-text-channel": wifi(channel=["11", "36"]),
        "flow-negative-bytes": flow(bytes_up=[-1e12]),
        "flow-nan-bytes": flow(bytes_down=[float("nan")]),
        "flow-inf-duration": flow(duration_seconds=[float("inf")]),
        "nan-uptime": columns("uptime", uptime_seconds=np.array([np.nan])),
        "nan-uptime-columns": columns("uptime",
                                      uptime_seconds=[float("nan")]),
        "text-uptime-columns": columns("uptime", uptime_seconds=["5"]),
        "inf-capacity-columns": columns(
            "capacity", downstream_mbps=[float("inf")]),
        "nan-wired-columns": columns("device_counts",
                                     wired=[float("nan")]),
        # A bool is an int to numpy, never a number to a record.
        "bool-uptime-timestamp": columns(
            "uptime", timestamp=[1e9, True], uptime_seconds=[5.0, 6.0]),
        "bool-wired": columns(
            "device_counts", timestamp=[1.0, 2.0], wired=[True, 2],
            wireless_2_4=[0, 0], wireless_5=[0, 0]),
        "throughput-nan-interval": series(interval_seconds=float("nan")),
        "throughput-nan-start": series(start=float("nan")),
        "throughput-nan-up": series(up_bps=np.array([np.nan, 1.0])),
        "throughput-negative-up": series(up_bps=np.array([-1.0, 1.0])),
        "wired-with-spectrum": roster(medium=[1]),
        "roster-first-after-last": roster(first_seen=[3.0]),
        "dns-txt-record": columns("dns", record_type=["TXT"]),
        "negative-gdp": router(gdp_ppp_per_capita=-1),
        "flow-in-uptime-batch": _with_batch(
            upload, _tampered(_columns("flows", rid), dataset="uptime")),
        "uptime-columns-in-capacity-batch": _with_batch(
            upload, _tampered(_uptime(rid), dataset="capacity")),
        "nan-heartbeat": beats(np.append(sends, np.nan)),
        "inf-heartbeat": beats(np.append(sends, np.inf)),
        "text-heartbeats": beats(["noon", "dusk"]),
        "text-uptime": columns("uptime", uptime_seconds=np.array(["x"])),
        "text-gdp": router(gdp_ppp_per_capita="x"),
        "text-wifi-spectrum": wifi(spectrum=["2.4GHz", 2]),
        "text-roster-spectrum": roster(spectrum=["5GHz"]),
        "text-medium": roster(medium=["wired"]),
        "nan-gdp": router(gdp_ppp_per_capita=float("nan")),
        "inf-gdp": router(gdp_ppp_per_capita=float("inf")),
        "nan-tz": router(tz_offset_hours=float("nan")),
        # Values a spill segment's int64 columns cannot hold, or whose
        # NaN sort key np.lexsort orders unlike list.sort.
        "flow-huge-port": flow(port=[2**70]),
        "flow-huge-remote-ip": flow(remote_ip=[2**70]),
        "dns-negative-address": columns("dns", address=[-5]),
        "dns-int-null-flag": columns("dns", address_null=[0]),
        "wifi-uint64-aps": wifi(neighbor_aps=[2**63, 2**63]),
        "flow-nan-timestamp": flow(timestamp=[float("nan")]),
        "flow-int-timestamp-past-float": flow(timestamp=[10**400]),
        "nan-timestamp-columns": columns("uptime",
                                         timestamp=[float("nan")]),
        # A value of the wrong kind, or a number past float range.
        "wifi-float-spectrum-code": wifi(spectrum=[1.0, 2.0]),
        "wifi-float-channel": wifi(channel=[11.5, 36.0]),
        "uptime-int-past-float": columns("uptime",
                                         uptime_seconds=[10**400]),
        "flow-int-domain": flow(domain=[5]),
        "flow-bytes-mac": flow(device_mac=[b"3c:07"]),
        "flow-float-port": flow(port=[443.5]),
        "flow-tuple-column": flow(port=(443,)),
        "roster-text-always-connected": roster(always_connected=["no"]),
        "router-text-developed": router(developed="no"),
        "router-int-country": router(country_code=5),
        # Values the analysis or the spill layout cannot take: a spill
        # store names keyed files by the router id, the vendor analysis
        # parses a roster MAC, a StudyCalendar takes UTC-12..UTC+14.
        "router-id-with-slash": RouterUpload(_tampered(
            RouterInfo(rid, "US", True, -5.0, 50_000.0),
            router_id="LG/000"), sends),
        "roster-unparsable-mac": roster(device_mac=["3c:07:54:aa:bb"]),
        "tz-past-utc-14": router(tz_offset_hours=14.5),
        "flow-missing-port": _with_batch(upload, portless),
        "batch-holding-itself": _with_batch(upload, nested),
    }


class TestDecodedUploadValidation:
    """Unpickling runs no constructor; a decoded upload must be
    re-validated before it reaches the store."""

    @pytest.mark.parametrize("case", sorted(_hostile_uploads()))
    def test_hostile_frame_stores_nothing(self, registry, case):
        upload = _hostile_uploads()[case]
        server = make_server()
        with pytest.raises((FrameError, UploadRejected)):
            [message] = read_frames(encode_frame(("upload", 0, upload)))
            server.ingest(message[2])
        assert not server.store.routers
        assert not server.store.has_upload(upload.router_id)
        assert counter(registry, "routers_ingested_total") == 0


class TestLedgerReconciliation:
    def test_ledger_closes_under_loss(self, registry):
        server = make_server(loss=0.3)
        sends = np.linspace(SPAN[0], SPAN[1] - 1, 2000)
        server.ingest(RouterUpload(
            RouterInfo("US001", "US", True, -5.0, 49800.0), sends))
        sent = counter(registry, "heartbeats_sent_total")
        delivered = counter(registry, "heartbeats_delivered_total")
        dropped = counter(registry, "heartbeats_dropped_total")
        assert sent == 2000 and dropped > 0
        assert sent == delivered + dropped

    def test_records_total_matches_store_after_conflicts(self, registry):
        """Per-dataset ``records_ingested_total`` == store contents,
        through duplicate uploads and rejected re-uploads."""
        server = make_server(loss=0.0)
        for index in range(4):
            server.ingest(make_upload(index))
        server.ingest(make_upload(1))          # idempotent duplicate
        replay = make_upload(2)
        with pytest.raises(ValueError):        # conflicting re-upload
            server.ingest(dataclasses.replace(replay, info=RouterInfo(
                replay.router_id, "GB", True, 0.0, 36000.0)))
        data = server.store.to_study_data()
        stored_heartbeats = sum(len(log) for log in data.heartbeats.values())
        assert counter(registry, "records_ingested_total",
                       dataset="heartbeats") == stored_heartbeats
        assert counter(registry, "records_ingested_total",
                       dataset="uptime") == len(data.uptime_reports)
        assert len(data.routers) == 4


#: How the property below makes a drawn upload hostile (None: valid).
#: The last five are mis-shaped as an unpickled frame can be: built
#: around their constructors.
HOSTILITIES = (None, "foreign-batch", "other-country", "non-finite-send",
               "int-domain", "float-spectrum-code", "roster-first-after-last",
               "dns-txt-record", "stateless-upload", "batches-not-tuple",
               "columns-not-dict", "stateless-columns", "info-not-router")


def _drawn_upload(index, hostility):
    upload = make_upload(index)
    info = upload.info
    if hostility == "foreign-batch":
        return _with_batch(upload, make_upload(index + 1).batches[0])
    if hostility == "other-country":
        return dataclasses.replace(upload, info=RouterInfo(
            info.router_id, "GB", True, 0.0, 36000.0))
    if hostility == "non-finite-send":
        return dataclasses.replace(upload, heartbeat_sends=np.append(
            upload.heartbeat_sends, np.inf))
    if hostility == "int-domain":
        return _with_batch(upload, _columns("flows", info.router_id,
                                            domain=[5]))
    if hostility == "float-spectrum-code":
        # A batch mutated after its constructor checked it: in process
        # the store takes it as the 1/2 codes it casts to.
        return _with_batch(upload, _columns(
            "wifi_scans", info.router_id, spectrum=[1.0, 2.0]))
    if hostility == "roster-first-after-last":
        return _with_batch(upload, _columns("roster", info.router_id,
                                            first_seen=[3.0]))
    if hostility == "dns-txt-record":
        return _with_batch(upload, _columns("dns", info.router_id,
                                            record_type=["TXT"]))
    if hostility == "stateless-upload":
        return object.__new__(RouterUpload)
    if hostility == "batches-not-tuple":
        return _tampered(dataclasses.replace(upload), batches=5)
    if hostility == "columns-not-dict":
        return _with_batch(upload, _tampered(_uptime(info.router_id),
                                             columns=5))
    if hostility == "stateless-columns":
        return _with_batch(upload, object.__new__(ColumnarRecords))
    if hostility == "info-not-router":
        return _tampered(dataclasses.replace(upload), info="x")
    return upload


def _ingest_all(uploads):
    """Ingest *uploads* in order into a fresh lossy server; return each
    outcome (None when it raised) and what the server was left with."""
    registry = metrics.enable()
    registry.clear()
    server = make_server(loss=0.3)
    outcomes = []
    try:
        for upload in uploads:
            try:
                outcomes.append(server.ingest(upload))
            except ValueError:
                outcomes.append(None)
        counters = {key: value for key, value in registry.counters.items()
                    if key[0] != "ingest_rejections_total"}
    finally:
        metrics.disable()
    return outcomes, (study_digest(server.store.to_study_data()),
                      server.path.rng_state(), counters)


class TestRejectedUploadsLeaveNoTrace:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5),
                              st.sampled_from(HOSTILITIES)), max_size=10))
    def test_same_as_never_sent(self, draws):
        """Ingesting a sequence gives the digest, path RNG state and
        counters of the same sequence with its rejected uploads
        removed: a rejected upload leaves no trace."""
        uploads = [_drawn_upload(index, kind) for index, kind in draws]
        outcomes, left = _ingest_all(uploads)
        accepted = [upload for upload, outcome in zip(uploads, outcomes)
                    if outcome is not None]
        accepted_outcomes, accepted_left = _ingest_all(accepted)
        assert accepted_outcomes == [outcome for outcome in outcomes
                                     if outcome is not None]
        assert accepted_left == left


def run_daemon(coro_factory, config=None, loss=0.0):
    """Start a daemon, run the test coroutine against it, drain, stop."""
    daemon = make_daemon(config=config, loss=loss)

    async def _run():
        host, port = await daemon.start()
        try:
            return await coro_factory(daemon, host, port)
        finally:
            await daemon.stop()

    return daemon, asyncio.run(_run())


class TestDaemon:
    def test_upload_and_ack(self):
        async def scenario(daemon, host, port):
            async with IngestClient(host, port) as client:
                await client.ping()
                assert await client.upload(0, make_upload(0)) == "stored"
                assert await client.upload(1, make_upload(1)) == "stored"
            return None

        daemon, _ = run_daemon(scenario)
        assert daemon.routers_ingested == 2
        assert len(daemon.store.routers) == 2

    def test_out_of_order_uploads_ingest_in_order(self):
        async def scenario(daemon, host, port):
            async def send(seq):
                async with IngestClient(host, port) as client:
                    return await client.upload(seq, make_upload(seq))

            # seq 1 arrives first; its ACK must wait for seq 0.
            results = await asyncio.gather(send(1), send(0))
            assert results == ["stored", "stored"]

        daemon, _ = run_daemon(scenario)
        assert daemon.routers_ingested == 2

    def test_midframe_disconnect_leaves_store_consistent(self, registry):
        async def scenario(daemon, host, port):
            # A client dies halfway through a frame...
            reader, writer = await asyncio.open_connection(host, port)
            payload = pickle.dumps(("upload", 0, make_upload(0)))
            writer.write(FRAME_HEADER.pack(len(payload)))
            writer.write(payload[:len(payload) // 2])
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            await asyncio.sleep(0.05)
            # ... and a healthy client then uploads the same router.
            async with IngestClient(host, port) as client:
                assert await client.upload(0, make_upload(0)) == "stored"

        daemon, _ = run_daemon(scenario)
        assert daemon.routers_ingested == 1
        assert len(daemon.store.routers) == 1
        assert counter(registry, "net_midframe_disconnects_total") == 1

    def test_duplicate_retry_after_dropped_ack(self, registry):
        async def scenario(daemon, host, port):
            # First upload ACKs but the "client" never sees it (drops the
            # connection without reading), then retries on a fresh one —
            # exactly what IngestClient does after a lost ACK.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(("upload", 0, make_upload(0))))
            await writer.drain()
            await reader.readexactly(FRAME_HEADER.size)  # ACK is in flight
            writer.close()
            await writer.wait_closed()
            async with IngestClient(host, port) as client:
                status = await client.upload(0, make_upload(0))
            assert status == "duplicate"

        daemon, _ = run_daemon(scenario)
        assert daemon.routers_ingested == 1
        data = daemon.store.to_study_data()
        assert len(data.routers) == 1
        assert counter(registry, "uploads_duplicate_total") == 1

    def test_shed_then_retry_completes(self, registry):
        config = ServeConfig(port=0, reorder_window=4,
                             retry_after_seconds=0.005)

        async def scenario(daemon, host, port):
            async def send(seq):
                async with IngestClient(host, port) as client:
                    return await client.upload(seq, make_upload(seq))

            # With seq 0 missing, seqs 1-3 park and 4-11 lie beyond the
            # reorder window: each is shed until seq 0 arrives, and the
            # client retry absorbs it transparently.
            late = [asyncio.ensure_future(send(seq)) for seq in range(1, 12)]
            await until(lambda: counter(registry, "uploads_shed_total",
                                        reason="window") >= 8)
            results = await asyncio.gather(send(0), *late)
            assert all(status == "stored" for status in results)

        daemon, _ = run_daemon(scenario, config=config)
        assert daemon.routers_ingested == 12
        assert len(daemon.store.routers) == 12
        assert counter(registry, "uploads_shed_total", reason="window") > 0

    def test_invalid_upload_gets_error_response(self):
        async def scenario(daemon, host, port):
            bad = _foreign_uptime(make_upload(0))
            async with IngestClient(host, port) as client:
                with pytest.raises(ValueError):
                    await client.upload(0, bad)
                # The seq slot stays owed; a valid retry fills it.
                assert await client.upload(0, make_upload(0)) == "stored"

        daemon, _ = run_daemon(scenario)
        assert daemon.routers_ingested == 1
        assert len(daemon.store.routers) == 1

    def test_stateless_upload_gets_error_response(self):
        """An upload that unpickles without its fields is answered with
        an error, and its seq stays owed to a valid upload."""
        async def scenario(daemon, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(
                ("upload", 0, object.__new__(RouterUpload))))
            await writer.drain()
            reply = decode_payload(await read_payload(reader))
            writer.close()
            await writer.wait_closed()
            async with IngestClient(host, port) as client:
                status = await client.upload(0, make_upload(0))
            return reply, status

        daemon, (reply, status) = run_daemon(scenario)
        assert reply[:2] == ("error", 0)
        assert status == "stored"
        assert daemon.routers_ingested == 1

    def test_undecodable_frame_gets_error_response(self):
        """A frame that does not decode is answered before the daemon
        closes the connection, so a client learns why on its first
        round trip instead of resending the same bytes."""
        garbage = b"\x00not a pickle"

        async def scenario(daemon, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(FRAME_HEADER.pack(len(garbage)) + garbage)
            await writer.drain()
            reply = decode_payload(await read_payload(reader))
            writer.close()
            await writer.wait_closed()
            return reply

        daemon, reply = run_daemon(scenario)
        assert reply[:2] == ("error", -1)
        assert daemon.routers_ingested == 0

    def test_wait_complete_before_start_raises(self):
        daemon = make_daemon()
        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(daemon.wait_complete(1))

    @settings(max_examples=25, deadline=None)
    @given(st.permutations(range(8)))
    def test_any_arrival_order_ingests_in_seq_order(self, order):
        """Uploads arriving in any order, one per connection, are all
        stored, and the store equals an in-order ingest through the
        same lossy path: the loss draws follow seq order."""
        registry = metrics.enable()
        registry.clear()

        async def scenario(daemon, host, port):
            streams = {}
            for sent, seq in enumerate(order, 1):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(encode_frame(("upload", seq, make_upload(seq))))
                await writer.drain()
                streams[seq] = reader, writer
                await until(lambda: counter(registry,
                                            "net_frames_total") >= sent)
            replies = {}
            for seq, (reader, writer) in streams.items():
                replies[seq] = decode_payload(await read_payload(reader))
                writer.close()
                await writer.wait_closed()
            return replies

        try:
            daemon, replies = run_daemon(
                scenario, config=ServeConfig(port=0, reorder_window=8),
                loss=0.3)
        finally:
            metrics.disable()
        assert replies == {seq: ("ack", seq, "stored") for seq in range(8)}
        reference = make_server(loss=0.3, seed=11)
        for seq in range(8):
            reference.ingest(make_upload(seq))
        assert study_digest(daemon.store.to_study_data()) == \
            study_digest(reference.store.to_study_data())

    def test_parked_uploads_counted_on_stop(self):
        async def scenario(daemon, host, port):
            # seq 1 arrives but seq 0 never does: the upload parks
            # behind a gap that will not fill before shutdown.
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(encode_frame(("upload", 1, make_upload(1))))
            await writer.drain()
            await asyncio.sleep(0.05)  # let the handler park it
            writer.close()

        daemon, _ = run_daemon(scenario)
        assert daemon.routers_ingested == 0
        assert daemon.parked_discarded == 1


class TestDigestParity:
    def test_socket_path_matches_in_process(self):
        from repro.collection.engine import run_campaign
        from repro.simulation.deployment import (
            DeploymentConfig,
            build_deployment_plan,
        )

        plan = build_deployment_plan(DeploymentConfig(
            seed=11, windows=StudyWindows().scaled(0.02), router_scale=0.05,
            traffic_consents=2, low_activity_consents=0,
            countries=("US", "IN", "BR")))
        inproc = run_campaign(plan, workers=1, shard_size=2)
        socketed = run_campaign_over_socket(plan, shard_size=2)
        assert study_digest(socketed) == study_digest(inproc)

    def test_socket_campaign_counts_its_shards(self, registry):
        """Each shard's uploads are one engine ``ingest`` span, so every
        shard counts and its run seconds are observed, not left over."""
        from repro.collection.engine import shard_count
        from repro.simulation.deployment import (
            DeploymentConfig,
            build_deployment_plan,
        )

        plan = build_deployment_plan(DeploymentConfig(
            seed=2013, windows=StudyWindows().scaled(0.02), router_scale=0.2,
            traffic_consents=2, low_activity_consents=0))
        run_campaign_over_socket(plan, shard_size=2)
        assert shard_count(len(plan), 2) == 17
        assert registry.shard_runs == {}
        assert counter(registry, "shards_completed_total") == 17
        assert counter(registry, "routers_simulated_total") == len(plan)
        assert registry.histograms[("shard_seconds", ())]["count"] == 17


class TestLoadgen:
    def test_synthetic_upload_deterministic(self):
        a = synthetic_upload(5, SPAN, SMALL_LOAD)
        b = synthetic_upload(5, SPAN, SMALL_LOAD)
        assert a.router_id == b.router_id == "LG000005"
        assert np.array_equal(a.heartbeat_sends, b.heartbeat_sends)
        assert a.batches[0].columns == b.batches[0].columns
        assert list(a.batches[0]) == list(b.batches[0])
        other = synthetic_upload(6, SPAN, SMALL_LOAD)
        assert not np.array_equal(a.heartbeat_sends, other.heartbeat_sends)

    def test_load_config_validation(self):
        with pytest.raises(ValueError):
            LoadConfig(clients=0)
        with pytest.raises(ValueError):
            LoadConfig(clients=4, connections=8)
        with pytest.raises(ValueError):
            LoadConfig(heartbeats_per_upload=0)

    def test_loopback_run_stores_full_fleet(self):
        report, daemon = run_load_over_loopback(SMALL_LOAD)
        assert report.routers_stored == SMALL_LOAD.clients
        assert daemon.routers_ingested == SMALL_LOAD.clients
        assert len(daemon.store.routers) == SMALL_LOAD.clients
        expected = SMALL_LOAD.clients * SMALL_LOAD.records_per_upload
        assert report.records_sent == expected
        assert report.records_per_sec > 0
        data = daemon.store.to_study_data()
        assert len(data.uptime_reports) == SMALL_LOAD.clients

    def test_loopback_run_under_pressure(self):
        # A window of 1 admits only the next seq: the tightest admission.
        config = LoadConfig(clients=60, connections=6,
                            heartbeats_per_upload=4,
                            uptime_reports_per_upload=0, seed=5)
        serve = ServeConfig(reorder_window=1, retry_after_seconds=0.002)
        report, daemon = run_load_over_loopback(config, serve)
        assert report.routers_stored == config.clients
        assert report.sheds == report.retries
        assert daemon.routers_ingested == config.clients
