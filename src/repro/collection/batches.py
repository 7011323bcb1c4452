"""Record batches: the wire format between shard workers and the server.

A shard worker does not ship one giant :class:`RouterOutput` per home —
it splits every collector's records into bounded :class:`RecordBatch`
chunks so the ingest side can stream them into a store without ever
holding a whole upload's records beyond the chunk size.  A
:class:`RouterUpload` bundles one home's registration metadata with its
batches; uploads cross the process boundary by pickling.

A :class:`ColumnarRecords` batch lays one data set out as columns: the
record's fields after ``router_id`` in the order
:data:`~repro.core.records.RECORD_DATASETS` gives them, with a
``Spectrum`` field carried as its 1/2 code.
"""

from __future__ import annotations

import asyncio
import io
import itertools
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.records import (
    LIST_DATASETS,
    RECORD_DATASETS,
    SPECTRUM_2_4,
    SPECTRUM_5,
    SPECTRUM_BY_CODE,
    RouterInfo,
    Spectrum,
)
from repro.firmware.router import RouterOutput

#: All batchable datasets, including the two columnar ones.
DATASETS = ("heartbeats",) + LIST_DATASETS + ("throughput",)

#: Ceiling on records per list batch.
DEFAULT_BATCH_RECORDS = 2048


@dataclass(frozen=True)
class RecordBatch:
    """One chunk of one dataset from one router.

    ``records`` is a list of record dataclasses for the seven list
    datasets, the raw heartbeat *send-time* array for ``"heartbeats"``
    (path loss is applied server-side so delivery stays deterministic in
    ingest order), and a :class:`ThroughputSeries` for ``"throughput"``.
    """

    dataset: str
    router_id: str
    records: Any

    def __post_init__(self) -> None:
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}")


@dataclass(frozen=True)
class RouterUpload:
    """Everything one router sent: registration metadata plus batches."""

    info: RouterInfo
    batches: Tuple[RecordBatch, ...]

    @property
    def router_id(self) -> str:
        return self.info.router_id

    @property
    def record_count(self) -> int:
        """Total records across batches (a throughput series counts its
        minutes)."""
        return sum(len(batch.records) for batch in self.batches)


def _chunks(records: Sequence) -> Iterator[Sequence]:
    for start in range(0, len(records), DEFAULT_BATCH_RECORDS):
        yield records[start:start + DEFAULT_BATCH_RECORDS]


def router_output_to_batches(output: RouterOutput) -> List[RecordBatch]:
    """Split one router's output into bounded batches, in dataset order.

    The heartbeat batch is always emitted (even when empty) so every
    router keeps a heartbeat log entry, matching the monolithic upload
    path.  Empty list datasets emit no batch, also matching it.
    """
    rid = output.router_id
    batches = [RecordBatch("heartbeats", rid, output.heartbeat_sends)]
    for dataset in LIST_DATASETS:
        for chunk in _chunks(getattr(output, dataset)):
            batches.append(RecordBatch(dataset, rid, list(chunk)))
    if output.throughput is not None:
        batches.append(RecordBatch("throughput", rid, output.throughput))
    return batches


# -- columnar record batches --------------------------------------------------
#
# The columnar collection pass (``firmware.shard_collect``) produces each
# dataset as parallel plain-list columns rather than per-record dataclass
# instances.  ``ColumnarRecords`` carries those columns across the process
# boundary and materializes record objects only when the batch is iterated
# (at ingest) — validated in bulk per column at construction so the
# per-record ``__post_init__`` checks can be skipped during fabrication.


def _column_layout(dataset: str) -> Tuple[str, ...]:
    """The record's fields after ``router_id``; a Spectrum is a code."""
    return tuple(f"{field.name}_code" if field.kind is Spectrum
                 else field.name
                 for field in RECORD_DATASETS[dataset].codec.fields[1:])


#: Column names per columnar dataset, in record-field order after router_id.
COLUMNAR_DATASETS: Dict[str, Tuple[str, ...]] = {
    dataset: _column_layout(dataset)
    for dataset in ("uptime", "capacity", "device_counts", "wifi_scans")}

#: Per columnar dataset: the columns its record's constructor requires
#: to be finite and non-negative, and the error it raises.
_NON_NEGATIVE: Dict[str, Tuple[Tuple[str, ...], str]] = {
    "uptime": (("uptime_seconds",), "uptime must be finite and non-negative"),
    "capacity": (("downstream_mbps", "upstream_mbps"),
                 "capacity must be finite and non-negative"),
    "device_counts": (("wired", "wireless_2_4", "wireless_5"),
                      "device counts must be finite and non-negative"),
    "wifi_scans": (("neighbor_aps", "associated_clients", "channel"),
                   "scan counts must be finite and non-negative"),
}


def _fabricate(dataset: str, router_id: str,
               columns: Dict[str, list]) -> list:
    """Build one batch's records without running their constructors."""
    record_class = RECORD_DATASETS[dataset].record
    fields = RECORD_DATASETS[dataset].codec.fields
    values = [[SPECTRUM_BY_CODE[code] for code in columns[column]]
              if field.kind is Spectrum else columns[column]
              for field, column in zip(fields[1:],
                                       COLUMNAR_DATASETS[dataset])]
    names = tuple(field.name for field in fields)
    new = record_class.__new__
    out = []
    append = out.append
    for row in zip(itertools.repeat(router_id), *values):
        record = new(record_class)
        record.__dict__.update(zip(names, row))
        append(record)
    return out


class ColumnarRecords:
    """One batch's records as parallel columns, materialized lazily.

    Quacks like the record list the server and backends expect — ``len``
    is free, iteration and indexing fabricate the record dataclasses on
    first use and cache them.  The column invariants (the same checks each
    record's ``__post_init__`` would run) are enforced in bulk at
    construction, so fabrication can bypass ``__init__`` entirely.

    The caller hands over ownership of the column lists; they must not be
    mutated afterwards.
    """

    __slots__ = ("dataset", "router_id", "columns", "_length", "_cache")

    def __init__(self, dataset: str, router_id: str,
                 columns: Dict[str, list]) -> None:
        fields = COLUMNAR_DATASETS.get(dataset)
        if fields is None:
            raise ValueError(f"dataset {dataset!r} has no columnar layout")
        if set(columns) != set(fields):
            raise ValueError(
                f"{dataset} columns must be exactly {sorted(fields)}")
        lengths = {len(columns[name]) for name in fields}
        if len(lengths) != 1:
            raise ValueError(f"{dataset} column lengths differ")
        self.dataset = dataset
        self.router_id = router_id
        self.columns = columns
        self._length = lengths.pop()
        self._cache: Optional[list] = None
        self._validate()

    def _validate(self) -> None:
        cols = self.columns
        names, message = _NON_NEGATIVE[self.dataset]
        for name in names:
            # Numbers only: a float dtype would turn "5" into 5.0.
            values = np.asarray(cols[name])
            if values.dtype.kind not in "biuf" or values.ndim != 1 or not (
                    np.isfinite(values) & (values >= 0)).all():
                raise ValueError(message)
        if self.dataset == "wifi_scans" and not (
                set(cols["spectrum_code"]) <= {SPECTRUM_2_4, SPECTRUM_5}):
            raise ValueError(
                "wifi spectrum codes must be 1 (2.4 GHz) or 2 (5 GHz)")

    def materialize(self) -> list:
        """The fabricated record list (built once, then cached)."""
        records = self._cache
        if records is None:
            records = _fabricate(self.dataset, self.router_id, self.columns)
            self._cache = records
        return records

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[Any]:
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ColumnarRecords({self.dataset!r}, {self.router_id!r}, "
                f"n={self._length})")

    # Pickling ships the columns, never the fabricated cache: the parent
    # process re-fabricates at ingest, keeping the wire payload columnar.
    def __getstate__(self):
        return (self.dataset, self.router_id, self.columns, self._length)

    def __setstate__(self, state) -> None:
        # Unpickling runs no constructor, and a frame's columns are
        # untrusted: re-run the constructor's checks, and count the
        # columns rather than trust the shipped length.
        dataset, router_id, columns, _ = state
        self.__init__(dataset, router_id, columns)


def columnar_batches(dataset: str, router_id: str,
                     columns: Optional[Dict[str, list]]) -> List[RecordBatch]:
    """Chunk one dataset's columns into :class:`ColumnarRecords` batches.

    Mirrors :func:`router_output_to_batches`: empty (or ``None``) datasets
    emit no batch and chunk boundaries land every
    :data:`DEFAULT_BATCH_RECORDS` records.
    """
    if columns is None:
        return []
    fields = COLUMNAR_DATASETS[dataset]
    length = len(columns[fields[0]])
    if length == 0:
        return []
    if length <= DEFAULT_BATCH_RECORDS:
        return [RecordBatch(dataset, router_id,
                            ColumnarRecords(dataset, router_id, columns))]
    batches = []
    for lo in range(0, length, DEFAULT_BATCH_RECORDS):
        chunk = {name: columns[name][lo:lo + DEFAULT_BATCH_RECORDS]
                 for name in fields}
        batches.append(RecordBatch(
            dataset, router_id, ColumnarRecords(dataset, router_id, chunk)))
    return batches


def list_batches(dataset: str, router_id: str,
                 records: Sequence) -> List[RecordBatch]:
    """Chunk a plain record list, matching :func:`router_output_to_batches`."""
    return [RecordBatch(dataset, router_id, list(chunk))
            for chunk in _chunks(records)]


# -- wire framing -------------------------------------------------------------
#
# The network ingest service (``collection.netserve``) carries the same
# ``RouterUpload``/``RecordBatch`` payloads that cross the process boundary
# today, but over TCP: each message is one length-prefixed frame —
# a 4-byte big-endian payload length followed by the pickled message.
# Messages are small tuples, ``(kind, ...)``:
#
# ==========  =============================  ==================================
# kind        shape                          direction / meaning
# ==========  =============================  ==================================
# "upload"    ("upload", seq, RouterUpload)  client→server: one router's upload
#                                            at deployment-order position *seq*
# "ack"       ("ack", seq, status)           server→client: durably ingested;
#                                            status is "stored" or "duplicate"
# "retry"     ("retry", seq, after_seconds)  server→client: shed under overload
#                                            — resend after *after_seconds*
# "error"     ("error", seq, text)           server→client: upload rejected
# "ping"      ("ping",) / ("pong",)          liveness probe round trip
# "bye"       ("bye",)                       client→server: clean close
# ==========  =============================  ==================================
#
# The length prefix is the whole protocol state machine: the one reader,
# :func:`read_payload`, pulls exactly 4 bytes, validates the length
# against :data:`DEFAULT_MAX_FRAME_BYTES` (a hostile or corrupt prefix
# must not trigger a giant allocation), then pulls exactly that many
# payload bytes.  A connection that dies mid-frame leaves nothing
# ambiguous — the partial read is detected and the connection dropped
# without touching the store.  Payloads are encoded with pickle but
# *decoded* with a restricted unpickler that resolves only the
# protocol's own types (see "safe deserialization" below), so a hostile
# payload cannot execute code during deserialization.

#: Length prefix: one unsigned 32-bit big-endian payload size.
FRAME_HEADER = struct.Struct("!I")

#: Ceiling on one frame's payload size (64 MiB — far above any real
#: upload; a prefix past this is treated as corruption, not data).
DEFAULT_MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Message kinds either side may legally put on the wire.
FRAME_KINDS = ("upload", "ack", "retry", "error", "ping", "pong", "bye")


class FrameError(ValueError):
    """A malformed frame: bad length prefix, undecodable or non-protocol
    payload.  The connection that produced it cannot be trusted further
    and is closed; the store is never touched."""


# -- safe deserialization ------------------------------------------------------
#
# Frame payloads arrive from peers the daemon must not trust, and plain
# ``pickle.loads`` hands such a peer arbitrary code execution (any
# ``__reduce__`` in the payload runs during unpickling).  Frames are
# therefore decoded with a restricted unpickler whose ``find_class``
# resolves only the globals a legal protocol message can reference: the
# protocol dataclasses, the record types they carry, and the numpy
# machinery their arrays pickle through.  Anything else — ``os.system``,
# ``builtins.eval``, a class smuggling a hostile reducer — is rejected
# before any object is constructed.  This bounds *what can exist* in a
# decoded payload; ``validate_message`` then checks its shape, and the
# collection server validates upload semantics.  The daemon is still
# meant for trusted networks (loopback by default): the allowlisted
# types accept attacker-chosen field values.  Unpickling runs no
# constructor, so a ``ColumnarRecords`` re-runs its checks as it is
# unpickled, and the collection server re-runs every other object's
# ``__post_init__`` and checks each batch's record class before ingest.
# Field *types* are not checked.

def _safe_globals() -> Dict[Tuple[str, str], Any]:
    """Build the (module, qualname) -> object allowlist for frames."""
    from importlib import import_module

    import numpy as np

    from repro.core import datasets as _datasets
    from repro.core import records as _records

    allowed: Dict[Tuple[str, str], Any] = {}
    for obj in (
            RecordBatch, RouterUpload, ColumnarRecords,
            _records.RouterInfo, _records.Spectrum, _records.Medium,
            _datasets.ThroughputSeries,
            *(table.record for table in RECORD_DATASETS.values()),
    ):
        allowed[(obj.__module__, obj.__qualname__)] = obj
    allowed[("numpy", "ndarray")] = np.ndarray
    allowed[("numpy", "dtype")] = np.dtype
    # The ndarray reconstruction helpers moved between ``numpy.core``
    # and ``numpy._core`` across numpy versions; allow whichever exist
    # so frames from either side of the rename decode.  Newer numpy
    # keeps ``numpy.core`` as a deprecation shim — probing it must not
    # warn on every daemon start.
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        for module_name in ("numpy.core.multiarray",
                            "numpy._core.multiarray",
                            "numpy.core.numeric", "numpy._core.numeric"):
            try:
                module = import_module(module_name)
            except ImportError:  # pragma: no cover - numpy-version gated
                continue
            for name in ("_reconstruct", "scalar", "_frombuffer"):
                if hasattr(module, name):
                    allowed[(module_name, name)] = getattr(module, name)
    return allowed


_SAFE_GLOBALS: Optional[Dict[Tuple[str, str], Any]] = None


class _RestrictedUnpickler(pickle.Unpickler):
    """Unpickler that resolves only the protocol's allowlisted globals."""

    def find_class(self, module: str, name: str) -> Any:
        global _SAFE_GLOBALS
        if _SAFE_GLOBALS is None:  # built lazily to avoid import cycles
            _SAFE_GLOBALS = _safe_globals()
        try:
            return _SAFE_GLOBALS[(module, name)]
        except KeyError:
            raise FrameError(
                f"frame payload references disallowed global "
                f"{module}.{name}") from None


def encode_frame(message: Tuple) -> bytes:
    """Serialize one protocol message into a length-prefixed frame."""
    validate_message(message)
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > DEFAULT_MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{DEFAULT_MAX_FRAME_BYTES}-byte frame ceiling")
    return FRAME_HEADER.pack(len(payload)) + payload


async def read_payload(reader: asyncio.StreamReader) -> bytes:
    """Read one frame off *reader*; returns its payload bytes.

    The length is checked before any payload byte is read.  A stream
    that ends mid-frame raises :class:`asyncio.IncompleteReadError`.
    """
    header = await reader.readexactly(FRAME_HEADER.size)
    (length,) = FRAME_HEADER.unpack(header)
    if length == 0 or length > DEFAULT_MAX_FRAME_BYTES:
        raise FrameError(f"invalid frame length {length}")
    return await reader.readexactly(length)


def decode_payload(payload: bytes) -> Tuple:
    """Deserialize and validate one frame's payload bytes.

    Decoding never runs attacker code: the restricted unpickler rejects
    any payload referencing a global outside the protocol allowlist.
    """
    try:
        message = _RestrictedUnpickler(io.BytesIO(payload)).load()
    except FrameError:
        raise
    except Exception as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    validate_message(message)
    return message


def validate_message(message: object) -> Tuple:
    """Reject anything that is not a well-formed protocol message."""
    if not isinstance(message, tuple) or not message:
        raise FrameError("frame payload must be a non-empty tuple")
    kind = message[0]
    if kind not in FRAME_KINDS:
        raise FrameError(f"unknown frame kind {kind!r}")
    if kind == "upload":
        if len(message) != 3 or not isinstance(message[1], int) \
                or message[1] < 0 \
                or not isinstance(message[2], RouterUpload):
            raise FrameError("upload frames are (\"upload\", seq, "
                             "RouterUpload) with seq >= 0")
    elif kind == "ack":
        if len(message) != 3 or message[2] not in ("stored", "duplicate"):
            raise FrameError("ack frames are (\"ack\", seq, status)")
    elif kind == "retry":
        if len(message) != 3 or not isinstance(message[2], (int, float)) \
                or message[2] <= 0:
            raise FrameError("retry frames are (\"retry\", seq, "
                             "after_seconds) with a positive delay")
    elif kind == "error":
        if len(message) != 3 or not isinstance(message[2], str):
            raise FrameError("error frames are (\"error\", seq, text)")
    elif len(message) != 1:
        raise FrameError(f"{kind!r} frames carry no payload")
    return message
