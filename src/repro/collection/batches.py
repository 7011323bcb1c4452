"""Router uploads: the wire format between shard workers and the server.

A :class:`RouterUpload` is one home's upload, a fixed set of typed
fields: its registration metadata, its raw heartbeat *send* times, its
record-list data sets as :class:`ColumnarRecords` batches, and its
optional throughput series.  A shard worker does not ship one giant
column set per data set: :func:`build_upload`, the one way a producer
builds an upload, splits each list data set into bounded chunks so the
ingest side can stream them into a store without ever holding a whole
upload's records beyond the chunk size.  Uploads cross the process
boundary by pickling.

A :class:`ColumnarRecords` batch is the one container of list records,
from collector to store: one router's rows of one data set as columns
named by its record's :attr:`~repro.core.records.RowCodec.layout` after
``router_id`` (text as text, an enum as its code, an optional number as
a value column and its ``<name>_null`` flags); the record's
:class:`~repro.core.records.RowCodec` checks them.
"""

from __future__ import annotations

import asyncio
import io
import pickle
import struct
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.datasets import ThroughputSeries
from repro.core.records import LIST_DATASETS, RECORD_DATASETS, RouterInfo

#: Ceiling on records per list batch.
DEFAULT_BATCH_RECORDS = 2048


def _require(owner: str, name: str, value: object, expected: type) -> None:
    if not isinstance(value, expected):
        raise TypeError(f"{owner}.{name} must be a {expected.__name__}, "
                        f"not a {type(value).__name__}")


@dataclass(frozen=True)
class RouterUpload:
    """Everything one router sent.

    ``heartbeat_sends`` are raw *send* times: path loss is applied
    server-side, so delivery stays deterministic in ingest order.
    ``batches`` hold the record-list data sets in :data:`LIST_DATASETS`
    order, and ``throughput`` is the router's one-shot series, if any.
    """

    info: RouterInfo
    heartbeat_sends: np.ndarray
    batches: Tuple["ColumnarRecords", ...] = ()
    throughput: Optional[ThroughputSeries] = None

    def __post_init__(self) -> None:
        _require("RouterUpload", "info", self.info, RouterInfo)
        _require("RouterUpload", "heartbeat_sends", self.heartbeat_sends,
                 np.ndarray)
        _require("RouterUpload", "batches", self.batches, tuple)
        for batch in self.batches:
            _require("RouterUpload", "batches", batch, ColumnarRecords)
        if self.throughput is not None:
            _require("RouterUpload", "throughput", self.throughput,
                     ThroughputSeries)

    @property
    def router_id(self) -> str:
        return self.info.router_id

    @property
    def record_count(self) -> int:
        """Records sent: the sends, every list record and the throughput
        series' minutes."""
        count = len(self.heartbeat_sends)
        count += sum(map(len, self.batches))
        if self.throughput is not None:
            count += len(self.throughput)
        return count


def build_upload(info: RouterInfo, heartbeat_sends: np.ndarray,
                 lists: Mapping[str, Optional[Dict[str, Any]]],
                 throughput: Optional[ThroughputSeries] = None
                 ) -> RouterUpload:
    """One router's upload, its list data sets chunked into batches.

    *lists* maps a record-list data set to its column dict, the columns
    of a :class:`ColumnarRecords`.  Batches come in
    :data:`LIST_DATASETS` order, a chunk boundary every
    :data:`DEFAULT_BATCH_RECORDS` records; a missing or empty data set
    emits no batch.
    """
    rid = info.router_id
    batches: List[ColumnarRecords] = []
    for dataset in LIST_DATASETS:
        columns = lists.get(dataset)
        if not columns:
            continue
        batches += [ColumnarRecords(dataset, rid, {
            name: _narrowest(column[lo:lo + DEFAULT_BATCH_RECORDS])
            for name, column in columns.items()})
            for lo in range(0, max(map(len, columns.values())),
                            DEFAULT_BATCH_RECORDS)]
    return RouterUpload(info, heartbeat_sends, tuple(batches), throughput)


def _narrowest(column: Any) -> Any:
    """*column* as a batch ships it: an int array none of whose values is
    negative in the narrowest unsigned type that holds its largest, so
    it crosses in fewer bytes (a reader widens it with
    :meth:`~repro.core.records.RowCodec.array`); any other as it is."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu" \
            and column.dtype.itemsize > 1 and len(column) \
            and column.min() >= 0:
        return column.astype(np.min_scalar_type(column.max()), copy=False)
    return column


def batch_columns(dataset: str, rows: List[tuple]) -> Dict[str, Any]:
    """*rows* of a :class:`ColumnarRecords` of *dataset* (each a tuple of
    its columns, in order) as its column dict: text as lists of ``str``,
    every other column an array of its :attr:`layout` type."""
    codec = RECORD_DATASETS[dataset].codec
    names = codec.layout.names[1:]
    columns = zip(*rows) if rows else [()] * len(names)
    return {name: list(column) if name in codec.text
            else codec.array(name, column)
            for name, column in zip(names, columns)}


class ColumnarRecords:
    """One router's batch of one record-list data set, as columns;
    records are built lazily.

    Quacks like the record list a reader of records expects — ``len`` is
    free, iteration and indexing build the record dataclasses on first
    use and cache them.  Construction runs the codec's column check (the
    field rules and relations of each record's constructor), so the
    build skips them.  A column is a list (checked value by value) or a
    1-D array (checked by its dtype kind and extremes).

    A collector ships its columns as these batches, a store takes them,
    and a spill store's read yields each home as one, its columns sliced
    from the segments: the figure folds read the columns
    (:func:`~repro.core.datasets.home_columns`) or iterate the records,
    and only a reader of records, such as ``to_study_data``, builds them.

    The caller hands over ownership of the column lists or arrays; they
    must not be mutated afterwards.
    """

    __slots__ = ("dataset", "router_id", "columns", "_cache")

    def __init__(self, dataset: str, router_id: str,
                 columns: Dict[str, Any]) -> None:
        self.dataset = dataset
        self.router_id = router_id
        self.columns = columns
        self.__post_init__()

    def __post_init__(self) -> None:
        """The constructor's checks.  Named as a dataclass's check is, so
        the collection server reruns them on a decoded batch, or one
        changed since it was built, as it reruns every upload object's."""
        dataset, columns = self.dataset, self.columns
        _require("ColumnarRecords", "dataset", dataset, str)
        _require("ColumnarRecords", "router_id", self.router_id, str)
        _require("ColumnarRecords", "columns", columns, dict)
        table = RECORD_DATASETS.get(dataset)
        if table is None:
            raise ValueError(f"{dataset!r} is not a record-list data set")
        names = table.codec.layout.names[1:]
        if columns.keys() != set(names):
            raise ValueError(
                f"{dataset} columns must be exactly {sorted(names)}")
        # Typed before any is sized: a frame can nest any allowed object,
        # a batch holding itself among them.
        if not all(isinstance(column, (list, np.ndarray))
                   for column in columns.values()):
            raise ValueError(f"{dataset} columns must be lists or arrays")
        if len(set(map(len, columns.values()))) != 1:
            raise ValueError(f"{dataset} column lengths differ")
        self._cache: Optional[list] = None
        table.codec.check_columns(columns, self.router_id)

    def materialize(self) -> list:
        """The record list (built once, then cached)."""
        records = self._cache
        if records is None:
            records = RECORD_DATASETS[self.dataset].codec.from_columns(
                self.columns, self.router_id)
            self._cache = records
        return records

    def __len__(self) -> int:
        # Every column holds one value per row: the check saw to that.
        return len(next(iter(self.columns.values())))

    def __iter__(self) -> Iterator[Any]:
        return iter(self.materialize())

    def __getitem__(self, index):
        return self.materialize()[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ColumnarRecords({self.dataset!r}, {self.router_id!r}, "
                f"n={len(self)})")

    # Pickling ships the columns, never the built cache: the parent
    # process rebuilds at ingest, keeping the wire payload columnar.  A
    # frame's arrays hold bools or numbers, so text crosses as a list;
    # a text array fails here, not at the receiver.
    def __getstate__(self):
        if any(isinstance(column, np.ndarray)
               and column.dtype.kind not in "biuf"
               for column in self.columns.values()):
            raise FrameError("a batch's text columns cross as lists, "
                             "not arrays")
        return (self.dataset, self.router_id, self.columns)

    def __setstate__(self, state) -> None:
        # Unpickling runs no constructor: like every decoded object, a
        # batch from an untrusted frame is unchecked until the collection
        # server reruns its __post_init__.
        self.dataset, self.router_id, self.columns = state
        self._cache = None


# -- wire framing -------------------------------------------------------------
#
# The network ingest service (``collection.netserve``) carries the same
# ``RouterUpload`` payloads that cross the process boundary, but over
# TCP: each message is one length-prefixed frame — a 4-byte big-endian
# payload length followed by the pickled message.  An upload's fields are
# its ``RouterInfo``, its send-time array, a tuple of ``ColumnarRecords``
# batches and an optional ``ThroughputSeries``.  Messages are small
# tuples, ``(kind, ...)``:
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
# "error"     ("error", seq, text)           server→client: upload rejected,
#                                            or seq -1: frame undecodable
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
    payload.  The connection that produced it cannot be trusted further:
    the daemon answers ``("error", -1, reason)`` and closes it; the store
    is never touched."""


# -- safe deserialization ------------------------------------------------------
#
# Frame payloads arrive from peers the daemon must not trust, and plain
# ``pickle.loads`` hands such a peer arbitrary code execution (any
# ``__reduce__`` in the payload runs during unpickling).  Frames are
# therefore decoded with a restricted unpickler whose ``find_class``
# resolves only the globals a legal protocol message can reference: the
# upload, its batches, its router's metadata and throughput series, and
# the numpy machinery their arrays pickle through (no record object
# crosses the wire: a batch is columns).  Anything else — ``os.system``,
# ``builtins.eval``, a class smuggling a hostile reducer — is rejected
# before any object is constructed.  This bounds *what can exist* in a
# decoded payload; ``validate_message`` then checks its shape, and the
# collection server validates upload semantics.  The daemon is still
# meant for trusted networks (loopback by default): the allowlisted
# types accept attacker-chosen field values.  Unpickling runs no
# constructor, so the collection server re-runs every decoded object's
# ``__post_init__`` before ingest: the upload's checks each field's
# type, a batch's each column's values and each row's relations, and
# the router's and the series' their fields.  A rejected upload is
# answered with an error frame; a frame that does not decode is answered
# too, and then closes the connection.

class _WireDtype:
    """A frame's ``numpy.dtype``: a bool, int or float type, nothing else.

    Unpickling a dtype calls its constructor, then ``__setstate__`` with
    the frame's state, and numpy trusts that state: a hostile one can
    crash the process (``np.dtype("f8", False, True).__setstate__((3,
    "<", None, -1, -1, 0))`` does) or make an object dtype's elements raw
    pointers.  So a frame's dtype resolves to this stand-in, which takes
    only its type's own state (in either byte order), and the array
    helpers the allowlist wraps receive its :attr:`dtype`.
    """

    def __init__(self, spec: object, *_: object) -> None:
        dtype = np.dtype(spec) if isinstance(spec, str) else None
        if dtype is None or dtype.kind not in "biuf":
            raise FrameError("a frame's arrays hold bools or numbers")
        self.dtype = dtype

    def __setstate__(self, state: object) -> None:
        own = self.dtype.__reduce__()[2]
        if type(state) is not tuple or len(state) != len(own) \
                or state[1] not in ("<", ">", "|", "=") \
                or (state[0],) + state[2:] != (own[0],) + own[2:]:
            raise FrameError("a frame's dtype state is not its type's own")
        self.dtype = self.dtype.newbyteorder(state[1])


def _resolving_dtypes(helper: Any) -> Any:
    """*helper* called with each :class:`_WireDtype` argument's dtype."""
    def call(*args: object) -> Any:
        return helper(*(arg.dtype if isinstance(arg, _WireDtype) else arg
                        for arg in args))
    return call


def _safe_globals() -> Dict[Tuple[str, str], Any]:
    """Build the (module, qualname) -> object allowlist for frames."""
    from importlib import import_module

    from repro.core import datasets as _datasets
    from repro.core import records as _records

    allowed: Dict[Tuple[str, str], Any] = {
        (obj.__module__, obj.__qualname__): obj
        for obj in (RouterUpload, ColumnarRecords, _records.RouterInfo,
                    _datasets.ThroughputSeries)}
    allowed[("numpy", "dtype")] = _WireDtype
    # A contiguous array pickles through ``_frombuffer``, a numpy scalar
    # through ``scalar``.  (``_reconstruct``, the path of other arrays,
    # needs a real dtype in its state, which no frame can hold.)  The
    # helpers moved between ``numpy.core`` and ``numpy._core`` across
    # numpy versions; allow whichever exist so frames from either side
    # of the rename decode.  Newer numpy keeps ``numpy.core`` as a
    # deprecation shim — probing it must not warn on every daemon start.
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
            for name in ("scalar", "_frombuffer"):
                if hasattr(module, name):
                    allowed[(module_name, name)] = _resolving_dtypes(
                        getattr(module, name))
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
    # Only a str is compared or shown: a decoded object's ``__eq__`` and
    # ``__repr__`` may raise (an object unpickled without its state).
    if not isinstance(kind, str) or kind not in FRAME_KINDS:
        raise FrameError("unknown frame kind " + (
            repr(kind) if isinstance(kind, str) else type(kind).__name__))
    if kind == "upload":
        if len(message) != 3 or not isinstance(message[1], int) \
                or message[1] < 0 \
                or not isinstance(message[2], RouterUpload):
            raise FrameError("upload frames are (\"upload\", seq, "
                             "RouterUpload) with seq >= 0")
    elif kind == "ack":
        if len(message) != 3 or not isinstance(message[2], str) \
                or message[2] not in ("stored", "duplicate"):
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
