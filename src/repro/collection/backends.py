"""Pluggable record-store backends: in-memory lists or disk spill.

The :class:`~repro.collection.storage.RecordStore` owns registration and
consistency checks; a :class:`StoreBackend` owns where the records live.
It has three writes (:meth:`~StoreBackend.append`,
:meth:`~StoreBackend.put_heartbeats`, :meth:`~StoreBackend.put_throughput`),
two lookups of the keyed data sets (:meth:`~StoreBackend.holds`,
:meth:`~StoreBackend.stored`), the store's one record of who uploaded,
and one reader, :meth:`~StoreBackend.iter_homes`, through which both
:meth:`RecordStore.to_study_data` and the stream path read:

Every list write is one :class:`~repro.collection.batches.ColumnarRecords`
batch of one router.

* :class:`MemoryBackend` — every batch in RAM; a data set's first read
  builds its records, dropping each batch as its records are taken, and
  sorts them in place.
* :class:`SpillBackend` — bounded memory: list-dataset batches buffer as
  columns up to ``max_buffered_records``, then each dataset's buffer is
  sorted and written to a typed binary *segment* on disk, one packed
  :attr:`~repro.core.records.RowCodec.layout` row per record; a read
  merges the segments by home, one ``ColumnarRecords`` per home.  A
  keyed value spills immediately, one
  ``<dataset>/<router_id>.<field>.npy`` file per array field, while its
  scalars stay in RAM, so peak resident record count stays
  O(buffer + one upload chunk).  :meth:`SpillBackend.close` removes a
  directory the backend made.

Both backends read identical, deterministically-ordered records: a
segment stores each value as :meth:`~repro.core.records.RowCodec.to_row`
gives it, both sort by the same keys, and ``list.sort``, ``np.lexsort``
and ``heapq.merge`` are stable, so ties keep ingest order.

A segment, ``runs/<dataset>-<NNNNN>.seg``, is three ``np.save`` arrays
back to back: the string table as ``<i8`` end offsets and one UTF-8
``|u1`` blob (``surrogatepass``, so every ``str`` round-trips), then the
rows.  A read parses each header with numpy's format reader, no pickle,
and checks every length, dtype and code before it trusts it; a segment
that fails a check raises one ``ValueError`` that names the file.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import logging
import os
import tempfile
import tokenize
from abc import ABC, abstractmethod
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.collection.batches import ColumnarRecords
from repro.core.datasets import KEYED_DATASETS, HeartbeatLog, ThroughputSeries
from repro.core.records import LIST_DATASETS, RECORD_DATASETS, RowCodec
from repro import trace

logger = logging.getLogger(__name__)

#: Sort key per record-list data set: its record's first two fields,
#: ``router_id`` then ``timestamp`` (``device_mac`` for the roster).
SORT_KEYS: Dict[str, Callable] = {
    name: attrgetter(*(f.name for f in table.codec.fields[:2]))
    for name, table in RECORD_DATASETS.items()}

_ROUTER_ID = attrgetter("router_id")


class StoreBackend(ABC):
    """Where a RecordStore keeps records: three writes, two lookups, one
    reader."""

    @abstractmethod
    def append(self, dataset: str, records: ColumnarRecords) -> None:
        """Add one batch to *dataset*, one of the seven list datasets."""

    @abstractmethod
    def put_heartbeats(self, log: HeartbeatLog) -> None:
        """Store one router's delivered-heartbeat log (first upload only)."""

    @abstractmethod
    def put_throughput(self, series: ThroughputSeries) -> None:
        """Store one router's throughput series (first upload only)."""

    @abstractmethod
    def holds(self, dataset: str, router_id: str) -> bool:
        """Whether a keyed data set has *router_id*'s value (no file I/O)."""

    @abstractmethod
    def stored(self, dataset: str, router_id: str):
        """*router_id*'s value of a keyed data set."""

    @abstractmethod
    def iter_homes(self, dataset: str) -> Iterator[Tuple[str, object]]:
        """``(router_id, records)`` per home for any of the nine data sets.

        A list data set's records come sorted by :data:`SORT_KEYS`, one
        group per router; a heartbeat log or throughput series is one
        home's records, in ingest order.  The read never materializes a
        whole data set — the stream path relies on it to keep memory at
        O(sketch) — and a store may be read any number of times.
        """

    def close(self) -> None:
        """Release what the backend owns; it is not read afterwards."""

    def __enter__(self) -> "StoreBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MemoryBackend(StoreBackend):
    """Everything in RAM — the original store behaviour."""

    def __init__(self) -> None:
        #: Per data set, the batches appended since its last read, and
        #: the records its reads built from them.
        self._batches: Dict[str, List[ColumnarRecords]] = {
            name: [] for name in LIST_DATASETS}
        self._lists: Dict[str, List] = {name: [] for name in LIST_DATASETS}
        self._keyed: Dict[str, Dict[str, object]] = {
            name: {} for name in KEYED_DATASETS}

    def append(self, dataset: str, records: ColumnarRecords) -> None:
        self._batches[dataset].append(records)

    def put_heartbeats(self, log: HeartbeatLog) -> None:
        self._keyed["heartbeats"][log.router_id] = log

    def put_throughput(self, series: ThroughputSeries) -> None:
        self._keyed["throughput"][series.router_id] = series

    def holds(self, dataset: str, router_id: str) -> bool:
        return router_id in self._keyed[dataset]

    def stored(self, dataset: str, router_id: str):
        return self._keyed[dataset][router_id]

    def iter_homes(self, dataset: str) -> Iterator[Tuple[str, object]]:
        if dataset in KEYED_DATASETS:
            return iter(list(self._keyed[dataset].items()))
        records, batches = self._lists[dataset], self._batches[dataset]
        if batches:
            # Each batch is dropped as its records are taken, so a read
            # holds one batch's columns beside the records.
            batches.reverse()
            while batches:
                records.extend(batches.pop())
            records.sort(key=SORT_KEYS[dataset])
        return itertools.groupby(records, key=_ROUTER_ID)


# -- spill segments -----------------------------------------------------------

#: The string table's two arrays: end offsets, then the UTF-8 blob.
_STRING_ENDS = np.dtype("<i8")
_STRING_BLOB = np.dtype("|u1")


def _corrupt(path: Path, problem: str) -> ValueError:
    return ValueError(f"corrupt spill segment {path}: {problem}")


#: One buffered batch: its router's id and its columns after
#: ``router_id``, typed as the segment's (str columns still text).
_Chunk = Tuple[str, Dict[str, np.ndarray]]


def _batch_columns(records: ColumnarRecords) -> _Chunk:
    """One appended batch as a buffered chunk."""
    codec = RECORD_DATASETS[records.dataset].codec
    return records.router_id, {name: codec.array(name, column)
                               for name, column in records.columns.items()}


def _write_segment(path: Path, codec: RowCodec,
                   chunks: List[_Chunk]) -> None:
    """Sort one data set's buffered batches and write them as a segment."""
    router, *names = codec.layout.names
    columns = {name: np.concatenate([chunk[name] for _, chunk in chunks])
               for name in names}
    routers = [rid for rid, _ in chunks]
    strings = sorted(set(itertools.chain(routers, *(
        columns[name] for name in codec.text if name != router))))
    code = {string: index for index, string in enumerate(strings)}.__getitem__
    rows = np.empty(len(columns[names[0]]), dtype=codec.layout)
    # A batch's router is coded once and repeated over its rows.
    rows[router] = np.repeat(list(map(code, routers)),
                             [len(chunk[names[0]]) for _, chunk in chunks])
    for name, column in columns.items():
        rows[name] = np.fromiter(map(code, column), dtype="<i4",
                                 count=len(column)) \
            if name in codec.text else column
    # The table is sorted, so a str key's code is its rank: one stable
    # lexsort gives list.sort's order by SORT_KEYS, ties in ingest order.
    first, second = (rows[field.name] for field in codec.fields[:2])
    rows = rows[np.lexsort((second, first))]
    encoded = [string.encode("utf-8", "surrogatepass") for string in strings]
    with path.open("wb") as handle:
        np.save(handle, np.cumsum([len(blob) for blob in encoded],
                                  dtype=_STRING_ENDS), allow_pickle=False)
        np.save(handle, np.frombuffer(b"".join(encoded), dtype=_STRING_BLOB),
                allow_pickle=False)
        np.save(handle, rows, allow_pickle=False)


def _read_exact(handle, path: Path, size: int) -> bytes:
    data = handle.read(size)
    if len(data) != size:
        raise _corrupt(path, f"{size} bytes declared, {len(data)} present")
    return data


def _array_header(handle, path: Path, size: int, dtype: np.dtype) -> int:
    """Parse one ``np.save`` header of a 1-D *dtype* array that fits in
    the *size*-byte file; return its length, the handle at its data."""
    try:
        version = np.lib.format.read_magic(handle)
        if version != (1, 0):
            raise ValueError(f"format version {version}")
        shape, _, declared = np.lib.format.read_array_header_1_0(handle)
    except (ValueError, TypeError, SyntaxError, tokenize.TokenError) as exc:
        # numpy retries a header that does not parse through tokenize,
        # whose TokenError is not a ValueError.
        raise _corrupt(path, f"unreadable array header ({exc})") from exc
    if declared != dtype:
        raise _corrupt(path, f"dtype {declared} is not {dtype}")
    if len(shape) != 1:
        raise _corrupt(path, f"shape {shape} is not 1-D")
    if not 0 <= shape[0] * dtype.itemsize <= size - handle.tell():
        raise _corrupt(path, f"{shape[0]} {dtype} values overrun the file")
    return shape[0]


def _read_segment(handle, path: Path,
                  layout: np.dtype) -> Tuple[np.ndarray, int, int]:
    """Parse a segment's three headers and its string table, checking
    every size, dtype and offset before it is trusted.

    Returns the string table, the byte offset of the first row and the
    row count.
    """
    size = os.fstat(handle.fileno()).st_size
    count = _array_header(handle, path, size, _STRING_ENDS)
    ends = np.frombuffer(
        _read_exact(handle, path, count * _STRING_ENDS.itemsize),
        dtype=_STRING_ENDS).tolist()
    blob = _read_exact(handle, path,
                       _array_header(handle, path, size, _STRING_BLOB))
    rows = _array_header(handle, path, size, layout)
    bounds = list(zip([0, *ends[:-1]], ends))
    if not all(start <= end <= len(blob) for start, end in bounds):
        raise _corrupt(path, "string offsets leave the blob or decrease")
    try:
        strings = [blob[start:end].decode("utf-8", "surrogatepass")
                   for start, end in bounds]
    except UnicodeDecodeError as exc:
        raise _corrupt(path, f"string table is not UTF-8 ({exc})") from exc
    return np.array(strings, dtype=object), handle.tell(), rows


class SpillBackend(StoreBackend):
    """Bounded-memory backend: sorted binary segments on disk, merged
    lazily by home.

    *directory* is created (and left in place) when given; omitted, a
    private temporary directory is used and removed by :meth:`close`.
    ``max_buffered_records`` bounds the total list-dataset records held in
    RAM before a spill; :attr:`peak_buffered_records` reports the high-water
    mark so tests can assert the bound held.  A batch buffers as its
    columns, and no record object is built until a reader of records
    iterates a home.
    """

    def __init__(self, directory: Union[str, Path, None] = None,
                 max_buffered_records: int = 8192):
        if max_buffered_records <= 0:
            raise ValueError("max_buffered_records must be positive")
        self.max_buffered_records = max_buffered_records
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        if directory is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-spill-")
            self.root = Path(self._tmp.name)
        else:
            self.root = Path(directory)
        for sub in ("runs", *KEYED_DATASETS):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        #: Per data set, its buffered batches as segment columns.
        self._buffers: Dict[str, List[_Chunk]] = {
            name: [] for name in LIST_DATASETS}
        self._buffered = 0
        self._runs: Dict[str, List[Path]] = {name: [] for name in LIST_DATASETS}
        self._n_runs = 0
        self.peak_buffered_records = 0
        self._open_run_files = 0
        #: High-water mark of concurrently open run files during merges.
        #: The chunked readers open lazily and close between chunks, so
        #: this stays at 1 no matter how many runs a campaign spilled —
        #: a long campaign cannot exhaust the process fd limit.
        self.peak_open_run_files = 0
        #: Per keyed data set, router id -> its scalars in ingest order,
        #: so reads match MemoryBackend's dict order (exports iterate
        #: these dicts; sorted-glob order would differ).
        self._keyed: Dict[str, Dict[str, list]] = {
            name: {} for name in KEYED_DATASETS}

    # -- ingest ------------------------------------------------------------------

    def append(self, dataset: str, records: ColumnarRecords) -> None:
        if not len(records):
            return
        # Spill first if this batch would overflow the buffer, so the peak
        # resident count stays <= max(max_buffered_records, one batch).
        if self._buffered and \
                self._buffered + len(records) > self.max_buffered_records:
            self._spill()
        self._buffers[dataset].append(_batch_columns(records))
        self._buffered += len(records)
        self.peak_buffered_records = max(self.peak_buffered_records,
                                         self._buffered)
        if self._buffered >= self.max_buffered_records:
            self._spill()

    def put_heartbeats(self, log: HeartbeatLog) -> None:
        self._put_keyed("heartbeats", log)

    def put_throughput(self, series: ThroughputSeries) -> None:
        self._put_keyed("throughput", series)

    def _keyed_path(self, dataset: str, router_id: str, field: str) -> Path:
        return self.root / dataset / f"{router_id}.{field}.npy"

    def _put_keyed(self, dataset: str, value) -> None:
        table = KEYED_DATASETS[dataset]
        rid = value.router_id
        for field in table.arrays:
            np.save(self._keyed_path(dataset, rid, field),
                    np.asarray(getattr(value, field), dtype=float))
        # .item() turns a numpy scalar into the Python one of its
        # int/float kind, which the JSON state and the archive both keep.
        self._keyed[dataset][rid] = [
            np.asarray(getattr(value, name)).item() for name in table.scalars]

    def _spill(self) -> None:
        spilled = self._buffered
        if not spilled:
            # An empty spill (a repeated read, a checkpoint flush with
            # nothing buffered) must not advance the run numbering — it
            # would skew the store_spills_total run ids in the event log.
            return
        for dataset in LIST_DATASETS:
            chunks = self._buffers[dataset]
            if not chunks:
                continue
            path = self.root / "runs" / f"{dataset}-{self._n_runs:05d}.seg"
            _write_segment(path, RECORD_DATASETS[dataset].codec, chunks)
            self._runs[dataset].append(path)
            chunks.clear()
        self._buffered = 0
        self._n_runs += 1
        logger.debug("spilled %d records (run %d)", spilled,
                     self._n_runs - 1)
        trace.instant("store_spill", run=self._n_runs - 1, records=spilled)

    def close(self) -> None:
        """Remove the directory the backend made; a given one stays."""
        if self._tmp is not None:
            self._tmp.cleanup()

    # -- durability (checkpoint support) -----------------------------------------

    def flush(self) -> None:
        """Spill any buffered records so the on-disk runs are complete."""
        self._spill()

    def state_dict(self) -> dict:
        """Durable, JSON-able description of everything spilled so far.

        Flushes first, so every record ingested up to this call is
        referenced by the returned manifest.  Run file names are stored
        relative to the backend root — a checkpoint directory can be
        moved wholesale and still restore.
        """
        self.flush()
        return {
            "max_buffered_records": self.max_buffered_records,
            "n_runs": self._n_runs,
            "runs": {dataset: [path.name for path in self._runs[dataset]]
                     for dataset in LIST_DATASETS},
            "keyed": {dataset: dict(routers)
                      for dataset, routers in self._keyed.items()},
            "peak_buffered_records": self.peak_buffered_records,
        }

    def restore_state(self, state: dict) -> None:
        """Rebind this (fresh) backend to a :meth:`state_dict` snapshot.

        The backend must have been constructed over the same directory
        the snapshot was taken from; every referenced file is verified
        to exist, and every segment's headers to match its data set's
        row layout and to fit in the file.  Files *not* referenced
        (spill runs from a crashed, never-checkpointed shard) are
        ignored and harmlessly overwritten by later spills.
        """
        if self._buffered or any(self._runs[d] for d in LIST_DATASETS) \
                or any(self._keyed.values()):
            raise RuntimeError(
                "restore_state requires a fresh SpillBackend")
        runs = {dataset: [self.root / "runs" / name
                          for name in state["runs"].get(dataset, [])]
                for dataset in LIST_DATASETS}
        keyed = {dataset: dict(state["keyed"][dataset])
                 for dataset in KEYED_DATASETS}
        referenced = itertools.chain(
            *runs.values(),
            (self._keyed_path(dataset, rid, field)
             for dataset, routers in keyed.items() for rid in routers
             for field in KEYED_DATASETS[dataset].arrays))
        missing = [str(path) for path in referenced if not path.exists()]
        if missing:
            raise RuntimeError(
                "spill state references missing files: "
                + ", ".join(missing[:5]))
        for dataset, paths in runs.items():
            layout = RECORD_DATASETS[dataset].codec.layout
            for path in paths:
                try:
                    with path.open("rb") as handle:
                        _read_segment(handle, path, layout)
                except ValueError as exc:
                    raise RuntimeError(
                        f"spill state references an unreadable segment: "
                        f"{exc}") from exc
        self.max_buffered_records = int(state["max_buffered_records"])
        self._runs = runs
        self._n_runs = int(state["n_runs"])
        self._keyed = keyed
        self.peak_buffered_records = int(
            state.get("peak_buffered_records", 0))

    # -- reads -------------------------------------------------------------------

    #: Total rows resident across all segment readers during a merge;
    #: each reader gets ``max(32, budget // n_runs)`` rows per chunk.
    merge_chunk_records = 8192

    @contextlib.contextmanager
    def _open_run(self, path: Path) -> Iterator:
        """Open a run file, counted toward :attr:`peak_open_run_files`."""
        self._open_run_files += 1
        self.peak_open_run_files = max(self.peak_open_run_files,
                                       self._open_run_files)
        try:
            with path.open("rb") as handle:
                yield handle
        finally:
            self._open_run_files -= 1

    def _segment_homes(self, dataset: str, path: Path,
                       chunk: int) -> Iterator[Tuple[str, list]]:
        """Yield one segment's ``(router_id, parts)`` per home.

        A part is the home's rows of one chunk, a dict of its checked
        columns after ``router_id``.  The reader parses the headers once,
        then reads *chunk* rows at a time, opening the file only while it
        reads, so a merge over hundreds of segments keeps at most one
        file open.  Every size, dtype, code, column and row relation of a
        chunk is checked before any of its parts is yielded.
        """
        codec = RECORD_DATASETS[dataset].codec
        width = codec.layout.itemsize
        router, *names = codec.layout.names
        with self._open_run(path) as handle:
            strings, offset, n_rows = _read_segment(handle, path, codec.layout)
        rid, parts = None, []
        for lo in range(0, n_rows, chunk):
            count = min(chunk, n_rows - lo)
            with self._open_run(path) as handle:
                handle.seek(offset + lo * width)
                rows = np.frombuffer(_read_exact(handle, path, count * width),
                                     dtype=codec.layout)
            columns = {name: rows[name] for name in codec.layout.names}
            for name in codec.text:
                codes = columns[name]
                if not 0 <= codes.min() <= codes.max() < len(strings):
                    raise _corrupt(path, f"{name} code outside its table")
                columns[name] = strings[codes]
            try:
                codec.check_columns(columns)
            except ValueError as exc:
                raise _corrupt(path, f"bad row ({exc})") from exc
            routers = rows[router]
            cuts = (np.flatnonzero(routers[1:] != routers[:-1]) + 1).tolist()
            for start, end in zip([0, *cuts], [*cuts, count]):
                home = {name: columns[name][start:end] for name in names}
                home_rid = columns[router][start]
                if home_rid == rid:
                    parts.append(home)
                    continue
                if rid is not None:
                    if home_rid < rid:
                        raise _corrupt(path, "homes out of router order")
                    yield rid, parts
                rid, parts = home_rid, [home]
        if rid is not None:
            yield rid, parts

    def _merged_homes(self, dataset: str) -> Iterator[Tuple[str, object]]:
        """Merge one data set's segments by home.

        A home found in several segments, or cut by a chunk, is joined
        in run order; one found in several segments is then sorted
        stably on its second :data:`SORT_KEYS` column (its router is
        the first), the order a record-level merge of the runs gives.
        Each home is a :class:`~repro.collection.batches.ColumnarRecords`
        of its columns.
        """
        runs = self._runs[dataset]
        if not runs:
            return
        chunk = max(32, self.merge_chunk_records // len(runs))
        homes = heapq.merge(*(self._segment_homes(dataset, path, chunk)
                              for path in runs), key=itemgetter(0))
        names = RECORD_DATASETS[dataset].codec.layout.names[1:]
        for rid, group in itertools.groupby(homes, key=itemgetter(0)):
            segments = [parts for _, parts in group]
            parts = list(itertools.chain.from_iterable(segments))
            columns = parts[0] if len(parts) == 1 else {
                name: np.concatenate([part[name] for part in parts])
                for name in names}
            if len(segments) > 1:
                order = np.argsort(columns[names[0]], kind="stable")
                columns = {name: column[order]
                           for name, column in columns.items()}
            home = ColumnarRecords.__new__(ColumnarRecords)
            home.__setstate__((dataset, rid, columns))  # checked when read
            yield rid, home

    def holds(self, dataset: str, router_id: str) -> bool:
        return router_id in self._keyed[dataset]

    def stored(self, dataset: str, router_id: str):
        table = KEYED_DATASETS[dataset]
        return table.value(
            router_id=router_id,
            **dict(zip(table.scalars, self._keyed[dataset][router_id])),
            **{field: np.load(self._keyed_path(dataset, router_id, field))
               for field in table.arrays})

    def iter_homes(self, dataset: str) -> Iterator[Tuple[str, object]]:
        """``(router_id, records)`` per home, merged from the segments.

        A list data set's home is a
        :class:`~repro.collection.batches.ColumnarRecords` of its checked
        segment columns, which the folds read as they are and iteration
        turns into records.  A keyed value is loaded from its files.
        """
        if dataset in KEYED_DATASETS:
            return ((rid, self.stored(dataset, rid))
                    for rid in list(self._keyed[dataset]))
        self.flush()
        return self._merged_homes(dataset)
