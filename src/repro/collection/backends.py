"""Pluggable record-store backends: in-memory lists or disk spill.

The :class:`~repro.collection.storage.RecordStore` owns registration and
consistency checks; a :class:`StoreBackend` owns where the records live.
It has three writes (:meth:`~StoreBackend.append`,
:meth:`~StoreBackend.put_heartbeats`, :meth:`~StoreBackend.put_throughput`),
two lookups of the keyed data sets (:meth:`~StoreBackend.holds`,
:meth:`~StoreBackend.stored`), the store's one record of who uploaded,
and one reader, :meth:`~StoreBackend.iter_homes`, through which both
:meth:`RecordStore.to_study_data` and the stream path read:

* :class:`MemoryBackend` — every record in RAM; a read sorts the data
  set's list in place.
* :class:`SpillBackend` — bounded memory: list-dataset records buffer up
  to ``max_buffered_records``, then each dataset's buffer is sorted and
  appended to a JSONL *run* file on disk, one
  :meth:`~repro.core.records.RowCodec.to_row` row per line; a read
  k-way merge-sorts the runs.  A keyed value spills immediately, one
  ``<dataset>/<router_id>.<field>.npy`` file per array field, while its
  scalars stay in RAM, so peak resident record count stays
  O(buffer + one upload chunk).

Both backends read identical, deterministically-ordered records: JSON
round-trips floats exactly (shortest-repr encoding), both sort by the
same keys, and ``list.sort`` and ``heapq.merge`` are stable, so ties
keep ingest order.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import tempfile
from abc import ABC, abstractmethod
from operator import attrgetter
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.core.datasets import KEYED_DATASETS, HeartbeatLog, ThroughputSeries
from repro.core.records import LIST_DATASETS, RECORD_DATASETS
from repro.telemetry import events, metrics

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
    def append(self, dataset: str, records: Sequence) -> None:
        """Add records to one of the seven list datasets."""

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


class MemoryBackend(StoreBackend):
    """Everything in RAM — the original store behaviour."""

    def __init__(self) -> None:
        self._lists: Dict[str, List] = {name: [] for name in LIST_DATASETS}
        self._keyed: Dict[str, Dict[str, object]] = {
            name: {} for name in KEYED_DATASETS}

    def append(self, dataset: str, records: Sequence) -> None:
        self._lists[dataset].extend(records)

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
        records = self._lists[dataset]
        records.sort(key=SORT_KEYS[dataset])
        return itertools.groupby(records, key=_ROUTER_ID)


class SpillBackend(StoreBackend):
    """Bounded-memory backend: sorted JSONL runs on disk, merged lazily.

    *directory* is created (and left in place) when given; omitted, a
    private temporary directory is used and cleaned up with the backend.
    ``max_buffered_records`` bounds the total list-dataset records held in
    RAM before a spill; :attr:`peak_buffered_records` reports the high-water
    mark so tests can assert the bound held.
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
        self._buffers: Dict[str, List] = {name: [] for name in LIST_DATASETS}
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

    def append(self, dataset: str, records: Sequence) -> None:
        # Spill first if this batch would overflow the buffer, so the peak
        # resident count stays <= max(max_buffered_records, one batch).
        if self._buffered and \
                self._buffered + len(records) > self.max_buffered_records:
            self._spill()
        self._buffers[dataset].extend(records)
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
            buffer = self._buffers[dataset]
            if not buffer:
                continue
            buffer.sort(key=SORT_KEYS[dataset])
            path = self.root / "runs" / f"{dataset}-{self._n_runs:05d}.jsonl"
            to_row = RECORD_DATASETS[dataset].codec.to_row
            with path.open("w") as handle:
                for record in buffer:
                    handle.write(json.dumps(to_row(record)))
                    handle.write("\n")
            self._runs[dataset].append(path)
            buffer.clear()
        self._buffered = 0
        self._n_runs += 1
        logger.debug("spilled %d records (run %d)", spilled,
                     self._n_runs - 1)
        metrics.inc("store_spills_total")
        metrics.inc("spilled_records_total", spilled)
        events.emit("store_spill", run=self._n_runs - 1, records=spilled)

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
        to exist.  Files *not* referenced (spill runs from a crashed,
        never-checkpointed shard) are ignored and harmlessly
        overwritten by later spills.
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
        self.max_buffered_records = int(state["max_buffered_records"])
        self._runs = runs
        self._n_runs = int(state["n_runs"])
        self._keyed = keyed
        self.peak_buffered_records = int(
            state.get("peak_buffered_records", 0))

    # -- reads -------------------------------------------------------------------

    #: Total records resident across all run readers during a merge; each
    #: reader gets ``max(32, budget // n_runs)`` records per chunk.
    merge_chunk_records = 8192

    def _read_run_chunked(self, dataset: str, path: Path,
                          chunk: int) -> Iterator:
        """Yield one run's records, opening the file only while reading.

        The handle is opened lazily at the first pull, reads *chunk*
        records, remembers the byte offset, and closes again — so a
        k-way merge over hundreds of runs keeps at most one run file
        open at any instant instead of one per run.
        """
        from_row = RECORD_DATASETS[dataset].codec.from_row
        offset = 0
        while True:
            self._open_run_files += 1
            self.peak_open_run_files = max(self.peak_open_run_files,
                                           self._open_run_files)
            try:
                with path.open() as handle:
                    handle.seek(offset)
                    lines = []
                    for _ in range(chunk):
                        line = handle.readline()
                        if not line:
                            break
                        lines.append(line)
                    offset = handle.tell()
            finally:
                self._open_run_files -= 1
            if not lines:
                return
            for line in lines:
                yield from_row(json.loads(line))

    def _merged_runs(self, dataset: str) -> Iterator:
        """Heap-merge one dataset's sorted runs lazily off disk."""
        runs = self._runs[dataset]
        if not runs:
            return iter(())
        chunk = max(32, self.merge_chunk_records // len(runs))
        readers = [self._read_run_chunked(dataset, path, chunk)
                   for path in runs]
        return heapq.merge(*readers, key=SORT_KEYS[dataset])

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
        if dataset in KEYED_DATASETS:
            return ((rid, self.stored(dataset, rid))
                    for rid in list(self._keyed[dataset]))
        self.flush()
        return itertools.groupby(self._merged_runs(dataset), key=_ROUTER_ID)
