"""Pluggable record-store backends: in-memory lists or disk spill.

The :class:`~repro.collection.storage.RecordStore` owns registration and
consistency checks; a :class:`StoreBackend` owns where the records live.
It has three writes (:meth:`~StoreBackend.append`,
:meth:`~StoreBackend.put_heartbeats`, :meth:`~StoreBackend.put_throughput`)
and one reader, :meth:`~StoreBackend.iter_homes`, through which both
:meth:`RecordStore.to_study_data` and the stream path read:

* :class:`MemoryBackend` — every record in RAM; a read sorts the data
  set's list in place.
* :class:`SpillBackend` — bounded memory: list-dataset records buffer up
  to ``max_buffered_records``, then each dataset's buffer is sorted and
  appended to a JSONL *run* file on disk, one
  :meth:`~repro.core.records.RowCodec.to_row` row per line; a read
  k-way merge-sorts the runs.  The two columnar datasets (heartbeat
  timestamp arrays, per-minute throughput series) spill immediately as
  per-router ``.npy``/``.npz`` files, so peak resident record count
  stays O(buffer + one upload chunk).

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

from repro.core.datasets import HeartbeatLog, ThroughputSeries
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
    """Where a RecordStore keeps records: three writes, one reader."""

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
        self._heartbeats: Dict[str, HeartbeatLog] = {}
        self._throughput: Dict[str, ThroughputSeries] = {}

    def append(self, dataset: str, records: Sequence) -> None:
        self._lists[dataset].extend(records)

    def put_heartbeats(self, log: HeartbeatLog) -> None:
        self._heartbeats[log.router_id] = log

    def put_throughput(self, series: ThroughputSeries) -> None:
        self._throughput[series.router_id] = series

    def iter_homes(self, dataset: str) -> Iterator[Tuple[str, object]]:
        if dataset == "heartbeats":
            return iter(list(self._heartbeats.items()))
        if dataset == "throughput":
            return iter(list(self._throughput.items()))
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
        for sub in ("runs", "heartbeats", "throughput"):
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
        # Ingest order, so reads match MemoryBackend's dict order
        # (exports iterate these dicts; sorted-glob order would differ).
        self._heartbeat_order: List[str] = []
        self._throughput_order: List[str] = []

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
        self._heartbeat_order.append(log.router_id)
        np.save(self.root / "heartbeats" / f"{log.router_id}.npy",
                np.asarray(log.timestamps, dtype=float))

    def put_throughput(self, series: ThroughputSeries) -> None:
        self._throughput_order.append(series.router_id)
        # start/interval as 0-d arrays: .item() on load restores the native
        # Python scalar with its int/float kind intact (a shared meta array
        # would silently promote an int interval to float).
        np.savez(self.root / "throughput" / f"{series.router_id}.npz",
                 up_bps=np.asarray(series.up_bps, dtype=float),
                 down_bps=np.asarray(series.down_bps, dtype=float),
                 start=np.array(series.start),
                 interval=np.array(series.interval_seconds))

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
            "heartbeat_order": list(self._heartbeat_order),
            "throughput_order": list(self._throughput_order),
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
        if self._buffered or any(self._runs[d] for d in LIST_DATASETS):
            raise RuntimeError(
                "restore_state requires a fresh SpillBackend")
        missing: List[str] = []
        runs: Dict[str, List[Path]] = {}
        for dataset in LIST_DATASETS:
            runs[dataset] = []
            for name in state["runs"].get(dataset, []):
                path = self.root / "runs" / name
                if not path.exists():
                    missing.append(str(path))
                runs[dataset].append(path)
        for rid in state.get("heartbeat_order", []):
            if not (self.root / "heartbeats" / f"{rid}.npy").exists():
                missing.append(f"heartbeats/{rid}.npy")
        for rid in state.get("throughput_order", []):
            if not (self.root / "throughput" / f"{rid}.npz").exists():
                missing.append(f"throughput/{rid}.npz")
        if missing:
            raise RuntimeError(
                "spill state references missing files: "
                + ", ".join(missing[:5]))
        self.max_buffered_records = int(state["max_buffered_records"])
        self._runs = runs
        self._n_runs = int(state["n_runs"])
        self._heartbeat_order = list(state.get("heartbeat_order", []))
        self._throughput_order = list(state.get("throughput_order", []))
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

    def _load_throughput(self, rid: str) -> ThroughputSeries:
        with np.load(self.root / "throughput" / f"{rid}.npz") as archive:
            return ThroughputSeries(
                router_id=rid,
                start=archive["start"].item(),
                up_bps=archive["up_bps"],
                down_bps=archive["down_bps"],
                interval_seconds=archive["interval"].item(),
            )

    def iter_homes(self, dataset: str) -> Iterator[Tuple[str, object]]:
        if dataset == "heartbeats":
            return ((rid, HeartbeatLog(
                rid, np.load(self.root / "heartbeats" / f"{rid}.npy")))
                for rid in list(self._heartbeat_order))
        if dataset == "throughput":
            return ((rid, self._load_throughput(rid))
                    for rid in list(self._throughput_order))
        self.flush()
        return itertools.groupby(self._merged_runs(dataset), key=_ROUTER_ID)
