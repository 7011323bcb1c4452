"""The server-side record store: accumulates router uploads into StudyData.

The store owns *consistency* (router registration, re-upload conflict
detection) and delegates *residency* to a pluggable
:class:`~repro.collection.backends.StoreBackend` — in-memory lists by
default, or a bounded-memory disk-spill backend for large campaigns.
Every read goes through the backend's one reader, ``iter_homes``:
:meth:`RecordStore.to_study_data` builds its lists from it, and the
stream path folds it home by home.
The seven record-list data sets share one entry point,
:meth:`RecordStore.add_records`, keyed by their name in
:data:`~repro.core.records.RECORD_DATASETS`.

The collection server settles a whole upload before its first add,
through :meth:`RecordStore.has_upload`,
:meth:`RecordStore.check_registration` and
:meth:`RecordStore.check_throughput`, which mutate nothing; it then
applies the upload through the add methods.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.datasets import HeartbeatLog, StudyData, ThroughputSeries
from repro.core.records import RECORD_DATASETS, RouterInfo
from repro.simulation.timebase import StudyWindows
from repro.collection.backends import MemoryBackend, StoreBackend
from repro.telemetry import events, metrics

logger = logging.getLogger(__name__)


def _array_fingerprint(values: np.ndarray) -> Tuple[int, str]:
    """Cheap identity for an upload's array payload (size + content hash)."""
    array = np.ascontiguousarray(np.asarray(values, dtype=float))
    return int(array.size), hashlib.sha256(array.tobytes()).hexdigest()


class RecordStore:
    """Mutable accumulator for one study's records.

    The collection server feeds this as router uploads arrive;
    :meth:`to_study_data` freezes the result for analysis.
    """

    def __init__(self, windows: StudyWindows,
                 backend: Optional[StoreBackend] = None):
        self.windows = windows
        self.backend = backend if backend is not None else MemoryBackend()
        self._routers: Dict[str, RouterInfo] = {}
        #: Upload fingerprints for the two one-shot-per-router datasets, so
        #: a conflicting re-upload is rejected while an identical retry
        #: (an at-least-once delivery duplicate) is an idempotent no-op.
        self._heartbeat_uploads: Dict[str, Tuple[int, str]] = {}
        self._throughput_uploads: Dict[str, Tuple[int, str, float, float]] = {}
        #: Heartbeat loss accounting: router_id -> (sent, delivered), fed
        #: by the collection server so the health report can attribute
        #: missing heartbeats to the path instead of guessing.
        self.heartbeat_delivery: Dict[str, Tuple[int, int]] = {}

    @property
    def routers(self) -> Dict[str, RouterInfo]:
        """Registered router metadata (read-only view; do not mutate)."""
        return self._routers

    def check_registration(self, info: RouterInfo) -> None:
        """Raise if *info* conflicts with an existing registration."""
        existing = self._routers.get(info.router_id)
        if existing is not None and existing != info:
            raise ValueError(
                f"conflicting registration for router {info.router_id!r}")

    def register_router(self, info: RouterInfo) -> None:
        """Record deployment metadata; re-registration must be consistent."""
        self.check_registration(info)
        self._routers[info.router_id] = info

    def has_upload(self, router_id: str) -> bool:
        """True when a full upload for *router_id* already ingested.

        Every upload carries exactly one heartbeat batch, so a stored
        heartbeat fingerprint marks the router's upload as ingested.
        This is the collection server's one duplicate check: an
        at-least-once retry — to the same daemon or to one *restarted
        over an existing store* — is a no-op instead of double-appending
        list datasets.
        """
        return router_id in self._heartbeat_uploads

    def unregister_router(self, router_id: str) -> None:
        """Withdraw a registration that never ingested any data.

        The collection server uses this to make registration + batch
        ingest all-or-nothing: a registration made for an upload that
        then fails to ingest is rolled back, so a failed upload cannot
        leave a registered-but-empty router inflating cohort coverage.
        Refuses to forget a router that already has stored one-shot
        uploads — that would orphan records.
        """
        if router_id in self._heartbeat_uploads \
                or router_id in self._throughput_uploads:
            raise ValueError(
                f"router {router_id!r} has stored uploads; "
                "registration cannot be rolled back")
        self._routers.pop(router_id, None)

    def _require_registered(self, router_id: str) -> None:
        if router_id not in self._routers:
            raise KeyError(f"router {router_id!r} not registered")

    def add_heartbeats(self, log: HeartbeatLog) -> bool:
        """Store delivered heartbeats for one router.

        A second upload with identical timestamps is ignored (duplicate
        delivery); one with *different* timestamps raises — silently
        replacing a log would corrupt the availability analysis, matching
        the :meth:`register_router` consistency contract.  Returns True
        when the log was stored, False for an idempotent duplicate (so
        the server does not double-count delivery tallies).
        """
        self._require_registered(log.router_id)
        fingerprint = _array_fingerprint(log.timestamps)
        existing = self._heartbeat_uploads.get(log.router_id)
        if existing is not None:
            if existing != fingerprint:
                self._reject("heartbeats", log.router_id)
                raise ValueError(
                    "conflicting heartbeat re-upload for router "
                    f"{log.router_id!r}")
            return False
        self._heartbeat_uploads[log.router_id] = fingerprint
        self.backend.put_heartbeats(log)
        return True

    def record_heartbeat_delivery(self, router_id: str, sent: int,
                                  delivered: int) -> None:
        """Account one upload's sent-vs-delivered heartbeat counts."""
        if delivered > sent:
            raise ValueError("delivered heartbeats cannot exceed sent")
        prev_sent, prev_delivered = self.heartbeat_delivery.get(
            router_id, (0, 0))
        self.heartbeat_delivery[router_id] = (prev_sent + sent,
                                              prev_delivered + delivered)

    def _reject(self, dataset: str, router_id: str) -> None:
        """Instrument one consistency rejection (caller raises)."""
        logger.warning("rejected conflicting %s re-upload from %s",
                       dataset, router_id)
        metrics.inc("ingest_rejections_total", dataset=dataset)
        events.emit("ingest_rejected", dataset=dataset, router=router_id)

    def _require_registered_all(self, records) -> None:
        """Registration check for one batch's records.

        Columnar batches (``ColumnarRecords``) carry a single
        ``router_id`` for the whole batch, so one lookup covers every
        record without materializing any of them; plain record lists
        fall back to the per-record loop.
        """
        router_id = getattr(records, "router_id", None)
        if router_id is not None:
            self._require_registered(router_id)
            return
        for record in records:
            self._require_registered(record.router_id)

    def add_records(self, dataset: str, records: Sequence) -> None:
        """Append records to one of the seven record-list data sets."""
        if dataset not in RECORD_DATASETS:
            raise ValueError(f"unknown record-list dataset {dataset!r}")
        self._require_registered_all(records)
        self.backend.append(dataset, records)

    @staticmethod
    def _throughput_fingerprint(
            series: ThroughputSeries) -> Tuple[int, str, float, float]:
        size, digest = _array_fingerprint(
            np.concatenate([series.up_bps, series.down_bps]))
        return (size, digest, float(series.start),
                float(series.interval_seconds))

    def check_throughput(self, series: ThroughputSeries) -> bool:
        """Would :meth:`add_throughput` store *series*?  Mutates nothing.

        True for a new upload, False for an identical duplicate; a
        *conflicting* re-upload raises exactly as the add would.
        """
        existing = self._throughput_uploads.get(series.router_id)
        if existing is not None:
            if existing != self._throughput_fingerprint(series):
                self._reject("throughput", series.router_id)
                raise ValueError(
                    "conflicting throughput re-upload for router "
                    f"{series.router_id!r}")
            return False
        return True

    def add_throughput(self, series: ThroughputSeries) -> bool:
        """Store one router's series; conflicting re-upload raises.

        Returns True when the series was stored, False for an idempotent
        duplicate — mirroring :meth:`add_heartbeats`, so the server's
        record accounting can count exactly what the store accepted.
        """
        self._require_registered(series.router_id)
        if not self.check_throughput(series):
            return False
        self._throughput_uploads[series.router_id] = \
            self._throughput_fingerprint(series)
        self.backend.put_throughput(series)
        return True

    # -- checkpoint support ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-able snapshot of the store's consistency state.

        Everything the store keeps *outside* the backend: router
        registrations, the one-shot-upload fingerprints, and the
        heartbeat delivery tallies.  Together with the backend's own
        ``state_dict`` this is what a campaign checkpoint persists.
        """
        return {
            "routers": {
                rid: {
                    "router_id": info.router_id,
                    "country_code": info.country_code,
                    "developed": bool(info.developed),
                    "tz_offset_hours": info.tz_offset_hours,
                    "gdp_ppp_per_capita": info.gdp_ppp_per_capita,
                }
                for rid, info in self._routers.items()
            },
            "heartbeat_uploads": {
                rid: [size, digest]
                for rid, (size, digest) in self._heartbeat_uploads.items()
            },
            "throughput_uploads": {
                rid: list(fingerprint)
                for rid, fingerprint in self._throughput_uploads.items()
            },
            "heartbeat_delivery": {
                rid: [sent, delivered]
                for rid, (sent, delivered) in self.heartbeat_delivery.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (replaces current state)."""
        self._routers = {
            rid: RouterInfo(**fields)
            for rid, fields in state.get("routers", {}).items()
        }
        self._heartbeat_uploads = {
            rid: (int(size), digest)
            for rid, (size, digest)
            in state.get("heartbeat_uploads", {}).items()
        }
        self._throughput_uploads = {
            rid: (int(size), digest, float(start), float(interval))
            for rid, (size, digest, start, interval)
            in state.get("throughput_uploads", {}).items()
        }
        self.heartbeat_delivery = {
            rid: (int(sent), int(delivered))
            for rid, (sent, delivered)
            in state.get("heartbeat_delivery", {}).items()
        }

    def to_study_data(self) -> StudyData:
        """Freeze the accumulated records into an analysis-ready bundle.

        Reads every data set through the backend's one reader,
        :meth:`~repro.collection.backends.StoreBackend.iter_homes`, as
        the stream path does, so a store can be frozen more than once.
        """
        homes = self.backend.iter_homes
        return StudyData(
            routers=dict(self._routers),
            windows=self.windows,
            heartbeats=dict(homes("heartbeats")),
            throughput=dict(homes("throughput")),
            heartbeat_delivery=dict(self.heartbeat_delivery),
            **{table.attr: list(itertools.chain.from_iterable(
                records for _, records in homes(name)))
               for name, table in RECORD_DATASETS.items()},
        )
