"""The collection server: ingests router uploads and assembles the study.

The server is batch-oriented: shard workers (or the in-process serial
path) submit :class:`~repro.collection.batches.RouterUpload` bundles and
the server streams each :class:`~repro.collection.batches.RecordBatch`
into the record store.  Heartbeat batches carry raw *send* times; the
server applies the lossy collection path at ingest time, so delivery
randomness depends only on the deterministic ingest order — never on
which worker produced the batch.
"""

from __future__ import annotations

import logging
from typing import List, Set, Union

import numpy as np

from repro.core.datasets import HeartbeatLog, ThroughputSeries
from repro.core.records import RECORD_DATASETS, RouterInfo
from repro.collection.batches import ColumnarRecords, RecordBatch, RouterUpload
from repro.collection.path import CollectionPath
from repro.collection.storage import RecordStore, StagedIngest
from repro.telemetry import events, metrics

logger = logging.getLogger(__name__)


class UploadRejected(ValueError):
    """A router upload failed validation; nothing of it was ingested."""


class CollectionServer:
    """Receives router uploads and stores them."""

    def __init__(self, store: RecordStore, path: CollectionPath):
        self.store = store
        self.path = path
        #: Routers whose uploads fully ingested — the idempotency set
        #: for at-least-once delivery over the network path.
        self._ingested: Set[str] = set()

    def ingest(self, upload: RouterUpload) -> bool:
        """Register one router and stream in all of its batches.

        Registration and batch ingest are all-or-nothing: the upload is
        validated up front, then every batch is *staged* into a
        :class:`~repro.collection.storage.StagedIngest` buffer that runs
        the store's consistency checks without mutating it — the live
        store is only touched once the whole upload staged cleanly, so
        a failure anywhere leaves the store exactly as it was (no
        partial list appends for a client retry to double up on).  A
        retried upload for a router that already ingested — in this
        server's lifetime or, via the store's one-shot upload markers,
        in a previous daemon's over the same store — is an idempotent
        no-op (returns False); a *conflicting* re-registration still
        raises.  Returns True when the upload was stored.
        """
        rid = upload.router_id
        if rid in self._ingested or self.store.has_upload(rid):
            # At-least-once delivery duplicate (e.g. a retry after a
            # dropped ACK, possibly across a daemon restart).  The
            # registration conflict check still runs so a different
            # router claiming an ingested id is rejected loudly rather
            # than silently swallowed as a duplicate.
            self.store.check_registration(upload.info)
            self._ingested.add(rid)
            metrics.inc("uploads_duplicate_total")
            events.emit("upload_duplicate", router=rid)
            logger.debug("duplicate upload for %s ignored", rid)
            return False
        self._validate_upload(upload)
        staging = StagedIngest(self.store)
        deltas: List[tuple] = []
        try:
            staging.register_router(upload.info)
            for batch in upload.batches:
                self._dispatch_batch(batch, staging, deltas)
        except BaseException as exc:
            logger.warning("upload from %s rejected during staging: %s",
                           rid, exc)
            raise
        staging.commit()
        self._apply_deltas(deltas)
        self._ingested.add(rid)
        metrics.inc("routers_ingested_total")
        events.emit("router_ingested", router=upload.router_id,
                    batches=len(upload.batches))
        logger.debug("ingested router %s (%d batches)",
                     upload.router_id, len(upload.batches))
        return True

    def _validate_upload(self, upload: RouterUpload) -> None:
        """Reject a malformed upload before anything is registered.

        The checks mirror every failure the per-batch ingest path could
        raise mid-stream — wrong router ids or record classes inside a
        batch, anything but exactly one heartbeat batch, a second
        throughput series, a non-numeric heartbeat payload — so by the
        time batches stream into the store the only remaining failures
        are store-consistency conflicts, which the idempotency set
        already rules out for the upload path.  A decoded upload was
        built by unpickling, which runs no constructor, so every object
        re-runs its constructor checks here (a columnar batch re-ran
        its own when it was unpickled).
        """
        rid = upload.router_id
        _recheck(rid, upload.info, RouterInfo)
        counts = {"heartbeats": 0, "throughput": 0}
        for batch in upload.batches:
            _recheck(rid, batch, RecordBatch)
            dataset, records = batch.dataset, batch.records
            if batch.router_id != rid:
                raise UploadRejected(
                    f"upload for {rid!r} carries a batch for "
                    f"{batch.router_id!r}")
            if dataset == "heartbeats":
                counts[dataset] += 1
                if np.asarray(records, dtype=float).ndim != 1:
                    raise UploadRejected(
                        f"heartbeat sends for {rid!r} must be a flat "
                        "timestamp array")
                continue
            if dataset == "throughput":
                counts[dataset] += 1
                _recheck(rid, records, ThroughputSeries)
                owners = {records.router_id}
            elif isinstance(records, ColumnarRecords):
                if records.dataset != dataset:
                    raise UploadRejected(
                        f"upload for {rid!r} carries {records.dataset} "
                        f"columns in a {dataset} batch")
                owners = {records.router_id}
            else:
                record_class = RECORD_DATASETS[dataset].record
                for record in records:
                    _recheck(rid, record, record_class)
                owners = {record.router_id for record in records}
            if owners - {rid}:
                raise UploadRejected(
                    f"upload for {rid!r} carries {dataset} records for "
                    "another router")
        if counts["heartbeats"] != 1:
            raise UploadRejected(
                f"upload for {rid!r} carries {counts['heartbeats']} "
                "heartbeats batches; every upload carries exactly one")
        if counts["throughput"] > 1:
            raise UploadRejected(
                f"upload for {rid!r} carries {counts['throughput']} "
                "throughput batches; the dataset is one-shot per router")

    def receive_batch(self, batch: RecordBatch) -> int:
        """Ingest one dataset chunk, applying path loss to heartbeats.

        Heartbeats are the one lossy dataset: the batch carries raw
        *send* times and the path model decides delivery here.  The
        sent-vs-delivered difference is accounted on the store (per
        router) and the metrics registry (aggregate) so undelivered
        heartbeats are measured, never silently discarded; a duplicate
        upload the store rejects is counted in
        ``heartbeats_rejected_total``, keeping the ledger closed:
        sent == delivered + dropped + rejected.

        Returns the number of records the store actually accepted, and
        counts exactly that in ``records_ingested_total`` — one
        accounting site for every dataset, so a retried or rejected
        batch can never double-count.
        """
        deltas: List[tuple] = []
        accepted = self._dispatch_batch(batch, self.store, deltas)
        self._apply_deltas(deltas)
        return accepted

    def _dispatch_batch(self, batch: RecordBatch,
                        store: Union[RecordStore, StagedIngest],
                        deltas: List[tuple]) -> int:
        """Dispatch one batch into *store* (the live store or an
        upload's staging buffer), deferring metric increments into
        *deltas* so a staged upload whose later batch fails leaves the
        metrics registry as untouched as the store.
        """
        if batch.dataset == "heartbeats":
            sent = len(batch.records)
            delivered = self.path.deliver(batch.records)
            stored = store.add_heartbeats(
                HeartbeatLog(batch.router_id, delivered))
            deltas.append(("heartbeats_sent_total", sent, None))
            if stored:
                store.record_heartbeat_delivery(
                    batch.router_id, sent, len(delivered))
                deltas.append(("heartbeats_delivered_total",
                               len(delivered), None))
                deltas.append(("heartbeats_dropped_total",
                               sent - len(delivered), None))
                accepted = len(delivered)
            else:
                # A re-uploaded-then-rejected duplicate: its packets are
                # neither delivered nor dropped — without an explicit
                # rejected tally they would vanish from the ledger.
                deltas.append(("heartbeats_rejected_total", sent, None))
                accepted = 0
        elif batch.dataset == "throughput":
            stored = store.add_throughput(batch.records)
            accepted = len(batch.records) if stored else 0
        else:
            store.add_records(batch.dataset, batch.records)
            accepted = len(batch.records)
        if accepted:
            deltas.append(("records_ingested_total", accepted,
                           {"dataset": batch.dataset}))
        return accepted

    @staticmethod
    def _apply_deltas(deltas: List[tuple]) -> None:
        for name, amount, labels in deltas:
            metrics.inc(name, amount, **(labels or {}))


def _recheck(rid: str, value: object, expected: type) -> None:
    """Re-run the constructor checks that unpickling *value* skipped."""
    if type(value) is not expected:
        raise UploadRejected(
            f"upload for {rid!r} carries a {type(value).__name__} where "
            f"a {expected.__name__} belongs")
    try:
        value.__post_init__()
    except ValueError as exc:
        raise UploadRejected(f"upload for {rid!r}: {exc}") from exc
