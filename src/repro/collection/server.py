"""The collection server: ingests router uploads and assembles the study.

The server is upload-oriented: shard workers (or the in-process serial
path, or the network daemon) submit
:class:`~repro.collection.batches.RouterUpload` bundles, and
:meth:`CollectionServer.ingest` checks the whole upload, then applies
it to the record store once, batch by batch in upload order.  Heartbeat
batches carry raw *send* times; the server applies the lossy collection
path between the checks and the apply, so delivery randomness depends
only on the deterministic order of accepted uploads — never on which
worker produced them, nor on any upload that was rejected.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.core.datasets import HeartbeatLog, ThroughputSeries
from repro.core.records import RECORD_DATASETS, RouterInfo
from repro.collection.batches import ColumnarRecords, RecordBatch, RouterUpload
from repro.collection.path import CollectionPath
from repro.collection.storage import RecordStore
from repro.telemetry import events, metrics

logger = logging.getLogger(__name__)


class UploadRejected(ValueError):
    """A router upload failed validation; nothing of it was ingested."""


class CollectionServer:
    """Receives router uploads and stores them."""

    def __init__(self, store: RecordStore, path: CollectionPath):
        self.store = store
        self.path = path

    def ingest(self, upload: RouterUpload) -> bool:
        """Check one router's upload, then apply all of it to the store.

        A retried upload for a router whose upload the store already
        holds — from this server or from an earlier daemon over the
        same store — is an idempotent no-op (returns False); a
        *conflicting* re-registration still raises.  Otherwise every
        check that can reject the upload runs first: the upload's own
        shape and values (:meth:`_validate_upload`), then the two store
        checks that can still fail — a conflicting registration and a
        conflicting throughput re-upload.  A rejected upload therefore
        leaves the store, the path RNG and the ingest counters as they
        were.  Only then are the heartbeat loss draws taken and the
        batches applied in upload order; if the apply itself raises (a
        backend failure no check can foresee), a registration this
        upload made is withdrawn.  Returns True when the upload was
        stored.
        """
        rid = upload.router_id
        store = self.store
        if store.has_upload(rid):
            # At-least-once delivery duplicate (e.g. a retry after a
            # dropped ACK, possibly across a daemon restart).  The
            # registration conflict check still runs so a different
            # router claiming an ingested id is rejected loudly rather
            # than silently swallowed as a duplicate.
            store.check_registration(upload.info)
            metrics.inc("uploads_duplicate_total")
            events.emit("upload_duplicate", router=rid)
            logger.debug("duplicate upload for %s ignored", rid)
            return False
        sends = self._validate_upload(upload)
        store.check_registration(upload.info)
        for batch in upload.batches:
            if batch.dataset == "throughput":
                store.check_keyed("throughput", batch.records)
        delivered = self.path.deliver(sends)
        was_registered = rid in store.routers
        try:
            store.register_router(upload.info)
            for batch in upload.batches:
                dataset = batch.dataset
                if dataset == "heartbeats":
                    sent, accepted = len(sends), len(delivered)
                    store.add_keyed("heartbeats", HeartbeatLog(rid, delivered))
                    store.record_heartbeat_delivery(rid, sent, accepted)
                    metrics.inc("heartbeats_sent_total", sent)
                    metrics.inc("heartbeats_delivered_total", accepted)
                    metrics.inc("heartbeats_dropped_total", sent - accepted)
                elif dataset == "throughput":
                    stored = store.add_keyed("throughput", batch.records)
                    accepted = len(batch.records) if stored else 0
                else:
                    store.add_records(dataset, batch.records)
                    accepted = len(batch.records)
                if accepted:
                    metrics.inc("records_ingested_total", accepted,
                                dataset=dataset)
        except BaseException as exc:
            logger.warning("upload from %s failed to apply: %s", rid, exc)
            if not was_registered:
                try:
                    store.unregister_router(rid)
                except ValueError:  # pragma: no cover - one-shot stored
                    logger.exception(
                        "could not roll back registration of %s", rid)
            raise
        metrics.inc("routers_ingested_total")
        events.emit("router_ingested", router=rid,
                    batches=len(upload.batches))
        logger.debug("ingested router %s (%d batches)",
                     rid, len(upload.batches))
        return True

    def _validate_upload(self, upload: RouterUpload) -> np.ndarray:
        """Reject a malformed upload; return its heartbeat send times.

        The checks cover every failure the apply could raise from the
        upload alone — wrong router ids or record classes inside a
        batch, anything but exactly one heartbeat batch, a second
        throughput series — and the send times, which must convert to
        a flat array of finite floats (one NaN would make the whole
        study unanalyzable).  What remains after them are the store
        checks :meth:`ingest` runs next.  A decoded upload was built by
        unpickling, which runs no constructor, so every object re-runs
        its constructor checks here (a columnar batch re-ran its own
        when it was unpickled).
        """
        rid = upload.router_id
        _recheck(rid, upload.info, RouterInfo)
        sends = []
        throughput = 0
        for batch in upload.batches:
            _recheck(rid, batch, RecordBatch)
            dataset, records = batch.dataset, batch.records
            if batch.router_id != rid:
                raise UploadRejected(
                    f"upload for {rid!r} carries a batch for "
                    f"{batch.router_id!r}")
            if dataset == "heartbeats":
                sends.append(_send_times(rid, records))
                continue
            if dataset == "throughput":
                throughput += 1
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
        if len(sends) != 1:
            raise UploadRejected(
                f"upload for {rid!r} carries {len(sends)} "
                "heartbeats batches; every upload carries exactly one")
        if throughput > 1:
            raise UploadRejected(
                f"upload for {rid!r} carries {throughput} "
                "throughput batches; the dataset is one-shot per router")
        return sends[0]


def _send_times(rid: str, records: object) -> np.ndarray:
    """One heartbeat batch's send times as a flat array of finite floats."""
    try:
        sends = np.asarray(records, dtype=float)
    except (TypeError, ValueError) as exc:
        raise UploadRejected(
            f"heartbeat sends for {rid!r} are not numeric: {exc}") from exc
    if sends.ndim != 1:
        raise UploadRejected(
            f"heartbeat sends for {rid!r} must be a flat timestamp array")
    if not np.isfinite(sends).all():
        raise UploadRejected(
            f"heartbeat sends for {rid!r} hold a non-finite timestamp")
    return sends


def _recheck(rid: str, value: object, expected: type) -> None:
    """Re-run the constructor checks that unpickling *value* skipped."""
    if type(value) is not expected:
        raise UploadRejected(
            f"upload for {rid!r} carries a {type(value).__name__} where "
            f"a {expected.__name__} belongs")
    try:
        value.__post_init__()
    except (TypeError, ValueError) as exc:
        raise UploadRejected(f"upload for {rid!r}: {exc}") from exc
