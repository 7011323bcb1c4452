"""The collection server: ingests router uploads and assembles the study.

The server is upload-oriented: shard workers (or the in-process serial
path, or the network daemon) submit
:class:`~repro.collection.batches.RouterUpload` bundles, and
:meth:`CollectionServer.ingest` checks the whole upload (its send
times, its throughput series, and each
:class:`~repro.collection.batches.ColumnarRecords` batch's columns and
router), then applies it to the record store once: registration,
heartbeats, the list batches in upload order, then the throughput
series.  An upload carries
raw heartbeat *send* times; the server applies the lossy collection
path between the checks and the apply, so delivery randomness depends
only on the deterministic order of accepted uploads — never on which
worker produced them, nor on any upload that was rejected.
"""

from __future__ import annotations

import logging

import numpy as np

from repro import trace
from repro.core.datasets import HeartbeatLog, ThroughputSeries
from repro.core.records import RouterInfo
from repro.collection.batches import ColumnarRecords, RouterUpload
from repro.collection.path import CollectionPath
from repro.collection.storage import RecordStore

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
        parts applied in a fixed order: registration, heartbeats, the
        list batches in upload order, the throughput series.  If the
        apply itself raises (a backend failure no check can foresee), a
        registration this upload made is withdrawn.  Returns True when
        the upload was stored.
        """
        # A decoded upload was built by unpickling, which runs no
        # constructor: its fields, and its router's, are checked before
        # anything reads its router id.
        _recheck("upload", upload, RouterUpload)
        _recheck("upload", upload.info, RouterInfo)
        rid = upload.router_id
        store = self.store
        if store.has_upload(rid):
            # At-least-once delivery duplicate (e.g. a retry after a
            # dropped ACK, possibly across a daemon restart).  The
            # registration conflict check still runs so a different
            # router claiming an ingested id is rejected loudly rather
            # than silently swallowed as a duplicate.
            store.check_registration(upload.info)
            trace.instant("upload_duplicate", router=rid)
            logger.debug("duplicate upload for %s ignored", rid)
            return False
        sends = self._validate_upload(upload)
        series = upload.throughput
        store.check_registration(upload.info)
        if series is not None:
            store.check_keyed("throughput", series)
        delivered = self.path.deliver(sends)
        was_registered = rid in store.routers
        try:
            store.register_router(upload.info)
            sent, accepted = len(sends), len(delivered)
            store.add_keyed("heartbeats", HeartbeatLog(rid, delivered))
            store.record_heartbeat_delivery(rid, sent, accepted)
            ingested = {"heartbeats": accepted}
            for batch in upload.batches:
                store.add_records(batch)
                ingested[batch.dataset] = \
                    ingested.get(batch.dataset, 0) + len(batch)
            if series is not None and store.add_keyed("throughput", series):
                ingested["throughput"] = len(series)
        except BaseException as exc:
            logger.warning("upload from %s failed to apply: %s", rid, exc)
            if not was_registered:
                try:
                    store.unregister_router(rid)
                except ValueError:  # pragma: no cover - one-shot stored
                    logger.exception(
                        "could not roll back registration of %s", rid)
            raise
        trace.instant("router_ingested", router=rid,
                      batches=len(upload.batches), sent=sent,
                      delivered=accepted, dropped=sent - accepted,
                      ingested=ingested)
        logger.debug("ingested router %s (%d list batches)",
                     rid, len(upload.batches))
        return True

    def _validate_upload(self, upload: RouterUpload) -> np.ndarray:
        """Reject a malformed upload; return its heartbeat send times.

        The checks cover every failure the apply could raise from the
        upload alone: send times that do not convert to a flat array of
        finite floats (one NaN would make the whole study unanalyzable),
        and a throughput series or a batch that fails its constructor
        checks, is of the wrong class or belongs to another router.
        What remains after them are the store checks :meth:`ingest` runs
        next.  A decoded upload was built by unpickling, which runs no
        constructor, and an in-process batch's columns may have changed
        since it was built, so every object re-runs its constructor
        checks here: a batch's check each of its column values and each
        row's relations.
        """
        rid = upload.router_id
        owner = f"upload for {rid!r}"
        sends = _send_times(rid, upload.heartbeat_sends)
        series = upload.throughput
        if series is not None:
            _recheck(owner, series, ThroughputSeries)
            _require_owner(rid, "throughput", series.router_id)
        for batch in upload.batches:
            _recheck(owner, batch, ColumnarRecords)
            _require_owner(rid, batch.dataset, batch.router_id)
        return sends


def _require_owner(rid: str, dataset: str, router_id: str) -> None:
    if router_id != rid:
        raise UploadRejected(
            f"upload for {rid!r} carries {dataset} records for "
            "another router")


def _send_times(rid: str, sends: np.ndarray) -> np.ndarray:
    """An upload's send times as a flat array of finite floats."""
    try:
        sends = np.asarray(sends, dtype=float)
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


def _recheck(owner: str, value: object, expected: type) -> None:
    """Re-run the constructor checks that unpickling *value* skipped."""
    if type(value) is not expected:
        raise UploadRejected(
            f"{owner} carries a {type(value).__name__} where "
            f"a {expected.__name__} belongs")
    try:
        value.__post_init__()
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise UploadRejected(f"{owner}: {exc}") from exc
