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
:data:`~repro.core.records.RECORD_DATASETS`; the two keyed data sets,
one value per router, share :meth:`RecordStore.add_keyed`, by name in
:data:`~repro.core.datasets.KEYED_DATASETS`.  The backend alone records
which routers uploaded a keyed value.

The collection server settles a whole upload before its first add,
through :meth:`RecordStore.has_upload`,
:meth:`RecordStore.check_registration` and
:meth:`RecordStore.check_keyed`, which mutate nothing; it then
applies the upload through the add methods.
"""

from __future__ import annotations

import itertools
import logging
from typing import Dict, Optional, Sequence, Tuple

from repro.core.datasets import KEYED_DATASETS, StudyData
from repro.core.records import RECORD_DATASETS, RouterInfo
from repro.simulation.timebase import StudyWindows
from repro.collection.backends import MemoryBackend, StoreBackend
from repro.telemetry import events, metrics

logger = logging.getLogger(__name__)


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

        Every upload carries exactly one heartbeat batch, so a heartbeat
        log the backend holds marks the router's upload as ingested.
        This is the collection server's one duplicate check: an
        at-least-once retry — to the same daemon or to one *restarted
        over an existing store* — is a no-op instead of double-appending
        list datasets.
        """
        return self.backend.holds("heartbeats", router_id)

    def unregister_router(self, router_id: str) -> None:
        """Withdraw a registration that never ingested any data.

        The collection server uses this to make registration + batch
        ingest all-or-nothing: a registration made for an upload that
        then fails to ingest is rolled back, so a failed upload cannot
        leave a registered-but-empty router inflating cohort coverage.
        Refuses to forget a router that already has a stored keyed
        value — that would orphan records.
        """
        if any(self.backend.holds(dataset, router_id)
               for dataset in KEYED_DATASETS):
            raise ValueError(
                f"router {router_id!r} has stored uploads; "
                "registration cannot be rolled back")
        self._routers.pop(router_id, None)

    def _require_registered(self, router_id: str) -> None:
        if router_id not in self._routers:
            raise KeyError(f"router {router_id!r} not registered")

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

    def check_keyed(self, dataset: str, value) -> bool:
        """Would :meth:`add_keyed` store *value*?  Mutates nothing.

        True for the router's first value, False for one bitwise
        identical to the stored value (a delivery duplicate); a
        *different* second value raises exactly as the add would, as a
        conflicting :meth:`register_router` does.
        """
        table = KEYED_DATASETS[dataset]
        rid = value.router_id
        if not self.backend.holds(dataset, rid):
            return True
        if table.canonical(self.backend.stored(dataset, rid)) \
                == table.canonical(value):
            return False
        self._reject(dataset, rid)
        raise ValueError(
            f"conflicting {dataset} re-upload for router {rid!r}")

    def add_keyed(self, dataset: str, value) -> bool:
        """Store one router's value of a keyed data set.

        Returns True when the value was stored, False for an idempotent
        duplicate, so the server counts exactly what the store accepted;
        a conflicting value raises (:meth:`check_keyed`).
        """
        self._require_registered(value.router_id)
        if not self.check_keyed(dataset, value):
            return False
        # By name: benchmarks/e2e times each backend's put_<dataset>.
        getattr(self.backend, f"put_{dataset}")(value)
        return True

    # -- checkpoint support ------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-able snapshot of the store's consistency state.

        Everything the store keeps *outside* the backend: router
        registrations and the heartbeat delivery tallies.  Together with
        the backend's own ``state_dict``, which holds the keyed data
        sets' routers, this is what a campaign checkpoint persists.
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
            heartbeat_delivery=dict(self.heartbeat_delivery),
            **{name: dict(homes(name)) for name in KEYED_DATASETS},
            **{table.attr: list(itertools.chain.from_iterable(
                records for _, records in homes(name)))
               for name, table in RECORD_DATASETS.items()},
        )
