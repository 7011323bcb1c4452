"""Async load generator: 100k+ simulated router clients for the daemon.

The load generator answers one question: how fast does the network
ingest path go, and how does it degrade?  It simulates a fleet of
routers phoning home with realistic cadences — heartbeat trains with
seeded per-router jitter, periodic uptime reports — and drives them at
an :class:`~repro.collection.netserve.IngestDaemon` over a pool of
framed TCP connections, measuring sustained records/sec and counting
every shed and retry the fleet observed.

Scale model
-----------
A hundred thousand sockets is neither realistic on loopback nor the
point: what the server experiences is concurrent *connections* carrying
many routers' uploads.  The generator multiplexes ``clients`` simulated
routers over ``connections`` sockets by round-robin — connection *k*
carries routers ``k, k + C, k + 2C, …`` — so upload seq numbers stay
within the daemon's reorder window (connections advance in near
lockstep: a connection's next upload is only unblocked once every lower
seq has ingested) while the daemon still sees genuinely concurrent,
out-of-order frame arrival.

Uploads are synthesized lazily, one per in-flight request, so the
generator's memory stays O(connections) no matter the fleet size.
Everything derives from ``(seed, router_index)`` — two runs with the
same config send byte-identical uploads.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import numpy as np

from repro.core.records import RouterInfo, UptimeReport
from repro.simulation.timebase import StudyWindows
from repro.collection.batches import RecordBatch, RouterUpload
from repro.collection.netserve import IngestClient, IngestDaemon, ServeConfig
from repro.collection.path import CollectionPath
from repro.collection.storage import RecordStore

#: Seconds between simulated heartbeats (the paper's cadence is 5 min).
HEARTBEAT_INTERVAL = 300.0
#: Seconds between simulated uptime reports (12-hourly in the paper).
UPTIME_INTERVAL = 12 * 3600.0


@dataclass(frozen=True)
class LoadConfig:
    """One load run: fleet size, connection pool, per-router payload."""

    clients: int = 100_000
    connections: int = 64
    heartbeats_per_upload: int = 24
    uptime_reports_per_upload: int = 2
    seed: int = 7

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be positive")
        if self.connections < 1:
            raise ValueError("connections must be positive")
        if not 0 < self.connections <= self.clients:
            raise ValueError("connections cannot exceed clients")
        if self.heartbeats_per_upload < 1:
            raise ValueError("heartbeats_per_upload must be positive")
        if self.uptime_reports_per_upload < 0:
            raise ValueError("uptime_reports_per_upload cannot be negative")

    @property
    def records_per_upload(self) -> int:
        return self.heartbeats_per_upload + self.uptime_reports_per_upload


@dataclass
class LoadReport:
    """What one load run achieved (``repro loadgen`` prints it)."""

    clients: int
    connections: int
    records_sent: int
    routers_stored: int
    duration_seconds: float
    sheds: int = 0
    retries: int = 0
    duplicates: int = 0

    @property
    def records_per_sec(self) -> float:
        return self.records_sent / max(self.duration_seconds, 1e-9)

    @property
    def routers_per_sec(self) -> float:
        return self.clients / max(self.duration_seconds, 1e-9)

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "connections": self.connections,
            "records_sent": self.records_sent,
            "routers_stored": self.routers_stored,
            "duration_seconds": self.duration_seconds,
            "records_per_sec": self.records_per_sec,
            "routers_per_sec": self.routers_per_sec,
            "sheds": self.sheds,
            "retries": self.retries,
            "duplicates": self.duplicates,
        }


def synthetic_upload(index: int, span: Tuple[float, float],
                     config: LoadConfig) -> RouterUpload:
    """One simulated router's upload, derived only from (seed, index).

    A heartbeat train at the paper's 5-minute cadence with ±30 s of
    per-beat jitter, plus 12-hourly uptime reports — small enough to
    synthesize lazily per request, realistic enough that the server does
    real per-record work (path-loss draws, validation, storage).
    """
    rng = random.Random((config.seed << 24) ^ index)
    rid = f"LG{index:06d}"
    start = span[0] + rng.uniform(0.0, HEARTBEAT_INTERVAL)
    sends = np.array([
        start + beat * HEARTBEAT_INTERVAL + rng.uniform(-30.0, 30.0)
        for beat in range(config.heartbeats_per_upload)
    ])
    batches = [RecordBatch("heartbeats", rid, sends)]
    if config.uptime_reports_per_upload:
        boot = span[0] - rng.uniform(0.0, 30 * 24 * 3600.0)
        reports = [
            UptimeReport(rid, ts, ts - boot)
            for i in range(config.uptime_reports_per_upload)
            for ts in (start + (i + 1) * UPTIME_INTERVAL,)
        ]
        batches.append(RecordBatch("uptime", rid, reports))
    info = RouterInfo(rid, "US", True, -5.0, 50_000.0)
    return RouterUpload(info, tuple(batches))


async def run_load(host: str, port: int, config: LoadConfig,
                   span: Optional[Tuple[float, float]] = None) -> LoadReport:
    """Drive *config.clients* simulated routers at a running daemon.

    Upload *seq* equals router index, so the daemon ingests the fleet in
    index order.  A connection sends its next upload, ``connections``
    seqs on, only once its last one was ACKed, so every in-flight seq
    lies in ``[next_seq, next_seq + connections)``: a reorder window of
    at least ``connections`` never sheds.
    """
    span = span if span is not None else StudyWindows().span
    clients: List[IngestClient] = [
        IngestClient(host, port) for _ in range(config.connections)]
    records_sent = 0
    stored = 0

    async def drive(conn_index: int) -> Tuple[int, int]:
        client = clients[conn_index]
        sent = 0
        acked = 0
        await client.connect()
        try:
            for index in range(conn_index, config.clients,
                               config.connections):
                upload = synthetic_upload(index, span, config)
                status = await client.upload(index, upload)
                sent += upload.record_count
                if status == "stored":
                    acked += 1
        finally:
            await client.close()
        return sent, acked

    t0 = time.perf_counter()
    totals = await asyncio.gather(
        *(drive(k) for k in range(config.connections)))
    duration = time.perf_counter() - t0
    for sent, acked in totals:
        records_sent += sent
        stored += acked
    return LoadReport(
        clients=config.clients,
        connections=config.connections,
        records_sent=records_sent,
        routers_stored=stored,
        duration_seconds=duration,
        sheds=sum(c.sheds for c in clients),
        retries=sum(c.retries for c in clients),
        duplicates=sum(c.duplicates for c in clients),
    )


def run_load_over_loopback(
        config: LoadConfig,
        serve_config: ServeConfig = ServeConfig(),
) -> Tuple[LoadReport, IngestDaemon]:
    """One-call load run: daemon on a loopback port, fleet driven at it.

    Returns the report and the (stopped, drained) daemon so callers can
    assert on its store and counters.
    """
    windows = StudyWindows()
    daemon = IngestDaemon(RecordStore(windows),
                          CollectionPath.for_study(config.seed, windows.span),
                          replace(serve_config, host="127.0.0.1", port=0))

    async def _run() -> LoadReport:
        host, port = await daemon.start()
        try:
            return await run_load(host, port, config, span=windows.span)
        finally:
            await daemon.stop()

    report = asyncio.run(_run())
    return report, daemon
