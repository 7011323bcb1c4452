"""The network ingest service: an asyncio collection daemon over TCP.

Until now "collection" was an in-process function call — the engine hands
:class:`~repro.collection.batches.RouterUpload` bundles straight to
:class:`~repro.collection.server.CollectionServer`.  A production BISmark
successor is a *server* that fleets of routers talk to concurrently; this
module is that server.  It speaks the length-prefixed framed protocol
defined in :mod:`repro.collection.batches` (4-byte big-endian length +
pickled message tuples) and funnels every connection into the one
strictly-ordered ingest path the determinism contract requires.

Architecture
------------
::

    client conns ──frames──> handlers ──park──> reorder buffer
         ▲                     │                      │ next seq ready
         │                     │                      ▼
         └──── ack/retry ◀─────┴──── answered ◀── CollectionServer.ingest

* **Sequenced ingest.**  Every upload frame carries a *seq* — its
  position in deployment order.  A handler parks its upload in the
  reorder buffer, then ingests every seq that is ready, in order,
  through ``CollectionServer.ingest``: the handler whose upload
  completes a run of consecutive seqs ingests the whole run and answers
  each parked waiter.  The path-loss RNG therefore draws in exactly the
  order the in-process engine would have drawn them.  That is the whole
  determinism contract: a campaign ingested over the socket produces a
  ``study_digest`` bitwise-identical to the in-process path.
* **Per-connection backpressure.**  A handler reads one frame, waits for
  its upload's answer, and does not read the next frame until the
  response went out — an upload parked behind a seq gap pauses reads on
  its connection (the kernel's TCP window then pushes back on the
  client).
* **Bounded reorder window + shedding.**  An upload whose seq is at or
  beyond ``next_seq + reorder_window`` is *shed* with an explicit
  ``("retry", seq, after_seconds)`` response instead of being parked
  without limit.  Sheds are counted (``uploads_shed_total``) and
  surfaced in the health report's "Ingest service" section.
* **At-least-once clients, exactly-once store.**  ACKs are sent only
  after the upload durably ingested.  A client that loses an ACK simply
  resends; the server answers duplicates (seq already ingested) with
  ``("ack", seq, "duplicate")`` without touching the store —
  ``CollectionServer.ingest`` is idempotent per router on top of that,
  and checks a whole upload before applying any of it: an upload it
  rejects leaves the store and the path RNG as they were.
* **Clean shutdown.**  An upload is ingested before its handler first
  awaits, so there is no backlog to drain: ``stop()`` closes the
  listener and the connections, then answers every upload still parked
  behind a gap that will never fill with an error, so no client hangs.

Trust model
-----------
Frames are decoded with the restricted unpickler from
:mod:`repro.collection.batches`: a payload can only reference the
protocol's own types, so a hostile peer cannot execute code during
deserialization, and every decoded message passes shape validation
before dispatch.  Field *values* are still attacker-chosen — the
collection server and store treat them as untrusted and validate before
anything registers or appends.  There is no authentication or transport
encryption; the daemon binds loopback by default and non-loopback
deployments belong on trusted (measurement-infrastructure) networks.

Each observation is one :mod:`repro.trace` call (``net.frame`` span,
``upload_shed`` instant, ...) that costs one global read when no sink
is attached; the metrics registry counts them when one is.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import trace
from repro.collection.batches import (
    FRAME_HEADER,
    FrameError,
    RouterUpload,
    decode_payload,
    encode_frame,
    read_payload,
)
from repro.collection.path import CollectionPath
from repro.collection.server import CollectionServer
from repro.collection.storage import RecordStore

logger = logging.getLogger(__name__)

#: Default TCP port (unofficial; 0 lets the OS pick in tests).
DEFAULT_PORT = 9413

#: Resends an :class:`IngestClient` makes for one upload before it gives up.
RETRY_LIMIT = 64

#: Longest sleep, in seconds, between two resends of one upload.
MAX_RETRY_SLEEP = 0.5


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs for one :class:`IngestDaemon`."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    #: How far ahead of the next expected seq an upload may arrive
    #: before it is shed; also bounds the reorder buffer.
    reorder_window: int = 4096
    #: Delay suggested to a shed client.
    retry_after_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.reorder_window < 1:
            raise ValueError("reorder_window must be positive")
        if self.retry_after_seconds <= 0:
            raise ValueError("retry_after_seconds must be positive")


class IngestDaemon:
    """The asyncio collection daemon around one :class:`CollectionServer`.

    The daemon owns nothing about *what* uploads mean — validation,
    idempotency, and storage consistency live in
    :class:`CollectionServer` and :class:`RecordStore` exactly as on the
    in-process path.  It owns the *service* concerns: framing,
    sequencing, backpressure, shedding, and drain.
    """

    def __init__(self, store: RecordStore, path: CollectionPath,
                 config: ServeConfig = ServeConfig()):
        self.server = CollectionServer(store, path)
        self.config = config
        self._tcp: Optional[asyncio.AbstractServer] = None
        #: seq -> [(upload, future), ...] parked out of order (the list
        #: absorbs concurrent duplicate retries of an un-ingested seq).
        self._pending: Dict[int, List[Tuple[RouterUpload,
                                            "asyncio.Future"]]] = {}
        self._next_seq = 0
        self._connections = 0
        self.routers_ingested = 0
        #: Uploads still parked behind a seq gap at shutdown (set and
        #: reported by :meth:`stop`).
        self.parked_discarded = 0
        self._complete: Optional[asyncio.Event] = None
        self._expected: Optional[int] = None
        self._handlers: "set" = set()

    @property
    def store(self) -> RecordStore:
        return self.server.store

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        if self._tcp is not None:
            raise RuntimeError("daemon already started")
        self._complete = asyncio.Event()
        self._tcp = await asyncio.start_server(
            self._handle, self.config.host, self.config.port)
        host, port = self._tcp.sockets[0].getsockname()[:2]
        trace.instant("ingest_service_started", cat="netserve", host=host,
                      port=port)
        logger.info("ingest daemon listening on %s:%d", host, port)
        return host, port

    async def wait_complete(self, expected_routers: int) -> None:
        """Block until *expected_routers* uploads have been stored."""
        if self._complete is None:
            raise RuntimeError("daemon not started")
        self._expected = expected_routers
        if self.routers_ingested >= expected_routers:
            return
        await self._complete.wait()

    async def stop(self) -> None:
        """Shut down: stop accepting, answer every upload still parked."""
        if self._tcp is None:
            return
        self._tcp.close()
        await self._tcp.wait_closed()
        self._tcp = None
        # Connections the listener close leaves open (clients idling
        # between uploads) would otherwise hold the loop; the handlers
        # absorb this cancel and close their sockets cleanly.
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        # Anything still parked waits behind a seq gap that can no longer
        # fill: record the discard count for the drain report, then
        # answer every waiter so no client blocks forever.
        self.parked_discarded = sum(
            len(waiters) for waiters in self._pending.values())
        for seq, waiters in sorted(self._pending.items()):
            for _, future in waiters:
                self._resolve(future, ("error", seq,
                                       "server shut down before ingest"))
        self._pending.clear()
        trace.instant("ingest_service_drained", cat="netserve",
                      routers=self.routers_ingested,
                      undrained=self.parked_discarded)
        logger.info("ingest daemon drained: %d routers stored, "
                    "%d parked uploads discarded",
                    self.routers_ingested, self.parked_discarded)

    # -- connection handling -----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        self._connections += 1
        self._handlers.add(asyncio.current_task())
        trace.instant("net.accept", cat="netserve",
                      connections=self._connections)
        try:
            while True:
                try:
                    message = await self._read_frame(reader)
                except asyncio.CancelledError:
                    break  # daemon shutdown while idle between frames
                except asyncio.IncompleteReadError as exc:
                    if exc.partial:
                        # The peer died mid-frame; nothing of the frame
                        # was acted on, so the store is untouched.
                        trace.instant("net_disconnect", cat="netserve",
                                      midframe=True)
                    break
                except ConnectionError:
                    break
                except FrameError as exc:
                    # Answer, then close (which flushes the answer): a
                    # client resending the frame would fail every time.
                    trace.instant("net_frame_error", cat="netserve",
                                  error=str(exc))
                    logger.warning("closing connection: %s", exc)
                    writer.write(encode_frame(("error", -1, str(exc))))
                    break
                response = await self._dispatch(message)
                if response is None:  # clean "bye"
                    break
                try:
                    writer.write(encode_frame(response))
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            self._connections -= 1
            self._handlers.discard(asyncio.current_task())
            trace.instant("net.close", cat="netserve",
                          connections=self._connections)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _read_frame(self, reader: asyncio.StreamReader) -> Tuple:
        payload = await read_payload(reader)
        with trace.span("net.frame", cat="netserve",
                        bytes=FRAME_HEADER.size + len(payload)):
            return decode_payload(payload)

    async def _dispatch(self, message: Tuple) -> Optional[Tuple]:
        kind = message[0]
        if kind == "upload":
            return await self._offer(message[1], message[2])
        if kind == "ping":
            return ("pong",)
        if kind == "bye":
            return None
        return ("error", -1, f"unexpected {kind!r} frame from a client")

    async def _offer(self, seq: int, upload: RouterUpload) -> Tuple:
        """Park one upload, ingest every ready seq, await its answer.

        An upload that is ready to ingest is ingested before this first
        awaits; one parked behind a seq gap is answered by the handler
        whose upload fills the gap (or by :meth:`stop`).
        """
        if seq < self._next_seq:
            # Already ingested — a retry after a dropped ACK.
            trace.instant("net.duplicate", cat="netserve", seq=seq)
            return ("ack", seq, "duplicate")
        if seq >= self._next_seq + self.config.reorder_window:
            trace.instant("upload_shed", cat="netserve", seq=seq,
                          reason="window")
            return ("retry", seq, self.config.retry_after_seconds)
        future = asyncio.get_running_loop().create_future()
        self._pending.setdefault(seq, []).append((upload, future))
        self._drain_ready()
        return await future

    # -- the ordered ingest path --------------------------------------------------

    def _drain_ready(self) -> None:
        """Ingest every consecutively-available seq, resolving waiters."""
        # This is the one place uploads are applied.  It contains no
        # ``await``, so the event loop never runs two calls of it at
        # once; a change that awaits in here (an async checkpoint, say)
        # must add a lock.
        while self._next_seq in self._pending:
            seq = self._next_seq
            waiters = self._pending.pop(seq)
            upload, _ = waiters[0]
            # Nothing here reads the upload: it is untrusted until
            # ``ingest`` has checked it, and a rejection names the router.
            t0 = trace.now()
            try:
                stored = self.server.ingest(upload)
            except Exception as exc:
                trace.instant("upload_rejected", cat="netserve", seq=seq,
                              error=str(exc))
                logger.warning("upload seq %d rejected: %s", seq, exc)
                for _, future in waiters:
                    self._resolve(future, ("error", seq, str(exc)))
                # The seq slot stays owed: a client may resend a valid
                # upload for it; everything behind the gap stays parked.
                return
            trace.add_span("net.ingest", t0, cat="netserve", seq=seq,
                           stored=stored)
            self._next_seq = seq + 1
            status = "stored" if stored else "duplicate"
            if stored:
                self.routers_ingested += 1
            for _, future in waiters:
                self._resolve(future, ("ack", seq, status))
                status = "duplicate"  # only the first waiter "stored" it
            if self._expected is not None \
                    and self.routers_ingested >= self._expected:
                self._complete.set()

    @staticmethod
    def _resolve(future: "asyncio.Future", response: Tuple) -> None:
        if not future.done():  # the handler may have gone away
            future.set_result(response)


# -- client side ------------------------------------------------------------------

class IngestClient:
    """One framed TCP connection to an :class:`IngestDaemon`.

    Retries are built in: a shed upload is resent after the server's
    suggested delay, a dropped connection transparently reconnects and
    resends (the server's seq-based idempotency makes the retry safe),
    and an ``("error", ...)`` response raises.  The counters
    (:attr:`retries`, :attr:`duplicates`) let load tests report how much
    shedding the fleet observed.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.retries = 0
        self.sheds = 0
        self.duplicates = 0
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "IngestClient":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port)
        return self

    async def close(self) -> None:
        if self._writer is None:
            return
        try:
            self._writer.write(encode_frame(("bye",)))
            await self._writer.drain()
        except ConnectionError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass
        self._reader = self._writer = None

    async def __aenter__(self) -> "IngestClient":
        return await self.connect()

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    async def _round_trip(self, message: Tuple) -> Tuple:
        if self._writer is None:
            await self.connect()
        self._writer.write(encode_frame(message))
        await self._writer.drain()
        return decode_payload(await read_payload(self._reader))

    async def upload(self, seq: int, upload: RouterUpload) -> str:
        """Send one upload; returns "stored" or "duplicate" once ACKed."""
        attempt = 0
        while True:
            try:
                response = await self._round_trip(("upload", seq, upload))
            except (ConnectionError, asyncio.IncompleteReadError):
                # The ACK (or the frame itself) was lost — reconnect and
                # resend; the server's idempotency absorbs the re-upload.
                attempt += 1
                if attempt > RETRY_LIMIT:
                    raise
                self.retries += 1
                self._reader = self._writer = None
                await asyncio.sleep(min(0.01 * attempt, MAX_RETRY_SLEEP))
                continue
            kind = response[0]
            if kind == "ack":
                if response[2] == "duplicate":
                    self.duplicates += 1
                return response[2]
            if kind == "retry":
                attempt += 1
                if attempt > RETRY_LIMIT:
                    raise RuntimeError(
                        f"upload seq {seq} shed {attempt} times; giving up")
                self.retries += 1
                self.sheds += 1
                await asyncio.sleep(min(float(response[2]) * attempt,
                                        MAX_RETRY_SLEEP))
                continue
            if kind == "error":
                raise ValueError(f"server rejected upload seq {seq}: "
                                 f"{response[2]}")
            raise FrameError(f"unexpected response kind {response[0]!r}")

    async def ping(self) -> None:
        response = await self._round_trip(("ping",))
        if response[0] != "pong":  # pragma: no cover - protocol drift
            raise FrameError(f"expected pong, got {response[0]!r}")


# -- one-call socket campaign ------------------------------------------------------

def run_campaign_over_socket(plan, seed: Optional[int] = None,
                             shard_size: Optional[int] = None):
    """Run a full campaign with collection over loopback TCP.

    Shards run exactly as on the in-process path (same
    ``(seed, router_id)`` derivations); their uploads cross a real
    socket to an :class:`IngestDaemon` on a loopback port and are
    ingested in deployment order.  The daemon's path comes from
    :meth:`CollectionPath.for_study`, as in
    :func:`repro.collection.engine.run_campaign`, so the returned
    ``StudyData`` has a ``study_digest`` bitwise-identical to the
    in-process path's.
    """
    from repro.collection.engine import run_shard, shard_count

    seed = plan.seed if seed is None else seed
    n_shards = shard_count(len(plan), shard_size)
    daemon = IngestDaemon(RecordStore(plan.windows),
                          CollectionPath.for_study(seed, plan.windows.span),
                          ServeConfig(port=0))

    async def _run() -> RecordStore:
        loop = asyncio.get_event_loop()
        host, port = await daemon.start()
        client = IngestClient(host, port)
        seq = 0
        try:
            await client.connect()
            for shard_index in range(n_shards):
                uploads = await loop.run_in_executor(
                    None, run_shard, plan, shard_index, n_shards, seed)
                # The engine's span for a shard's uploads, which closes
                # the shard in the metrics (one shard is in flight).
                with trace.span("ingest", cat="engine", shard=shard_index,
                                routers=len(uploads),
                                records=sum(u.record_count
                                            for u in uploads),
                                in_flight=0):
                    for upload in uploads:
                        await client.upload(seq, upload)
                        seq += 1
        finally:
            await client.close()
            await daemon.stop()
        return daemon.store

    return asyncio.run(_run()).to_study_data()
