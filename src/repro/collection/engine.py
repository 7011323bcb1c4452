"""Shard-parallel streaming campaign engine.

The engine turns a cheap :class:`~repro.simulation.deployment.DeploymentPlan`
into collected :class:`~repro.core.datasets.StudyData` by splitting the
deployment into contiguous shards, materializing and running each shard's
households (in worker processes when ``workers > 1``), and streaming the
resulting router uploads into a :class:`CollectionServer`.

Determinism contract
--------------------
For a fixed seed the engine produces bitwise-identical ``StudyData``
regardless of ``workers`` and ``shard_size``:

* every household's models and firmware draws derive only from
  ``(seed, router_id)`` via :class:`SeedHierarchy`, so *where* a home is
  materialized cannot change *what* it produces;
* the only order-sensitive randomness — per-packet heartbeat loss on the
  shared collection path — is applied at *ingest* time in the parent,
  and shard results are always ingested in shard order (which equals
  deployment order), never completion order.

Memory contract: workers hold O(shard_size) households; the parent holds
a bounded window of un-ingested shard results; with the spill store
backend, resident record count is bounded too.

Fault tolerance
---------------
Because a retried shard re-derives everything from ``(seed, router_id)``,
recovery never perturbs the output: worker exceptions and corrupt results
are retried up to ``max_shard_retries`` times, a hung shard is resubmitted
after ``shard_timeout`` seconds, a collapsed process pool is rebuilt and
its in-flight shards resubmitted, and — with ``checkpoint_dir`` — the
whole campaign checkpoints after every ingest so a killed run resumes via
:func:`resume_campaign` with a bitwise-identical final ``StudyData``.
See DESIGN.md §9 for the full failure model.
"""

from __future__ import annotations

import logging
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from functools import lru_cache
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro import trace
from repro.core.datasets import StudyData
from repro.firmware.anonymize import AnonymizationPolicy
from repro.firmware.shard_collect import collect_shard
from repro.simulation.deployment import DeploymentPlan, materialize_shard
from repro.simulation.domains import default_universe
from repro.simulation.seeding import SeedHierarchy
from repro.collection.backends import SpillBackend
from repro.collection.batches import RouterUpload
from repro.collection.checkpoint import (
    CheckpointManager,
    campaign_fingerprint,
    write_campaign_checkpoint,
)
from repro.collection.faults import FaultPlan
from repro.collection.faults import trigger as _trigger_fault
from repro.collection.path import CollectionPath, PathConfig
from repro.collection.server import CollectionServer
from repro.collection.storage import RecordStore

logger = logging.getLogger(__name__)

#: Default homes per shard when ``shard_size`` is not given.  Small enough
#: that worker memory stays modest and shards interleave across workers;
#: large enough that per-shard overhead (plan pickling, universe build)
#: stays negligible.
DEFAULT_SHARD_SIZE = 16

#: Default bounded retry budget per shard (attempts = retries + 1).
DEFAULT_MAX_SHARD_RETRIES = 2

#: Base of the linear retry backoff, seconds (sleep = backoff × attempt).
DEFAULT_RETRY_BACKOFF = 0.05


class ShardFailed(RuntimeError):
    """A shard exhausted its retry budget; the campaign cannot finish."""


@lru_cache(maxsize=1)
def _shard_statics() -> Tuple[tuple, AnonymizationPolicy]:
    """Per-process (domain universe, anonymization policy) pair.

    Both are pure functions of nothing — the universe is deterministic and
    the policy's pseudonym caches are input-memoized — so a worker process
    builds them once and reuses them across every shard it runs.
    """
    universe = default_universe()
    whitelist = frozenset(
        domain.name for domain in universe if domain.whitelisted)
    return universe, AnonymizationPolicy(whitelist=whitelist)


def shard_count(n_homes: int, shard_size: Optional[int] = None) -> int:
    """How many shards a deployment splits into."""
    size = DEFAULT_SHARD_SIZE if shard_size is None else shard_size
    if size <= 0:
        raise ValueError("shard_size must be positive")
    return max(1, -(-n_homes // size))


def run_shard(plan: DeploymentPlan, shard_index: int, n_shards: int,
              seed: Optional[int] = None, attempt: int = 0,
              fault_plan: Optional[FaultPlan] = None,
              collect_trace: bool = False,
              ) -> Union[List[RouterUpload],
                         Tuple[List[RouterUpload], dict]]:
    """Materialize and run one shard's routers; return their uploads.

    This is the unit of work shipped to a worker process.  *seed* drives
    the firmware draws (it defaults to the plan's seed; household models
    always derive from the plan's own seed).  With ``collect_trace`` the
    shard instead returns ``(uploads, spans)``, where ``spans`` is the
    drained :mod:`repro.trace` snapshot of its materialize and collect
    spans for the parent to merge; the recorder is restarted first
    (:func:`repro.trace.restart`), so a forked worker neither re-ships
    spans inherited from its parent nor writes through its parent's
    sinks.  The parent's sinks see these spans once, as it merges them.
    Tracing touches no RNG, so the uploads are bitwise-identical with or
    without it.

    *attempt* and *fault_plan* belong to the fault-injection harness
    (:mod:`repro.collection.faults`): a fault scheduled at this
    ``(shard_index, attempt)`` coordinate fires here, in the process
    that runs the shard.  Uploads never depend on the attempt number.
    """
    if collect_trace:
        trace.restart()
    fault = fault_plan.lookup(shard_index, attempt) if fault_plan else None
    if fault is not None and fault.kind != "corrupt":
        _trigger_fault(fault)
    seeds = SeedHierarchy(plan.seed if seed is None else seed)
    universe, policy = _shard_statics()
    with trace.span("materialize", cat="shard", shard=shard_index,
                    attempt=attempt):
        cohort = materialize_shard(plan, shard_index, n_shards,
                                   domain_universe=universe)
    with trace.span("collect", cat="shard", shard=shard_index,
                    attempt=attempt):
        uploads: List[RouterUpload] = collect_shard(cohort, plan, seeds,
                                                    policy)
    if fault is not None and fault.kind == "corrupt":
        # Transient corruption: drop the tail upload so the parent's
        # result validation catches the truncation and retries.
        uploads = uploads[:-1]
    if collect_trace:
        return uploads, trace.drain()
    return uploads


def _validate_uploads(plan: DeploymentPlan, shard_index: int, n_shards: int,
                      uploads: List[RouterUpload]) -> None:
    """Reject a shard result that does not cover exactly its homes.

    The shard contract is total: one upload per household config, in
    deployment order.  Anything else (a truncated result from a corrupt
    transfer, a wrong shard's payload) must be retried, never ingested —
    a silent gap would skew every per-router analysis downstream.
    """
    expected = [config.router_id
                for config in plan.shard_configs(shard_index, n_shards)]
    got = [upload.info.router_id for upload in uploads]
    if got != expected:
        raise ValueError(
            f"corrupt shard {shard_index} result: expected "
            f"{len(expected)} upload(s), got {len(got)} "
            f"(first mismatch at {_first_mismatch(expected, got)})")


def _first_mismatch(expected: List[str], got: List[str]) -> int:
    for i, (a, b) in enumerate(zip(expected, got)):
        if a != b:
            return i
    return min(len(expected), len(got))


def run_campaign(plan: DeploymentPlan, seed: Optional[int] = None,
                 path_config: Optional[PathConfig] = None,
                 store: Optional[RecordStore] = None,
                 workers: int = 1,
                 shard_size: Optional[int] = None,
                 max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
                 shard_timeout: Optional[float] = None,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 fault_plan: Optional[FaultPlan] = None,
                 checkpoint_dir: Union[str, Path, None] = None,
                 resume: bool = False,
                 materialize: bool = True,
                 ) -> Union[StudyData, RecordStore]:
    """Collect the full campaign described by *plan*.

    ``workers=1`` runs every shard in-process; ``workers=N`` fans shards
    out over a :class:`ProcessPoolExecutor`.  Either way the resulting
    ``StudyData`` is identical (see the module determinism contract).

    Fault tolerance: a shard whose attempt raises, returns a result that
    fails validation, or (parallel path only) outlives *shard_timeout*
    seconds is retried with a fresh attempt, up to *max_shard_retries*
    retries, after a linear backoff; exhausting the budget raises
    :class:`ShardFailed`.  A ``BrokenProcessPool`` rebuilds the pool and
    resubmits every in-flight shard (each resubmission consumes one
    attempt — the culprit is unknowable, and a free retry would let an
    injected ``"exit"`` fault refire forever).  *fault_plan* injects
    deterministic failures for testing (:mod:`repro.collection.faults`).

    Crash-safe resume: with *checkpoint_dir* the engine owns a durable
    :class:`SpillBackend` store inside that directory (*store* must be
    ``None``) and atomically rewrites a checkpoint manifest after every
    shard ingest; ``resume=True`` (or :func:`resume_campaign`) restores
    store, spill, and path-RNG state from the manifest and continues at
    the ingested-shard high-water mark.

    ``materialize=False`` returns the collected :class:`RecordStore`
    itself instead of freezing it into ``StudyData`` — the streaming
    analysis path (:mod:`repro.core.streaming`) reads straight off the
    store's backend reader, so a spill-backed campaign is analyzed
    without ever building in-RAM record lists.

    Observability: the engine records :mod:`repro.trace` spans (head
    wait, ingest, checkpoint, backoff, pool rebuild, and the workers'
    materialize / collect, shipped back whenever a sink is attached) and
    lifecycle instants (``campaign_started``, ``shard_retry``, ...) for
    whatever sinks are attached; none touches any RNG or the ingest
    order.  To profile a call, wrap it in ``trace.Capture`` and reduce
    the spans with ``trace.stage_totals``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if max_shard_retries < 0:
        raise ValueError("max_shard_retries cannot be negative")
    if shard_timeout is not None and shard_timeout <= 0:
        raise ValueError("shard_timeout must be positive")
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    if checkpoint_dir is not None and store is not None:
        raise ValueError(
            "checkpoint_dir and an explicit store are mutually exclusive: "
            "the engine owns the durable store when checkpointing")
    # Worker spans ship whenever a sink reads them; the parent merges
    # them, so each sink sees them once.
    ship_spans = trace.has_sinks()
    seed = plan.seed if seed is None else seed
    path_config = path_config or PathConfig()
    n_shards = shard_count(len(plan), shard_size)

    manager: Optional[CheckpointManager] = None
    fingerprint = ""
    if checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir)
        fingerprint = campaign_fingerprint(plan, seed, n_shards, path_config)
        store = RecordStore(plan.windows,
                            backend=SpillBackend(manager.store_dir))
    elif store is None:
        store = RecordStore(plan.windows)
    path = CollectionPath.for_study(seed, plan.windows.span, path_config)
    server = CollectionServer(store, path)

    start_shard = 0
    checkpoint = None
    if resume:
        checkpoint = manager.load()
        manager.validate(checkpoint, fingerprint)
        store.backend.restore_state(checkpoint.backend_state)
        store.restore_state(checkpoint.store_state)
        path.set_rng_state(checkpoint.path_rng_state)
        start_shard = checkpoint.shards_ingested
        trace.instant("campaign_resumed", shards_ingested=start_shard,
                      shards=n_shards)
        logger.info("resuming campaign at shard %d/%d", start_shard,
                    n_shards)

    if checkpoint is not None and checkpoint.complete:
        return store.to_study_data() if materialize else store

    logger.info("campaign: %d homes in %d shard(s), workers=%d, seed=%d",
                len(plan), n_shards, workers, seed)
    trace.instant("campaign_started", homes=len(plan), shards=n_shards,
                  workers=workers, seed=seed)

    #: attempts[i] — submissions of shard i so far; the budget allows
    #: ``max_shard_retries + 1`` in total.
    attempts: Dict[int, int] = {}

    def account_failure(index: int, reason: str,
                        exc: Optional[BaseException] = None) -> None:
        """Record one failed attempt; raise when the budget is spent."""
        trace.instant("shard_retry", shard=index,
                      attempt=attempts[index] - 1, reason=reason)
        logger.warning("shard %d attempt %d failed (%s); %d retr%s left",
                       index, attempts[index] - 1, reason,
                       max_shard_retries + 1 - attempts[index],
                       "y" if max_shard_retries + 1 - attempts[index] == 1
                       else "ies")
        if attempts[index] > max_shard_retries:
            raise ShardFailed(
                f"shard {index} failed {attempts[index]} time(s) "
                f"({reason}); retry budget exhausted") from exc
        if retry_backoff > 0:
            with trace.span("retry.backoff", cat="engine", shard=index,
                            attempt=attempts[index] - 1):
                time.sleep(retry_backoff * attempts[index])

    def ingest_uploads(index: int, ingested: int,
                       uploads: List[RouterUpload],
                       in_flight: int = 0) -> None:
        """Stream one shard's uploads into the server, then checkpoint."""
        trace.instant("shard_finished", shard=index, routers=len(uploads))
        logger.debug("shard %d/%d finished (%d routers)",
                     index + 1, n_shards, len(uploads))
        with trace.span("ingest", cat="engine", shard=index,
                        routers=len(uploads),
                        records=sum(u.record_count for u in uploads),
                        in_flight=in_flight):
            for upload in uploads:
                server.ingest(upload)
        if manager is not None:
            write_campaign_checkpoint(manager, fingerprint, n_shards,
                                      ingested, path, store)

    if workers == 1 or n_shards == 1:
        for index in range(start_shard, n_shards):
            while True:
                attempt = attempts.get(index, 0)
                attempts[index] = attempt + 1
                trace.instant("shard_started", shard=index, attempt=attempt)
                try:
                    uploads = run_shard(plan, index, n_shards, seed,
                                        attempt=attempt,
                                        fault_plan=fault_plan)
                    _validate_uploads(plan, index, n_shards, uploads)
                    break
                except ShardFailed:
                    raise
                except Exception as exc:
                    account_failure(index, type(exc).__name__, exc)
            ingest_uploads(index, index + 1, uploads)
        return store.to_study_data() if materialize else store

    # Parallel path: a sliding submission window keeps every worker fed
    # while bounding how many finished-but-not-ingested shard results the
    # parent holds; results are consumed strictly in shard order.
    max_workers = min(workers, n_shards - start_shard)
    window = 2 * max_workers
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        pending: Deque[Tuple[int, Future]] = deque()
        next_shard = start_shard

        def submit(index: int) -> Tuple[int, Future]:
            # The attempt counter advances only after pool.submit
            # succeeds — a submission that dies on a broken pool never
            # happened, so it must not burn retry budget.
            attempt = attempts.get(index, 0)
            with trace.span("submit", cat="engine", shard=index,
                            attempt=attempt):
                future = pool.submit(run_shard, plan, index, n_shards, seed,
                                     attempt=attempt, fault_plan=fault_plan,
                                     collect_trace=ship_spans)
            attempts[index] = attempt + 1
            trace.instant("shard_started", shard=index, attempt=attempt)
            return index, future

        def rebuild_pool(exc: BaseException) -> None:
            # A worker died hard; the whole pool is unusable.  Every
            # in-flight shard is charged one attempt (the culprit is
            # unknowable — a free retry would let an injected "exit"
            # fault refire forever) and resubmitted into a fresh pool,
            # preserving ingest order.
            nonlocal pool
            trace.instant("pool_rebuilt", in_flight=len(pending))
            pool.shutdown(wait=False, cancel_futures=True)
            pool = ProcessPoolExecutor(max_workers=max_workers)
            indices = [i for i, _ in pending]
            for i in indices:
                account_failure(i, "BrokenProcessPool", exc)
            pending.clear()
            for i in indices:
                pending.append(submit(i))

        def resubmit_head(index: int) -> None:
            try:
                pending[0] = submit(index)
            except BrokenProcessPool as exc:
                # The pool collapsed while the head was failing for its
                # own reasons; the rebuild resubmits the head too.
                rebuild_pool(exc)

        def top_up() -> None:
            nonlocal next_shard
            try:
                while next_shard < n_shards and len(pending) < window:
                    pending.append(submit(next_shard))
                    next_shard += 1
            except BrokenProcessPool:
                # Defer recovery: the next head wait observes the
                # collapse and triggers the rebuild with full context.
                pass

        top_up()
        ingested = start_shard
        while pending:
            index, future = pending[0]
            wait_t0 = trace.now()
            try:
                # The timeout clock starts at the head wait, not at
                # submission — a shard that merely queued behind others
                # must not be declared hung.
                try:
                    result = future.result(timeout=shard_timeout)
                except Exception as exc:
                    timeout = isinstance(exc, FutureTimeoutError)
                    trace.add_span("head_wait", wait_t0, cat="engine",
                                   shard=index, failed=True, reason=(
                                       "timeout" if timeout
                                       else type(exc).__name__))
                    raise
                trace.add_span("head_wait", wait_t0, cat="engine",
                               shard=index)
                uploads, spans = result if ship_spans else (result, {})
                _validate_uploads(plan, index, n_shards, uploads)
            except FutureTimeoutError:
                # Straggler: resubmit the head and abandon the hung
                # attempt (its worker finishes eventually; the orphaned
                # result is dropped on the floor).
                trace.instant("shard_timeout", shard=index,
                              timeout=shard_timeout)
                account_failure(index, "timeout")
                resubmit_head(index)
                continue
            except BrokenProcessPool as exc:
                with trace.span("pool.rebuild", cat="engine",
                                in_flight=len(pending)):
                    rebuild_pool(exc)
                continue
            except Exception as exc:
                account_failure(index, type(exc).__name__, exc)
                resubmit_head(index)
                continue
            pending.popleft()
            trace.merge(spans)
            ingested += 1
            ingest_uploads(index, ingested, uploads,
                           in_flight=len(pending))
            top_up()
    finally:
        pool.shutdown(wait=True)
    return store.to_study_data() if materialize else store


def resume_campaign(plan: DeploymentPlan,
                    checkpoint_dir: Union[str, Path],
                    seed: Optional[int] = None,
                    path_config: Optional[PathConfig] = None,
                    workers: int = 1,
                    shard_size: Optional[int] = None,
                    max_shard_retries: int = DEFAULT_MAX_SHARD_RETRIES,
                    shard_timeout: Optional[float] = None,
                    fault_plan: Optional[FaultPlan] = None) -> StudyData:
    """Resume a checkpointed campaign from its ingested-shard high-water
    mark, producing the same ``StudyData`` the uninterrupted run would
    have.  The configuration must match the original campaign (enforced
    via the checkpoint fingerprint); worker count and store buffering may
    differ freely.
    """
    return run_campaign(plan, seed=seed, path_config=path_config,
                        workers=workers, shard_size=shard_size,
                        max_shard_retries=max_shard_retries,
                        shard_timeout=shard_timeout, fault_plan=fault_plan,
                        checkpoint_dir=checkpoint_dir, resume=True)
