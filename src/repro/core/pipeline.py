"""One-call orchestration: simulate → collect → analyze-ready data.

:func:`run_study` is the library's main entry point:

>>> from repro import StudyConfig, run_study
>>> result = run_study(StudyConfig(seed=7, router_scale=0.2,
...                                duration_scale=0.1))
>>> len(result.data.heartbeats) > 0
True

``duration_scale`` shrinks every Table 2 collection window proportionally
(rate statistics are invariant; count statistics are normalized by the
analysis functions), and ``router_scale`` shrinks the per-country cohort.
Both default to the paper's full scale.
"""

from __future__ import annotations

import contextlib
import logging
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

from repro import trace
from repro.core.datasets import StudyData
from repro.core.streaming import StoreSource, StudyFigures, stream_figures
from repro.simulation.deployment import (
    Deployment,
    DeploymentConfig,
    build_deployment_plan,
)
from repro.simulation.timebase import StudyWindows
from repro.collection.backends import MemoryBackend, SpillBackend
from repro.collection.engine import run_campaign
from repro.collection.path import PathConfig
from repro.collection.storage import RecordStore

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class StudyConfig:
    """Top-level configuration for a full simulated study."""

    seed: int = 2013
    #: Scale on per-country router counts (1.0 = the paper's 126 homes).
    router_scale: float = 1.0
    #: Scale on every collection window (1.0 = the paper's Table 2 dates).
    duration_scale: float = 1.0
    #: Traffic-consenting US homes before the ≥100 MB filter.
    traffic_consents: int = 28
    #: Consenting homes that are barely active (the filter's exercise).
    low_activity_consents: int = 3
    #: Traffic-consenting homes outside the US (Section 7 expansion; the
    #: paper's own Traffic data set is US-only, so the default is 0).
    international_consents: int = 0
    #: Heartbeat path loss / collection outage model.
    path: PathConfig = field(default_factory=PathConfig)
    #: Worker processes for the campaign engine (1 = in-process serial).
    workers: int = 1
    #: Homes per engine shard (None = the engine's default).
    shard_size: Optional[int] = None
    #: Record-store backend: ``"memory"`` (everything in RAM) or
    #: ``"spill"`` (bounded-memory spill of binary segments to disk).
    store_backend: str = "memory"
    #: Spill directory (None = a private temporary directory).
    spill_dir: Optional[str] = None
    #: Resident-record bound for the spill backend.
    spill_buffer_records: int = 8192
    #: Checkpoint directory for crash-safe resume (the engine then owns
    #: a durable spill store inside it; ``store_backend`` is ignored).
    checkpoint_dir: Optional[str] = None
    #: Retry budget per shard (attempts = retries + 1).
    max_shard_retries: int = 2
    #: Straggler timeout per shard, seconds (None = wait forever;
    #: applies to the parallel engine path only).
    shard_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if not 0 < self.duration_scale <= 1:
            raise ValueError("duration_scale must be in (0, 1]")
        if self.router_scale <= 0:
            raise ValueError("router_scale must be positive")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.shard_size is not None and self.shard_size < 1:
            raise ValueError("shard_size must be positive")
        if self.store_backend not in ("memory", "spill"):
            raise ValueError("store_backend must be 'memory' or 'spill'")
        if self.spill_buffer_records < 1:
            raise ValueError("spill_buffer_records must be positive")
        if self.max_shard_retries < 0:
            raise ValueError("max_shard_retries cannot be negative")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")

    def windows(self) -> StudyWindows:
        """The (possibly shrunk) collection windows."""
        base = StudyWindows()
        if self.duration_scale >= 1.0:
            return base
        return base.scaled(self.duration_scale)

    def deployment_config(self) -> DeploymentConfig:
        """The deployment this study instantiates."""
        return DeploymentConfig(
            seed=self.seed,
            windows=self.windows(),
            router_scale=self.router_scale,
            traffic_consents=self.traffic_consents,
            low_activity_consents=self.low_activity_consents,
            international_consents=self.international_consents,
        )

    def make_store(self, windows: StudyWindows) -> RecordStore:
        """Build the record store this config selects."""
        if self.store_backend == "spill":
            backend = SpillBackend(
                directory=self.spill_dir,
                max_buffered_records=self.spill_buffer_records)
        else:
            backend = MemoryBackend()
        return RecordStore(windows, backend=backend)


@dataclass
class StudyResult:
    """A completed measurement campaign.

    ``deployment`` retains the simulator's ground truth (per-home power
    models, device populations, link configurations), which tests use to
    validate that the *analysis* recovers what the *simulation* planted.
    """

    config: StudyConfig
    deployment: Deployment
    data: StudyData


@dataclass
class StreamedStudy:
    """A completed campaign analyzed on the streaming path.

    Instead of materialized ``StudyData`` it carries the figure bundle
    computed in one pass off the record store's backend — with the spill
    backend, the records were never resident as Python lists.  ``store``
    stays open for further streaming passes (or an explicit
    ``to_study_data()`` when the caller decides to pay for it).
    """

    config: StudyConfig
    deployment: Deployment
    figures: StudyFigures
    store: RecordStore


def _start_tracing(trace_dir: Union[str, Path, None],
                   seed: int) -> Optional[trace.Capture]:
    """Capture the spans of one study run bound for *trace_dir*."""
    if trace_dir is None:
        return None
    return trace.Capture(f"study-s{seed}-{int(time.time())}")


def _export_trace(capture: Optional[trace.Capture],
                  trace_dir: Union[str, Path, None]):
    """Write the captured spans to *trace_dir*; returns the TraceSummary."""
    if capture is None:
        return None
    directory = Path(trace_dir)
    spans = capture.spans()
    trace_id = capture.recorder.trace_id
    trace.write_chrome_trace(directory / "trace.json", spans, trace_id)
    summary = trace.summarize_spans(spans, trace_id)
    trace.write_trace_summary(directory / "trace_summary.json", summary)
    logger.info("trace written to %s (%d spans)", directory, len(spans))
    return summary


def _collect(config: StudyConfig, plan, store: Optional[RecordStore],
             fault_plan, progress_dir: Union[str, Path, None], **options):
    """:func:`run_campaign` with the config's engine settings, and with a
    ``progress.json`` heartbeat in *progress_dir* (if given) attached to
    the trace recorder for the campaign."""
    from repro.telemetry.progress import PROGRESS_NAME, ProgressWriter
    watch = contextlib.nullcontext()
    if progress_dir is not None:
        buffer = trace.active()
        watch = ProgressWriter(
            Path(progress_dir) / PROGRESS_NAME, homes=len(plan),
            workers=config.workers,
            trace_id=buffer.trace_id if buffer else "")
    with watch:
        return run_campaign(
            plan, seed=config.seed, path_config=config.path, store=store,
            workers=config.workers, shard_size=config.shard_size,
            max_shard_retries=config.max_shard_retries,
            shard_timeout=config.shard_timeout, fault_plan=fault_plan,
            checkpoint_dir=config.checkpoint_dir, **options)


def run_study(config: Optional[StudyConfig] = None,
              telemetry_dir: Union[str, Path, None] = None,
              resume: bool = False,
              fault_plan=None,
              trace_dir: Union[str, Path, None] = None) -> StudyResult:
    """Run the full campaign: plan homes, run firmware shards, collect.

    For a fixed seed the result is bitwise-identical for any
    ``config.workers`` and ``config.shard_size``; the returned
    :attr:`StudyResult.deployment` is a lazy view that only materializes
    household ground truth when inspected.

    Stage timings are :mod:`repro.trace` spans: to profile a call, wrap
    it in ``trace.Capture()`` and reduce ``capture.spans()`` with
    ``trace.stage_totals`` (the CLI's ``--profile`` does exactly that).
    *telemetry_dir* activates the full :mod:`repro.telemetry` subsystem
    for this run and writes its artifacts (Prometheus/JSON metrics with
    span-derived ``stage_seconds_total``, JSONL event log, run manifest,
    deployment-health report) to that directory.  Neither observer
    changes the collected data — ``study_digest`` is pinned identical
    with telemetry on and off.

    With ``config.checkpoint_dir`` the engine owns a durable store inside
    that directory and checkpoints after every shard ingest;
    ``resume=True`` continues a previously interrupted campaign from its
    checkpoint.  *fault_plan* injects deterministic failures for testing
    (:mod:`repro.collection.faults`).  None of the fault-tolerance
    machinery changes the collected data.

    *trace_dir* activates :mod:`repro.trace` for this run and writes
    ``trace.json`` (Chrome trace-event format — load it in Perfetto) and
    ``trace_summary.json`` there; with either directory the run also
    attaches an atomic ``progress.json`` heartbeat (into *telemetry_dir*
    when given, so ``repro watch`` finds it beside the event log, else
    *trace_dir*).  Like telemetry, tracing observes the campaign without
    steering it — ``study_digest`` stays pinned.  A recorder the caller
    enabled stays enabled; one this call enabled is disabled before it
    returns.
    """
    config = config or StudyConfig()
    session = None
    if telemetry_dir is not None:
        from repro.telemetry import TelemetrySession
        session = TelemetrySession(telemetry_dir)
    capture = _start_tracing(trace_dir, config.seed)
    try:
        plan = build_deployment_plan(config.deployment_config())
        # With a checkpoint directory the engine owns the durable store;
        # otherwise the config picks the backend, and the study closes it
        # once its records are frozen.
        store = (None if config.checkpoint_dir is not None
                 else config.make_store(plan.windows))
        with store if store is not None else contextlib.nullcontext():
            data = _collect(config, plan, store, fault_plan,
                            telemetry_dir if telemetry_dir is not None
                            else trace_dir, resume=resume)
        summary = _export_trace(capture, trace_dir)
        if session is not None:
            session.finalize(config, data, workers=config.workers,
                             trace_summary=summary)
    finally:
        if capture is not None:
            capture.close()
        if session is not None:
            session.close()
    return StudyResult(config=config, deployment=Deployment(plan), data=data)


def run_study_streaming(config: Optional[StudyConfig] = None,
                        fault_plan=None,
                        trace_dir: Union[str, Path, None] = None
                        ) -> StreamedStudy:
    """Run the campaign and analyze it without materializing the study.

    The engine collects into the config's record store as usual, but the
    store is never frozen into ``StudyData``: every Section 4-6 figure is
    computed by :func:`repro.core.streaming.stream_figures` in one pass
    over the backend's record iterators.  With ``store_backend="spill"``
    peak memory stays at the spill buffer plus the sketches, whatever the
    campaign size.
    """
    config = config or StudyConfig()
    capture = _start_tracing(trace_dir, config.seed)
    try:
        plan = build_deployment_plan(config.deployment_config())
        store = _collect(config, plan,
                         None if config.checkpoint_dir is not None
                         else config.make_store(plan.windows),
                         fault_plan, trace_dir, materialize=False)
        # The streaming analyze passes record their spans too, so the
        # exported timeline covers collection *and* analysis.
        figures = stream_figures(StoreSource(store))
        _export_trace(capture, trace_dir)
    finally:
        if capture is not None:
            capture.close()
    return StreamedStudy(config=config, deployment=Deployment(plan),
                         figures=figures, store=store)
