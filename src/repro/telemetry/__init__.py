"""repro.telemetry — the campaign observability subsystem.

The original BISmark deployment lived or died by its heartbeat dashboard;
this package is our equivalent for simulated campaigns at scale.  The
campaign makes one :mod:`repro.trace` call per instrumented site; the
first three pieces are sinks of that one recorder (near-free when nothing
is attached, never touching RNG state):

* :mod:`repro.telemetry.metrics` — counters/gauges/histograms registry;
* :mod:`repro.telemetry.events` — structured JSONL campaign event log;
* :mod:`repro.telemetry.progress` — the ``progress.json`` heartbeat;
* :mod:`repro.telemetry.manifest` — the run manifest that makes any
  artifact directory reproducible (config, seed, versions, git rev,
  wall time, final digest);
* :mod:`repro.telemetry.health` — deployment-health report: cohort
  coverage, dead/flapping routers, per-dataset loss accounting;
* :mod:`repro.telemetry.export` — Prometheus textfile + JSON exporters.

:class:`TelemetrySession` ties them together for one run::

    from repro import StudyConfig, run_study

    result = run_study(StudyConfig(router_scale=0.2, duration_scale=0.05),
                       telemetry_dir="artifacts/run-1")
    # artifacts/run-1/ now holds metrics.prom, metrics.json,
    # events.jsonl, manifest.json, health.json, health.txt

Determinism guarantee: a telemetry-enabled run collects bitwise-identical
data to a telemetry-off run (``study_digest``-pinned in the tier-1
suite).  Telemetry observes the campaign; it never steers it.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import List, Optional, Union

from repro.telemetry import events, metrics
from repro.telemetry.export import (
    parse_prometheus,
    render_json,
    render_prometheus,
    write_metric_files,
)
from repro.telemetry.health import (
    HealthReport,
    build_health_report,
    format_health_report,
)
from repro.telemetry.manifest import (
    ManifestError,
    RunManifest,
    build_manifest,
    load_manifest,
    validate_manifest,
    write_manifest,
)
from repro.telemetry.metrics import MetricsRegistry

logger = logging.getLogger(__name__)

__all__ = [
    "TelemetrySession",
    "MetricsRegistry",
    "HealthReport",
    "build_health_report",
    "format_health_report",
    "RunManifest",
    "ManifestError",
    "build_manifest",
    "write_manifest",
    "load_manifest",
    "validate_manifest",
    "render_prometheus",
    "render_json",
    "parse_prometheus",
    "write_metric_files",
    "events",
    "metrics",
]


class TelemetrySession:
    """One campaign's telemetry: attaches the sinks, writes the artifacts.

    Creating a session attaches the metrics registry and the JSONL event
    log under *directory* to the trace recorder; neither needs the span
    buffer.  A registry the caller already attached is used as it is.
    :meth:`finalize` writes everything into the artifact directory;
    :meth:`close` detaches the sinks this session attached.
    """

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._t0 = time.perf_counter()
        self._owns_registry = not metrics.is_enabled()
        self.registry = metrics.enable()
        self.event_log = events.enable(self.directory / "events.jsonl")
        self.manifest: Optional[RunManifest] = None
        self.health: Optional[HealthReport] = None
        logger.info("telemetry session started: %s", self.directory)

    def finalize(self, config, data, workers: int = 1,
                 trace_summary=None) -> RunManifest:
        """Write every artifact for a finished campaign.

        *config* is the :class:`~repro.core.pipeline.StudyConfig` (or any
        dataclass/dict) that produced *data*.  Computes the final
        ``study_digest`` — the one part of telemetry that is not free,
        and the reason it runs once here rather than during collection.
        *trace_summary* (a :class:`repro.trace.TraceSummary`) adds the
        Timeline section to the health report when the run was traced.
        """
        from repro.core.datasets import study_digest

        wall = time.perf_counter() - self._t0
        digest = study_digest(data)

        self.registry.set_gauge("campaign_routers", len(data.routers))
        self.registry.set_gauge("campaign_wall_seconds", round(wall, 6))
        snapshot = self.registry.snapshot()
        written: List[Path] = write_metric_files(self.directory, snapshot)

        self.health = build_health_report(
            data, metrics_snapshot=snapshot, trace_summary=trace_summary)
        health_json = self.directory / "health.json"
        health_json.write_text(self.health.to_json())
        health_txt = self.directory / "health.txt"
        health_txt.write_text(format_health_report(self.health) + "\n")
        written += [health_json, health_txt]

        self.event_log.emit("campaign_finished", routers=len(data.routers),
                            digest=digest, wall_seconds=round(wall, 3),
                            dead_routers=len(self.health.dead_routers))
        self.event_log.flush()
        written.append(self.directory / "events.jsonl")

        seed = getattr(config, "seed", 0)
        self.manifest = build_manifest(
            config=config, seed=seed, digest=digest,
            routers=len(data.routers), wall_seconds=wall, workers=workers,
            artifacts=sorted(p.name for p in written))
        write_manifest(self.directory / "manifest.json", self.manifest)
        logger.info("telemetry artifacts written to %s (digest %s)",
                    self.directory, digest[:16])
        return self.manifest

    def close(self) -> None:
        """Detach and close the event log, and detach the registry if
        this session attached it."""
        if events.active() is self.event_log:
            events.disable()
        else:  # pragma: no cover - a nested session replaced the log
            self.event_log.close()
        if self._owns_registry and metrics.active() is self.registry:
            metrics.disable()
