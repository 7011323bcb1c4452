"""One trial: run one workload once in this fresh process.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python -m benchmarks.e2e.trial WORKLOAD --seed N --work-dir DIR \
        [--trace trace.json]

The trial times the workload from the first shard (the first upload on
``fleet``) to finished figures (the last ACK), then checks and
fingerprints the outputs, and prints one JSON object as its last line.
Without ``--trace`` only the probes the end-to-end metrics need are
wrapped; with it every layer call is, the per-layer split is computed
and the spans are written as a Perfetto-loadable trace.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from . import spec
from .spans import (
    Recorder,
    chrome_spans,
    clock,
    layer_metrics,
    round_trips_ms,
    upload_counts,
    wire_bytes,
)
from .stats import percentile


@dataclass
class Outcome:
    """What one workload run hands back for checking."""

    #: End of the measured window; None when the last span marks it
    #: (the last ACK on ``fleet``).
    end: Optional[float]
    peak_rss_mb: float
    #: Uploads the workload attempted (homes or simulated routers).
    attempted: int
    data: object = None
    figures: object = None
    store: object = None
    spill_dir: Optional[Path] = None


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finish(**fields) -> Outcome:
    """Close the measured window: stamp the end and read peak memory."""
    end = clock()
    return Outcome(end=end, peak_rss_mb=_peak_rss_mb(), **fields)


def run_campaign(workload: spec.Workload, seed: int,
                 work_dir: Path) -> Outcome:
    """Plan → collect → figures on one of the three campaign paths."""
    from repro.collection import engine, netserve
    from repro.collection.backends import SpillBackend
    from repro.collection.storage import RecordStore
    from repro.core import streaming
    from repro.core.pipeline import StudyConfig
    from repro.simulation import deployment

    config = StudyConfig(
        seed=seed, router_scale=workload.router_scale,
        duration_scale=workload.duration_scale,
        traffic_consents=spec.TRAFFIC_CONSENTS,
        low_activity_consents=spec.LOW_ACTIVITY_CONSENTS)
    plan = deployment.build_deployment_plan(config.deployment_config())
    if workload.kind != "spill":
        collect = (engine.run_campaign if workload.kind == "memory"
                   else netserve.run_campaign_over_socket)
        data = collect(plan, seed=seed)
        figures = streaming.compute_figures(data)
        return _finish(attempted=len(plan), data=data, figures=figures)
    spill_dir = Path(tempfile.mkdtemp(prefix="spill-", dir=work_dir))
    store = RecordStore(plan.windows, backend=SpillBackend(
        spill_dir, max_buffered_records=spec.SPILL_BUFFER_RECORDS))
    store = engine.run_campaign(plan, seed=seed, store=store,
                                materialize=False)
    figures = streaming.stream_figures(streaming.StoreSource(store))
    return _finish(attempted=len(plan), figures=figures, store=store,
                   spill_dir=spill_dir)


def run_fleet(workload: spec.Workload, seed: int, work_dir: Path) -> Outcome:
    """Closed-loop synthetic routers over a few connections to a daemon.

    The window runs from the first upload to the last ACK; both come
    from the ``netserve.upload`` spans (see :func:`run_trial`).
    """
    from repro.collection import loadgen

    config = loadgen.LoadConfig(clients=workload.routers,
                                connections=spec.FLEET_CONNECTIONS, seed=seed)
    _, daemon = loadgen.run_load_over_loopback(config)
    return Outcome(end=None, peak_rss_mb=_peak_rss_mb(),
                   attempted=config.clients, store=daemon.store)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _fingerprints(workload: spec.Workload, outcome: Outcome) -> dict:
    """The outputs the pins and reference trials compare."""
    from repro.core.datasets import study_digest
    from repro.core.paperkit import render_report, reproduce_all

    data = outcome.data
    if data is None:
        data = outcome.store.to_study_data()
    prints = {"study_digest": study_digest(data)}
    if workload.kind == "fleet":
        prints["routers_stored"] = len(data.routers)
    else:
        report = render_report(reproduce_all(outcome.figures))
        prints["report_sha256"] = hashlib.sha256(report.encode()).hexdigest()
    return prints


def run_trial(name: str, seed: int, work_dir: Path,
              trace: Optional[Path] = None) -> dict:
    """Run one workload in this process; returns the trial's document."""
    workload = spec.workload(name)
    targets = [t for t in spec.TARGETS if trace or t.probe]
    recorder = Recorder().install(targets)
    runner = run_fleet if workload.kind == "fleet" else run_campaign
    try:
        outcome = runner(workload, seed, work_dir)
    finally:
        unrestored = recorder.uninstall()
    spans = recorder.spans
    window = [(t0, t1) for span, t0, t1, *_ in spans
              if span == spec.window_span(workload)]
    start = min(t0 for t0, _ in window)
    end = outcome.end if outcome.end is not None else max(
        t1 for _, t1 in window)
    round_trips = round_trips_ms(spans)
    stored, records = upload_counts(spans)
    from repro.telemetry import manifest

    try:
        disk = _dir_bytes(outcome.spill_dir) if outcome.spill_dir else 0
        result = {
            "workload": name,
            "seed": seed,
            "t_start": start,
            "wall_s": end - start,
            "peak_rss_mb": outcome.peak_rss_mb,
            "upload_p50_ms": (percentile(round_trips, 50)
                              if round_trips else None),
            "upload_p99_ms": (percentile(round_trips, 99)
                              if round_trips else None),
            "uploads_attempted": outcome.attempted,
            "uploads_stored": stored,
            "records": records,
            "wire_bytes": wire_bytes(spans),
            "disk_bytes": disk,
            "missed_targets": recorder.missed(targets, name),
            "unrestored": unrestored,
            "git_rev": manifest.git_revision(),
            "versions": manifest.collect_versions(),
        }
        result.update(_fingerprints(workload, outcome))
    finally:
        if outcome.spill_dir is not None:
            shutil.rmtree(outcome.spill_dir, ignore_errors=True)
    if trace is not None:
        from repro.trace import write_chrome_trace

        # Fleet enters neither homes layer, so its homes rates read 0.
        result["layers"] = layer_metrics(spans, start, end,
                                         outcome.attempted, records, disk)
        write_chrome_trace(trace, chrome_spans(spans, start, end),
                           f"e2e-{name}-s{seed}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e.trial")
    parser.add_argument("workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.PIN_SEED)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None,
                        help="wrap every layer and write trace.json here")
    args = parser.parse_args(argv)
    result = run_trial(args.workload, args.seed, args.work_dir, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
