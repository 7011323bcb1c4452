"""Trace overhead bench: the observability subsystem's acceptance gate.

Runs the 252-home engine-bench campaign three ways — plain serial,
traced serial, and traced with four workers — and pins the claims the
tracing PR makes:

* **Determinism** — tracing never touches the RNG stream, so all three
  runs produce the engine bench's pinned ``study_digest``.
* **Overhead** — span recording is cheap enough to leave on: the design
  target is <2% over a plain serial run, gated here at a generous
  ``MAX_OVERHEAD_FACTOR`` so a loaded CI runner does not flake (the
  honest number is published in ``BENCH_trace.json``).
* **Coverage** — the exported Chrome trace carries every engine-side and
  worker-side span for every shard in the plan, and the computed
  :class:`~repro.trace.TraceSummary` is internally consistent: critical
  path bounded by wall clock, one track per worker plus the parent.
"""

import json
import os
import time
from pathlib import Path

from repro import StudyConfig, bench, run_study, study_digest, trace
from repro.collection.engine import shard_count
from repro.trace import load_chrome_trace, summarize_spans

ROOT = Path(__file__).resolve().parents[1]

#: The engine bench campaign: 252 homes, shortened windows.
CONFIG = dict(seed=2013, router_scale=2.0, duration_scale=0.02,
              traffic_consents=10, low_activity_consents=2)
WORKERS = 4

#: The bench digest pinned by tests/test_digest_pin.py — tracing moving
#: it would be a determinism break, not an observability feature.
BENCH_PIN = "cd4a9b8740c634a18b2915acc793f42993b42e6b285bc99fe131370a2f54c0c8"

#: CI gate for the traced/plain serial ratio.  The design target is
#: <2%; the slack absorbs noisy shared runners without letting a
#: pathological regression (per-span syscalls, pickling the recorder
#: into every task) through.
MAX_OVERHEAD_FACTOR = 1.25

#: Engine-side span names that must cover every shard in the plan.
PER_SHARD_SPANS = ("materialize", "collect", "submit", "head_wait",
                   "ingest")


def test_trace_overhead(emit, tmp_path):
    committed = None
    bench_path = ROOT / "BENCH_trace.json"
    if bench_path.exists():
        committed = bench.load_bench(bench_path)

    trace.disable()

    t0 = time.perf_counter()
    plain = run_study(StudyConfig(**CONFIG), workers=1)
    plain_seconds = time.perf_counter() - t0
    digest = study_digest(plain.data)
    assert digest == BENCH_PIN

    serial_dir = tmp_path / "serial"
    t0 = time.perf_counter()
    traced_serial = run_study(StudyConfig(**CONFIG), workers=1,
                              trace_dir=serial_dir)
    traced_serial_seconds = time.perf_counter() - t0
    assert study_digest(traced_serial.data) == digest
    assert traced_serial_seconds <= plain_seconds * MAX_OVERHEAD_FACTOR, (
        f"tracing overhead blew past the gate: {traced_serial_seconds:.3f}s "
        f"traced vs {plain_seconds:.3f}s plain")

    parallel_dir = tmp_path / "parallel"
    t0 = time.perf_counter()
    traced = run_study(StudyConfig(**CONFIG), workers=WORKERS,
                       trace_dir=parallel_dir)
    traced_parallel_seconds = time.perf_counter() - t0
    assert study_digest(traced.data) == digest

    spans, trace_id = load_chrome_trace(parallel_dir / "trace.json")
    summary = summarize_spans(spans, trace_id)
    n_shards = shard_count(len(traced.deployment.plan))

    # Every shard appears on both sides of the process-pool boundary.
    for name in PER_SHARD_SPANS:
        covered = {s["args"].get("shard") for s in spans
                   if s["name"] == name}
        assert covered == set(range(n_shards)), (
            f"{name} spans cover shards {sorted(covered)}, "
            f"expected 0..{n_shards - 1}")

    assert summary.critical_path_seconds <= summary.wall_seconds + 1e-6
    assert summary.tracks == WORKERS + 1

    worker_busy = sum(secs for track, secs in summary.track_busy.items()
                      if track != "parent")

    overhead = traced_serial_seconds / plain_seconds - 1.0
    payload = {
        "router_scale": CONFIG["router_scale"],
        "duration_scale": CONFIG["duration_scale"],
        "homes": len(traced.data.routers),
        "shards": n_shards,
        "workers": WORKERS,
        "cpu_cores": os.cpu_count() or 1,
        "plain_serial_seconds": round(plain_seconds, 3),
        "traced_serial_seconds": round(traced_serial_seconds, 3),
        "traced_overhead_fraction": round(overhead, 4),
        "traced_parallel_seconds": round(traced_parallel_seconds, 3),
        "span_count": summary.span_count,
        "tracks": summary.tracks,
        "wall_seconds": round(summary.wall_seconds, 3),
        "critical_path_seconds": round(summary.critical_path_seconds, 3),
        "worker_busy_seconds": round(worker_busy, 3),
        "ingest_stall_seconds": round(summary.ingest_stall_seconds, 3),
        "worker_utilization": round(summary.worker_utilization, 4),
        "digest": digest,
    }

    # Regression gate against the committed artifact — the shared
    # implementation behind `repro bench diff`.
    if committed is not None:
        regressed = bench.regressions(committed, payload,
                                      keys=("traced_serial_seconds",))
        assert not regressed, bench.format_diff(
            regressed, title="traced 252-home campaign regressed >25%")

    bench_path.write_text(json.dumps(payload, indent=2) + "\n")
    emit("BENCH_trace", json.dumps(payload, indent=2))
