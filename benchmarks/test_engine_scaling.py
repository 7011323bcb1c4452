"""Engine scaling bench: serial vs shard-parallel wall-clock at 2× scale.

Runs the same 252-home campaign (``router_scale=2.0``) through the
campaign engine serially and with four worker processes, asserts the two
runs are bitwise-identical (the acceptance invariant), and records the
comparison in ``BENCH_engine.json`` at the repo root.

The serial pass runs under a trace capture so the bench records *where*
the seconds went, not just how many there were, and the payload carries
enough context to interpret the parallel number honestly:

* ``cpu_cores`` — ``speedup < 1`` is expected, not a regression, when
  four worker processes share one core; the bench annotates that case
  instead of failing.
* ``parallel_efficiency`` — speedup divided by the usable worker count
  ``min(workers, cpu_cores)``, so a 2-core runner reaching 1.9× reads as
  0.95, comparable across machines.
* ``baseline_serial_seconds`` — the PR-1 serial wall time; the PR-2
  hot-path vectorization must hold a ≥3× serial improvement against it.
"""

import json
import os
import time
from pathlib import Path

from repro import StudyConfig, run_study, study_digest, trace

ROOT = Path(__file__).resolve().parents[1]

CONFIG = dict(seed=2013, router_scale=2.0, duration_scale=0.02,
              traffic_consents=10, low_activity_consents=2)
WORKERS = 4

#: The bench digest pinned by tests/test_digest_pin.py — any engine or
#: collector change that moves it is a determinism break, not a perf win.
BENCH_PIN = "cd4a9b8740c634a18b2915acc793f42993b42e6b285bc99fe131370a2f54c0c8"

#: Serial wall-clock of this bench before the PR-2 vectorization pass.
BASELINE_SERIAL_SECONDS = 28.841


def test_engine_scaling(emit):
    trace.disable()  # a stale recorder would pollute the stage table
    with trace.Capture() as capture:
        t0 = time.perf_counter()
        serial = run_study(StudyConfig(**CONFIG), workers=1)
        serial_seconds = time.perf_counter() - t0
        stage_profile = trace.stage_totals(capture.spans())
    # The capture is closed: the parallel pass runs uninstrumented.

    t0 = time.perf_counter()
    parallel = run_study(StudyConfig(**CONFIG), workers=WORKERS)
    parallel_seconds = time.perf_counter() - t0

    digest = study_digest(serial.data)
    assert study_digest(parallel.data) == digest
    assert digest == BENCH_PIN

    cores = os.cpu_count() or 1
    speedup = serial_seconds / parallel_seconds
    annotation = None
    if WORKERS > cores:
        annotation = (f"{WORKERS} workers oversubscribe {cores} core(s): "
                      "process + pickling overhead with no extra "
                      "parallelism, so speedup below 1.0 is expected")
    payload = {
        "router_scale": CONFIG["router_scale"],
        "duration_scale": CONFIG["duration_scale"],
        "homes": len(serial.data.routers),
        "workers": WORKERS,
        "cpu_cores": cores,
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(speedup, 3),
        "parallel_efficiency": round(speedup / min(WORKERS, cores), 3),
        "baseline_serial_seconds": BASELINE_SERIAL_SECONDS,
        "serial_speedup_vs_baseline": round(
            BASELINE_SERIAL_SECONDS / serial_seconds, 3),
        "stage_seconds": {name: round(secs, 3) for name, secs
                          in sorted(stage_profile["seconds"].items(),
                                    key=lambda kv: -kv[1])},
        "stage_calls": dict(sorted(stage_profile["calls"].items())),
        "annotation": annotation,
        "digest": digest,
    }
    (ROOT / "BENCH_engine.json").write_text(json.dumps(payload, indent=2)
                                            + "\n")
    emit("BENCH_engine", json.dumps(payload, indent=2))
    emit("stage_profile", trace.format_profile(
        stage_profile, title="Serial per-stage profile"))

    if cores >= 2:
        # "Measurably faster" on multi-core hardware; generous margin so
        # a loaded runner doesn't flake the suite.
        assert parallel_seconds < serial_seconds * 0.9
