"""Collection scaling bench: collector homes/sec over cohort columns.

Measures :func:`repro.firmware.shard_collect.collect_shard` — every
collector (heartbeat, rosters, censuses, wifi scans, capacity probes,
uptime, traffic) for a whole shard at once — at three deployment scales
(252, ~2.5k, ~10k homes).  Results land in ``BENCH_collect.json`` at the
repo root, next to ``BENCH_materialize.json``.

Cohorts are materialized outside the timed region, shard-by-shard in the
same ``DEFAULT_SHARD_SIZE`` slices the engine's workers consume, so the
number isolates what a campaign pays per home *collecting* (the
materializer has its own bench).  The 252-home point doubles as the
regression gate for the PR-7 columnar collectors: the pre-refactor
per-home ``BismarkRouter`` path spent ``BASELINE_COLLECT_SECONDS`` in
collector stages for the same homes (see BENCH_engine.json history), and
the committed ``BENCH_collect.json`` pins the refactored time — more
than 25% slower than the committed number fails the bench.
"""

import json
import os
import time
from pathlib import Path

from repro import bench, trace
from repro.collection.engine import _shard_statics, shard_count
from repro.firmware.shard_collect import collect_shard
from repro.simulation.deployment import (
    DeploymentConfig,
    build_deployment_plan,
    materialize_shard,
)
from repro.simulation.seeding import SeedHierarchy
from repro.simulation.timebase import StudyWindows

ROOT = Path(__file__).resolve().parents[1]

#: Bench windows (matches benchmarks/test_engine_scaling.py).
DURATION_SCALE = 0.02

#: Router scales measured: 252, 2520, and 10080 homes.
SCALES = (2.0, 20.0, 80.0)

#: Collector stage seconds (collect.* sum) for the 252-home bench config
#: before the PR-7 columnar refactor (see BENCH_engine.json history:
#: heartbeat 0.098 + devices 0.273 + wifi 0.320 + capacity 0.033 +
#: uptime 0.012 + traffic 0.054).
BASELINE_COLLECT_SECONDS = 0.790

#: Sustained throughput floor at the largest scale.  The measured number
#: on an idle machine is ~1000 homes/sec (published in the JSON); the
#: assert only catches order-of-magnitude regressions so a loaded CI
#: runner does not flake.
MIN_HOMES_PER_SEC = 300.0

def _plan(scale: float):
    return build_deployment_plan(DeploymentConfig(
        seed=2013, router_scale=scale,
        windows=StudyWindows().scaled(DURATION_SCALE),
        traffic_consents=10, low_activity_consents=2))


def test_collect_scaling(emit):
    committed = None
    bench_path = ROOT / "BENCH_collect.json"
    if bench_path.exists():
        committed = bench.load_bench(bench_path)

    universe, policy = _shard_statics()
    points = []
    sub_stages = {}
    for scale in SCALES:
        plan = _plan(scale)
        n_shards = shard_count(len(plan))
        seeds = SeedHierarchy(plan.seed)
        # Profile the first scale only; the capture is closed after it.
        capture = trace.Capture() if scale == SCALES[0] else None
        homes = 0
        uploads = 0
        seconds = 0.0
        for shard_index in range(n_shards):
            cohort = materialize_shard(plan, shard_index, n_shards,
                                       domain_universe=universe)
            homes += len(cohort.configs)
            t0 = time.perf_counter()
            uploads += len(collect_shard(cohort, plan, seeds, policy))
            seconds += time.perf_counter() - t0
        if capture is not None:
            seconds_by_span = trace.stage_totals(capture.spans())["seconds"]
            capture.close()
            sub_stages = {name: round(secs, 3) for name, secs
                          in sorted(seconds_by_span.items())
                          if name.startswith("collect.")}
        assert homes == len(plan)
        assert uploads == len(plan)
        points.append({
            "router_scale": scale,
            "homes": homes,
            "shards": n_shards,
            "seconds": round(seconds, 3),
            "homes_per_sec": round(homes / seconds, 1),
        })

    # Speedup gate: the 252-home collector pass must hold the PR-7 claim
    # of at least 2x over the per-home BismarkRouter path (observed ~2.8x;
    # the slack absorbs loaded CI runners).
    gate = points[0]
    assert gate["seconds"] < BASELINE_COLLECT_SECONDS / 2.0, (
        f"252-home collection regressed: {gate['seconds']}s against a "
        f"{BASELINE_COLLECT_SECONDS}s per-home baseline (need >= 2x)")

    # Regression gate against the committed bench results — the shared
    # implementation behind `repro bench diff`.
    if committed is not None:
        regressed = bench.regressions(committed, {"points": points},
                                      keys=("points[0].seconds",))
        assert not regressed, bench.format_diff(
            regressed, title="252-home collection regressed >25%")

    sustained = points[-1]
    assert sustained["homes_per_sec"] >= MIN_HOMES_PER_SEC, (
        f"collector throughput collapsed: {sustained['homes_per_sec']} "
        f"homes/sec at {sustained['homes']} homes")

    payload = {
        "duration_scale": DURATION_SCALE,
        "points": points,
        "collect_sub_stages_252": sub_stages,
        "baseline_collect_seconds_252": BASELINE_COLLECT_SECONDS,
        "speedup_vs_baseline_252": round(
            BASELINE_COLLECT_SECONDS / points[0]["seconds"], 2),
        "cpu_cores": os.cpu_count() or 1,
    }
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")
    emit("BENCH_collect", json.dumps(payload, indent=2))
