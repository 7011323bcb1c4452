"""Materialization scaling bench: homes/sec on the road to 1M homes.

Measures the columnar materializer's throughput at three deployment
scales (252, ~2.5k, ~10k homes), then runs the full 10k-home campaign
end-to-end within a time budget — the CI scale-smoke gate.  Results land
in ``BENCH_materialize.json`` at the repo root, next to
``BENCH_engine.json``.

Throughput is measured shard-by-shard exactly as the engine's workers
consume the plan (``DEFAULT_SHARD_SIZE`` homes per shard), so the number
tracks what a campaign actually pays per home, including plan slicing and
per-shard setup.  The 252-home point doubles as the regression gate for
the PR-6 columnar refactor: the pre-refactor per-home path took
``BASELINE_MATERIALIZE_SECONDS`` for the same homes.
"""

import json
import os
import time
from pathlib import Path

from repro import trace
from repro.collection.engine import run_campaign, shard_count
from repro.simulation.deployment import (
    DeploymentConfig,
    build_deployment_plan,
    materialize_shard,
)
from repro.simulation.timebase import StudyWindows

ROOT = Path(__file__).resolve().parents[1]

#: Bench windows (matches benchmarks/test_engine_scaling.py).
DURATION_SCALE = 0.02

#: Router scales measured: 252, 2520, and 10080 homes.
SCALES = (2.0, 20.0, 80.0)

#: The scale whose full campaign must finish inside the budget.
CAMPAIGN_SCALE = 80.0
CAMPAIGN_WORKERS = 2

#: Wall-clock budget for the 10k-home campaign.  Generous so a loaded CI
#: runner does not flake; override via REPRO_SCALE_BUDGET_SECONDS.
DEFAULT_CAMPAIGN_BUDGET_SECONDS = 600.0

#: Serial `materialize` stage seconds for the 252-home bench config
#: before the PR-6 columnar refactor (see BENCH_engine.json history).
BASELINE_MATERIALIZE_SECONDS = 4.43


def _plan(scale: float):
    return build_deployment_plan(DeploymentConfig(
        seed=2013, router_scale=scale,
        windows=StudyWindows().scaled(DURATION_SCALE),
        traffic_consents=10, low_activity_consents=2))


def test_materialize_scaling(emit):
    budget = float(os.environ.get("REPRO_SCALE_BUDGET_SECONDS",
                                  DEFAULT_CAMPAIGN_BUDGET_SECONDS))
    points = []
    sub_stages = {}
    for scale in SCALES:
        plan = _plan(scale)
        n_shards = shard_count(len(plan))
        # Profile the first scale only; the capture is closed after it.
        capture = trace.Capture() if scale == SCALES[0] else None
        t0 = time.perf_counter()
        homes = 0
        for shard_index in range(n_shards):
            homes += len(materialize_shard(plan, shard_index, n_shards))
        seconds = time.perf_counter() - t0
        if capture is not None:
            seconds_by_span = trace.stage_totals(capture.spans())["seconds"]
            capture.close()
            sub_stages = {name: round(secs, 3) for name, secs
                          in sorted(seconds_by_span.items())
                          if name.startswith("materialize.")}
        assert homes == len(plan)
        points.append({
            "router_scale": scale,
            "homes": homes,
            "shards": n_shards,
            "seconds": round(seconds, 3),
            "homes_per_sec": round(homes / seconds, 1),
        })

    # Regression gate: the 252-home materialization must stay far below
    # the pre-refactor per-home path (4× here; the observed win is ~8.5×,
    # the slack absorbs loaded CI runners).
    gate = points[0]
    assert gate["seconds"] < BASELINE_MATERIALIZE_SECONDS / 4.0, (
        f"252-home materialization regressed: {gate['seconds']}s against "
        f"a {BASELINE_MATERIALIZE_SECONDS}s pre-columnar baseline")

    # The 10k-home campaign must complete end-to-end within the budget.
    plan = _plan(CAMPAIGN_SCALE)
    t0 = time.perf_counter()
    data = run_campaign(plan, workers=CAMPAIGN_WORKERS)
    campaign_seconds = time.perf_counter() - t0
    assert len(data.routers) == len(plan)
    assert campaign_seconds < budget, (
        f"10k-home campaign took {campaign_seconds:.0f}s, "
        f"budget {budget:.0f}s")

    payload = {
        "duration_scale": DURATION_SCALE,
        "points": points,
        "materialize_sub_stages_252": sub_stages,
        "baseline_materialize_seconds_252": BASELINE_MATERIALIZE_SECONDS,
        "speedup_vs_baseline_252": round(
            BASELINE_MATERIALIZE_SECONDS / points[0]["seconds"], 2),
        "campaign": {
            "router_scale": CAMPAIGN_SCALE,
            "homes": len(plan),
            "workers": CAMPAIGN_WORKERS,
            "seconds": round(campaign_seconds, 1),
            "budget_seconds": budget,
        },
        "cpu_cores": os.cpu_count() or 1,
    }
    (ROOT / "BENCH_materialize.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    emit("BENCH_materialize", json.dumps(payload, indent=2))
