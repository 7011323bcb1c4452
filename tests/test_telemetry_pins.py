"""Pins of what the CI smoke jobs read from a telemetry run.

telemetry-smoke, fault-smoke and trace-smoke read a campaign's
``metrics.prom``, ``events.jsonl`` and ``progress.json``; a loadgen run
reads the ingest daemon's counters.  These tests pin, for a small
campaign run serially and on 2 workers with an injected ``corrupt``
fault (the fault-smoke shape), every series name, every value that is
not a timing, the order of the logged events and the final progress
payload, and for a loopback loadgen fleet every count the daemon's
registry keeps.  How the program records these may change; what it
records may not.
"""

import dataclasses
import json

import pytest

from repro import StudyConfig, run_study
from repro.collection.batches import encode_frame
from repro.collection.faults import FaultPlan, FaultSpec
from repro.collection.loadgen import (
    LoadConfig,
    run_load_over_loopback,
    synthetic_upload,
)
from repro.collection.netserve import ServeConfig
from repro.simulation.timebase import StudyWindows
from repro.telemetry import metrics, parse_prometheus
from repro.telemetry.events import read_events

CONFIG = StudyConfig(seed=11, router_scale=0.1, duration_scale=0.02,
                     traffic_consents=2, low_activity_consents=0,
                     shard_size=4)

#: Series whose values are timings, so only their names are pinned.
TIMINGS = ("stage_seconds_total", "shard_seconds_sum", "shard_seconds_bucket",
           "campaign_wall_seconds")

#: progress.json fields that read the clock.
PROGRESS_TIMINGS = ("ts", "records_per_sec", "elapsed_seconds")

STAGES = ("collect", "collect.capacity", "collect.devices",
          "collect.heartbeat", "collect.serialize", "collect.traffic",
          "collect.uptime", "collect.wifi", "ingest", "materialize",
          "materialize.devices", "materialize.link", "materialize.power",
          "materialize.schedule", "materialize.wireless")

#: Per-data-set records_ingested_total of the 24-home campaign.
RECORDS = {"capacity": 44, "device_counts": 494, "dns": 73, "flows": 268,
           "heartbeats": 126342, "roster": 179, "throughput": 2880,
           "uptime": 43, "wifi_scans": 2127}

BUCKETS = ("0.01", "0.05", "0.1", "0.25", "0.5", "1", "2.5", "5", "10",
           "30", "60", "120", "+Inf")


def _values(parallel: bool) -> dict:
    """The pinned non-timing values, keyed as ``parse_prometheus`` keys."""
    calls = {stage: 6 for stage in STAGES}
    calls.update({"materialize.devices": 30, "materialize.link": 24,
                  "materialize.power": 24, "materialize.schedule": 24,
                  "materialize.wireless": 24})
    if parallel:
        calls.update({"head_wait": 7, "submit": 7, "retry.backoff": 1})
    values = {
        ("campaign_routers", ()): 24,
        ("heartbeats_delivered_total", ()): 126342,
        ("heartbeats_dropped_total", ()): 516,
        ("heartbeats_sent_total", ()): 126858,
        ("routers_ingested_total", ()): 24,
        ("routers_simulated_total", ()): 24,
        ("shard_seconds_count", ()): 6,
        ("shards_completed_total", ()): 6,
    }
    if parallel:
        values[("shard_retries_total", ())] = 1
    for dataset, count in RECORDS.items():
        values[("records_ingested_total", (("dataset", dataset),))] = count
    for stage, count in calls.items():
        values[("stage_calls_total", (("stage", stage),))] = count
    return values


def _series(parallel: bool) -> set:
    """Every series name of ``metrics.prom``, timings included."""
    names = set(_values(parallel))
    names.add(("campaign_wall_seconds", ()))
    names.add(("shard_seconds_sum", ()))
    names.update(("shard_seconds_bucket", (("le", le),)) for le in BUCKETS)
    stages = [stage for (name, labels) in _values(parallel)
              if name == "stage_calls_total" for _, stage in labels]
    names.update(("stage_seconds_total", (("stage", stage),))
                 for stage in stages)
    return names


def _shard(n_routers: int) -> list:
    return ["shard_finished"] + ["router_ingested"] * n_routers


SERIAL_EVENTS = (["campaign_started"]
                 + 6 * (["shard_started"] + _shard(4))
                 + ["campaign_finished"])

#: A window of 4 submissions; shard 4 is submitted after shard 0 is
#: ingested, then shard 1's corrupt result is retried and resubmitted.
PARALLEL_EVENTS = (["campaign_started"] + ["shard_started"] * 4
                   + _shard(4) + ["shard_started", "shard_retry",
                                  "shard_started"]
                   + _shard(4) + ["shard_started"]
                   + 4 * _shard(4) + ["campaign_finished"])


def _progress(workers: int, retries: int) -> dict:
    return {"schema": 1, "status": "finished", "homes": 24,
            "workers": workers, "trace_id": "",
            "shards": {"total": 6, "ingested": 6, "in_flight": 0,
                       "retries": retries},
            "records_ingested": 132966, "eta_seconds": None}


@pytest.fixture(autouse=True)
def _registry_off():
    metrics.disable()
    yield
    metrics.disable()


@pytest.mark.parametrize("parallel", [False, True],
                         ids=["serial", "parallel-corrupt"])
def test_campaign_outputs_pinned(tmp_path, parallel):
    config, faults = CONFIG, None
    if parallel:
        config = dataclasses.replace(CONFIG, workers=2)
        faults = FaultPlan((FaultSpec(shard=1, kind="corrupt"),))
    run_study(config, telemetry_dir=tmp_path, fault_plan=faults)

    samples = parse_prometheus((tmp_path / "metrics.prom").read_text())
    assert set(samples) == _series(parallel)
    assert {key: value for key, value in samples.items()
            if key[0] not in TIMINGS} == _values(parallel)

    logged = [event["event"]
              for event in read_events(tmp_path / "events.jsonl")]
    assert logged == (PARALLEL_EVENTS if parallel else SERIAL_EVENTS)

    progress = json.loads((tmp_path / "progress.json").read_text())
    for name in PROGRESS_TIMINGS:
        progress.pop(name)
    assert progress == _progress(config.workers, int(parallel))


def test_loadgen_daemon_counters_pinned():
    config = LoadConfig(clients=40, connections=4, heartbeats_per_upload=6,
                        uptime_reports_per_upload=1, seed=3)
    registry = metrics.enable()
    run_load_over_loopback(config, ServeConfig(reorder_window=4))
    snapshot = registry.snapshot()
    span = StudyWindows().span
    # Every upload frame, then one "bye" per connection.
    wire = sum(len(encode_frame(("upload", index,
                                 synthetic_upload(index, span, config))))
               for index in range(config.clients))
    wire += config.connections * len(encode_frame(("bye",)))
    counts = {key: value for key, value in snapshot["counters"].items()
              if not key[0].startswith("stage_")}  # timings aside
    assert counts == {
        ("heartbeats_delivered_total", ()): 238,
        ("heartbeats_dropped_total", ()): 2,
        ("heartbeats_sent_total", ()): 240,
        ("net_bytes_total", ()): wire,
        ("net_connections_total", ()): 4,
        ("net_frames_total", ()): 44,
        ("records_ingested_total", (("dataset", "heartbeats"),)): 238,
        ("records_ingested_total", (("dataset", "uptime"),)): 40,
        ("routers_ingested_total", ()): 40,
        ("uploads_stored_total", ()): 40,
    }
    assert snapshot["gauges"] == {("net_connections_open", ()): 0}
