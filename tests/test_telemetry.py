"""Tests for the campaign telemetry subsystem (repro.telemetry)."""

import dataclasses
import json
import math

import pytest

from repro import StudyConfig, run_study, trace
from repro.collection.engine import run_shard, shard_count
from repro.collection.faults import FaultPlan, FaultSpec
from repro.collection.loadgen import LoadConfig, run_load_over_loopback
from repro.collection.netserve import ServeConfig
from repro.simulation.deployment import build_deployment_plan
from repro.telemetry import (
    ManifestError,
    build_manifest,
    events,
    load_manifest,
    metrics,
    parse_prometheus,
    render_json,
    render_prometheus,
    validate_manifest,
    write_manifest,
)
from repro.telemetry.events import EventLog, read_events
from repro.telemetry.manifest import MANIFEST_SCHEMA, RunManifest
from repro.telemetry.metrics import MetricsRegistry


@pytest.fixture(autouse=True)
def _clean_sinks():
    """Every test starts and ends with telemetry deactivated."""
    metrics.disable()
    events.disable()
    trace.disable()
    yield
    metrics.disable()
    events.disable()
    trace.disable()


def _span(name, dur, cat="campaign", **args):
    """One finished span (an instant when *dur* is None)."""
    return {"name": name, "cat": cat, "ts": 0.0, "dur": dur, "pid": 1,
            "args": args}


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        reg.inc("records_ingested_total", 5, dataset="flows")
        reg.inc("records_ingested_total", 3, dataset="flows")
        reg.inc("records_ingested_total", 2, dataset="dns")
        snap = reg.snapshot()
        key = ("records_ingested_total", (("dataset", "flows"),))
        assert snap["counters"][key] == 8
        assert snap["counters"][
            ("records_ingested_total", (("dataset", "dns"),))] == 2

    def test_label_order_is_canonical(self):
        reg = MetricsRegistry()
        reg.inc("x", 1, b="2", a="1")
        reg.inc("x", 1, a="1", b="2")
        assert reg.counters[("x", (("a", "1"), ("b", "2")))] == 2

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("campaign_routers", 10)
        reg.set_gauge("campaign_routers", 126)
        assert reg.gauges[("campaign_routers", ())] == 126

    def test_histogram_buckets(self):
        reg = MetricsRegistry()
        bounds = (1.0, 2.0, 4.0)
        for value in (0.5, 1.5, 3.0, 100.0):
            reg.observe("shard_seconds", value, buckets=bounds)
        hist = reg.histograms[("shard_seconds", ())]
        assert hist["bounds"] == bounds
        assert hist["counts"] == [1, 1, 1, 1]  # last slot is +Inf
        assert hist["count"] == 4
        assert hist["sum"] == pytest.approx(105.0)

    def test_histogram_boundary_lands_in_le_bucket(self):
        reg = MetricsRegistry()
        reg.observe("h", 2.0, buckets=(1.0, 2.0, 4.0))
        assert reg.histograms[("h", ())]["counts"] == [0, 1, 0, 0]

    def test_histogram_conflicting_bounds_rejected(self):
        reg = MetricsRegistry()
        reg.observe("h", 1.0, buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="conflicting"):
            reg.observe("h", 1.0, buckets=(1.0, 3.0))
        with pytest.raises(ValueError, match="increase"):
            reg.observe("h2", 1.0, buckets=(2.0, 1.0))

    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.observe("h", 0.5, buckets=(1.0,))
        snap = reg.snapshot()
        reg.inc("x")
        reg.observe("h", 0.5, buckets=(1.0,))
        assert snap["counters"][("x", ())] == 1
        assert snap["histograms"][("h", ())]["count"] == 1

    def test_module_helpers_noop_when_disabled(self):
        assert not metrics.is_enabled()
        trace.instant("shard_retry", shard=0, attempt=0, reason="x")
        with trace.span("ingest", cat="engine", shard=0, routers=1):
            pass
        assert metrics.snapshot() == {"counters": {}, "gauges": {},
                                      "histograms": {}}
        assert not trace.has_sinks()

    def test_module_helpers_record_when_enabled(self):
        reg = metrics.enable()
        assert metrics.enable() is reg  # idempotent
        for _ in range(2):
            trace.instant("shard_retry", shard=0, attempt=0,
                          reason="x")
        snap = metrics.snapshot()
        assert snap["counters"][("shard_retries_total", ())] == 2
        reg.clear()
        assert reg.counters == {}
        assert metrics.disable() is reg
        assert metrics.active() is None
        assert not trace.has_sinks()

    def test_spans_reduce_to_stage_counters(self):
        reg = MetricsRegistry()
        for span in (_span("collect.heartbeat", 1.0, "shard"),
                     # A failed span is still timed.
                     _span("collect.heartbeat", 0.5, "shard", failed=True),
                     _span("fault_injected", None, "fault")):  # instant
            reg(span)
        counters = reg.counters
        stage = (("stage", "collect.heartbeat"),)
        assert counters[("stage_seconds_total", stage)] == 1.5
        assert counters[("stage_calls_total", stage)] == 2
        assert ("stage_calls_total", (("stage", "fault_injected"),)) \
            not in counters

    def test_spans_reduce_to_shard_metrics(self):
        """One shard per ingest span that did not fail; shard_seconds
        sums the top-level shard spans of the shard's last attempt
        only."""
        reg = MetricsRegistry()
        spans = []
        for attempt, dur in ((0, 4.0), (1, 0.5)):  # attempt 0 failed
            spans += [_span(name, seconds, "shard", shard=0,
                            attempt=attempt)
                      for name, seconds in (("materialize", dur / 2),
                                            ("collect", dur / 2),
                                            ("collect.heartbeat", 9.0))]
        spans += [_span("ingest", 1.0, "engine", shard=0, routers=3),
                  _span("materialize", 0.2, "shard", shard=1),
                  _span("ingest", 1.0, "engine", shard=1, routers=2),
                  _span("ingest", 1.0, "engine", shard=2, routers=4,
                        failed=True)]
        for span in spans:
            reg(span)
        snap = reg.snapshot()
        assert snap["counters"][("shards_completed_total", ())] == 2
        assert snap["counters"][("routers_simulated_total", ())] == 5
        hist = snap["histograms"][("shard_seconds", ())]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.7)
        assert snap["counters"][("stage_calls_total",
                                 (("stage", "ingest"),))] == 3


class TestExporters:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.inc("records_ingested_total", 7, dataset="flows")
        reg.inc("records_ingested_total", 3, dataset="dns")
        reg.set_gauge("campaign_routers", 126)
        reg.observe("shard_seconds", 0.3, buckets=(0.25, 0.5, 1.0))
        reg.observe("shard_seconds", 2.0, buckets=(0.25, 0.5, 1.0))
        return reg.snapshot()

    def test_prometheus_golden(self):
        assert render_prometheus(self._snapshot()) == (
            '# HELP records_ingested_total '
            'Records accepted by the collection server.\n'
            '# TYPE records_ingested_total counter\n'
            'records_ingested_total{dataset="dns"} 3\n'
            'records_ingested_total{dataset="flows"} 7\n'
            '# HELP campaign_routers Homes in the finished campaign.\n'
            '# TYPE campaign_routers gauge\n'
            'campaign_routers 126\n'
            '# HELP shard_seconds '
            "Wall-time of one shard's simulate+collect.\n"
            '# TYPE shard_seconds histogram\n'
            'shard_seconds_bucket{le="0.25"} 0\n'
            'shard_seconds_bucket{le="0.5"} 1\n'
            'shard_seconds_bucket{le="1"} 1\n'
            'shard_seconds_bucket{le="+Inf"} 2\n'
            'shard_seconds_sum 2.3\n'
            'shard_seconds_count 2\n'
        )

    def test_prometheus_round_trip(self):
        samples = parse_prometheus(render_prometheus(self._snapshot()))
        assert samples[("records_ingested_total",
                        (("dataset", "flows"),))] == 7
        assert samples[("campaign_routers", ())] == 126
        assert samples[("shard_seconds_bucket", (("le", "+Inf"),))] == 2
        assert samples[("shard_seconds_count", ())] == 2
        assert samples[("shard_seconds_sum", ())] == pytest.approx(2.3)

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError, match="unparseable"):
            parse_prometheus("this is { not a metric\n")

    def test_parse_handles_inf_and_comments(self):
        samples = parse_prometheus("# just a comment\nh_bucket{le=\"+Inf\"} 4")
        assert samples[("h_bucket", (("le", "+Inf"),))] == 4
        assert math.isinf(parse_prometheus("x +Inf")[("x", ())])

    def test_json_golden(self):
        payload = json.loads(render_json(self._snapshot()))
        assert payload["counters"] == [
            {"name": "records_ingested_total", "labels": {"dataset": "dns"},
             "value": 3},
            {"name": "records_ingested_total", "labels": {"dataset": "flows"},
             "value": 7},
        ]
        assert payload["gauges"] == [
            {"name": "campaign_routers", "labels": {}, "value": 126}]
        (hist,) = payload["histograms"]
        assert hist["name"] == "shard_seconds"
        assert hist["buckets"] == [[0.25, 0], [0.5, 1], [1.0, 0], ["+Inf", 1]]
        assert hist["count"] == 2


class TestEventLog:
    def test_emit_and_read_back(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("shard_started", shard=0)
        log.emit("shard_finished", shard=0, routers=7)
        log.close()
        recorded = read_events(path)
        assert [e["event"] for e in recorded] == ["shard_started",
                                                  "shard_finished"]
        assert recorded[1]["routers"] == 7
        assert all("ts" in e for e in recorded)
        assert log.emitted == 2

    def test_emit_after_close_is_dropped(self, tmp_path):
        log = EventLog(tmp_path / "e.jsonl")
        log.close()
        log.emit("campaign_started")  # must not raise
        assert log.emitted == 0

    def test_instants_logged_only_while_enabled(self, tmp_path):
        assert not events.is_enabled()
        trace.instant("campaign_started", routers=1)  # no log: dropped
        log = events.enable(tmp_path / "e.jsonl")
        buffer = trace.enable()
        trace.instant("campaign_started", routers=5)
        trace.instant("net.accept", connections=1)  # not an event
        with trace.span("shard_started"):  # a span is not an event
            pass
        trace.instant("router_ingested", router="US001", batches=2, sent=3,
                      delivered=2, ingested={"heartbeats": 2})
        assert events.disable() is log
        recorded = read_events(tmp_path / "e.jsonl")
        assert [e["event"] for e in recorded] == ["campaign_started",
                                                  "router_ingested"]
        assert recorded[0]["routers"] == 5
        # The event keeps its instant's wall-clock time, and leaves out
        # the args only the metrics registry reads.
        assert recorded[0]["ts"] == round(buffer.spans[0]["ts"], 6)
        assert set(recorded[1]) == {"ts", "event", "router", "batches"}

    def test_rotation_caps_segments(self, tmp_path):
        path = tmp_path / "events.jsonl"
        # Each event is ~100 bytes, so max_bytes=300 rotates every ~3.
        log = EventLog(path, max_bytes=300, max_segments=2)
        for i in range(20):
            log.emit("shard_finished", shard=i, pad="x" * 60)
        log.close()
        assert log.rotations > 0
        existing = [p.name for p in sorted(tmp_path.iterdir())]
        assert "events.jsonl" in existing
        assert "events.1.jsonl" in existing
        assert "events.3.jsonl" not in existing  # capped at max_segments
        # The live segment holds the newest events.
        live = read_events(path)
        assert all(e["event"] == "shard_finished" for e in live)

    def test_rotation_preserves_chronology(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, max_bytes=200, max_segments=3)
        for i in range(12):
            log.emit("tick", n=i)
        log.close()
        merged = read_events(path, include_rotated=True)
        ns = [e["n"] for e in merged]
        assert ns == sorted(ns)
        assert ns[-1] == 11  # newest event is last

    def test_rotation_drops_oldest_beyond_cap(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path, max_bytes=120, max_segments=1)
        for i in range(30):
            log.emit("tick", n=i)
        log.close()
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["events.1.jsonl", "events.jsonl"]
        merged = read_events(path, include_rotated=True)
        assert [e["n"] for e in merged][-1] == 29

    def test_context_manager_closes(self, tmp_path):
        with EventLog(tmp_path / "e.jsonl") as log:
            log.emit("campaign_started")
        log.emit("late")  # dropped: the context exit closed the file
        assert log.emitted == 1

    def test_bad_limits_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(tmp_path / "e.jsonl", max_bytes=0)
        with pytest.raises(ValueError):
            EventLog(tmp_path / "e.jsonl", max_segments=0)


class TestSinks:
    """The registry, the event log and the span buffer are sinks of one
    recorder; each is attached only while its owner wants it."""

    def test_metrics_alone_buffer_no_spans(self):
        """A daemon with only the registry on holds no span list."""
        registry = metrics.enable()
        config = LoadConfig(clients=8, connections=2,
                            heartbeats_per_upload=3,
                            uptime_reports_per_upload=1, seed=5)
        run_load_over_loopback(config, ServeConfig(reorder_window=2))
        assert not trace.is_enabled()
        assert trace.active() is None
        assert trace.drain()["spans"] == []
        assert registry.counters[("uploads_stored_total", ())] == 8
        assert registry.counters[("stage_calls_total",
                                  (("stage", "net.ingest"),))] == 8

    def test_worker_spans_reach_each_sink_once(self):
        """A shard run as a worker runs it buffers its spans instead of
        handing them to the sinks it inherited; the parent hands them to
        its sinks as it merges them."""
        config = StudyConfig(seed=3, router_scale=0.05, duration_scale=0.02,
                             traffic_consents=1, low_activity_consents=0)
        plan = build_deployment_plan(config.deployment_config())
        inherited = []
        trace.attach(inherited.append)
        _, shipped = run_shard(plan, 0, 1, collect_trace=True)
        assert inherited == []
        assert {span["name"] for span in shipped["spans"]} >= {
            "materialize", "collect"}
        trace.disable()  # the buffer the shard attached
        registry = metrics.enable()
        trace.merge(shipped)
        assert registry.counters[("stage_calls_total",
                                  (("stage", "collect"),))] == 1


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = build_manifest(
            config=StudyConfig(**{"seed": 7, "router_scale": 0.1,
                                  "duration_scale": 0.02}),
            seed=7, digest="ab" * 32, routers=12, wall_seconds=1.25,
            workers=2, artifacts=["metrics.prom"])
        path = write_manifest(tmp_path / "manifest.json", manifest)
        loaded = load_manifest(path)
        assert loaded == manifest
        assert loaded.schema == MANIFEST_SCHEMA
        assert loaded.config["seed"] == 7
        assert loaded.versions["python"]
        assert loaded.created_utc.endswith("Z")

    def test_validate_reports_every_problem(self):
        with pytest.raises(ManifestError) as exc:
            validate_manifest({"schema": 1, "digest": 12})
        problems = exc.value.problems
        assert any("missing key 'seed'" in p for p in problems)
        assert any("'digest' must be str" in p for p in problems)

    def test_validate_rejects_bad_values(self):
        payload = build_manifest(config={"seed": 1}, seed=1,
                                 digest="ab" * 32, routers=3,
                                 wall_seconds=0.1).to_dict()
        validate_manifest(payload)  # baseline: valid
        for corrupt, match in (
                (dict(payload, digest="short"), "64-hex"),
                (dict(payload, routers=-1), ">= 0"),
                (dict(payload, schema=MANIFEST_SCHEMA + 1), "newer")):
            with pytest.raises(ManifestError, match=match):
                validate_manifest(corrupt)

    def test_from_dict_ignores_unknown_keys(self):
        manifest = build_manifest(config={}, seed=1, digest="ab" * 32,
                                  routers=1, wall_seconds=0.0)
        payload = dict(manifest.to_dict(), future_field="ignored")
        assert RunManifest.from_dict(payload) == manifest


class TestTelemetrySession:
    CONFIG = StudyConfig(seed=11, router_scale=0.1, duration_scale=0.02,
                         traffic_consents=2, low_activity_consents=0)

    def test_run_study_writes_every_artifact(self, tmp_path):
        out = tmp_path / "telemetry"
        result = run_study(self.CONFIG, telemetry_dir=out)

        # Sinks are deactivated after the run.
        assert not metrics.is_enabled()
        assert not events.is_enabled()
        assert not trace.is_enabled()

        for name in ("metrics.prom", "metrics.json", "events.jsonl",
                     "manifest.json", "health.json", "health.txt"):
            assert (out / name).exists(), name

        samples = parse_prometheus((out / "metrics.prom").read_text())
        n_routers = len(result.data.routers)
        assert samples[("campaign_routers", ())] == n_routers
        assert samples[("routers_simulated_total", ())] == n_routers
        assert samples[("routers_ingested_total", ())] == n_routers
        assert samples[("heartbeats_sent_total", ())] >= \
            samples[("heartbeats_delivered_total", ())] > 0
        assert samples[("shards_completed_total", ())] >= 1
        assert ("stage_seconds_total",
                (("stage", "collect.heartbeat"),)) in samples

        manifest = load_manifest(out / "manifest.json")
        from repro import study_digest
        assert manifest.digest == study_digest(result.data)
        assert manifest.routers == n_routers
        assert manifest.seed == 11
        assert "metrics.prom" in manifest.artifacts

        recorded = [e["event"] for e in read_events(out / "events.jsonl")]
        assert recorded[0] == "campaign_started"
        assert recorded[-1] == "campaign_finished"
        assert "shard_started" in recorded and "shard_finished" in recorded
        assert "router_ingested" in recorded

        health = json.loads((out / "health.json").read_text())
        assert sum(c["deployed"] for c in health["countries"]) == n_routers

    def test_parallel_run_aggregates_worker_metrics(self, tmp_path):
        out = tmp_path / "telemetry-mp"
        result = run_study(
            dataclasses.replace(self.CONFIG, workers=2, shard_size=4),
            telemetry_dir=out)
        samples = parse_prometheus((out / "metrics.prom").read_text())
        n_routers = len(result.data.routers)
        # The shard counters derive from the parent's ingest spans.
        assert samples[("routers_simulated_total", ())] == n_routers
        assert samples[("shards_completed_total", ())] == \
            samples[("shard_seconds_count", ())] >= 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shard_counters_agree_across_worker_counts(self, tmp_path,
                                                       workers):
        """Only ingested shards count, so a retried corrupt shard counts
        once, whether it ran in-process or in a worker."""
        out = tmp_path / "telemetry"
        result = run_study(
            dataclasses.replace(self.CONFIG, workers=workers, shard_size=4),
            telemetry_dir=out,
            fault_plan=FaultPlan((FaultSpec(shard=1, kind="corrupt"),)))
        samples = parse_prometheus((out / "metrics.prom").read_text())
        n_routers = len(result.data.routers)
        assert samples[("shards_completed_total", ())] == \
            samples[("shard_seconds_count", ())] == \
            shard_count(n_routers, 4)
        assert samples[("routers_simulated_total", ())] == n_routers

    def test_caller_registry_stays_attached(self, tmp_path):
        """A session uses a registry the caller attached, and leaves it
        attached and counting."""
        registry = metrics.enable()
        result = run_study(self.CONFIG, telemetry_dir=tmp_path / "t")
        assert metrics.active() is registry
        routers = ("routers_ingested_total", ())
        assert registry.counters[routers] == len(result.data.routers)
        run_study(self.CONFIG)
        assert registry.counters[routers] == 2 * len(result.data.routers)

    def test_back_to_back_sessions_do_not_leak(self, tmp_path):
        """Each session counts only its own spans and leaves a recorder
        the caller enabled running."""
        def collect_calls(out):
            samples = parse_prometheus((out / "metrics.prom").read_text())
            return samples[("stage_calls_total", (("stage", "collect"),))]

        run_study(self.CONFIG, telemetry_dir=tmp_path / "a")
        assert not trace.is_enabled()
        run_study(self.CONFIG, telemetry_dir=tmp_path / "b")
        assert not trace.is_enabled()
        assert collect_calls(tmp_path / "a") == \
            collect_calls(tmp_path / "b") >= 1

        # A recorder the caller enabled survives both sessions.
        recorder = trace.enable()
        try:
            run_study(self.CONFIG, telemetry_dir=tmp_path / "c")
            run_study(self.CONFIG, telemetry_dir=tmp_path / "d")
            assert trace.active() is recorder
        finally:
            trace.disable()
        assert collect_calls(tmp_path / "c") == \
            collect_calls(tmp_path / "d") == collect_calls(tmp_path / "a")
