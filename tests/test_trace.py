"""Tests for the repro.trace span-tracing subsystem.

Five contracts: the disabled path must be essentially free (the engine
calls ``trace.span`` unconditionally), the Chrome trace export must be
schema-valid (monotonic timestamps, matched B/E pairs, one track per
worker), the TraceSummary math must be exact on hand-built spans, the
per-stage profile must cover every engine stage, and a traced campaign
must collect bitwise-identical data (``study_digest`` pinned, per-shard
span coverage matching the plan).
"""

import dataclasses
import json
import time

import pytest

from repro import StudyConfig, run_study, study_digest, trace
from repro.collection.engine import shard_count
from repro.trace import (
    ENGINE_STAGES,
    chrome_trace_events,
    format_profile,
    load_chrome_trace,
    render_trace_summary,
    stage_totals,
    summarize_spans,
    write_chrome_trace,
    write_trace_summary,
)


@pytest.fixture(autouse=True)
def _clean_recorder():
    """Never leak an active recorder into (or out of) a test."""
    trace.disable()
    yield
    trace.disable()


def _span(name, ts, dur, pid, cat="engine", **args):
    """Hand-build one span dict in the recorder's internal shape."""
    return {"name": name, "cat": cat, "ts": ts, "dur": dur,
            "pid": pid, "args": args}


class TestTraceRecorder:
    def test_add_and_drain(self):
        rec = trace.enable("t-1")
        trace.add_span("collect", 10.0, 12.5, cat="shard", shard=3)
        assert len(rec) == 1
        snap = rec.drain()
        assert snap["trace_id"] == "t-1"
        (span,) = snap["spans"]
        assert span["name"] == "collect"
        assert span["dur"] == 2.5
        assert span["args"]["shard"] == 3
        assert len(rec) == 0  # drained

    def test_negative_duration_clamped(self):
        rec = trace.enable()
        trace.add_span("x", 10.0, 9.0)
        assert rec.spans[0]["dur"] == 0.0

    def test_merge_folds_worker_snapshot(self):
        rec = trace.enable()
        trace.add_span("ingest", 0.0, 1.0)
        trace.merge({"trace_id": "", "spans": [_span("collect", 0.0, 1.0,
                                                      99)]})
        assert len(rec) == 2
        assert rec.spans[1]["pid"] == 99

    def test_instant_has_no_duration(self):
        trace.enable()
        trace.instant("fault_injected", cat="fault", shard=1)
        (span,) = trace.drain()["spans"]
        assert span["dur"] is None


class TestModuleApi:
    def test_span_noop_when_disabled(self):
        with trace.span("collect", cat="shard"):
            pass
        assert trace.drain()["spans"] == []

    def test_span_records_when_enabled(self):
        trace.enable("abc")
        with trace.span("collect", cat="shard", shard=0):
            pass
        snap = trace.drain()
        assert snap["trace_id"] == "abc"
        assert snap["spans"][0]["name"] == "collect"

    def test_span_records_on_exception(self):
        trace.enable()
        with pytest.raises(RuntimeError):
            with trace.span("collect", cat="shard", shard=0):
                raise RuntimeError("boom")
        (span,) = trace.drain()["spans"]
        assert span["args"]["failed"] is True

    def test_enable_is_idempotent(self):
        rec = trace.enable("first")
        assert trace.enable() is rec
        assert trace.enable("second") is rec
        assert rec.trace_id == "second"

    def test_add_span_explicit_endpoints(self):
        trace.enable()
        t0 = trace.now()
        trace.add_span("head_wait", t0, t0 + 0.5, cat="engine", shard=2,
                       failed=True, reason="timeout")
        (span,) = trace.drain()["spans"]
        assert span["dur"] == 0.5
        assert span["args"]["reason"] == "timeout"

    def test_disabled_overhead_is_small(self):
        """The disabled path must cost well under 2% on an instrumented
        loop whose body does real (if modest) work."""
        def body():
            return sum(range(2000))

        def bare(n):
            for _ in range(n):
                body()

        def instrumented(n):
            for _ in range(n):
                with trace.span("hot"):
                    body()

        n = 2000
        bare(n), instrumented(n)  # warm up
        # Rounds alternate, so a burst of load on a shared host slows
        # both sides' rounds, not one side's only; the minima compare.
        t_bare, t_inst = [], []
        for _ in range(12):
            t_bare.append(_timed(bare, n))
            t_inst.append(_timed(instrumented, n))
        # 2% is the design target; allow generous noise headroom in CI.
        assert min(t_inst) <= min(t_bare) * 1.25


def _timed(fn, n):
    t0 = time.perf_counter()
    fn(n)
    return time.perf_counter() - t0


class TestChromeExport:
    def _sample_spans(self):
        return [
            _span("submit", 100.0, 0.01, pid=50, shard=0),
            _span("materialize", 100.02, 0.5, pid=51, cat="shard", shard=0),
            _span("collect", 100.52, 1.0, pid=51, cat="shard", shard=0),
            _span("head_wait", 100.02, 1.6, pid=50, shard=0),
            _span("fault_injected", 100.6, None, pid=51, cat="fault",
                  shard=0),
            _span("ingest", 101.62, 0.2, pid=50, shard=0),
        ]

    def test_timestamps_monotonic_and_normalized(self):
        events = chrome_trace_events(self._sample_spans())
        timed = [e for e in events if e["ph"] in ("B", "E", "i")]
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        assert ts[0] == 0.0  # normalized to the earliest span

    def test_be_pairs_matched_per_track(self):
        events = chrome_trace_events(self._sample_spans())
        depth = {}
        for event in events:
            if event["ph"] == "B":
                depth[event["tid"]] = depth.get(event["tid"], 0) + 1
            elif event["ph"] == "E":
                depth[event["tid"]] = depth[event["tid"]] - 1
                assert depth[event["tid"]] >= 0, "E without matching B"
        assert all(d == 0 for d in depth.values())

    def test_metadata_names_every_track(self):
        events = chrome_trace_events(self._sample_spans())
        meta = [e for e in events if e["ph"] == "M"]
        thread_names = {e["tid"]: e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        # pid 50 recorded the engine spans → parent track 0.
        assert thread_names[0] == "parent"
        assert thread_names[1] == "worker-1"
        assert any(e["name"] == "process_name" for e in meta)
        assert all(e["pid"] == 1 for e in events)

    def test_instants_exported(self):
        events = chrome_trace_events(self._sample_spans())
        instants = [e for e in events if e["ph"] == "i"]
        assert [e["name"] for e in instants] == ["fault_injected"]

    def test_empty_buffer_exports_nothing(self):
        assert chrome_trace_events([]) == []

    def test_round_trip_through_file(self, tmp_path):
        spans = self._sample_spans()
        path = write_chrome_trace(tmp_path / "trace.json", spans, "rt-1")
        payload = json.loads(path.read_text())
        assert payload["otherData"]["trace_id"] == "rt-1"
        assert payload["otherData"]["spans"] == len(spans)
        loaded, trace_id = load_chrome_trace(path)
        assert trace_id == "rt-1"
        # Every timed span and instant survives with its duration.
        assert len(loaded) == len(spans)
        by_name = {s["name"]: s for s in loaded}
        assert by_name["collect"]["dur"] == pytest.approx(1.0, abs=1e-6)
        assert by_name["fault_injected"]["dur"] is None
        assert by_name["collect"]["args"]["shard"] == 0

    def test_load_rejects_unmatched_events(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [
            {"ph": "E", "name": "x", "ts": 1.0, "pid": 1, "tid": 0}]}))
        with pytest.raises(ValueError, match="unmatched"):
            load_chrome_trace(path)
        path.write_text(json.dumps({"traceEvents": [
            {"ph": "B", "name": "x", "ts": 1.0, "pid": 1, "tid": 0}]}))
        with pytest.raises(ValueError, match="unclosed"):
            load_chrome_trace(path)


class TestTraceSummary:
    def _parallel_spans(self):
        """Parent pid 1: submit 1s, head_wait 2s, ingest 1s (back to
        back over [0, 4]); worker pid 2 busy 2.4s."""
        return [
            _span("submit", 0.0, 1.0, pid=1, shard=0),
            _span("head_wait", 1.0, 2.0, pid=1, shard=0),
            _span("ingest", 3.0, 1.0, pid=1, shard=0),
            _span("materialize", 0.5, 1.0, pid=2, cat="shard", shard=0,
                  attempt=0),
            _span("collect", 1.5, 1.4, pid=2, cat="shard", shard=0,
                  attempt=0),
            # Dotted sub-span: nested inside collect, not extra busy time.
            _span("collect.wifi", 1.6, 0.5, pid=2, cat="shard"),
        ]

    def test_critical_path_decomposes_parent_wall(self):
        summary = summarize_spans(self._parallel_spans(), "s-1")
        assert summary.trace_id == "s-1"
        assert summary.wall_seconds == pytest.approx(4.0)
        assert summary.critical_path_seconds == pytest.approx(4.0)
        assert summary.critical_path_seconds <= summary.wall_seconds
        path = dict(summary.critical_path)
        assert path["submit"] == pytest.approx(1.0)
        assert path["head_wait"] == pytest.approx(2.0)
        assert path["ingest"] == pytest.approx(1.0)
        assert "other" not in path  # fully covered, no gap

    def test_worker_busy_excludes_waits(self):
        summary = summarize_spans(self._parallel_spans())
        # Parent busy = submit + ingest (head_wait is blocked time).
        assert summary.track_busy["parent"] == pytest.approx(2.0)
        # Worker busy = materialize + collect; the dotted sub-span nests.
        assert summary.track_busy["worker-1"] == pytest.approx(2.4)
        assert summary.worker_utilization == pytest.approx(2.4 / 4.0)
        assert summary.ingest_stall_seconds == pytest.approx(2.0)

    def test_shard_timeline_accounting(self):
        summary = summarize_spans(self._parallel_spans())
        timeline = summary.shards[0]
        assert timeline.run_seconds == pytest.approx(2.4)
        assert timeline.head_wait_seconds == pytest.approx(2.0)
        assert timeline.ingest_seconds == pytest.approx(1.0)
        assert timeline.retry_seconds == 0.0
        assert summary.retry_charged_seconds == 0.0

    def test_retry_charges_superseded_attempts(self):
        spans = [
            # Serial retry: attempt 0 ran (and is superseded), backoff
            # slept, attempt 1 succeeded.
            _span("collect", 0.0, 1.0, pid=1, cat="shard", shard=0,
                  attempt=0),
            _span("retry.backoff", 1.0, 0.5, pid=1, shard=0, attempt=0),
            _span("collect", 1.5, 1.0, pid=1, cat="shard", shard=0,
                  attempt=1),
            # Parallel timeout: the failed wait itself is the charge.
            _span("head_wait", 0.0, 2.0, pid=1, shard=1, failed=True,
                  reason="timeout"),
        ]
        summary = summarize_spans(spans)
        assert summary.retry_charged_seconds == pytest.approx(3.5)
        assert summary.shards[0].retry_seconds == pytest.approx(1.5)
        assert summary.shards[0].attempts == 2
        assert summary.shards[1].retry_seconds == pytest.approx(2.0)

    def test_serial_utilization_uses_parent(self):
        spans = [
            _span("materialize", 0.0, 1.0, pid=1, cat="shard", shard=0),
            _span("collect", 1.0, 2.0, pid=1, cat="shard", shard=0),
            _span("ingest", 3.0, 1.0, pid=1, shard=0),
        ]
        summary = summarize_spans(spans)
        assert summary.tracks == 1
        assert summary.worker_utilization == pytest.approx(1.0)

    def test_critical_path_gap_becomes_other(self):
        spans = [
            _span("submit", 0.0, 1.0, pid=1),
            _span("ingest", 3.0, 1.0, pid=1),
        ]
        summary = summarize_spans(spans)
        path = dict(summary.critical_path)
        assert path["other"] == pytest.approx(2.0)

    def test_empty_spans_summary(self):
        summary = summarize_spans([])
        assert summary.wall_seconds == 0.0
        assert summary.critical_path == []

    def test_summary_json_and_render(self, tmp_path):
        summary = summarize_spans(self._parallel_spans(), "s-2")
        path = write_trace_summary(tmp_path / "trace_summary.json", summary)
        payload = json.loads(path.read_text())
        assert payload["trace_id"] == "s-2"
        assert payload["shards"]["0"]["ingest_seconds"] == 1.0
        text = render_trace_summary(summary)
        assert "Timeline" in text and "Critical path" in text


class TestProfile:
    CONFIG = dict(seed=2013, router_scale=0.1, duration_scale=0.02,
                  traffic_consents=2, low_activity_consents=0)

    def test_capture_leaves_an_outer_recorder_running(self):
        outer = trace.enable()
        with trace.span("before"):
            pass
        with trace.Capture() as capture:
            with trace.span("inside"):
                pass
            assert [s["name"] for s in capture.spans()] == ["inside"]
        assert trace.active() is outer
        with trace.Capture():
            pass
        trace.disable()
        with trace.Capture() as capture:
            assert trace.is_enabled()
        assert not trace.is_enabled()

    def test_table_orders_engine_stages_first(self):
        spans = [_span("zebra", 0.0, 0.1, 1),
                 _span("collect.wifi", 0.0, 0.5, 1),
                 _span("collect", 0.0, 2.0, 1),
                 _span("materialize.power", 0.0, 0.2, 1),
                 _span("materialize", 0.0, 1.0, 1)]
        totals = stage_totals(spans)
        assert totals["calls"] == {"zebra": 1, "collect.wifi": 1,
                                   "collect": 1, "materialize.power": 1,
                                   "materialize": 1}
        lines = format_profile(totals).splitlines()

        def row(name):
            return next(i for i, line in enumerate(lines)
                        if line.split() and line.split()[0] == name)

        assert row("materialize") < row("materialize.power") < \
            row("collect") < row("collect.wifi") < row("zebra")
        # Dotted sub-stages are indented and excluded from the share total.
        assert "  materialize.power" in lines[row("materialize.power")]
        assert "32.3%" in lines[row("materialize")]  # 1.0 / (1 + 2 + 0.1)

    def test_empty_table_renders(self):
        assert "stage" in format_profile(stage_totals([]))

    def _assert_every_engine_stage(self, workers):
        with trace.Capture() as capture:
            run_study(StudyConfig(**self.CONFIG, workers=workers))
            calls = stage_totals(capture.spans())["calls"]
        for name in ENGINE_STAGES:
            assert calls.get(name, 0) > 0, name
        assert any(name.startswith("materialize.") for name in calls)

    def test_profile_covers_every_engine_stage(self):
        self._assert_every_engine_stage(workers=1)

    def test_parallel_profile_merges_worker_stages(self):
        self._assert_every_engine_stage(workers=2)


class TestTracedCampaign:
    CONFIG = StudyConfig(seed=11, router_scale=0.15, duration_scale=0.02,
                         traffic_consents=2, low_activity_consents=1)

    def test_digest_pinned_and_spans_cover_shards(self, tmp_path):
        baseline = study_digest(run_study(self.CONFIG).data)
        result = run_study(
            dataclasses.replace(self.CONFIG, workers=2, shard_size=4),
            trace_dir=tmp_path, telemetry_dir=tmp_path / "tel")
        assert study_digest(result.data) == baseline

        spans, _ = load_chrome_trace(tmp_path / "trace.json")
        n_shards = shard_count(
            len(result.deployment.plan), shard_size=4)
        for name in ("materialize", "collect", "ingest", "head_wait",
                     "submit"):
            shards = {s["args"].get("shard") for s in spans
                      if s["name"] == name}
            assert shards == set(range(n_shards)), (
                f"{name} spans cover shards {sorted(shards)}, "
                f"want 0..{n_shards - 1}")

        summary = json.loads((tmp_path / "trace_summary.json").read_text())
        assert summary["critical_path_seconds"] <= \
            summary["wall_seconds"] + 1e-9
        assert summary["tracks"] == 3  # parent + 2 workers

        # The health report surfaces the same timeline.
        health = json.loads((tmp_path / "tel" / "health.json").read_text())
        assert health["timeline"]["span_count"] == summary["span_count"]
        assert "Timeline" in (tmp_path / "tel" / "health.txt").read_text()

        # progress.json reached its terminal state.
        progress = json.loads(
            (tmp_path / "tel" / "progress.json").read_text())
        assert progress["status"] == "finished"
        assert progress["shards"]["ingested"] == n_shards

    def test_serial_trace_without_telemetry(self, tmp_path):
        result = run_study(self.CONFIG, trace_dir=tmp_path)
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "progress.json").exists()
        spans, _ = load_chrome_trace(tmp_path / "trace.json")
        assert {s["name"] for s in spans} >= {"materialize", "collect",
                                              "ingest"}
        assert not trace.is_enabled()  # run_study cleaned up
        assert len(result.data.heartbeats) > 0
