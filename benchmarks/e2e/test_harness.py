"""Unit tests for the benchmark's own arithmetic, wrappers and schema.

Runs in a few seconds and never runs a campaign::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import asyncio
import json
import random
import re
import statistics

import pytest

from . import harness, spec
from .spans import (
    Recorder,
    attribute,
    chrome_spans,
    layer_metrics,
    resolve,
)
from .stats import percentile, quartiles, relative_spread, summarize, verdict

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- summaries -----------------------------------------------------------------

def test_summary_is_median_and_stdlib_quartiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    summary = summarize(values)
    assert summary["median"] == statistics.median(values)
    assert (summary["q1"], summary["q3"]) == (
        statistics.quantiles(values, n=4)[0],
        statistics.quantiles(values, n=4)[2])
    assert (summary["min"], summary["max"], summary["n"]) == (1.0, 9.0, 6)


def test_single_trial_is_its_own_quartiles():
    assert quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert relative_spread([2.5]) == 0.0


def test_relative_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert relative_spread(values) == pytest.approx((q3 - q1) / median)


def test_percentile_interpolates():
    values = list(range(101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([1.0, 2.0], 50) == 1.5
    assert percentile([7.0], 99) == 7.0


# -- self time -----------------------------------------------------------------

def test_nested_spans_get_self_time():
    spans = [("outer", 0.0, 10.0), ("mid", 2.0, 5.0), ("inner", 3.0, 4.0)]
    owned, unattributed = attribute(spans, 0.0, 12.0)
    assert owned == pytest.approx({"outer": 7.0, "mid": 2.0, "inner": 1.0})
    assert unattributed == pytest.approx(2.0)


def test_same_name_spans_accumulate():
    spans = [("a", 0.0, 1.0), ("b", 1.0, 3.0), ("a", 3.0, 3.5)]
    owned, unattributed = attribute(spans, 0.0, 4.0)
    assert owned == pytest.approx({"a": 1.5, "b": 2.0})
    assert unattributed == pytest.approx(0.5)


def test_spans_on_two_threads_split_by_latest_start():
    # Thread 1 runs x over [0, 4]; thread 2 runs y over [2, 6].  The
    # overlap goes to y, which started later, so nothing is counted twice.
    spans = [("x", 0.0, 4.0), ("y", 2.0, 6.0)]
    owned, unattributed = attribute(spans, 0.0, 8.0)
    assert owned == pytest.approx({"x": 2.0, "y": 4.0})
    assert unattributed == pytest.approx(2.0)


def test_spans_are_clipped_to_the_window():
    spans = [("plan", -1.0, -0.5), ("early", -1.0, 1.0), ("late", 9.0, 11.0)]
    owned, unattributed = attribute(spans, 0.0, 10.0)
    assert owned == pytest.approx({"early": 1.0, "late": 1.0})
    assert unattributed == pytest.approx(8.0)


def _union(intervals):
    total, cursor = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > cursor:
            total += t1 - max(t0, cursor)
            cursor = t1
    return total


def test_residual_is_wall_minus_union_and_rows_sum_to_wall():
    rng = random.Random(7)
    for _ in range(50):
        spans = []
        for _ in range(rng.randint(1, 12)):
            t0 = rng.uniform(0.0, 9.0)
            spans.append((rng.choice("abc"), t0, t0 + rng.uniform(0.0, 3.0)))
        owned, unattributed = attribute(spans, 0.0, 10.0)
        clipped = [(max(t0, 0.0), min(t1, 10.0)) for _, t0, t1 in spans]
        assert unattributed == pytest.approx(10.0 - _union(clipped))
        assert sum(owned.values()) + unattributed == pytest.approx(10.0)


def test_layer_metrics_cover_every_per_layer_metric():
    spans = [("server.ingest", 1.0, 2.0, 1, {"records": 10, "stored": True}),
             ("backends.write", 1.2, 1.5, 1, {}),
             ("deployment.plan", 0.0, 0.5, 1, {})]
    layers = layer_metrics(spans, 1.0, 3.0, homes=4, records=10,
                           disk_bytes=0)
    metrics = layers["metrics"]
    expected = {m.name for m in spec.LAYER_METRICS} - set(
        spec.VALIDITY_METRICS)
    assert set(metrics) == expected
    assert metrics["server.ingest_s"] == pytest.approx(0.7)
    assert metrics["backends.write_s"] == pytest.approx(0.3)
    assert metrics["server.records_per_s"] == pytest.approx(10.0)
    assert metrics["deployment.plan_s"] == pytest.approx(0.5)
    assert metrics["engine.unattributed_s"] == pytest.approx(1.0)


# -- compare verdicts ----------------------------------------------------------

WALL = spec.metric("wall_s")  # bound 0.20, lower is better
FAIL = spec.metric("fail_frac")  # absolute, bound 0


@pytest.mark.parametrize("change, expected", [
    ([1.00, 1.01, 0.99, 1.00, 1.02], "within bound"),
    ([1.30, 1.31, 1.29, 1.30, 1.32], "worse"),
    ([0.70, 0.71, 0.69, 0.70, 0.72], "better"),
])
def test_verdict_against_the_bound(change, expected):
    base = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(WALL, base, change)[0] == expected


def test_verdict_unresolved_when_spread_exceeds_bound():
    base = [1.0, 1.5, 0.7, 1.3, 0.8]
    change = [1.1, 0.9, 1.6, 0.6, 1.2]
    outcome, _, spread = verdict(WALL, base, change)
    assert spread > WALL.bound
    assert outcome == "unresolved"


def test_verdict_better_despite_spread_when_every_trial_wins():
    base = [2.0, 3.0, 4.0, 5.0, 6.0]
    change = [0.5, 0.6, 1.0, 1.5, 1.9]
    assert verdict(WALL, base, change)[0] == "better"


def test_absolute_failure_bound_is_plus_zero():
    assert verdict(FAIL, [0.0] * 3, [0.0] * 3)[0] == "within bound"
    assert verdict(FAIL, [0.0] * 3, [0.001] * 3)[0] == "worse"


def test_higher_is_better_metrics_flip_the_sign():
    rate = spec.Metric("rate", "1/s", "higher", 0.1)
    assert verdict(rate, [100.0] * 3, [150.0] * 3)[0] == "better"
    assert verdict(rate, [100.0] * 3, [50.0] * 3)[0] == "worse"


# -- wrappers ------------------------------------------------------------------

def sample(x):
    return x * 2


async def sample_coroutine(x):
    await asyncio.sleep(0)
    return x + 1


class Sample:
    def method(self, x):
        return x - 1


LOCAL = (spec.Target(__name__, "sample", "t.sample", ("w",)),
         spec.Target(__name__, "sample_coroutine", "t.coro", ("w",)),
         spec.Target(__name__, "Sample.method", "t.method", ("w", "v")))


def test_wrappers_time_calls_and_restore_originals():
    originals = [vars(owner)[attr]
                 for owner, attr in (resolve(t) for t in LOCAL)]
    recorder = Recorder().install(LOCAL)
    assert sample is not originals[0]
    assert globals()["sample"](3) == 6
    assert asyncio.run(globals()["sample_coroutine"](3)) == 4
    assert Sample().method(3) == 2
    assert [span[0] for span in recorder.spans] == [
        "t.sample", "t.coro", "t.method"]
    assert all(t1 >= t0 for _, t0, t1, _, _ in recorder.spans)
    assert recorder.uninstall() == []
    restored = [vars(owner)[attr]
                for owner, attr in (resolve(t) for t in LOCAL)]
    assert all(now is then for now, then in zip(restored, originals))


def test_guard_names_targets_a_workload_never_hit():
    recorder = Recorder().install(LOCAL)
    try:
        Sample().method(1)
        assert recorder.missed(LOCAL, "w") == [
            f"{__name__}.sample", f"{__name__}.sample_coroutine"]
        assert recorder.missed(LOCAL, "v") == []
    finally:
        recorder.uninstall()


def test_every_program_target_resolves_and_restores():
    originals = {t.dotted: vars(owner)[attr]
                 for t in spec.TARGETS for owner, attr in [resolve(t)]}
    recorder = Recorder().install(spec.TARGETS)
    for target in spec.TARGETS:
        owner, attr = resolve(target)
        assert vars(owner)[attr] is not originals[target.dotted]
    assert recorder.uninstall() == []
    for target in spec.TARGETS:
        owner, attr = resolve(target)
        assert vars(owner)[attr] is originals[target.dotted]


def test_renamed_target_fails_loudly():
    with pytest.raises(LookupError, match="no_such_call"):
        resolve(spec.Target(__name__, "no_such_call", "t.x", ("w",)))


def test_interleaved_round_trips_export_as_nested_tracks(tmp_path):
    from repro.trace import load_chrome_trace, write_chrome_trace

    # Two connections' round trips overlap on one event-loop thread; the
    # server-side ingest runs inside both.
    spans = [("server.ingest", 1.2, 1.4, 5, {"records": 1, "stored": True}),
             ("netserve.upload", 1.0, 2.0, 5, {"client": 1, "retries": 0}),
             ("netserve.upload", 1.1, 2.5, 5, {"client": 2, "retries": 0})]
    path = write_chrome_trace(tmp_path / "trace.json",
                              chrome_spans(spans, 1.0, 3.0))
    loaded, _ = load_chrome_trace(path)
    assert sorted(s["name"] for s in loaded) == [
        "netserve.upload", "netserve.upload", "server.ingest", "wall"]


# -- orchestration -------------------------------------------------------------

def test_rounds_rotate_the_starting_workload():
    order = list(harness.schedule(("a", "b", "c"), 3, None,
                                  {"a": 0, "b": 0, "c": 0}))
    assert order == ["a", "b", "c", "b", "c", "a", "c", "a", "b"]


def test_checker_uses_pins_then_first_trial():
    pinned = harness.Checker(spec.PIN_SEED)
    result = {"workload": "fleet", "study_digest": "x", "routers_stored": 4000,
              "missed_targets": ["m.f"], "unrestored": []}
    pinned.check(result, "trial 1")
    assert len(pinned.problems) == 2  # digest off the pin, target missed
    other = harness.Checker(spec.PIN_SEED + 1)
    other.check(dict(result, missed_targets=[]), "trial 1")
    other.check(dict(result, missed_targets=[]), "trial 2")
    other.check(dict(result, missed_targets=[], study_digest="y"), "trial 3")
    assert other.problems == [
        "fleet trial 3: study_digest is 'y', expected 'x'"]


def test_trial_metrics_per_workload():
    result = {"workload": "deep-spill", "setup_s": 0.4, "wall_s": 1.5,
              "upload_p50_ms": None, "upload_p99_ms": None,
              "peak_rss_mb": 70.0, "uploads_attempted": 67,
              "uploads_stored": 67, "records": 1000, "wire_bytes": 0,
              "disk_bytes": 9000}
    values = harness.trial_metrics(result)
    assert set(values) == {m.name for m in spec.END_TO_END
                           if "deep-spill" in m.workloads}
    assert values["disk_bytes_per_record"] == 9.0
    assert values["fail_frac"] == 0.0


# -- BENCHMARK.json ------------------------------------------------------------

def _benchmark_json():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_the_spec_projection():
    assert _benchmark_json() == spec.benchmark_json()
    # BENCHMARK.json's format wants every listed metric from every
    # workload.
    assert all(m.workloads == spec.ALL for m in spec.listed_metrics())


def test_benchmark_json_schema():
    doc = _benchmark_json()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end",
                                       "per_layer") for entry in doc[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert UNIT.match(entry["unit"]) and entry["better"] in (
            "lower", "higher")
        assert 0 <= entry["bound"] <= 0.25
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert UNIT.match(entry["unit"])
    setup = next(e for e in doc["end_to_end"] if e["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in doc["end_to_end"])
    assert all(path.startswith("benchmarks/e2e") for path in doc["paths"])


def test_every_layer_metric_names_what_it_moves():
    end_to_end = {m.name for m in spec.END_TO_END}
    for layer in spec.LAYER_METRICS:
        if layer.name in spec.VALIDITY_METRICS:
            assert not layer.moves
            continue
        assert layer.moves, layer.name
        for metric_name, workloads in layer.moves:
            assert metric_name in end_to_end, (layer.name, metric_name)
            assert workloads and set(workloads) <= set(
                spec.metric(metric_name).workloads), layer.name


def test_listed_layer_metrics_come_from_layers_every_workload_runs():
    listed = [m for m in spec.LAYER_METRICS if m.listed]
    assert listed
    for layer in listed:
        module = layer.name.split(".")[0]
        hit = {w for t in spec.TARGETS if t.span.split(".")[0] == module
               for w in t.workloads}
        # Metrics without a wrapped layer (residual, overhead) are
        # computed on every traced run.
        assert not hit or hit == set(spec.ALL), layer.name


def test_every_target_layer_has_a_timed_metric():
    layer_names = {m.name for m in spec.LAYER_METRICS}
    for span in spec.LAYERS:
        assert spec.TIMED_METRICS[span] in layer_names
        assert f"{spec.TIMED_METRICS[span]}.calls" in layer_names
