"""What the benchmark measures: workloads, metrics, wrapped layers, pins.

This module is the single source of truth.  The root ``BENCHMARK.json``
is its projection (:func:`benchmark_json`); the schema
test keeps the two identical.

Sizing.  Each workload is sized so that one trial process takes about
1.5–2.5 s on a 2-core box: a 25-s measuring window then holds 10–20
fresh-process trials, enough that some of them land outside the 10–20 s
slow episodes of a shared machine.  The workloads keep the *shape* that
makes each one stress a different layer (many short homes, few long
homes, tiny uploads), not the absolute size; README.md records the
traced self-time split that shows which layers dominate each one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

#: Seed whose outputs are pinned in :data:`PINS`.
PIN_SEED = 2013

#: Traffic-consent knobs shared by every campaign workload.
TRAFFIC_CONSENTS = 10
LOW_ACTIVITY_CONSENTS = 2

#: Resident-record bound of the spill backend in ``deep-spill``.
SPILL_BUFFER_RECORDS = 8192

#: Connections the ``fleet`` workload multiplexes its routers over.
FLEET_CONNECTIONS = 2


@dataclass(frozen=True)
class Workload:
    """One input set the benchmark runs from plan to figures (or ACK)."""

    name: str
    why: str
    #: "memory", "spill" or "socket" (a campaign) or "fleet".
    kind: str
    router_scale: float = 0.0
    duration_scale: float = 0.0
    #: Simulated routers (``fleet`` only).
    routers: int = 0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "wide",
        "many homes, short windows: materialize and collect dominate; "
        "in-process ingest, memory store, exact analysis",
        kind="memory", router_scale=2.0, duration_scale=0.02),
    Workload(
        "deep-spill",
        "few homes, long windows: per-record ingest, spill and streaming "
        "analysis dominate; the bounded-memory path",
        kind="spill", router_scale=0.5, duration_scale=0.2),
    Workload(
        "deep-socket",
        "the deep-spill plan over loopback TCP into a memory store with "
        "exact analysis, so the pair isolates wire vs spill",
        kind="socket", router_scale=0.5, duration_scale=0.2),
    Workload(
        "fleet",
        "tiny synthetic uploads over 2 closed-loop connections: the fixed "
        "cost per upload dominates; no generation or analysis",
        kind="fleet", routers=4000),
)

WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)
ALL = WORKLOAD_NAMES
CAMPAIGNS = ("wide", "deep-spill", "deep-socket")
WIRE = ("deep-socket", "fleet")
MEMORY_STORE = ("wide", "deep-socket", "fleet")


def workload(name: str) -> Workload:
    for candidate in WORKLOADS:
        if candidate.name == name:
            return candidate
    raise KeyError(f"unknown workload {name!r} (choose from "
                   f"{', '.join(WORKLOAD_NAMES)})")


# -- end-to-end metrics --------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    """One end-to-end metric, measured once per trial, gated by *bound*."""

    name: str
    unit: str
    better: str
    #: Share of the baseline median the metric may worsen by (or, with
    #: ``absolute``, the amount it may grow by) before it is a regression.
    bound: float
    workloads: Tuple[str, ...] = ALL
    absolute: bool = False
    #: Listed in BENCHMARK.json: measured on every workload, never 0, and
    #: steady enough across runs on a shared box to gate on.
    listed: bool = False


#: Definitions, units and the reasons behind each bound: README.md.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25, listed=True),
    Metric("wall_s", "s", "lower", 0.25, listed=True),
    # Upload latency is not listed in BENCHMARK.json: only fleet has it,
    # and a trial's p99 moves 15-25% between clean trials of one seed
    # (queueing between the two connections, GC).
    Metric("upload_p50_ms", "ms", "lower", 0.15, ("fleet",)),
    Metric("upload_p99_ms", "ms", "lower", 0.25, ("fleet",)),
    Metric("peak_rss_mb", "MiB", "lower", 0.15, listed=True),
    Metric("wire_bytes_per_record", "B/record", "lower", 0.01, WIRE),
    Metric("disk_bytes_per_record", "B/record", "lower", 0.01,
           ("deep-spill",)),
    # The result line carries it as its ``attempted``/``failed`` counts
    # (as a metric it reads 0 on every healthy run).
    Metric("fail_frac", "frac", "lower", 0.0, absolute=True),
)


def metric(name: str) -> Metric:
    for candidate in END_TO_END:
        if candidate.name == name:
            return candidate
    raise KeyError(name)


def listed_metrics() -> Tuple[Metric, ...]:
    """The end-to-end metrics BENCHMARK.json lists."""
    return tuple(m for m in END_TO_END if m.listed)


# -- wrapped layer calls -------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One public call the benchmark wraps with a timer."""

    module: str
    qualname: str
    #: Span name; the part before the dot is the layer (module).
    span: str
    #: Workloads on which the call must be hit at least once.
    workloads: Tuple[str, ...]
    #: Also wrapped in untimed trials (end-to-end metrics need it).
    probe: bool = False

    @property
    def dotted(self) -> str:
        return f"{self.module}.{self.qualname}"


TARGETS: Tuple[Target, ...] = (
    Target("repro.simulation.deployment", "build_deployment_plan",
           "deployment.plan", CAMPAIGNS),
    Target("repro.collection.engine", "materialize_shard",
           "cohort.materialize", CAMPAIGNS, probe=True),
    Target("repro.collection.engine", "collect_shard",
           "shard_collect.collect", CAMPAIGNS),
    Target("repro.collection.netserve", "encode_frame",
           "batches.encode", WIRE, probe=True),
    Target("repro.collection.netserve", "decode_payload",
           "batches.decode", WIRE),
    Target("repro.collection.server", "CollectionServer.ingest",
           "server.ingest", ALL, probe=True),
    Target("repro.collection.backends", "MemoryBackend.append",
           "backends.write", MEMORY_STORE),
    Target("repro.collection.backends", "MemoryBackend.put_heartbeats",
           "backends.write", MEMORY_STORE),
    Target("repro.collection.backends", "MemoryBackend.put_throughput",
           "backends.write", ("wide", "deep-socket")),
    Target("repro.collection.backends", "SpillBackend.append",
           "backends.write", ("deep-spill",)),
    Target("repro.collection.backends", "SpillBackend.put_heartbeats",
           "backends.write", ("deep-spill",)),
    Target("repro.collection.backends", "SpillBackend.put_throughput",
           "backends.write", ("deep-spill",)),
    Target("repro.collection.storage", "RecordStore.to_study_data",
           "storage.finalize", ("wide", "deep-socket")),
    Target("repro.collection.netserve", "IngestClient.upload",
           "netserve.upload", WIRE, probe=True),
    Target("repro.core.streaming", "compute_figures",
           "streaming.analyze", ("wide", "deep-socket")),
    Target("repro.core.streaming", "stream_figures",
           "streaming.analyze", ("deep-spill",)),
)

#: Span layers in table order (the self-time rows of a traced run).
LAYERS = tuple(dict.fromkeys(t.span for t in TARGETS))

#: The timed per-layer metric each span layer reports.
TIMED_METRICS = {span: ("netserve.upload_rtt_s" if span == "netserve.upload"
                        else f"{span}_s") for span in LAYERS}

def window_span(workload: Workload) -> str:
    """The layer whose first call ends set-up: the first shard of a
    campaign, or the first upload on ``fleet``, whose last ACK also
    closes the window."""
    return "netserve.upload" if workload.kind == "fleet" \
        else "cohort.materialize"


# -- per-layer metrics ---------------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    """One traced-run metric and the end-to-end metrics it should move."""

    name: str
    unit: str
    better: str
    #: ((end-to-end metric, (workload, ...)), ...); empty only for
    #: metrics in :data:`VALIDITY_METRICS`.
    moves: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: Listed in BENCHMARK.json: every workload exercises the layer, so
    #: the value is measured (never a constant 0) on each of them.  The
    #: harness reports the others too.
    listed: bool = False


def _timed(name: str, moves,
           listed: bool = False) -> Tuple[LayerMetric, LayerMetric]:
    return (LayerMetric(name, "s", "lower", moves, listed),
            LayerMetric(f"{name}.calls", "count", "lower", moves, listed))


_PLAN = (("setup_s", CAMPAIGNS),)
_MATERIALIZE = (("wall_s", ("wide",)),)
_COLLECT = (("wall_s", ("wide", "deep-spill")),)
_WIRE = (("wire_bytes_per_record", ("deep-socket",)),
         ("wall_s", ("deep-socket",)), ("upload_p50_ms", ("fleet",)))
_INGEST = (("wall_s", ("deep-spill", "deep-socket")),
           ("upload_p50_ms", ("fleet",)))
_WRITE = (("wall_s", ("deep-spill",)), ("disk_bytes_per_record",
                                        ("deep-spill",)),
          ("peak_rss_mb", ("deep-spill",)))
_FINALIZE = (("wall_s", ("wide", "deep-socket")),
             ("peak_rss_mb", ("wide", "deep-socket")))
_NETSERVE = (("upload_p99_ms", ("fleet",)), ("fail_frac", ("fleet",)))
_ANALYZE = (("wall_s", ("deep-spill", "deep-socket", "wide")),)

LAYER_METRICS: Tuple[LayerMetric, ...] = (
    *_timed("deployment.plan_s", _PLAN),
    *_timed("cohort.materialize_s", _MATERIALIZE),
    LayerMetric("cohort.homes_per_s", "homes/s", "higher", _MATERIALIZE),
    *_timed("shard_collect.collect_s", _COLLECT),
    LayerMetric("shard_collect.homes_per_s", "homes/s", "higher", _COLLECT),
    *_timed("batches.encode_s", _WIRE),
    *_timed("batches.decode_s", _WIRE),
    LayerMetric("batches.bytes_per_upload", "B/upload", "lower", _WIRE),
    *_timed("server.ingest_s", _INGEST, listed=True),
    LayerMetric("server.records_per_s", "records/s", "higher", _INGEST,
                listed=True),
    *_timed("backends.write_s", _WRITE, listed=True),
    LayerMetric("backends.disk_bytes", "B", "lower", _WRITE),
    *_timed("storage.finalize_s", _FINALIZE),
    *_timed("netserve.upload_rtt_s", _NETSERVE),
    LayerMetric("netserve.wait_s", "s", "lower", _NETSERVE),
    LayerMetric("netserve.retries_per_upload", "count", "lower", _NETSERVE),
    *_timed("streaming.analyze_s", _ANALYZE),
    LayerMetric("streaming.records_per_s", "records/s", "higher", _ANALYZE),
    # Not listed: on fleet the upload spans of the two connections cover
    # the whole window, so it reads exactly 0 there.
    LayerMetric("engine.unattributed_s", "s", "lower", (("wall_s", ALL),)),
    LayerMetric("trace_overhead_frac", "frac", "lower", (), listed=True),
)

#: Layer metrics that check the split itself rather than move a result.
VALIDITY_METRICS = ("trace_overhead_frac",)


# -- correctness pins ----------------------------------------------------------

#: Outputs at :data:`PIN_SEED`: ``study_digest`` of the collected study,
#: sha256 of ``render_report(reproduce_all(figures))``, and for ``fleet``
#: the number of routers the daemon stored.
PINS: Dict[str, Dict[str, object]] = {
    "wide": {
        "study_digest": "cd4a9b8740c634a18b2915acc793f429"
                        "93b42e6b285bc99fe131370a2f54c0c8",
        "report_sha256": "3741cc6e76deda7d9324c407c8697909"
                         "aa42d49e34db57e704303544ab05438e",
    },
    # deep-spill and deep-socket collect the same plan, so their studies
    # match; at this size every streamed sketch stays exact, so their
    # reports match too.
    "deep-spill": {
        "study_digest": "915c25cf7e570b7ce2aff7509dadd07e"
                        "04e5080cba0cca28479c3ad299075757",
        "report_sha256": "9f0921a8dadd9db383d9707baf6162b9"
                         "de6736bce416119726e72f572bd42e21",
    },
    "deep-socket": {
        "study_digest": "915c25cf7e570b7ce2aff7509dadd07e"
                        "04e5080cba0cca28479c3ad299075757",
        "report_sha256": "9f0921a8dadd9db383d9707baf6162b9"
                         "de6736bce416119726e72f572bd42e21",
    },
    "fleet": {
        "study_digest": "83b76c81fd69a915e4cfe686c6eb508c"
                        "3e18950f8ee3f0c37fcd8ae1cb887008",
        "routers_stored": 4000,
    },
}


# -- BENCHMARK.json ------------------------------------------------------------

#: Seconds one run of the BENCHMARK.json command measures for.
RUN_SECONDS = 25


def benchmark_json() -> dict:
    """The BENCHMARK.json document this module implies."""
    return {
        "command": ["python3", "benchmarks/e2e/__main__.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in listed_metrics()],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in LAYER_METRICS if m.listed],
    }
