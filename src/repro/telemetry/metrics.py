"""Process-local metrics registry: counters, gauges, histograms.

The registry is a sink of the :mod:`repro.trace` recorder: it reduces
each finished span and instant, by name and args, into the series
:data:`METRICS` declares, so its memory is bounded by the series, never
by the spans.  It holds plain dicts and touches no RNG, so recording
metrics cannot perturb ``study_digest``.  The parent hands worker spans
to it as it merges them, so serial and parallel campaigns count alike.

Metric identity is ``(name, labels)``; labels are canonicalized to a
sorted tuple of ``(key, value)`` pairs so ``inc("x", dataset="flows")``
and ``inc("x", **{"dataset": "flows"})`` hit the same series.  Histograms
use fixed bucket bounds chosen at first observation (default:
:data:`DURATION_BUCKETS`, tuned for shard/stage wall times).

DESIGN.md §8 describes the catalogue; exporters for the Prometheus text
format and JSON are in :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, NamedTuple, Optional, Tuple

from repro import trace

#: Histogram bucket upper bounds (seconds) used when ``observe`` is not
#: given explicit bounds; the implicit +Inf bucket is always appended.
DURATION_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

#: A metric series key: (name, ((label, value), ...)).
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class Metric(NamedTuple):
    """One metric: the spans and instants it reduces (names; ``*`` is
    every timed span), its reduction ``(span, registry) -> [(value,
    labels)]``, its HELP line and its kind."""

    name: str
    sources: str
    reduce: Optional[Callable[[dict, "MetricsRegistry"], Iterable]]
    help: str
    kind: str = "counter"


def _count(*labels: str):
    """One per span, labelled by the named args."""
    return lambda span, _: ((1, {k: span["args"][k] for k in labels}),)


def _arg(name: str):
    """The named arg's value."""
    return lambda span, _: ((span["args"][name], {}),)


def _stage(timed: bool):
    """The span's seconds (*timed*) or one, labelled by its name."""
    return lambda span, _: ((span["dur"] if timed else 1,
                             {"stage": span["name"]}),)


def _records(span, _):
    return ((n, {"dataset": dataset})
            for dataset, n in span["args"]["ingested"].items() if n)


def _stored(span, _):
    return ((1, {}),) if span["args"]["stored"] else ()


def _shard_seconds(span, registry: "MetricsRegistry"):
    """Sum each attempt's top-level shard spans; a shard's ingest
    observes its last attempt (a failed one is never ingested)."""
    args = span["args"]
    if "shard" not in args:
        return ()
    if span["name"] == "ingest":
        runs = registry.shard_runs.pop(args["shard"], {0: 0.0})
        return ((runs[max(runs)], {}),)
    runs = registry.shard_runs.setdefault(args["shard"], {})
    attempt = args.get("attempt", 0)
    runs[attempt] = runs.get(attempt, 0.0) + span["dur"]
    return ()


#: Every metric the program records (DESIGN.md §8).  A span that failed
#: feeds only the two stage rows.
METRICS: Tuple[Metric, ...] = (
    Metric("records_ingested_total", "router_ingested", _records,
           "Records accepted by the collection server."),
    Metric("routers_ingested_total", "router_ingested", _count(),
           "Router uploads ingested by the server."),
    Metric("routers_simulated_total", "ingest", _arg("routers"),
           "Households simulated by shard workers."),
    Metric("heartbeats_sent_total", "router_ingested", _arg("sent"),
           "Heartbeats routers transmitted."),
    Metric("heartbeats_delivered_total", "router_ingested",
           _arg("delivered"), "Heartbeats that survived the path."),
    Metric("heartbeats_dropped_total", "router_ingested", _arg("dropped"),
           "Heartbeats lost on the collection path."),
    Metric("ingest_rejections_total", "ingest_rejected", _count("dataset"),
           "Uploads rejected by store consistency checks."),
    Metric("store_spills_total", "store_spill", _count(),
           "Record-store buffer spills to disk."),
    Metric("spilled_records_total", "store_spill", _arg("records"),
           "Records written to spill runs."),
    Metric("shards_completed_total", "ingest", _count(),
           "Engine shards that finished."),
    Metric("shard_seconds", "materialize collect ingest", _shard_seconds,
           "Wall-time of one shard's simulate+collect.", "histogram"),
    Metric("stage_seconds_total", "*", _stage(True),
           "Per-stage wall seconds (derived from trace spans)."),
    Metric("stage_calls_total", "*", _stage(False),
           "Per-stage call counts (derived from trace spans)."),
    # Set by the telemetry session when the campaign finishes.
    Metric("campaign_routers", "", None,
           "Homes in the finished campaign.", "gauge"),
    Metric("campaign_wall_seconds", "", None,
           "Wall-clock duration of the campaign run.", "gauge"),
    Metric("shard_retries_total", "shard_retry", _count(),
           "Shard attempts retried after a failure."),
    Metric("shard_timeouts_total", "shard_timeout", _count(),
           "Shards resubmitted as stragglers."),
    Metric("pool_rebuilds_total", "pool_rebuilt", _count(),
           "Worker-pool rebuilds after BrokenProcessPool."),
    Metric("checkpoints_written_total", "checkpoint_written", _count(),
           "Campaign checkpoint manifests written."),
    Metric("campaign_resumes_total", "campaign_resumed", _count(),
           "Campaigns resumed from a checkpoint."),
    # Network ingest service (repro.collection.netserve).
    Metric("net_connections_total", "net.accept", _count(),
           "TCP connections the ingest daemon accepted."),
    Metric("net_connections_open", "net.accept net.close",
           _arg("connections"),
           "Ingest daemon connections currently open.", "gauge"),
    Metric("net_frames_total", "net.frame", _count(),
           "Protocol frames the ingest daemon decoded."),
    Metric("net_bytes_total", "net.frame", _arg("bytes"),
           "Wire bytes the ingest daemon read."),
    Metric("net_frame_errors_total", "net_frame_error", _count(),
           "Malformed frames that closed a connection."),
    Metric("net_midframe_disconnects_total", "net_disconnect", _count(),
           "Connections lost in the middle of a frame."),
    Metric("uploads_stored_total", "net.ingest", _stored,
           "Uploads durably ingested by the daemon."),
    Metric("uploads_duplicate_total", "upload_duplicate net.duplicate",
           _count(), "Retried uploads answered as duplicates."),
    Metric("uploads_shed_total", "upload_shed", _count("reason"),
           "Uploads shed with a RETRY-AFTER response."),
    Metric("uploads_error_total", "upload_rejected", _count(),
           "Uploads rejected by validation or the store."),
)

#: Args an instant carries for the registry alone, which the event log
#: leaves out: ``router_ingested`` counts its upload's heartbeats and
#: records.
REGISTRY_ARGS = frozenset(("sent", "delivered", "dropped", "ingested"))

#: HELP text per metric name (the exporters' ``# HELP`` lines).
METRIC_HELP: Dict[str, str] = {metric.name: metric.help
                               for metric in METRICS}

#: The rows each span or instant name feeds ("*": every timed span).
_FEEDS: Dict[str, Tuple[Metric, ...]] = {}
for _metric in METRICS:
    for _source in _metric.sources.split():
        _FEEDS[_source] = _FEEDS.get(_source, ()) + (_metric,)


class MetricsRegistry:
    """Accumulates one process's counters, gauges, and histograms."""

    __slots__ = ("counters", "gauges", "histograms", "shard_runs")

    def __init__(self) -> None:
        #: key -> monotonically increasing total (int or float).
        self.counters: Dict[MetricKey, float] = {}
        #: key -> last set value.
        self.gauges: Dict[MetricKey, float] = {}
        #: key -> {"bounds": tuple, "counts": list, "sum": float,
        #:         "count": int}; counts[i] is observations <= bounds[i],
        #: counts[-1] the +Inf bucket (cumulative form is exporter's job).
        self.histograms: Dict[MetricKey, dict] = {}
        #: shard -> attempt -> seconds of its top-level shard spans, until
        #: the shard's ingest observes them (``shard_seconds``).
        self.shard_runs: Dict[int, Dict[int, float]] = {}

    # -- recording ---------------------------------------------------------------

    def __call__(self, span: dict) -> None:
        """Reduce one finished span or instant into :data:`METRICS`."""
        rows = _FEEDS["*"] if span["dur"] is not None else ()
        if not span["args"].get("failed"):
            rows += _FEEDS.get(span["name"], ())
        for metric in rows:
            record = _RECORD[metric.kind]
            for value, labels in metric.reduce(span, self):
                record(self, metric.name, value, **labels)

    def inc(self, name: str, n: float = 1, **labels: object) -> None:
        """Add *n* to a counter series (creates it at zero first)."""
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + n

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series to *value* (last write wins)."""
        self.gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float,
                buckets: Optional[Tuple[float, ...]] = None,
                **labels: object) -> None:
        """Record one observation into a histogram series.

        *buckets* fixes the series' bounds on first observation; later
        observations must not pass conflicting bounds.
        """
        key = _key(name, labels)
        hist = self.histograms.get(key)
        if hist is None:
            bounds = tuple(buckets) if buckets else DURATION_BUCKETS
            if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
                raise ValueError("histogram bounds must strictly increase")
            hist = {"bounds": bounds, "counts": [0] * (len(bounds) + 1),
                    "sum": 0.0, "count": 0}
            self.histograms[key] = hist
        elif buckets and tuple(buckets) != hist["bounds"]:
            raise ValueError(
                f"conflicting bucket bounds for {name!r}")
        hist["counts"][bisect.bisect_left(hist["bounds"], value)] += 1
        hist["sum"] += value
        hist["count"] += 1

    # -- aggregation -------------------------------------------------------------

    def snapshot(self) -> dict:
        """A picklable deep copy of everything recorded so far."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                key: {"bounds": hist["bounds"],
                      "counts": list(hist["counts"]),
                      "sum": hist["sum"], "count": hist["count"]}
                for key, hist in self.histograms.items()
            },
        }

    def clear(self) -> None:
        """Forget everything recorded (the registry stays usable)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.shard_runs.clear()


#: How a sample of each metric kind is recorded.
_RECORD = {"counter": MetricsRegistry.inc,
           "gauge": MetricsRegistry.set_gauge,
           "histogram": MetricsRegistry.observe}

_ACTIVE: Optional[MetricsRegistry] = None


def enable() -> MetricsRegistry:
    """Attach a registry to the trace recorder (idempotent); returns it."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = MetricsRegistry()
        trace.attach(_ACTIVE)
    return _ACTIVE


def disable() -> Optional[MetricsRegistry]:
    """Detach the registry; returns the registry that was attached."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    if registry is not None:
        trace.detach(registry)
    return registry


def is_enabled() -> bool:
    """True while a registry is attached in this process."""
    return _ACTIVE is not None


def active() -> Optional[MetricsRegistry]:
    """The attached registry, or None when collection is disabled."""
    return _ACTIVE


def snapshot() -> dict:
    """Picklable copy of the active registry's data (empty if disabled)."""
    registry = _ACTIVE
    if registry is None:
        return {"counters": {}, "gauges": {}, "histograms": {}}
    return registry.snapshot()
