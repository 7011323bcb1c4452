"""Process-local metrics registry: counters, gauges, histograms.

The registry is the campaign's one metrics sink.  The engine, collection
server, record stores, and firmware collectors record into it through the
module-level helpers (:func:`inc`, :func:`set_gauge`, :func:`observe`),
which follow the :mod:`repro.trace` activation pattern:

* **Near-zero overhead when disabled.**  Every helper starts with one
  global read and one ``is None`` comparison — no allocation, no labels
  canonicalization — so instrumented hot paths stay free in ordinary
  (telemetry-off) runs.
* **Deterministic data flow.**  The registry holds plain dicts and never
  touches any RNG; recording metrics cannot perturb ``study_digest``.
* **One channel out of a worker.**  Shard workers record no metrics;
  they ship only their :mod:`repro.trace` spans.  The parent records
  everything else, and :func:`promote_spans` derives the per-shard
  metrics from the engine's ``ingest`` spans, so a serial and a
  parallel campaign count the same shards.

Metric identity is ``(name, labels)``; labels are canonicalized to a
sorted tuple of ``(key, value)`` pairs so ``inc("x", dataset="flows")``
and ``inc("x", **{"dataset": "flows"})`` hit the same series.  Histograms
use fixed bucket bounds chosen at first observation (default:
:data:`DURATION_BUCKETS`, tuned for shard/stage wall times).

The metric name catalogue lives in DESIGN.md §8; exporters for the
Prometheus text format and JSON are in :mod:`repro.telemetry.export`.
"""

from __future__ import annotations

import bisect
from typing import Dict, Optional, Tuple

#: Histogram bucket upper bounds (seconds) used when ``observe`` is not
#: given explicit bounds; the implicit +Inf bucket is always appended.
DURATION_BUCKETS: Tuple[float, ...] = (
    0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0)

#: A metric series key: (name, ((label, value), ...)).
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, str]) -> MetricKey:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((k, str(v)) for k, v in labels.items())))


class MetricsRegistry:
    """Accumulates one process's counters, gauges, and histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        #: key -> monotonically increasing total (int or float).
        self.counters: Dict[MetricKey, float] = {}
        #: key -> last set value.
        self.gauges: Dict[MetricKey, float] = {}
        #: key -> {"bounds": tuple, "counts": list, "sum": float,
        #:         "count": int}; counts[i] is observations <= bounds[i],
        #: counts[-1] the +Inf bucket (cumulative form is exporter's job).
        self.histograms: Dict[MetricKey, dict] = {}

    # -- recording ---------------------------------------------------------------

    def inc(self, name: str, n: float = 1, **labels: str) -> None:
        """Add *n* to a counter series (creates it at zero first)."""
        key = _key(name, labels)
        self.counters[key] = self.counters.get(key, 0) + n

    def set_gauge(self, name: str, value: float, **labels: str) -> None:
        """Set a gauge series to *value* (last write wins)."""
        self.gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float,
                buckets: Optional[Tuple[float, ...]] = None,
                **labels: str) -> None:
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


_ACTIVE: Optional[MetricsRegistry] = None


def enable() -> MetricsRegistry:
    """Activate metrics collection (idempotent); returns the registry."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = MetricsRegistry()
    return _ACTIVE


def disable() -> Optional[MetricsRegistry]:
    """Deactivate collection; returns the registry that was active."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    return registry


def is_enabled() -> bool:
    """True while a registry is active in this process."""
    return _ACTIVE is not None


def active() -> Optional[MetricsRegistry]:
    """The active registry, or None when collection is disabled."""
    return _ACTIVE


def inc(name: str, n: float = 1, **labels: str) -> None:
    """Bump a counter on the active registry (no-op when disabled)."""
    registry = _ACTIVE
    if registry is not None:
        registry.inc(name, n, **labels)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge on the active registry (no-op when disabled)."""
    registry = _ACTIVE
    if registry is not None:
        registry.set_gauge(name, value, **labels)


def observe(name: str, value: float,
            buckets: Optional[Tuple[float, ...]] = None,
            **labels: str) -> None:
    """Observe into a histogram on the active registry (no-op disabled)."""
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value, buckets=buckets, **labels)


def snapshot() -> dict:
    """Picklable copy of the active registry's data (empty if disabled)."""
    registry = _ACTIVE
    if registry is None:
        return {"counters": {}, "gauges": {}, "histograms": {}}
    return registry.snapshot()


def promote_spans(spans: list) -> None:
    """Promote trace spans into the active registry.

    Per-span-name totals become ``stage_seconds_total{stage=}`` /
    ``stage_calls_total{stage=}`` counters, so ``--profile`` and the
    telemetry export read one set of spans without timing any site twice.
    Each engine ``ingest`` span is one ingested shard: it adds one to
    ``shards_completed_total``, its ``routers`` to
    ``routers_simulated_total``, and one ``shard_seconds`` observation,
    the summed top-level ``shard`` spans (materialize, collect) of the
    shard's last attempt.  An attempt whose result failed validation is
    never ingested, so it is never counted.
    """
    registry = _ACTIVE
    if registry is None:
        return
    from repro.trace import stage_totals

    totals = stage_totals(spans)
    for stage, secs in totals["seconds"].items():
        registry.inc("stage_seconds_total", secs, stage=stage)
    for stage, calls in totals["calls"].items():
        registry.inc("stage_calls_total", calls, stage=stage)

    # shard -> attempt -> seconds of its top-level shard spans
    runs: Dict[int, Dict[int, float]] = {}
    for record in spans:
        args = record.get("args") or {}
        if (record["cat"] == "shard" and "shard" in args
                and record["dur"] is not None and "." not in record["name"]):
            attempts = runs.setdefault(int(args["shard"]), {})
            attempt = int(args.get("attempt", 0))
            attempts[attempt] = attempts.get(attempt, 0.0) + record["dur"]
    for record in spans:
        if record["cat"] == "engine" and record["name"] == "ingest":
            args = record["args"]
            attempts = runs.get(int(args["shard"]), {0: 0.0})
            registry.inc("shards_completed_total")
            registry.inc("routers_simulated_total", args["routers"])
            registry.observe("shard_seconds", attempts[max(attempts)])
