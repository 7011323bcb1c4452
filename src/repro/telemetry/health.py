"""Deployment-health reports: the operator's view of a campaign.

The paper's Heartbeat dataset existed because the BISmark operators
needed a dashboard answering three questions about 126 scattered
gateways: *who is alive*, *who is losing data*, and *is any country
cohort going dark*.  :func:`build_health_report` computes that view from
a collected :class:`~repro.core.datasets.StudyData`:

* **per-country coverage** — deployed vs. reporting routers per cohort;
* **dead routers** — never delivered a heartbeat, or silent through the
  tail of the collection window (default: the final 10%);
* **flapping routers** — downtime events at a rate no residential link
  should produce (default ≥ 3/observed day), the classic symptom of a
  failing power supply or an unplugging-prone household;
* **per-dataset accounting** — record counts plus the heartbeat loss
  rate from the collection server's sent/delivered tally
  (:attr:`StudyData.heartbeat_delivery`); the reliable-transport
  datasets (uploaded in batches, retried) report zero loss by design.

The report is pure analysis — reading it never mutates the data and
never touches RNG state.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import availability
from repro.core.datasets import StudyData
from repro.core.records import RECORD_DATASETS
from repro.trace import render_timeline

#: A router is "dead" if silent for this final fraction of the window.
DEAD_TAIL_FRACTION = 0.10

#: A router is "flapping" above this many downtimes per observed day.
FLAPPING_RATE_PER_DAY = 3.0

#: Engine-recovery counters surfaced in the report when a metrics
#: snapshot is provided (see :mod:`repro.collection.engine`).
FAULT_TOLERANCE_METRICS = (
    "shard_retries_total",
    "shard_timeouts_total",
    "pool_rebuilds_total",
    "checkpoints_written_total",
    "campaign_resumes_total",
)

#: Network ingest daemon counters surfaced in the report when a metrics
#: snapshot is provided (see :mod:`repro.collection.netserve`).
INGEST_SERVICE_METRICS = (
    "net_connections_total",
    "net_frames_total",
    "net_frame_errors_total",
    "net_midframe_disconnects_total",
    "uploads_stored_total",
    "uploads_duplicate_total",
    "uploads_shed_total",
    "uploads_error_total",
)


@dataclass(frozen=True)
class RouterHealth:
    """One gateway's delivery and availability picture."""

    router_id: str
    country_code: str
    heartbeats_sent: Optional[int]
    heartbeats_delivered: int
    #: Heartbeat loss fraction, None when the sent tally is unknown
    #: (e.g. an archive exported before loss accounting existed).
    loss_rate: Optional[float]
    availability: Optional[float]
    downtimes_per_day: Optional[float]
    last_seen: Optional[float]
    status: str  # "ok" | "dead" | "flapping"


@dataclass(frozen=True)
class CountryCoverage:
    """One country cohort's deployed-vs-reporting coverage."""

    country_code: str
    deployed: int
    reporting: int

    @property
    def coverage(self) -> float:
        return self.reporting / self.deployed if self.deployed else 0.0


@dataclass(frozen=True)
class HealthReport:
    """The full deployment-health picture for one campaign."""

    window: Tuple[float, float]
    countries: Tuple[CountryCoverage, ...]
    routers: Tuple[RouterHealth, ...]
    dataset_records: Dict[str, int] = field(default_factory=dict)
    heartbeat_loss_rate: Optional[float] = None
    #: Engine recovery counters (retries, timeouts, pool rebuilds,
    #: checkpoints, resumes) — empty when no metrics snapshot was given.
    fault_tolerance: Dict[str, float] = field(default_factory=dict)
    #: Network ingest daemon counters (connections, frames, sheds,
    #: duplicates) — empty when the campaign never ran a daemon or no
    #: metrics snapshot was given.
    ingest_service: Dict[str, float] = field(default_factory=dict)
    #: :meth:`repro.trace.TraceSummary.to_dict` of the campaign's trace —
    #: None when the run was untraced.
    timeline: Optional[dict] = None

    @property
    def dead_routers(self) -> List[str]:
        return [r.router_id for r in self.routers if r.status == "dead"]

    @property
    def flapping_routers(self) -> List[str]:
        return [r.router_id for r in self.routers if r.status == "flapping"]

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["window"] = list(self.window)
        payload["dead_routers"] = self.dead_routers
        payload["flapping_routers"] = self.flapping_routers
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def _router_health(data: StudyData, router_id: str,
                   window: Tuple[float, float],
                   dead_tail_fraction: float,
                   flapping_rate_per_day: float) -> RouterHealth:
    info = data.routers[router_id]
    log = data.heartbeats.get(router_id)
    delivered = len(log) if log is not None else 0
    tally = data.heartbeat_delivery.get(router_id)
    sent = tally[0] if tally is not None else None
    loss = None
    if sent:
        loss = max(0.0, 1.0 - delivered / sent)
    elif sent == 0:
        loss = 0.0

    last_seen = float(log.timestamps[-1]) if delivered else None
    avail = availability.availability_fraction(log) if log is not None \
        else None
    rate = availability.downtime_rate_per_day(log) if log is not None \
        else None

    dead_horizon = window[1] - dead_tail_fraction * (window[1] - window[0])
    if delivered == 0 or (last_seen is not None and last_seen < dead_horizon):
        status = "dead"
    elif rate is not None and rate >= flapping_rate_per_day:
        status = "flapping"
    else:
        status = "ok"
    return RouterHealth(
        router_id=router_id,
        country_code=info.country_code,
        heartbeats_sent=sent,
        heartbeats_delivered=delivered,
        loss_rate=loss,
        availability=avail,
        downtimes_per_day=rate,
        last_seen=last_seen,
        status=status,
    )


def _sum_counters(snapshot: Optional[dict],
                  names: Tuple[str, ...]) -> Dict[str, float]:
    """Sum the selected counters out of a metrics snapshot (label-blind)."""
    if not snapshot:
        return {}
    totals: Dict[str, float] = {}
    for (name, _labels), value in snapshot.get("counters", {}).items():
        if name in names:
            totals[name] = totals.get(name, 0.0) + float(value)
    return totals


def build_health_report(
        data: StudyData,
        dead_tail_fraction: float = DEAD_TAIL_FRACTION,
        flapping_rate_per_day: float = FLAPPING_RATE_PER_DAY,
        metrics_snapshot: Optional[dict] = None,
        trace_summary=None) -> HealthReport:
    """Compute the deployment-health report for one campaign's data.

    *metrics_snapshot* (a :func:`repro.telemetry.metrics` registry
    snapshot) is optional; when given, the engine's fault-tolerance
    counters — retries, straggler timeouts, pool rebuilds, checkpoints,
    resumes — are folded into :attr:`HealthReport.fault_tolerance` so
    the operator sees recovery activity next to coverage.
    *trace_summary* (a :class:`repro.trace.TraceSummary` or its dict
    form) adds the campaign's Timeline section.
    """
    if not 0 < dead_tail_fraction < 1:
        raise ValueError("dead_tail_fraction must be in (0, 1)")
    window = data.windows.heartbeats
    routers = tuple(
        _router_health(data, rid, window, dead_tail_fraction,
                       flapping_rate_per_day)
        for rid in data.router_ids())

    deployed: Dict[str, int] = {}
    reporting: Dict[str, int] = {}
    for health in routers:
        deployed[health.country_code] = \
            deployed.get(health.country_code, 0) + 1
        if health.heartbeats_delivered:
            reporting[health.country_code] = \
                reporting.get(health.country_code, 0) + 1
    countries = tuple(
        CountryCoverage(code, deployed[code], reporting.get(code, 0))
        for code in sorted(deployed))

    sent_total = sum(h.heartbeats_sent or 0 for h in routers)
    delivered_total = sum(h.heartbeats_delivered for h in routers)
    loss_rate = None
    if sent_total:
        loss_rate = max(0.0, 1.0 - delivered_total / sent_total)

    dataset_records = {"heartbeats": delivered_total}
    for name, table in RECORD_DATASETS.items():
        dataset_records[name] = len(getattr(data, table.attr))
    dataset_records["throughput"] = sum(len(s)
                                        for s in data.throughput.values())
    timeline = None
    if trace_summary is not None:
        timeline = (trace_summary if isinstance(trace_summary, dict)
                    else trace_summary.to_dict())
    return HealthReport(
        window=window,
        countries=countries,
        routers=routers,
        dataset_records=dataset_records,
        heartbeat_loss_rate=loss_rate,
        fault_tolerance=_sum_counters(metrics_snapshot,
                                      FAULT_TOLERANCE_METRICS),
        ingest_service=_sum_counters(metrics_snapshot,
                                     INGEST_SERVICE_METRICS),
        timeline=timeline,
    )


def format_health_report(report: HealthReport) -> str:
    """Render the operator-facing health tables."""
    from repro.core.report import render_table

    def pct(value: Optional[float]) -> str:
        return "n/a" if value is None else f"{value:.1%}"

    sections = [render_table(
        ["country", "deployed", "reporting", "coverage"],
        [(c.country_code, c.deployed, c.reporting, f"{c.coverage:.0%}")
         for c in report.countries],
        title="Cohort coverage")]

    trouble = [r for r in report.routers if r.status != "ok"]
    if trouble:
        sections.append(render_table(
            ["router", "country", "status", "delivered", "loss",
             "downtimes/day"],
            [(r.router_id, r.country_code, r.status,
              r.heartbeats_delivered, pct(r.loss_rate),
              "n/a" if r.downtimes_per_day is None
              else f"{r.downtimes_per_day:.2f}")
             for r in trouble],
            title=f"Unhealthy routers — {len(report.dead_routers)} dead, "
                  f"{len(report.flapping_routers)} flapping"))
    else:
        sections.append("Unhealthy routers: none")

    sections.append(render_table(
        ["dataset", "records", "loss"],
        [(name, count,
          pct(report.heartbeat_loss_rate) if name == "heartbeats" else "0%")
         for name, count in sorted(report.dataset_records.items())],
        title="Dataset accounting"))

    if report.fault_tolerance:
        sections.append(render_table(
            ["counter", "value"],
            [(name, int(value))
             for name, value in sorted(report.fault_tolerance.items())],
            title="Fault tolerance"))

    if report.ingest_service:
        sections.append(render_table(
            ["counter", "value"],
            [(name, int(value))
             for name, value in sorted(report.ingest_service.items())],
            title="Ingest service"))

    if report.timeline:
        sections.append(render_timeline(report.timeline))
    return "\n\n".join(sections)
