"""Span-based tracing: the one timing instrument for a running campaign.

Every timed region — worker materialize / collect and their dotted
sub-stages, parent ingest, streaming-analytics passes — is a span, and
every timing view is derived from the same span buffer:

* ``--profile`` / ``--profile-json`` reduce it to per-name seconds and
  calls (:func:`stage_totals`, :func:`format_profile`);
* telemetry promotes the same totals to ``stage_seconds_total`` /
  ``stage_calls_total``;
* ``--trace-dir`` exports the timeline itself — *when* anything
  happened, which worker ran which shard, how long the parent sat
  head-waiting on a straggler, where the retry budget's seconds went.

Who records what:

* **workers** record materialize / collect / per-collector sub-spans
  tagged with their shard and attempt, buffered process-locally and
  shipped to the parent through the same per-shard drain/merge path the
  metrics snapshots ride (so tracing can never reorder ingest or touch
  an RNG — ``study_digest`` is pinned identical with tracing on);
* **the parent** records submit → head-wait → ingest → checkpoint spans,
  retry backoffs, pool rebuilds, and streaming-analytics passes.

The buffer exports as Chrome trace-event JSON — ``chrome://tracing`` or
https://ui.perfetto.dev load it directly, one track per worker process —
and reduces to a :class:`TraceSummary` (critical path, worker
utilization, per-shard ingest-stall and retry-charged time) that the
health report surfaces as its "Timeline" section and ``repro trace
report`` renders from a saved trace.

Activation: one process-global recorder, one global read + one
comparison when disabled (the tier-1 suite asserts <2% on an
instrumented loop), plain picklable buffers, no RNG access.  Whoever
enables the recorder disables it: :class:`Capture` enables it only when
it is off, tears down only what it enabled, and hands back just the
spans recorded inside its block.

Usage::

    from repro import trace

    with trace.Capture() as capture:
        with trace.span("collect", cat="shard", shard=3):
            ...
        spans = capture.spans()
    print(trace.format_profile(trace.stage_totals(spans)))
    trace.write_chrome_trace("trace.json", spans)
    print(render_trace_summary(summarize_spans(spans)))
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

#: Span categories the engine wires up.  ``"shard"`` spans are worker-side
#: work (materialize / collect and their dotted sub-spans), ``"engine"``
#: spans are the parent's orchestration (head_wait / ingest / checkpoint /
#: retry.backoff / pool.rebuild / submit), ``"analyze"`` the per-data-set
#: figure passes, and ``"fault"`` instants mark injected failures.
CATEGORIES = ("shard", "engine", "analyze", "fault", "campaign")

#: Span names the firmware + engine wire up, in profile order.  The
#: collector pass is one top-level "collect" span with per-collector
#: sub-spans nested beneath it (see ``firmware.shard_collect``).
ENGINE_STAGES = ("materialize", "collect", "collect.heartbeat",
                 "collect.capacity", "collect.uptime", "collect.devices",
                 "collect.wifi", "collect.traffic", "collect.serialize",
                 "ingest")

#: Schema version stamped into exported trace files.
TRACE_SCHEMA = 1


def now() -> float:
    """The trace clock (epoch seconds; wall clock, shared across
    processes on one machine so worker and parent spans align)."""
    return time.time()


class TraceRecorder:
    """Buffers finished spans for one process.

    A span is a plain dict — picklable, mergeable — with ``name``,
    ``cat``, ``ts`` (epoch seconds), ``dur`` (seconds; ``None`` for
    instant events), ``pid`` (the recording process, which becomes the
    export track), and ``args`` (shard, attempt, failure reason, ...).
    """

    __slots__ = ("trace_id", "spans")

    def __init__(self, trace_id: str = "") -> None:
        self.trace_id = trace_id
        self.spans: List[dict] = []

    def add(self, name: str, start: float, end: Optional[float] = None,
            cat: str = "campaign", **args: object) -> None:
        """Record one finished span ([start, end] on the trace clock);
        ``end=None`` records an instant event."""
        self.spans.append({
            "name": name,
            "cat": cat,
            "ts": start,
            "dur": None if end is None else max(0.0, end - start),
            "pid": os.getpid(),
            "args": args,
        })

    def drain(self) -> dict:
        """Picklable snapshot of the buffer; the buffer is cleared."""
        spans, self.spans = self.spans, []
        return {"trace_id": self.trace_id, "spans": spans}

    def merge(self, snapshot: dict) -> None:
        """Fold a drained worker snapshot into this buffer."""
        self.spans.extend(snapshot.get("spans", ()))

    def clear(self) -> None:
        """Forget everything buffered (the recorder stays usable)."""
        self.spans.clear()

    def __len__(self) -> int:
        return len(self.spans)


class _NullSpan:
    """The shared do-nothing context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


class _Span:
    """One live span; records into the recorder active at entry.

    The span is recorded even when the body raises — a failed attempt's
    time is exactly what retry attribution needs to see.
    """

    __slots__ = ("_recorder", "_name", "_cat", "_args", "_t0")

    def __init__(self, recorder: TraceRecorder, name: str, cat: str,
                 args: dict) -> None:
        self._recorder = recorder
        self._name = name
        self._cat = cat
        self._args = args

    def __enter__(self) -> "_Span":
        self._t0 = now()
        return self

    def __exit__(self, exc_type: object, *exc: object) -> bool:
        args = self._args
        if exc_type is not None:
            args = dict(args, failed=True)
        self._recorder.add(self._name, self._t0, now(), cat=self._cat,
                           **args)
        return False


_NULL_SPAN = _NullSpan()
_ACTIVE: Optional[TraceRecorder] = None


def enable(trace_id: str = "") -> TraceRecorder:
    """Activate tracing (idempotent); returns the active recorder."""
    global _ACTIVE
    if _ACTIVE is None:
        _ACTIVE = TraceRecorder(trace_id)
    elif trace_id:
        _ACTIVE.trace_id = trace_id
    return _ACTIVE


def disable() -> Optional[TraceRecorder]:
    """Deactivate tracing; returns the recorder that was active."""
    global _ACTIVE
    recorder, _ACTIVE = _ACTIVE, None
    return recorder


def is_enabled() -> bool:
    """True while a recorder is active in this process."""
    return _ACTIVE is not None


def active() -> Optional[TraceRecorder]:
    """The active recorder, or None when tracing is disabled."""
    return _ACTIVE


def span(name: str, cat: str = "campaign", **args: object):
    """Context manager recording one span; free when tracing is off."""
    recorder = _ACTIVE
    if recorder is None:
        return _NULL_SPAN
    return _Span(recorder, name, cat, args)


def add_span(name: str, start: float, end: Optional[float] = None,
             cat: str = "campaign", **args: object) -> None:
    """Record a span with explicit endpoints (``end=None`` = now).

    For code paths where the outcome decides the annotation — the
    engine's head wait records ``failed=True, reason=...`` only after
    the future's result is known.
    """
    recorder = _ACTIVE
    if recorder is not None:
        recorder.add(name, start, now() if end is None else end,
                     cat=cat, **args)


def instant(name: str, cat: str = "campaign", **args: object) -> None:
    """Record an instant event (a point on the timeline, no duration)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.add(name, now(), None, cat=cat, **args)


def drain() -> dict:
    """Snapshot and clear the active recorder (per-shard shipping)."""
    recorder = _ACTIVE
    if recorder is None:
        return {"trace_id": "", "spans": []}
    return recorder.drain()


def merge(snapshot: dict) -> None:
    """Fold a worker snapshot into the active recorder (no-op when off)."""
    recorder = _ACTIVE
    if recorder is not None:
        recorder.merge(snapshot)


class Capture:
    """The spans one block records, without disturbing an outer recorder.

    Enables the recorder if it is off — and disables it again on
    :meth:`close` — but leaves a recorder some caller enabled running,
    and only marks where this block's spans begin in its buffer.  Nested
    captures (the CLI's ``--profile`` around ``run_study``'s trace export
    and telemetry session) therefore all read one set of spans.
    """

    __slots__ = ("recorder", "_mark", "_owner")

    def __init__(self, trace_id: str = "") -> None:
        self._owner = _ACTIVE is None
        self.recorder = enable(trace_id)
        self._mark = len(self.recorder)

    def spans(self) -> List[dict]:
        """The spans recorded since this capture began."""
        return self.recorder.spans[self._mark:]

    def close(self) -> None:
        """Disable the recorder iff this capture enabled it."""
        if self._owner and _ACTIVE is self.recorder:
            disable()

    def __enter__(self) -> "Capture":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


# -- Chrome trace-event export ----------------------------------------------------

def _track_order(spans: List[dict]) -> Dict[int, int]:
    """Stable pid → tid mapping: the parent (the pid recording engine or
    analyze spans) is track 0, workers follow in first-span order."""
    parent: Optional[int] = None
    first_seen: Dict[int, float] = {}
    for record in spans:
        pid = int(record["pid"])
        ts = float(record["ts"])
        if pid not in first_seen or ts < first_seen[pid]:
            first_seen[pid] = ts
        if parent is None and record["cat"] in ("engine", "analyze"):
            parent = pid
    if parent is None and first_seen:
        parent = min(first_seen, key=lambda p: (first_seen[p], p))
    tids: Dict[int, int] = {}
    if parent is not None:
        tids[parent] = 0
    for pid in sorted(first_seen, key=lambda p: (first_seen[p], p)):
        if pid not in tids:
            tids[pid] = len(tids)
    return tids


def chrome_trace_events(spans: List[dict],
                        trace_id: str = "") -> List[dict]:
    """Render spans as Chrome trace-event dicts (B/E pairs + instants).

    Timestamps are microseconds relative to the earliest span; every
    recording process becomes one named thread track under a single
    "repro campaign" process, so Perfetto shows the parent and each
    worker as parallel lanes.
    """
    if not spans:
        return []
    tids = _track_order(spans)
    t0 = min(float(record["ts"]) for record in spans)
    events: List[Tuple[float, int, dict]] = []

    def us(seconds: float) -> float:
        return round((seconds - t0) * 1e6, 1)

    for pid, tid in tids.items():
        name = "parent" if tid == 0 else f"worker-{tid}"
        events.append((-1.0, 0, {"ph": "M", "name": "thread_name",
                                 "pid": 1, "tid": tid,
                                 "args": {"name": name}}))
    events.append((-1.0, 0, {"ph": "M", "name": "process_name",
                             "pid": 1, "tid": 0,
                             "args": {"name": "repro campaign"}}))

    for record in spans:
        tid = tids[int(record["pid"])]
        start = float(record["ts"])
        args = dict(record.get("args") or {})
        base = {"name": record["name"], "cat": record["cat"],
                "pid": 1, "tid": tid}
        if record["dur"] is None:
            events.append((start, 1, dict(base, ph="i", ts=us(start),
                                          s="t", args=args)))
            continue
        end = start + float(record["dur"])
        # Matched B/E pair; args ride on the B event.  At equal
        # timestamps the E sorts first so zero-length spans still nest.
        events.append((start, 1, dict(base, ph="B", ts=us(start),
                                      args=args)))
        events.append((end, 0, dict(base, ph="E", ts=us(end))))
    events.sort(key=lambda item: (item[0], item[1]))
    return [event for _, _, event in events]


def write_chrome_trace(path: Union[str, Path], spans: List[dict],
                       trace_id: str = "") -> Path:
    """Write spans as a Perfetto-loadable Chrome trace JSON file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "traceEvents": chrome_trace_events(spans, trace_id),
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": trace_id, "schema": TRACE_SCHEMA,
                      "spans": len(spans)},
    }
    path.write_text(json.dumps(payload) + "\n")
    return path


def load_chrome_trace(path: Union[str, Path]) -> Tuple[List[dict], str]:
    """Rebuild span dicts from an exported Chrome trace file.

    B/E pairs are re-matched per track with a stack (the export
    guarantees proper nesting); instants come back with ``dur=None``.
    The reconstructed ``pid`` is the export track id, which is all the
    summary math needs to tell the parent lane from the worker lanes.
    """
    payload = json.loads(Path(path).read_text())
    events = payload.get("traceEvents", payload if isinstance(payload, list)
                         else [])
    trace_id = ""
    if isinstance(payload, dict):
        trace_id = payload.get("otherData", {}).get("trace_id", "")
    spans: List[dict] = []
    stacks: Dict[int, List[dict]] = {}
    for event in events:
        phase = event.get("ph")
        tid = int(event.get("tid", 0))
        if phase == "B":
            stacks.setdefault(tid, []).append(event)
        elif phase == "E":
            stack = stacks.get(tid)
            if not stack:
                raise ValueError(f"unmatched E event on track {tid}")
            begin = stack.pop()
            if begin["name"] != event["name"]:
                raise ValueError(
                    f"mismatched B/E pair on track {tid}: "
                    f"{begin['name']!r} closed by {event['name']!r}")
            spans.append({
                "name": begin["name"],
                "cat": begin.get("cat", "campaign"),
                "ts": float(begin["ts"]) / 1e6,
                "dur": (float(event["ts"]) - float(begin["ts"])) / 1e6,
                "pid": tid,
                "args": begin.get("args", {}),
            })
        elif phase == "i":
            spans.append({
                "name": event["name"],
                "cat": event.get("cat", "campaign"),
                "ts": float(event["ts"]) / 1e6,
                "dur": None,
                "pid": tid,
                "args": event.get("args", {}),
            })
    leftovers = {tid: stack for tid, stack in stacks.items() if stack}
    if leftovers:
        raise ValueError(f"unclosed B events on tracks {sorted(leftovers)}")
    spans.sort(key=lambda s: s["ts"])
    return spans, trace_id


# -- profile ----------------------------------------------------------------------

def stage_totals(spans: List[dict]) -> Dict[str, Dict[str, float]]:
    """Per-span-name totals: ``{"seconds": {name: s}, "calls": {name: n}}``.

    Instants carry no duration and are skipped.  This is the
    ``--profile-json`` payload and the source of the
    ``stage_seconds_total`` / ``stage_calls_total`` metrics.
    """
    seconds: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for record in spans:
        if record["dur"] is None:
            continue
        name = record["name"]
        seconds[name] = seconds.get(name, 0.0) + record["dur"]
        calls[name] = calls.get(name, 0) + 1
    return {"seconds": seconds, "calls": calls}


def format_profile(totals: Dict[str, Dict[str, float]],
                   title: str = "Per-stage profile") -> str:
    """Render :func:`stage_totals` as the CLI's per-stage table."""
    from repro.core.report import render_table  # local: keep trace a leaf

    seconds = totals.get("seconds", {})
    calls = totals.get("calls", {})
    # Dotted names ("materialize.devices") are sub-spans nested inside a
    # parent span's timing: they are listed indented under their parent
    # and excluded from the total, which sums top-level spans only.
    top_level = [name for name in seconds if "." not in name]
    total = sum(seconds[name] for name in top_level)
    ordered = [name for name in ENGINE_STAGES
               if name in seconds and "." not in name]
    ordered += sorted(name for name in top_level
                      if name not in ENGINE_STAGES)
    with_subs = []
    for name in ordered:
        with_subs.append(name)
        with_subs += sorted(sub for sub in seconds
                            if sub.startswith(name + "."))
    with_subs += sorted(name for name in seconds
                        if name not in with_subs)
    rows = []
    for name in with_subs:
        secs = seconds[name]
        n = calls.get(name, 0)
        per_call = secs / n * 1000 if n else 0.0
        share = secs / total if total > 0 else 0.0
        label = ("  " + name if "." in name else name)
        rows.append((label, f"{secs:.3f}", n, f"{per_call:.2f}",
                     f"{share:.1%}"))
    return render_table(["stage", "seconds", "calls", "ms/call", "share"],
                        rows, title=title)


# -- summary ----------------------------------------------------------------------

@dataclass(frozen=True)
class ShardTimeline:
    """One shard's time accounting across every attempt."""

    shard: int
    attempts: int
    #: Worker-side seconds over all attempts (materialize + collect).
    run_seconds: float
    #: Parent seconds blocked at the head wait for this shard.
    head_wait_seconds: float
    #: Parent seconds ingesting this shard's uploads.
    ingest_seconds: float
    #: Seconds charged to recovery: failed waits, superseded attempts,
    #: and retry backoff sleeps.
    retry_seconds: float


@dataclass(frozen=True)
class TraceSummary:
    """The reduced operational picture of one traced campaign."""

    trace_id: str
    wall_seconds: float
    span_count: int
    #: Export tracks (parent + workers) that recorded spans.
    tracks: int
    #: Track label → busy seconds (top-level spans only; the parent
    #: track's head waits are *not* busy time).
    track_busy: Dict[str, float]
    #: Mean busy/wall across worker tracks (parent excluded); for a
    #: serial campaign the single track is the worker.
    worker_utilization: float
    #: Span-name → total seconds across all tracks (dotted names are
    #: sub-spans nested inside their parent's time).
    stage_seconds: Dict[str, float]
    #: Ordered decomposition of the parent track's wall time — the
    #: campaign's critical path, since ordered ingest serializes
    #: everything through the parent.  ``(label, seconds)`` segments in
    #: first-occurrence order; "other" is uninstrumented parent time.
    critical_path: List[Tuple[str, float]]
    critical_path_seconds: float
    #: Total parent head-wait time (idle, blocked on the ordered head).
    ingest_stall_seconds: float
    #: Total time charged to failed/superseded attempts and backoffs.
    retry_charged_seconds: float
    shards: Dict[int, ShardTimeline] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "wall_seconds": round(self.wall_seconds, 6),
            "span_count": self.span_count,
            "tracks": self.tracks,
            "track_busy": {k: round(v, 6)
                           for k, v in self.track_busy.items()},
            "worker_utilization": round(self.worker_utilization, 4),
            "stage_seconds": {k: round(v, 6)
                              for k, v in self.stage_seconds.items()},
            "critical_path": [[name, round(secs, 6)]
                              for name, secs in self.critical_path],
            "critical_path_seconds": round(self.critical_path_seconds, 6),
            "ingest_stall_seconds": round(self.ingest_stall_seconds, 6),
            "retry_charged_seconds": round(self.retry_charged_seconds, 6),
            "shards": {
                str(sid): {
                    "attempts": tl.attempts,
                    "run_seconds": round(tl.run_seconds, 6),
                    "head_wait_seconds": round(tl.head_wait_seconds, 6),
                    "ingest_seconds": round(tl.ingest_seconds, 6),
                    "retry_seconds": round(tl.retry_seconds, 6),
                }
                for sid, tl in sorted(self.shards.items())
            },
        }


def _is_top_level(record: dict) -> bool:
    return record["dur"] is not None and "." not in record["name"]


def summarize_spans(spans: List[dict],
                    trace_id: str = "") -> TraceSummary:
    """Reduce a span buffer to a :class:`TraceSummary`.

    Pure math over the span dicts — usable on a live recorder's buffer,
    a drained snapshot, or spans reloaded from an exported trace file.
    """
    timed = [record for record in spans if record["dur"] is not None]
    if not timed:
        return TraceSummary(trace_id=trace_id, wall_seconds=0.0,
                            span_count=len(spans), tracks=0, track_busy={},
                            worker_utilization=0.0, stage_seconds={},
                            critical_path=[], critical_path_seconds=0.0,
                            ingest_stall_seconds=0.0,
                            retry_charged_seconds=0.0)
    tids = _track_order(spans)
    t0 = min(record["ts"] for record in timed)
    t_end = max(record["ts"] + record["dur"] for record in timed)
    wall = t_end - t0

    def label(pid: int) -> str:
        tid = tids[int(pid)]
        return "parent" if tid == 0 else f"worker-{tid}"

    # Busy time per track: top-level spans, minus the parent's waits
    # (head_wait and retry.backoff are blocked time, not work).
    track_busy: Dict[str, float] = {}
    for record in timed:
        if not _is_top_level(record):
            continue
        if record["name"] in ("head_wait", "retry.backoff"):
            continue
        key = label(record["pid"])
        track_busy[key] = track_busy.get(key, 0.0) + record["dur"]

    worker_labels = [name for name in track_busy if name != "parent"]
    if worker_labels:
        busy = sum(track_busy[name] for name in worker_labels)
        utilization = busy / (wall * len(worker_labels)) if wall else 0.0
    else:  # serial campaign: the parent is the only worker
        utilization = (track_busy.get("parent", 0.0) / wall) if wall else 0.0

    stage_seconds = stage_totals(timed)["seconds"]

    # Critical path: the parent track's timeline, decomposed by span
    # name in first-occurrence order.  Ordered ingest serializes the
    # campaign through the parent, so its wall time *is* the critical
    # path; "other" is whatever the parent did between spans.
    parent_pid = next((pid for pid, tid in tids.items() if tid == 0), None)
    parent_spans = sorted(
        (record for record in timed
         if int(record["pid"]) == parent_pid and _is_top_level(record)),
        key=lambda record: record["ts"])
    segments: Dict[str, float] = {}
    order: List[str] = []
    covered = 0.0
    cursor = None
    for record in parent_spans:
        start, dur = record["ts"], record["dur"]
        if cursor is not None and start < cursor:
            # Clip overlap (nested top-level spans cannot happen in the
            # engine, but hand-built traces should not double-count).
            dur = max(0.0, start + dur - cursor)
            start = cursor
        if record["name"] not in segments:
            order.append(record["name"])
            segments[record["name"]] = 0.0
        segments[record["name"]] += dur
        covered += dur
        cursor = start + record["dur"] if cursor is None \
            else max(cursor, record["ts"] + record["dur"])
    if parent_spans:
        parent_wall = (max(r["ts"] + r["dur"] for r in parent_spans)
                       - parent_spans[0]["ts"])
    else:
        parent_wall = 0.0
    critical_path = [(name, segments[name]) for name in order]
    gap = max(0.0, parent_wall - covered)
    if gap > 1e-9:
        critical_path.append(("other", gap))
    critical_path_seconds = min(parent_wall, wall)

    ingest_stall = stage_seconds.get("head_wait", 0.0)

    # Retry charge: failed head waits, backoff sleeps, and worker spans
    # from superseded attempts (serial retries record their failed
    # attempt's spans live; parallel failed attempts die with their
    # worker and show up as the failed head wait instead).
    max_attempt: Dict[int, int] = {}
    for record in timed:
        args = record.get("args") or {}
        if record["cat"] == "shard" and "shard" in args:
            sid = int(args["shard"])
            max_attempt[sid] = max(max_attempt.get(sid, 0),
                                   int(args.get("attempt", 0)))
    retry_charged = 0.0
    shard_rows: Dict[int, dict] = {}

    def shard_row(sid: int) -> dict:
        return shard_rows.setdefault(sid, {
            "attempts": set(), "run": 0.0, "wait": 0.0,
            "ingest": 0.0, "retry": 0.0})

    for record in timed:
        args = record.get("args") or {}
        sid = args.get("shard")
        name = record["name"]
        if name == "retry.backoff":
            retry_charged += record["dur"]
            if sid is not None:
                shard_row(int(sid))["retry"] += record["dur"]
            continue
        if sid is None:
            continue
        sid = int(sid)
        row = shard_row(sid)
        if name == "head_wait":
            row["wait"] += record["dur"]
            if args.get("failed"):
                retry_charged += record["dur"]
                row["retry"] += record["dur"]
        elif name == "ingest":
            row["ingest"] += record["dur"]
        elif record["cat"] == "shard" and _is_top_level(record):
            row["attempts"].add(int(args.get("attempt", 0)))
            row["run"] += record["dur"]
            if (int(args.get("attempt", 0)) < max_attempt.get(sid, 0)
                    or args.get("failed")):
                retry_charged += record["dur"]
                row["retry"] += record["dur"]

    shards = {
        sid: ShardTimeline(
            shard=sid,
            attempts=max(len(row["attempts"]), 1),
            run_seconds=row["run"],
            head_wait_seconds=row["wait"],
            ingest_seconds=row["ingest"],
            retry_seconds=row["retry"],
        )
        for sid, row in shard_rows.items()
    }

    return TraceSummary(
        trace_id=trace_id,
        wall_seconds=wall,
        span_count=len(spans),
        tracks=len(tids),
        track_busy=track_busy,
        worker_utilization=utilization,
        stage_seconds=stage_seconds,
        critical_path=critical_path,
        critical_path_seconds=critical_path_seconds,
        ingest_stall_seconds=ingest_stall,
        retry_charged_seconds=retry_charged,
        shards=shards,
    )


def write_trace_summary(path: Union[str, Path],
                        summary: TraceSummary) -> Path:
    """Write the summary JSON next to the trace file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(summary.to_dict(), indent=2, sort_keys=True)
                    + "\n")
    return path


def render_trace_summary(summary: TraceSummary) -> str:
    """Render the operator-facing timeline tables."""
    from repro.core.report import render_table  # local: keep trace a leaf

    rows = [
        ("wall clock", f"{summary.wall_seconds:.3f}s"),
        ("critical path", f"{summary.critical_path_seconds:.3f}s"),
        ("worker utilization", f"{summary.worker_utilization:.0%}"),
        ("ingest stall (head wait)",
         f"{summary.ingest_stall_seconds:.3f}s"),
        ("retry-charged time", f"{summary.retry_charged_seconds:.3f}s"),
        ("spans", summary.span_count),
        ("tracks", summary.tracks),
    ]
    sections = [render_table(["quantity", "value"], rows,
                             title=f"Timeline — trace "
                                   f"{summary.trace_id or 'unnamed'}")]

    if summary.critical_path:
        total = summary.critical_path_seconds or 1.0
        sections.append(render_table(
            ["segment", "seconds", "share"],
            [(name, f"{secs:.3f}", f"{secs / total:.1%}")
             for name, secs in summary.critical_path],
            title="Critical path (parent timeline)"))

    if summary.track_busy:
        wall = summary.wall_seconds or 1.0
        sections.append(render_table(
            ["track", "busy", "of wall"],
            [(name, f"{secs:.3f}s", f"{secs / wall:.0%}")
             for name, secs in sorted(summary.track_busy.items())],
            title="Per-track busy time"))

    stalls = [(sid, tl) for sid, tl in sorted(summary.shards.items())
              if tl.retry_seconds > 0 or tl.attempts > 1]
    if stalls:
        sections.append(render_table(
            ["shard", "attempts", "run", "head wait", "retry-charged"],
            [(sid, tl.attempts, f"{tl.run_seconds:.3f}s",
              f"{tl.head_wait_seconds:.3f}s", f"{tl.retry_seconds:.3f}s")
             for sid, tl in stalls],
            title="Shards with recovery activity"))
    return "\n\n".join(sections)


__all__ = [
    "TRACE_SCHEMA",
    "CATEGORIES",
    "ENGINE_STAGES",
    "TraceRecorder",
    "Capture",
    "TraceSummary",
    "ShardTimeline",
    "enable",
    "disable",
    "is_enabled",
    "active",
    "span",
    "add_span",
    "instant",
    "now",
    "drain",
    "merge",
    "stage_totals",
    "format_profile",
    "chrome_trace_events",
    "write_chrome_trace",
    "load_chrome_trace",
    "summarize_spans",
    "write_trace_summary",
    "render_trace_summary",
]
