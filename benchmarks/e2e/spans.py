"""Timers wrapped around public layer calls, and the self-time arithmetic.

A :class:`Recorder` replaces each :class:`~benchmarks.e2e.spec.Target`
(a module function or class method of the program) with a thin wrapper
that records one span per call: ``(name, start, end, thread, info)``.
Nothing inside the program changes; uninstalling puts the original
function objects back.

:func:`attribute` splits a time window among the recorded spans so the
rows always add up to the window: every instant goes to the span that
started most recently among those covering it — on one thread that is
the innermost span, so each span gets its *self* time — and instants no
span covers are unattributed.  Spans on several threads (the socket
campaign runs shards on an executor thread while the event loop waits)
and interleaved coroutine spans (two fleet connections on one loop)
follow the same rule.
"""

from __future__ import annotations

import functools
import heapq
import importlib
import inspect
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .spec import LAYERS, TIMED_METRICS, Target

#: ``(span name, start, end, thread ident, info)``; times on :func:`clock`.
Span = Tuple[str, float, float, int, dict]


def clock() -> float:
    """The benchmark clock: CLOCK_MONOTONIC, comparable across processes
    on one machine, so a parent can time a child's set-up."""
    return time.monotonic()


# -- per-call details ----------------------------------------------------------
#
# A hook sees the wrapped call's positional arguments and result and
# returns the span's info dict, or None to leave the call unrecorded.

def _upload_frame(args, result) -> Optional[dict]:
    return {"bytes": len(result)} if args[0][0] == "upload" else None


def _decoded_upload(args, result) -> Optional[dict]:
    return {} if result[0] == "upload" else None


def _ingested(args, result) -> dict:
    return {"records": args[1].record_count, "stored": bool(result)}


def _round_trip(args, result) -> dict:
    client = args[0]
    return {"client": id(client), "retries": client.retries}


HOOKS: Dict[str, Callable[[tuple, object], Optional[dict]]] = {
    "batches.encode": _upload_frame,
    "batches.decode": _decoded_upload,
    "server.ingest": _ingested,
    "netserve.upload": _round_trip,
}


def _no_info(args, result) -> dict:
    return {}


# -- install / uninstall -------------------------------------------------------

def resolve(target: Target) -> Tuple[object, str]:
    """The (owner, attribute) pair that holds *target*'s function."""
    owner: object = importlib.import_module(target.module)
    *path, attr = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in vars(owner):
        raise LookupError(f"wrapped call {target.dotted} not found")
    return owner, attr


class Recorder:
    """Wraps targets with span timers and holds the spans they record."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: Recorded calls per wrapped target (dotted name).
        self.calls: Dict[str, int] = {}
        self._installed: List[Tuple[Target, object, str, object]] = []

    def install(self, targets: Iterable[Target]) -> "Recorder":
        for target in targets:
            owner, attr = resolve(target)
            original = vars(owner)[attr]
            self.calls[target.dotted] = 0
            setattr(owner, attr, self._wrap(original, target))
            self._installed.append((target, owner, attr, original))
        return self

    def missed(self, targets: Iterable[Target], workload: str) -> List[str]:
        """Targets *workload* must hit that recorded no call (a renamed
        or bypassed call site)."""
        return [t.dotted for t in targets
                if workload in t.workloads and t.dotted in self.calls
                and not self.calls[t.dotted]]

    def uninstall(self) -> List[str]:
        """Restore every original; returns the targets that did not come
        back as the identical function object (empty when all did)."""
        unrestored = []
        for target, owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
            if vars(owner)[attr] is not original:
                unrestored.append(target.dotted)
        self._installed.clear()
        return unrestored

    def _wrap(self, original, target: Target):
        spans = self.spans
        calls = self.calls
        name, dotted = target.span, target.dotted
        hook = HOOKS.get(name, _no_info)
        ident = threading.get_ident

        def record(t0: float, t1: float, args: tuple, result) -> None:
            info = hook(args, result)
            if info is not None:
                spans.append((name, t0, t1, ident(), info))
                calls[dotted] += 1

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def timed_coroutine(*args, **kwargs):
                t0 = clock()
                result = await original(*args, **kwargs)
                record(t0, clock(), args, result)
                return result
            return timed_coroutine

        @functools.wraps(original)
        def timed(*args, **kwargs):
            t0 = clock()
            result = original(*args, **kwargs)
            record(t0, clock(), args, result)
            return result
        return timed


def calls_by_span(spans: Iterable[Span]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for name, *_ in spans:
        counts[name] = counts.get(name, 0) + 1
    return counts


# -- attribution ---------------------------------------------------------------

def attribute(spans: Iterable[Tuple[str, float, float]], start: float,
              end: float) -> Tuple[Dict[str, float], float]:
    """Split ``[start, end]`` among span names; returns (seconds by name,
    unattributed seconds).  The parts always sum to ``end - start``."""
    clipped = [(max(t0, start), min(t1, end), name)
               for name, t0, t1 in spans if min(t1, end) > max(t0, start)]
    events = []
    for index, (t0, t1, _) in enumerate(clipped):
        events.append((t0, 1, index))
        events.append((t1, 0, index))
    events.sort()  # at one instant, ends (0) come before starts (1)
    owned: Dict[str, float] = {}
    unattributed = 0.0
    active: List[Tuple[float, float, int]] = []
    ended = set()
    cursor = start
    for t, is_start, index in events:
        if t > cursor:
            while active and active[0][2] in ended:
                heapq.heappop(active)
            if active:
                name = clipped[active[0][2]][2]
                owned[name] = owned.get(name, 0.0) + (t - cursor)
            else:
                unattributed += t - cursor
            cursor = t
        if is_start:
            t0, t1, _ = clipped[index]
            # Latest start first; at equal starts the earlier end (the
            # inner span) wins.
            heapq.heappush(active, (-t0, t1, index))
        else:
            ended.add(index)
    unattributed += end - cursor
    return owned, unattributed


def round_trips_ms(spans: Iterable[Span]) -> List[float]:
    """Client upload round trips (empty off the wire)."""
    return [(t1 - t0) * 1e3 for name, t0, t1, _, _ in spans
            if name == "netserve.upload"]


def upload_counts(spans: Iterable[Span]) -> Tuple[int, int]:
    """(uploads ingested, records they carried) from the ingest spans."""
    stored = records = 0
    for name, _, _, _, info in spans:
        if name == "server.ingest":
            stored += info["stored"]
            records += info["records"]
    return stored, records


def wire_bytes(spans: Iterable[Span]) -> int:
    return sum(info["bytes"] for name, _, _, _, info in spans
               if name == "batches.encode")


def layer_metrics(spans: List[Span], start: float, end: float,
                  homes: int, records: int, disk_bytes: int) -> dict:
    """Every per-layer metric of one traced run except
    ``trace_overhead_frac``, which needs the untraced median."""
    owned, unattributed = attribute(
        ((name, t0, t1) for name, t0, t1, _, _ in spans), start, end)
    calls = calls_by_span(spans)
    inclusive: Dict[str, float] = {}
    for name, t0, t1, _, _ in spans:
        inclusive[name] = inclusive.get(name, 0.0) + (t1 - t0)

    def rate(amount: float, span: str) -> float:
        seconds = inclusive.get(span, 0.0)
        return amount / seconds if seconds > 0 else 0.0

    frames = calls.get("batches.encode", 0)
    uploads = calls.get("netserve.upload", 0)
    retries: Dict[int, int] = {}
    for name, _, _, _, info in spans:
        if name == "netserve.upload":
            retries[info["client"]] = max(retries.get(info["client"], 0),
                                          info["retries"])
    metrics = {}
    for span in LAYERS:
        metric = TIMED_METRICS[span]
        metrics[metric] = owned.get(span, 0.0)
        metrics[f"{metric}.calls"] = calls.get(span, 0)
    # Two layers are reported inclusive: planning runs before the window
    # opens, and round trips on two connections overlap each other.
    metrics["deployment.plan_s"] = inclusive.get("deployment.plan", 0.0)
    metrics["netserve.upload_rtt_s"] = inclusive.get("netserve.upload", 0.0)
    metrics.update({
        "cohort.homes_per_s": rate(homes, "cohort.materialize"),
        "shard_collect.homes_per_s": rate(homes, "shard_collect.collect"),
        "batches.bytes_per_upload": (wire_bytes(spans) / frames
                                     if frames else 0.0),
        "server.records_per_s": rate(records, "server.ingest"),
        "backends.disk_bytes": disk_bytes,
        "netserve.wait_s": owned.get("netserve.upload", 0.0),
        "netserve.retries_per_upload": (sum(retries.values()) / uploads
                                        if uploads else 0.0),
        "streaming.records_per_s": rate(records, "streaming.analyze"),
        "engine.unattributed_s": unattributed,
    })
    return {"metrics": metrics, "self_s": owned,
            "unattributed_s": unattributed, "inclusive_s": inclusive,
            "calls": calls}


def chrome_spans(spans: List[Span], start: float, end: float) -> List[dict]:
    """Spans as ``repro.trace`` span dicts plus a ``wall`` span marking
    the measured window.

    Each thread is one track, except client round trips: coroutines of
    several connections interleave on the event-loop thread, so each
    connection gets its own track and every track stays properly nested.
    """
    tracks: Dict[tuple, int] = {("thread", threading.get_ident()): 1}
    out = [{"name": "wall", "cat": "e2e", "ts": start, "dur": end - start,
            "pid": 1, "args": {}}]
    for name, t0, t1, thread, info in spans:
        key = ("client", info["client"]) if "client" in info \
            else ("thread", thread)
        out.append({"name": name, "cat": name.split(".")[0], "ts": t0,
                    "dur": t1 - t0,
                    "pid": tracks.setdefault(key, len(tracks) + 1),
                    "args": info})
    return out
