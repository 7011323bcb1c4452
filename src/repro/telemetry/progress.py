"""Atomic ``progress.json`` heartbeat: the live view of a running campaign.

The BISmark operators could glance at a dashboard and know which routers
were reporting *right now*; a long repro campaign deserves the same.
``run_study`` attaches a :class:`ProgressWriter` to the :mod:`repro.trace`
recorder, which updates it from the engine's instants and ``ingest``
spans, and the writer atomically replaces ``progress.json`` (temp file +
``os.replace``) so a concurrent ``repro watch`` never reads a torn file.

The payload is deliberately small and self-contained::

    {"schema": 1, "status": "running", "ts": ..., "homes": 252,
     "workers": 4, "shards": {"total": 16, "ingested": 5,
     "in_flight": 8, "retries": 1}, "records_ingested": 123456,
     "records_per_sec": 45678.9, "elapsed_seconds": 2.7,
     "eta_seconds": 5.9}

Writing progress reads the wall clock but never any RNG; a
progress-tracked campaign collects bitwise-identical data.
"""

from __future__ import annotations

import json
import logging
import os
import time
from pathlib import Path
from typing import Optional, Union

from repro import trace

logger = logging.getLogger(__name__)

#: Bump when the progress payload changes incompatibly.
PROGRESS_SCHEMA = 1

#: File name the engine writes and ``repro watch`` tails.
PROGRESS_NAME = "progress.json"

#: Terminal statuses — ``repro watch`` stops following once it sees one.
TERMINAL_STATUSES = ("finished", "failed")


class ProgressWriter:
    """Tracks campaign counters and atomically publishes them as JSON.

    A sink of the trace recorder: ``with ProgressWriter(...)`` attaches
    it for the block and publishes "finished", or "failed" when the
    block raises.
    """

    def __init__(self, path: Union[str, Path], shards: int = 0,
                 homes: int = 0, workers: int = 1,
                 trace_id: str = "") -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.shards = shards
        self.homes = homes
        self.workers = workers
        self.trace_id = trace_id
        self.started = time.time()
        #: Shards ingested before this run (a resumed campaign's).
        self.start_shard = 0
        self.shards_ingested = 0
        self.in_flight = 0
        self.retries = 0
        self.records_ingested = 0
        self.status = "running"
        self.writes = 0
        self.write()

    def __call__(self, span: dict) -> None:
        """Fold in one of the engine's progress spans or instants."""
        name, args = span["name"], span["args"]
        if name == "campaign_started":
            self.shards = args["shards"]
        elif name == "campaign_resumed":
            self.shards = args["shards"]
            self.start_shard = self.shards_ingested = args["shards_ingested"]
        elif name == "shard_retry":
            self.retries += 1
        elif (name == "ingest" and span["cat"] == "engine"
              and not args.get("failed")):
            self.shards_ingested += 1
            self.in_flight = args["in_flight"]
            self.records_ingested += args["records"]
        else:
            return
        self.write()

    def __enter__(self) -> "ProgressWriter":
        trace.attach(self)
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        trace.detach(self)
        self.finish("finished" if exc_type is None else "failed")

    def finish(self, status: str = "finished") -> None:
        """Publish the terminal payload."""
        self.status = status
        self.in_flight = 0
        self.write()

    def payload(self) -> dict:
        elapsed = time.time() - self.started
        done = self.shards_ingested - self.start_shard
        rate = self.records_ingested / elapsed if elapsed > 0 else 0.0
        eta = None
        if self.status == "running" and done > 0:
            eta = (self.shards - self.shards_ingested) * (elapsed / done)
        return {
            "schema": PROGRESS_SCHEMA,
            "status": self.status,
            "ts": round(time.time(), 3),
            "homes": self.homes,
            "workers": self.workers,
            "trace_id": self.trace_id,
            "shards": {
                "total": self.shards,
                "ingested": self.shards_ingested,
                "in_flight": self.in_flight,
                "retries": self.retries,
            },
            "records_ingested": self.records_ingested,
            "records_per_sec": round(rate, 1),
            "elapsed_seconds": round(elapsed, 3),
            "eta_seconds": None if eta is None else round(eta, 1),
        }

    def write(self) -> None:
        """Atomically replace ``progress.json`` (temp + ``os.replace``)."""
        tmp = self.path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(self.payload()) + "\n")
        os.replace(tmp, self.path)
        self.writes += 1


def read_progress(path: Union[str, Path]) -> Optional[dict]:
    """Load a progress payload; None when the file does not exist yet.

    A half-written file cannot happen (writes are atomic), but a watch
    racing the very first write sees no file — callers poll again.
    """
    path = Path(path)
    if path.is_dir():
        path = path / PROGRESS_NAME
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None


def render_progress(payload: dict, events_tail: Optional[list] = None,
                    width: int = 30) -> str:
    """Render one watch frame: progress bar, rates, recent events."""
    shards = payload.get("shards", {})
    total = max(1, int(shards.get("total", 1)))
    done = int(shards.get("ingested", 0))
    filled = int(round(width * done / total))
    bar = "#" * filled + "-" * (width - filled)
    eta = payload.get("eta_seconds")
    lines = [
        f"campaign {payload.get('trace_id') or '(untraced)'} — "
        f"{payload.get('status', '?')}",
        f"shards   [{bar}] {done}/{total} "
        f"({done / total:.0%})",
        f"homes    {payload.get('homes', '?')}   "
        f"workers {payload.get('workers', '?')}   "
        f"in-flight {shards.get('in_flight', 0)}   "
        f"retries {shards.get('retries', 0)}",
        f"records  {payload.get('records_ingested', 0):,} ingested   "
        f"{payload.get('records_per_sec', 0):,.0f} rec/s",
        f"elapsed  {payload.get('elapsed_seconds', 0):.1f}s   "
        f"eta {'n/a' if eta is None else f'~{eta:.0f}s'}",
    ]
    if events_tail:
        lines.append("recent events:")
        for event in events_tail:
            ts = time.strftime("%H:%M:%S",
                               time.localtime(event.get("ts", 0)))
            extra = " ".join(f"{k}={v}" for k, v in event.items()
                             if k not in ("ts", "event"))
            lines.append(f"  {ts} {event.get('event', '?')} {extra}".rstrip())
    return "\n".join(lines)


def tail_events(path: Union[str, Path], n: int = 5,
                max_bytes: int = 65536) -> list:
    """Parse the last *n* events of a JSONL event log (seek-based, so a
    multi-GB log costs one bounded read).  Missing file → empty list."""
    path = Path(path)
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return []
    with path.open("rb") as handle:
        handle.seek(max(0, size - max_bytes))
        chunk = handle.read().decode("utf-8", errors="replace")
    lines = chunk.splitlines()
    if size > max_bytes and lines:
        lines = lines[1:]  # first line may be torn by the seek
    events = []
    for line in lines[-n:]:
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return events


__all__ = [
    "PROGRESS_SCHEMA",
    "PROGRESS_NAME",
    "TERMINAL_STATUSES",
    "ProgressWriter",
    "read_progress",
    "render_progress",
    "tail_events",
]
