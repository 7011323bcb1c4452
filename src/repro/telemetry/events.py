"""Structured JSONL event log for campaign lifecycle events.

Events are the narrative companion to the metrics registry: *what
happened when* (campaign started, shard finished, router ingested, store
spilled, ingest rejected) rather than aggregate totals.  Each event is
one JSON object per line::

    {"ts": 1364774400.123, "event": "shard_finished", "shard": 3, ...}

Design constraints, mirroring :mod:`repro.trace` / the metrics registry:

* **Near-free disabled path** — :func:`emit` is one global read and one
  comparison when no log is active; the campaign engine can emit
  unconditionally.
* **Determinism** — emitting an event reads the wall clock but never any
  RNG, so an event-logged run collects bitwise-identical data
  (``study_digest``-pinned in the tier-1 suite).
* **Fork safety** — shard workers inherit the parent's open log on
  ``fork``; :class:`EventLog` remembers the PID that opened it and
  silently drops writes from any other process, so worker events can
  never interleave bytes into the parent's file.  (Worker-side activity
  reaches the parent as drained metric snapshots instead.)
* **Bounded disk** — the log rotates logrotate-style once the live
  segment passes ``max_bytes``: ``events.jsonl`` becomes
  ``events.1.jsonl``, existing numbered segments shift up, and the
  oldest beyond ``max_segments`` is dropped, so a long-running campaign
  can never grow an unbounded log.
* **Crash-path durability** — :func:`enable` registers one ``atexit``
  flush for whichever log is active, and :class:`EventLog` is a context
  manager, so buffered lines reach disk even when the campaign dies on
  an exception path.

Every emit is also forwarded to the ``repro.telemetry.events`` stdlib
logger at DEBUG, so ``-vv`` tails the event stream without a file.
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import time
from pathlib import Path
from typing import IO, List, Optional, Union

logger = logging.getLogger(__name__)

#: Rotate the live segment once it reaches this many bytes.
DEFAULT_MAX_BYTES = 16 * 1024 * 1024

#: Rotated segments kept (``events.1.jsonl`` .. ``events.N.jsonl``).
DEFAULT_MAX_SEGMENTS = 4

#: Event types the engine and collection layer emit, for reference and
#: validation in tests (emitting an unlisted type is allowed).
KNOWN_EVENTS = (
    "campaign_started",
    "shard_started",
    "shard_finished",
    "router_ingested",
    "store_spill",
    "ingest_rejected",
    "campaign_finished",
    # Fault-tolerance lifecycle (engine recovery + checkpoint/resume).
    "shard_retry",
    "shard_timeout",
    "pool_rebuilt",
    "checkpoint_written",
    "campaign_resumed",
    # Network ingest service (repro.collection.netserve).
    "ingest_service_started",
    "ingest_service_drained",
    "upload_duplicate",
    "upload_rejected",
    "upload_shed",
    "net_disconnect",
    "net_frame_error",
)


def segment_path(path: Union[str, Path], index: int) -> Path:
    """The rotated-segment name: ``events.jsonl`` → ``events.1.jsonl``."""
    path = Path(path)
    return path.with_name(f"{path.stem}.{index}{path.suffix}")


class EventLog:
    """An append-only JSONL event stream bound to one file and process.

    Usable as a context manager (``with EventLog(path) as log:``) —
    exiting the block closes the file even on an exception.
    """

    def __init__(self, path: Union[str, Path],
                 max_bytes: int = DEFAULT_MAX_BYTES,
                 max_segments: int = DEFAULT_MAX_SEGMENTS):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        if max_segments < 1:
            raise ValueError("max_segments must be at least 1")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.max_segments = max_segments
        self._handle: Optional[IO[str]] = self.path.open("a")
        self._bytes = self.path.stat().st_size
        self._pid = os.getpid()
        self.emitted = 0
        self.rotations = 0

    def emit(self, event: str, **fields: object) -> None:
        """Append one event (dropped silently in forked children)."""
        handle = self._handle
        if handle is None or os.getpid() != self._pid:
            return
        record = {"ts": round(time.time(), 6), "event": event}
        record.update(fields)
        line = json.dumps(record, default=str) + "\n"
        handle.write(line)
        self._bytes += len(line)
        self.emitted += 1
        logger.debug("event %s %s", event, fields)
        if self._bytes >= self.max_bytes:
            self._rotate()

    def _rotate(self) -> None:
        """Shift the live segment to ``.1`` and reopen a fresh file."""
        assert self._handle is not None
        self._handle.close()
        oldest = segment_path(self.path, self.max_segments)
        if oldest.exists():
            oldest.unlink()
        for index in range(self.max_segments - 1, 0, -1):
            source = segment_path(self.path, index)
            if source.exists():
                os.replace(source, segment_path(self.path, index + 1))
        os.replace(self.path, segment_path(self.path, 1))
        self._handle = self.path.open("a")
        self._bytes = 0
        self.rotations += 1
        logger.debug("event log rotated (%d rotation(s))", self.rotations)

    def segments(self) -> List[Path]:
        """Existing log files, oldest first, live segment last."""
        paths = [segment_path(self.path, index)
                 for index in range(self.max_segments, 0, -1)]
        paths.append(self.path)
        return [p for p in paths if p.exists()]

    def flush(self) -> None:
        if self._handle is not None and os.getpid() == self._pid:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None and os.getpid() == self._pid:
            self._handle.close()
        self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


_ACTIVE: Optional[EventLog] = None
_ATEXIT_REGISTERED = False


def _flush_active() -> None:  # pragma: no cover - exercised at exit
    log = _ACTIVE
    if log is not None:
        log.flush()


def enable(path: Union[str, Path]) -> EventLog:
    """Open *path* as the process's event log (closing any previous one).

    The first call registers an ``atexit`` flush for whichever log is
    active at interpreter exit, so buffered events survive crash paths
    that skip :func:`disable`.
    """
    global _ACTIVE, _ATEXIT_REGISTERED
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = EventLog(path)
    if not _ATEXIT_REGISTERED:
        atexit.register(_flush_active)
        _ATEXIT_REGISTERED = True
    return _ACTIVE


def disable() -> Optional[EventLog]:
    """Close and deactivate the event log; returns it (already closed)."""
    global _ACTIVE
    log, _ACTIVE = _ACTIVE, None
    if log is not None:
        log.close()
    return log


def is_enabled() -> bool:
    """True while an event log is active in this process."""
    return _ACTIVE is not None


def active() -> Optional[EventLog]:
    """The active event log, or None when disabled."""
    return _ACTIVE


def emit(event: str, **fields: object) -> None:
    """Emit one event to the active log (no-op when disabled)."""
    log = _ACTIVE
    if log is not None:
        log.emit(event, **fields)


def read_events(path: Union[str, Path],
                include_rotated: bool = False) -> list:
    """Parse a JSONL event file back into dicts (for tests and tooling).

    With ``include_rotated=True`` rotated segments (``events.1.jsonl``,
    ...) are read first, oldest to newest, so the result is the full
    chronological stream.
    """
    path = Path(path)
    paths = [path]
    if include_rotated:
        rotated = []
        index = 1
        while True:
            segment = segment_path(path, index)
            if not segment.exists():
                break
            rotated.append(segment)
            index += 1
        paths = list(reversed(rotated)) + paths
    events = []
    for part in paths:
        with part.open() as handle:
            for line in handle:
                line = line.strip()
                if line:
                    events.append(json.loads(line))
    return events
