"""CSV/JSON round-trip of a collected study.

The paper publicly released every non-PII data set; this module writes the
same kind of archive — one CSV per data set plus a JSON manifest — and
loads it back into a :class:`~repro.core.datasets.StudyData` that is
``study_digest``-identical to the original: numbers are written in
shortest-round-trip form with their int/float kind preserved, and routers
with zero delivered heartbeats are rebuilt with empty logs rather than
dropped.

``routers.csv`` and each record-list data set's file have one column per
record field, in the order of the record class's
:class:`~repro.core.records.RowCodec`; this module keeps only what the
archive alone knows: the file stems, the cell format, and which data
sets the public archive withholds.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import json
import logging
import math
import operator
from pathlib import Path
from typing import Callable, Dict, Iterable, Optional, Union

import numpy as np

from repro.core.datasets import HeartbeatLog, StudyData, ThroughputSeries
from repro.core.records import (RECORD_DATASETS, RouterInfo, RowCodec,
                                RowField, codec)
from repro.simulation.timebase import StudyWindows

logger = logging.getLogger(__name__)

_PathLike = Union[str, Path]

#: Archive file stem per record-list data set.
_STEMS = {"uptime": "uptime", "capacity": "capacity",
          "device_counts": "devices", "roster": "roster",
          "wifi_scans": "wifi", "flows": "flows", "dns": "dns"}

#: The Traffic data set's record lists; the public archive withholds them
#: (and ``throughput.csv``).
_TRAFFIC = ("flows", "dns")

#: Archive cell -> plain row value by field kind; any other kind (str, an
#: enum's value) stays text, which ``RowCodec.from_row`` decodes.
_PARSE: Dict[type, Callable[[str], object]] = {
    float: float, int: int, bool: lambda text: bool(int(text))}


def _write_csv(path: Path, header: "list[str]", rows) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _num(value) -> str:
    """Shortest exact CSV cell for a number, preserving its int/float kind.

    ``repr(float)`` is the shortest string that round-trips the exact
    double (Python 3 guarantees this), so no precision is lost the way a
    fixed ``.3f`` truncation loses it; integers stay integers so a
    round-trip archive compares equal, not merely close.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return str(int(value))
    return repr(float(value))


def _finite(text: str) -> float:
    """A heartbeat cell: ``HeartbeatLog`` requires finite timestamps."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"timestamp {text!r} is not finite")
    return value


def _parse_num(text: str):
    """Inverse of :func:`_num`: int when the cell is integral, else float."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _cell_writer(field: RowField) -> Callable[[object], object]:
    """Numbers through :func:`_num`, bools as 0/1, enums by value, None
    as an empty cell.  A record a store builds holds floats in its float
    fields (its column decoders type them), so both stores write
    ``1.0``; a registration keeps the kind it was given (an int GDP)."""
    if issubclass(field.kind, enum.Enum):
        write = operator.attrgetter("value")
    else:
        write = {bool: int, int: _num, float: _num}.get(field.kind, str)
    if field.optional:
        return lambda value: "" if value is None else write(value)
    return write


def _write_records(path: Path, codec: RowCodec, records: Iterable) -> None:
    writers = [(field.name, _cell_writer(field)) for field in codec.fields]
    _write_csv(path, [name for name, _ in writers],
               ([write(getattr(record, name)) for name, write in writers]
                for record in records))


def _read_rows(path: Path, routers: Optional[Dict[str, RouterInfo]],
               build: Callable[[dict], object]) -> list:
    """*build* applied to each row of one data file; a row whose router
    is not in *routers* (``routers.csv``, unless None), or one *build*
    rejects, raises ValueError naming the file, line and router."""
    values = []
    for line, row in enumerate(_read_csv(path), start=2):
        rid = row["router_id"]
        try:
            if routers is not None and rid not in routers:
                raise ValueError("not in routers.csv")
            values.append(build(row))
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"{path.name} line {line}, router {rid!r}: {exc}") from exc
    return values


def _read_records(path: Path, codec: RowCodec,
                  routers: Optional[Dict[str, RouterInfo]]) -> list:
    """Rebuild one data set's records from its archive file.

    An empty or missing cell takes its field's fallback: None when the
    field is optional, else the dataclass default — so a legacy
    ``wifi.csv`` without the ``channel`` column loads channel 0.  A cell
    that does not parse names its field.
    """
    fields = [(field.name, _PARSE.get(field.kind, str),
               None if field.optional else field.default)
              for field in codec.fields]

    def cell(row: dict, name: str, parse: Callable, fallback: object):
        if not row.get(name) and fallback is not dataclasses.MISSING:
            return fallback
        try:
            return parse(row[name])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"{name}: {exc}") from exc

    return _read_rows(path, routers, lambda row: codec.from_row([
        cell(row, *field) for field in fields]))


def export_study(data: StudyData, directory: _PathLike,
                 include_pii_datasets: bool = True) -> Path:
    """Write *data* as a CSV/JSON archive under *directory*.

    With ``include_pii_datasets=False`` the Traffic data set (flows,
    throughput, DNS) is withheld — the paper's public release did exactly
    this ("everything except the Traffic data set").
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)

    manifest = {
        "windows": {
            name: list(getattr(data.windows, name))
            for name in ("heartbeats", "uptime", "capacity",
                         "devices", "wifi", "traffic")
        },
        "includes_traffic": include_pii_datasets,
    }
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2))

    _write_records(root / "routers.csv", codec(RouterInfo),
                   data.routers.values())

    _write_csv(root / "heartbeats.csv", ["router_id", "timestamp"],
               ((log.router_id, _num(t))
                for log in data.heartbeats.values()
                for t in log.timestamps))

    if data.heartbeat_delivery:
        _write_csv(root / "heartbeat_delivery.csv",
                   ["router_id", "sent", "delivered"],
                   ((rid, sent, delivered)
                    for rid, (sent, delivered)
                    in data.heartbeat_delivery.items()))

    for dataset, table in RECORD_DATASETS.items():
        if include_pii_datasets or dataset not in _TRAFFIC:
            _write_records(root / f"{_STEMS[dataset]}.csv", table.codec,
                           getattr(data, table.attr))

    if include_pii_datasets:
        _write_csv(root / "throughput.csv",
                   ["router_id", "start", "interval_seconds",
                    "up_bps", "down_bps"],
                   ((s.router_id, _num(s.start), _num(s.interval_seconds),
                     " ".join(_num(float(v)) for v in s.up_bps),
                     " ".join(_num(float(v)) for v in s.down_bps))
                    for s in data.throughput.values()))
    logger.info("exported %s archive to %s",
                "full" if include_pii_datasets else "public", root)
    return root


def load_study(directory: _PathLike) -> StudyData:
    """Load a study archive written by :func:`export_study`.

    A data-file row for a router missing from ``routers.csv``, or one
    its constructor rejects, raises ValueError (:func:`_read_rows`).
    """
    root = Path(directory)
    manifest = json.loads((root / "manifest.json").read_text())
    windows = StudyWindows(**{
        name: tuple(values) for name, values in manifest["windows"].items()
    })

    routers = {info.router_id: info for info in _read_records(
        root / "routers.csv", codec(RouterInfo), None)}

    # Seed from routers.csv so a router whose heartbeats were all lost
    # (zero delivered) still comes back with an *empty* log instead of
    # silently vanishing — the availability analysis (and study_digest)
    # counts such routers.
    heartbeats: Dict[str, "list[float]"] = {rid: [] for rid in routers}
    for rid, timestamp in _read_rows(
            root / "heartbeats.csv", routers,
            lambda row: (row["router_id"], _finite(row["timestamp"]))):
        heartbeats[rid].append(timestamp)

    delivery = {}
    if (root / "heartbeat_delivery.csv").exists():
        delivery = dict(_read_rows(
            root / "heartbeat_delivery.csv", routers,
            lambda row: (row["router_id"],
                         (int(row["sent"]), int(row["delivered"])))))

    traffic = manifest.get("includes_traffic") \
        and (root / "flows.csv").exists()
    data = StudyData(
        routers=routers,
        windows=windows,
        heartbeats={
            rid: HeartbeatLog(rid, np.asarray(times, dtype=float))
            for rid, times in heartbeats.items()
        },
        heartbeat_delivery=delivery,
        **{table.attr: _read_records(root / f"{_STEMS[dataset]}.csv",
                                     table.codec, routers)
           for dataset, table in RECORD_DATASETS.items()
           if traffic or dataset not in _TRAFFIC},
    )

    if traffic:
        data.throughput = {series.router_id: series for series in _read_rows(
            root / "throughput.csv", routers, lambda row: ThroughputSeries(
                row["router_id"], _parse_num(row["start"]),
                np.asarray([float(v) for v in row["up_bps"].split()]),
                np.asarray([float(v) for v in row["down_bps"].split()]),
                _parse_num(row["interval_seconds"])))}
    return data


def _read_csv(path: Path):
    with path.open(newline="") as handle:
        yield from csv.DictReader(handle)
