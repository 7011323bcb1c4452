"""Metrics exporters: Prometheus text format and JSON.

A campaign's metrics registry is drained into two sibling files in the
telemetry directory:

* ``metrics.prom`` — the Prometheus *text exposition format* (textfile
  collector flavour), so a node_exporter can scrape campaign runs with
  zero integration code;
* ``metrics.json`` — the same series as structured JSON for ad-hoc
  tooling and the golden-file tests.

:func:`parse_prometheus` is a small, strict parser for the subset we
emit; CI's telemetry smoke job uses it to prove fresh artifacts parse.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.telemetry.metrics import METRIC_HELP, MetricKey

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _format_labels(labels: Tuple[Tuple[str, str], ...],
                   extra: Optional[Tuple[Tuple[str, str], ...]] = None) -> str:
    pairs = labels + (extra or ())
    if not pairs:
        return ""
    inner = ",".join(
        '{}="{}"'.format(k, str(v).replace("\\", r"\\").replace('"', r'\"'))
        for k, v in pairs)
    return "{" + inner + "}"


def _header(name: str, kind: str, out: List[str]) -> None:
    help_text = METRIC_HELP.get(name, f"repro metric {name}.")
    out.append(f"# HELP {name} {help_text}")
    out.append(f"# TYPE {name} {kind}")


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot in the Prometheus text format.

    Series are grouped per metric name with HELP/TYPE headers and sorted
    by name then labels, so output is deterministic for a given registry
    state (golden-file friendly).
    """
    lines: List[str] = []
    for kind in ("counter", "gauge", "histogram"):
        series = snapshot.get(kind + "s", {})
        grouped: Dict[str, List[Tuple[MetricKey, object]]] = {}
        for key in sorted(series):
            grouped.setdefault(key[0], []).append((key, series[key]))
        for name, entries in sorted(grouped.items()):
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name {name!r}")
            _header(name, kind, lines)
            if kind != "histogram":
                lines.extend(
                    f"{name}{_format_labels(labels)} {_format_value(value)}"
                    for (_, labels), value in entries)
                continue
            for (_, labels), hist in entries:
                cumulative = 0
                for bound, count in zip(hist["bounds"], hist["counts"]):
                    cumulative += count
                    lines.append("{}_bucket{} {}".format(
                        name, _format_labels(labels, (("le", _format_value(
                            float(bound))),)), cumulative))
                cumulative += hist["counts"][-1]
                lines.append("{}_bucket{} {}".format(
                    name, _format_labels(labels, (("le", "+Inf"),)),
                    cumulative))
                lines.append("{}_sum{} {}".format(
                    name, _format_labels(labels), _format_value(hist["sum"])))
                lines.append("{}_count{} {}".format(
                    name, _format_labels(labels), cumulative))
    return "\n".join(lines) + ("\n" if lines else "")


def render_json(snapshot: dict) -> str:
    """Render a registry snapshot as structured, sorted JSON."""

    def series(entries: Dict[MetricKey, float]) -> List[dict]:
        return [{"name": name, "labels": dict(labels), "value": value}
                for (name, labels), value in sorted(entries.items())]

    payload = {
        "counters": series(snapshot.get("counters", {})),
        "gauges": series(snapshot.get("gauges", {})),
        "histograms": [
            {"name": name, "labels": dict(labels),
             "buckets": [[bound, count] for bound, count
                         in zip(list(hist["bounds"]) + ["+Inf"],
                                hist["counts"])],
             "sum": hist["sum"], "count": hist["count"]}
            for (name, labels), hist
            in sorted(snapshot.get("histograms", {}).items())
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def write_metric_files(directory: Union[str, Path],
                       snapshot: dict) -> List[Path]:
    """Write ``metrics.prom`` and ``metrics.json`` under *directory*."""
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    prom = root / "metrics.prom"
    prom.write_text(render_prometheus(snapshot))
    as_json = root / "metrics.json"
    as_json.write_text(render_json(snapshot))
    return [prom, as_json]


def parse_prometheus(text: str) -> Dict[MetricKey, float]:
    """Parse Prometheus text back to ``{(name, labels): value}``.

    Strict for the subset :func:`render_prometheus` emits — any sample
    line that does not match raises ``ValueError``, which is exactly what
    the CI smoke job wants (a malformed textfile must fail the build).
    """
    samples: Dict[MetricKey, float] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _LINE_RE.match(line)
        if not match:
            raise ValueError(f"unparseable metric line: {raw!r}")
        labels_text = match.group("labels") or ""
        labels = tuple(sorted(
            (k, v.replace(r'\"', '"').replace(r"\\", "\\"))
            for k, v in _LABEL_RE.findall(labels_text)))
        value_text = match.group("value")
        value = math.inf if value_text == "+Inf" else float(value_text)
        samples[(match.group("name"), labels)] = value
    return samples
