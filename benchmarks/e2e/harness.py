"""Runs the benchmark: fresh-process trials, medians, and the traced split.

Trials rotate round-robin across the chosen workloads, the starting
workload shifting by one each round, after one untimed warm-up process.
Either ``--trials K`` rounds run, or rounds run until ``--seconds`` have
passed.  Then one traced run per workload gives the per-layer split.
Every trial's outputs are checked against the pins (seed 2013) or the
workload's first trial (any other seed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from . import spec
from .spans import clock
from .stats import quartiles, summarize, verdict

ROOT = Path(__file__).resolve().parents[2]
DEFAULT_OUT = ROOT / "benchmarks" / "e2e" / "out"
DEFAULT_TRIALS = 5
#: A trial takes 2–4 s; anything near this is hung.
TRIAL_TIMEOUT = 90.0
#: Outputs a trial must reproduce exactly.
CHECKED_OUTPUTS = ("study_digest", "report_sha256", "routers_stored")


class TrialError(RuntimeError):
    """A trial process could not run the workload to the end."""


def spawn_trial(workload: str, seed: int, work_dir: Path,
              trace: Optional[Path] = None) -> dict:
    """Run one trial in a fresh interpreter; adds its ``setup_s``."""
    command = [sys.executable, "-m", "benchmarks.e2e.trial", workload,
               "--seed", str(seed), "--work-dir", str(work_dir)]
    if trace is not None:
        command += ["--trace", str(trace)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spawned = clock()
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              capture_output=True, timeout=TRIAL_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise TrialError(f"{workload} trial exceeded {TRIAL_TIMEOUT:.0f}s")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise TrialError(f"{workload} trial exited {proc.returncode}:\n{tail}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["t_start"] - spawned
    return result


def trial_metrics(result: dict) -> Dict[str, float]:
    """The end-to-end metric values one trial measured."""
    attempted, records = result["uploads_attempted"], result["records"]
    values = {
        "setup_s": result["setup_s"],
        "wall_s": result["wall_s"],
        "upload_p50_ms": result["upload_p50_ms"],
        "upload_p99_ms": result["upload_p99_ms"],
        "peak_rss_mb": result["peak_rss_mb"],
        "wire_bytes_per_record": result["wire_bytes"] / records,
        "disk_bytes_per_record": result["disk_bytes"] / records,
        "fail_frac": (attempted - result["uploads_stored"]) / attempted,
    }
    return {m.name: values[m.name] for m in spec.END_TO_END
            if result["workload"] in m.workloads}


class Checker:
    """Holds each workload's reference outputs and every mismatch."""

    def __init__(self, seed: int) -> None:
        self.references: Dict[str, dict] = (
            {w: dict(pins) for w, pins in spec.PINS.items()}
            if seed == spec.PIN_SEED else {})
        self.problems: List[str] = []

    def check(self, result: dict, label: str) -> None:
        workload = result["workload"]
        reference = self.references.setdefault(workload, {
            key: result[key] for key in CHECKED_OUTPUTS if key in result})
        for key, expected in reference.items():
            if result.get(key) != expected:
                self.problems.append(f"{workload} {label}: {key} is "
                                     f"{result.get(key)!r}, expected "
                                     f"{expected!r}")
        for dotted in result["missed_targets"]:
            self.problems.append(f"{workload} {label}: wrapped call "
                                 f"{dotted} recorded no call")
        for dotted in result["unrestored"]:
            self.problems.append(f"{workload} {label}: uninstalling did not "
                                 f"restore {dotted}")


def schedule(workloads: Sequence[str], trials: Optional[int],
             deadline: Optional[float],
             counts: Dict[str, int]) -> Iterator[str]:
    """Round-robin trial order, each round starting one workload later.

    With *trials*, stops after that many rounds; with *deadline*, stops
    at the first slot past it once every workload has had a trial.
    """
    for round_index in itertools.count():
        if trials is not None and round_index >= trials:
            return
        shift = round_index % len(workloads)
        for workload in (*workloads[shift:], *workloads[:shift]):
            if (deadline is not None and clock() >= deadline
                    and all(counts[w] for w in workloads)):
                return
            yield workload


def environment(seed: int, load: float, trial: dict) -> dict:
    """The machine, and the program's versions and git revision as a
    trial process reported them."""
    cores = os.cpu_count() or 1
    meta = {"seed": seed, "cpu_cores": cores, "load_average": load,
            **trial["versions"], "git_rev": trial["git_rev"]}
    if load > cores:
        meta["warning"] = (f"load average {load:.2f} exceeds {cores} cores; "
                           "timings are unreliable")
    return meta


def measure(workloads: Sequence[str], seed: int, trials: Optional[int],
            seconds: Optional[float], traced: bool, out: Path) -> dict:
    """Run the whole benchmark; returns the ``results.json`` document."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise TrialError(f"the program is missing: no src/repro under {ROOT}")
    out.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=out))
    try:
        return _measure(workloads, seed, trials, seconds, traced, out, work)
    finally:
        # A crashed trial may leave its spill directory behind.
        shutil.rmtree(work, ignore_errors=True)


def _measure(workloads: Sequence[str], seed: int, trials: Optional[int],
             seconds: Optional[float], traced: bool, out: Path,
             work: Path) -> dict:
    load = os.getloadavg()[0]
    checker = Checker(seed)
    warm_up = spawn_trial(workloads[0], seed, work)
    checker.check(warm_up, "warm-up")
    meta = environment(seed, load, warm_up)
    if "warning" in meta:
        print(f"warning: {meta['warning']}", file=sys.stderr)
    deadline = clock() + seconds if seconds is not None else None
    samples: Dict[str, List[dict]] = {w: [] for w in workloads}
    counts = {w: 0 for w in workloads}
    for workload in schedule(workloads, trials, deadline, counts):
        result = spawn_trial(workload, seed, work)
        counts[workload] += 1
        checker.check(result, f"trial {counts[workload]}")
        samples[workload].append(result)
    report = {"meta": meta, "workloads": {}}
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        for result in samples[workload]:
            for name, value in trial_metrics(result).items():
                values.setdefault(name, []).append(value)
        entry = {"trials": len(samples[workload]), "metrics": {
            name: dict(unit=spec.metric(name).unit, values=vals,
                       **summarize(vals)) for name, vals in values.items()}}
        entry["attempted"] = sum(r["uploads_attempted"]
                                 for r in samples[workload])
        entry["stored"] = sum(r["uploads_stored"] for r in samples[workload])
        if traced:
            path = out / f"trace-{workload}.json"
            result = spawn_trial(workload, seed, work, trace=path)
            checker.check(result, "traced run")
            layers = result["layers"]
            untraced = entry["metrics"]["wall_s"]["median"]
            layers["metrics"]["trace_overhead_frac"] = \
                result["wall_s"] / untraced - 1.0
            layers["wall_s"] = result["wall_s"]
            layers["trace"] = str(path)
            entry["layers"] = layers
            entry["attempted"] += result["uploads_attempted"]
            entry["stored"] += result["uploads_stored"]
        report["workloads"][workload] = entry
    report["problems"] = checker.problems
    report["correct"] = not checker.problems
    return report


# -- output ----------------------------------------------------------------------

def _table(header: Sequence[str], rows: List[Sequence[str]]) -> str:
    widths = [max(len(str(row[i])) for row in [header, *rows])
              for i in range(len(header))]
    lines = ["  ".join(str(cell).ljust(width) if i == 0 else
                       str(cell).rjust(width)
                       for i, (cell, width) in enumerate(zip(row, widths)))
             for row in [header, *rows]]
    return "\n".join("  " + line.rstrip() for line in lines)


def _num(value: float) -> str:
    return f"{value:.6g}"


def render(report: dict) -> str:
    meta = report["meta"]
    parts = [f"e2e benchmark — seed {meta['seed']}, {meta['cpu_cores']} "
             f"cores, load {meta['load_average']:.2f}, python "
             f"{meta['python']}, numpy {meta['numpy']}, rev "
             f"{(meta['git_rev'] or 'unknown')[:12]}"]
    for workload, entry in report["workloads"].items():
        rows = [(name, m["unit"], _num(m["median"]), _num(m["q1"]),
                 _num(m["q3"]), _num(m["min"]), _num(m["max"]), m["n"])
                for name, m in entry["metrics"].items()]
        parts.append(f"\n{workload} — {entry['trials']} trials\n" + _table(
            ("metric", "unit", "median", "q1", "q3", "min", "max", "n"),
            rows))
        layers = entry.get("layers")
        if layers:
            parts.append(render_layers(workload, layers))
    if report["problems"]:
        parts.append("\nCORRECTNESS FAILURES:\n" + "\n".join(
            f"  {problem}" for problem in report["problems"]))
    return "\n".join(parts)


def render_layers(workload: str, layers: dict) -> str:
    """The traced run's self-time table; its rows sum to the traced wall."""
    wall = layers["wall_s"]
    rows = []
    for span in spec.LAYERS:
        calls = layers["calls"].get(span, 0)
        self_s = layers["self_s"].get(span, 0.0)
        if span == "deployment.plan" or not calls:
            continue
        rows.append((span, f"{self_s:.4f}", f"{self_s / wall:.1%}", calls,
                     f"{layers['inclusive_s'][span]:.4f}"))
    unattributed = layers["unattributed_s"]
    rows.append(("engine.unattributed", f"{unattributed:.4f}",
                 f"{unattributed / wall:.1%}", "", ""))
    total = sum(layers["self_s"].values()) + unattributed
    rows.append(("total", f"{total:.4f}", f"{total / wall:.1%}", "", ""))
    metrics = layers["metrics"]
    lines = [f"\n{workload} — traced run: wall {wall:.4f} s, trace overhead "
             f"{metrics['trace_overhead_frac']:+.1%} vs the untraced median"
             f" (trace: {layers['trace']})",
             _table(("layer", "self s", "share", "calls", "incl s"), rows)]
    if metrics["deployment.plan_s.calls"]:
        lines.append(f"  set-up, before the window: deployment.plan "
                     f"{metrics['deployment.plan_s']:.4f} s")
    return "\n".join(lines)


def result_line(report: dict, workload: str, traced: bool) -> str:
    """The one-line JSON result for a single-workload run.

    Each end-to-end value is the run's best trial.  On a shared box
    slow episodes last 10–20 s, as long as a run: the best trial tracks
    the program's own cost across runs far more steadily than the median
    does (see README.md, "Calibration").
    """
    entry = report["workloads"][workload]
    if traced:
        metrics = {m.name: {"value": entry["layers"]["metrics"][m.name],
                            "unit": m.unit}
                   for m in spec.LAYER_METRICS if m.listed}
    else:
        metrics = {m.name: {"value": entry["metrics"][m.name][
            "min" if m.better == "lower" else "max"], "unit": m.unit}
            for m in spec.listed_metrics()}
    return json.dumps({"correct": report["correct"],
                       "attempted": entry["attempted"],
                       "failed": entry["attempted"] - entry["stored"],
                       "metrics": metrics})


# -- compare ---------------------------------------------------------------------

def compare(base_path: Path, change_path: Path) -> int:
    """Print one verdict per workload × metric; 1 when any is worse."""
    base = json.loads(Path(base_path).read_text())["workloads"]
    change = json.loads(Path(change_path).read_text())["workloads"]
    rows = []
    worse = False
    for workload in (w for w in base if w in change):
        for metric in spec.END_TO_END:
            a = base[workload]["metrics"].get(metric.name)
            b = change[workload]["metrics"].get(metric.name)
            if a is None or b is None:
                continue
            outcome, worsening, _ = verdict(metric, a["values"],
                                                 b["values"])
            worse |= outcome == "worse"
            iqr_a = quartiles(a["values"])
            iqr_b = quartiles(b["values"])
            scale = "" if metric.absolute else "%"
            factor = 1.0 if metric.absolute else 100.0
            rows.append((workload, metric.name, metric.unit,
                         _num(a["median"]), _num(iqr_a[2] - iqr_a[0]),
                         _num(b["median"]), _num(iqr_b[2] - iqr_b[0]),
                         f"{worsening * factor:+.2f}{scale}",
                         f"{metric.bound * factor:.2f}{scale}", outcome))
    print(_table(("workload", "metric", "unit", "base", "base iqr", "change",
                  "change iqr", "worse by", "bound", "verdict"), rows))
    return 1 if worse else 0


# -- command line ------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(
            prog="python -m benchmarks.e2e compare",
            description="Compare two results.json files metric by metric.")
        parser.add_argument("base", type=Path)
        parser.add_argument("change", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.change)
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e",
        description="End-to-end benchmark: seed to figures, per layer.")
    parser.add_argument("--workload", action="append",
                        choices=spec.WORKLOAD_NAMES,
                        help="repeatable; default: every workload")
    parser.add_argument("--seed", type=int, default=spec.PIN_SEED)
    budget = parser.add_mutually_exclusive_group()
    budget.add_argument("--trials", type=int,
                        help=f"rounds of trials (default {DEFAULT_TRIALS})")
    budget.add_argument("--seconds", type=float,
                        help="run rounds until this many seconds pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1: traced run per workload; the result line "
                             "then carries the per-layer metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT)
    args = parser.parse_args(argv)
    if args.trials is None and args.seconds is None:
        args.trials = DEFAULT_TRIALS
    if (args.trials is not None and args.trials < 1) or \
            (args.seconds is not None and args.seconds <= 0):
        parser.error("--trials and --seconds must be positive")
    workloads = tuple(dict.fromkeys(args.workload or spec.WORKLOAD_NAMES))
    try:
        report = measure(workloads, args.seed, args.trials, args.seconds,
                         bool(args.trace), args.out)
    except TrialError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (args.out / "results.json").write_text(json.dumps(report, indent=1))
    print(render(report))
    print(f"\nresults: {args.out / 'results.json'}")
    if len(workloads) == 1:
        print(result_line(report, workloads[0], bool(args.trace)))
    return 0 if report["correct"] else 1
