"""Command-line interface: run campaigns, release archives, print reports.

Usage::

    python -m repro [-v|-q] run     --out DIR [--seed N] [--scale F]
                                    [--duration F] [--public]
                                    [--telemetry-dir DIR]
                                    [--checkpoint-dir DIR [--resume]]
                                    [--max-shard-retries N]
                                    [--shard-timeout SECONDS]
    python -m repro summary (--archive DIR | --seed N ...)
    python -m repro report  (--archive DIR | --seed N ...)
    python -m repro figures (--archive DIR | --seed N ...) [--stream]
    python -m repro caps    (--archive DIR | --seed N ...) [--cap-gb G]
    python -m repro health  (--archive DIR | --seed N ...)
    python -m repro watch   DIR [--once] [--interval S]
    python -m repro trace   report PATH
    python -m repro serve   [--host H] [--port N] [--expect N] [--out DIR]
    python -m repro loadgen --port N [--clients N] [--connections N]

``run`` simulates a campaign and writes the CSV/JSON archive (optionally
the PII-stripped public variant).  ``summary`` prints Table 2 for a
campaign or archive; ``report`` prints the Section 4/5/6 headline numbers;
``figures`` prints the full paper-vs-measured report — with ``--stream``
it computes every figure on the one-pass streaming path
(:mod:`repro.core.streaming`), never materializing the study in RAM
(pair it with ``--store spill`` for bounded-memory campaigns); ``caps``
prints the usage-cap dashboard; ``health`` prints the deployment-health
report (cohort coverage, dead/flapping routers, per-dataset loss).  ``--telemetry-dir`` on any campaign-running command
writes the full telemetry artifact set (Prometheus + JSON metrics, JSONL
event log, run manifest, health report); ``--trace-dir`` additionally
records a span timeline and writes ``trace.json`` (open it in Perfetto)
plus ``trace_summary.json``.  ``watch`` tails a running campaign's
``progress.json`` heartbeat and recent events; ``trace report`` renders
the timeline summary from a saved trace.
``serve`` runs the network ingest daemon
(:mod:`repro.collection.netserve`) on a TCP port; ``loadgen`` drives a
simulated router fleet at a running daemon and prints the load report.
``-v``/``-vv`` raise the logging level (INFO/DEBUG on stderr); ``-q``
silences everything below ERROR.  A campaign flag outside
:class:`StudyConfig`'s range (``--workers 0``) exits 2 with one
``error:`` line, like any other usage error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import List, Optional

from repro import trace
from repro.core.datasets import StudyData, fold_homes, summarize_datasets
from repro.core.pipeline import StudyConfig, run_study, run_study_streaming
from repro.core import availability, infrastructure, usage
from repro.core.caps import cap_forecast
from repro.core.report import render_table
from repro.core.records import Spectrum
from repro.collection.export import export_study, load_study
from repro.firmware.caps import UsageCapPolicy

GB = 1e9


def _add_campaign_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=2013,
                        help="study seed (default 2013)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="router-count scale (1.0 = 126 homes)")
    parser.add_argument("--duration", type=float, default=0.1,
                        help="collection-window scale (1.0 = paper dates)")
    parser.add_argument("--consents", type=int, default=28,
                        help="traffic-consenting US homes")
    parser.add_argument("--international", type=int, default=0,
                        help="traffic-consenting non-US homes")
    parser.add_argument("--workers", type=int, default=1,
                        help="engine worker processes (default 1 = serial; "
                             "results are identical for any worker count)")
    parser.add_argument("--shard-size", type=int, default=None,
                        help="homes per engine shard (default: engine picks)")
    parser.add_argument("--store", choices=("memory", "spill"),
                        default="memory",
                        help="record store backend (spill = bounded-memory "
                             "JSONL spill to disk)")
    parser.add_argument("--profile", action="store_true",
                        help="time each campaign stage (materialize, "
                             "collect.heartbeat, collect.traffic, ...) and "
                             "print a per-stage table to stderr")
    parser.add_argument("--profile-json", default=None, metavar="PATH",
                        help="write the per-stage seconds/calls as JSON "
                             "to PATH (machine-readable; the --profile "
                             "table stays the human view)")
    parser.add_argument("--telemetry-dir", default=None, metavar="DIR",
                        help="write campaign telemetry artifacts "
                             "(metrics.prom, metrics.json, events.jsonl, "
                             "manifest.json, health report) to DIR")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="record a span timeline and write trace.json "
                             "(Chrome trace-event format; load in "
                             "Perfetto) + trace_summary.json to DIR; also "
                             "heartbeats progress.json for `repro watch`")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="checkpoint the campaign to DIR after every "
                             "shard ingest (enables --resume after a crash)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted campaign from "
                             "--checkpoint-dir (the final data is "
                             "bitwise-identical to an uninterrupted run)")
    parser.add_argument("--max-shard-retries", type=int, default=2,
                        metavar="N",
                        help="retry budget per engine shard (default 2)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="resubmit a shard still running after this "
                             "many seconds (parallel engine only; "
                             "default: wait forever)")


def _add_source_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--archive", default=None,
                        help="load a previously exported archive instead "
                             "of simulating")
    _add_campaign_arguments(parser)


def _config_from(args: argparse.Namespace) -> StudyConfig:
    return StudyConfig(
        seed=args.seed,
        router_scale=args.scale,
        duration_scale=args.duration,
        traffic_consents=args.consents,
        low_activity_consents=min(3, args.consents),
        international_consents=args.international,
        workers=args.workers,
        shard_size=args.shard_size,
        store_backend=args.store,
        checkpoint_dir=args.checkpoint_dir,
        max_shard_retries=args.max_shard_retries,
        shard_timeout=args.shard_timeout,
    )


def _profiled(args: argparse.Namespace, run):
    """Call *run*; per ``--profile[-json]``, print/write the stage
    totals of the trace spans it recorded."""
    if not args.profile and args.profile_json is None:
        return run()
    with trace.Capture() as capture:
        result = run()
        totals = trace.stage_totals(capture.spans())
    if args.profile:
        print(trace.format_profile(totals), file=sys.stderr)
    if args.profile_json is not None:
        Path(args.profile_json).write_text(
            json.dumps(totals, indent=2, sort_keys=True) + "\n")
        print(f"wrote profile JSON to {args.profile_json}",
              file=sys.stderr)
    return result


def _simulate(args: argparse.Namespace) -> StudyData:
    """Run the configured campaign, honoring ``--profile[-json]``."""
    if args.resume and not args.checkpoint_dir:
        raise SystemExit("--resume requires --checkpoint-dir")
    data = _profiled(args, lambda: run_study(
        args.config, telemetry_dir=args.telemetry_dir,
        resume=args.resume, trace_dir=args.trace_dir).data)
    if args.telemetry_dir:
        print(f"wrote telemetry artifacts to {args.telemetry_dir}",
              file=sys.stderr)
    if args.trace_dir:
        print(f"wrote trace.json + trace_summary.json to {args.trace_dir}",
              file=sys.stderr)
    return data


def _load_data(args: argparse.Namespace) -> StudyData:
    if args.archive:
        print(f"loading archive {args.archive} ...", file=sys.stderr)
        return load_study(args.archive)
    print("simulating campaign ...", file=sys.stderr)
    return _simulate(args)


def _date(epoch: float) -> str:
    return datetime.fromtimestamp(epoch, timezone.utc).strftime("%Y-%m-%d")


# -- subcommands -----------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    data = _simulate(args)
    root = export_study(data, args.out,
                        include_pii_datasets=not args.public)
    kind = "public (PII-stripped)" if args.public else "full"
    print(f"wrote {kind} archive to {root}")
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    data = _load_data(args)
    print(render_table(
        ["dataset", "kind", "routers", "countries", "window"],
        [(row.name, row.kind, row.routers, row.countries,
          f"{_date(row.window[0])}..{_date(row.window[1])}")
         for row in summarize_datasets(data)],
        title="Table 2 — data sets collected"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    data = _load_data(args)
    rows = []

    rates = fold_homes(availability.HeartbeatFold(data.routers),
                       data.heartbeats).rates
    dev, dvg = rates["developed"], rates["developing"]
    if dev.n and dvg.n:
        rows.append(("downtimes/day (median, developed)",
                     round(dev.median, 3)))
        rows.append(("downtimes/day (median, developing)",
                     round(dvg.median, 3)))

    cdf = infrastructure.devices_per_home_cdf(data)
    if cdf.n:
        rows.append(("devices per home (median)", cdf.median))
        aps = infrastructure.neighbor_ap_cdf(data, Spectrum.GHZ_2_4,
                                             developed=True)
        if aps.n:
            rows.append(("neighbor APs 2.4 GHz (median, developed)",
                         aps.median))

    if data.flows:
        traffic = fold_homes(usage.FlowFold(), data.flows)
        shares = traffic.device_shares.result()
        domains = traffic.domain_share()
        rows.append(("top device share (mean)", f"{shares[0]:.0%}"))
        if domains.volume_share_by_rank.size:
            rows.append(("top domain volume share (mean)",
                         f"{domains.volume_share_by_rank[0]:.0%}"))
            rows.append(("whitelist byte coverage",
                         f"{domains.whitelist_byte_coverage:.0%}"))

    print(render_table(["quantity", "value"], rows,
                       title="Study headline numbers"))
    return 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro.core.paperkit import render_report, reproduce_all
    from repro.core.streaming import StudyDataSource

    if not args.stream:
        report = reproduce_all(_load_data(args))
    elif args.archive:
        print(f"loading archive {args.archive} ...", file=sys.stderr)
        report = reproduce_all(StudyDataSource(load_study(args.archive)))
    else:
        print("simulating campaign (streaming analysis) ...",
              file=sys.stderr)
        streamed = _profiled(args, lambda: run_study_streaming(
            args.config, trace_dir=args.trace_dir))
        print(f"streamed {streamed.figures.records_streamed} records",
              file=sys.stderr)
        report = reproduce_all(streamed.figures)
    print(render_report(report))
    return 0


def cmd_caps(args: argparse.Namespace) -> int:
    data = _load_data(args)
    policy = UsageCapPolicy(monthly_cap_bytes=args.cap_gb * GB)
    rows = []
    for rid in data.qualifying_traffic_routers():
        forecast = cap_forecast(data, rid, policy)
        if forecast is None:
            continue
        rows.append((rid, f"{forecast.used_bytes / GB:.1f} GB",
                     f"{forecast.used_fraction:.0%}",
                     f"{forecast.projected_fraction:.0%}",
                     "YES" if forecast.will_exceed else "no"))
    if not rows:
        print("no qualifying traffic homes in this data set")
        return 1
    print(render_table(
        ["home", "used", "of cap", "projected", "will exceed?"],
        rows, title=f"Cap dashboard — {args.cap_gb:.0f} GB/month"))
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    from repro.telemetry import build_health_report, format_health_report

    data = _load_data(args)
    report = build_health_report(data)
    print(format_health_report(report))
    print(f"\n{len(report.dead_routers)} dead, "
          f"{len(report.flapping_routers)} flapping, "
          f"{len(report.routers)} deployed")
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    import time

    from repro.telemetry.progress import (
        PROGRESS_NAME,
        TERMINAL_STATUSES,
        read_progress,
        render_progress,
        tail_events,
    )

    directory = Path(args.dir)
    events_path = directory / "events.jsonl"
    first = True
    while True:
        payload = read_progress(directory)
        if not first:
            print()
        first = False
        if payload is None:
            print(f"waiting for {directory / PROGRESS_NAME} ...")
        else:
            print(render_progress(payload, tail_events(events_path)))
            age = time.time() - payload.get("ts", 0)
            if payload.get("status") == "running" and age > args.stale:
                print(f"WARNING: heartbeat is {age:.0f}s old — the "
                      f"campaign may have died without marking failure")
        if args.once:
            return 0 if payload is not None else 1
        if payload is not None and payload.get("status") in TERMINAL_STATUSES:
            return 0 if payload["status"] == "finished" else 1
        time.sleep(args.interval)


def cmd_trace_report(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if path.is_dir():
        path = path / "trace.json"
    spans, trace_id = trace.load_chrome_trace(path)
    print(trace.render_trace_summary(trace.summarize_spans(spans,
                                                           trace_id)))
    return 0


def _serve_windows(duration: float):
    from repro.simulation.timebase import StudyWindows
    windows = StudyWindows()
    return windows.scaled(duration) if duration < 1 else windows


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.collection.netserve import IngestDaemon, ServeConfig
    from repro.collection.path import CollectionPath, PathConfig
    from repro.collection.storage import RecordStore
    from repro.simulation.seeding import SeedHierarchy

    if args.host not in ("127.0.0.1", "::1", "localhost"):
        print("warning: binding non-loopback host "
              f"{args.host!r} exposes the daemon to its network; frames "
              "decode through a restricted unpickler (protocol types "
              "only) but the service is unauthenticated — use trusted "
              "networks only", file=sys.stderr)
    windows = _serve_windows(args.duration)
    store = RecordStore(windows)
    path = CollectionPath(
        SeedHierarchy(args.seed).generator("collection-path"),
        windows.span, PathConfig())
    config = ServeConfig(host=args.host, port=args.port,
                         queue_size=args.queue_size,
                         reorder_window=args.reorder_window,
                         retry_after_seconds=args.retry_after)
    daemon = IngestDaemon(store, path, config)

    async def _serve() -> None:
        host, port = await daemon.start()
        print(f"listening on {host}:{port}", flush=True)
        try:
            if args.expect is not None:
                await daemon.wait_complete(args.expect)
            else:
                await asyncio.Event().wait()  # until Ctrl-C
        finally:
            await daemon.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted; shutting down", file=sys.stderr)
    print(f"ingested {daemon.routers_ingested} router upload(s)",
          file=sys.stderr)
    if args.out:
        export_study(store.to_study_data(), args.out)
        print(f"wrote archive to {args.out}", file=sys.stderr)
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from repro.collection.loadgen import LoadConfig, run_load

    config = LoadConfig(clients=args.clients, connections=args.connections,
                        heartbeats_per_upload=args.heartbeats,
                        uptime_reports_per_upload=args.uptime_reports,
                        seed=args.seed)
    span = _serve_windows(args.duration).span
    report = asyncio.run(run_load(args.host, args.port, config, span=span))
    print(render_table(
        ["quantity", "value"],
        [("routers", report.clients),
         ("connections", report.connections),
         ("routers stored", report.routers_stored),
         ("records sent", report.records_sent),
         ("duration", f"{report.duration_seconds:.2f}s"),
         ("records/sec", f"{report.records_per_sec:,.0f}"),
         ("routers/sec", f"{report.routers_per_sec:,.0f}"),
         ("sheds", report.sheds),
         ("retries", report.retries),
         ("duplicates", report.duplicates)],
        title="Load report"))
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
        print(f"wrote load report JSON to {args.json}", file=sys.stderr)
    return 0


def _configure_logging(verbosity: int, quiet: bool) -> None:
    """Point the package logger at stderr per ``-v``/``-q``."""
    if quiet:
        level = logging.ERROR
    else:
        level = (logging.WARNING, logging.INFO,
                 logging.DEBUG)[min(verbosity, 2)]
    package = logging.getLogger("repro")
    package.setLevel(level)
    if not any(isinstance(h, logging.StreamHandler)
               for h in package.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)-7s %(name)s: %(message)s",
            datefmt="%H:%M:%S"))
        package.addHandler(handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Peeking Behind the NAT — reproduction toolkit")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="only log errors")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="simulate and export a campaign")
    _add_campaign_arguments(run_parser)
    run_parser.add_argument("--out", required=True,
                            help="archive output directory")
    run_parser.add_argument("--public", action="store_true",
                            help="withhold the PII Traffic data set")
    run_parser.set_defaults(func=cmd_run)

    summary_parser = sub.add_parser("summary", help="print Table 2")
    _add_source_arguments(summary_parser)
    summary_parser.set_defaults(func=cmd_summary)

    report_parser = sub.add_parser("report",
                                   help="print headline statistics")
    _add_source_arguments(report_parser)
    report_parser.set_defaults(func=cmd_report)

    figures_parser = sub.add_parser(
        "figures", help="print the full paper-vs-measured report")
    _add_source_arguments(figures_parser)
    figures_parser.add_argument(
        "--stream", action="store_true",
        help="compute every figure on the one-pass streaming path "
             "(O(sketch) memory; combine with --store spill so the "
             "campaign itself stays bounded too)")
    figures_parser.set_defaults(func=cmd_figures)

    caps_parser = sub.add_parser("caps", help="print the cap dashboard")
    _add_source_arguments(caps_parser)
    caps_parser.add_argument("--cap-gb", type=float, default=50.0)
    caps_parser.set_defaults(func=cmd_caps)

    health_parser = sub.add_parser(
        "health", help="print the deployment-health report")
    _add_source_arguments(health_parser)
    health_parser.set_defaults(func=cmd_health)

    watch_parser = sub.add_parser(
        "watch", help="tail a running campaign's progress + events")
    watch_parser.add_argument(
        "dir", help="the campaign's --telemetry-dir or --trace-dir "
                    "(wherever progress.json lands)")
    watch_parser.add_argument("--once", action="store_true",
                              help="render one frame and exit (exit 1 if "
                                   "no progress file exists yet)")
    watch_parser.add_argument("--interval", type=float, default=2.0,
                              metavar="SECONDS",
                              help="refresh interval (default 2s)")
    watch_parser.add_argument("--stale", type=float, default=30.0,
                              metavar="SECONDS",
                              help="warn when the heartbeat is older than "
                                   "this (default 30s)")
    watch_parser.set_defaults(func=cmd_watch)

    trace_parser = sub.add_parser(
        "trace", help="work with saved campaign traces")
    trace_sub = trace_parser.add_subparsers(dest="trace_command",
                                            required=True)
    trace_report = trace_sub.add_parser(
        "report", help="render the timeline summary from a trace.json")
    trace_report.add_argument(
        "path", help="a trace.json (or the --trace-dir containing one)")
    trace_report.set_defaults(func=cmd_trace_report)

    serve_parser = sub.add_parser(
        "serve", help="run the network collection daemon")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default 127.0.0.1; the "
                                   "service is unauthenticated — bind "
                                   "non-loopback only on trusted networks)")
    serve_parser.add_argument("--port", type=int, default=0,
                              help="TCP port (default 0 = OS-assigned; the "
                                   "bound port is printed on stdout)")
    serve_parser.add_argument("--seed", type=int, default=2013,
                              help="collection-path seed (default 2013; "
                                   "must match the uploading campaign's)")
    serve_parser.add_argument("--duration", type=float, default=0.1,
                              help="collection-window scale (default 0.1; "
                                   "must match the uploading campaign's)")
    serve_parser.add_argument("--queue-size", type=int, default=256,
                              help="bounded ingest queue depth (default 256)")
    serve_parser.add_argument("--reorder-window", type=int, default=4096,
                              help="max seq distance held for reordering "
                                   "before shedding (default 4096)")
    serve_parser.add_argument("--retry-after", type=float, default=0.05,
                              metavar="SECONDS",
                              help="delay suggested to shed clients "
                                   "(default 0.05)")
    serve_parser.add_argument("--expect", type=int, default=None, metavar="N",
                              help="drain and exit after N router uploads "
                                   "(default: serve until Ctrl-C)")
    serve_parser.add_argument("--out", default=None, metavar="DIR",
                              help="export the collected study archive to "
                                   "DIR on shutdown")
    serve_parser.set_defaults(func=cmd_serve)

    loadgen_parser = sub.add_parser(
        "loadgen", help="drive a simulated router fleet at a daemon")
    loadgen_parser.add_argument("--host", default="127.0.0.1",
                                help="daemon address (default 127.0.0.1)")
    loadgen_parser.add_argument("--port", type=int, required=True,
                                help="daemon TCP port")
    loadgen_parser.add_argument("--clients", type=int, default=100_000,
                                help="simulated routers (default 100000)")
    loadgen_parser.add_argument("--connections", type=int, default=64,
                                help="TCP connection pool size (default 64)")
    loadgen_parser.add_argument("--heartbeats", type=int, default=24,
                                help="heartbeats per upload (default 24)")
    loadgen_parser.add_argument("--uptime-reports", type=int, default=2,
                                help="uptime reports per upload (default 2)")
    loadgen_parser.add_argument("--seed", type=int, default=7,
                                help="fleet jitter seed (default 7)")
    loadgen_parser.add_argument("--duration", type=float, default=0.1,
                                help="collection-window scale (default 0.1; "
                                     "match the daemon's)")
    loadgen_parser.add_argument("--json", default=None, metavar="PATH",
                                help="also write the load report as JSON")
    loadgen_parser.set_defaults(func=cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if "scale" in vars(args):  # a command built by _add_campaign_arguments
        try:
            args.config = _config_from(args)
        except ValueError as exc:  # a StudyConfig range check
            parser.exit(2, f"{parser.prog} {args.command}: error: {exc}\n")
    _configure_logging(args.verbose, args.quiet)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
