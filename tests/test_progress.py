"""Tests for the progress heartbeat and the `repro watch` subcommand."""

import json

import pytest

from repro import trace
from repro.cli import main
from repro.telemetry.progress import (
    PROGRESS_NAME,
    ProgressWriter,
    read_progress,
    render_progress,
    tail_events,
)


def _ingest(writer, records=0, in_flight=0):
    """Hand *writer* one engine ingest span, as the recorder does."""
    writer({"name": "ingest", "cat": "engine", "ts": 0.0, "dur": 0.1,
            "pid": 1, "args": {"shard": 0, "routers": 1, "records": records,
                               "in_flight": in_flight}})


def _instant(name, **args):
    return {"name": name, "cat": "campaign", "ts": 0.0, "dur": None,
            "pid": 1, "args": args}


class TestProgressWriter:
    def test_writes_immediately_and_atomically(self, tmp_path):
        path = tmp_path / PROGRESS_NAME
        writer = ProgressWriter(path, shards=16, homes=252, workers=4,
                                trace_id="t-1")
        payload = json.loads(path.read_text())
        assert payload["status"] == "running"
        assert payload["shards"] == {"total": 16, "ingested": 0,
                                     "in_flight": 0, "retries": 0}
        assert payload["trace_id"] == "t-1"
        assert payload["workers"] == 4
        assert not list(tmp_path.glob("*.tmp"))  # replaced, never left
        assert writer.writes == 1

    def test_update_folds_counters(self, tmp_path):
        path = tmp_path / PROGRESS_NAME
        writer = ProgressWriter(path, shards=4, homes=100)
        _ingest(writer, records=500, in_flight=1)
        _ingest(writer, records=250, in_flight=1)
        writer(_instant("shard_retry", shard=2, attempt=0, reason="x"))
        payload = json.loads(path.read_text())
        assert payload["shards"]["ingested"] == 2
        assert payload["shards"]["retries"] == 1
        assert payload["records_ingested"] == 750
        assert payload["eta_seconds"] is not None  # progress made

    def test_finish_writes_terminal_status(self, tmp_path):
        path = tmp_path / PROGRESS_NAME
        writer = ProgressWriter(path, shards=4, homes=100)
        for _ in range(4):
            _ingest(writer, in_flight=2)
        writer.finish()
        payload = json.loads(path.read_text())
        assert payload["status"] == "finished"
        assert payload["shards"]["in_flight"] == 0
        assert payload["eta_seconds"] is None

    def test_follows_the_recorder_for_a_block(self, tmp_path):
        path = tmp_path / PROGRESS_NAME
        with ProgressWriter(path, homes=10):
            trace.instant("campaign_started", homes=10, shards=2,
                          workers=1, seed=0)
            with trace.span("ingest", cat="engine", shard=0, routers=5,
                            records=7, in_flight=1):
                pass
            trace.instant("shard_retry", shard=1, attempt=0, reason="x")
        assert not trace.has_sinks()
        payload = read_progress(path)
        assert payload["status"] == "finished"
        assert payload["shards"] == {"total": 2, "ingested": 1,
                                     "in_flight": 0, "retries": 1}
        assert payload["records_ingested"] == 7
        with pytest.raises(RuntimeError):
            with ProgressWriter(path):
                raise RuntimeError("boom")
        assert read_progress(path)["status"] == "failed"

    def test_failed_status(self, tmp_path):
        writer = ProgressWriter(tmp_path / PROGRESS_NAME, shards=4,
                                homes=100)
        writer.finish("failed")
        assert json.loads(writer.path.read_text())["status"] == "failed"

    def test_resumed_campaign_rates_exclude_prior_shards(self, tmp_path):
        writer = ProgressWriter(tmp_path / PROGRESS_NAME, homes=100)
        writer(_instant("campaign_resumed", shards_ingested=4, shards=8))
        payload = writer.payload()
        assert payload["shards"]["ingested"] == 4
        assert payload["eta_seconds"] is None  # no progress *this* run yet


class TestReadAndRender:
    def test_read_progress_accepts_directory(self, tmp_path):
        assert read_progress(tmp_path) is None
        ProgressWriter(tmp_path / PROGRESS_NAME, shards=2, homes=10)
        assert read_progress(tmp_path)["shards"]["total"] == 2

    def test_render_progress_frame(self, tmp_path):
        writer = ProgressWriter(tmp_path / PROGRESS_NAME, shards=4,
                                homes=100, trace_id="t-9")
        _ingest(writer, records=1000)
        _ingest(writer)
        frame = render_progress(read_progress(tmp_path))
        assert "t-9" in frame
        assert "2/4" in frame and "50%" in frame
        assert "1,000 ingested" in frame

    def test_render_includes_event_tail(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        with events_path.open("w") as handle:
            for i in range(10):
                handle.write(json.dumps(
                    {"ts": 1000.0 + i, "event": "shard_finished",
                     "shard": i}) + "\n")
        tail = tail_events(events_path, n=3)
        assert [e["shard"] for e in tail] == [7, 8, 9]
        writer = ProgressWriter(tmp_path / PROGRESS_NAME, shards=4,
                                homes=10)
        frame = render_progress(writer.payload(), tail)
        assert "shard_finished" in frame and "shard=9" in frame

    def test_tail_events_missing_file(self, tmp_path):
        assert tail_events(tmp_path / "missing.jsonl") == []

    def test_tail_events_bounded_read(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with path.open("w") as handle:
            for i in range(5000):
                handle.write(json.dumps({"ts": i, "event": "tick",
                                         "n": i}) + "\n")
        tail = tail_events(path, n=2, max_bytes=4096)
        assert [e["n"] for e in tail] == [4998, 4999]


class TestWatchCli:
    def test_once_renders_frame(self, tmp_path, capsys):
        writer = ProgressWriter(tmp_path / PROGRESS_NAME, shards=4,
                                homes=100)
        _ingest(writer)
        assert main(["watch", str(tmp_path), "--once"]) == 0
        out = capsys.readouterr().out
        assert "1/4" in out

    def test_once_without_progress_exits_nonzero(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path), "--once"]) == 1
        assert "waiting for" in capsys.readouterr().out

    def test_stale_heartbeat_warns(self, tmp_path, capsys):
        path = tmp_path / PROGRESS_NAME
        writer = ProgressWriter(path, shards=4, homes=100)
        payload = writer.payload()
        payload["ts"] = payload["ts"] - 9999  # fake an old heartbeat
        path.write_text(json.dumps(payload))
        assert main(["watch", str(tmp_path), "--once"]) == 0
        assert "WARNING" in capsys.readouterr().out

    def test_follows_to_terminal_status(self, tmp_path, capsys):
        writer = ProgressWriter(tmp_path / PROGRESS_NAME, shards=2,
                                homes=10)
        _ingest(writer)
        _ingest(writer)
        writer.finish()
        # Not --once: the loop sees the terminal status and returns.
        assert main(["watch", str(tmp_path), "--interval", "0.01"]) == 0
        assert "finished" in capsys.readouterr().out

    def test_failed_campaign_exits_nonzero(self, tmp_path):
        writer = ProgressWriter(tmp_path / PROGRESS_NAME, shards=2,
                                homes=10)
        writer.finish("failed")
        assert main(["watch", str(tmp_path), "--interval", "0.01"]) == 1


class TestTraceReportCli:
    def test_report_from_trace_dir(self, tmp_path, capsys):
        from repro.trace import write_chrome_trace
        spans = [{"name": "ingest", "cat": "engine", "ts": 0.0, "dur": 1.0,
                  "pid": 1, "args": {"shard": 0}}]
        write_chrome_trace(tmp_path / "trace.json", spans, "cli-1")
        assert main(["trace", "report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cli-1" in out and "ingest" in out

    def test_report_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["trace", "report", str(tmp_path / "nope.json")])
