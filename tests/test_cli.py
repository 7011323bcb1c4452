"""Tests for the command-line interface."""

import pytest

from repro.cli import main


ARGS = ["--seed", "5", "--scale", "0.15", "--duration", "0.02",
        "--consents", "3"]


class TestRunAndSummary:
    def test_run_exports_archive(self, tmp_path, capsys):
        out = tmp_path / "archive"
        assert main(["run", "--out", str(out)] + ARGS) == 0
        assert (out / "manifest.json").exists()
        assert (out / "flows.csv").exists()
        assert "full archive" in capsys.readouterr().out

    def test_run_public_withholds_traffic(self, tmp_path, capsys):
        out = tmp_path / "public"
        assert main(["run", "--out", str(out), "--public"] + ARGS) == 0
        assert not (out / "flows.csv").exists()
        assert "public" in capsys.readouterr().out

    def test_summary_from_archive(self, tmp_path, capsys):
        out = tmp_path / "archive"
        main(["run", "--out", str(out)] + ARGS)
        capsys.readouterr()
        assert main(["summary", "--archive", str(out)]) == 0
        output = capsys.readouterr().out
        assert "Heartbeats" in output and "Traffic" in output

    def test_summary_from_simulation(self, capsys):
        assert main(["summary"] + ARGS) == 0
        assert "Table 2" in capsys.readouterr().out


class TestReportAndCaps:
    @pytest.fixture(scope="class")
    def archive(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("cli") / "archive"
        main(["run", "--out", str(out)] + ARGS)
        return out

    def test_report(self, archive, capsys):
        assert main(["report", "--archive", str(archive)]) == 0
        output = capsys.readouterr().out
        assert "downtimes/day" in output
        assert "devices per home" in output

    def test_caps(self, archive, capsys):
        code = main(["caps", "--archive", str(archive), "--cap-gb", "1"])
        output = capsys.readouterr().out
        if code == 0:
            assert "Cap dashboard" in output
        else:
            assert "no qualifying" in output

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_run_requires_out(self):
        with pytest.raises(SystemExit):
            main(["run"])

    @pytest.mark.parametrize("argv, message", [
        (["run", "--out", "X", "--workers", "0"], "workers must be >= 1"),
        (["figures", "--duration", "2"], "duration_scale must be in (0, 1]"),
    ])
    def test_invalid_config_is_a_usage_error(self, argv, message, capsys):
        """A StudyConfig range check fails like an argparse error: exit 2
        and one stderr line, no traceback."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err == \
            f"repro {argv[0]}: error: {message}\n"


class TestHealthAndTelemetry:
    def test_health_from_simulation(self, capsys):
        assert main(["health"] + ARGS) == 0
        output = capsys.readouterr().out
        assert "Cohort coverage" in output
        assert "Dataset accounting" in output
        assert "deployed" in output

    def test_health_from_archive(self, tmp_path, capsys):
        out = tmp_path / "archive"
        main(["run", "--out", str(out)] + ARGS)
        capsys.readouterr()
        assert main(["health", "--archive", str(out)]) == 0
        assert "Cohort coverage" in capsys.readouterr().out

    def test_telemetry_dir_writes_artifacts(self, tmp_path, capsys):
        from repro.telemetry import load_manifest, parse_prometheus

        out = tmp_path / "archive"
        telemetry = tmp_path / "telemetry"
        assert main(["run", "--out", str(out),
                     "--telemetry-dir", str(telemetry)] + ARGS) == 0
        assert "wrote telemetry artifacts" in capsys.readouterr().err
        samples = parse_prometheus((telemetry / "metrics.prom").read_text())
        assert samples[("shards_completed_total", ())] >= 1
        manifest = load_manifest(telemetry / "manifest.json")
        assert manifest.seed == 5
        assert (telemetry / "events.jsonl").stat().st_size > 0

    def test_profile_json_writes_stage_timers(self, tmp_path, capsys):
        import json

        from repro import trace

        out = tmp_path / "archive"
        profile = tmp_path / "profile.json"
        assert main(["run", "--out", str(out),
                     "--profile-json", str(profile)] + ARGS) == 0
        err = capsys.readouterr().err
        assert "wrote profile JSON" in err
        assert "Per-stage profile" not in err  # table only with --profile
        payload = json.loads(profile.read_text())
        assert set(payload) == {"seconds", "calls"}
        for stage in trace.ENGINE_STAGES:
            assert payload["seconds"][stage] >= 0.0
            assert payload["calls"][stage] >= 1
        assert not trace.is_enabled()  # the CLI disabled what it enabled

    def test_profile_json_composes_with_table(self, tmp_path, capsys):
        import json

        out = tmp_path / "archive"
        profile = tmp_path / "profile.json"
        assert main(["run", "--out", str(out), "--profile",
                     "--profile-json", str(profile)] + ARGS) == 0
        err = capsys.readouterr().err
        assert "Per-stage profile" in err
        assert json.loads(profile.read_text())["calls"]["collect"] > 0

    def test_profile_matches_trace_summary(self, tmp_path, capsys):
        """--profile and --trace-dir read one set of spans: every profiled
        stage equals the exported summary's stage_seconds."""
        import json

        profile = tmp_path / "profile.json"
        traced = tmp_path / "trace"
        assert main(["run", "--out", str(tmp_path / "archive"), "--profile",
                     "--profile-json", str(profile),
                     "--trace-dir", str(traced)] + ARGS) == 0
        assert "Per-stage profile" in capsys.readouterr().err
        seconds = json.loads(profile.read_text())["seconds"]
        summary = json.loads((traced / "trace_summary.json").read_text())
        assert set(seconds) == set(summary["stage_seconds"])
        for name, secs in seconds.items():
            assert round(secs, 6) == summary["stage_seconds"][name], name

    @pytest.fixture()
    def repro_logger(self):
        """Snapshot/restore the package logger the CLI configures."""
        import logging

        package = logging.getLogger("repro")
        level, handlers = package.level, list(package.handlers)
        yield package
        package.level = level
        package.handlers = handlers

    def test_verbose_flag_logs_progress(self, repro_logger, caplog):
        import logging

        assert main(["-v", "summary"] + ARGS) == 0
        assert repro_logger.level == logging.INFO
        assert any(r.name.startswith("repro") and r.levelno == logging.INFO
                   for r in caplog.records)

    def test_quiet_flag_raises_threshold(self, repro_logger):
        import logging

        assert main(["-q", "summary"] + ARGS) == 0
        assert repro_logger.level == logging.ERROR
