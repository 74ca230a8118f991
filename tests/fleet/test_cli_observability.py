"""Tests for the observability CLI surfaces: top, dashboard, --watch.

``--watch`` paints to stderr only; the determinism contract (stdout
byte-identical across ``--jobs`` and with/without watching) is asserted
directly here by diffing captured stdout.
"""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

FIXTURE = (
    Path(__file__).parent.parent / "telemetry" / "data"
    / "run_fixture.jsonl"
)


class TestParser:
    def test_top_defaults(self):
        args = build_parser().parse_args(["top", "run.jsonl"])
        assert args.log == "run.jsonl"
        assert args.follow is False
        assert args.window == 256

    def test_dashboard_defaults(self):
        args = build_parser().parse_args(["dashboard", "run.jsonl"])
        assert args.out == "dashboard.html"
        assert args.title == "repro run dashboard"

    def test_watch_flag_on_fleet_commands(self):
        for argv in (
            ["experiment", "cluster", "--watch"],
            ["experiment", "scalability", "--watch"],
            ["fault-study", "--watch"],
            ["chaos", "--watch"],
        ):
            assert build_parser().parse_args(argv).watch is True

    def test_fault_study_gains_fleet_flags(self):
        args = build_parser().parse_args(
            ["fault-study", "--jobs", "2", "--checkpoint", "ck.json"]
        )
        assert args.jobs == 2
        assert args.checkpoint == "ck.json"

    def test_experiment_gains_jsonl(self):
        args = build_parser().parse_args(
            ["experiment", "cluster", "--jsonl", "log.jsonl"]
        )
        assert args.jsonl == "log.jsonl"


class TestTopCommand:
    def test_renders_status_view(self, capsys):
        assert main(["top", str(FIXTURE)]) == 0
        out = capsys.readouterr().out
        assert "live fleet status" in out
        assert "scale/16c/cuttlesys" in out
        assert "quantum.lc_p99_ms" in out

    def test_missing_log_exits_2(self, tmp_path, capsys):
        code = main(["top", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestDashboardCommand:
    def test_writes_self_contained_html(self, tmp_path, capsys):
        out_path = tmp_path / "report.html"
        assert main(
            ["dashboard", str(FIXTURE), "-o", str(out_path)]
        ) == 0
        assert "wrote" in capsys.readouterr().out
        html = out_path.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html

    def test_missing_log_exits_2(self, tmp_path, capsys):
        code = main(["dashboard", str(tmp_path / "absent.jsonl"),
                     "-o", str(tmp_path / "out.html")])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestWatch:
    def test_watch_paints_stderr_keeps_stdout_identical(self, capsys):
        assert main(
            ["--seed", "7", "experiment", "cluster", "--slices", "1"]
        ) == 0
        plain = capsys.readouterr()
        assert main(
            ["--seed", "7", "experiment", "cluster", "--slices", "1",
             "--watch"]
        ) == 0
        watched = capsys.readouterr()
        assert watched.out == plain.out
        assert "live fleet status" in watched.err
        assert "cluster/broker" in watched.err

    def test_watch_exercises_streaming_self_check(self, tmp_path, capsys):
        # --watch + --jsonl: the merged log written under streaming
        # passed the incremental-vs-post-hoc identity check inside
        # run_grid (it raises on divergence).
        log = tmp_path / "run.jsonl"
        assert main(
            ["--seed", "7", "experiment", "cluster", "--slices", "1",
             "--watch", "--jsonl", str(log)]
        ) == 0
        capsys.readouterr()
        assert log.exists() and log.read_text().strip()

    @pytest.mark.parametrize(
        "flag", [["--jsonl", "unused.jsonl"], ["--watch"]]
    )
    def test_stream_flags_rejected_on_non_grid_experiment(
        self, capsys, flag
    ):
        code = main(["experiment", "fig1", *flag])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1

    def test_fault_study_watch_and_jobs(self, capsys):
        code = main(
            ["--seed", "7", "fault-study", "--mixes", "0",
             "--slices", "2", "--scenario", "sensor-noise", "--watch"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "hardened" in captured.out
        assert "live fleet status" in captured.err

    def test_fault_study_multi_mix_checkpoint_resumes(self, tmp_path,
                                                      capsys):
        # Mix-qualified unit ids let one checkpoint cover a multi-mix
        # sweep; resuming from it reproduces the output byte for byte.
        ck = str(tmp_path / "ck.json")
        args = ["fault-study", "--mixes", "0", "1", "--slices", "4",
                "--scenario", "stuck-sensor", "--checkpoint", ck]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "m0" in first and "m1" in first
        assert main(args + ["--resume"]) == 0
        assert capsys.readouterr().out == first


class TestStatusStats:
    def test_status_prints_run_stats(self, tmp_path, capsys):
        ck = tmp_path / "ck.json"
        assert main(
            ["--seed", "7", "experiment", "cluster", "--slices", "1",
             "--checkpoint", str(ck)]
        ) == 0
        capsys.readouterr()
        assert main(["fleet", "status", str(ck)]) == 0
        out = capsys.readouterr().out
        assert "stats:" in out
        assert '"retries": 0' in out
        assert '"serial_fallbacks": 0' in out
