"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import EXPERIMENTS, POLICIES, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.mix == 0
        assert args.policy == "cuttlesys"
        assert args.cap == 0.7

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--policy", "magic"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_experiment_catalogue_complete(self):
        assert "fig5c" in EXPERIMENTS
        assert "dvfs" in EXPERIMENTS
        assert "ablations" in EXPERIMENTS


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe"]) == 0
        out = capsys.readouterr().out
        assert "32-core" in out
        assert "reference max power" in out

    def test_list_mixes(self, capsys):
        assert main(["list-mixes"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 50
        assert "xapian" in out
        assert "silo" in out

    def test_characterize_single_service(self, capsys):
        assert main(["characterize", "--service", "moses"]) == 0
        out = capsys.readouterr().out
        assert "moses" in out
        assert "{6,2,4}" in out

    def test_run_baseline(self, capsys):
        code = main(
            ["run", "--policy", "core-gating", "--slices", "2", "--mix", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "core-gating" in out
        assert "p99/QoS" in out

    def test_run_cuttlesys(self, capsys):
        assert main(["run", "--slices", "2"]) == 0
        out = capsys.readouterr().out
        assert "cuttlesys" in out

    def test_run_bad_mix(self, capsys):
        assert main(["run", "--mix", "99"]) == 2
        assert "mix index" in capsys.readouterr().err

    def test_experiment_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "RBF" in out

    def test_all_policies_constructible(self):
        from repro.experiments.harness import build_machine_for_mix
        from repro.workloads.mixes import paper_mixes

        machine = build_machine_for_mix(paper_mixes()[0], seed=1)
        for name, factory in POLICIES.items():
            policy = factory(machine, 1)
            assert hasattr(policy, "decide")
            assert hasattr(policy, "observe")


class TestExperimentDispatch:
    """Fast experiment names dispatch end to end through the CLI."""

    def test_experiment_fig1(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        out = capsys.readouterr().out
        assert "xapian" in out and "silo" in out

    def test_experiment_table2(self, capsys):
        assert main(["experiment", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "training apps" in out

    def test_experiment_flicker(self, capsys):
        assert main(["experiment", "flicker", "--slices", "2"]) == 0
        assert "Flicker" in capsys.readouterr().out

    def test_module_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "describe"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "32-core" in proc.stdout


class TestTelemetryFlags:
    def test_run_writes_chrome_trace(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        code = main(["run", "--slices", "2", "--trace", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace events" in out
        payload = json.loads(path.read_text())
        names = {e["name"] for e in payload["traceEvents"]}
        assert "quantum" in names and "sgd" in names

    def test_run_metrics_report(self, capsys):
        assert main(["run", "--slices", "2", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "telemetry metrics report" in out
        assert "prediction_error" in out

    def test_run_jsonl_then_telemetry_report(self, capsys, tmp_path):
        path = tmp_path / "events.jsonl"
        assert main(["run", "--slices", "2", "--jsonl", str(path)]) == 0
        capsys.readouterr()
        assert main(["profile", str(path)]) == 0
        out = capsys.readouterr().out
        (row,) = [
            line.split() for line in out.splitlines()
            if line.split()[:1] == ["dds.search"]
        ]
        assert row[1] == "2"

    def test_run_decisions_csv(self, capsys, tmp_path):
        path = tmp_path / "decisions.csv"
        code = main(
            ["run", "--slices", "2", "--decisions-csv", str(path)]
        )
        assert code == 0
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + 2 quanta
        assert "predicted_power_w" in lines[0]

    def test_telemetry_report_missing_file(self, capsys, tmp_path):
        assert main(["profile", str(tmp_path / "nope.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_trace_to_unwritable_path_fails_cleanly(self, capsys):
        code = main(
            ["run", "--slices", "1", "--trace", "/nonexistent-dir/t.json"]
        )
        assert code == 2
        assert "cannot write telemetry output" in capsys.readouterr().err

    def test_telemetry_report_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text("not json at all\n{broken")
        assert main(["profile", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_run_without_flags_skips_telemetry(self, capsys):
        assert main(["run", "--slices", "1"]) == 0
        out = capsys.readouterr().out
        assert "telemetry metrics report" not in out

    def test_verbose_flag_enables_logging(self, capsys):
        import logging

        assert main(["-v", "run", "--slices", "1"]) == 0
        root = logging.getLogger("repro")
        try:
            assert root.level == logging.INFO
        finally:
            for handler in list(root.handlers):
                if not isinstance(handler, logging.NullHandler):
                    root.removeHandler(handler)
            root.setLevel(logging.NOTSET)


class TestFaultFlags:
    def test_run_with_faults_prints_injection_summary(self, capsys):
        code = main([
            "run", "--slices", "3",
            "--faults", "drop_sample:rate=0.5;cap_drop:magnitude=0.6,start=1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults injected:" in out
        assert "drop_sample=" in out
        assert "cap_drop=" in out
        assert "degraded quanta" in out

    def test_run_with_faults_completes_all_slices(self, capsys):
        code = main([
            "run", "--slices", "3", "--faults", "drop_sample:rate=0.9",
        ])
        assert code == 0
        assert "3 slices" in capsys.readouterr().out

    def test_malformed_faults_spec_exits_2(self, capsys):
        code = main(["run", "--slices", "1", "--faults", "bogus:rate=0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad --faults spec" in err
        assert "unknown fault kind" in err

    def test_malformed_faults_value_exits_2(self, capsys):
        code = main([
            "run", "--slices", "1", "--faults", "drop_sample:rate=banana",
        ])
        assert code == 2
        assert "bad --faults spec" in capsys.readouterr().err

    def test_faults_counted_in_jsonl(self, capsys, tmp_path):
        import json

        path = tmp_path / "faulted.jsonl"
        code = main([
            "run", "--slices", "3", "--jsonl", str(path),
            "--faults", "drop_sample:rate=0.5",
        ])
        assert code == 0
        names = set()
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "counter":
                    names.add(record["name"])
        assert "faults.injected.drop_sample" in names
        assert "faults.detected.bad_sample" in names


class TestFaultStudyCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["fault-study"])
        assert args.mixes == [0]
        assert args.slices == 12
        assert args.scenario is None

    def test_single_scenario_run(self, capsys):
        code = main([
            "fault-study", "--mixes", "0", "--slices", "4",
            "--scenario", "stuck-sensor",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "stuck-sensor" in out
        assert "hardened" in out and "unhardened" in out
        # Single-mix runs keep the unqualified table (no mix column).
        assert "mix" not in out.splitlines()[0]

    def test_unknown_scenario_exits_2(self, capsys):
        code = main(["fault-study", "--scenario", "meteor-strike"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_mix_exits_2(self, capsys):
        code = main([
            "fault-study", "--mixes", "99", "--scenario", "stuck-sensor",
        ])
        assert code == 2
        assert "mix index" in capsys.readouterr().err


class TestChaosCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.seeds == [7]
        assert args.mixes == [0, 12]
        assert args.budgets == ["inf", "2000"]
        assert args.slices == 10
        assert args.jobs == 1

    def test_unknown_scenario_exits_2(self, capsys):
        code = main(["chaos", "--scenarios", "meteor-strike"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_budget_exits_2(self, capsys):
        code = main(["chaos", "--budgets", "lots"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_short_soak_passes(self, capsys):
        code = main([
            "chaos", "--seeds", "7", "--mixes", "0",
            "--scenarios", "fault-free", "--budgets", "2000",
            "--slices", "4", "--cooldown", "4",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "all 1 cells healthy" in out


class TestRunPauseResumeFlags:
    def test_stop_after_requires_save_state(self, capsys):
        code = main(["run", "--slices", "4", "--stop-after", "2"])
        assert code == 2
        assert "--save-state" in capsys.readouterr().err

    def test_deadline_flags_require_cuttlesys(self, capsys):
        code = main([
            "run", "--slices", "2", "--policy", "core-gating",
            "--decision-budget", "2000",
        ])
        assert code == 2
        assert "cuttlesys" in capsys.readouterr().err

    def test_pause_then_resume_round_trip(self, capsys, tmp_path):
        state = str(tmp_path / "state.json")
        assert main(["run", "--slices", "3", "--stop-after", "1",
                     "--save-state", state]) == 0
        out = capsys.readouterr().out
        assert "paused at quantum 1" in out
        assert main(["run", "--slices", "3",
                     "--resume-state", state]) == 0
        resumed = capsys.readouterr().out
        assert "3 slices" in resumed


    def test_foreign_or_bad_state_is_a_one_line_error(
        self, capsys, tmp_path
    ):
        state = tmp_path / "state.json"
        assert main(["--seed", "7", "run", "--slices", "6",
                     "--stop-after", "2", "--save-state", str(state)]) == 0
        capsys.readouterr()
        assert main(["--seed", "7", "run", "--mix", "1", "--slices", "6",
                     "--resume-state", str(state)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "origin" in err
        assert err.count("\n") == 1
        bad = json.loads(state.read_text())
        bad["version"] = 9
        state.write_text(json.dumps(bad))
        assert main(["--seed", "7", "run", "--slices", "6",
                     "--resume-state", str(state)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "version 9" in err
        assert "Traceback" not in err


class TestAuditCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["audit"])
        assert args.mix == 0
        assert args.slices == 10
        assert args.faults is None

    def test_audit_prints_accuracy_report(self, capsys):
        assert main(["audit", "--slices", "4"]) == 0
        out = capsys.readouterr().out
        assert "prediction-accuracy audit" in out
        assert "quanta audited: " in out
        assert "bips" in out and "lc_p99" in out

    def test_audit_bad_mix(self, capsys):
        assert main(["audit", "--mix", "99"]) == 2
        assert "mix index" in capsys.readouterr().err

    def test_audit_bad_fault_spec(self, capsys):
        assert main(["audit", "--faults", "bogus~spec"]) == 2
        assert "bad --faults spec" in capsys.readouterr().err


class TestBenchParser:
    def test_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.threshold == 10.0
        assert args.only is None
        assert args.compare is None

    def test_gate_invocation_shape(self):
        args = build_parser().parse_args([
            "bench", "--input", "BENCH.json",
            "--compare", "benchmarks/BENCH_BASELINE.json",
            "--threshold", "10",
        ])
        assert args.input == "BENCH.json"
        assert args.compare == "benchmarks/BENCH_BASELINE.json"


class TestExplainCommand:
    @pytest.fixture()
    def log(self, tmp_path, capsys):
        path = str(tmp_path / "run.jsonl")
        assert main(["--seed", "7", "run", "--slices", "2",
                     "--decision-budget", "2000", "--jsonl", path]) == 0
        capsys.readouterr()
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(["explain", "run.jsonl"])
        assert args.log == "run.jsonl"
        assert args.quantum is None

    def test_explain_single_quantum(self, capsys, log):
        assert main(["explain", log, "--quantum", "1"]) == 0
        out = capsys.readouterr().out
        assert "decision provenance — quantum 1" in out
        assert "quantum 0" not in out
        assert "mode: reduced_dds" in out
        assert "ladder pricing" in out

    def test_explain_all_quanta(self, capsys, log):
        assert main(["explain", log]) == 0
        out = capsys.readouterr().out
        assert "quantum 0" in out and "quantum 1" in out

    def test_missing_quantum_exits_1(self, capsys, log):
        assert main(["explain", log, "--quantum", "99"]) == 1
        assert "no provenance record" in capsys.readouterr().err

    def test_log_without_provenance_exits_1(self, capsys, tmp_path):
        bare = tmp_path / "bare.jsonl"
        bare.write_text('{"type": "counter", "name": "x.y", "value": 1}\n')
        assert main(["explain", str(bare)]) == 1
        assert "no provenance records" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["explain", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err


class TestReplayCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args([
            "replay", "--state", "s.json", "--jsonl", "run.jsonl",
            "--quantum", "3",
        ])
        assert args.mix == 0
        assert args.cap == 0.7
        assert args.load == 0.8
        assert args.decision_budget is None
        assert args.faults is None

    def test_replay_reproduces_recorded_quantum(self, capsys, tmp_path):
        log = str(tmp_path / "run.jsonl")
        state = str(tmp_path / "state.json")
        assert main(["--seed", "7", "run", "--slices", "5",
                     "--decision-budget", "2000", "--jsonl", log]) == 0
        assert main(["--seed", "7", "run", "--slices", "5",
                     "--decision-budget", "2000", "--stop-after", "2",
                     "--save-state", state]) == 0
        capsys.readouterr()
        assert main(["--seed", "7", "replay", "--state", state,
                     "--jsonl", log, "--quantum", "3",
                     "--decision-budget", "2000"]) == 0
        out = capsys.readouterr().out
        assert "replay OK: quantum 3 reproduced byte-identically" in out
        # A quantum the snapshot already passed is rejected, not
        # silently replayed wrong.
        assert main(["--seed", "7", "replay", "--state", state,
                     "--jsonl", log, "--quantum", "1",
                     "--decision-budget", "2000"]) == 1
        assert "precedes" in capsys.readouterr().err

    def test_missing_state_exits_2(self, capsys, tmp_path):
        log = tmp_path / "run.jsonl"
        log.write_text("")
        code = main(["replay", "--state", str(tmp_path / "absent.json"),
                     "--jsonl", str(log), "--quantum", "1"])
        assert code == 2
        assert "cannot read" in capsys.readouterr().err


class TestProfileCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.log is None
        assert args.slices == 3
        assert args.top == 15
        assert args.weight == "exclusive_us"
        assert not args.ops_only
        assert args.folded is None and args.chrome is None

    def test_in_process_profile(self, capsys):
        assert main(["--seed", "7", "profile", "--slices", "2"]) == 0
        out = capsys.readouterr().out
        assert "profile of mix 0, 2 quanta, seed 7" in out
        assert "phase costs" in out
        assert "dds.search" in out

    def test_profile_from_log_ops_only(self, capsys, tmp_path):
        log = str(tmp_path / "run.jsonl")
        assert main(["--seed", "7", "run", "--slices", "2",
                     "--jsonl", log]) == 0
        capsys.readouterr()
        assert main(["profile", log, "--ops-only"]) == 0
        out = capsys.readouterr().out
        assert "evaluations=" in out
        # The deterministic surface carries no host timings.
        assert "µs" not in out

    def test_export_files(self, capsys, tmp_path):
        folded = tmp_path / "profile.folded"
        chrome = tmp_path / "trace.json"
        assert main(["--seed", "7", "profile", "--slices", "2",
                     "--folded", str(folded),
                     "--chrome", str(chrome)]) == 0
        err = capsys.readouterr().err
        assert "flamegraph.pl" in err
        assert folded.read_text().strip()
        assert chrome.read_text().startswith("{")

    def test_log_without_spans_exits_1(self, capsys, tmp_path):
        bare = tmp_path / "bare.jsonl"
        bare.write_text('{"type": "counter", "name": "x.y", "value": 1}\n')
        assert main(["profile", str(bare)]) == 1
        assert "no spans" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["profile", str(tmp_path / "absent.jsonl")]) == 2
        assert "cannot read" in capsys.readouterr().err
