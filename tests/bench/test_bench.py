"""The operation-counter gate: reports, comparison, CLI."""

import json
import math
from dataclasses import replace

import pytest

from repro.bench import (
    BenchReport,
    case_names,
    compare_reports,
    render_comparison,
    render_report,
    run_bench,
)
from repro.cli import main


@pytest.fixture(scope="module")
def report():
    """One fast real bench run (the two solver microbenchmarks)."""
    return run_bench(only=["sgd.reconstruct", "dds.search"])


def _slowed(report, factor=2):
    """A synthetic copy whose operation counts grew by ``factor``."""
    cases = {
        name: replace(case, counters={
            key: value * factor for key, value in case.counters.items()
        })
        for name, case in report.cases.items()
    }
    return replace(report, cases=cases)


def _with_legacy_walls(report, factor):
    """The report as an older BENCH.json carrying wall samples."""
    data = report.to_json_dict()
    data["repeats"] = 3
    for case in data["cases"].values():
        case["wall_ms"] = [10.0 * factor] * 3
    return data


class TestRunBench:
    def test_selected_cases_run_with_counters(self, report):
        assert set(report.cases) == {"sgd.reconstruct", "dds.search"}
        assert report.cases["sgd.reconstruct"].counters["sgd_iterations"] > 0
        assert report.cases["dds.search"].counters["dds_evaluations"] > 0

    def test_counters_are_deterministic_across_runs(self, report):
        again = run_bench(only=["sgd.reconstruct", "dds.search"])
        for name in report.cases:
            assert again.cases[name].counters == report.cases[name].counters

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError, match="unknown bench case"):
            run_bench(only=["no.such.case"])

    def test_case_names_cover_hot_paths(self):
        names = case_names()
        assert "sgd.reconstruct" in names
        assert "dds.search" in names
        assert "quantum.decision" in names
        # Every case gates counters; wall time is perfbench's.
        for uncounted in ("telemetry.overhead",
                          "telemetry.overhead_disabled", "fleet.serial"):
            assert uncounted not in names


class TestReportIO:
    def test_json_round_trip(self, report, tmp_path):
        path = tmp_path / "BENCH.json"
        report.write(path)
        loaded = BenchReport.read(path)
        assert loaded == report
        assert "wall_ms" not in path.read_text()

    def test_newer_schema_rejected(self, report, tmp_path):
        path = tmp_path / "BENCH.json"
        report.write(path)
        data = json.loads(path.read_text())
        data["schema"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema"):
            BenchReport.read(path)

    def test_render_mentions_every_case(self, report):
        text = render_report(report)
        for name in report.cases:
            assert name in text


class TestCompare:
    def test_identical_reports_pass(self, report):
        comparison = compare_reports(report, report)
        assert comparison.ok
        assert not comparison.regressions

    def test_two_x_slowdown_regresses(self, report):
        comparison = compare_reports(
            _slowed(report), report, threshold_pct=10.0
        )
        assert not comparison.ok
        assert len(comparison.regressions) == len(report.cases)
        assert all(
            d.change_pct == pytest.approx(100.0)
            for d in comparison.regressions
        )

    def test_counters_only_ignores_wall_slowdown(self, report):
        """Wall samples in an older BENCH.json load and gate nothing."""
        slow = BenchReport.from_json_dict(_with_legacy_walls(report, 2))
        fast = BenchReport.from_json_dict(_with_legacy_walls(report, 1))
        assert slow == report
        assert compare_reports(slow, fast).ok

    def test_counter_growth_regresses_in_counters_only_mode(self, report):
        base_case = report.cases["dds.search"]
        grown = replace(report, cases={
            "dds.search": replace(base_case, counters={
                k: int(v * 2) for k, v in base_case.counters.items()
            }),
        })
        comparison = compare_reports(grown, BenchReport(
            seed=report.seed, cases={"dds.search": base_case},
        ))
        assert not comparison.ok

    def test_missing_case_is_a_regression(self, report):
        current = replace(report, cases={
            "dds.search": report.cases["dds.search"],
        })
        comparison = compare_reports(current, report)
        assert not comparison.ok
        assert comparison.missing == ("sgd.reconstruct",)

    def test_missing_counter_is_a_regression(self, report):
        base_case = report.cases["dds.search"]
        current = replace(report, cases={
            **report.cases,
            "dds.search": replace(base_case, counters={}),
        })
        comparison = compare_reports(current, report)
        bad = [d for d in comparison.regressions
               if d.case == "dds.search"]
        assert bad and math.isnan(bad[0].current)

    def test_negative_threshold_rejected(self, report):
        with pytest.raises(ValueError):
            compare_reports(report, report, threshold_pct=-1.0)

    def test_render_comparison_verdicts(self, report):
        assert "verdict: ok" in render_comparison(
            compare_reports(report, report)
        )
        text = render_comparison(compare_reports(_slowed(report), report))
        assert "REGRESSED" in text
        assert "verdict: ok" not in text


class TestBenchCli:
    def test_list(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == list(case_names())

    def test_identical_compare_exits_zero(self, report, tmp_path, capsys):
        path = tmp_path / "BENCH.json"
        report.write(path)
        code = main([
            "bench", "--input", str(path), "--compare", str(path),
        ])
        assert code == 0
        assert "verdict: ok" in capsys.readouterr().out

    def test_synthetic_slowdown_exits_nonzero(self, report, tmp_path,
                                              capsys):
        baseline = tmp_path / "BASELINE.json"
        current = tmp_path / "BENCH.json"
        report.write(baseline)
        _slowed(report).write(current)
        code = main([
            "bench", "--input", str(current),
            "--compare", str(baseline), "--threshold", "10",
        ])
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_legacy_wall_slowdown_passes_the_gate(self, report, tmp_path):
        baseline = tmp_path / "BASELINE.json"
        current = tmp_path / "BENCH.json"
        baseline.write_text(json.dumps(_with_legacy_walls(report, 1)))
        current.write_text(json.dumps(_with_legacy_walls(report, 2)))
        code = main([
            "bench", "--input", str(current), "--compare", str(baseline),
        ])
        assert code == 0

    def test_unreadable_input_exits_two(self, tmp_path):
        assert main([
            "bench", "--input", str(tmp_path / "missing.json"),
        ]) == 2

    def test_unknown_case_exits_two(self, capsys):
        assert main(["bench", "--only", "no.such.case"]) == 2
        assert "unknown bench case" in capsys.readouterr().err

    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "BENCH.json"
        code = main([
            "bench", "--only", "sgd.reconstruct", "--out", str(out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert "sgd.reconstruct" in data["cases"]
        assert "sgd.reconstruct" in capsys.readouterr().out


class TestCommittedBaseline:
    def test_live_counters_match_committed_baseline(self, report):
        """The CI gate's invariant, checked directly: current operation
        counts equal benchmarks/BENCH_BASELINE.json within threshold."""
        from pathlib import Path

        path = (Path(__file__).resolve().parents[2]
                / "benchmarks" / "BENCH_BASELINE.json")
        baseline = BenchReport.read(path)
        subset = BenchReport(
            seed=baseline.seed,
            cases={
                name: case for name, case in baseline.cases.items()
                if name in report.cases
            },
        )
        comparison = compare_reports(report, subset, threshold_pct=10.0)
        assert comparison.ok, render_comparison(comparison)
