"""Tests for the full-evaluation orchestrator and the report command."""

import pytest

from repro.experiments.full_eval import (
    EXPERIMENTS,
    render_report,
    run_full_evaluation,
)


class TestSections:
    def test_catalogue_covers_paper_and_extensions(self):
        titles = [entry.title for entry in EXPERIMENTS.values()]
        text = " ".join(titles)
        for token in ("Fig. 1", "Table II", "Fig. 5", "Fig. 7", "Fig. 8",
                      "Fig. 9", "Fig. 10", "Flicker", "ablations", "DVFS",
                      "bandwidth", "churn", "scalability",
                      "fault injection"):
            assert token in text

    def test_only_filter(self):
        results = run_full_evaluation(n_slices=2, only=["fig9"])
        assert len(results) == 1
        assert "Fig. 9" in results[0].title
        assert results[0].error is None
        assert "RBF" in results[0].body

    def test_only_filter_compacts_punctuation(self):
        results = run_full_evaluation(n_slices=2, only=["fig 9"])
        assert len(results) == 1

    def test_unknown_filter_rejected(self):
        with pytest.raises(ValueError):
            run_full_evaluation(only=["fig99"])


class TestReport:
    def test_render_report(self):
        results = run_full_evaluation(n_slices=2, only=["fig9"])
        report = render_report(results)
        assert report.startswith("# CuttleSys reproduction")
        assert "## Fig. 9" in report
        assert "```" in report

    def test_cli_report_command(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.md"
        code = main(["report", "--only", "fig9", "--out", str(out)])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert out.read_text().startswith("# CuttleSys reproduction")

    def test_cli_report_unwritable_out_is_a_one_line_error(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        out = tmp_path / "missing" / "report.md"
        code = main(["report", "--only", "fig9", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ")
        assert err.count("\n") == 1

    def test_fleet_section_zero_on_healthy(self):
        results = run_full_evaluation(n_slices=2, only=["fig9"])
        healthy = render_report(
            results,
            fleet_stats={"retries": 0, "serial_fallbacks": 0,
                         "unit_attempts": {}},
        )
        assert "## Fleet execution" in healthy
        assert "worker retries (WorkerDied resubmissions): 0" in healthy
        # Per-unit lines appear only when a unit actually retried, so
        # healthy reports are byte-identical with or without the key.
        assert "more than one attempt" not in healthy
        assert healthy == render_report(
            results, fleet_stats={"retries": 0, "serial_fallbacks": 0}
        )

    def test_fleet_section_lists_retried_units(self):
        results = run_full_evaluation(n_slices=2, only=["fig9"])
        report = render_report(
            results,
            fleet_stats={
                "retries": 3,
                "serial_fallbacks": 0,
                "unit_attempts": {
                    "section/Fig. 9 — SGD vs RBF": 2,
                    "section/Extension — ablations": 3,
                },
            },
        )
        assert "Units needing more than one attempt:" in report
        lines = report.splitlines()
        ablation_line = lines.index(
            "- section/Extension — ablations: 3 attempts"
        )
        fig9_line = lines.index(
            "- section/Fig. 9 — SGD vs RBF: 2 attempts"
        )
        assert ablation_line < fig9_line  # sorted by unit id

    def test_run_full_evaluation_populates_unit_attempts(self):
        stats = {}
        run_full_evaluation(n_slices=2, only=["fig9"], fleet_stats=stats)
        assert stats["unit_attempts"] == {}
        fleet_stats = {}
        run_full_evaluation(
            n_slices=2, only=["fig9"], jobs=2, fleet_stats=fleet_stats
        )
        # A healthy parallel run needs exactly one attempt per unit.
        assert fleet_stats["unit_attempts"] == {}
        assert fleet_stats["retries"] == 0
