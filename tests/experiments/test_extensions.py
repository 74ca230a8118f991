"""Tests for the extension studies (DVFS comparison and ablations)."""

import pytest

from repro.experiments.ablations import (
    ABLATIONS,
    ablation_row,
    render_ablation,
)
from repro.experiments.dvfs_comparison import (
    SCHEMES,
    render_dvfs_comparison,
    run_dvfs_comparison,
)


class TestDVFSComparison:
    @pytest.fixture(scope="class")
    def result(self):
        return run_dvfs_comparison(caps=(0.9, 0.5))

    def test_all_schemes_present(self, result):
        for cap in result.caps:
            assert set(result.total_bips[cap]) == set(SCHEMES)

    def test_tight_caps_hurt(self, result):
        for scheme in SCHEMES:
            assert result.total_bips[0.5][scheme] <= \
                result.total_bips[0.9][scheme] + 1e-9

    def test_razor_margins_erode_dvfs(self, result):
        assert result.dvfs_headroom_loss(0.5) < 1.0

    def test_reconfig_beats_core_gating_at_tight_cap(self, result):
        assert result.advantage(0.5, over="core-gating") > 1.1

    def test_leakage_scale_validation(self):
        with pytest.raises(ValueError):
            run_dvfs_comparison(leakage_scale=0.0)

    def test_render(self, result):
        text = render_dvfs_comparison(result)
        assert "dvfs-razor" in text
        assert "reconfig" in text


class TestAblations:
    def test_inference_gap(self):
        sgd = ablation_row("inference", "sgd", n_slices=4)
        oracle = ablation_row("inference", "oracle", n_slices=4)
        assert oracle.batch_instructions_b >= sgd.batch_instructions_b * 0.95
        assert sgd.qos_violations == 0

    def test_guards(self):
        with_guards = ablation_row("guards", True, n_slices=4)
        without = ablation_row("guards", False, n_slices=4)
        assert with_guards.qos_violations == 0
        # Disabling guards may or may not violate on a short run, but
        # must not be safer than the default.
        assert without.qos_violations + without.power_violations >= \
            with_guards.qos_violations + with_guards.power_violations

    def test_variants(self):
        with_variants = ablation_row("variants", 3, n_slices=4)
        assert with_variants.qos_violations == 0

    def test_training_size(self):
        rows = [
            ablation_row("training-size", size, n_slices=3)
            for size in (8, 16)
        ]
        assert all(r.batch_instructions_b > 0 for r in rows)

    def test_penalty_weight(self):
        # A heavy penalty must not bust the budget.
        assert ablation_row("penalty-weight", 16.0).power_violations == 0

    def test_dds_budget_monotone_ish(self):
        def objective(max_iter):
            return ablation_row(
                "dds-budget", max_iter
            ).batch_instructions_b

        assert objective(80) >= objective(5)

    def test_unknown_ablation_or_variant_raises(self):
        with pytest.raises(ValueError, match="unknown ablation"):
            ablation_row("no-such-ablation", 1)
        with pytest.raises(ValueError, match="unknown ablation variant"):
            ablation_row("inference", "psychic")

    def test_sgd_epochs_variants(self):
        rows = {
            name: ablation_row("sgd-epochs", params, n_slices=4)
            for name, params in ABLATIONS["sgd-epochs"].variants.items()
        }
        assert list(rows) == ["tol-0", "tol-3e-3", "default", "max-iter-0"]
        assert rows["tol-0"].label == "tol=0"
        assert rows["default"].label == "tol=0.01 (default)"
        assert rows["max-iter-0"].label == "no refinement (maxIter=0)"
        # The refinement never costs QoS, at any stopping rule.
        assert all(r.qos_violations == 0 for r in rows.values())

    def test_render(self):
        rows = [ablation_row("training-size", 8, n_slices=2)]
        text = render_ablation("probe", rows)
        assert "probe" in text
        assert "8 training apps" in text


class TestAreaEquivalence:
    def test_shape(self):
        from repro.experiments.area_equivalence import (
            render_area_equivalence,
            run_area_equivalence,
        )

        results = run_area_equivalence(caps=(0.9, 0.5), n_slices=4)
        assert set(results) == {0.9, 0.5}
        reconf, fixed = results[0.5]
        assert reconf.design == "reconfig-32"
        assert fixed.design == "fixed-38"
        # Dark silicon: the fixed design's advantage shrinks with the cap.
        def ratio(cap):
            a, b = results[cap]
            return a.batch_instructions_b / b.batch_instructions_b

        assert ratio(0.5) > ratio(0.9)
        text = render_area_equivalence(results)
        assert "fixed-38" in text


class TestTransitionCostAblation:
    def test_higher_cost_never_helps(self):
        cheap, dear = (
            ablation_row("transition-cost", seconds, n_slices=4)
            for seconds in (50e-6, 10e-3)
        )
        assert cheap.batch_instructions_b >= \
            dear.batch_instructions_b * 0.98
