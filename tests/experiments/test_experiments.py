"""Smoke and shape tests for the per-figure experiment modules.

Full-scale runs live in ``benchmarks/``; these tests exercise each
experiment at reduced size and assert the paper-shaped properties that
must hold at any scale.
"""

import numpy as np
import pytest

from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams
from repro.core.ga import GAParams
from repro.core.sgd import PQReconstructor
from repro.experiments.fig1_characterization import (
    run_fig1,
    render_fig1,
)
from repro.experiments.fig5_accuracy import run_fig5a, render_fig5, run_fig5b
from repro.experiments.fig5c_powercaps import run_fig5c, render_fig5c
from repro.experiments.fig7_timeline import run_fig7, render_fig7
from repro.experiments.fig8_dynamic import (
    render_fig8,
    run_fig8a,
    run_fig8b,
    run_fig8c,
)
from repro.experiments.fig9_sgd_vs_rbf import run_fig9, render_fig9
from repro.experiments.fig10_dds_vs_ga import (
    render_fig10,
    run_fig10a,
    run_fig10b,
)
from repro.experiments.flicker_comparison import (
    render_flicker,
    run_flicker_qos,
    run_flicker_throughput,
)
from repro.experiments.table2_overheads import (
    render_table2,
    run_table2,
    run_training_set_sensitivity,
)
from repro.sim.coreconfig import CoreConfig

pytestmark = pytest.mark.filterwarnings("ignore")


class TestFig1:
    def test_paper_best_configs(self):
        results = run_fig1()
        expected = {
            "xapian": CoreConfig(2, 2, 6),
            "masstree": CoreConfig(4, 2, 4),
            "imgdnn": CoreConfig(4, 2, 4),
            "moses": CoreConfig(6, 2, 4),
            "silo": CoreConfig(2, 2, 4),
        }
        for name, config in expected.items():
            best = results[name][0.8].best_low_power_config()
            assert best == config, name

    def test_low_load_latency_lower(self):
        results = run_fig1(services=["xapian"])
        hi = results["xapian"][0.8].tail_latency
        lo = results["xapian"][0.2].tail_latency
        assert np.all(lo <= hi + 1e-12)

    def test_render(self):
        text = render_fig1(run_fig1(services=["moses"]))
        assert "moses" in text
        assert "{6,2,4}" in text


class TestFig5Accuracy:
    def test_isolation_bands(self):
        result = run_fig5a()
        assert abs(result.throughput["p25"]) < 10
        assert abs(result.throughput["p75"]) < 10
        assert abs(result.throughput["p5"]) < 25
        assert abs(result.throughput["p95"]) < 25
        assert abs(result.power["p95"]) < 5

    def test_colocation_wider_than_isolation(self):
        isolation = run_fig5a()
        colocation = run_fig5b()
        iso_spread = isolation.throughput["p95"] - isolation.throughput["p5"]
        colo_spread = colocation.throughput["p95"] - colocation.throughput["p5"]
        assert colo_spread >= iso_spread * 0.8  # noise cannot shrink much

    def test_render(self):
        text = render_fig5(run_fig5a(), run_fig5b())
        assert "isolation" in text
        assert "colocation" in text


FAST_CONTROLLER = ControllerConfig(
    dds=DDSParams(initial_random_points=20, max_iter=8,
                  points_per_iteration=4, n_threads=4),
    seed=7,
)


class TestFig5c:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5c(mix_indices=(0,), caps=(0.9, 0.5), n_slices=4)

    def test_all_policies_reported(self, result):
        assert "cuttlesys" in result.policies
        assert "asymm-oracle" in result.policies
        for cap in result.caps:
            assert set(result.relative[cap]) == set(result.policies)

    def test_no_gating_is_unity(self, result):
        for cap in result.caps:
            assert result.relative[cap]["no-gating"] == pytest.approx(1.0)

    def test_tight_cap_hurts_everyone(self, result):
        for policy in ("core-gating", "cuttlesys"):
            assert result.relative[0.5][policy] < result.relative[0.9][policy]

    def test_cuttlesys_beats_gating_at_tight_cap(self, result):
        assert result.speedup(0.5, "cuttlesys", "core-gating") > 1.0

    def test_render(self, result):
        text = render_fig5c(result)
        assert "cap" in text
        assert "CuttleSys vs core-gating" in text


class TestFig7:
    def test_timeline_shapes(self):
        results = run_fig7(n_slices=3)
        assert set(results) == {"core-gating", "asymm-oracle", "cuttlesys"}
        for res in results.values():
            assert len(res.instructions_b) == 3

    def test_gating_reduces_active_cores(self):
        results = run_fig7(n_slices=3, cap=0.5)
        assert min(results["core-gating"].active_batch_cores) < 16
        # The asymmetric oracle keeps everything on unless impossible.
        assert min(results["asymm-oracle"].active_batch_cores) >= \
            min(results["core-gating"].active_batch_cores)

    def test_render(self):
        text = render_fig7(run_fig7(n_slices=2))
        assert "slice" in text
        assert "total" in text


class TestFig8Dynamic:
    def test_fig8a_load_follows_diurnal(self):
        trace = run_fig8a(n_slices=10)
        assert trace.loads[0] < 0.4
        assert max(trace.loads) > 0.7
        assert trace.n_slices == 10

    def test_fig8a_meets_qos_mostly(self):
        trace = run_fig8a(n_slices=12)
        violations = sum(1 for r in trace.p99_over_qos if r > 1.0)
        assert violations <= 2  # transient violations only (paper Fig. 8a)

    def test_fig8b_budget_steps(self):
        trace = run_fig8b(n_slices=9)
        assert trace.budget_w[0] > trace.budget_w[4]
        assert trace.budget_w[-1] > trace.budget_w[4]

    def test_fig8b_throughput_follows_budget(self):
        trace = run_fig8b(n_slices=12)
        mid = trace.batch_gmean_bips[5:8]
        early = trace.batch_gmean_bips[1:4]
        assert np.mean(mid) < np.mean(early)

    def test_fig8c_core_relocation(self):
        trace = run_fig8c(n_slices=16)
        # At low load the controller yields LC cores to the batch side;
        # the surge forces it to reclaim them (one per quantum), and
        # the post-surge drop lets it yield again.
        surge_start = next(
            i for i, load in enumerate(trace.loads) if load > 0.9
        )
        pre_surge = trace.lc_cores[surge_start]
        surge_peak = max(trace.lc_cores[surge_start:])
        assert surge_peak > pre_surge
        assert trace.lc_cores[-1] < surge_peak

    def test_render(self):
        assert "fig8a" in render_fig8(run_fig8a(n_slices=4))


class TestFig9:
    def test_rbf_worse_than_sgd(self):
        result = run_fig9()
        assert result.rbf_throughput["max_abs"] > result.sgd_throughput["max_abs"]
        rbf_spread = result.rbf_throughput["p95"] - result.rbf_throughput["p5"]
        sgd_spread = result.sgd_throughput["p95"] - result.sgd_throughput["p5"]
        assert rbf_spread > sgd_spread

    def test_render(self):
        text = render_fig9(run_fig9())
        assert "RBF" in text
        assert "SGD" in text


class TestFig10:
    def test_fig10a_dds_finds_better_point(self):
        result = run_fig10a(
            dds_params=DDSParams(max_iter=20),
            ga_params=GAParams(generations=20),
        )
        assert result.dds.best_objective >= result.ga.best_objective * 0.98
        assert len(result.dds.points) == result.dds.evaluations
        assert len(result.ga.points) == result.ga.evaluations

    def test_fig10b_runs(self):
        result = run_fig10b(mix_indices=(0,), caps=(0.7,), n_slices=3)
        assert 0.7 in result.dds_throughput
        assert result.advantage(0.7) > 0

    def test_render(self):
        a = run_fig10a(dds_params=DDSParams(max_iter=5),
                       ga_params=GAParams(generations=5))
        b = run_fig10b(mix_indices=(0,), caps=(0.7,), n_slices=2)
        text = render_fig10(a, b)
        assert "Fig. 10a" in text
        assert "Fig. 10b" in text


class TestTable2:
    def test_overheads_positive(self):
        result = run_table2(repeats=1)
        assert result.profiling_ms == 2.0
        assert result.sgd_ms > 0
        assert result.dds_ms > 0
        assert result.total_ms > 2.0

    def test_every_timed_reconstruction_is_computed(self, monkeypatch):
        # The SGD column times reconstructions, not memo hits.
        computed = []
        cold = PQReconstructor._reconstruct

        def counted(self, matrix):
            computed.append(matrix.revision)
            return cold(self, matrix)

        monkeypatch.setattr(PQReconstructor, "_reconstruct", counted)
        run_table2(repeats=2)
        assert len(set(computed)) == len(computed) == 6

    def test_sensitivity_sizes(self):
        result = run_training_set_sensitivity(sizes=(8, 16))
        assert set(result.median_abs_error_pct) == {8, 16}
        assert all(v > 0 for v in result.sgd_ms.values())

    def test_more_training_apps_not_worse(self):
        result = run_training_set_sensitivity(sizes=(8, 24))
        assert result.median_abs_error_pct[24] <= \
            result.median_abs_error_pct[8] * 1.2

    def test_render(self):
        text = render_table2(run_table2(repeats=1),
                             run_training_set_sensitivity(sizes=(8, 16)))
        assert "Table II" in text
        assert "training apps" in text


class TestFlicker:
    def test_method_a_violates_by_order_of_magnitude(self):
        result = run_flicker_qos()
        assert result.method_a_p99_over_qos > 3.0
        assert result.method_a_p99_over_qos > result.method_b_p99_over_qos

    def test_method_b_modest_violation(self):
        result = run_flicker_qos()
        assert result.method_b_p99_over_qos > result.cuttlesys_p99_over_qos

    def test_cuttlesys_within_qos(self):
        result = run_flicker_qos()
        assert result.cuttlesys_p99_over_qos <= 1.0

    def test_throughput_comparison_runs(self):
        result = run_flicker_throughput(n_slices=3)
        assert result.cuttlesys_instructions > 0
        assert result.flicker_instructions > 0

    def test_render(self):
        text = render_flicker(run_flicker_qos(),
                              run_flicker_throughput(n_slices=2))
        assert "Flicker" in text
        assert "CuttleSys" in text
