"""Tests for PQ-reconstruction with SGD (accuracy bands of Fig. 5a)."""

import math

import numpy as np
import pytest

from repro.core.matrices import ObservedMatrix, power_rows, throughput_rows
from repro.core.runtime import CuttleSysPolicy
from repro.core.sgd import PQReconstructor, SGDParams
from repro.experiments.harness import QuantumStepper, build_machine_for_mix
from repro.sim.coreconfig import CoreConfig, JointConfig, N_JOINT_CONFIGS
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

HI = JointConfig(CoreConfig.widest(), 1.0).index
LO = JointConfig(CoreConfig.narrowest(), 1.0).index


def profiled_matrix(builder, model):
    """Known training rows + two-sample test rows (the runtime shape)."""
    train_names, test_names = train_test_split()
    train = builder([batch_profile(n) for n in train_names], model)
    test = builder([batch_profile(n) for n in test_names], model)
    matrix = ObservedMatrix(train.shape[0] + test.shape[0])
    for i in range(train.shape[0]):
        matrix.set_known_row(i, train[i])
    for t in range(test.shape[0]):
        matrix.observe(train.shape[0] + t, HI, test[t, HI])
        matrix.observe(train.shape[0] + t, LO, test[t, LO])
    return matrix, test, train.shape[0]


def error_percentiles(full, test, n_train):
    err = (full[n_train:] - test) / test * 100.0
    return {
        "p5": np.percentile(err, 5),
        "p25": np.percentile(err, 25),
        "median": np.percentile(err, 50),
        "p75": np.percentile(err, 75),
        "p95": np.percentile(err, 95),
    }


class TestAccuracyBands:
    """The paper's Fig. 5a claims, verified on this implementation."""

    def test_throughput_quartiles_within_10pct(self, perf):
        matrix, test, n_train = profiled_matrix(throughput_rows, perf)
        full = PQReconstructor().reconstruct(matrix)
        p = error_percentiles(full, test, n_train)
        assert abs(p["p25"]) < 10.0
        assert abs(p["p75"]) < 10.0
        assert abs(p["median"]) < 5.0

    def test_throughput_tails_within_25pct(self, perf):
        matrix, test, n_train = profiled_matrix(throughput_rows, perf)
        full = PQReconstructor().reconstruct(matrix)
        p = error_percentiles(full, test, n_train)
        assert abs(p["p5"]) < 25.0
        assert abs(p["p95"]) < 25.0

    def test_power_errors_tiny(self, power):
        matrix, test, n_train = profiled_matrix(power_rows, power)
        full = PQReconstructor().reconstruct(matrix)
        p = error_percentiles(full, test, n_train)
        assert abs(p["p5"]) < 5.0
        assert abs(p["p95"]) < 5.0


class TestMechanics:
    def test_observed_entries_kept_verbatim(self, perf):
        matrix, test, n_train = profiled_matrix(throughput_rows, perf)
        full = PQReconstructor().reconstruct(matrix)
        assert full[n_train, HI] == matrix.values[n_train, HI]
        assert full[n_train, LO] == matrix.values[n_train, LO]

    def test_known_rows_reproduced_exactly(self, perf):
        matrix, _, n_train = profiled_matrix(throughput_rows, perf)
        full = PQReconstructor().reconstruct(matrix)
        assert np.allclose(full[:n_train], matrix.values[:n_train])

    def test_all_entries_positive(self, perf):
        matrix, _, _ = profiled_matrix(throughput_rows, perf)
        full = PQReconstructor().reconstruct(matrix)
        assert np.all(full > 0)

    def test_deterministic(self, perf):
        matrix, _, _ = profiled_matrix(throughput_rows, perf)
        a = PQReconstructor().reconstruct(matrix)
        b = PQReconstructor().reconstruct(matrix)
        assert np.allclose(a, b)

    def test_diagnostics_populated(self, perf):
        matrix, _, _ = profiled_matrix(throughput_rows, perf)
        reconstructor = PQReconstructor()
        reconstructor.reconstruct(matrix)
        d = reconstructor.last_diagnostics
        assert d is not None
        assert d.iterations >= 1
        assert d.observed_rmse >= 0

    def test_parallel_close_to_serial(self, perf):
        """HOGWILD-style refinement stays within ~2 % of serial (§V)."""
        matrix, test, n_train = profiled_matrix(throughput_rows, perf)
        parallel = PQReconstructor(SGDParams(parallel=True)).reconstruct(matrix)
        serial = PQReconstructor(SGDParams(parallel=False)).reconstruct(matrix)
        diff = np.abs(parallel - serial) / serial
        assert np.median(diff) < 0.02

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError):
            PQReconstructor().reconstruct(ObservedMatrix(3))

    def test_nonpositive_rejected_in_log_space(self):
        matrix = ObservedMatrix(1)
        matrix.observe(0, 0, -1.0)
        with pytest.raises(ValueError):
            PQReconstructor().reconstruct(matrix)

    def test_linear_space_allows_negatives(self):
        matrix = ObservedMatrix(2)
        matrix.set_known_row(0, np.linspace(-1, 1, N_JOINT_CONFIGS))
        matrix.observe(1, 0, -0.9)
        matrix.observe(1, 107, 0.9)
        full = PQReconstructor(SGDParams(log_space=False)).reconstruct(matrix)
        assert full.shape == (2, N_JOINT_CONFIGS)

    def test_no_anchor_rows_falls_back(self):
        """With only sparse rows, reconstruction still returns values."""
        rng = np.random.default_rng(0)
        matrix = ObservedMatrix(4)
        for r in range(4):
            for c in rng.integers(0, N_JOINT_CONFIGS, size=3):
                matrix.observe(r, int(c), float(rng.uniform(1, 2)))
        full = PQReconstructor().reconstruct(matrix)
        assert np.all(np.isfinite(full))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SGDParams(rank=0)
        with pytest.raises(ValueError):
            SGDParams(learning_rate=0)
        with pytest.raises(ValueError):
            SGDParams(regularization=-1)
        with pytest.raises(ValueError):
            SGDParams(anchor_fraction=0.0)
        with pytest.raises(ValueError):
            SGDParams(fold_in_ridge=0.0)
        # A NaN tolerance never stops, a negative one never converges.
        for tol in (math.nan, -1e-5, math.inf):
            with pytest.raises(ValueError, match="tol"):
                SGDParams(tol=tol)
        assert SGDParams(tol=0.0).tol == 0.0


class TestMoreObservationsHelp:
    def test_extra_steady_state_samples_reduce_error(self, perf):
        """Matrix updates from steady states sharpen predictions (§IV-B)."""
        matrix, test, n_train = profiled_matrix(throughput_rows, perf)
        base_full = PQReconstructor().reconstruct(matrix)
        base_err = np.abs(base_full[n_train:] - test) / test

        richer = matrix.copy()
        extra_cols = [JointConfig(CoreConfig(4, 4, 4), 2.0).index,
                      JointConfig(CoreConfig(6, 2, 4), 1.0).index,
                      JointConfig(CoreConfig(2, 4, 6), 4.0).index]
        for t in range(test.shape[0]):
            for col in extra_cols:
                richer.observe(n_train + t, col, test[t, col])
        rich_full = PQReconstructor().reconstruct(richer)
        rich_err = np.abs(rich_full[n_train:] - test) / test
        assert np.median(rich_err) < np.median(base_err)


class TestStoppingRule:
    """The relative tolerance stops refinement in the controller."""

    def test_steady_reconstructions_converge_before_max_iter(
        self, monkeypatch
    ):
        # The inputs of perfbench's ``steady`` workload: mix 0, seed 7,
        # a constant 0.63 load.  Under the old absolute tolerance the
        # bips matrix ran all max_iter epochs on every quantum.
        machine = build_machine_for_mix(paper_mixes()[0], seed=7)
        policy = CuttleSysPolicy.for_machine(machine, seed=7)
        controller = policy.controller
        seen = {"bips": [], "power": [], "latency": []}
        reconstruct = PQReconstructor.reconstruct

        def recording(self, matrix):
            estimate = reconstruct(self, matrix)
            if matrix is controller._bips_matrix:
                kind = "bips"
            elif matrix is controller._power_matrix:
                kind = "power"
            else:
                kind = "latency"
            seen[kind].append(self.last_diagnostics)
            return estimate

        monkeypatch.setattr(PQReconstructor, "reconstruct", recording)
        stepper = QuantumStepper(
            machine, policy, LoadTrace.constant(0.63), n_slices=40
        )
        for _ in range(40):
            stepper.step()
        max_iter = SGDParams().max_iter
        assert len(seen["bips"]) == len(seen["power"]) == 40
        assert seen["latency"]
        for kind, diagnostics in seen.items():
            for d in diagnostics:
                assert d.converged, kind
                assert d.iterations < max_iter, kind
