"""Tests for the reconstruction-matrix containers and builders."""

import json

import numpy as np
import pytest

from repro.core.matrices import (
    MATRIX,
    ObservedMatrix,
    TruthTables,
    latency_row,
    latency_training_rows,
    power_rows,
    throughput_rows,
)
from repro.sim.coreconfig import N_JOINT_CONFIGS
from repro.snapshot import SnapshotError
from repro.workloads.batch import batch_profile
from repro.workloads.latency_critical import lc_service, make_services


class TestObservedMatrix:
    def test_fresh_matrix_is_empty(self):
        m = ObservedMatrix(4)
        assert not m.mask.any()
        assert m.observed_count(0) == 0

    def test_known_row_fully_observed(self):
        m = ObservedMatrix(2)
        row = np.linspace(1, 2, N_JOINT_CONFIGS)
        m.set_known_row(0, row)
        assert m.observed_count(0) == N_JOINT_CONFIGS
        assert np.allclose(m.values[0], row)
        assert m.observed_count(1) == 0

    def test_observe_single_entries(self):
        m = ObservedMatrix(2)
        m.observe(1, 5, 3.5)
        m.observe(1, 7, 4.5)
        assert m.observed_count(1) == 2
        assert m.values[1, 5] == 3.5
        # Later observations overwrite.
        m.observe(1, 5, 9.9)
        assert m.values[1, 5] == 9.9
        assert m.observed_count(1) == 2

    def test_non_finite_rejected(self):
        m = ObservedMatrix(1)
        with pytest.raises(ValueError):
            m.observe(0, 0, float("nan"))
        with pytest.raises(ValueError):
            m.observe(0, 0, float("inf"))

    def test_wrong_row_shape_rejected(self):
        m = ObservedMatrix(1)
        with pytest.raises(ValueError):
            m.set_known_row(0, np.ones(5))

    def test_copy_is_deep(self):
        m = ObservedMatrix(1)
        m.observe(0, 0, 1.0)
        c = m.copy()
        c.observe(0, 1, 2.0)
        assert m.observed_count(0) == 1
        assert c.observed_count(0) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservedMatrix(0)


class TestBuilders:
    def test_throughput_rows_shape(self, perf):
        profiles = [batch_profile("mcf"), batch_profile("namd")]
        rows = throughput_rows(profiles, perf)
        assert rows.shape == (2, N_JOINT_CONFIGS)
        assert np.all(rows > 0)

    def test_power_rows_shape(self, power):
        profiles = [batch_profile("mcf")]
        rows = power_rows(profiles, power)
        assert rows.shape == (1, N_JOINT_CONFIGS)
        assert np.all(rows > 0)

    def test_latency_row(self, perf):
        row = latency_row(lc_service("xapian"), perf, load=0.8, n_cores=16)
        assert row.shape == (N_JOINT_CONFIGS,)
        assert np.all(row > 0)
        # Widest config with max ways must be among the fastest.
        assert row[-1] <= np.percentile(row, 10)

    def test_truth_tables(self, perf, power):
        profiles = [batch_profile("mcf"), batch_profile("lbm")]
        tables = TruthTables.build(profiles, perf, power)
        assert tables.batch_bips.shape == tables.batch_power.shape


class TestLatencyTrainingRows:
    def test_rows_and_keys(self, perf):
        services = list(make_services(perf).values())
        rows, keys = latency_training_rows(services, [0.4, 0.8], perf, 16)
        assert rows.shape == (10, N_JOINT_CONFIGS)
        assert len(keys) == 10
        assert ("xapian", 0.4) in keys

    def test_exclusion(self, perf):
        services = list(make_services(perf).values())
        rows, keys = latency_training_rows(
            services, [0.8], perf, 16, exclude=("xapian", 0.8)
        )
        assert ("xapian", 0.8) not in keys
        assert rows.shape[0] == 4

    def test_empty_training_set_rejected(self, perf):
        services = [lc_service("xapian")]
        with pytest.raises(ValueError):
            latency_training_rows(
                services, [0.8], perf, 16, exclude=("xapian", 0.8)
            )


class TestObservationAging:
    def test_tick_ages_observations(self):
        m = ObservedMatrix(2)
        m.observe(0, 5, 1.0)
        m.tick()
        m.tick()
        assert m.age[0, 5] == 2

    def test_expire_drops_stale_entries(self):
        m = ObservedMatrix(2)
        m.observe(0, 5, 1.0)
        m.observe(0, 9, 2.0)
        m.tick()
        m.tick()
        m.observe(0, 9, 2.5)  # refreshed: age back to 0
        dropped = m.expire(max_age=1)
        assert dropped == 1
        assert not m.mask[0, 5]
        assert m.mask[0, 9]

    def test_known_rows_never_expire(self):
        m = ObservedMatrix(2)
        m.set_known_row(0, np.linspace(1, 2, m.n_cols))
        for _ in range(10):
            m.tick()
        assert m.expire(max_age=1) == 0
        assert m.observed_count(0) == m.n_cols

    def test_tick_never_ages_known_rows(self):
        m = ObservedMatrix(2)
        m.set_known_row(0, np.linspace(1, 2, m.n_cols))
        m.observe(1, 5, 1.0)
        for _ in range(50):
            m.tick()
        assert not m.age[0].any()
        assert m.age[1, 5] == 50

    @pytest.mark.parametrize("seed", range(5))
    def test_runtime_ageing_and_expiry_unchanged(self, seed):
        """Against the former rule, which aged every observed entry."""
        rng = np.random.default_rng(seed)
        m, former = ObservedMatrix(6, 12), ObservedMatrix(6, 12)
        for row in (0, 1):
            known = rng.uniform(1, 2, 12)
            m.set_known_row(row, known)
            former.set_known_row(row, known)
        for _ in range(60):
            for _ in range(rng.integers(0, 4)):
                row, col = int(rng.integers(2, 6)), int(rng.integers(12))
                value = float(rng.uniform(1, 2))
                m.observe(row, col, value)
                former.observe(row, col, value)
            if rng.random() < 0.05:
                row = int(rng.integers(2, 6))
                m.clear_row(row)
                former.clear_row(row)
            m.tick()
            former.age[former.mask] += 1
            assert m.expire(max_age=3) == former.expire(max_age=3)
            runtime = ~m.known_rows
            assert np.array_equal(m.values, former.values)
            assert np.array_equal(m.mask, former.mask)
            assert np.array_equal(m.age[runtime], former.age[runtime])
            assert not m.age[m.known_rows].any()

    def test_clear_row(self):
        m = ObservedMatrix(2)
        m.observe(1, 3, 4.0)
        m.clear_row(1)
        assert m.observed_count(1) == 0
        assert m.age[1, 3] == 0

    def test_expire_validation(self):
        m = ObservedMatrix(1)
        with pytest.raises(ValueError):
            m.expire(max_age=-1)

    def test_copy_preserves_ages(self):
        m = ObservedMatrix(1)
        m.observe(0, 0, 1.0)
        m.tick()
        c = m.copy()
        assert c.age[0, 0] == 1
        c.tick()
        assert m.age[0, 0] == 1  # deep copy


def _known_only(rows=(0, 2)):
    m = ObservedMatrix(4, 6)
    for row in rows:
        m.set_known_row(row, np.linspace(row, row + 1, 6))
    return m


def _learned_matrix():
    m = _known_only()
    m.observe(1, 4, 0.1 + 0.2)
    m.tick()
    m.observe(3, 0, 7.0)
    return m


class TestMatrixCodec:
    def test_snapshot_carries_observed_runtime_entries_only(self):
        state = MATRIX.encode(_learned_matrix())
        assert state["known_rows"] == [0, 2]
        # Runtime rows 1 and 3, row-major: (1, 4) -> 4 and (3, 0) -> 6.
        assert state["index"] == [4, 6]
        assert state["values"] == [0.1 + 0.2, 7.0]
        assert state["age"] == [1, 0]
        assert "mask" not in state

    def test_restore_lays_runtime_rows_over_known_rows(self):
        source = _learned_matrix()
        state = json.loads(json.dumps(MATRIX.encode(source)))
        target = _known_only()
        assert MATRIX.decode(state, target) is target
        for name in ("values", "mask", "age", "known_rows"):
            assert np.array_equal(getattr(target, name), getattr(source, name))

    def test_other_known_rows_rejected_untouched(self):
        state = MATRIX.encode(_learned_matrix())
        target = _known_only(rows=(0,))
        with pytest.raises(SnapshotError, match="known matrix rows"):
            MATRIX.decode(state, target)
        assert not target.mask[1:].any()

    def test_other_shape_rejected(self):
        state = MATRIX.encode(_learned_matrix())
        with pytest.raises(SnapshotError, match="matrix rows"):
            MATRIX.decode(state, ObservedMatrix(5, 6))
        with pytest.raises(SnapshotError, match="matrix columns"):
            MATRIX.decode(state, ObservedMatrix(4, 7))

    def test_malformed_rows_rejected(self):
        state = MATRIX.encode(_learned_matrix())
        state["values"] = state["values"][:1]
        with pytest.raises(ValueError):
            MATRIX.decode(state, _known_only())

    @pytest.mark.parametrize("index, match", [
        ([4, 12], "out of range"),
        ([-1, 6], "out of range"),
        ([6, 6], "repeated"),
    ])
    def test_bad_entry_indices_rejected(self, index, match):
        state = MATRIX.encode(_learned_matrix())
        state["index"] = index
        with pytest.raises(SnapshotError, match=match):
            MATRIX.decode(state, _known_only())
