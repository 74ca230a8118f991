"""Tests for the soft-penalty system objective (Eq. 1-5) and the hard
power fallback (§VI-B)."""

from types import SimpleNamespace
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.objective import (
    SystemObjective,
    hungriest_first,
    planned_power,
    power_fallback,
)
from repro.sim.coreconfig import N_JOINT_CONFIGS, JointConfig


def make_objective(n_jobs=4, max_power=50.0, **kwargs):
    rng = np.random.default_rng(1)
    bips = rng.uniform(0.5, 5.0, size=(n_jobs, N_JOINT_CONFIGS))
    power = rng.uniform(1.0, 4.0, size=(n_jobs, N_JOINT_CONFIGS))
    defaults = dict(max_power=max_power, max_ways=32.0)
    defaults.update(kwargs)
    return SystemObjective(bips=bips, power=power, **defaults)


class TestGmean:
    def test_gmean_matches_numpy(self):
        obj = make_objective()
        x = np.array([0, 10, 50, 107])
        vals = obj.bips[np.arange(4), x]
        assert obj.gmean_bips(x) == pytest.approx(
            float(np.exp(np.mean(np.log(vals))))
        )

    def test_time_share_scales_gmean(self):
        obj = make_objective(time_share=0.5)
        ref = make_objective(time_share=1.0)
        x = np.array([1, 2, 3, 4])
        assert obj.gmean_bips(x) == pytest.approx(0.5 * ref.gmean_bips(x))


class TestConstraints:
    def test_power_sum_includes_reservation(self):
        obj = make_objective(reserved_power=10.0)
        x = np.zeros(4, dtype=int)
        expected = float(np.sum(obj.power[np.arange(4), x])) + 10.0
        assert obj.total_power(x) == pytest.approx(expected)

    def test_ways_pairing_halves(self):
        obj = make_objective()
        # Joint index with cache_index 0 -> 0.5 ways.
        half = 0  # {2,2,2}/0.5w
        one = 1   # {2,2,2}/1w
        x = np.array([half, half, half, one])
        # ceil(3/2)=2 paired ways + 1 whole way.
        assert obj.total_ways(x) == pytest.approx(3.0)

    def test_reserved_ways_added(self):
        obj = make_objective(reserved_ways=4.0)
        x = np.array([1, 1, 1, 1])  # four 1-way allocations
        assert obj.total_ways(x) == pytest.approx(8.0)

    def test_penalties_reduce_objective(self):
        obj = make_objective(max_power=1.0)  # everything over budget
        x = np.array([107, 107, 107, 107])
        assert obj(x) < obj.gmean_bips(x)

    def test_no_penalty_when_feasible(self):
        obj = make_objective(max_power=1e9)
        x = np.array([5, 5, 5, 5])
        assert obj(x) == pytest.approx(obj.gmean_bips(x))

    def test_is_feasible(self):
        obj = make_objective(max_power=1e9)
        assert obj.is_feasible(np.array([1, 1, 1, 1]))
        tight = make_objective(max_power=0.1)
        assert not tight.is_feasible(np.array([1, 1, 1, 1]))


class TestBatchEvaluation:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25)
    def test_batch_matches_scalar(self, seed):
        obj = make_objective(max_power=40.0)
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, N_JOINT_CONFIGS, size=(8, 4))
        batch = obj.evaluate_batch(xs)
        scalar = np.array([obj(x) for x in xs])
        assert np.allclose(batch, scalar)

    def test_batch_shape_validation(self):
        obj = make_objective()
        with pytest.raises(ValueError):
            obj.evaluate_batch(np.zeros((3, 7), dtype=int))


class TestValidation:
    def test_shape_mismatch(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SystemObjective(
                bips=rng.uniform(1, 2, (2, N_JOINT_CONFIGS)),
                power=rng.uniform(1, 2, (3, N_JOINT_CONFIGS)),
                max_power=10.0,
                max_ways=32.0,
            )

    def test_nonstandard_width_needs_ways(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            SystemObjective(
                bips=rng.uniform(1, 2, (2, 27)),
                power=rng.uniform(1, 2, (2, 27)),
                max_power=10.0,
                max_ways=32.0,
            )
        obj = SystemObjective(
            bips=rng.uniform(1, 2, (2, 27)),
            power=rng.uniform(1, 2, (2, 27)),
            max_power=10.0,
            max_ways=32.0,
            ways_by_config=np.zeros(27),
        )
        assert obj.n_confs == 27
        assert obj.total_ways(np.array([0, 26])) == 0.0

    def test_positive_limits(self):
        with pytest.raises(ValueError):
            make_objective(max_power=0.0)

    def test_wrong_decision_shape(self):
        obj = make_objective()
        with pytest.raises(ValueError):
            obj(np.array([1, 2]))


class _LoopFallback:
    """The controller's former gate-hungriest loop, kept verbatim as the
    reference :func:`power_fallback` must agree with."""

    def __init__(self, residual: float) -> None:
        self.machine = SimpleNamespace(
            power=SimpleNamespace(gated_core_power=lambda: residual)
        )

    def _power_fallback(
        self,
        configs: List[Optional[JointConfig]],
        power_table: np.ndarray,
        reserved_power: float,
        max_power: float,
    ) -> List[Optional[JointConfig]]:
        """Gate cores in descending predicted power if still over budget."""
        def predicted_total() -> float:
            total = reserved_power
            for j, cfg in enumerate(configs):
                if cfg is not None:
                    total += power_table[j, cfg.index]
                else:
                    total += self.machine.power.gated_core_power()
            return total

        while predicted_total() > max_power:
            active = [j for j, cfg in enumerate(configs) if cfg is not None]
            if not active:
                break
            hungriest = max(
                active, key=lambda j: power_table[j, configs[j].index]
            )
            configs[hungriest] = None
        return configs


class TestPowerFallback:
    def test_under_the_cap_gates_nothing(self):
        on = power_fallback([3.0, 2.0, 1.0], 4.0, 10.0, 0.5)
        assert on.tolist() == [True, True, True]

    def test_equal_powers_gate_the_lowest_index_first(self):
        assert hungriest_first([2.0, 5.0, 2.0, 5.0]) == [1, 3, 0, 2]
        # 5 + 5 + 5 = 15 W; one 5 W slot gated leaves 10.5 W.
        on = power_fallback([5.0, 5.0, 5.0], 0.0, 10.5, 0.5)
        assert on.tolist() == [False, True, True]

    def test_stops_as_soon_as_the_plan_is_at_the_cap(self):
        power = [4.0, 3.0, 2.0, 1.0]
        # Gating slot 0 leaves 1 + 0.5 + 3 + 2 + 1 = 7.5 W: exactly
        # the cap, so slot 1 stays on.
        on = power_fallback(power, 1.0, 7.5, 0.5)
        assert on.tolist() == [False, True, True, True]
        assert planned_power(power, on, 1.0, 0.5) == 7.5
        on = power_fallback(power, 1.0, 7.4, 0.5)
        assert on.tolist() == [False, False, True, True]

    def test_gates_every_slot_when_reservation_and_residuals_bust_the_cap(
        self,
    ):
        # 8 W reserved + 3 x 0.75 W residual = 10.25 W > 10 W.
        on = power_fallback([1.0, 2.0, 3.0], 8.0, 10.0, 0.75)
        assert on.tolist() == [False, False, False]
        assert power_fallback([], 8.0, 1.0, 0.75).tolist() == []

    def test_follows_a_given_order(self):
        power = [4.0, 3.0, 2.0, 1.0]
        on = power_fallback(power, 0.0, 6.0, 0.0, order=[3, 2, 1, 0])
        assert on.tolist() == [True, False, False, False]
        # Only the listed slots may be gated.
        on = power_fallback(power, 0.0, 1.0, 0.0, order=[2, 3])
        assert on.tolist() == [True, True, False, False]

    def test_planned_power_adds_reserved_then_slots_by_index(self):
        power = [0.1, 0.2, 0.3]
        expected = 1e16
        for watts, on in zip(power, (True, False, True)):
            expected += watts if on else 0.7
        assert planned_power(power, [True, False, True], 1e16, 0.7) == expected

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_loop_it_replaced(self, seed):
        rng = np.random.default_rng(seed)
        n_jobs = int(rng.integers(1, 17))
        # Coarse values so equal powers are common, and repeated rows
        # (a mix may hold the same application twice).
        rows = rng.choice(np.arange(1.0, 6.0, 0.5), size=(n_jobs, N_JOINT_CONFIGS))
        twins = rng.integers(0, n_jobs, size=n_jobs // 3)
        rows[twins] = rows[0]
        table = rows * float(rng.choice([1.0, 0.75, 13 / 16]))
        x = rng.integers(0, N_JOINT_CONFIGS, size=n_jobs)
        x[twins] = x[0]
        reserved = float(rng.uniform(5.0, 40.0))
        residual = float(rng.uniform(0.1, 1.0))
        slot_power = table[np.arange(n_jobs), x]
        full = reserved + slot_power.sum()
        # Caps from "gates nothing" down to "gates everything", plus
        # the exact plan totals along the hungriest-first path.
        caps = list(rng.uniform(reserved * 0.9, full * 1.1, size=8))
        on = np.ones(n_jobs, dtype=bool)
        for j in hungriest_first(slot_power):
            on[j] = False
            caps.append(planned_power(slot_power, on, reserved, residual))
        for cap in caps:
            reference = _LoopFallback(residual)._power_fallback(
                [JointConfig.from_index(int(i)) for i in x],
                table, reserved, cap,
            )
            got = power_fallback(slot_power, reserved, cap, residual)
            assert got.tolist() == [cfg is not None for cfg in reference]
