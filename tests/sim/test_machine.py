"""Tests for the timeslice-level machine simulator."""

import numpy as np
import pytest

from repro.sim.coreconfig import CoreConfig, JointConfig
from repro.sim.machine import Assignment, Machine, MachineParams
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.latency_critical import lc_service

WIDE = JointConfig(CoreConfig.widest(), 1.0)
NARROW = JointConfig(CoreConfig.narrowest(), 1.0)


def uniform_assignment(machine, joint=None, lc_cores=16, **kwargs):
    joint = joint if joint is not None else NARROW
    return Assignment(
        lc_cores=lc_cores,
        lc_config=JointConfig(CoreConfig.widest(), 4.0),
        batch_configs=tuple(joint for _ in machine.batch_profiles),
        **kwargs,
    )


class TestMachineParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            MachineParams(n_cores=0)
        with pytest.raises(ValueError):
            MachineParams(timeslice_s=0)
        with pytest.raises(ValueError):
            MachineParams(sample_s=0.2, timeslice_s=0.1)
        with pytest.raises(ValueError):
            MachineParams(phase_persistence=1.0)


class TestAssignment:
    def test_lc_config_required_when_cores(self):
        with pytest.raises(ValueError):
            Assignment(lc_cores=4, lc_config=None, batch_configs=(NARROW,))

    def test_active_batch_indices(self):
        a = Assignment(
            lc_cores=0,
            lc_config=None,
            batch_configs=(NARROW, None, WIDE, None),
        )
        assert a.active_batch_indices == (0, 2)

    def test_cache_ways_pairing(self):
        half = JointConfig(CoreConfig.narrowest(), 0.5)
        two = JointConfig(CoreConfig.narrowest(), 2.0)
        a = Assignment(
            lc_cores=2,
            lc_config=JointConfig(CoreConfig.widest(), 4.0),
            batch_configs=(half, half, half, two),
        )
        # 4 (LC) + ceil(3/2)=2 (halves) + 2 = 8.
        assert a.cache_ways_used() == pytest.approx(8.0)


class TestRunSlice:
    def test_instruction_accounting(self, quiet_machine):
        assignment = uniform_assignment(quiet_machine)
        m = quiet_machine.run_slice(assignment, load=0.5)
        # instructions = BIPS * 1e9 * timeslice.
        expected = m.batch_bips * 1e9 * quiet_machine.params.timeslice_s
        assert np.allclose(m.batch_instructions, expected)
        assert m.total_batch_instructions > 0

    def test_gated_jobs_do_no_work(self, quiet_machine):
        configs = [NARROW] * 16
        configs[3] = None
        configs[7] = None
        a = Assignment(
            lc_cores=16,
            lc_config=JointConfig(CoreConfig.widest(), 4.0),
            batch_configs=tuple(configs),
        )
        m = quiet_machine.run_slice(a, load=0.5)
        assert m.batch_bips[3] == 0.0
        assert m.batch_bips[7] == 0.0
        assert m.batch_instructions[3] == 0.0

    def test_time_multiplexing_on_core_relocation(self, quiet_machine):
        # 17 LC cores leave 15 cores for 16 active jobs.
        a = uniform_assignment(quiet_machine, lc_cores=17)
        m = quiet_machine.run_slice(a, load=0.5)
        full = quiet_machine.true_batch_bips(0, NARROW)
        assert m.batch_bips[0] == pytest.approx(full * 15 / 16, rel=1e-6)

    def test_lc_measurements_present(self, quiet_machine):
        m = quiet_machine.run_slice(uniform_assignment(quiet_machine), 0.8)
        assert m.lc_p99 > 0
        assert m.lc_queries_served > 0
        assert m.lc_instructions > 0
        assert 0 < m.lc_utilization <= 1
        assert m.lc_core_power > 0

    def test_no_lc(self, quiet_machine):
        a = Assignment(
            lc_cores=0,
            lc_config=None,
            batch_configs=tuple(NARROW for _ in range(16)),
        )
        m = quiet_machine.run_slice(a, load=0.0)
        assert m.lc_p99 == 0.0
        assert m.lc_instructions == 0.0

    def test_power_includes_llc_and_lc(self, quiet_machine):
        m = quiet_machine.run_slice(uniform_assignment(quiet_machine), 0.8)
        floor = quiet_machine.power.llc_power() + 16 * m.lc_core_power
        assert m.total_power > floor

    def test_wider_configs_burn_more_power(self, quiet_machine):
        lo = quiet_machine.run_slice(uniform_assignment(quiet_machine), 0.5)
        hi = quiet_machine.run_slice(
            uniform_assignment(quiet_machine, joint=WIDE), 0.5
        )
        assert hi.total_power > lo.total_power

    def test_clock_advances(self, quiet_machine):
        t0 = quiet_machine.time_s
        quiet_machine.run_slice(uniform_assignment(quiet_machine), 0.5)
        assert quiet_machine.time_s == pytest.approx(
            t0 + quiet_machine.params.timeslice_s
        )

    def test_cache_budget_enforced(self, quiet_machine):
        four = JointConfig(CoreConfig.narrowest(), 4.0)
        a = uniform_assignment(quiet_machine, joint=four)  # 16*4+4 > 32
        with pytest.raises(ValueError):
            quiet_machine.run_slice(a, 0.5)

    def test_shared_llc_skips_cache_budget(self, quiet_machine):
        four = JointConfig(CoreConfig.narrowest(), 4.0)
        a = uniform_assignment(quiet_machine, joint=four, shared_llc=True)
        m = quiet_machine.run_slice(a, 0.5)
        assert m.total_batch_instructions > 0

    def test_shared_llc_slower_than_partitioned(self, quiet_machine):
        two = JointConfig(CoreConfig.narrowest(), 1.0)
        part = quiet_machine.run_slice(uniform_assignment(quiet_machine, joint=two), 0.5)
        shared = quiet_machine.run_slice(
            uniform_assignment(quiet_machine, joint=two, shared_llc=True), 0.5
        )
        # 32/17*0.75 ~ 1.41 effective ways with contention penalty vs a
        # dedicated 1.0 way: close, but the point is it runs validly.
        assert shared.total_batch_instructions > 0
        assert part.total_batch_instructions > 0

    def test_wrong_job_count_rejected(self, quiet_machine):
        a = Assignment(
            lc_cores=16,
            lc_config=JointConfig(CoreConfig.widest(), 4.0),
            batch_configs=(NARROW,) * 3,
        )
        with pytest.raises(ValueError):
            quiet_machine.run_slice(a, 0.5)


class TestProfiling:
    def test_sample_shapes(self, small_machine):
        sample = small_machine.profile(load=0.8)
        assert sample.batch_bips_hi.shape == (16,)
        assert sample.batch_bips_lo.shape == (16,)
        assert np.all(sample.batch_bips_hi > sample.batch_bips_lo)
        assert np.all(sample.batch_power_hi > sample.batch_power_lo)
        assert sample.hi_joint_index == WIDE.index
        assert sample.lo_joint_index == NARROW.index

    def test_noise_is_seed_deterministic(self):
        _, test_names = train_test_split()
        profiles = [batch_profile(n) for n in (test_names * 2)[:16]]

        def build():
            return Machine(
                lc_service=lc_service("xapian"),
                batch_profiles=profiles,
                seed=5,
            )

        a = build().profile(0.8)
        b = build().profile(0.8)
        assert np.allclose(a.batch_bips_hi, b.batch_bips_hi)

    def test_noiseless_profile_matches_truth(self, quiet_machine):
        sample = quiet_machine.profile(0.8)
        truth = quiet_machine.true_batch_bips(0, WIDE)
        assert sample.batch_bips_hi[0] == pytest.approx(truth)

    def test_profile_configs_generalises(self, quiet_machine):
        joints = [WIDE, NARROW, JointConfig(CoreConfig(4, 4, 4), 1.0)]
        bips, power, lc_power = quiet_machine.profile_configs(joints, 0.8)
        assert bips.shape == (3, 16)
        assert power.shape == (3, 16)
        assert lc_power.shape == (3,)
        with pytest.raises(ValueError):
            quiet_machine.profile_configs([], 0.8)


class TestPhasesAndReference:
    def test_phases_change_truth_over_time(self, small_machine):
        before = small_machine.true_batch_bips(0, WIDE)
        for _ in range(20):
            small_machine.run_slice(
                uniform_assignment(small_machine), load=0.5
            )
        after = small_machine.true_batch_bips(0, WIDE)
        assert before != after

    def test_quiet_machine_has_stable_truth(self, quiet_machine):
        before = quiet_machine.true_batch_bips(0, WIDE)
        for _ in range(5):
            quiet_machine.run_slice(uniform_assignment(quiet_machine), 0.5)
        assert quiet_machine.true_batch_bips(0, WIDE) == pytest.approx(before)

    def test_reference_max_power_scale(self, small_machine):
        reference = small_machine.reference_max_power()
        # 32 cores at a few watts each plus the LLC.
        assert 60 < reference < 300

    def test_oracle_latency_row_matches_per_config_truth(self, small_machine):
        """The oracle row is ``true_lc_p99`` on every joint config."""
        for load, cores in ((0.3, 16), (0.8, 12), (1.0, 2)):
            row = small_machine.oracle_lc_latency_row(load, cores)
            want = np.array([
                small_machine.true_lc_p99(JointConfig.from_index(i), load, cores)
                for i in range(row.size)
            ])
            assert np.array_equal(row, want)

    def test_describe_mentions_key_parameters(self, small_machine):
        text = small_machine.describe()
        assert "32-core" in text
        assert "32-way" in text
        assert "4.0 GHz" in text


class TestDESLatencyMode:
    def build(self, mode):
        _, test_names = train_test_split()
        profiles = [batch_profile(n) for n in (test_names * 2)[:16]]
        return Machine(
            lc_service=lc_service("xapian"),
            batch_profiles=profiles,
            params=MachineParams(latency_mode=mode),
            seed=9,
        )

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            MachineParams(latency_mode="exact")

    def test_des_p99_close_to_analytical(self):
        analytical = self.build("analytical")
        des = self.build("des")
        a = Assignment(
            lc_cores=16,
            lc_config=JointConfig(CoreConfig.widest(), 4.0),
            batch_configs=tuple(
                JointConfig(CoreConfig.narrowest(), 1.0) for _ in range(16)
            ),
        )
        p99_a = analytical.run_slice(a, 0.8).lc_p99
        p99_d = des.run_slice(a, 0.8).lc_p99
        assert p99_d == pytest.approx(p99_a, rel=0.5)
        assert p99_d > 0

    def test_des_has_sampling_noise(self):
        des = self.build("des")
        a = Assignment(
            lc_cores=16,
            lc_config=JointConfig(CoreConfig.widest(), 4.0),
            batch_configs=tuple(
                JointConfig(CoreConfig.narrowest(), 1.0) for _ in range(16)
            ),
        )
        values = {des.run_slice(a, 0.8).lc_p99 for _ in range(3)}
        assert len(values) == 3  # every slice is a fresh sample

    def test_des_zero_load(self):
        des = self.build("des")
        a = Assignment(
            lc_cores=16,
            lc_config=JointConfig(CoreConfig.widest(), 4.0),
            batch_configs=tuple(
                JointConfig(CoreConfig.narrowest(), 1.0) for _ in range(16)
            ),
        )
        assert des.run_slice(a, 0.0).lc_p99 == 0.0


class TestReconfigurationTransitions:
    def test_first_slice_has_no_transitions(self, quiet_machine):
        m = quiet_machine.run_slice(uniform_assignment(quiet_machine), 0.5)
        assert m.reconfigurations == 0

    def test_stable_assignment_pays_nothing(self, quiet_machine):
        a = uniform_assignment(quiet_machine)
        first = quiet_machine.run_slice(a, 0.5)
        second = quiet_machine.run_slice(a, 0.5)
        assert second.reconfigurations == 0
        assert second.batch_bips[0] == pytest.approx(first.batch_bips[0])

    def test_core_change_counts_and_costs(self, quiet_machine):
        quiet_machine.run_slice(uniform_assignment(quiet_machine), 0.5)
        stable = quiet_machine.run_slice(
            uniform_assignment(quiet_machine), 0.5
        )
        changed = quiet_machine.run_slice(
            uniform_assignment(quiet_machine, joint=WIDE), 0.5
        )
        assert changed.reconfigurations == 16
        # Back to the narrow config: another full transition, and the
        # throughput dips relative to the stable narrow slice.
        back = quiet_machine.run_slice(uniform_assignment(quiet_machine), 0.5)
        assert back.reconfigurations == 16
        factor = 1 - (
            quiet_machine.params.reconfig_transition_s
            / quiet_machine.params.timeslice_s
        )
        assert back.batch_bips[0] == pytest.approx(
            stable.batch_bips[0] * factor, rel=1e-6
        )

    def test_cache_only_change_is_free(self, quiet_machine):
        quiet_machine.run_slice(uniform_assignment(quiet_machine), 0.5)
        half_way = JointConfig(CoreConfig.narrowest(), 0.5)
        m = quiet_machine.run_slice(
            uniform_assignment(quiet_machine, joint=half_way), 0.5
        )
        assert m.reconfigurations == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            MachineParams(reconfig_transition_s=-1.0)
        with pytest.raises(ValueError):
            MachineParams(reconfig_transition_s=0.2, timeslice_s=0.1)
