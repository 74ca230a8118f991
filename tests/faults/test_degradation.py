"""Tests for the controller's graceful-degradation paths.

Covers observation sanitisation, the safe-mode state machine,
reconfiguration quarantine, the last-known-good cache, and the
harness's per-quantum exception containment (docs/robustness.md).
"""

import math

import numpy as np
import pytest

from repro.core.controller import ControllerConfig, ResourceController
from repro.core.dds import DDSParams
from repro.experiments.harness import run_policy
from repro.sim.coreconfig import CACHE_ALLOCS, CoreConfig
from repro.sim.machine import Machine, MachineParams
from repro.telemetry import Telemetry
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.latency_critical import lc_service, make_services
from repro.workloads.loadgen import LoadTrace

FAST_DDS = DDSParams(initial_random_points=20, max_iter=10,
                     points_per_iteration=4, n_threads=4)


def build_controller(machine, telemetry=None, **config_kwargs):
    train_names, _ = train_test_split()
    config = ControllerConfig(
        dds=config_kwargs.pop("dds", FAST_DDS), **config_kwargs
    )
    controller = ResourceController(
        machine,
        [batch_profile(n) for n in train_names],
        list(make_services(machine.perf).values()),
        config,
    )
    if telemetry is not None:
        controller.attach_telemetry(telemetry)
    return controller


def counters(telemetry):
    return telemetry.metrics.as_dict()["counters"]


class TestSanitisation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_values_rejected(self, small_machine, bad):
        telemetry = Telemetry()
        controller = build_controller(small_machine, telemetry)
        matrix = controller._bips_matrix
        assert controller._observe(matrix, matrix.n_rows - 1, 0, bad) is False
        assert counters(telemetry)["faults.detected.bad_sample"] == 1

    def test_outlier_rejected_plausible_accepted(self, small_machine):
        controller = build_controller(small_machine)
        matrix = controller._bips_matrix
        col = 0
        known = matrix.values[matrix.known_rows, col]
        med = float(np.median(known))
        row = matrix.n_rows - 1
        assert controller._observe(matrix, row, col, med) is True
        assert controller._observe(matrix, row, col, med * 1000.0) is False

    def test_shared_stats_memo_matches_fresh_checks(self, small_machine):
        # One ingest call shares a (matrix, column) memo across its
        # samples; it must give every sample the verdict a fresh
        # population check gives, right at the edges of the band.
        controller = build_controller(small_machine)
        threshold = controller.config.outlier_mad_threshold
        stats = {}
        for matrix in (controller._bips_matrix, controller._power_matrix):
            for col in (0, 17, 53, 107):
                med, scale = controller._population_stats(matrix, col)
                for value in (
                    med + threshold * scale * 0.999,
                    med + threshold * scale * 1.001,
                    max(0.0, med - threshold * scale * 0.999),
                ):
                    assert controller._sample_ok(
                        matrix, col, value, stats=stats
                    ) == controller._sample_ok(matrix, col, value)
        assert len(stats) == 8

    def test_noise_free_machine_never_flags_stuck_sensor(self, quiet_machine):
        # With profiling_noise=0, bit-identical repeats are honest;
        # detection must stay off (regression: safe mode tripping on
        # noise-free telemetry-test machines).
        controller = build_controller(quiet_machine)
        for _ in range(4):
            sample = quiet_machine.profile(0.5, lc_cores=controller.lc_cores)
            assert controller._detect_stuck_sensor(sample) is False
            controller.ingest_profiling(sample)
        assert controller._rejections_this_quantum == 0

    def test_saturated_latency_not_flagged_as_outlier(self, small_machine):
        # A saturated service posts p99s far beyond the historical
        # median; the MAD test must not hide those QoS violations
        # (regression: safe mode falsely tripping under load > 1.0).
        controller = build_controller(small_machine)
        matrix = controller._latency_matrix(1.0, small_machine.params.n_cores)
        col = 0
        known = matrix.values[matrix.known_rows, col]
        huge = float(np.median(known)) * 50.0
        row = matrix.n_rows - 1
        assert controller._observe(matrix, row, col, huge,
                                   mad_check=False) is True
        assert controller._rejections_this_quantum == 0
        # Non-finite latency is still rejected even without the MAD test.
        assert controller._observe(matrix, row, col, math.nan,
                                   mad_check=False) is False

    def test_unhardened_matrix_raises_on_nan(self, small_machine):
        controller = build_controller(small_machine, hardened=False)
        matrix = controller._bips_matrix
        with pytest.raises(ValueError):
            controller._observe(matrix, matrix.n_rows - 1, 0, math.nan)

    def test_nan_profiling_sample_survives_ingest(self, small_machine):
        controller = build_controller(small_machine)
        sample = small_machine.profile(0.7, lc_cores=controller.lc_cores)
        bips = sample.batch_bips_hi.copy()
        bips[0] = math.nan
        from dataclasses import replace

        controller.ingest_profiling(replace(sample, batch_bips_hi=bips))

    def test_stuck_sensor_detected(self, small_machine):
        telemetry = Telemetry()
        controller = build_controller(small_machine, telemetry)
        sample = small_machine.profile(0.7, lc_cores=controller.lc_cores)
        controller.ingest_profiling(sample)
        controller.ingest_profiling(sample)  # bit-identical repeat
        assert counters(telemetry)["faults.detected.stuck_sensor"] == 1


class TestSafeMode:
    def test_enters_after_bad_quanta_and_exits_after_hold(self, small_machine):
        telemetry = Telemetry()
        controller = build_controller(
            small_machine, telemetry, safe_mode_after=2, safe_mode_hold=2
        )
        for _ in range(2):
            controller._rejections_this_quantum = 1
            controller._update_safe_mode()
        assert controller.in_safe_mode
        assert counters(telemetry)["faults.detected.safe_mode_entered"] == 1
        # Clean quanta count down the hold, then safe mode exits.
        assert controller._update_safe_mode() is True
        assert controller._update_safe_mode() is False
        assert not controller.in_safe_mode
        assert counters(telemetry)["faults.recovered.safe_mode_exited"] == 1

    def test_bad_quantum_rearms_hold(self, small_machine):
        controller = build_controller(
            small_machine, safe_mode_after=1, safe_mode_hold=3
        )
        controller._rejections_this_quantum = 1
        controller._update_safe_mode()
        assert controller.in_safe_mode
        controller._update_safe_mode()  # one clean quantum
        controller._rejections_this_quantum = 1
        controller._update_safe_mode()  # bad again: hold re-arms
        assert controller._safe_mode_remaining == 3

    def test_safe_mode_assignment_runs_on_machine(self, small_machine):
        controller = build_controller(
            small_machine, safe_mode_after=1, safe_mode_hold=2
        )
        controller._rejections_this_quantum = 1
        controller._update_safe_mode()
        assignment = controller._conservative_assignment(CACHE_ALLOCS[0])
        assert assignment.lc_config.core == CoreConfig.widest()
        for cfg in assignment.batch_configs:
            if cfg is not None:
                assert cfg.core == CoreConfig.narrowest()
                assert cfg.cache_ways == CACHE_ALLOCS[0]
        # Must be executable as-is (cache budget etc.).
        small_machine.run_slice(assignment, 0.7)
        assert controller.last_prediction is None

    def test_decide_serves_safe_mode(self, small_machine):
        controller = build_controller(
            small_machine, safe_mode_after=1, safe_mode_hold=4
        )
        sample = small_machine.profile(0.7, lc_cores=controller.lc_cores)
        controller.ingest_profiling(sample)
        controller._rejections_this_quantum = 99
        assignment = controller.decide(
            0.7, small_machine.reference_max_power()
        )
        assert controller.in_safe_mode
        active = [c for c in assignment.batch_configs if c is not None]
        assert all(c.core == CoreConfig.narrowest() for c in active)


#: (llc ways, batch jobs, LC cores per service) -> the safe-mode and
#: fair-share postures, each as (lc cores, lc config index, batch config
#: indices, [[extra cores, extra config index], ...]); recorded from the
#: two separate posture methods the conservative one replaced.
CONSERVATIVE_POSTURES = {
    (32, 4, (0,)): (
        (0, None, [0] * 4, []),
        (0, None, [3] * 4, []),
    ),
    (32, 4, (6,)): (
        (6, 107, [0] * 4, []),
        (6, 107, [3] * 4, []),
    ),
    (32, 4, (0, 4)): (
        (0, None, [0] * 4, [[4, 107]]),
        (0, None, [3] * 4, [[4, 107]]),
    ),
    (32, 4, (8, 4)): (
        (8, 107, [0] * 4, [[4, 107]]),
        (8, 107, [3] * 4, [[4, 107]]),
    ),
    (32, 16, (0,)): (
        (0, None, [0] * 16, []),
        (0, None, [2] * 16, []),
    ),
    (32, 16, (6,)): (
        (6, 107, [0] * 16, []),
        (6, 107, [1] * 16, []),
    ),
    (32, 16, (0, 4)): (
        (0, None, [0] * 16, [[4, 107]]),
        (0, None, [1] * 16, [[4, 107]]),
    ),
    (32, 16, (8, 4)): (
        (8, 107, [0] * 16, [[4, 107]]),
        (8, 107, [1] * 16, [[4, 107]]),
    ),
    (4, 4, (0,)): (
        (0, None, [0] * 4, []),
        (0, None, [1] * 4, []),
    ),
    (4, 4, (6,)): (
        (6, 107, [None] * 4, []),
        (6, 107, [None] * 4, []),
    ),
    (4, 4, (0, 4)): (
        (0, None, [None] * 4, [[4, 107]]),
        (0, None, [None] * 4, [[4, 107]]),
    ),
    (4, 4, (8, 4)): (
        (8, 107, [None] * 4, [[4, 107]]),
        (8, 107, [None] * 4, [[4, 107]]),
    ),
    (4, 16, (0,)): (
        (0, None, [0] * 8 + [None] * 8, []),
        (0, None, [0] * 8 + [None] * 8, []),
    ),
    (4, 16, (6,)): (
        (6, 107, [None] * 16, []),
        (6, 107, [None] * 16, []),
    ),
    (4, 16, (0, 4)): (
        (0, None, [None] * 16, [[4, 107]]),
        (0, None, [None] * 16, [[4, 107]]),
    ),
    (4, 16, (8, 4)): (
        (8, 107, [None] * 16, [[4, 107]]),
        (8, 107, [None] * 16, [[4, 107]]),
    ),
}


def _compact(assignment):
    return (
        assignment.lc_cores,
        None if assignment.lc_config is None else assignment.lc_config.index,
        [None if c is None else c.index for c in assignment.batch_configs],
        [[a.cores, a.config.index] for a in assignment.extra_lc],
    )


class TestConservativeAssignment:
    @pytest.mark.parametrize("case", sorted(CONSERVATIVE_POSTURES))
    def test_postures_match_recorded(self, case):
        llc_ways, n_batch, lc_cores = case
        _, test_names = train_test_split()
        machine = Machine(
            lc_service=lc_service("xapian"),
            batch_profiles=[
                batch_profile(n) for n in (test_names * 2)[:n_batch]
            ],
            params=MachineParams(llc_ways=llc_ways),
            seed=11,
            extra_services=[lc_service("moses")] * (len(lc_cores) - 1),
        )
        controller = build_controller(machine)
        controller.lc_cores_by_service = list(lc_cores)
        safe, fair = CONSERVATIVE_POSTURES[case]
        assert _compact(
            controller._conservative_assignment(CACHE_ALLOCS[0])
        ) == safe
        assert _compact(controller._conservative_assignment(None)) == fair
        # The posture itself takes no degradation rung; rung 3 records
        # its own before asking for the fair share.
        assert not controller.deadline_degraded_quantum
        assert controller._rungs_this_quantum == []


class TestQuarantine:
    def _fail_reconfig_once(self, machine, controller):
        requested = machine.run_slice  # noqa: F841 (readability)
        # Narrowest batch cores, the minimum cache share.
        wide = controller._conservative_assignment(CACHE_ALLOCS[0])
        from dataclasses import replace

        from repro.sim.coreconfig import JointConfig

        asked = replace(
            wide,
            batch_configs=tuple(
                JointConfig(CoreConfig.widest(), c.cache_ways)
                if c is not None else None
                for c in wide.batch_configs
            ),
        )
        controller._last_assignment = asked
        measurement = machine.run_slice(wide, 0.7)
        controller.ingest_measurement(measurement)

    def test_repeat_failures_quarantine_then_release(self, small_machine):
        telemetry = Telemetry()
        controller = build_controller(
            small_machine, telemetry, quarantine_after=2, quarantine_quanta=2
        )
        for _ in range(2):
            self._fail_reconfig_once(small_machine, controller)
        assert (controller._quarantine > 0).any()
        cnt = counters(telemetry)
        assert cnt["faults.detected.reconfig_failed"] > 0
        assert cnt["faults.detected.core_quarantined"] > 0
        controller._tick_quarantine()
        controller._tick_quarantine()
        assert (controller._quarantine == 0).all()
        assert counters(telemetry)[
            "faults.recovered.quarantine_released"
        ] > 0
        assert (controller._reconfig_fail_streak == 0).all()

    def test_single_failure_no_quarantine(self, small_machine):
        controller = build_controller(small_machine, quarantine_after=3)
        self._fail_reconfig_once(small_machine, controller)
        assert (controller._quarantine == 0).all()


class TestLastKnownGood:
    def test_clean_measurement_refreshes_cache(self, small_machine):
        controller = build_controller(small_machine)
        assert controller.last_good_assignment is None
        assignment = controller._conservative_assignment(CACHE_ALLOCS[0])
        measurement = small_machine.run_slice(assignment, 0.5)
        controller.ingest_measurement(measurement)
        assert controller.last_good_assignment == measurement.assignment

    def test_dirty_measurement_does_not(self, small_machine):
        from dataclasses import replace

        controller = build_controller(small_machine)
        assignment = controller._conservative_assignment(CACHE_ALLOCS[0])
        measurement = small_machine.run_slice(assignment, 0.5)
        dirty = replace(measurement, lc_p99=math.nan)
        controller.ingest_measurement(dirty)
        assert controller.last_good_assignment is None


class _ExplodingPolicy:
    """Raises from decide() every quantum (worst-case policy)."""

    name = "exploding"
    overhead_fraction = 0.0

    def decide(self, machine, load, max_power):
        raise RuntimeError("boom")

    def observe(self, measurement):
        pass


class TestHarnessDegradation:
    def test_degrade_mode_completes_run(self, small_machine):
        telemetry = Telemetry()
        run = run_policy(
            small_machine, _ExplodingPolicy(), LoadTrace.constant(0.5),
            power_cap_fraction=0.8, n_slices=4, telemetry=telemetry,
        )
        assert run.n_slices == 4
        assert run.degraded_quanta == 4
        cnt = counters(telemetry)
        assert cnt["harness.degraded_quanta"] == 4
        assert cnt["faults.recovered.degraded_quantum"] == 4
        # Fallback posture serves the LC service on every slice.
        for m in run.measurements:
            assert m.assignment.lc_cores > 0

    def test_raise_mode_propagates_with_partial_run(self, small_machine):
        with pytest.raises(RuntimeError) as excinfo:
            run_policy(
                small_machine, _ExplodingPolicy(), LoadTrace.constant(0.5),
                power_cap_fraction=0.8, n_slices=4,
                on_policy_error="raise",
            )
        partial = excinfo.value.partial_run
        assert partial.n_slices == 0

    def test_invalid_mode_rejected(self, small_machine):
        with pytest.raises(ValueError):
            run_policy(
                small_machine, _ExplodingPolicy(), LoadTrace.constant(0.5),
                power_cap_fraction=0.8, n_slices=1,
                on_policy_error="explode",
            )


class TestSafeModeAlwaysExits:
    """Satellite invariant: safe mode is a mode, not a terminal state.

    A randomized-seed sweep (seeds drawn from a fixed master stream so
    the test replays) drives the hardened controller into safe mode
    with a high-rate sensor-fault window, then grants fault-free quanta
    and requires every entered safe mode to exit — the same invariant
    the chaos harness soaks at scale (docs/robustness.md).
    """

    #: Deterministically randomized: same sweep every run, but the
    #: seeds themselves are arbitrary draws, not hand-picked values.
    SEEDS = tuple(
        int(s)
        for s in np.random.default_rng(20260808).integers(1, 10_000, 6)
    )

    #: A fault window aggressive enough to trip the entry streak on
    #: most seeds; it closes at quantum 6 so recovery is reachable.
    SPEC = (
        "drop_sample:rate=0.8,start=1,end=6;"
        "outlier_sample:rate=0.5,magnitude=50,start=1,end=6"
    )

    def _soak(self, machine, seed):
        from repro.core.runtime import CuttleSysPolicy
        from repro.faults import FaultInjector, parse_fault_spec

        telemetry = Telemetry()
        policy = CuttleSysPolicy.for_machine(
            machine, seed=seed,
            config=ControllerConfig(dds=FAST_DDS, seed=seed),
        )
        faults = FaultInjector(
            parse_fault_spec(self.SPEC), seed=seed, telemetry=telemetry
        )
        run_policy(
            machine, policy, LoadTrace.constant(0.6),
            power_cap_fraction=0.8, n_slices=8, telemetry=telemetry,
            faults=faults,
        )
        entered = counters(telemetry).get(
            "faults.detected.safe_mode_entered", 0
        )
        if policy.controller.in_safe_mode:
            # Fault-free quanta: the hold streak must drain.
            run_policy(
                machine, policy, LoadTrace.constant(0.6),
                power_cap_fraction=0.8, n_slices=8, telemetry=telemetry,
            )
        exited = counters(telemetry).get(
            "faults.recovered.safe_mode_exited", 0
        )
        return entered, exited, policy.controller.in_safe_mode

    def test_every_entered_safe_mode_exits(self):
        from repro.sim.machine import Machine, MachineParams
        from repro.workloads.batch import batch_profile, train_test_split
        from repro.workloads.latency_critical import lc_service

        _, test_names = train_test_split()
        profiles = [batch_profile(n) for n in (test_names * 2)[:16]]
        total_entries = 0
        for seed in self.SEEDS:
            machine = Machine(
                lc_service=lc_service("xapian"),
                batch_profiles=profiles,
                params=MachineParams(),
                seed=seed,
            )
            entered, exited, still_in = self._soak(machine, seed)
            total_entries += entered
            assert not still_in, (
                f"seed {seed}: safe mode never exited under fault-free "
                f"quanta ({entered} entries, {exited} exits)"
            )
            assert exited == entered, (
                f"seed {seed}: {entered} entries but {exited} exits"
            )
        # The sweep only demonstrates the invariant if it actually
        # entered safe mode somewhere.
        assert total_entries > 0
