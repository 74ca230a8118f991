"""Tests for the CuttleSys Resource Controller."""

import gc
import weakref

import numpy as np
import pytest

from repro.core.controller import (
    LOAD_GRID,
    ControllerConfig,
    ResourceController,
    nearest_load_bucket,
)
from repro.core.dds import DDSParams
from repro.sim.coreconfig import CACHE_ALLOCS, CoreConfig
from repro.sim.machine import Machine, MachineParams
from repro.telemetry.tracer import Tracer
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.latency_critical import lc_service, make_services

FAST_DDS = DDSParams(initial_random_points=20, max_iter=10,
                     points_per_iteration=4, n_threads=4)


def build_controller(machine=None, **config_kwargs):
    if machine is None:
        _, test_names = train_test_split()
        machine = Machine(
            lc_service=lc_service("xapian"),
            batch_profiles=[batch_profile(n) for n in (test_names * 2)[:16]],
            params=MachineParams(),
            seed=3,
        )
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
    return machine, controller


def step(machine, controller, load, budget):
    sample = machine.profile(load, lc_cores=controller.lc_cores)
    controller.ingest_profiling(sample)
    assignment = controller.decide(load, budget)
    measurement = machine.run_slice(assignment, load)
    controller.ingest_measurement(measurement)
    return assignment, measurement


class TestLoadBuckets:
    def test_grid(self):
        assert LOAD_GRID[0] == 0.1
        assert LOAD_GRID[-1] == 1.0
        assert len(LOAD_GRID) == 10

    @pytest.mark.parametrize(
        "load,bucket", [(0.0, 0.1), (0.23, 0.2), (0.78, 0.8), (1.4, 1.0)]
    )
    def test_nearest(self, load, bucket):
        assert nearest_load_bucket(load) == bucket


class TestColdStart:
    def test_first_decision_is_conservative(self):
        machine, controller = build_controller()
        sample = machine.profile(0.8, lc_cores=16)
        controller.ingest_profiling(sample)
        assignment = controller.decide(0.8, machine.reference_max_power())
        assert assignment.lc_config.core == CoreConfig.widest()
        assert assignment.lc_config.cache_ways == CACHE_ALLOCS[-1]
        assert assignment.lc_cores == 16  # no reclamation on cold start

    def test_assignment_respects_cache_budget(self):
        machine, controller = build_controller()
        sample = machine.profile(0.8, lc_cores=16)
        controller.ingest_profiling(sample)
        assignment = controller.decide(0.8, machine.reference_max_power())
        assert assignment.cache_ways_used() <= machine.params.llc_ways + 1e-9


class TestSteadyState:
    def test_lc_config_relaxes_after_observations(self):
        machine, controller = build_controller()
        budget = machine.reference_max_power() * 0.7
        for _ in range(6):
            assignment, _ = step(machine, controller, 0.8, budget)
        # After several quanta, the controller must have moved off the
        # all-wide conservative configuration.
        assert assignment.lc_config.core != CoreConfig.widest()

    def test_qos_maintained_throughout(self):
        machine, controller = build_controller()
        budget = machine.reference_max_power() * 0.6
        qos = machine.lc_service.qos_latency_s
        violations = 0
        for _ in range(8):
            _, measurement = step(machine, controller, 0.8, budget)
            if measurement.lc_p99 > qos:
                violations += 1
        assert violations == 0

    def test_power_tracks_budget(self):
        machine, controller = build_controller()
        budget = machine.reference_max_power() * 0.6
        powers = []
        for _ in range(8):
            _, measurement = step(machine, controller, 0.8, budget)
            powers.append(measurement.total_power)
        # Steady state within a few percent of the budget.
        assert np.median(powers[3:]) <= budget * 1.05

    def test_timings_recorded(self):
        machine, controller = build_controller()
        tracer = Tracer()
        controller.attach_tracer(tracer)
        step(machine, controller, 0.8, machine.reference_max_power())
        for phase in ("sgd", "lc_scan", "search"):
            (duration,) = tracer.durations_s(phase)
            assert duration > 0


class TestCoreRelocation:
    def test_reclaims_core_under_saturation(self):
        machine, controller = build_controller()
        budget = machine.reference_max_power()
        # Warm up at moderate load, then slam to saturation.
        for _ in range(3):
            step(machine, controller, 0.8, budget)
        before = controller.lc_cores
        for _ in range(4):
            step(machine, controller, 1.3, budget)
        assert controller.lc_cores > before

    def test_reclamation_is_one_core_per_quantum(self):
        machine, controller = build_controller()
        budget = machine.reference_max_power()
        for _ in range(3):
            step(machine, controller, 0.8, budget)
        counts = [controller.lc_cores]
        for _ in range(3):
            step(machine, controller, 1.3, budget)
            counts.append(controller.lc_cores)
        steps = [b - a for a, b in zip(counts, counts[1:])]
        assert all(s <= 1 for s in steps)


class TestPowerFallback:
    def test_tiny_budget_gates_batch_jobs(self):
        machine, controller = build_controller()
        sample = machine.profile(0.8, lc_cores=16)
        controller.ingest_profiling(sample)
        assignment = controller.decide(0.8, 40.0)  # draconian cap
        gated = sum(1 for c in assignment.batch_configs if c is None)
        assert gated > 0

    def test_budget_validation(self):
        machine, controller = build_controller()
        with pytest.raises(ValueError):
            controller.decide(0.8, 0.0)


class TestMatrixBookkeeping:
    def test_profiling_fills_two_columns(self):
        machine, controller = build_controller()
        sample = machine.profile(0.8, lc_cores=16)
        controller.ingest_profiling(sample)
        row = controller._batch_row(0)
        assert controller._bips_matrix.observed_count(row) == 2
        assert controller._power_matrix.observed_count(row) == 2

    def test_measurement_adds_steady_state_columns(self):
        machine, controller = build_controller()
        budget = machine.reference_max_power()
        step(machine, controller, 0.8, budget)
        row = controller._batch_row(0)
        # Two profiling columns + at least the visited steady config.
        assert controller._bips_matrix.observed_count(row) >= 3

    def test_latency_observation_lands_in_bucket(self):
        machine, controller = build_controller()
        budget = machine.reference_max_power()
        step(machine, controller, 0.8, budget)
        assert controller._latency_observations(0.8, 16) >= 1
        assert controller._latency_observations(0.3, 16) == 0

    def test_controller_is_freed_without_the_cycle_collector(self):
        # Grids and benchmarks build many controllers; a reference
        # cycle (say, the regime table holding a bound method) would
        # keep each one's matrices alive until a full collection.
        machine, controller = build_controller()
        step(machine, controller, 0.8, machine.reference_max_power())
        assert controller._latency_matrices
        ref = weakref.ref(controller)
        gc.disable()
        try:
            del controller
            assert ref() is None
        finally:
            gc.enable()


class TestGAExplorer:
    def test_ga_variant_runs(self):
        machine, controller = build_controller(explorer="ga")
        budget = machine.reference_max_power() * 0.7
        assignment, _ = step(machine, controller, 0.8, budget)
        assert len(assignment.batch_configs) == 16


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            ControllerConfig(initial_lc_cores=0)
        with pytest.raises(ValueError):
            ControllerConfig(min_lc_cores=0)
        with pytest.raises(ValueError):
            ControllerConfig(min_lc_cores=20, initial_lc_cores=16)
        with pytest.raises(ValueError):
            ControllerConfig(lc_slack_to_yield=0.0)
        with pytest.raises(ValueError):
            ControllerConfig(explorer="simulated-annealing")
