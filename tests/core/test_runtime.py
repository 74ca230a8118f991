"""Tests for the CuttleSys policy wrapper and the Policy protocol."""

import pytest

from repro.baselines import CoreGatingPolicy, NoGatingPolicy
from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams
from repro.core.runtime import CuttleSysPolicy, Policy
from repro.experiments.harness import build_machine_for_mix
from repro.telemetry.tracer import Tracer
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

FAST = ControllerConfig(
    dds=DDSParams(initial_random_points=20, max_iter=10,
                  points_per_iteration=4, n_threads=4),
    seed=5,
)


@pytest.fixture()
def machine():
    return build_machine_for_mix(paper_mixes()[0], seed=5)


class TestProtocol:
    def test_cuttlesys_satisfies_policy_protocol(self, machine):
        policy = CuttleSysPolicy.for_machine(machine, seed=5, config=FAST)
        assert isinstance(policy, Policy)

    def test_baselines_satisfy_policy_protocol(self):
        assert isinstance(NoGatingPolicy(), Policy)
        assert isinstance(CoreGatingPolicy(), Policy)


class TestForMachine:
    def test_default_construction(self, machine):
        policy = CuttleSysPolicy.for_machine(machine, seed=5, config=FAST)
        assert policy.controller.n_batch == 16
        assert policy.controller.n_train == 16
        assert policy.name == "cuttlesys"
        assert 0 < policy.overhead_fraction < 0.1

    def test_seed_override(self, machine):
        base = ControllerConfig(seed=0, dds=FAST.dds)
        policy = CuttleSysPolicy.for_machine(machine, seed=9, config=base)
        assert policy.controller.config.seed == 9

    def test_explicit_training_set(self, machine):
        from repro.workloads.batch import batch_profile
        from repro.workloads.latency_critical import make_services

        profiles = [batch_profile("mcf"), batch_profile("lbm")]
        policy = CuttleSysPolicy.for_machine(
            machine,
            seed=5,
            config=FAST,
            train_profiles=profiles,
            train_services=list(make_services(machine.perf).values()),
        )
        assert policy.controller.n_train == 2


class TestRun:
    def test_run_convenience(self, machine):
        policy = CuttleSysPolicy.for_machine(machine, seed=5, config=FAST)
        run = policy.run(
            machine, LoadTrace.constant(0.6), power_cap_fraction=0.8,
            n_slices=3,
        )
        assert run.n_slices == 3
        assert run.total_batch_instructions() > 0

    def test_decide_observe_loop(self, machine):
        policy = CuttleSysPolicy.for_machine(machine, seed=5, config=FAST)
        tracer = Tracer()
        policy.controller.attach_tracer(tracer)
        budget = machine.reference_max_power() * 0.8
        assignment = policy.decide(machine, 0.7, budget)
        measurement = machine.run_slice(assignment, 0.7)
        policy.observe(measurement)  # must not raise
        assert len(tracer.durations_s("search")) == 1

    def test_untraced_run_keeps_no_tracer_state(self, machine):
        """Without a session the controller records into the null
        tracer, so a long-lived untraced controller grows no span list."""
        policy = CuttleSysPolicy.for_machine(machine, seed=5, config=FAST)
        run = policy.run(
            machine, LoadTrace.constant(0.6), power_cap_fraction=0.8,
            n_slices=50,
        )
        assert run.n_slices == 50
        assert policy.controller.tracer.spans == []
        assert policy.controller.tracer.instants == []
