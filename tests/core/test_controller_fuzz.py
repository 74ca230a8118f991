"""Property-based fuzzing of the control loop's safety invariants.

Whatever sequence of loads and budgets arrives, every assignment the
controller emits must be *executable*: within the cache budget, with a
sane LC core count, non-crashing, and with the power fallback engaged
when budgets are hostile.  Hypothesis drives randomized multi-quantum
scenarios against a fast controller configuration.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import build_machine_for_mix
from repro.telemetry.tracer import Tracer
from repro.workloads.mixes import paper_mixes

FAST = ControllerConfig(
    dds=DDSParams(initial_random_points=10, max_iter=6,
                  points_per_iteration=3, n_threads=4),
    seed=1,
)

loads = st.floats(min_value=0.05, max_value=1.4)
cap_fractions = st.floats(min_value=0.3, max_value=1.0)


def fresh_policy(mix_index=0, seed=1):
    machine = build_machine_for_mix(paper_mixes()[mix_index], seed=seed)
    policy = CuttleSysPolicy.for_machine(machine, seed=seed, config=FAST)
    return machine, policy


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=st.lists(st.tuples(loads, cap_fractions),
                         min_size=2, max_size=5))
def test_assignments_always_executable(scenario):
    """Any load/budget sequence yields runnable assignments."""
    machine, policy = fresh_policy()
    reference = machine.reference_max_power()
    for load, fraction in scenario:
        budget = reference * fraction
        assignment = policy.decide(machine, load, budget)
        # Invariant 1: cache budget respected.
        assert assignment.cache_ways_used() <= machine.params.llc_ways + 1e-9
        # Invariant 2: LC core count within bounds.
        assert 1 <= assignment.lc_cores <= machine.params.n_cores - 1
        # Invariant 3: one entry per batch job.
        assert len(assignment.batch_configs) == 16
        # Invariant 4: the machine accepts and executes it.
        measurement = machine.run_slice(assignment, load)
        policy.observe(measurement)
        assert measurement.total_power > 0


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(fraction=st.floats(min_value=0.25, max_value=0.45))
def test_hostile_budgets_trigger_gating(fraction):
    """Severely tight budgets always engage the gating fallback."""
    machine, policy = fresh_policy()
    budget = machine.reference_max_power() * fraction
    assignment = policy.decide(machine, 0.8, budget)
    gated = sum(1 for c in assignment.batch_configs if c is None)
    narrow = sum(
        1 for c in assignment.batch_configs
        if c is not None and c.core.widths() == (2, 2, 2)
    )
    # Under a hostile budget the controller must throttle hard: gate
    # cores and/or park most jobs in the narrowest configuration.
    assert gated + narrow >= 8


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(load_a=loads, load_b=loads)
def test_load_swings_never_crash(load_a, load_b):
    """Alternating load extremes keeps the loop alive and sane."""
    machine, policy = fresh_policy()
    tracer = Tracer()
    policy.controller.attach_tracer(tracer)
    budget = machine.reference_max_power() * 0.7
    for load in (load_a, load_b, load_a, load_b):
        assignment = policy.decide(machine, load, budget)
        measurement = machine.run_slice(assignment, load)
        policy.observe(measurement)
    assert len(tracer.durations_s("search")) == 4


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_determinism_per_seed(seed):
    """Same seed, same scenario => identical decisions."""
    def run():
        machine, policy = fresh_policy(seed=seed % 1000 + 1)
        budget = machine.reference_max_power() * 0.7
        labels = []
        for _ in range(2):
            a = policy.decide(machine, 0.8, budget)
            labels.append(
                tuple(c.label if c else "-" for c in a.batch_configs)
            )
            policy.observe(machine.run_slice(a, 0.8))
        return labels

    assert run() == run()
