"""Latency regime builds: one named call per new regime, and a restored
controller builds what the uninterrupted one does.

A regime (service, load bucket, cores) is built through
``repro.core.controller.latency_training_rows``, looked up by that
module-level name on every build.  perfbench (``perfbench/layers.py``)
times and counts builds by wrapping exactly that name, and keys each
build by its positional ``services``, ``loads`` and ``n_cores`` and its
``exclude`` keyword.
"""

import dataclasses

import numpy as np

import repro.core.controller as controller_mod
from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.experiments.multi_service import build_two_service_machine
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

FAST = ControllerConfig(
    dds=DDSParams(initial_random_points=15, max_iter=6,
                  points_per_iteration=3, n_threads=4),
    seed=3,
)

#: (primary, secondary) load per quantum: three buckets each, walked
#: twice, so the second pass revisits regimes the first one built.
LOADS = [(0.3, 0.25), (0.3, 0.25), (0.7, 0.45), (0.7, 0.45),
         (0.5, 0.35), (0.5, 0.35)] * 2


def spy_on_builds(monkeypatch):
    """Every call of the module-level build name, as (args, kwargs)."""
    calls = []
    real = controller_mod.latency_training_rows

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(controller_mod, "latency_training_rows", spy)
    return calls


def step_two_service_controller():
    machine = build_two_service_machine(seed=1)
    controller = CuttleSysPolicy.for_machine(
        machine, seed=3, config=FAST
    ).controller
    budget = machine.reference_max_power() * 0.8
    measurement = None
    for primary, secondary in LOADS:
        sample = machine.profile(
            primary, lc_cores=controller.lc_cores, extra_loads=(secondary,),
            extra_lc_cores=controller.lc_cores_by_service[1:],
        )
        controller.ingest_profiling(sample)
        if measurement is not None:
            controller.ingest_measurement(measurement)
        assignment = controller.decide(
            primary, budget, extra_loads=(secondary,)
        )
        measurement = machine.run_slice(assignment, primary, (secondary,))
    return machine, controller


def test_every_new_regime_is_one_named_call(monkeypatch):
    calls = spy_on_builds(monkeypatch)
    machine, controller = step_two_service_controller()
    regimes = list(controller._latency_matrices)
    # Both services, several buckets and more than one core count.
    assert {service for service, _, _ in regimes} == {0, 1}
    assert len({bucket for _, bucket, _ in regimes}) >= 3
    assert len({cores for _, _, cores in regimes}) >= 2
    # One call per regime, in build order; none for the second pass.
    assert len(calls) == len(regimes)
    for (service, bucket, cores), (args, kwargs) in zip(regimes, calls):
        # The positional layout perfbench's build key reads.
        services, loads, perf, n_cores = args
        assert [s.name for s in services] == [
            s.name for s in controller._train_services
        ]
        assert list(loads) == [bucket]
        assert perf is machine.perf
        assert n_cores == cores
        assert kwargs["exclude"] == (
            machine.lc_services[service].name, bucket
        )
    # A revisit of any built regime calls nothing.
    for service, bucket, cores in regimes:
        controller._latency_matrix(bucket, cores, service)
    assert len(calls) == len(regimes)


def test_restored_controller_builds_the_same_regime_matrices():
    # The load walks four buckets, so regimes are built on both sides
    # of the pause: restore rebuilds the first ones, the resumed run
    # builds the rest.
    trace = LoadTrace.steps([(0.0, 0.9), (0.3, 0.3), (0.6, 0.5),
                             (0.9, 1.0)])
    mix = paper_mixes()[0]
    kwargs = dict(power_cap_fraction=0.7, n_slices=12,
                  max_power_w=reference_power_for_mix(mix, seed=7))

    def policy():
        return CuttleSysPolicy.for_machine(
            build_machine_for_mix(mix, seed=7), seed=7,
            config=dataclasses.replace(FAST, seed=7),
        )

    full = policy()
    run_policy(full.controller.machine, full, trace, **kwargs)
    first = policy()
    paused = run_policy(first.controller.machine, first, trace,
                        stop_after=5, **kwargs)
    resumed = policy()
    run_policy(resumed.controller.machine, resumed, trace,
               resume_state=paused.resume_state, **kwargs)

    want = full.controller._latency_matrices
    got = resumed.controller._latency_matrices
    assert 0 < len(first.controller._latency_matrices) < len(want)
    assert list(got) == list(want)
    for key, matrix in want.items():
        for field in ("values", "mask", "age", "known_rows"):
            assert np.array_equal(
                getattr(got[key], field), getattr(matrix, field)
            ), (key, field)
