"""Crash-safe pause/resume of the decision loop (docs/robustness.md).

The contract: ``run_policy(stop_after=k)`` runs quanta ``0..k-1`` and
captures the full loop state; feeding that state back via
``resume_state=`` with the same arguments completes the run
byte-identically to an uninterrupted one — under deadline pressure,
job churn, and fault injection alike.
"""

import json

import pytest

from repro.core.controller import ControllerConfig
from repro.core.runtime import CuttleSysPolicy
from repro.baselines import CoreGatingPolicy
from repro.experiments.harness import (
    QuantumStepper,
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.faults import FaultInjector, scenario_by_name
from repro.sim.machine import measurement_state
from repro.snapshot import SnapshotError
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

N_SLICES = 6
KILL_AT = 3


def _canonical(run):
    return json.dumps(
        {
            "measurements": [
                measurement_state(m) for m in run.measurements
            ],
            "loads": list(run.loads),
            "budgets": list(run.budgets),
            "degraded_quanta": run.degraded_quanta,
            "churn_events": [list(e) for e in run.churn_events],
        },
        sort_keys=True,
    )


def _arm(mix_index, seed=7, budget=None, scenario=None):
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    machine = build_machine_for_mix(mix, seed=seed)
    policy = CuttleSysPolicy.for_machine(
        machine, seed=seed,
        config=ControllerConfig(seed=seed, decision_budget=budget),
    )
    faults = None
    if scenario is not None:
        faults = FaultInjector.from_scenario(
            scenario_by_name(scenario, seed=seed)
        )
    return machine, policy, faults, reference


def _run_kwargs(reference, faults=None, **extra):
    kwargs = dict(
        power_cap_fraction=0.7, n_slices=N_SLICES, max_power_w=reference,
        faults=faults,
    )
    kwargs.update(extra)
    return kwargs


class TestResumeByteIdentity:
    @pytest.mark.parametrize("mix_index", [0, 12])
    def test_kill_and_resume_matches_uninterrupted(self, mix_index):
        machine, policy, _, reference = _arm(mix_index)
        full = run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference),
        )

        machine2, policy2, _, _ = _arm(mix_index)
        paused = run_policy(
            machine2, policy2, LoadTrace.constant(0.7),
            **_run_kwargs(reference, stop_after=KILL_AT),
        )
        assert paused.resume_state is not None
        assert len(paused.measurements) == KILL_AT
        # The state is plain JSON: it survives serialisation.
        state = json.loads(json.dumps(paused.resume_state))
        # A killed process resumes into a run rebuilt from scratch.
        machine2, policy2, _, _ = _arm(mix_index)
        resumed = run_policy(
            machine2, policy2, LoadTrace.constant(0.7),
            **_run_kwargs(reference, resume_state=state),
        )
        assert _canonical(resumed) == _canonical(full)

    def test_resume_under_deadline_pressure(self):
        machine, policy, _, reference = _arm(0, budget=2000)
        full = run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference),
        )
        machine2, policy2, _, _ = _arm(0, budget=2000)
        paused = run_policy(
            machine2, policy2, LoadTrace.constant(0.7),
            **_run_kwargs(reference, stop_after=KILL_AT),
        )
        machine2, policy2, _, _ = _arm(0, budget=2000)
        resumed = run_policy(
            machine2, policy2, LoadTrace.constant(0.7),
            **_run_kwargs(reference, resume_state=paused.resume_state),
        )
        assert _canonical(resumed) == _canonical(full)
        # The meter never moves backwards across the crash boundary.
        paused_meter = paused.resume_state["policy"]["controller"]["budget"]
        assert (
            policy2.controller.budget.total_spent
            >= paused_meter["total_spent"]
        )

    def test_resume_under_faults(self):
        machine, policy, faults, reference = _arm(
            0, scenario="sensor-noise"
        )
        full = run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference, faults=faults),
        )
        machine2, policy2, faults2, _ = _arm(0, scenario="sensor-noise")
        paused = run_policy(
            machine2, policy2, LoadTrace.constant(0.7),
            **_run_kwargs(reference, faults=faults2, stop_after=KILL_AT),
        )
        machine2, policy2, faults2, _ = _arm(0, scenario="sensor-noise")
        resumed = run_policy(
            machine2, policy2, LoadTrace.constant(0.7),
            **_run_kwargs(reference, faults=faults2,
                          resume_state=paused.resume_state),
        )
        assert _canonical(resumed) == _canonical(full)
        assert faults.injected == faults2.injected

    def test_resume_under_churn(self):
        train_names, _ = train_test_split()
        pool = [batch_profile(n) for n in train_names]
        churn = dict(churn_period=2, churn_pool=pool, churn_seed=5)
        machine, policy, _, reference = _arm(0)
        full = run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference, **churn),
        )
        assert full.churn_events  # the scenario actually churned
        machine2, policy2, _, _ = _arm(0)
        paused = run_policy(
            machine2, policy2, LoadTrace.constant(0.7),
            **_run_kwargs(reference, stop_after=KILL_AT, **churn),
        )
        machine2, policy2, _, _ = _arm(0)
        resumed = run_policy(
            machine2, policy2, LoadTrace.constant(0.7),
            **_run_kwargs(reference, resume_state=paused.resume_state,
                          **churn),
        )
        assert _canonical(resumed) == _canonical(full)


class TestPauseContract:
    def test_stop_after_past_end_completes_without_state(self):
        machine, policy, _, reference = _arm(0)
        run = run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference, stop_after=N_SLICES),
        )
        assert len(run.measurements) == N_SLICES
        assert run.resume_state is None

    def test_stop_after_validation(self):
        machine, policy, _, reference = _arm(0)
        with pytest.raises(ValueError, match="stop_after"):
            run_policy(
                machine, policy, LoadTrace.constant(0.7),
                **_run_kwargs(reference, stop_after=0),
            )

    def test_snapshotless_policy_rejected(self):
        mix = paper_mixes()[0]
        reference = reference_power_for_mix(mix, seed=7)
        machine = build_machine_for_mix(mix, seed=7)
        with pytest.raises(ValueError, match="snapshot"):
            run_policy(
                machine, CoreGatingPolicy(), LoadTrace.constant(0.7),
                **_run_kwargs(reference, stop_after=2),
            )

    def test_version_gate(self):
        machine, policy, _, reference = _arm(0)
        paused = run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference, stop_after=KILL_AT),
        )
        state = dict(paused.resume_state)
        state["version"] = 99
        with pytest.raises(ValueError, match="version"):
            run_policy(
                machine, policy, LoadTrace.constant(0.7),
                **_run_kwargs(reference, resume_state=state),
            )


class TestSnapshotRoundTrips:
    def test_policy_snapshot_json_round_trip(self):
        machine, policy, _, reference = _arm(0)
        run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference),
        )
        snap = policy.snapshot()
        restored = json.loads(json.dumps(snap))
        machine2, policy2, _, _ = _arm(0)
        policy2.restore(restored)
        assert json.dumps(policy2.snapshot(), sort_keys=True) == (
            json.dumps(snap, sort_keys=True)
        )

    def test_machine_snapshot_round_trip(self):
        machine, policy, _, reference = _arm(0)
        run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference),
        )
        snap = machine.snapshot()
        machine2, _, _, _ = _arm(0)
        machine2.restore(json.loads(json.dumps(snap)))
        assert json.dumps(machine2.snapshot(), sort_keys=True) == (
            json.dumps(snap, sort_keys=True)
        )

    def test_injector_snapshot_round_trip(self):
        machine, policy, faults, reference = _arm(
            0, scenario="perfect-storm"
        )
        run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference, faults=faults),
        )
        snap = faults.snapshot()
        _, _, faults2, _ = _arm(0, scenario="perfect-storm")
        faults2.restore(json.loads(json.dumps(snap)))
        assert json.dumps(faults2.snapshot(), sort_keys=True) == (
            json.dumps(snap, sort_keys=True)
        )

    def test_injector_presence_gate_both_directions(self):
        """A fault-free snapshot must not restore into a faulted run,
        nor the reverse.  The run origin catches both first in
        practice, so the snapshot borrows the target's origin here to
        reach the injector check itself."""
        steppers = {}
        for scenario in (None, "perfect-storm"):
            machine, policy, faults, reference = _arm(0, scenario=scenario)
            steppers[scenario] = QuantumStepper(
                machine, policy, LoadTrace.constant(0.7),
                **_run_kwargs(reference, faults=faults),
            )
        for source, target in ((None, "perfect-storm"),
                               ("perfect-storm", None)):
            state = steppers[source].snapshot()
            state["origin"] = steppers[target].origin
            with pytest.raises(ValueError, match="faults"):
                steppers[target].restore(state)

    def test_fault_free_pause_rejected_by_faulted_resume(self):
        machine, policy, _, reference = _arm(0)
        paused = run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference, stop_after=KILL_AT),
        )
        machine, policy, faults, _ = _arm(0, scenario="perfect-storm")
        with pytest.raises(SnapshotError):
            run_policy(
                machine, policy, LoadTrace.constant(0.7),
                **_run_kwargs(reference, faults=faults,
                              resume_state=paused.resume_state),
            )
        assert faults.total_injected() == 0

    def test_injector_spec_count_gate(self):
        _, _, faults, _ = _arm(0, scenario="perfect-storm")
        _, _, other, _ = _arm(0, scenario="stuck-sensor")
        with pytest.raises(ValueError, match="spec count"):
            other.restore(faults.snapshot())


class TestOriginGate:
    """A snapshot resumes only into a run built from the same
    arguments; the fresh-state digest it carries says which run."""

    @pytest.fixture(scope="class")
    def paused(self):
        machine, policy, _, reference = _arm(0, seed=7)
        run = run_policy(
            machine, policy, LoadTrace.constant(0.7),
            **_run_kwargs(reference, stop_after=KILL_AT),
        )
        return json.loads(json.dumps(run.resume_state))

    @pytest.mark.parametrize("mix_index,seed", [(1, 7), (0, 8)])
    def test_other_arguments_rejected(self, paused, mix_index, seed):
        machine, policy, _, reference = _arm(mix_index, seed=seed)
        with pytest.raises(SnapshotError, match="run origin mismatch"):
            run_policy(
                machine, policy, LoadTrace.constant(0.7),
                **_run_kwargs(reference, resume_state=paused),
            )

    def test_other_load_rejected(self, paused):
        machine, policy, _, reference = _arm(0, seed=7)
        with pytest.raises(SnapshotError, match="origin"):
            run_policy(
                machine, policy, LoadTrace.constant(0.5),
                **_run_kwargs(reference, resume_state=paused),
            )
