"""Tests for the decision-deadline budget and the degradation ladder.

The deadline layer (docs/robustness.md) meters the decision loop in
deterministic virtual time and, on exhaustion, walks full DDS →
reduced-sample DDS → last-known-good → static fair-share.  These tests
pin the meter's arithmetic, the ladder's rung accounting, the auditor's
``deadline_degraded`` attribution, and the zero-rung guarantee at ample
budget.
"""

import numpy as np
import pytest

from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams, DDSSearch
from repro.core.deadline import (
    DecisionBudget,
    dds_search_cost,
    reduced_dds_params,
)
from repro.core.objective import SystemObjective
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.sim.coreconfig import N_JOINT_CONFIGS
from repro.snapshot import SNAPSHOT_VERSION, SnapshotError
from repro.telemetry import Telemetry
from repro.telemetry.tracer import (
    DDS_SEARCH,
    MGK_LATENCY,
    REGIME_BUILD_COST,
    SGD_RECONSTRUCT,
    Tracer,
)
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

#: One full quantum of the default loop costs ~6.5k metered operations;
#: comfortably above that means "never degrade".
AMPLE = 8000
#: Enough for profiling + a reduced search, not the full one.
TIGHT = 2000
#: Not even a reduced search fits: last-good / fair-share territory.
STARVED = 50


def _policy_for(machine, seed=7, budget=None):
    return CuttleSysPolicy.for_machine(
        machine, seed=seed,
        config=ControllerConfig(seed=seed, decision_budget=budget),
    )


def _run(budget, n_slices=4, mix_index=0, telemetry=None, seed=7):
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    machine = build_machine_for_mix(mix, seed=seed)
    policy = _policy_for(machine, seed=seed, budget=budget)
    run = run_policy(
        machine, policy, LoadTrace.constant(0.7),
        power_cap_fraction=0.7, n_slices=n_slices, max_power_w=reference,
        telemetry=telemetry,
    )
    return run, policy


def _counters(telemetry):
    return telemetry.metrics.as_dict()["counters"]


class TestDecisionBudget:
    def test_metering(self):
        budget = DecisionBudget(100)
        budget.begin_quantum()
        budget.charge(30, DDS_SEARCH)
        assert budget.spent == 30 and budget.total_spent == 30
        assert budget.can_afford(70) and not budget.can_afford(71)
        assert budget.remaining() == 70
        budget.begin_quantum()
        assert budget.spent == 0 and budget.total_spent == 30
        assert budget.quanta == 2

    def test_unlimited(self):
        budget = DecisionBudget(None)
        budget.charge(10**9, DDS_SEARCH)
        assert not budget.limited
        assert budget.can_afford(10**12)
        assert budget.remaining() is None

    def test_validation(self):
        with pytest.raises(ValueError):
            DecisionBudget(0)
        with pytest.raises(ValueError):
            DecisionBudget(10).charge(-1, DDS_SEARCH)

    def test_state_round_trip(self):
        budget = DecisionBudget(100)
        budget.begin_quantum()
        budget.charge(42, DDS_SEARCH)
        clone = DecisionBudget(100)
        clone.restore(budget.snapshot())
        assert clone.spent == 42
        assert clone.total_spent == 42
        assert clone.quanta == 1

    def test_phase_attribution_is_additive_only(self):
        budget = DecisionBudget(100)
        budget.begin_quantum()
        budget.charge(30, SGD_RECONSTRUCT)
        budget.charge(20, DDS_SEARCH)
        budget.charge(5, MGK_LATENCY)
        assert budget.spent == 55 and budget.total_spent == 55
        assert budget.spent_by_phase == {
            "sgd.reconstruct": 30, "dds.search": 20, "mgk.latency": 5,
        }
        budget.begin_quantum()
        budget.charge(10, SGD_RECONSTRUCT)
        # Phase tallies are lifetime totals, not per-quantum.
        assert budget.spent_by_phase["sgd.reconstruct"] == 40

    def test_phase_attribution_round_trips_through_state(self):
        budget = DecisionBudget(100)
        budget.begin_quantum()
        budget.charge(7, MGK_LATENCY)
        state = budget.snapshot()
        assert state["spent_by_phase"] == {"mgk.latency": 7}
        clone = DecisionBudget(100)
        clone.restore(state)
        assert clone.spent_by_phase == {"mgk.latency": 7}
        # Version-1 snapshots (and any without the phase tally) are
        # rejected rather than defaulted.
        legacy = DecisionBudget(100)
        with pytest.raises(SnapshotError, match="version"):
            legacy.restore({"spent": 1, "total_spent": 1, "quanta": 1,
                            "version": 1})
        with pytest.raises(SnapshotError, match="spent_by_phase"):
            legacy.restore({"limit": 100, "spent": 1, "total_spent": 1,
                            "quanta": 1, "version": SNAPSHOT_VERSION})
        # A meter from a run under another limit is rejected too.
        with pytest.raises(SnapshotError, match="decision budget"):
            DecisionBudget(50).restore(state)


class TestSearchCost:
    def test_exact_default_cost(self):
        params = DDSParams()
        assert dds_search_cost(params, seeded=False) == (
            params.initial_random_points
            + params.max_iter * params.points_per_iteration
            * params.n_threads
        )
        assert (
            dds_search_cost(params, seeded=True)
            == dds_search_cost(params, seeded=False) + 1
        )

    def test_reduced_params_shrink_and_validate(self):
        full = DDSParams()
        reduced = reduced_dds_params(full)
        assert (
            dds_search_cost(reduced, seeded=True)
            < dds_search_cost(full, seeded=True) / 10
        )
        # Floors keep every field valid even for tiny configurations.
        tiny = reduced_dds_params(
            DDSParams(initial_random_points=2, max_iter=3,
                      points_per_iteration=1, n_threads=1)
        )
        assert tiny.initial_random_points >= 1
        assert tiny.max_iter >= 2
        assert tiny.points_per_iteration >= 1
        assert tiny.n_threads >= 1

    @pytest.mark.parametrize("points, rounds, want", [
        (10, 1, 1), (10, 10, 5), (10, 5, 5), (10, 2, 1), (12, 4, 3),
        (8, 8, 4), (1, 1, 1),
    ])
    def test_reduced_rounds_stay_a_divisor(self, points, rounds, want):
        reduced = reduced_dds_params(
            DDSParams(points_per_iteration=points, rounds_per_iteration=rounds)
        )
        assert reduced.rounds_per_iteration == want
        assert reduced.points_per_iteration % want == 0

    @pytest.mark.parametrize("rounds", [1, 10], ids=["population", "sequential"])
    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("seeded", [False, True], ids=["cold", "seeded"])
    def test_search_spends_exactly_its_price(self, rounds, reduced, seeded):
        params = DDSParams(rounds_per_iteration=rounds)
        if reduced:
            params = reduced_dds_params(params)
        n_dims = 6
        rng = np.random.default_rng(3)
        objective = SystemObjective(
            bips=rng.uniform(0.5, 4.0, (n_dims, N_JOINT_CONFIGS)),
            power=rng.uniform(1.0, 5.0, (n_dims, N_JOINT_CONFIGS)),
            max_power=18.0, max_ways=16.0,
        )
        result = DDSSearch(params).search(
            objective, n_dims=n_dims, n_confs=N_JOINT_CONFIGS, rng=rng,
            initial=np.zeros(n_dims, dtype=int) if seeded else None,
        )
        assert result.evaluations == dds_search_cost(params, seeded)


class TestRegimeBuildCharge:
    """A latency regime is spanned and charged once per controller."""

    def _controller(self):
        machine = build_machine_for_mix(paper_mixes()[0], seed=7)
        controller = _policy_for(machine).controller
        controller.attach_tracer(Tracer())
        return controller

    def test_first_build_is_spanned_and_charged_once(self):
        controller = self._controller()
        budget = controller.budget
        before = budget.total_spent
        matrix = controller._latency_matrix(0.7, 12)
        spans = [s for s in controller.tracer.spans
                 if s.name == "mgk.latency"]
        assert len(spans) == 1
        assert spans[0].category == "controller"
        assert spans[0].args == {
            "kind": "regime",
            "evaluations": (matrix.n_rows - 1) * N_JOINT_CONFIGS,
        }
        assert budget.total_spent - before == REGIME_BUILD_COST
        assert budget.spent_by_phase["mgk.latency"] == REGIME_BUILD_COST
        # A regime already built is neither rebuilt nor charged again.
        assert controller._latency_matrix(0.7, 12) is matrix
        assert budget.total_spent - before == REGIME_BUILD_COST
        assert sum(s.name == "mgk.latency"
                   for s in controller.tracer.spans) == 1
        controller._latency_matrix(0.7, 11)
        assert budget.spent_by_phase["mgk.latency"] == 2 * REGIME_BUILD_COST

    def test_run_charges_every_regime_it_built(self):
        _, policy = _run(AMPLE)
        controller = policy.controller
        assert controller._latency_matrices
        assert controller.budget.spent_by_phase["mgk.latency"] == (
            REGIME_BUILD_COST * len(controller._latency_matrices)
        )
        # Every charge names its phase, so the tallies add up.
        assert sum(controller.budget.spent_by_phase.values()) == (
            controller.budget.total_spent
        )

    def test_restored_regimes_are_not_charged_again(self):
        controller = self._controller()
        controller._latency_matrix(0.7, 12)
        state = controller.snapshot()
        fresh = self._controller()
        fresh.restore(state)
        spent = fresh.budget.total_spent
        fresh._latency_matrix(0.7, 12)
        assert fresh.budget.total_spent == spent
        assert not any(s.name == "mgk.latency" for s in fresh.tracer.spans)

    def test_resumed_run_charges_what_an_uninterrupted_one_does(self):
        # The load walks four buckets, so regimes are built on both
        # sides of the kill.
        trace = LoadTrace.steps([(0.0, 0.9), (0.3, 0.3), (0.6, 0.5),
                                 (0.9, 1.0)])
        mix = paper_mixes()[0]
        kwargs = dict(power_cap_fraction=0.7, n_slices=12,
                      max_power_w=reference_power_for_mix(mix, seed=7))

        def charged(policy):
            return policy.controller.budget.spent_by_phase["mgk.latency"]

        full = _policy_for(build_machine_for_mix(mix, seed=7))
        run_policy(full.controller.machine, full, trace, **kwargs)
        first = _policy_for(build_machine_for_mix(mix, seed=7))
        paused = run_policy(first.controller.machine, first, trace,
                            stop_after=5, **kwargs)
        resumed = _policy_for(build_machine_for_mix(mix, seed=7))
        run_policy(resumed.controller.machine, resumed, trace,
                   resume_state=paused.resume_state, **kwargs)
        assert 0 < charged(first) < charged(full)
        assert charged(resumed) == charged(full)
        assert charged(full) == REGIME_BUILD_COST * len(
            full.controller._latency_matrices
        )


class TestDegradationLadder:
    def test_ample_budget_takes_zero_rungs(self):
        telemetry = Telemetry()
        run, policy = _run(AMPLE, telemetry=telemetry)
        counters = _counters(telemetry)
        assert counters.get("controller.degradation.rungs", 0) == 0
        assert not policy.controller.deadline_degraded_quantum
        assert len(run.measurements) == 4

    def test_tight_budget_takes_reduced_dds(self):
        telemetry = Telemetry()
        run, policy = _run(TIGHT, telemetry=telemetry)
        counters = _counters(telemetry)
        assert counters.get("controller.degradation.reduced_dds", 0) > 0
        # Every quantum still produced a valid assignment.
        assert len(run.measurements) == 4
        for m in run.measurements:
            assert m.assignment is not None
            assert m.assignment.lc_cores >= 1

    def test_starved_budget_still_serves_every_quantum(self):
        telemetry = Telemetry()
        run, policy = _run(STARVED, telemetry=telemetry)
        counters = _counters(telemetry)
        # Cold start has no last-known-good: the ladder bottoms out at
        # static fair-share, and the run still completes.
        assert counters.get("controller.degradation.fair_share", 0) > 0
        assert len(run.measurements) == 4
        for m in run.measurements:
            assert m.assignment is not None

    def test_rung_counter_is_sum_of_rungs(self):
        telemetry = Telemetry()
        _run(TIGHT, telemetry=telemetry)
        counters = _counters(telemetry)
        total = counters.get("controller.degradation.rungs", 0)
        by_rung = sum(
            v for k, v in counters.items()
            if k.startswith("controller.degradation.")
            and k != "controller.degradation.rungs"
        )
        assert total == by_rung > 0

    def test_meter_spend_is_deterministic(self):
        _, policy_a = _run(TIGHT)
        _, policy_b = _run(TIGHT)
        assert (
            policy_a.controller.budget.total_spent
            == policy_b.controller.budget.total_spent
        )


class TestDeadlineAttribution:
    """The auditor's ``deadline_degraded`` QoS-violation cause."""

    @pytest.fixture()
    def auditor(self):
        telemetry = Telemetry()
        return telemetry.enable_accuracy_audit()

    def _measurement(self, p99, cores=4, load=0.5):
        from types import SimpleNamespace

        return SimpleNamespace(
            assignment=SimpleNamespace(lc_cores=cores, extra_lc=()),
            lc_p99=p99,
            lc_load=load,
            extra_lc_p99=(),
            extra_lc_loads=(),
        )

    def _feasible_qos(self, machine, cores=4, load=0.5):
        import numpy as np

        truth = machine.oracle_lc_latency_row(load, cores, 0)
        finite = truth[np.isfinite(truth)]
        assert finite.size
        return float(finite.min()) * 1.5

    def _degraded_policy(self, prediction=None):
        from types import SimpleNamespace

        return SimpleNamespace(
            last_prediction=prediction,
            controller=SimpleNamespace(deadline_degraded_quantum=True),
        )

    def test_degraded_quantum_attributes_deadline(
        self, auditor, quiet_machine
    ):
        qos = self._feasible_qos(quiet_machine)
        auditor.audit_measurement(
            quiet_machine, self._measurement(p99=qos * 2), quantum=0,
            qos_s=qos, policy=self._degraded_policy(),
        )
        counters = auditor.telemetry.metrics.counters
        assert (
            counters["accuracy.qos_attrib.deadline_degraded"].value == 1
        )

    def test_infeasible_wins_over_deadline(self, auditor, quiet_machine):
        # When no configuration could have met QoS, the deadline is
        # not the cause — infeasibility takes precedence.
        auditor.audit_measurement(
            quiet_machine, self._measurement(p99=1.0), quantum=0,
            qos_s=1e-9, policy=self._degraded_policy(),
        )
        counters = auditor.telemetry.metrics.counters
        assert counters["accuracy.qos_attrib.infeasible"].value == 1
        assert (
            "accuracy.qos_attrib.deadline_degraded" not in counters
        )

    def test_kind_is_registered(self):
        from repro.telemetry.accuracy import QOS_ATTRIBUTION_KINDS

        assert "deadline_degraded" in QOS_ATTRIBUTION_KINDS
