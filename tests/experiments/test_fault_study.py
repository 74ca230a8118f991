"""Acceptance tests for the robustness study (ISSUE: fault injection).

The headline claims: under the default fault-scenario suite the
hardened controller finishes every run (zero aborts) with strictly
fewer QoS violations than the unhardened one, and every injected /
detected / recovered fault is visible as a telemetry counter in the
JSONL export.
"""

import json

import pytest

from repro.core.controller import ControllerConfig
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.fault_study import (
    FaultStudyOutcome,
    render_fault_study,
    run_fault_study,
    study_totals,
)
from repro.experiments.harness import (
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.faults import FaultInjector, default_scenarios, scenario_by_name
from repro.telemetry import Telemetry
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


@pytest.fixture(scope="module")
def outcomes():
    return run_fault_study(mix_indices=(0,), n_slices=12, seed=7)


class TestAcceptance:
    def test_full_scenario_grid(self, outcomes):
        scenarios = default_scenarios(7)
        assert len(outcomes) == 2 * len(scenarios)
        assert {o.policy for o in outcomes} == {"hardened", "unhardened"}
        assert {o.scenario for o in outcomes} == {s.name for s in scenarios}

    def test_hardened_never_aborts(self, outcomes):
        for o in outcomes:
            if o.policy == "hardened":
                assert not o.aborted, f"hardened aborted under {o.scenario}"
                assert o.completed_slices == o.n_slices

    def test_hardened_strictly_fewer_qos_violations(self, outcomes):
        totals = study_totals(outcomes)
        assert (
            totals["hardened"]["qos_violations"]
            < totals["unhardened"]["qos_violations"]
        )

    def test_unhardened_aborts_somewhere(self, outcomes):
        # The study only demonstrates something if the baseline breaks.
        assert any(o.aborted for o in outcomes if o.policy == "unhardened")

    def test_faults_injected_and_detected(self, outcomes):
        for o in outcomes:
            assert o.injected > 0, f"no faults fired under {o.scenario}"
            if o.policy == "hardened":
                assert o.detected > 0, (
                    f"hardened controller blind under {o.scenario}"
                )
        totals = study_totals(outcomes)
        assert totals["hardened"]["recovered"] > 0

    def test_render(self, outcomes):
        text = render_fault_study(outcomes)
        assert "hardened" in text and "unhardened" in text
        for o in outcomes:
            assert o.scenario in text
        assert "ABORT" in text  # aborted unhardened runs are flagged


class TestCounterExport:
    def test_fault_counters_visible_in_jsonl(self, tmp_path):
        mix = paper_mixes()[0]
        reference = reference_power_for_mix(mix, seed=7)
        machine = build_machine_for_mix(mix, seed=7)
        policy = CuttleSysPolicy.for_machine(
            machine, seed=7, config=ControllerConfig(seed=7, hardened=True)
        )
        telemetry = Telemetry()
        faults = FaultInjector.from_scenario(
            scenario_by_name("perfect-storm", seed=7), telemetry=telemetry
        )
        run_policy(
            machine, policy, LoadTrace.constant(0.7),
            power_cap_fraction=0.7, n_slices=12, max_power_w=reference,
            telemetry=telemetry, faults=faults,
        )
        path = tmp_path / "faults.jsonl"
        telemetry.write_jsonl(path)
        names = set()
        with open(path) as handle:
            for line in handle:
                record = json.loads(line)
                if record.get("type") == "counter":
                    names.add(record["name"])
        assert any(n.startswith("faults.injected.") for n in names)
        assert any(n.startswith("faults.detected.") for n in names)
        assert any(n.startswith("faults.recovered.") for n in names)


class TestMultiMix:
    """The multi-mix grid: mix-qualified units, one checkpoint."""

    @pytest.fixture(scope="class")
    def scenarios(self):
        return ("sensor-noise",)

    def test_mix_qualified_unit_ids(self, scenarios):
        from repro.experiments.fault_study import fault_study_units

        units = fault_study_units(
            (0, 12), 0.7, 0.7, 6, 7, scenarios,
        )
        ids = [u.unit_id for u in units]
        assert len(ids) == len(set(ids)) == 4
        assert "faults/m0/sensor-noise/hardened" in ids
        assert "faults/m12/sensor-noise/unhardened" in ids

    def test_multi_mix_outcomes_and_checkpoint(self, tmp_path, scenarios):
        path = str(tmp_path / "faults.ckpt")
        outcomes = run_fault_study(
            mix_indices=(0, 12), n_slices=6, seed=7,
            scenarios=scenarios, checkpoint=path,
        )
        assert {o.mix_index for o in outcomes} == {0, 12}
        assert len(outcomes) == 4
        # One checkpoint file snapshots the whole multi-mix sweep.
        resumed = run_fault_study(
            mix_indices=(0, 12), n_slices=6, seed=7,
            scenarios=scenarios, checkpoint=path, resume=True,
        )
        assert resumed == outcomes

    def test_multi_mix_render_adds_mix_column(self, scenarios):
        outcomes = run_fault_study(
            mix_indices=(0, 12), n_slices=6, seed=7, scenarios=scenarios,
        )
        text = render_fault_study(outcomes)
        assert "mix" in text.splitlines()[0]
        assert "m0" in text and "m12" in text

    def test_single_mix_render_has_no_mix_column(self, outcomes):
        text = render_fault_study(outcomes)
        assert "mix" not in text.splitlines()[0]


class TestPartialStats:
    def test_aborted_outcome_counts_unserved_as_violations(self, outcomes):
        for o in outcomes:
            if o.aborted:
                assert o.qos_violations >= o.n_slices - o.completed_slices
                assert o.completed_slices < o.n_slices

    def test_outcome_fields(self, outcomes):
        for o in outcomes:
            assert isinstance(o, FaultStudyOutcome)
            assert 0 <= o.completed_slices <= o.n_slices
            assert o.batch_instructions_b >= 0.0
