"""Tests for the decision-provenance flight recorder.

The recorder must capture the full causal chain of each quantum —
reconstruction diagnostics, the summarised candidate set, ladder and
budget readings, safety state — deterministically (virtual-time
quantities only) and bounded (top-K candidates, capped record count),
and the records must survive the JSONL round trip and render as the
``repro explain`` report.
"""

import io

import numpy as np
import pytest

from repro.core.objective import SystemObjective
from repro.core.runtime import CuttleSysPolicy
from repro.core.controller import ControllerConfig
from repro.experiments.harness import build_machine_for_mix, run_policy
from repro.telemetry import Telemetry, read_jsonl, render_prometheus, write_jsonl
from repro.telemetry.provenance import (
    ProvenanceRecorder,
    candidate_provenance,
    classify_candidates,
    provenance_key,
    provenance_records_from_jsonl,
    render_explain,
)
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


def _run(n_slices=3, budget=None, seed=7, telemetry=None):
    machine = build_machine_for_mix(paper_mixes()[0], seed=seed)
    policy = CuttleSysPolicy.for_machine(
        machine, seed=seed,
        config=ControllerConfig(seed=seed, decision_budget=budget),
    )
    run = run_policy(
        machine, policy, LoadTrace.constant(0.8),
        power_cap_fraction=0.7, n_slices=n_slices, telemetry=telemetry,
    )
    return run, policy


class TestRecorder:
    def test_bound_drops_are_counted_never_silent(self):
        recorder = ProvenanceRecorder(max_records=2)
        assert recorder.record({"quantum": 0})
        assert recorder.record({"quantum": 1})
        assert not recorder.record({"quantum": 2})
        assert recorder.dropped == 1
        assert len(recorder.records) == 2

    def test_for_quantum_and_clear(self):
        recorder = ProvenanceRecorder()
        recorder.begin_quantum(4)
        assert recorder.quantum == 4
        recorder.record({"quantum": 4, "mode": "normal"})
        assert recorder.for_quantum(4)["mode"] == "normal"
        assert recorder.for_quantum(5) is None
        recorder.clear()
        assert recorder.records == [] and recorder.quantum is None

    def test_validation(self):
        with pytest.raises(ValueError):
            ProvenanceRecorder(top_k=0)
        with pytest.raises(ValueError):
            ProvenanceRecorder(max_records=0)


class TestClassifyCandidates:
    def _objective(self):
        rng = np.random.default_rng(3)
        n_jobs, n_confs = 4, 6
        return SystemObjective(
            bips=rng.uniform(0.5, 2.0, (n_jobs, n_confs)),
            power=rng.uniform(2.0, 9.0, (n_jobs, n_confs)),
            max_power=60.0,
            max_ways=10.0,
            reserved_power=5.0,
            reserved_ways=2.0,
            ways_by_config=np.array([0.5, 1.0, 2.0, 4.0, 0.5, 3.0]),
        )

    def test_matches_objective_arithmetic(self):
        objective = self._objective()
        rng = np.random.default_rng(11)
        xs = rng.integers(0, 6, size=(32, 4))
        power, ways, over_power, over_ways = classify_candidates(
            objective, xs
        )
        for i, x in enumerate(xs):
            assert power[i] == pytest.approx(objective.total_power(x))
            assert ways[i] == pytest.approx(objective.total_ways(x))
            feasible = objective.is_feasible(x)
            assert bool(~(over_power[i] | over_ways[i])) == feasible

    def test_summary_is_bounded_and_deterministic(self):
        objective = self._objective()
        rng = np.random.default_rng(5)
        explored = [
            (rng.integers(0, 6, size=4), float(v))
            for v in rng.uniform(0.0, 3.0, 20)
        ]
        first = candidate_provenance(objective, explored, top_k=5)
        second = candidate_provenance(objective, explored, top_k=5)
        assert first == second
        assert len(first["top_candidates"]) == 5
        values = [c["objective"] for c in first["top_candidates"]]
        assert values == sorted(values, reverse=True)
        # Aggregate counts cover the whole explored set, not just top-K.
        rej = first["rejections"]
        assert rej["feasible"] + max(
            rej["power_over_cap"], rej["cache_over_ways"]
        ) >= rej["feasible"]
        assert rej["feasible"] <= len(explored)
        for cand in first["top_candidates"]:
            assert cand["reason"] in (
                "feasible", "power_over_cap", "cache_over_ways",
                "power_over_cap+cache_over_ways",
            )
            assert cand["feasible"] == (cand["reason"] == "feasible")

    def test_empty_explored(self):
        summary = candidate_provenance(self._objective(), [], top_k=5)
        assert summary["top_candidates"] == []
        assert summary["rejections"]["feasible"] == 0


class TestRunIntegration:
    def test_one_record_per_quantum(self):
        telemetry = Telemetry()
        _run(n_slices=3, telemetry=telemetry)
        recorder = telemetry.provenance
        assert [r["quantum"] for r in recorder.records] == [0, 1, 2]
        assert recorder.dropped == 0
        counters = telemetry.metrics.as_dict()["counters"]
        assert counters["provenance.records"] == 3
        assert "provenance.dropped" not in counters
        for record in recorder.records:
            assert record["type"] == "provenance"
            assert record["mode"] == "normal"
            assert record["search"]["searcher"] == "dds"
            assert record["search"]["top_candidates"]
            assert record["budget"]["limit"] is None
            assert record["reconstruction"]["bips"]["iterations"] > 0

    def test_budgeted_run_records_ladder_and_prices(self):
        telemetry = Telemetry()
        _run(n_slices=2, budget=2000, telemetry=telemetry)
        record = telemetry.provenance.records[0]
        assert record["mode"] == "reduced_dds"
        assert record["rungs"] == ["reduced_dds"]
        assert record["budget"]["limit"] == 2000
        assert record["budget"]["full_search_cost"] > 2000
        assert record["budget"]["reduced_search_cost"] < 2000
        assert record["search"]["searcher"] == "reduced_dds"

    def test_records_are_json_and_deterministic(self):
        keys = []
        for _ in range(2):
            telemetry = Telemetry()
            _run(n_slices=2, telemetry=telemetry)
            keys.append([
                provenance_key(r) for r in telemetry.provenance.records
            ])
        assert keys[0] == keys[1]

    def test_jsonl_round_trip(self):
        telemetry = Telemetry()
        _run(n_slices=2, telemetry=telemetry)
        buffer = io.StringIO()
        write_jsonl(telemetry, buffer)
        buffer.seek(0)
        records = provenance_records_from_jsonl(read_jsonl(buffer))
        assert [r["quantum"] for r in records] == [0, 1]
        assert [provenance_key(r) for r in records] == [
            provenance_key(r) for r in telemetry.provenance.records
        ]


#: Decision budget and warm-up decisions that put the next decide()
#: in each mode.  A budget of 50 leaves less than the reduced search's
#: 91 evaluations after the reconstructions.  Safe mode follows one
#: rejected sample, since the controllers here enter it after a single
#: bad quantum.
MODE_SETUPS = {
    "normal": (None, 0),
    "reduced_dds": (2000, 0),
    "fair_share": (50, 0),  # cold start: nothing to re-serve yet
    "last_good": (50, 1),   # re-serves the fair share decided first
    "safe_mode": (None, 0),
}
STAMP = {"type", "quantum", "mode", "rungs", "safety", "budget"}
UNSEARCHED = STAMP | {"reconstruction", "lc"}
SEARCHED = UNSEARCHED | {"power", "search", "power_fallback", "chosen"}
MODE_SECTIONS = {
    "safe_mode": STAMP,
    "last_good": UNSEARCHED,
    "fair_share": UNSEARCHED,
    "reduced_dds": SEARCHED,
    "normal": SEARCHED,
}


class TestDecisionModes:
    @pytest.mark.parametrize("mode", sorted(MODE_SECTIONS))
    def test_every_mode_commits_one_record(self, mode):
        budget, warmup = MODE_SETUPS[mode]
        machine = build_machine_for_mix(paper_mixes()[0], seed=7)
        controller = CuttleSysPolicy.for_machine(
            machine, seed=7,
            config=ControllerConfig(
                seed=7, decision_budget=budget, safe_mode_after=1
            ),
        ).controller
        telemetry = Telemetry()
        controller.attach_telemetry(telemetry)
        max_power = 0.7 * machine.reference_max_power()
        for _ in range(warmup):
            controller.decide(0.8, max_power)
        if mode == "safe_mode":
            controller._rejections_this_quantum = 1
        controller.remove_job(3)
        before = len(telemetry.provenance.records)

        assignment = controller.decide(0.8, max_power)

        records = telemetry.provenance.records[before:]
        assert [r["mode"] for r in records] == [mode]
        assert set(records[0]) == MODE_SECTIONS[mode]
        searched = MODE_SECTIONS[mode] == SEARCHED
        assert (controller.last_prediction is not None) == searched
        assert (controller.last_reconstruction is not None) == searched
        # Every mode gates the vacant slot and stores what it decided.
        assert assignment.batch_configs[3] is None
        assert controller._last_assignment == assignment
        assert controller.lc_cores_by_service == [
            cores for cores, _ in assignment.lc_allocations()
        ]


class TestRenderExplain:
    def test_report_covers_the_causal_chain(self):
        telemetry = Telemetry()
        _run(n_slices=2, budget=2000, telemetry=telemetry)
        report = render_explain(telemetry.provenance.records[0])
        assert "decision provenance — quantum 0" in report
        assert "mode: reduced_dds" in report
        assert "ladder pricing" in report
        assert "reconstruction[bips]" in report
        assert "top candidates:" in report
        assert "degradation rungs this quantum: reduced_dds" in report
        assert "safety: safe_mode=no" in report
        assert "chosen: objective=" in report

    def test_minimal_record_renders(self):
        report = render_explain({"quantum": 7, "mode": "safe_mode"})
        assert "quantum 7" in report
        assert "mode: safe_mode" in report
        assert "budget: unlimited" in report


class TestPrometheusDegradation:
    def test_degradation_counters_exported(self):
        telemetry = Telemetry()
        _run(n_slices=2, budget=2000, telemetry=telemetry)
        text = render_prometheus(telemetry.metrics)
        assert "repro_controller_degradation_rungs_total 2" in text
        assert "repro_controller_degradation_reduced_dds_total 2" in text
