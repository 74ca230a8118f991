"""End-to-end telemetry: harness + policy + machine + controller.

Covers the PR's acceptance criteria: a CuttleSys run with telemetry
enabled produces a valid Chrome trace with nested spans for
profile/SGD/DDS/reconfigure inside each quantum, plus a metrics report
with prediction-error percentiles; counters track churn and core
reclamation.
"""

import json

import pytest

from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import run_policy
from repro.telemetry import Telemetry
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.loadgen import LoadTrace

FAST_DDS = DDSParams(initial_random_points=20, max_iter=10,
                     points_per_iteration=4, n_threads=4)


def fast_policy(machine, seed=3):
    return CuttleSysPolicy.for_machine(
        machine, seed=seed, config=ControllerConfig(dds=FAST_DDS, seed=seed)
    )


class TestRunWithTelemetry:
    @pytest.fixture()
    def session(self, quiet_machine):
        telemetry = Telemetry()
        policy = fast_policy(quiet_machine)
        run_policy(
            quiet_machine, policy, LoadTrace.constant(0.8),
            power_cap_fraction=0.7, n_slices=4, telemetry=telemetry,
        )
        return telemetry

    def test_all_fig3_phases_traced(self, session):
        names = {s.name for s in session.tracer.spans}
        assert {
            "quantum", "decide", "observe",             # harness
            "machine.profile", "slice", "reconfigure",  # machine
            "sgd", "lc_scan", "search", "power_fallback",  # controller
            "sgd.reconstruct", "dds.search",            # leaf phases
        } <= names

    def test_phases_nest_inside_each_quantum(self, session):
        quanta = [s for s in session.tracer.spans if s.name == "quantum"]
        assert len(quanta) == 4
        for quantum in quanta:
            inside = {c.name for c in session.tracer.children_of(quantum)}
            assert {"machine.profile", "sgd", "search",
                    "reconfigure"} <= inside
            assert quantum.depth == 0

    def test_decision_records_one_per_quantum(self, session):
        assert len(session.metrics.decisions) == 4
        assert [r.quantum for r in session.metrics.decisions] == [0, 1, 2, 3]

    def test_prediction_errors_within_fig5_scale(self, session):
        """On the noise-free machine, measured values ARE the ground
        truth, so the online error histograms measure reconstruction
        accuracy exactly as Fig. 5 does offline.  The paper reports
        median |error| under ~10 % for throughput; allow slack for the
        tiny 4-quantum run."""
        bips = session.metrics.histograms["prediction_error.bips_pct"]
        assert bips.count > 0
        assert bips.percentile(50) < 25.0
        power = session.metrics.histograms["prediction_error.power_pct"]
        assert power.count > 0
        assert power.percentile(50) < 25.0

    def test_chrome_trace_is_valid(self, session, tmp_path):
        path = tmp_path / "run.json"
        session.write_chrome_trace(path)
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        x_events = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in x_events} >= {
            "quantum", "sgd", "dds.search", "machine.profile",
            "reconfigure",
        }

    def test_report_has_error_percentiles(self, session):
        text = session.report()
        assert "prediction_error.bips_pct" in text
        assert "p95" in text and "p99" in text


class TestCounters:
    def test_churn_counter_increments(self, quiet_machine):
        telemetry = Telemetry()
        policy = fast_policy(quiet_machine)
        train_names, _ = train_test_split()
        pool = [batch_profile(n) for n in train_names[:4]]
        run = run_policy(
            quiet_machine, policy, LoadTrace.constant(0.6),
            n_slices=5, churn_period=2, churn_pool=pool,
            telemetry=telemetry,
        )
        expected = len(run.churn_events)
        assert expected == 2  # slices 2 and 4
        assert telemetry.metrics.counters["harness.job_churn"].value == expected
        churn_instants = [
            i for i in telemetry.tracer.instants if i.name == "job_churn"
        ]
        assert len(churn_instants) == expected

    def test_reclamation_counter_increments(self, small_machine):
        """Warm up at moderate load then slam to saturation: the
        controller must reclaim cores and count each event."""
        telemetry = Telemetry()
        policy = fast_policy(small_machine)
        policy.attach_telemetry(telemetry)
        controller = policy.controller
        machine = small_machine
        budget = machine.reference_max_power()

        def step(load):
            sample = machine.profile(load, lc_cores=controller.lc_cores)
            controller.ingest_profiling(sample)
            assignment = controller.decide(load, budget)
            controller.ingest_measurement(
                machine.run_slice(assignment, load)
            )

        for _ in range(3):
            step(0.8)
        before = controller.lc_cores
        for _ in range(4):
            step(1.3)
        reclaimed_cores = controller.lc_cores - before
        assert reclaimed_cores > 0
        counter = telemetry.metrics.counters["controller.core_reclamations"]
        assert counter.value >= reclaimed_cores

    def test_qos_violation_counter_matches_run(self, small_machine):
        telemetry = Telemetry()
        policy = fast_policy(small_machine)
        run = run_policy(
            small_machine, policy, LoadTrace.constant(0.8),
            power_cap_fraction=0.6, n_slices=5, telemetry=telemetry,
        )
        counted = telemetry.metrics.counters.get("harness.qos_violations")
        value = counted.value if counted is not None else 0
        assert value == run.qos_violations()

    def test_reconfiguration_counter_matches_measurements(
        self, quiet_machine
    ):
        telemetry = Telemetry()
        policy = fast_policy(quiet_machine)
        run = run_policy(
            quiet_machine, policy, LoadTrace.constant(0.8),
            n_slices=4, telemetry=telemetry,
        )
        total = sum(m.reconfigurations for m in run.measurements)
        assert telemetry.metrics.counters["harness.reconfigurations"].value == total


class TestBaselinePolicies:
    def test_baseline_gets_measured_only_records(self, small_machine):
        """Any Policy benefits: baselines without predictions still get
        quantum spans and measured-side decision records."""
        from repro.baselines import CoreGatingPolicy

        telemetry = Telemetry()
        run_policy(
            small_machine, CoreGatingPolicy(), LoadTrace.constant(0.6),
            n_slices=2, telemetry=telemetry,
        )
        assert len(telemetry.metrics.decisions) == 2
        names = {s.name for s in telemetry.tracer.spans}
        assert {"quantum", "decide", "observe", "slice"} <= names
        # No predicted side -> no prediction-error histograms.
        assert "prediction_error.bips_pct" not in telemetry.metrics.histograms
