"""The prediction-accuracy auditor: errors, drift, QoS attribution."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams
from repro.core.runtime import CuttleSysPolicy
from repro.baselines import CoreGatingPolicy
from repro.experiments.harness import (
    build_machine_for_mix,
    run_policy,
)
from repro.telemetry import (
    DriftTracker,
    Telemetry,
    median_error_pct,
    render_accuracy_report,
)
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

FAST_DDS = DDSParams(initial_random_points=20, max_iter=10,
                     points_per_iteration=4, n_threads=4)


def fast_policy(machine, seed=3):
    return CuttleSysPolicy.for_machine(
        machine, seed=seed, config=ControllerConfig(dds=FAST_DDS, seed=seed)
    )


class TestDriftTracker:
    def test_first_sample_seeds_both_trackers(self):
        tracker = DriftTracker()
        assert tracker.update(10.0) is False
        assert tracker.fast == pytest.approx(10.0)
        assert tracker.slow == pytest.approx(10.0)

    def test_no_flag_during_warmup(self):
        tracker = DriftTracker(warmup=3)
        # Even an enormous jump inside the warmup window stays silent.
        assert tracker.update(5.0) is False
        assert tracker.update(500.0) is False
        assert tracker.update(500.0) is False

    def test_flags_on_sustained_jump_after_warmup(self):
        tracker = DriftTracker(alpha=0.5, factor=2.0, floor=2.0, warmup=2)
        for _ in range(4):
            assert tracker.update(8.0) is False
        flagged = [tracker.update(80.0) for _ in range(3)]
        assert any(flagged)
        assert tracker.fast > tracker.slow

    def test_floor_suppresses_tiny_absolute_errors(self):
        tracker = DriftTracker(factor=2.0, floor=5.0, warmup=1)
        tracker.update(0.2)
        tracker.update(0.2)
        # 0.2 % -> 1 % error is a 5x relative rise but stays under the
        # floor*factor = 10 % line: noise, not degradation.
        assert tracker.update(1.0) is False

    def test_nan_samples_are_ignored(self):
        tracker = DriftTracker()
        tracker.update(10.0)
        assert tracker.update(math.nan) is False
        assert tracker.samples == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DriftTracker(alpha=0.0)
        with pytest.raises(ValueError):
            DriftTracker(factor=1.0)


class TestAuditedRun:
    @pytest.fixture(scope="class")
    def audited(self):
        """Mix 0 (xapian + 16 batch jobs) with the auditor attached."""
        machine = build_machine_for_mix(paper_mixes()[0], seed=7)
        policy = CuttleSysPolicy.for_machine(machine, seed=7)
        telemetry = Telemetry()
        telemetry.enable_accuracy_audit()
        run = run_policy(
            machine, policy, LoadTrace.constant(0.8),
            n_slices=6, telemetry=telemetry,
        )
        return telemetry, run

    def test_median_errors_consistent_with_fig4(self, audited):
        """The paper reports ~5-12 % reconstruction error (Fig. 4);
        the online audit of a default run must land in that regime."""
        telemetry, _ = audited
        for metric in ("bips", "power", "lc_p99"):
            median = median_error_pct(telemetry, metric)
            assert math.isfinite(median), metric
            assert median < 20.0, (metric, median)

    def test_all_warm_quanta_audited(self, audited):
        telemetry, run = audited
        counters = telemetry.metrics.counters
        audited_n = counters["accuracy.audited_quanta"].value
        skipped_n = counters.get("accuracy.unaudited_quanta")
        skipped_n = skipped_n.value if skipped_n else 0
        assert audited_n + skipped_n == len(run.measurements)
        # Only the cold-start quantum lacks a reconstruction.
        assert skipped_n <= 1
        assert audited_n >= 5

    def test_per_app_histograms_present(self, audited):
        telemetry, _ = audited
        names = [
            n for n in telemetry.metrics.histograms
            if n.startswith("accuracy.app.")
        ]
        assert len(names) >= 16

    def test_report_renders(self, audited):
        telemetry, _ = audited
        text = render_accuracy_report(telemetry)
        assert "quanta audited: " in text
        assert "bips" in text and "lc_p99" in text
        assert "drift flags:" in text

    def test_no_drift_on_steady_run(self, audited):
        telemetry, _ = audited
        assert telemetry.auditor.drift_events == []

    def test_audit_flows_through_jsonl_exporter(self, audited):
        import io

        from repro.telemetry import read_jsonl, write_jsonl

        telemetry, _ = audited
        buffer = io.StringIO()
        write_jsonl(telemetry, buffer)
        buffer.seek(0)
        names = {
            r["name"] for r in read_jsonl(buffer)
            if r["type"] in ("counter", "histogram")
        }
        assert "accuracy.audited_quanta" in names
        assert "accuracy.bips_err_pct" in names


class TestDriftDetection:
    def test_injected_phase_jump_flags_drift(self, quiet_machine):
        """An abrupt phase shift invalidates the profiled matrices; the
        auditor must flag the reconstruction-error rise."""
        telemetry = Telemetry()
        auditor = telemetry.enable_accuracy_audit()
        policy = fast_policy(quiet_machine)
        run_policy(
            quiet_machine, policy, LoadTrace.constant(0.6),
            n_slices=6, telemetry=telemetry,
        )
        assert auditor.drift_events == []
        # Inject the drift scenario: every batch app jumps to a phase
        # the controller has never profiled.
        quiet_machine._log_phase[:] += 1.2
        run_policy(
            quiet_machine, policy, LoadTrace.constant(0.6),
            n_slices=4, telemetry=telemetry,
        )
        assert auditor.drift_events, "phase jump not flagged"
        assert any(e.metric == "bips" for e in auditor.drift_events)
        flags = telemetry.metrics.counters["accuracy.drift.flags"].value
        assert flags == len(auditor.drift_events)
        event = auditor.drift_events[0]
        assert event.fast_pct > event.slow_pct

    def test_baseline_policy_counts_as_unaudited(self, quiet_machine):
        telemetry = Telemetry()
        auditor = telemetry.enable_accuracy_audit()
        run_policy(
            quiet_machine, CoreGatingPolicy(), LoadTrace.constant(0.6),
            n_slices=3, telemetry=telemetry,
        )
        counters = telemetry.metrics.counters
        assert counters["accuracy.unaudited_quanta"].value == 3
        assert "accuracy.audited_quanta" not in counters
        assert auditor.drift_events == []


class TestQosAttribution:
    @pytest.fixture()
    def auditor(self):
        telemetry = Telemetry()
        return telemetry.enable_accuracy_audit()

    def _measurement(self, p99, cores=4, load=0.5):
        return SimpleNamespace(
            assignment=SimpleNamespace(lc_cores=cores, extra_lc=()),
            lc_p99=p99,
            lc_load=load,
            extra_lc_p99=(),
            extra_lc_loads=(),
        )

    def _feasible_qos(self, machine, cores=4, load=0.5):
        truth = machine.oracle_lc_latency_row(load, cores, 0)
        finite = truth[np.isfinite(truth)]
        assert finite.size
        return float(finite.min()) * 1.5

    def test_infeasible(self, auditor, quiet_machine):
        qos = 1e-9  # no configuration can ever meet this
        auditor.audit_measurement(
            quiet_machine, self._measurement(p99=1.0), quantum=0, qos_s=qos,
        )
        counters = auditor.telemetry.metrics.counters
        assert counters["accuracy.qos_attrib.infeasible"].value == 1

    def test_search_failure_without_prediction(self, auditor, quiet_machine):
        qos = self._feasible_qos(quiet_machine)
        auditor.audit_measurement(
            quiet_machine, self._measurement(p99=qos * 2), quantum=0,
            qos_s=qos, policy=None,
        )
        counters = auditor.telemetry.metrics.counters
        assert counters["accuracy.qos_attrib.search_failure"].value == 1

    def test_misprediction_when_controller_predicted_safe(
        self, auditor, quiet_machine
    ):
        qos = self._feasible_qos(quiet_machine)
        policy = SimpleNamespace(
            last_prediction=SimpleNamespace(p99_s=(qos * 0.5,))
        )
        auditor.audit_measurement(
            quiet_machine, self._measurement(p99=qos * 2), quantum=0,
            qos_s=qos, policy=policy,
        )
        counters = auditor.telemetry.metrics.counters
        assert counters["accuracy.qos_attrib.misprediction"].value == 1

    def test_meeting_qos_attributes_nothing(self, auditor, quiet_machine):
        qos = self._feasible_qos(quiet_machine)
        auditor.audit_measurement(
            quiet_machine, self._measurement(p99=qos * 0.5), quantum=0,
            qos_s=qos,
        )
        counters = auditor.telemetry.metrics.counters
        assert not any(k.startswith("accuracy.qos_attrib") for k in counters)
