"""Tests for counters, histograms, and decision records."""

import math

import numpy as np
import pytest

from repro.experiments.reporting import relative_error_percent
from repro.telemetry.metrics import (
    Counter,
    DecisionRecord,
    Histogram,
    MetricsRegistry,
    percentile,
    signed_error_percent,
)


class TestCounter:
    def test_counts_up(self):
        c = Counter("x")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)


class TestHistogram:
    def test_summary_percentiles(self):
        h = Histogram("lat")
        for v in range(1, 101):
            h.observe(float(v))
        s = h.summary()
        assert s["count"] == 100
        assert s["min"] == 1.0 and s["max"] == 100.0
        assert s["p50"] == pytest.approx(50.5)
        assert s["p95"] == pytest.approx(95.05)
        assert s["p99"] == pytest.approx(99.01)

    def test_window_and_histogram_share_one_percentile(self):
        from repro.telemetry.live import RollingWindow

        rng = np.random.default_rng(1)
        samples = [float(v) for v in rng.normal(10.0, 3.0, size=40)]
        h, window = Histogram("x"), RollingWindow("x", size=64)
        for v in samples:
            h.observe(v)
            window.observe(v)
        for q in (0, 50, 95, 99, 100):
            assert h.percentile(q) == window.percentile(q) == percentile(
                samples, q
            )
        assert math.isnan(percentile([], 50))
        assert percentile([3.0], 99) == 3.0

    def test_matches_numpy_percentile(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 3.0, size=257)
        h = Histogram("x")
        for v in samples:
            h.observe(float(v))
        for q in (50, 95, 99):
            assert h.percentile(q) == pytest.approx(
                float(np.percentile(samples, q))
            )

    def test_nan_dropped(self):
        h = Histogram("x")
        h.observe(float("nan"))
        h.observe(1.0)
        assert h.count == 1

    def test_empty_summary_is_nan(self):
        s = Histogram("x").summary()
        assert s["count"] == 0
        assert math.isnan(s["p50"])


class TestSignedError:
    def test_matches_fig5_error_definition(self):
        """Telemetry errors use the exact formula of the Fig. 5
        accuracy experiment (experiments.reporting)."""
        predicted = np.array([1.1, 0.9, 2.0])
        truth = np.array([1.0, 1.0, 1.0])
        expected = relative_error_percent(predicted, truth)
        got = [
            signed_error_percent(p, t) for p, t in zip(predicted, truth)
        ]
        assert got == pytest.approx(list(expected))

    def test_nan_when_not_comparable(self):
        assert math.isnan(signed_error_percent(1.0, 0.0))
        assert math.isnan(signed_error_percent(0.0, 1.0))


class TestDecisionRecord:
    def _record(self):
        return DecisionRecord(
            quantum=3,
            predicted_bips=(1.1, math.nan, 2.0),
            measured_bips=(1.0, 1.5, 2.0),
            predicted_p99_s=(0.005,),
            measured_p99_s=(0.004,),
            predicted_power_w=110.0,
            measured_power_w=100.0,
        )

    def test_bips_errors_skip_nan(self):
        errors = self._record().bips_errors_percent()
        assert errors == pytest.approx([10.0, 0.0])

    def test_p99_and_power_errors(self):
        rec = self._record()
        assert rec.p99_errors_percent() == pytest.approx([25.0])
        assert rec.power_error_percent() == pytest.approx(10.0)

    def test_registry_folds_into_histograms(self):
        registry = MetricsRegistry()
        registry.record_decision(self._record())
        assert len(registry.decisions) == 1
        bips = registry.histograms["prediction_error.bips_pct"]
        assert bips.count == 2
        assert all(v >= 0 for v in bips.samples)
        signed = registry.histograms["prediction_error.p99_signed_pct"]
        assert signed.samples == pytest.approx([25.0])
        power = registry.histograms["prediction_error.power_pct"]
        assert power.samples == pytest.approx([10.0])

    def test_registry_as_dict_roundtrips_to_json(self):
        import json

        registry = MetricsRegistry()
        registry.counter("qos_violations").inc(2)
        registry.gauge("power_w").set(101.5)
        registry.record_decision(self._record())
        snapshot = registry.as_dict()
        text = json.dumps(snapshot)  # must be serialisable
        back = json.loads(text)
        assert back["counters"]["qos_violations"] == 2
        assert back["n_decisions"] == 1


class TestRegistryAccessors:
    def test_get_or_create_is_stable(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")
