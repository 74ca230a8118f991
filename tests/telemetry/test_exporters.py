"""Tests for the JSONL / Chrome trace / report exporters."""

import io
import json
import math

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.exporters import (
    chrome_trace_events,
    read_jsonl,
)
from repro.telemetry.metrics import DecisionRecord


def _session() -> Telemetry:
    telemetry = Telemetry()
    with telemetry.span("quantum", category="harness", index=0):
        with telemetry.span("sgd", category="controller"):
            pass
        with telemetry.span("search", category="controller",
                            explorer="dds"):
            pass
    telemetry.instant("job_churn", slot=2)
    telemetry.counter("qos_violations").inc(3)
    telemetry.metrics.gauge("power_w").set(99.5)
    telemetry.metrics.histogram("slice.lc_p99_ms").observe(4.2)
    telemetry.record_decision(DecisionRecord(
        quantum=0,
        predicted_bips=(1.0, math.nan),
        measured_bips=(1.1, 0.0),
        predicted_p99_s=(0.005,),
        measured_p99_s=(0.0048,),
        predicted_power_w=100.0,
        measured_power_w=98.0,
    ))
    return telemetry


class TestChromeTrace:
    def test_schema_is_valid_trace_event_json(self, tmp_path):
        """The exported file must satisfy the Chrome trace_event JSON
        object format: a traceEvents array of events carrying ph/ts/pid
        (and dur for complete events), all numeric in microseconds."""
        telemetry = _session()
        path = tmp_path / "trace.json"
        n = telemetry.write_chrome_trace(path)
        payload = json.loads(path.read_text())
        assert isinstance(payload, dict)
        events = payload["traceEvents"]
        assert len(events) == n
        phases = {e["ph"] for e in events}
        assert "X" in phases  # complete events
        assert "i" in phases  # the churn instant
        for event in events:
            assert isinstance(event["name"], str)
            assert event["ph"] in ("X", "i", "M")
            assert isinstance(event["pid"], int)
            if event["ph"] == "X":
                assert isinstance(event["ts"], (int, float))
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0
                assert isinstance(event["tid"], int)
            if event["ph"] == "i":
                assert event["s"] in ("t", "p", "g")

    def test_nesting_encoded_by_containment(self):
        """chrome://tracing infers nesting from time containment on one
        pid/tid; child X events must lie inside their parents."""
        telemetry = _session()
        events = [e for e in chrome_trace_events(telemetry)
                  if e["ph"] == "X"]
        by_name = {e["name"]: e for e in events}
        quantum = by_name["quantum"]
        for child in ("sgd", "search"):
            e = by_name[child]
            assert e["ts"] >= quantum["ts"]
            assert e["ts"] + e["dur"] <= quantum["ts"] + quantum["dur"]
            assert e["tid"] == quantum["tid"]

    def test_args_are_json_clean(self):
        telemetry = _session()
        text = json.dumps(chrome_trace_events(telemetry))
        back = json.loads(text)
        search = [e for e in back if e["name"] == "search"][0]
        assert search["args"]["explorer"] == "dds"


class TestJsonl:
    def test_roundtrip(self):
        telemetry = _session()
        buffer = io.StringIO()
        lines = telemetry.write_jsonl(buffer)
        buffer.seek(0)
        records = read_jsonl(buffer)
        assert len(records) == lines
        kinds = {r["type"] for r in records}
        assert kinds == {
            "span", "instant", "counter", "gauge", "histogram", "decision",
        }
        spans = [r for r in records if r["type"] == "span"]
        assert {s["name"] for s in spans} == {"quantum", "sgd", "search"}
        decision = [r for r in records if r["type"] == "decision"][0]
        # NaN entries are serialised as null, keeping the file valid JSON.
        assert decision["predicted_bips"][1] is None


class TestReports:
    def test_metrics_report_contains_all_sections(self):
        telemetry = _session()
        text = telemetry.report()
        assert "qos_violations" in text
        assert "prediction_error.power_pct" in text
        assert "span durations" in text
        assert "decision records: 1" in text

    def test_report_without_tracer_section_when_disabled(self):
        telemetry = Telemetry(enabled=False)
        telemetry.counter("x").inc()
        text = telemetry.report()
        assert "span durations" not in text
        # The disabled session's registry is the shared no-op fast
        # path: instrument calls are accepted but record nothing.
        assert telemetry.metrics.counters == {}
        assert "x" not in text

    def test_decisions_csv(self):
        telemetry = _session()
        buffer = io.StringIO()
        rows = telemetry.decisions_to_csv(buffer)
        assert rows == 1
        lines = buffer.getvalue().strip().splitlines()
        header = lines[0].split(",")
        assert "predicted_power_w" in header
        assert "power_err_pct" in header
        values = lines[1].split(",")
        err = float(values[header.index("power_err_pct")])
        expected = (100.0 - 98.0) / 98.0 * 100.0
        assert err == pytest.approx(expected, abs=1e-4)  # %.6g rounding


class TestDisabledSession:
    def test_disabled_session_records_no_spans(self):
        telemetry = Telemetry(enabled=False)
        with telemetry.span("x"):
            pass
        assert telemetry.enabled is False
        assert list(telemetry.tracer.spans) == []
        buffer = io.StringIO()
        assert telemetry.write_chrome_trace(buffer) == 1  # metadata only
