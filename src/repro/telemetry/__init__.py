"""Observability for the scheduler stack: tracing, metrics, exporters.

``repro.telemetry`` gives every run of the Fig. 3 decision loop a
first-class record of *where the time went* and *how good the
predictions were*:

* a :class:`Tracer` of nested monotonic-clock spans around each phase
  (profile, SGD reconstruction, LC scan, DDS search, reconfigure,
  slice execution) — a no-op when disabled;
* a :class:`MetricsRegistry` of counters/gauges/histograms plus
  per-quantum :class:`DecisionRecord` entries pairing predicted
  against measured BIPS/p99/power (the Fig. 5 accuracy quantity,
  tracked online);
* exporters to JSONL, Chrome ``trace_event`` JSON (open in
  ``chrome://tracing`` or Perfetto), and text/CSV reports;
* an opt-in :class:`AccuracyAuditor`
  (:meth:`Telemetry.enable_accuracy_audit`) that scores each quantum's
  reconstruction against the simulator's oracle tables, with EWMA
  drift detection and QoS-violation attribution — see
  ``repro.telemetry.accuracy`` and ``python -m repro audit``.

Typical use::

    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    run = run_policy(machine, policy, trace, n_slices=20,
                     telemetry=telemetry)
    telemetry.write_chrome_trace("run_trace.json")
    print(telemetry.report())

See ``docs/observability.md`` for the full tour, including how the
Table II scheduling-overhead rows are derived from spans.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.accuracy import (
    AccuracyAuditor,
    DriftTracker,
    median_error_pct,
    render_accuracy_report,
)
from repro.telemetry.dashboard import render_dashboard
from repro.telemetry.exporters import (
    chrome_trace_events,
    decision_records_from_jsonl,
    decisions_to_csv,
    merge_jsonl,
    read_jsonl,
    render_metrics_report,
    render_prometheus,
    write_chrome_trace,
    write_jsonl,
)
from repro.telemetry.live import (
    CallbackSink,
    LiveAggregator,
    LiveEmitter,
    RollingWindow,
    current_emitter,
    install_emitter,
    offer,
    render_live_status,
)
from repro.telemetry.metrics import (
    Counter,
    DecisionRecord,
    Gauge,
    Histogram,
    MetricsRegistry,
    signed_error_percent,
)
from repro.telemetry.profiler import (
    ProfileNode,
    build_profile,
    folded_stacks,
    profile_telemetry,
    render_phase_table,
    render_profile_table,
)
from repro.telemetry.provenance import (
    ProvenanceRecorder,
    provenance_key,
    provenance_records_from_jsonl,
    render_explain,
)
from repro.telemetry.tracer import (
    NULL_TRACER,
    Instant,
    NullTracer,
    Span,
    Tracer,
    tracer_of,
)


class Telemetry:
    """One run's telemetry session: a tracer plus a metrics registry.

    This is the object handed to ``run_policy(telemetry=...)`` and the
    CLI's ``--trace``/``--metrics`` flags.  A run without a session
    passes ``telemetry=None``; instrumented code then falls back to the
    shared :data:`NULL_TRACER` at near-zero cost.
    """

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        #: Optional :class:`~repro.telemetry.accuracy.AccuracyAuditor`;
        #: the harness audits each quantum when one is attached.
        self.auditor: Optional[AccuracyAuditor] = None
        #: Decision-provenance flight recorder
        #: (:mod:`repro.telemetry.provenance`); the controller emits one
        #: bounded "why" record per quantum when a session is attached.
        self.provenance = ProvenanceRecorder()

    def enable_accuracy_audit(self) -> AccuracyAuditor:
        """Attach a prediction-accuracy auditor to this session."""
        return AccuracyAuditor(self)

    # -- convenience pass-throughs -------------------------------------

    def span(self, name: str, category: str = "", **args):
        """Open a span on the session's tracer."""
        return self.tracer.span(name, category=category, **args)

    def instant(self, name: str, category: str = "", **args) -> None:
        """Emit a marker event on the session's tracer."""
        self.tracer.instant(name, category=category, **args)

    def counter(self, name: str) -> Counter:
        return self.metrics.counter(name)

    def record_decision(self, record: DecisionRecord) -> None:
        self.metrics.record_decision(record)

    # -- exports -------------------------------------------------------

    def write_chrome_trace(self, path_or_file) -> int:
        """Write the Chrome ``trace_event`` JSON; returns event count."""
        return write_chrome_trace(self, path_or_file)

    def write_jsonl(self, path_or_file) -> int:
        """Write the JSONL event log; returns line count."""
        return write_jsonl(self, path_or_file)

    def decisions_to_csv(self, path_or_file) -> int:
        """Write the per-quantum predicted-vs-measured CSV."""
        return decisions_to_csv(self.metrics.decisions, path_or_file)

    def report(self) -> str:
        """Human-readable metrics + span-duration summary."""
        return render_metrics_report(self.metrics, self.tracer)


__all__ = [
    "AccuracyAuditor",
    "CallbackSink",
    "Counter",
    "DecisionRecord",
    "DriftTracker",
    "Gauge",
    "Histogram",
    "Instant",
    "LiveAggregator",
    "LiveEmitter",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "ProfileNode",
    "ProvenanceRecorder",
    "RollingWindow",
    "Span",
    "Telemetry",
    "Tracer",
    "build_profile",
    "chrome_trace_events",
    "current_emitter",
    "decision_records_from_jsonl",
    "decisions_to_csv",
    "folded_stacks",
    "install_emitter",
    "median_error_pct",
    "merge_jsonl",
    "offer",
    "profile_telemetry",
    "provenance_key",
    "provenance_records_from_jsonl",
    "read_jsonl",
    "render_accuracy_report",
    "render_dashboard",
    "render_explain",
    "render_live_status",
    "render_metrics_report",
    "render_phase_table",
    "render_profile_table",
    "render_prometheus",
    "signed_error_percent",
    "tracer_of",
    "write_chrome_trace",
    "write_jsonl",
]
