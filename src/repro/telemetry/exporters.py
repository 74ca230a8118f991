"""Telemetry exporters: JSONL, Chrome trace_event JSON, text/CSV.

Three sinks for one :class:`repro.telemetry.Telemetry` session:

* :func:`write_jsonl` — every span, instant, counter, histogram and
  decision record as one JSON object per line.  This is the archival
  format ``python -m repro profile``, ``top``, ``dashboard`` and
  ``explain`` read back.
* :func:`write_chrome_trace` — the Chrome ``trace_event`` format
  (JSON object with a ``traceEvents`` array of ``"ph": "X"`` complete
  events), loadable in ``chrome://tracing`` or https://ui.perfetto.dev.
  Span nesting renders as stacked slices on one track.
* :func:`render_metrics_report` / :func:`decisions_to_csv` — a
  human-readable metrics summary and a per-quantum CSV of predicted
  vs measured values.
"""

from __future__ import annotations

import io
import json
import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.telemetry.metrics import DecisionRecord, MetricsRegistry
from repro.telemetry.tracer import Tracer


def _open(path_or_file, mode: str = "w"):
    if hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode, newline=""), True


def _jsonable(value):
    """Coerce numpy scalars and other oddballs to plain JSON types."""
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return None if math.isnan(value) else value
    item = getattr(value, "item", None)
    if item is not None:
        try:
            return _jsonable(item())
        except Exception:
            pass
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def _jsonable_args(args: Dict) -> Dict:
    return {str(k): _jsonable(v) for k, v in args.items()}


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def write_jsonl(telemetry, path_or_file) -> int:
    """Write the session as JSON Lines; returns the line count.

    Line types (``"type"`` field): ``span``, ``instant``, ``counter``,
    ``gauge``, ``histogram``, ``decision``, ``provenance``.
    """
    handle, owned = _open(path_or_file)
    lines = 0
    try:
        for span in telemetry.tracer.spans:
            handle.write(json.dumps({
                "type": "span",
                "name": span.name,
                "cat": span.category,
                "start_us": span.start_ns / 1e3,
                "dur_us": span.duration_ns / 1e3,
                "depth": span.depth,
                "id": span.id,
                "parent": span.parent,
                "args": _jsonable_args(span.args),
            }) + "\n")
            lines += 1
        for instant in telemetry.tracer.instants:
            handle.write(json.dumps({
                "type": "instant",
                "name": instant.name,
                "cat": instant.category,
                "ts_us": instant.timestamp_ns / 1e3,
                "args": _jsonable_args(instant.args),
            }) + "\n")
            lines += 1
        metrics = telemetry.metrics
        for name, counter in sorted(metrics.counters.items()):
            handle.write(json.dumps({
                "type": "counter", "name": name, "value": counter.value,
            }) + "\n")
            lines += 1
        for name, gauge in sorted(metrics.gauges.items()):
            handle.write(json.dumps({
                "type": "gauge", "name": name, "value": gauge.value,
            }) + "\n")
            lines += 1
        for name, hist in sorted(metrics.histograms.items()):
            handle.write(json.dumps({
                "type": "histogram",
                "name": name,
                "summary": {
                    k: _jsonable(v) for k, v in hist.summary().items()
                },
            }) + "\n")
            lines += 1
        for record in metrics.decisions:
            handle.write(json.dumps({
                "type": "decision",
                "quantum": record.quantum,
                "predicted_bips": _jsonable(record.predicted_bips),
                "measured_bips": _jsonable(record.measured_bips),
                "predicted_p99_s": _jsonable(record.predicted_p99_s),
                "measured_p99_s": _jsonable(record.measured_p99_s),
                "predicted_power_w": _jsonable(record.predicted_power_w),
                "measured_power_w": _jsonable(record.measured_power_w),
            }) + "\n")
            lines += 1
        recorder = getattr(telemetry, "provenance", None)
        if recorder is not None:
            # Provenance records are built JSON-ready by the controller
            # (deterministic values only); sort_keys makes the archival
            # bytes canonical so replay diffs compare file lines.
            for record in recorder.records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
                lines += 1
    finally:
        if owned:
            handle.close()
    return lines


def read_jsonl(path_or_file) -> List[Dict]:
    """Parse a JSONL event log back into a list of dicts."""
    handle, owned = _open(path_or_file, mode="r")
    try:
        return [json.loads(line) for line in handle if line.strip()]
    finally:
        if owned:
            handle.close()


def telemetry_records(telemetry) -> List[Dict]:
    """A session as the parsed records of its JSONL export.

    The picklable, JSONable form of a live session: fleet units ship
    their telemetry across the process boundary this way, and the
    profiler reads a live run through it so that run and its archived
    log profile the same by construction.
    """
    buffer = io.StringIO()
    write_jsonl(telemetry, buffer)
    buffer.seek(0)
    return read_jsonl(buffer)


def merge_jsonl(per_unit, path_or_file=None) -> List[Dict]:
    """Merge per-unit (per-worker) JSONL logs into one canonical log.

    Naively concatenating per-worker shard files interleaves quanta out
    of order — ``decision_records_from_jsonl`` round-trips one file but
    not a concatenation.  This helper takes ``(unit_id, records)``
    pairs (``records`` may also be a path readable by
    :func:`read_jsonl`) and produces a single record list whose order
    is a function of *content only*, never of completion order:

    * ``span``/``instant`` lines keep their within-unit order, grouped
      per unit, units in sorted-id order, each tagged ``"unit"``;
    * ``counter`` lines are summed across units per name (sorted by
      name) — counters are the RNG-safe quantities CI gates on;
    * ``gauge``/``histogram`` lines cannot be meaningfully combined, so
      they are tagged ``"unit"`` and sorted by ``(name, unit)``;
    * ``decision`` lines are tagged ``"unit"`` and sorted by
      ``(quantum, unit)``, so per-quantum analysis reads them in
      simulation order;
    * ``provenance`` lines follow the decision convention: tagged
      ``"unit"``, sorted by ``(quantum, unit)``.

    Duplicate unit ids raise ``ValueError``.  With ``path_or_file``
    set, the merged records are also written as JSONL.  Returns the
    merged record list.
    """
    resolved: List[tuple] = []
    seen = set()
    for unit_id, records in per_unit:
        if unit_id in seen:
            raise ValueError(f"duplicate unit id {unit_id!r} in merge")
        seen.add(unit_id)
        if not isinstance(records, (list, tuple)):
            records = read_jsonl(records)
        resolved.append((unit_id, list(records)))
    resolved.sort(key=lambda pair: pair[0])

    traces: List[Dict] = []
    counters: Dict[str, float] = {}
    gauges: List[Dict] = []
    histograms: List[Dict] = []
    decisions: List[Dict] = []
    provenance: List[Dict] = []
    for unit_id, records in resolved:
        for rec in records:
            kind = rec.get("type")
            if kind in ("span", "instant"):
                traces.append({**rec, "unit": unit_id})
            elif kind == "counter":
                counters[rec["name"]] = (
                    counters.get(rec["name"], 0) + rec["value"]
                )
            elif kind == "gauge":
                gauges.append({**rec, "unit": unit_id})
            elif kind == "histogram":
                histograms.append({**rec, "unit": unit_id})
            elif kind == "decision":
                decisions.append({**rec, "unit": unit_id})
            elif kind == "provenance":
                provenance.append({**rec, "unit": unit_id})
    gauges.sort(key=lambda r: (r["name"], r["unit"]))
    histograms.sort(key=lambda r: (r["name"], r["unit"]))
    decisions.sort(key=lambda r: (r["quantum"], r["unit"]))
    provenance.sort(key=lambda r: (r["quantum"], r["unit"]))
    merged = (
        traces
        + [
            {"type": "counter", "name": name, "value": counters[name]}
            for name in sorted(counters)
        ]
        + gauges
        + histograms
        + decisions
        + provenance
    )
    if path_or_file is not None:
        handle, owned = _open(path_or_file)
        try:
            for rec in merged:
                handle.write(json.dumps(rec) + "\n")
        finally:
            if owned:
                handle.close()
    return merged


def decision_records_from_jsonl(records: Iterable[Dict]) -> List[DecisionRecord]:
    """Rebuild :class:`DecisionRecord` objects from parsed JSONL lines.

    The inverse of :func:`write_jsonl`'s ``decision`` lines: JSON has
    no NaN, so ``null`` entries (gated jobs, cold-start predictions)
    come back as NaN — a write -> read -> re-export cycle is lossless.
    """
    def _num(value) -> float:
        return math.nan if value is None else float(value)

    def _tup(values) -> tuple:
        return tuple(_num(v) for v in (values or ()))

    out: List[DecisionRecord] = []
    for rec in records:
        if rec.get("type") != "decision":
            continue
        out.append(DecisionRecord(
            quantum=int(rec["quantum"]),
            predicted_bips=_tup(rec.get("predicted_bips")),
            measured_bips=_tup(rec.get("measured_bips")),
            predicted_p99_s=_tup(rec.get("predicted_p99_s")),
            measured_p99_s=_tup(rec.get("measured_p99_s")),
            predicted_power_w=_num(rec.get("predicted_power_w")),
            measured_power_w=_num(rec.get("measured_power_w")),
        ))
    return out


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------

def chrome_trace_events(telemetry) -> List[Dict]:
    """The session as Chrome ``trace_event`` dicts (``ph: X``/``i``).

    The metadata event leads; timed events follow sorted by start
    timestamp (the tracer records spans in *completion* order, which
    viewers tolerate but stream parsers need not).
    """
    events: List[Dict] = []
    for span in telemetry.tracer.spans:
        events.append({
            "name": span.name,
            "cat": span.category or "scheduler",
            "ph": "X",
            "ts": span.start_ns / 1e3,   # trace_event wants microseconds
            "dur": span.duration_ns / 1e3,
            "pid": 1,
            "tid": 1,
            "args": _jsonable_args(span.args),
        })
    for instant in telemetry.tracer.instants:
        events.append({
            "name": instant.name,
            "cat": instant.category or "scheduler",
            "ph": "i",
            "ts": instant.timestamp_ns / 1e3,
            "pid": 1,
            "tid": 1,
            "s": "t",
            "args": _jsonable_args(instant.args),
        })
    events.sort(key=lambda event: event["ts"])
    return [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 0,
        "args": {"name": "repro scheduler"},
    }] + events


def write_chrome_trace(telemetry, path_or_file) -> int:
    """Write Chrome trace JSON; returns the number of trace events."""
    events = chrome_trace_events(telemetry)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.telemetry",
            "counters": {
                n: c.value
                for n, c in sorted(telemetry.metrics.counters.items())
            },
        },
    }
    handle, owned = _open(path_or_file)
    try:
        json.dump(payload, handle)
    finally:
        if owned:
            handle.close()
    return len(events)


# ----------------------------------------------------------------------
# Text / CSV reports
# ----------------------------------------------------------------------

def render_metrics_report(metrics: MetricsRegistry,
                          tracer: Optional[Tracer] = None) -> str:
    """Human-readable summary: counters, histograms, span durations."""
    lines: List[str] = ["telemetry metrics report", "=" * 24]
    if metrics.counters:
        lines.append("")
        lines.append("counters:")
        for name, counter in sorted(metrics.counters.items()):
            lines.append(f"  {name:<36} {counter.value}")
    if metrics.gauges:
        lines.append("")
        lines.append("gauges:")
        for name, gauge in sorted(metrics.gauges.items()):
            lines.append(f"  {name:<36} {gauge.value:.4g}")
    if metrics.histograms:
        lines.append("")
        lines.append(
            f"histograms:{'':<29} count    mean     p50     p95     p99"
        )
        for name, hist in sorted(metrics.histograms.items()):
            s = hist.summary()
            lines.append(
                f"  {name:<36} {s['count']:>5} "
                f"{s['mean']:>7.2f} {s['p50']:>7.2f} "
                f"{s['p95']:>7.2f} {s['p99']:>7.2f}"
            )
    if tracer is not None and tracer.spans:
        lines.append("")
        lines.append(
            f"span durations (ms):{'':<20} count    mean     p50     p95"
        )
        by_name: Dict[str, Histogram] = {}
        from repro.telemetry.metrics import Histogram as _H
        for span in tracer.spans:
            by_name.setdefault(span.name, _H(span.name)).observe(
                span.duration_s * 1e3
            )
        for name in sorted(by_name):
            s = by_name[name].summary()
            lines.append(
                f"  {name:<36} {s['count']:>5} "
                f"{s['mean']:>7.3f} {s['p50']:>7.3f} {s['p95']:>7.3f}"
            )
    if metrics.decisions:
        lines.append("")
        lines.append(f"decision records: {len(metrics.decisions)} quanta")
    return "\n".join(lines)


def decisions_to_csv(decisions: Sequence[DecisionRecord],
                     path_or_file) -> int:
    """Per-quantum predicted-vs-measured CSV; returns rows written."""
    import csv

    handle, owned = _open(path_or_file)
    try:
        writer = csv.writer(handle)
        writer.writerow([
            "quantum",
            "predicted_gmean_bips", "measured_gmean_bips", "bips_err_pct",
            "predicted_p99_s", "measured_p99_s", "p99_err_pct",
            "predicted_power_w", "measured_power_w", "power_err_pct",
        ])
        rows = 0
        for rec in decisions:
            bips_errs = rec.bips_errors_percent()
            p99_errs = rec.p99_errors_percent()
            pred_bips = [b for b in rec.predicted_bips if not math.isnan(b)]
            meas_bips = [
                b for b in rec.measured_bips if not math.isnan(b) and b > 0
            ]

            def gmean(xs: List[float]) -> float:
                pos = [x for x in xs if x > 0]
                if not pos:
                    return math.nan
                return math.exp(sum(math.log(x) for x in pos) / len(pos))

            def fmt(x: float) -> str:
                return "" if math.isnan(x) else f"{x:.6g}"

            writer.writerow([
                rec.quantum,
                fmt(gmean(pred_bips)),
                fmt(gmean(meas_bips)),
                fmt(sum(bips_errs) / len(bips_errs)) if bips_errs else "",
                fmt(rec.predicted_p99_s[0] if rec.predicted_p99_s
                    else math.nan),
                fmt(rec.measured_p99_s[0] if rec.measured_p99_s
                    else math.nan),
                fmt(p99_errs[0]) if p99_errs else "",
                fmt(rec.predicted_power_w),
                fmt(rec.measured_power_w),
                fmt(rec.power_error_percent()),
            ])
            rows += 1
        return rows
    finally:
        if owned:
            handle.close()


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _prometheus_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus grammar.

    ``fleet.units_total`` -> ``repro_fleet_units_total``: dots and any
    other illegal characters become underscores under a ``repro_``
    namespace prefix (docs/observability.md documents the mapping).
    """
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"repro_{cleaned}"


def _prometheus_value(value) -> str:
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _escape_label_value(value) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prometheus_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label_value(val)}"'
        for key, val in sorted(labels.items())
    )
    return "{" + body + "}"


def render_prometheus(metrics) -> str:
    """Render metrics in the Prometheus text exposition format (v0.0.4).

    ``metrics`` is either a live :class:`MetricsRegistry` (or the
    ``Telemetry.metrics`` attribute) or an iterable of parsed JSONL
    records (the archival/merged form) — merged records keep their
    ``unit`` tag as a label.  Counters render with the conventional
    ``_total`` suffix, histograms as summaries (``quantile`` series
    plus ``_count``/``_sum``), so a control-plane daemon can scrape a
    run's state without bespoke parsing.
    """
    counters: List[tuple] = []
    gauges: List[tuple] = []
    summaries: List[tuple] = []
    if hasattr(metrics, "counters"):
        for name, counter in sorted(metrics.counters.items()):
            counters.append((name, {}, counter.value))
        for name, gauge in sorted(metrics.gauges.items()):
            gauges.append((name, {}, gauge.value))
        for name, hist in sorted(metrics.histograms.items()):
            summary = hist.summary()
            summary["sum"] = sum(hist.samples)
            summaries.append((name, {}, summary))
        gauges.append(("decisions", {}, len(metrics.decisions)))
    else:
        decisions = 0
        for rec in metrics:
            kind = rec.get("type")
            labels = (
                {"unit": rec["unit"]} if rec.get("unit") is not None else {}
            )
            if kind == "counter":
                counters.append((rec["name"], labels, rec["value"]))
            elif kind == "gauge":
                gauges.append((rec["name"], labels, rec["value"]))
            elif kind == "histogram":
                summary = dict(rec.get("summary", {}))
                count = summary.get("count", 0) or 0
                mean = summary.get("mean")
                summary["sum"] = (
                    mean * count if isinstance(mean, (int, float)) else 0.0
                )
                summaries.append((rec["name"], labels, summary))
            elif kind == "decision":
                decisions += 1
        gauges.append(("decisions", {}, decisions))

    lines: List[str] = []

    def emit_header(name: str, source: str, kind: str) -> None:
        lines.append(f"# HELP {name} repro metric {source}")
        lines.append(f"# TYPE {name} {kind}")

    seen = set()
    for name, labels, value in counters:
        metric = _prometheus_name(name) + "_total"
        if metric not in seen:
            seen.add(metric)
            emit_header(metric, name, "counter")
        lines.append(
            f"{metric}{_prometheus_labels(labels)} "
            f"{_prometheus_value(value)}"
        )
    for name, labels, value in gauges:
        metric = _prometheus_name(name)
        if metric not in seen:
            seen.add(metric)
            emit_header(metric, name, "gauge")
        lines.append(
            f"{metric}{_prometheus_labels(labels)} "
            f"{_prometheus_value(value)}"
        )
    for name, labels, summary in summaries:
        metric = _prometheus_name(name)
        if metric not in seen:
            seen.add(metric)
            emit_header(metric, name, "summary")
        for quantile, key in (("0.5", "p50"), ("0.95", "p95"),
                              ("0.99", "p99")):
            value = summary.get(key)
            if not isinstance(value, (int, float)):
                continue
            q_labels = dict(labels)
            q_labels["quantile"] = quantile
            lines.append(
                f"{metric}{_prometheus_labels(q_labels)} "
                f"{_prometheus_value(value)}"
            )
        label_text = _prometheus_labels(labels)
        lines.append(
            f"{metric}_count{label_text} "
            f"{_prometheus_value(summary.get('count', 0) or 0)}"
        )
        lines.append(
            f"{metric}_sum{label_text} "
            f"{_prometheus_value(summary.get('sum', 0.0) or 0.0)}"
        )
    return "\n".join(lines) + "\n"
