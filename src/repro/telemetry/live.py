"""Live telemetry: streaming events and rolling windows.

Everything in :mod:`repro.telemetry` so far is post-hoc: a run's spans
and metrics become visible only after it finishes and ``merge_jsonl``
stitches the per-unit shards.  This module closes the gap for
long-running fleet studies with two pieces:

* **A bounded, non-blocking event bus.**  Workers push small event
  dicts (quantum outcomes, unit lifecycle, worker health) through a
  bounded queue as they happen.  The one blessed emission call is
  :func:`offer`: it never blocks the decision loop — a full queue
  *drops* the event and counts the drop.  The ``TEL403`` lint rule
  enforces that emission sites go through it.
* **Rolling-window aggregation.**  :class:`LiveAggregator` consumes
  events plus each completed unit's counters and drift instants and
  maintains :class:`RollingWindow` percentile sketches over quantum
  latency, QoS violations, power-cap headroom and prediction accuracy,
  alongside per-unit / per-worker health tallies — the state behind
  ``--watch`` on the grid verbs and ``repro top``.  The merged log
  itself is only ever built post hoc, by ``merge_jsonl``.

Events are observability only: dropping every single one changes no
result byte — the determinism contract of docs/scaling.md is untouched.
"""

from __future__ import annotations

import math
import queue as queue_mod
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.telemetry.metrics import percentile

__all__ = [
    "CallbackSink",
    "LiveAggregator",
    "LiveEmitter",
    "RollingWindow",
    "current_emitter",
    "emit",
    "install_emitter",
    "offer",
    "render_live_status",
]


def offer(sink: Any, event: Any,
          on_drop: Optional[Callable[[Any], None]] = None) -> bool:
    """Bounded, non-blocking enqueue — the blessed live-emission call.

    Returns ``True`` when the event was accepted.  A full queue (or one
    torn down mid-shutdown) *drops* the event, fires ``on_drop``, and
    returns ``False``: live telemetry must never block or kill the
    decision loop, so backpressure costs events, not latency.  The
    ``TEL403`` lint rule requires emission sites to route through here
    instead of calling ``queue.put`` directly.
    """
    try:
        sink.put_nowait(event)
    except queue_mod.Full:
        pass
    except (OSError, ValueError):  # queue closed during shutdown
        pass
    else:
        return True
    if on_drop is not None:
        on_drop(event)
    return False


class CallbackSink:
    """Adapts a plain callable to the queue face :func:`offer` expects.

    The serial (``--jobs 1``) fleet path has no process boundary, so
    events go straight to the aggregator through this shim — same
    emission code path as workers, zero queueing.
    """

    def __init__(self, fn: Callable[[Any], None]) -> None:
        self._fn = fn

    def put_nowait(self, event: Any) -> None:
        self._fn(event)


class LiveEmitter:
    """Per-unit event source wrapping one sink with drop accounting.

    ``emit`` stamps every event with the unit id (and worker name when
    known) and tallies ``emitted`` vs ``dropped`` — the drop counter
    travels home in the ``unit_finished`` event so the aggregator's
    ``dropped_events`` total stays exact even for lossy runs.
    """

    def __init__(self, sink: Any, unit_id: str = "",
                 worker: str = "") -> None:
        self.sink = sink
        self.unit_id = unit_id
        self.worker = worker
        self.emitted = 0
        self.dropped = 0

    def emit(self, kind: str, **payload: Any) -> bool:
        """Offer one event; returns whether it was accepted."""
        event: Dict[str, Any] = dict(payload)
        event["kind"] = kind
        event["unit"] = self.unit_id
        if self.worker:
            event["worker"] = self.worker
        if offer(self.sink, event):
            self.emitted += 1
            return True
        self.dropped += 1
        return False


#: Process-local emitter slot.  Fleet workers install a per-unit
#: emitter around ``unit.run()`` so deeply nested instrumentation (the
#: harness's per-quantum hook) can stream without threading an object
#: through every call signature.  ``None`` (the default, and always
#: the state outside a streaming fleet run) makes :func:`emit` a
#: near-zero-cost no-op.
_EMITTER: Optional[LiveEmitter] = None


def install_emitter(emitter: Optional[LiveEmitter]) -> Optional[LiveEmitter]:
    """Install (or clear, with ``None``) the process-local emitter.

    Returns the previously installed emitter so callers can restore it
    in a ``finally`` — the fleet worker loop scopes an emitter strictly
    to one unit's execution.
    """
    global _EMITTER
    prior = _EMITTER
    # This rebinding IS the per-process hook: the worker loop installs
    # an emitter scoped to one unit and restores the prior value in a
    # finally, so no state leaks between units or back to the parent.
    _EMITTER = emitter  # repro: noqa[FLT502]
    return prior


def current_emitter() -> Optional[LiveEmitter]:
    """The process-local emitter, or ``None`` when not streaming."""
    return _EMITTER


def emit(kind: str, **payload: Any) -> bool:
    """Emit through the installed emitter; no-op without one."""
    emitter = _EMITTER
    if emitter is None:
        return False
    return emitter.emit(kind, **payload)


# ----------------------------------------------------------------------
# Rolling windows
# ----------------------------------------------------------------------

class RollingWindow:
    """Sliding window over the last ``size`` float samples.

    The bounded cousin of :class:`repro.telemetry.metrics.Histogram`:
    same linear-interpolated percentiles, but old samples age out, so
    the summary tracks *recent* behaviour of an arbitrarily long run at
    O(size) memory.  NaN samples are dropped at observation.
    """

    __slots__ = ("name", "samples", "total")

    def __init__(self, name: str, size: int = 256) -> None:
        if size < 1:
            raise ValueError("window size must be >= 1")
        self.name = name
        self.samples: "deque[float]" = deque(maxlen=size)
        #: Lifetime observation count (windowed samples plus aged-out).
        self.total = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isnan(value):
            self.samples.append(value)
            self.total += 1

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def last(self) -> float:
        return self.samples[-1] if self.samples else math.nan

    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return sum(self.samples) / len(self.samples)

    def rate(self) -> float:
        """Fraction of in-window samples that are non-zero.

        The windowed event *rate* for 0/1 observations (QoS violated,
        power violated): 0.25 means a quarter of recent quanta fired.
        """
        if not self.samples:
            return 0.0
        return sum(1 for s in self.samples if s) / len(self.samples)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile; NaN when empty."""
        return percentile(self.samples, q)

    def summary(self) -> Dict[str, float]:
        """count (lifetime) / windowed mean / last / p50 / p95 / p99."""
        return {
            "count": self.total,
            "window": len(self.samples),
            "mean": self.mean(),
            "last": self.last,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

class LiveAggregator:
    """Rolling operator-facing state of one fleet run.

    Two input faces:

    * :meth:`ingest_event` — streamed event dicts (quantum outcomes,
      unit lifecycle, retries) feeding the rolling windows and health
      tallies; lossy by design.
    * :meth:`ingest` — a completed unit's telemetry records, of which
      the live view keeps the counter totals and drift instants.

    :meth:`replay` rebuilds the rolling state from an already-merged
    JSONL log, so ``repro top`` can render a finished (or in-progress,
    re-read) run the same way ``--watch`` renders a live one.
    """

    def __init__(self, window: int = 256) -> None:
        self._ingested: Set[str] = set()
        self.window_size = window
        self.windows: Dict[str, RollingWindow] = {}
        self.counter_totals: Dict[str, float] = {}
        self.units: Dict[str, Dict[str, Any]] = {}
        self.workers: Dict[str, Dict[str, int]] = {}
        self.drift_events: List[Dict] = []
        self.events_seen = 0
        self.dropped_events = 0
        self.quanta = 0
        self.qos_violations = 0
        self.power_violations = 0
        self.retries = 0
        self.serial_fallbacks = 0

    # -- rolling-window face -------------------------------------------

    def window(self, name: str) -> RollingWindow:
        if name not in self.windows:
            self.windows[name] = RollingWindow(name, self.window_size)
        return self.windows[name]

    def record_drop(self, n: int = 1) -> None:
        """Account events dropped outside any emitter (parent side)."""
        self.dropped_events += n

    def ingest_event(self, event: Dict[str, Any]) -> None:
        """Fold one streamed event into the rolling state."""
        self.events_seen += 1
        kind = event.get("kind")
        worker = event.get("worker") or ""
        if worker:
            health = self.workers.setdefault(
                worker, {"events": 0, "retries": 0}
            )
            health["events"] += 1
        unit = event.get("unit") or ""
        if unit:
            status = self.units.setdefault(
                unit, {"state": "running", "events": 0, "worker": worker}
            )
            status["events"] += 1
            if worker:
                status["worker"] = worker
        if kind == "quantum":
            self._ingest_quantum(event)
        elif kind == "drift":
            self.drift_events.append(dict(event))
        elif kind == "unit_started" and unit:
            self.units[unit]["state"] = "running"
        elif kind == "unit_finished" and unit:
            ok = event.get("ok", True)
            self.units[unit]["state"] = "done" if ok else "failed"
            self.dropped_events += int(event.get("dropped", 0) or 0)
        elif kind == "unit_retry":
            self.retries += 1
            if worker:
                self.workers[worker]["retries"] += 1
            if unit:
                self.units[unit]["state"] = "retrying"
        elif kind == "serial_fallback":
            self.serial_fallbacks += 1

    def _ingest_quantum(self, event: Dict[str, Any]) -> None:
        self.quanta += 1
        p99_ms = event.get("lc_p99_ms")
        if p99_ms is not None:
            self.window("quantum.lc_p99_ms").observe(p99_ms)
        power = event.get("power_w")
        budget = event.get("budget_w")
        if power is not None:
            self.window("quantum.power_w").observe(power)
        if power is not None and budget:
            self.window("quantum.headroom_pct").observe(
                (budget - power) / budget * 100.0
            )
        qos_violated = bool(event.get("qos_violated"))
        self.window("quantum.qos_violation").observe(
            1.0 if qos_violated else 0.0
        )
        if qos_violated:
            self.qos_violations += 1
        if event.get("power_violated"):
            self.power_violations += 1
        predicted = event.get("predicted_power_w")
        if predicted and power and predicted > 0 and power > 0:
            self.window("accuracy.power_err_pct").observe(
                abs((predicted - power) / power * 100.0)
            )

    # -- completed-unit face -------------------------------------------

    def ingest(self, unit_id: str, records: Iterable[Dict]) -> None:
        """Fold one completed unit's counters and drift instants in.

        A unit ingested twice would double its counters, so a
        duplicate unit id raises.
        """
        if unit_id in self._ingested:
            raise ValueError(f"duplicate unit id {unit_id!r} in ingest")
        self._ingested.add(unit_id)
        for rec in records:
            kind = rec.get("type")
            if kind == "counter":
                self.counter_totals[rec["name"]] = (
                    self.counter_totals.get(rec["name"], 0) + rec["value"]
                )
            elif kind == "instant" and "drift" in rec.get("name", ""):
                self.drift_events.append({**rec, "unit": unit_id})

    # -- replay (post-hoc logs) ----------------------------------------

    def replay(self, records: Iterable[Dict]) -> "LiveAggregator":
        """Rebuild rolling state from a merged JSONL log; returns self.

        ``repro top`` uses this to render a log file with the same
        status view ``--watch`` renders live.  Counter names carrying
        fleet/harness totals map onto the matching live tallies.
        """
        totals = {
            "harness.qos_violations": 0,
            "harness.power_violations": 0,
            "fleet.retries": 0,
            "fleet.serial_fallbacks": 0,
            "live.dropped_events": 0,
        }
        for rec in records:
            kind = rec.get("type")
            unit = rec.get("unit") or ""
            if unit and unit not in self.units:
                self.units[unit] = {
                    "state": "done", "events": 0, "worker": "",
                }
            if kind == "counter":
                name = rec["name"]
                self.counter_totals[name] = (
                    self.counter_totals.get(name, 0) + rec["value"]
                )
                if name in totals:
                    totals[name] += rec["value"]
            elif kind == "decision":
                self.quanta += 1
                measured_p99 = rec.get("measured_p99_s") or []
                if measured_p99 and measured_p99[0] is not None:
                    self.window("quantum.lc_p99_ms").observe(
                        measured_p99[0] * 1e3
                    )
                power = rec.get("measured_power_w")
                if power is not None:
                    self.window("quantum.power_w").observe(power)
                predicted = rec.get("predicted_power_w")
                if predicted and power and predicted > 0 and power > 0:
                    self.window("accuracy.power_err_pct").observe(
                        abs((predicted - power) / power * 100.0)
                    )
            elif kind == "instant" and "drift" in rec.get("name", ""):
                self.drift_events.append(dict(rec))
        self.qos_violations += int(totals["harness.qos_violations"])
        self.power_violations += int(totals["harness.power_violations"])
        self.retries += int(totals["fleet.retries"])
        self.serial_fallbacks += int(totals["fleet.serial_fallbacks"])
        self.dropped_events += int(totals["live.dropped_events"])
        return self

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view of the rolling state (JSON-serialisable)."""
        return {
            "quanta": self.quanta,
            "qos_violations": self.qos_violations,
            "power_violations": self.power_violations,
            "retries": self.retries,
            "serial_fallbacks": self.serial_fallbacks,
            "events_seen": self.events_seen,
            "dropped_events": self.dropped_events,
            "drift_events": len(self.drift_events),
            "units": {
                unit_id: dict(status)
                for unit_id, status in sorted(self.units.items())
            },
            "workers": {
                name: dict(health)
                for name, health in sorted(self.workers.items())
            },
            "counters": dict(sorted(self.counter_totals.items())),
            "windows": {
                name: self.windows[name].summary()
                for name in sorted(self.windows)
            },
        }


def render_live_status(aggregator: LiveAggregator) -> str:
    """Curses-free terminal status view of one aggregator's state.

    Deterministic in the aggregator's state (no wall clock), so the
    same events always render the same screen — testable, and safe to
    write to stderr mid-run without perturbing stdout determinism.
    """
    snap = aggregator.snapshot()
    states = [status["state"] for status in snap["units"].values()]
    done = sum(1 for s in states if s == "done")
    running = sum(1 for s in states if s in ("running", "retrying"))
    failed = sum(1 for s in states if s == "failed")
    lines = ["live fleet status", "=" * 17]
    unit_line = (
        f"units: {done} done / {running} running / {len(states)} seen"
    )
    if failed:
        unit_line += f" / {failed} FAILED"
    lines.append(unit_line)
    lines.append(
        f"quanta: {snap['quanta']}   "
        f"qos violations: {snap['qos_violations']}   "
        f"power violations: {snap['power_violations']}"
    )
    lines.append(
        f"retries: {snap['retries']}   "
        f"serial fallbacks: {snap['serial_fallbacks']}   "
        f"dropped events: {snap['dropped_events']}"
    )
    if snap["drift_events"]:
        lines.append(f"drift events: {snap['drift_events']}")
    rungs = {
        name[len("controller.degradation."):]: value
        for name, value in snap["counters"].items()
        if name.startswith("controller.degradation.") and value
        and name != "controller.degradation.rungs"
    }
    if rungs:
        total = snap["counters"].get("controller.degradation.rungs", 0)
        detail = ", ".join(
            f"{rung}: {value}" for rung, value in sorted(rungs.items())
        )
        lines.append(f"deadline degradations: {total} ({detail})")
    if snap["windows"]:
        lines.append("")
        lines.append(
            f"rolling window (last {aggregator.window_size}):"
            f"{'':<9} last    mean     p95"
        )
        for name, s in snap["windows"].items():
            lines.append(
                f"  {name:<30} {s['last']:>7.2f} {s['mean']:>7.2f} "
                f"{s['p95']:>7.2f}"
            )
    if snap["units"]:
        lines.append("")
        lines.append("per unit:")
        for unit_id, status in snap["units"].items():
            worker = status["worker"] or "-"
            lines.append(
                f"  [{status['state']:<8}] {unit_id:<28} "
                f"{status['events']:>4} event(s)  {worker}"
            )
    if snap["workers"]:
        lines.append("")
        lines.append("per worker:")
        for name, health in snap["workers"].items():
            lines.append(
                f"  {name:<12} {health['events']:>5} event(s)  "
                f"{health['retries']} retry(ies)"
            )
    return "\n".join(lines)
