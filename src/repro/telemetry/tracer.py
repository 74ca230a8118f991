"""Lightweight span/event tracer for the scheduler stack.

Every phase of the Fig. 3 decision loop — profiling, SGD
reconstruction, the LC configuration scan, the DDS search,
reconfiguration, slice execution — is wrapped in a :class:`Span` via
``tracer.span("sgd")``.  Spans nest (a thread-local-style stack tracks
depth and parents), time with the monotonic clock
(:func:`time.perf_counter_ns`), and can carry arbitrary key/value
arguments set at entry or exit.

When tracing is off the module-level :data:`NULL_TRACER` is used: its
``span``/``instant`` calls return a shared singleton whose
``__enter__``/``__exit__`` do nothing, so instrumented code pays a
single attribute lookup and no allocation — near-zero cost on hot
paths.  Tracing changes no RNG draw and no decision, so a traced run
does exactly an untraced run's work: the exact operation-counter
golden (``tests/telemetry/test_op_counters.py``) reads its counts from
a traced run's spans.

Exporters (see :mod:`repro.telemetry.exporters`) turn the recorded
spans into JSONL event logs or Chrome ``trace_event`` JSON loadable in
``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional


@dataclass
class Span:
    """One timed, possibly nested, named interval."""

    name: str
    category: str = ""
    #: Start time, ns since the owning tracer's epoch.
    start_ns: int = 0
    #: Duration in ns (0 until the span closes).
    duration_ns: int = 0
    #: Nesting depth at entry (0 = top level).
    depth: int = 0
    #: Open-order id, assigned by the tracer.
    id: int = 0
    #: Id of the enclosing span (-1 = top level).
    parent: int = -1
    #: Free-form attributes (small, JSON-serialisable values).
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        """Span duration in seconds."""
        return self.duration_ns / 1e9

    @property
    def start_s(self) -> float:
        """Span start in seconds since the tracer epoch."""
        return self.start_ns / 1e9

    @property
    def end_ns(self) -> int:
        """Span end, ns since the tracer epoch."""
        return self.start_ns + self.duration_ns

    def set(self, **args: Any) -> "Span":
        """Attach attributes (usable mid-span, e.g. iteration counts)."""
        self.args.update(args)
        return self


@dataclass(frozen=True)
class Instant:
    """A zero-duration marker event (e.g. ``reconfigure`` or churn)."""

    name: str
    timestamp_ns: int
    category: str = ""
    args: Dict[str, Any] = field(default_factory=dict)


class _ActiveSpan:
    """Context manager binding one open :class:`Span` to its tracer."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self.span = span

    def set(self, **args: Any) -> "_ActiveSpan":
        self.span.set(**args)
        return self

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self.span)


class _NullSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    #: Mirrors :class:`Span` so timing consumers need no branches.
    duration_s = 0.0
    duration_ns = 0
    start_ns = 0
    depth = 0
    args: Dict[str, Any] = {}

    def set(self, **args: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer stand-in that records nothing and allocates nothing."""

    __slots__ = ()

    enabled = False
    spans: List[Span] = []
    instants: List[Instant] = []

    def span(self, name: str, category: str = "", **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "", **args: Any) -> None:
        return None

    def durations_s(self, name: str) -> List[float]:
        return []

    def clear(self) -> None:
        return None


#: The process-wide disabled tracer; instrumented code defaults to it.
NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans against one monotonic-clock epoch."""

    def __init__(self) -> None:
        self.enabled = True
        self.epoch_ns = time.perf_counter_ns()
        #: Closed spans in completion order.
        self.spans: List[Span] = []
        #: Zero-duration marker events in emission order.
        self.instants: List[Instant] = []
        self._stack: List[Span] = []
        self._next_id = 0

    # ------------------------------------------------------------------

    def span(self, name: str, category: str = "", **args: Any) -> _ActiveSpan:
        """Open a nested span; use as ``with tracer.span("sgd") as sp:``."""
        span = Span(
            name=name,
            category=category,
            start_ns=time.perf_counter_ns() - self.epoch_ns,
            depth=len(self._stack),
            id=self._next_id,
            parent=self._stack[-1].id if self._stack else -1,
            args=dict(args) if args else {},
        )
        self._next_id += 1
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def _close(self, span: Span) -> None:
        span.duration_ns = (
            time.perf_counter_ns() - self.epoch_ns - span.start_ns
        )
        # Pop the stack down to (and including) this span; tolerate
        # out-of-order exits from exception unwinding.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.spans.append(span)

    def instant(self, name: str, category: str = "", **args: Any) -> None:
        """Emit a zero-duration marker event."""
        self.instants.append(
            Instant(
                name=name,
                timestamp_ns=time.perf_counter_ns() - self.epoch_ns,
                category=category,
                args=dict(args) if args else {},
            )
        )

    # ------------------------------------------------------------------

    def durations_s(self, name: str) -> List[float]:
        """All closed durations (seconds) of spans named ``name``."""
        return [s.duration_s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> Iterator[Span]:
        """Closed spans strictly inside ``span`` (time containment)."""
        for other in self.spans:
            if other is span:
                continue
            if (
                other.start_ns >= span.start_ns
                and other.end_ns <= span.end_ns
                and other.depth > span.depth
            ):
                yield other

    def clear(self) -> None:
        """Drop all recorded spans/instants and reset the epoch."""
        self.spans.clear()
        self.instants.clear()
        self._stack.clear()
        self._next_id = 0
        self.epoch_ns = time.perf_counter_ns()


def tracer_of(telemetry: Optional[object]) -> "Tracer | NullTracer":
    """The tracer carried by a telemetry session, or the null tracer.

    Accepts ``None``, a :class:`Tracer`, or anything with a ``tracer``
    attribute (a :class:`repro.telemetry.Telemetry` session), so
    instrumented constructors can take one loosely-typed argument.
    """
    if telemetry is None:
        return NULL_TRACER
    if isinstance(telemetry, (Tracer, NullTracer)):
        return telemetry
    inner = getattr(telemetry, "tracer", None)
    if isinstance(inner, (Tracer, NullTracer)):
        return inner
    return NULL_TRACER


@dataclass(frozen=True)
class MeteredPhase:
    """One row of :data:`METERED_PHASES`: a phase's span and its price.

    Each run records a span ``name`` of ``category`` whose arg ``unit``
    counts its work, and charges ``price(units)`` budget operations
    under ``name`` (:class:`repro.core.deadline.PhaseMeter`).  ``stage``
    is the controller span of ``decide()`` that runs it.
    """

    name: str
    category: str
    unit: str
    stage: str
    #: Operations charged per unit of work.
    unit_price: int = 1
    #: Operations charged per span, whatever its work.
    call_price: int = 0

    def price(self, units: int) -> int:
        """Operations one span that did ``units`` of work costs."""
        return self.call_price + self.unit_price * units


#: Operations one latency-regime build costs, whatever its rows: array
#: arithmetic priced in SGD-iteration and DDS-evaluation currency, and
#: not yet recalibrated (docs/robustness.md, "Pricing a regime build").
REGIME_BUILD_COST = 400

SGD_RECONSTRUCT = MeteredPhase("sgd.reconstruct", "sgd", "iterations", "sgd")
DDS_SEARCH = MeteredPhase("dds.search", "dds", "evaluations", "search")
GA_SEARCH = MeteredPhase("ga.search", "ga", "evaluations", "search")
MGK_LATENCY = MeteredPhase(
    "mgk.latency", "controller", "evaluations", "lc_scan",
    unit_price=0, call_price=REGIME_BUILD_COST,
)

#: Every metered phase, in the profiler's phase-table order.
METERED_PHASES = (SGD_RECONSTRUCT, DDS_SEARCH, GA_SEARCH, MGK_LATENCY)
