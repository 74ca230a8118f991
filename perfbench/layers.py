"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public entry points of each layer in spans
and folds them into per-name aggregates: calls, total time, and self
time, which is total time minus the time of the wrapped spans nested
directly inside it.  Because every span subtracts exactly its direct
children, the self times of a span tree add up to the root's total with
nothing counted twice, however the layers nest (an M/G/k build runs
inside both ``controller.decide`` and ``controller.ingest_measurement``).

:func:`install` patches the program's classes in the traced process
only; the untraced process never calls it.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

#: ``after(args, kwargs, result)`` hook of a wrapped call.
After = Callable[[tuple, dict, Any], None]


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class LayerTracer:
    """Span aggregates plus plain counters, reset at the timed window."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: Dict[str, SpanStats] = {}
        self.counters: Dict[str, float] = {}
        #: Total time of spans opened with no wrapped span around them.
        self.root_s = 0.0
        #: Child-time accumulators of the open spans, innermost last.
        self._stack: List[List[float]] = []

    def reset(self) -> None:
        self.spans = {}
        self.counters = {}
        self.root_s = 0.0

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def wrap(self, name: str, fn: Callable[..., Any],
             after: Optional[After] = None) -> Callable[..., Any]:
        """``fn`` timed as span ``name``.

        ``after(args, kwargs, result)`` runs once the span has closed,
        so its cost lands in the parent's self time, not in ``name``.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            stack.append(children)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                else:
                    self.root_s += elapsed
                stats = self.spans.get(name)
                if stats is None:
                    stats = self.spans[name] = SpanStats()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - children[0]
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str,
              after: Optional[After] = None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

    def self_sum_gap_s(self) -> float:
        """|sum of all self times - sum of root totals|; 0 up to rounding."""
        return abs(sum(s.self_s for s in self.spans.values()) - self.root_s)


def mgk_key(services: Any, loads: Any, n_cores: int,
            exclude: Any) -> Tuple[Any, ...]:
    """Identity of one ``latency_training_rows`` build."""
    return (
        tuple(s.name for s in services),
        tuple(float(v) for v in loads),
        int(n_cores),
        None if exclude is None else (exclude[0], float(exclude[1])),
    )


def install(tracer: LayerTracer, snapshot_bytes: List[int]) -> None:
    """Wrap every measured layer's public entry points in ``tracer``.

    Counters: ``controller.budget_ops`` (``DecisionBudget.total_spent``
    growth across ``decide``), ``sgd.iterations``, ``dds.evaluations``,
    ``mgk.builds`` and ``mgk.duplicate_builds`` (a key this process
    already built).  The size of every server snapshot written is
    appended to ``snapshot_bytes``.
    """
    import repro.core.controller as controller_mod
    from repro.core.controller import ResourceController
    from repro.core.dds import DDSSearch
    from repro.core.objective import SystemObjective
    from repro.core.sgd import PQReconstructor
    from repro.experiments.harness import QuantumStepper
    from repro.server.admission import JobQueueManager
    from repro.server.driver import QuantumDriver
    from repro.sim.machine import Machine

    tracer.patch(QuantumStepper, "step", "harness.step")

    decide = tracer.wrap("controller.decide", ResourceController.decide)

    def metered_decide(self: Any, *args: Any, **kwargs: Any) -> Any:
        before = self.budget.total_spent
        try:
            return decide(self, *args, **kwargs)
        finally:
            tracer.count("controller.budget_ops",
                         self.budget.total_spent - before)

    ResourceController.decide = metered_decide  # type: ignore[method-assign]
    tracer.patch(ResourceController, "ingest_profiling", "controller.sanitize")
    tracer.patch(ResourceController, "ingest_measurement",
                 "controller.ingest_measurement")

    def sgd_after(args: tuple, kwargs: dict, result: Any) -> None:
        diagnostics = args[0].last_diagnostics
        if diagnostics is not None:
            tracer.count("sgd.iterations", diagnostics.iterations)

    tracer.patch(PQReconstructor, "reconstruct", "sgd.reconstruct", sgd_after)
    tracer.patch(DDSSearch, "search", "dds.search",
                 lambda args, kwargs, result: tracer.count(
                     "dds.evaluations", result.evaluations))
    tracer.patch(SystemObjective, "evaluate_batch", "objective.evaluate_batch")

    built: Set[Tuple[Any, ...]] = set()

    def mgk_after(args: tuple, kwargs: dict, result: Any) -> None:
        # Call site: ResourceController._latency_matrix passes
        # (services, loads, perf, n_cores, exclude=...).
        key = mgk_key(args[0], args[1], args[3], kwargs.get("exclude"))
        tracer.count("mgk.builds")
        if key in built:
            tracer.count("mgk.duplicate_builds")
        built.add(key)

    # The controller calls the name it imported, so the wrapper goes on
    # repro.core.controller rather than on repro.core.matrices.
    tracer.patch(controller_mod, "latency_training_rows", "mgk.latency_rows",
                 mgk_after)
    tracer.patch(Machine, "profile", "machine.profile")
    tracer.patch(Machine, "run_slice", "machine.run_slice")

    tracer.patch(QuantumDriver, "tick", "server.tick")

    def snapshot_after(args: tuple, kwargs: dict, result: Any) -> None:
        path = args[0].config.state_path
        if path is not None:
            snapshot_bytes.append(os.path.getsize(path))

    tracer.patch(QuantumDriver, "write_snapshot", "server.snapshot",
                 snapshot_after)
    for method in ("submit", "drain", "cancel", "set_rps"):
        tracer.patch(JobQueueManager, method, "server.admission")
