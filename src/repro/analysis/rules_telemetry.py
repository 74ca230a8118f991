"""Telemetry hygiene rules.

Spans measure wall-time between ``__enter__`` and ``__exit__``; a span
opened outside a ``with`` block leaks on any exception path, which
corrupts the nesting stack and every enclosing span's self-time
(docs/observability.md).

Metric names are a public-ish surface: exporters, dashboards, and the
regression-gate baselines all key on them, so TEL402 pins the naming
convention (dot-namespaced, ``owner.event`` style) and catches the
same literal name being registered as two different instrument kinds.

TEL403 guards the live event bus: inside the streaming modules
(``repro.telemetry.live`` and ``repro.fleet``) a bare blocking
``queue.put`` can stall a fleet worker behind a slow consumer, and a
bare ``put_nowait`` silently loses the event.  Every enqueue must go
through the drop-accounting ``offer`` helper or carry a ``timeout=``
(with an explicit suppression where the blocking put is the point,
e.g. the result queue).

TEL404 keeps the metrics reference honest: every literal metric name
registered in the live tree must have a row in
``repro.telemetry.metrics_doc.METRICS_REFERENCE`` — the registry the
docs/observability.md table is generated from — so a new metric cannot
ship undocumented.
"""

from __future__ import annotations

import ast
import re
from typing import TYPE_CHECKING, Dict, Iterator, Set, Tuple

from repro.analysis.engine import (
    LintContext,
    ProgramRule,
    Rule,
    Violation,
    dotted_name,
    register,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.program import ProgramContext


def _is_span_call(node: ast.Call) -> bool:
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr != "span":
        return False
    receiver = dotted_name(func.value)
    if receiver is None:
        return False
    tail = receiver.rsplit(".", 1)[-1].lower()
    return any(hint in tail for hint in ("trace", "tracer", "telemetry"))


@register
class SpanOutsideWithRule(Rule):
    id = "TEL401"
    scope = "file"
    title = "tracer span opened outside a with statement"
    rationale = (
        "A span not bound to a with block never closes on exceptions, "
        "leaving the tracer's span stack unbalanced and every "
        "enclosing span's timing wrong.  Forwarding a freshly built "
        "span out of a helper (return tracer.span(...)) is the one "
        "allowed non-with use."
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        allowed: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    allowed.add(id(item.context_expr))
            elif isinstance(node, ast.Return) and node.value is not None:
                allowed.add(id(node.value))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not _is_span_call(node):
                continue
            if id(node) in allowed:
                continue
            yield ctx.violation(
                self, node,
                "span() opened outside a with statement; use "
                "`with tracer.span(...):` so exit runs on every path",
            )


_METRIC_FACTORIES = ("counter", "gauge", "histogram")
#: Dot-namespaced lowercase identifiers: ``harness.job_churn``,
#: ``accuracy.drift.flags`` — at least one dot, no leading digits.
_METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")


def _metric_registration(node: ast.Call) -> Tuple[str, str]:
    """``(kind, literal_name)`` when this is a checkable registration.

    Only literal-string first arguments are checked; dynamic names
    (f-strings like ``f"accuracy.app.{name}"``, variables) are exempt
    because their shape cannot be validated statically.
    """
    func = node.func
    if not isinstance(func, ast.Attribute):
        return "", ""
    if func.attr not in _METRIC_FACTORIES:
        return "", ""
    receiver = dotted_name(func.value)
    if receiver is None:
        return "", ""
    tail = receiver.rsplit(".", 1)[-1].lower()
    hinted = any(
        hint in tail for hint in ("metrics", "registry", "telemetry")
    )
    if not hinted and receiver != "self":
        return "", ""
    if not node.args:
        return "", ""
    first = node.args[0]
    if not isinstance(first, ast.Constant) or not isinstance(
        first.value, str
    ):
        return "", ""
    return func.attr, first.value


@register
class MetricNameConventionRule(Rule):
    id = "TEL402"
    scope = "file"
    title = "metric name off-convention or registered as two kinds"
    rationale = (
        "Exporters, docs, and the operation-counter golden key on "
        "metric names, so they must be stable dot-namespaced identifiers "
        "(`owner.event`, lowercase, at least one dot).  Registering "
        "the same name as two instrument kinds (counter and gauge, "
        "say) silently forks state in the registry, and the exports "
        "become ambiguous."
    )

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        kinds_seen: Dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            kind, name = _metric_registration(node)
            if not kind:
                continue
            if not _METRIC_NAME.match(name):
                yield ctx.violation(
                    self, node,
                    f"metric name {name!r} is off-convention; use "
                    "dot-namespaced lowercase `owner.event` names "
                    "(e.g. 'harness.job_churn')",
                )
                continue
            prior = kinds_seen.setdefault(name, kind)
            if prior != kind:
                yield ctx.violation(
                    self, node,
                    f"metric {name!r} registered as both {prior} and "
                    f"{kind}; one name must map to one instrument kind",
                )


@register
class MetricUndocumentedRule(ProgramRule):
    id = "TEL404"
    title = "metric registered in the live tree but missing from the metrics reference"
    rationale = (
        "The docs/observability.md metrics table is generated from "
        "repro.telemetry.metrics_doc.METRICS_REFERENCE; a literal "
        "registration without a row there is a metric operators can "
        "see in exports but cannot look up.  Add a MetricDoc row "
        "(name, kind, unit, module, description).  Dynamic f-string "
        "names are exempt here but must be documented as explicit "
        "{placeholder} family rows."
    )

    def check_program(
        self, program: "ProgramContext"
    ) -> Iterator[Violation]:
        # Imported lazily: the analysis package must stay importable
        # without pulling the telemetry tree in at module scope.
        from repro.telemetry.metrics_doc import documented_names

        documented = documented_names()
        for mod in program.modules.values():
            if not (
                mod.module == "repro"
                or mod.module.startswith("repro.")
            ):
                continue
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                kind, name = _metric_registration(node)
                if not kind:
                    continue
                # Off-convention names are TEL402's finding; flagging
                # them twice would just be noise.
                if not _METRIC_NAME.match(name):
                    continue
                if name in documented:
                    continue
                yield Violation(
                    path=mod.path,
                    line=node.lineno,
                    col=node.col_offset,
                    rule=self.id,
                    message=(
                        f"metric {name!r} ({kind}) has no row in "
                        "METRICS_REFERENCE (repro.telemetry."
                        "metrics_doc); document it so the generated "
                        "docs table stays complete"
                    ),
                )


def _queue_receiver(node: ast.Call) -> str:
    """The dotted receiver when this call targets a queue-ish object."""
    func = node.func
    if not isinstance(func, ast.Attribute):
        return ""
    receiver = dotted_name(func.value)
    if receiver is None:
        return ""
    tail = receiver.rsplit(".", 1)[-1].lower()
    if tail == "q" or tail.endswith("_q") or "queue" in tail:
        return receiver
    return ""


@register
class UnboundedQueuePutRule(Rule):
    id = "TEL403"
    scope = "file"
    title = "queue put without timeout or drop accounting on the event bus"
    rationale = (
        "The live event bus must never stall a fleet worker behind a "
        "slow consumer (blocking put) and must never lose an event "
        "without a trace (bare put_nowait).  Inside repro.telemetry."
        "live and repro.fleet, enqueue through the offer() helper, "
        "which drops-with-counter on backpressure, or give the put an "
        "explicit timeout=.  Control-plane puts where blocking is the "
        "point (task/result queues) carry a per-line suppression."
    )

    #: Only the streaming modules are in scope; queues elsewhere are
    #: not part of the event-bus contract.
    _MODULES = ("repro.telemetry.live", "repro.fleet")

    def check(self, ctx: LintContext) -> Iterator[Violation]:
        if not ctx.module_in(*self._MODULES):
            return
        # The offer() helpers *are* the drop-accounting path; their
        # bodies legitimately call put_nowait.
        offer_lines: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and "offer" in node.name:
                for child in ast.walk(node):
                    if isinstance(child, ast.Call):
                        offer_lines.add(id(child))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            receiver = _queue_receiver(node)
            if not receiver:
                continue
            if func.attr == "put":
                if any(kw.arg == "timeout" for kw in node.keywords):
                    continue
                yield ctx.violation(
                    self, node,
                    f"blocking {receiver}.put() on the event bus; use "
                    "offer() (drop-with-counter) or pass timeout=",
                )
            elif func.attr == "put_nowait":
                if id(node) in offer_lines:
                    continue
                yield ctx.violation(
                    self, node,
                    f"bare {receiver}.put_nowait() loses events "
                    "silently on backpressure; enqueue through "
                    "offer() so drops are counted",
                )
