"""Deterministic virtual-cost profiler over recorded telemetry spans.

The tracer already times every phase of the decision loop; this module
aggregates those spans into a **call tree** keyed by name path
(``quantum;decide;search;dds.search``) and attributes two kinds of cost
to each node:

* **wall time** — inclusive (span duration) and exclusive (duration
  minus direct children), useful for humans but machine-dependent;
* **operation counters** — the RNG-safe virtual-time quantities the
  spans already carry as args (``evaluations``, ``iterations``), the
  same quantities :class:`~repro.core.deadline.DecisionBudget` meters.

The operation-counter component is a pure function of the recorded
span structure, so a profile of a fleet-merged log is **byte-identical
across runs and ``--jobs`` levels** — that is what CI diffs.  Exports:

* :func:`folded_stacks` — ``flamegraph.pl``-compatible folded lines;
* :func:`chrome_trace_from_profile` — a synthesized Chrome
  ``trace_event`` view of the merged tree (children laid out
  depth-first), loadable in Perfetto;
* :func:`render_profile_table` — the "top N costs" table behind
  ``python -m repro profile``;
* :func:`render_phase_table` — one row per metered phase
  (:data:`~repro.telemetry.tracer.METERED_PHASES`), plus
  ``controller.overhead``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.telemetry.tracer import METERED_PHASES

__all__ = [
    "OP_KEYS",
    "ProfileNode",
    "build_profile",
    "chrome_trace_from_profile",
    "folded_stacks",
    "iter_nodes",
    "phase_summary",
    "profile_telemetry",
    "render_phase_table",
    "render_profile_table",
    "write_folded",
    "write_profile_chrome_trace",
]

#: Span args treated as RNG-safe operation counters: the units the
#: metered phases count their work in — never wall-derived.
OP_KEYS: Tuple[str, ...] = tuple(sorted({p.unit for p in METERED_PHASES}))

#: Harness spans whose *exclusive* time, with that of every other
#: ``controller``-category span, is the ``controller.overhead`` row.
_CONTROLLER_SPANS = ("decide", "observe")


class ProfileNode:
    """One call-tree node: a span name at a specific name path."""

    __slots__ = (
        "name", "category", "count", "inclusive_us", "exclusive_us",
        "ops", "children",
    )

    def __init__(self, name: str, category: str = "") -> None:
        self.name = name
        self.category = category
        #: Spans merged into this node.
        self.count = 0
        #: Wall microseconds including children (diagnostic only).
        self.inclusive_us = 0.0
        #: Wall microseconds minus direct children (diagnostic only).
        self.exclusive_us = 0.0
        #: Deterministic operation counters summed from span args.
        self.ops: Dict[str, int] = {}
        self.children: Dict[str, "ProfileNode"] = {}

    def ops_total(self) -> int:
        return sum(self.ops.values())

    def child(self, name: str, category: str = "") -> "ProfileNode":
        node = self.children.get(name)
        if node is None:
            node = ProfileNode(name, category)
            self.children[name] = node
        elif not node.category and category:
            node.category = category
        return node


def build_profile(records: Iterable[Dict[str, Any]]) -> ProfileNode:
    """Aggregate span records into one merged call tree.

    ``records`` is a parsed JSONL log — a single session's or a
    fleet-merged one (``unit``-tagged spans keep per-unit parent links,
    so each unit's tree is rebuilt independently, then merged by name
    path).  Returns a synthetic root whose children are the top-level
    spans.
    """
    by_unit: Dict[Any, List[Dict[str, Any]]] = {}
    for rec in records:
        if rec.get("type") != "span":
            continue
        by_unit.setdefault(rec.get("unit"), []).append(rec)

    root = ProfileNode("", "")
    for unit in sorted(by_unit, key=lambda u: (u is not None, u)):
        spans = by_unit[unit]
        by_id = {span["id"]: span for span in spans}
        child_dur: Dict[int, float] = {}
        for span in spans:
            parent = span.get("parent", -1)
            if parent != -1:
                child_dur[parent] = (
                    child_dur.get(parent, 0.0) + float(span["dur_us"])
                )

        def path_of(span: Dict[str, Any]) -> List[Dict[str, Any]]:
            chain = [span]
            seen = {span["id"]}
            parent = span.get("parent", -1)
            while parent != -1 and parent in by_id and parent not in seen:
                seen.add(parent)
                chain.append(by_id[parent])
                parent = by_id[parent].get("parent", -1)
            chain.reverse()
            return chain

        for span in spans:
            node = root
            for link in path_of(span):
                node = node.child(link["name"], link.get("cat", ""))
            node.count += 1
            dur = float(span["dur_us"])
            node.inclusive_us += dur
            node.exclusive_us += max(
                0.0, dur - child_dur.get(span["id"], 0.0)
            )
            args = span.get("args") or {}
            for key in OP_KEYS:
                value = args.get(key)
                if isinstance(value, (int, float)) and not isinstance(
                    value, bool
                ):
                    node.ops[key] = node.ops.get(key, 0) + int(value)
    return root


def profile_telemetry(telemetry: Any) -> ProfileNode:
    """Profile a live :class:`~repro.telemetry.Telemetry` session.

    Round-trips the session through the JSONL exporter so the profile
    of a live run and of its archived log are the same by construction.
    """
    from repro.telemetry.exporters import telemetry_records

    return build_profile(telemetry_records(telemetry))


def iter_nodes(
    root: ProfileNode, prefix: Tuple[str, ...] = ()
) -> Iterator[Tuple[Tuple[str, ...], ProfileNode]]:
    """Depth-first ``(name path, node)`` pairs in sorted-name order."""
    for name in sorted(root.children):
        node = root.children[name]
        path = prefix + (name,)
        yield path, node
        yield from iter_nodes(node, path)


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------

def folded_stacks(root: ProfileNode, weight: str = "exclusive_us") -> str:
    """Folded-stack lines (``a;b;c 123``) for ``flamegraph.pl``.

    ``weight`` selects the per-line integer: ``exclusive_us`` (wall
    self-time, the conventional flame graph), ``ops`` (deterministic
    operation counts), or ``count`` (span counts).  Lines are sorted,
    zero-weight frames dropped.
    """
    if weight not in ("exclusive_us", "ops", "count"):
        raise ValueError(f"unknown folded-stack weight {weight!r}")
    lines: List[str] = []
    for path, node in iter_nodes(root):
        if weight == "exclusive_us":
            value = int(round(node.exclusive_us))
        elif weight == "ops":
            value = node.ops_total()
        else:
            value = node.count
        if value > 0:
            lines.append(";".join(path) + f" {value}")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def chrome_trace_from_profile(root: ProfileNode) -> List[Dict[str, Any]]:
    """The merged call tree as Chrome ``trace_event`` complete events.

    A synthesized timeline: children are laid out depth-first from
    their parent's start, each node one ``ph: "X"`` slice of its
    inclusive microseconds — a *merged* view (one slice per name path,
    not per span instance) for eyeballing where aggregate time went.
    """
    events: List[Dict[str, Any]] = [{
        "name": "process_name",
        "ph": "M",
        "pid": 1,
        "tid": 0,
        "args": {"name": "repro profile (merged call tree)"},
    }]

    def emit(node: ProfileNode, ts: float) -> float:
        dur = max(
            node.inclusive_us,
            sum(c.inclusive_us for c in node.children.values()),
        )
        events.append({
            "name": node.name,
            "cat": node.category or "scheduler",
            "ph": "X",
            "ts": round(ts, 3),
            "dur": round(dur, 3),
            "pid": 1,
            "tid": 1,
            "args": {
                "count": node.count,
                **{k: node.ops[k] for k in sorted(node.ops)},
            },
        })
        child_ts = ts
        for name in sorted(node.children):
            child_ts += emit(node.children[name], child_ts)
        return dur

    cursor = 0.0
    for name in sorted(root.children):
        cursor += emit(root.children[name], cursor)
    return events


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------

def _ops_text(ops: Dict[str, int]) -> str:
    if not ops:
        return "-"
    return ",".join(f"{key}={ops[key]}" for key in sorted(ops))


def render_profile_table(
    root: ProfileNode, top: int = 15, ops_only: bool = False
) -> str:
    """The ``repro profile`` "top N costs" table.

    Default mode ranks by exclusive wall time (human diagnostics).
    ``ops_only`` drops every wall-derived column and ranks by
    deterministic operation counts — that table is byte-identical
    across runs and ``--jobs`` levels, and is what the CI diff gates.
    """
    rows = list(iter_nodes(root))
    if ops_only:
        rows.sort(key=lambda item: (-item[1].ops_total(), item[0]))
        lines = [
            "profile: operation counters (deterministic)",
            f"{'path':<52} {'count':>6} {'ops':>10}  breakdown",
        ]
        for path, node in rows[:top]:
            lines.append(
                f"{';'.join(path):<52} {node.count:>6} "
                f"{node.ops_total():>10}  {_ops_text(node.ops)}"
            )
        return "\n".join(lines)
    rows.sort(key=lambda item: (-item[1].exclusive_us, item[0]))
    lines = [
        f"profile: top {min(top, len(rows))} by exclusive wall time",
        f"{'path':<52} {'count':>6} {'incl_ms':>9} {'excl_ms':>9} "
        f"{'ops':>10}",
    ]
    for path, node in rows[:top]:
        lines.append(
            f"{';'.join(path):<52} {node.count:>6} "
            f"{node.inclusive_us / 1e3:>9.2f} "
            f"{node.exclusive_us / 1e3:>9.2f} "
            f"{node.ops_total():>10}"
        )
    return "\n".join(lines)


def phase_summary(root: ProfileNode) -> List[Dict[str, Any]]:
    """Aggregate the tree into the hot-path phase rows.

    Each metered phase sums every node of its span name *and* category
    wherever it appears (an ``oracle`` ``mgk.latency`` span is no
    regime build); ``controller.overhead`` is the *exclusive* time of
    the controller's own spans — the bookkeeping left after the metered
    phases are subtracted out.
    """
    metered = {(p.name, p.category) for p in METERED_PHASES}
    phases: Dict[str, Dict[str, Any]] = {
        name: {"phase": name, "count": 0,
               "inclusive_us": 0.0, "exclusive_us": 0.0, "ops": {}}
        for name in [p.name for p in METERED_PHASES] + ["controller.overhead"]
    }
    for _, node in iter_nodes(root):
        if (node.name, node.category) in metered:
            entry = phases[node.name]
            entry["inclusive_us"] += node.inclusive_us
            for key, value in node.ops.items():
                entry["ops"][key] = entry["ops"].get(key, 0) + value
        elif node.name in _CONTROLLER_SPANS or node.category == "controller":
            entry = phases["controller.overhead"]
            entry["inclusive_us"] += node.exclusive_us
        else:
            continue
        entry["count"] += node.count
        entry["exclusive_us"] += node.exclusive_us
    return [entry for entry in phases.values() if entry["count"]]


def render_phase_table(root: ProfileNode) -> str:
    """The per-phase cost table (docs/observability.md, ROADMAP)."""
    lines = [
        "phase costs",
        f"{'phase':<22} {'count':>6} {'incl_ms':>9} {'excl_ms':>9}  "
        f"operations",
    ]
    for entry in phase_summary(root):
        lines.append(
            f"{entry['phase']:<22} {entry['count']:>6} "
            f"{entry['inclusive_us'] / 1e3:>9.2f} "
            f"{entry['exclusive_us'] / 1e3:>9.2f}  "
            f"{_ops_text(entry['ops'])}"
        )
    return "\n".join(lines)


def write_folded(
    root: ProfileNode, path_or_file, weight: str = "exclusive_us"
) -> int:
    """Write folded stacks to a path or file; returns the line count."""
    text = folded_stacks(root, weight=weight)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as handle:
            handle.write(text)
    return 0 if not text else text.count("\n")


def write_profile_chrome_trace(root: ProfileNode, path_or_file) -> int:
    """Write the merged-tree Chrome trace; returns the event count."""
    import json

    events = chrome_trace_from_profile(root)
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.telemetry.profiler"},
    }
    if hasattr(path_or_file, "write"):
        json.dump(payload, path_or_file)
    else:
        with open(path_or_file, "w") as handle:
            json.dump(payload, handle)
    return len(events)
