"""Per-quantum decision provenance: the *why* behind each decision.

The telemetry layer has always recorded *what* the controller decided
(:class:`~repro.telemetry.metrics.DecisionRecord`, accuracy audits) but
not *why* — which DDS candidates were generated and rejected as
infeasible, why the degradation ladder dropped a rung, what the budget
meter read when it did, whether safe mode or a quarantine pinned the
outcome.  A :class:`ProvenanceRecorder` attached to a
:class:`~repro.telemetry.Telemetry` session captures that causal chain
as one JSON-serialisable record per quantum.

Records are **bounded**: the DDS candidate set is summarised as the
top-K candidates plus aggregate feasibility counts, so a record stays
O(K) even though a full search evaluates ~6450 points.  Records are
**deterministic**: they carry only virtual-time quantities (operation
counts, objective values, meter readings), never wall-clock — which is
what lets ``repro replay`` re-execute a quantum from a crash-safe
snapshot and diff the reproduced record byte-for-byte against the
recorded one (:func:`provenance_key`).

Emission rides the existing JSONL machinery: ``write_jsonl`` appends
``"type": "provenance"`` lines after the decision records, and
``merge_jsonl`` / :class:`~repro.telemetry.live.LiveAggregator` order
them by ``(quantum, unit)`` like decisions.  ``python -m repro explain``
renders a record as a human-readable report (:func:`render_explain`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ProvenanceRecorder",
    "candidate_provenance",
    "classify_candidates",
    "provenance_key",
    "provenance_records_from_jsonl",
    "render_explain",
]


class ProvenanceRecorder:
    """Bounded per-quantum store of decision-provenance records.

    The harness marks quantum boundaries with :meth:`begin_quantum`;
    the controller emits one record per ``decide()`` call (including
    the degraded early-return paths).  ``max_records`` bounds memory on
    long soaks — drops are counted, never silent, and the
    ``profiler.overhead`` case of the operation-counter golden
    (``tests/telemetry/test_op_counters.py``) pins the dropped count at
    zero.
    """

    def __init__(self, top_k: int = 5, max_records: int = 4096) -> None:
        if top_k < 1:
            raise ValueError("top_k must be at least 1")
        if max_records < 1:
            raise ValueError("max_records must be at least 1")
        #: Candidates kept verbatim per record (the rest are counted).
        self.top_k = top_k
        self.max_records = max_records
        #: Records in emission order (quantum order within one run).
        self.records: List[Dict[str, Any]] = []
        #: Records rejected by the ``max_records`` bound.
        self.dropped = 0
        #: Quantum index set by the harness; ``None`` outside a run
        #: (the controller then falls back to its budget's quantum
        #: counter, which survives snapshot/restore).
        self.quantum: Optional[int] = None

    def begin_quantum(self, quantum: int) -> None:
        """Mark the start of harness quantum ``quantum``."""
        self.quantum = int(quantum)

    def record(self, record: Dict[str, Any]) -> bool:
        """Store one provenance record; False when the bound drops it."""
        if len(self.records) >= self.max_records:
            self.dropped += 1
            return False
        self.records.append(record)
        return True

    def for_quantum(self, quantum: int) -> Optional[Dict[str, Any]]:
        """The record emitted for ``quantum``, or None."""
        for record in self.records:
            if record.get("quantum") == quantum:
                return record
        return None

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0
        self.quantum = None


# ----------------------------------------------------------------------
# Candidate classification
# ----------------------------------------------------------------------

def classify_candidates(
    objective: Any, xs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised feasibility classification of decision vectors.

    Takes the power and way totals of a ``(n, n_dims)`` batch from the
    objective's own ``constraint_totals`` (the same arithmetic as its
    ``evaluate_batch``, including the 0.5 half-way pairing), duck-typed
    so the telemetry layer needs no ``repro.core`` import.  Returns
    ``(power_w, total_ways, over_power, over_ways)``.
    """
    power, total_ways = objective.constraint_totals(np.atleast_2d(xs))
    over_power = power > objective.max_power
    over_ways = total_ways > objective.max_ways + 1e-9
    return power, total_ways, over_power, over_ways


def _rejection_reason(over_power: bool, over_ways: bool) -> str:
    reasons = []
    if over_power:
        reasons.append("power_over_cap")
    if over_ways:
        reasons.append("cache_over_ways")
    return "+".join(reasons) if reasons else "feasible"


def candidate_provenance(
    objective: Any,
    explored: Sequence[Tuple[np.ndarray, float]],
    top_k: int,
) -> Dict[str, Any]:
    """Summarise a search's explored set as top-K + aggregate counts.

    ``explored`` is the searcher's ``(decision vector, objective)``
    trace (``record_explored=True``).  Ties in the objective break by
    exploration order (stable sort), so the summary is deterministic.
    """
    if not explored:
        return {
            "top_candidates": [],
            "rejections": {
                "feasible": 0, "power_over_cap": 0, "cache_over_ways": 0,
            },
        }
    xs = np.stack([x for x, _ in explored])
    values = np.array([v for _, v in explored], dtype=float)
    power, ways, over_power, over_ways = classify_candidates(objective, xs)
    feasible = ~(over_power | over_ways)
    order = np.argsort(-values, kind="stable")[:top_k]
    candidates = [
        {
            "x": [int(v) for v in xs[i]],
            "objective": float(values[i]),
            "power_w": float(power[i]),
            "ways": float(ways[i]),
            "feasible": bool(feasible[i]),
            "reason": _rejection_reason(
                bool(over_power[i]), bool(over_ways[i])
            ),
        }
        for i in order
    ]
    return {
        "top_candidates": candidates,
        "rejections": {
            "feasible": int(feasible.sum()),
            "power_over_cap": int(over_power.sum()),
            "cache_over_ways": int(over_ways.sum()),
        },
    }


# ----------------------------------------------------------------------
# Reading records back
# ----------------------------------------------------------------------

def provenance_records_from_jsonl(
    records: Iterable[Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """The ``"type": "provenance"`` lines of a parsed JSONL log."""
    return [r for r in records if r.get("type") == "provenance"]


def provenance_key(record: Dict[str, Any]) -> str:
    """Canonical byte representation used for replay byte-diffs.

    Strips the merge-time ``unit`` tag (a fleet artefact, not part of
    the decision) and serialises with sorted keys, so a record written
    by a run and one reproduced by ``repro replay`` compare equal
    exactly when every recorded quantity matches.
    """
    stripped = {k: v for k, v in record.items() if k != "unit"}
    return json.dumps(stripped, sort_keys=True)


# ----------------------------------------------------------------------
# Human-readable "why" report
# ----------------------------------------------------------------------

def _fmt(value: Any, spec: str = ".4g") -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, spec)
    return str(value)


def _budget_lines(budget: Optional[Dict[str, Any]]) -> List[str]:
    if not budget:
        return ["budget: unlimited (no meter readings recorded)"]
    limit = budget.get("limit")
    line = (
        f"budget: limit={_fmt(limit)} "
        f"spent={_fmt(budget.get('spent'))} "
        f"remaining={_fmt(budget.get('remaining'))}"
    )
    lines = [line]
    full = budget.get("full_search_cost")
    reduced = budget.get("reduced_search_cost")
    if full is not None:
        priced = f"ladder pricing: full search costs {_fmt(full)}"
        if reduced is not None:
            priced += f", reduced search costs {_fmt(reduced)}"
        lines.append(priced)
    return lines


def render_explain(record: Dict[str, Any]) -> str:
    """Render one provenance record as a human-readable "why" report."""
    lines: List[str] = []
    quantum = record.get("quantum")
    unit = record.get("unit")
    header = f"decision provenance — quantum {quantum}"
    if unit is not None:
        header += f" (unit {unit})"
    lines.append(header)
    lines.append("=" * len(header))

    mode = record.get("mode", "unknown")
    lines.append(f"mode: {mode}")
    lines.extend(_budget_lines(record.get("budget")))

    recon = record.get("reconstruction")
    if recon:
        for metric in sorted(recon):
            d = recon[metric]
            lines.append(
                f"reconstruction[{metric}]: "
                f"{_fmt(d.get('iterations'))} iteration(s), "
                f"rmse={_fmt(d.get('rmse'))}, "
                f"converged={_fmt(d.get('converged'))}"
            )

    power = record.get("power")
    if power:
        lines.append(
            f"power: cap={_fmt(power.get('max_power_w'))} W, "
            f"target={_fmt(power.get('target_power_w'))} W "
            f"(headroom {_fmt(power.get('headroom_fraction'))}), "
            f"reserved={_fmt(power.get('reserved_power_w'))} W"
        )

    lc = record.get("lc")
    if lc:
        for entry in lc:
            lines.append(
                f"lc[{entry.get('service')}]: load={_fmt(entry.get('load'))} "
                f"rps, cores={_fmt(entry.get('cores'))}, "
                f"config={_fmt(entry.get('config'))}, "
                f"reclaimed={_fmt(entry.get('reclaimed'))}"
            )

    search = record.get("search")
    if search:
        rej = search.get("rejections", {})
        lines.append(
            f"search: {search.get('searcher', '?')}, "
            f"{_fmt(search.get('evaluations'))} evaluation(s) "
            f"(feasible {_fmt(rej.get('feasible'))}, "
            f"power-capped {_fmt(rej.get('power_over_cap'))}, "
            f"cache-capped {_fmt(rej.get('cache_over_ways'))})"
        )
        candidates = search.get("top_candidates") or []
        if candidates:
            lines.append("top candidates:")
            for rank, cand in enumerate(candidates, 1):
                lines.append(
                    f"  #{rank} objective={_fmt(cand.get('objective'))} "
                    f"power={_fmt(cand.get('power_w'))} W "
                    f"ways={_fmt(cand.get('ways'))} "
                    f"{cand.get('reason', '?')}"
                )

    fallback = record.get("power_fallback")
    if fallback:
        lines.append(
            "power fallback: "
            f"{_fmt(fallback.get('cores_disabled'))} core(s) disabled "
            f"to meet the cap"
        )

    rungs = record.get("rungs")
    if rungs:
        lines.append(f"degradation rungs this quantum: {', '.join(rungs)}")

    safety = record.get("safety")
    if safety:
        lines.append(
            f"safety: safe_mode={_fmt(safety.get('safe_mode'))}, "
            f"quarantined_jobs={_fmt(safety.get('quarantined_jobs'))}"
        )

    chosen = record.get("chosen")
    if chosen:
        lines.append(
            f"chosen: objective={_fmt(chosen.get('objective'))}, "
            f"power={_fmt(chosen.get('power_w'))} W, "
            f"ways={_fmt(chosen.get('ways'))}"
        )
    return "\n".join(lines)
