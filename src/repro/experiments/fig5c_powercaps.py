"""Fig. 5(c) — relative useful work vs power cap, per policy.

Total instructions executed by batch applications over the same
wall-clock window, relative to a no-gating machine, for each power cap
in {90, 80, 70, 60, 50} % — the paper's headline comparison.  Expected
shape: fixed-core designs win slightly at relaxed caps (CuttleSys pays
the reconfigurability energy tax), CuttleSys overtakes core-level
gating below ~80 % and the oracle-like asymmetric multicore at the most
stringent caps, with QoS always met.

The full paper sweep is 50 mixes x 5 caps; ``run_fig5c`` defaults to a
representative subset (one mix per LC service) so it completes in
minutes — pass ``mix_indices=range(50)`` for the full rerun.

Fleet sharding: each (cap, mix) pair is one independent
:class:`~repro.fleet.WorkUnit` running every policy of :data:`FIG5C_POLICIES`
(the no-gating baseline must share the cell so relative work is
computed against the *same* simulation), so the grid shards across
``--jobs`` workers and checkpoints/resumes like any fleet run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.experiments.harness import reference_power_for_mix, run_policy
from repro.experiments.policies import build_policy
from repro.experiments.reporting import format_table
from repro.fleet import WorkUnit, run_grid
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

#: Power caps evaluated in the paper, as fractions of the reference.
PAPER_CAPS: Tuple[float, ...] = (0.9, 0.8, 0.7, 0.6, 0.5)

#: One representative mix per LC service (indices into paper_mixes()).
DEFAULT_MIX_INDICES: Tuple[int, ...] = (0, 12, 25, 37, 44)

#: The five schemes of Fig. 5c plus the static 50/50 of §VIII-C, in
#: column order (names of :data:`~repro.experiments.policies.POLICIES`).
FIG5C_POLICIES: Tuple[str, ...] = (
    "no-gating", "core-gating", "core-gating+wp", "asymm-oracle",
    "asymm-50-50", "cuttlesys",
)


@dataclass
class Fig5cResult:
    """Per-(cap, policy) aggregates over the evaluated mixes."""

    caps: Tuple[float, ...]
    policies: Tuple[str, ...]
    #: relative[cap][policy] = mean instructions relative to no-gating.
    relative: Dict[float, Dict[str, float]] = field(default_factory=dict)
    qos_violations: Dict[float, Dict[str, int]] = field(default_factory=dict)

    def speedup(self, cap: float, policy: str, over: str) -> float:
        """Ratio of one policy's relative work over another's."""
        return self.relative[cap][policy] / self.relative[cap][over]


def _fig5c_cell(
    cap: float,
    mix_index: int,
    n_slices: int,
    load: float,
    seed: int,
    telemetry: Any = None,
) -> Dict[str, Any]:
    """One (cap, mix) fleet unit: every Fig. 5c policy on that mix.

    All policies run inside one unit because the relative-work metric
    divides by the no-gating baseline *of the same mix and cap*; a
    per-policy sharding would force cross-unit data flow.
    """
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    trace = LoadTrace.constant(load)
    relative: Dict[str, float] = {}
    qos: Dict[str, int] = {}
    baseline_instr = None
    for name in FIG5C_POLICIES:
        machine, policy = build_policy(name, mix, seed)
        run = run_policy(
            machine,
            policy,
            trace,
            power_cap_fraction=cap,
            n_slices=n_slices,
            max_power_w=reference,
            telemetry=telemetry,
        )
        instr = run.total_batch_instructions()
        if name == "no-gating":
            baseline_instr = instr
        if baseline_instr:
            relative[name] = instr / baseline_instr
        qos[name] = run.qos_violations()
    return {
        "cap": cap,
        "mix_index": mix_index,
        "relative": relative,
        "qos_violations": qos,
    }


def fig5c_units(
    mix_indices: Sequence[int],
    caps: Sequence[float],
    n_slices: int,
    load: float,
    seed: int,
) -> List[WorkUnit]:
    """The sweep's fleet work units, one per (cap, mix)."""
    return [
        WorkUnit(
            unit_id=f"fig5c/c{int(round(cap * 100))}/m{mix_index}",
            fn=_fig5c_cell,
            kwargs={
                "cap": cap, "mix_index": mix_index, "n_slices": n_slices,
                "load": load, "seed": seed,
            },
        )
        for cap in caps
        for mix_index in mix_indices
    ]


def result_from_cells(
    cells: Sequence[Dict[str, Any]],
    caps: Sequence[float],
    policies: Sequence[str],
) -> Fig5cResult:
    """Aggregate per-(cap, mix) cells back into a :class:`Fig5cResult`."""
    result = Fig5cResult(caps=tuple(caps), policies=tuple(policies))
    for cap in caps:
        matching = [cell for cell in cells if cell["cap"] == cap]
        result.relative[cap] = {
            name: float(np.mean([c["relative"][name] for c in matching]))
            for name in policies
        }
        result.qos_violations[cap] = {
            name: int(sum(c["qos_violations"][name] for c in matching))
            for name in policies
        }
    return result


def run_fig5c(
    mix_indices: Sequence[int] = DEFAULT_MIX_INDICES,
    caps: Sequence[float] = PAPER_CAPS,
    n_slices: int = 10,
    load: float = 0.8,
    seed: int = 7,
    **fleet: Any,
) -> Fig5cResult:
    """Sweep policies x caps x mixes at near-saturation load.

    The (cap, mix) grid executes as fleet work units; ``fleet`` takes
    the execution and telemetry keywords of
    :func:`repro.fleet.run_grid`.
    """
    outcome = run_grid(
        "fig5c",
        fig5c_units(mix_indices, caps, n_slices, load, seed),
        seed=seed,
        **fleet,
    )
    return result_from_cells(outcome.values(), tuple(caps), FIG5C_POLICIES)


def render_fig5c(result: Fig5cResult) -> str:
    """Text rendering of the cap sweep plus headline speedups."""
    rows = []
    for cap in result.caps:
        rows.append(
            [f"{cap:.0%}"]
            + [f"{result.relative[cap][p]:.2f}" for p in result.policies]
        )
    table = format_table(["cap"] + list(result.policies), rows)
    tightest = min(result.caps)
    lines = [table, ""]
    for over in ("core-gating", "core-gating+wp", "asymm-oracle"):
        if over in result.policies and "cuttlesys" in result.policies:
            avg = np.mean(
                [result.speedup(c, "cuttlesys", over) for c in result.caps
                 if c <= 0.8]
            )
            best = result.speedup(tightest, "cuttlesys", over)
            lines.append(
                f"CuttleSys vs {over}: {avg:.2f}x mean (caps <= 80%), "
                f"{best:.2f}x at {tightest:.0%}"
            )
    total_qos = sum(
        result.qos_violations[c].get("cuttlesys", 0) for c in result.caps
    )
    lines.append(f"CuttleSys QoS violations across sweep: {total_qos}")
    return "\n".join(lines)
