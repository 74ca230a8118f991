"""Fig. 7 — instructions executed per timeslice, per scheme.

One mix at a 70 % power cap over 1 s (ten 100 ms slices): core-level
gating executes nothing on the cores it turned off, the oracle
asymmetric multicore keeps all cores active but runs many jobs on small
cores, and CuttleSys keeps all cores active with parts of each core
gated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.experiments.harness import reference_power_for_mix, run_policy
from repro.experiments.policies import build_policy
from repro.experiments.reporting import format_table
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


@dataclass(frozen=True)
class TimelineResult:
    """Per-slice instructions (billions) and active-core counts."""

    policy: str
    instructions_b: Tuple[float, ...]
    active_batch_cores: Tuple[int, ...]


def run_fig7(
    mix_index: int = 0,
    cap: float = 0.7,
    n_slices: int = 10,
    load: float = 0.8,
    seed: int = 7,
) -> Dict[str, TimelineResult]:
    """Per-slice instruction timelines for the three schemes."""
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    trace = LoadTrace.constant(load)
    out: Dict[str, TimelineResult] = {}
    # Fig. 7's core-level gating is the way-partitioned variant.
    for name, scheme in (
        ("core-gating", "core-gating+wp"),
        ("asymm-oracle", "asymm-oracle"),
        ("cuttlesys", "cuttlesys"),
    ):
        machine, policy = build_policy(scheme, mix, seed)
        run = run_policy(
            machine,
            policy,
            trace,
            power_cap_fraction=cap,
            n_slices=n_slices,
            max_power_w=reference,
        )
        instructions = tuple(
            float(m.total_batch_instructions) / 1e9 for m in run.measurements
        )
        active = tuple(
            len(m.assignment.active_batch_indices) for m in run.measurements
        )
        out[name] = TimelineResult(
            policy=name, instructions_b=instructions, active_batch_cores=active
        )
    return out


def render_fig7(results: Dict[str, TimelineResult]) -> str:
    """Text rendering: one row per slice, one column pair per scheme."""
    n_slices = len(next(iter(results.values())).instructions_b)
    headers = ["slice"]
    for name in results:
        headers += [f"{name} (B instr)", f"{name} (active)"]
    rows = []
    for i in range(n_slices):
        row = [str(i)]
        for res in results.values():
            row += [f"{res.instructions_b[i]:.2f}", str(res.active_batch_cores[i])]
        rows.append(row)
    totals = ["total"] + sum(
        (
            [f"{sum(res.instructions_b):.2f}", "-"]
            for res in results.values()
        ),
        [],
    )
    rows.append(totals)
    return format_table(headers, rows)
