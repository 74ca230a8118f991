"""Extension study: job churn — previously-unseen applications arriving.

CuttleSys's collaborative filter is built for exactly this: "the rows
of matrix R include some known applications, along the
previously-unseen applications that arrive to the system" (§V).  This
study replaces a random batch job every few quanta with a *synthetic*
application no training set has seen, and measures how much the churn
costs:

* CuttleSys must re-profile each newcomer (two 1 ms samples) and
  reconstruct it from the known population before it can place it well;
* the oracle re-reads ground truth every quantum, so the gap between
  the two isolates the cost of learning newcomers online;
* QoS must hold throughout — churn only touches batch slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.experiments.harness import reference_power_for_mix, run_policy
from repro.experiments.policies import build_policy
from repro.experiments.reporting import format_table
from repro.workloads.batch import synthetic_population
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


@dataclass(frozen=True)
class ChurnOutcome:
    """One (policy, churn setting) cell."""

    policy: str
    churn_period: Optional[int]
    batch_instructions_b: float
    qos_violations: int
    churn_events: int


def run_churn_study(
    mix_index: int = 0,
    cap: float = 0.7,
    load: float = 0.8,
    n_slices: int = 16,
    churn_period: int = 3,
    seed: int = 7,
) -> Tuple[ChurnOutcome, ...]:
    """CuttleSys and the oracle, with and without job churn."""
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    pool = synthetic_population(24, seed=seed + 100, prefix="newcomer")
    outcomes = []
    for name in ("cuttlesys", "oracle-reconfig"):
        for period in (None, churn_period):
            machine, policy = build_policy(name, mix, seed)
            run = run_policy(
                machine, policy, LoadTrace.constant(load),
                power_cap_fraction=cap, n_slices=n_slices,
                max_power_w=reference,
                churn_period=period, churn_pool=pool if period else None,
                churn_seed=seed,
            )
            outcomes.append(
                ChurnOutcome(
                    policy=name,
                    churn_period=period,
                    batch_instructions_b=(
                        run.total_batch_instructions() / 1e9
                    ),
                    qos_violations=run.qos_violations(),
                    churn_events=len(run.churn_events),
                )
            )
    return tuple(outcomes)


def churn_cost(outcomes: Tuple[ChurnOutcome, ...], policy: str) -> float:
    """Work retained under churn, relative to the stable run."""
    stable = next(
        o for o in outcomes
        if o.policy == policy and o.churn_period is None
    )
    churned = next(
        o for o in outcomes
        if o.policy == policy and o.churn_period is not None
    )
    return churned.batch_instructions_b / max(
        stable.batch_instructions_b, 1e-9
    )


def render_churn_study(outcomes: Tuple[ChurnOutcome, ...]) -> str:
    """Text table of the churn study."""
    rows = [
        (
            o.policy,
            "stable" if o.churn_period is None
            else f"every {o.churn_period} quanta",
            f"{o.batch_instructions_b:.2f}",
            o.qos_violations,
            o.churn_events,
        )
        for o in outcomes
    ]
    table = format_table(
        ["policy", "churn", "batch instr (B)", "QoS viol.", "arrivals"],
        rows,
    )
    retained = churn_cost(outcomes, "cuttlesys")
    return (
        table
        + f"\nCuttleSys retains {retained:.0%} of its stable-mix work "
        "while absorbing unseen arrivals."
    )
