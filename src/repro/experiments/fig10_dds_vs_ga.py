"""Fig. 10 — design-space exploration: DDS vs the genetic algorithm.

* **(a)** — on one frozen decision problem (true metric tables, fixed
  LC reservation), both explorers run with the same evaluation budget;
  the explored points are projected on the (power, 1/throughput) plane.
  DDS lands more points near the pareto front and finds a better final
  configuration.
* **(b)** — full CuttleSys runs with SGD inference paired with either
  explorer (SGD-DDS vs SGD-GA) across power caps; the paper reports up
  to 19 % higher throughput with DDS, widest at mid-range caps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams, DDSSearch
from repro.core.ga import GAParams, GeneticSearch
from repro.core.matrices import power_rows, throughput_rows
from repro.core.objective import SystemObjective
from repro.core.oracle import OracleReconfigPolicy
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.experiments.reporting import format_table
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


@dataclass(frozen=True)
class ExplorationCloud:
    """Explored points of one search, plus its best point."""

    algorithm: str
    #: (power W, 1/throughput) per evaluated point.
    points: Tuple[Tuple[float, float], ...]
    best_power: float
    best_inv_throughput: float
    best_objective: float
    evaluations: int


@dataclass
class Fig10aResult:
    """Both clouds on the same decision problem."""

    dds: ExplorationCloud
    ga: ExplorationCloud
    power_budget: float


def _frozen_objective(mix_index: int, cap: float, seed: int):
    mix = paper_mixes()[mix_index]
    machine = build_machine_for_mix(mix, seed=seed)
    reference = machine.reference_max_power()
    load = 0.8
    bips = throughput_rows(machine.batch_profiles, machine.perf)
    power = power_rows(machine.batch_profiles, machine.power)
    oracle = OracleReconfigPolicy(lc_cores=16)
    best_lc, best_lc_power = oracle.select_lc(machine, load)
    reserved = best_lc_power * oracle.lc_cores + machine.power.llc_power()
    objective = SystemObjective(
        bips=bips,
        power=power,
        max_power=reference * cap,
        max_ways=machine.params.llc_ways,
        reserved_power=reserved,
        reserved_ways=best_lc.cache_ways,
    )
    return objective, reference * cap


def run_fig10a(
    mix_index: int = 0,
    cap: float = 0.7,
    seed: int = 7,
    dds_params: DDSParams = DDSParams(),
    ga_params: GAParams = GAParams(),
) -> Fig10aResult:
    """Run both explorers on one frozen problem, recording every point."""
    objective, budget = _frozen_objective(mix_index, cap, seed)

    def cloud(algorithm: str, searcher, rng) -> ExplorationCloud:
        result = searcher.search(
            objective,
            n_dims=objective.n_jobs,
            n_confs=objective.n_confs,
            rng=rng,
            record_explored=True,
        )
        points = tuple(
            (
                objective.total_power(x),
                1.0 / max(objective.gmean_bips(x), 1e-9),
            )
            for x, _ in result.explored
        )
        return ExplorationCloud(
            algorithm=algorithm,
            points=points,
            best_power=objective.total_power(result.best_x),
            best_inv_throughput=1.0
            / max(objective.gmean_bips(result.best_x), 1e-9),
            best_objective=result.best_objective,
            evaluations=result.evaluations,
        )

    return Fig10aResult(
        dds=cloud("dds", DDSSearch(dds_params), np.random.default_rng(seed)),
        ga=cloud("ga", GeneticSearch(ga_params), np.random.default_rng(seed)),
        power_budget=budget,
    )


@dataclass
class Fig10bResult:
    """Relative throughput of SGD-DDS over SGD-GA per power cap."""

    caps: Tuple[float, ...]
    #: gmean batch BIPS averaged over slices and mixes, per explorer.
    dds_throughput: Dict[float, float] = field(default_factory=dict)
    ga_throughput: Dict[float, float] = field(default_factory=dict)

    def advantage(self, cap: float) -> float:
        """DDS throughput over GA throughput at one cap."""
        return self.dds_throughput[cap] / self.ga_throughput[cap]


def run_fig10b(
    mix_indices: Sequence[int] = (0, 25),
    caps: Sequence[float] = (0.9, 0.7, 0.5),
    n_slices: int = 8,
    seed: int = 7,
) -> Fig10bResult:
    """Full runs with DDS vs GA as CuttleSys's explorer."""
    result = Fig10bResult(caps=tuple(caps))
    mixes = paper_mixes()
    for cap in caps:
        per_explorer: Dict[str, List[float]] = {"dds": [], "ga": []}
        for mix_index in mix_indices:
            mix = mixes[mix_index]
            reference = reference_power_for_mix(mix, seed=seed)
            for explorer in ("dds", "ga"):
                machine = build_machine_for_mix(mix, seed=seed)
                config = ControllerConfig(explorer=explorer, seed=seed)
                policy = CuttleSysPolicy.for_machine(
                    machine, seed=seed, config=config
                )
                run = run_policy(
                    machine,
                    policy,
                    LoadTrace.constant(0.8),
                    power_cap_fraction=cap,
                    n_slices=n_slices,
                    max_power_w=reference,
                )
                series = run.gmean_throughput_series()
                per_explorer[explorer].append(float(np.mean(series)))
        result.dds_throughput[cap] = float(np.mean(per_explorer["dds"]))
        result.ga_throughput[cap] = float(np.mean(per_explorer["ga"]))
    return result


def render_fig10(a: Fig10aResult, b: Fig10bResult) -> str:
    """Text rendering of both panels."""
    lines = [
        "Fig. 10a — exploration on one frozen problem "
        f"(budget {a.power_budget:.1f} W)",
        format_table(
            ["algorithm", "evaluations", "best power (W)",
             "best 1/throughput", "best objective"],
            [
                (c.algorithm, c.evaluations, f"{c.best_power:.1f}",
                 f"{c.best_inv_throughput:.3f}", f"{c.best_objective:.3f}")
                for c in (a.dds, a.ga)
            ],
        ),
        "",
        "Fig. 10b — SGD-DDS vs SGD-GA throughput across caps",
        format_table(
            ["cap", "SGD-DDS", "SGD-GA", "DDS advantage"],
            [
                (
                    f"{cap:.0%}",
                    f"{b.dds_throughput[cap]:.3f}",
                    f"{b.ga_throughput[cap]:.3f}",
                    f"{b.advantage(cap):.2f}x",
                )
                for cap in b.caps
            ],
        ),
    ]
    return "\n".join(lines)
