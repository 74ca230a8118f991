"""Extension study: reconfigurable cores vs DVFS (paper §II-A).

The paper motivates reconfigurable cores with the end of easy voltage
scaling: DVFS on future nodes has razor-thin margins, so down-clocking
saves little power, while section gating removes dynamic *and* leakage
power outright.  This study quantifies that argument on our substrate.

For one workload mix and a range of power caps, four schemes allocate
the post-LC power budget to the 16 batch jobs:

* ``dvfs-legacy`` — per-core DVFS with a generous historical voltage
  range (maxBIPS-style greedy level selection [Isci et al.]),
* ``dvfs-razor`` — the same policy on a razor-thin future-node ladder,
* ``core-gating`` — fixed wide cores, whole-core gating,
* ``reconfig`` — per-job joint configurations found by DDS on the true
  metric tables (the hardware CuttleSys manages, with oracle inference
  so the comparison isolates the *hardware mechanism*).

All schemes use fixed-core physics except ``reconfig``, which pays the
18 % energy and 1.67 % frequency reconfigurability penalties.

Findings on this substrate (see the benchmark output): (1) razor-thin
voltage margins measurably erode DVFS — the legacy ladder beats the
future-node ladder by 10-20 % at stringent caps, the paper's §II-A
trend; (2) reconfiguration dominates whole-core gating by a wide
margin; (3) frequency-only DVFS remains strong for workloads with
memory slack, consistent with the paper's own positioning that
reconfigurable cores *augment* DVFS "for frequency regions where DVFS
is not effective" rather than replace it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.core.dds import DDSParams, DDSSearch
from repro.core.matrices import power_rows, throughput_rows
from repro.core.objective import SystemObjective, power_fallback
from repro.core.oracle import OracleReconfigPolicy
from repro.experiments.harness import build_machine_for_mix
from repro.experiments.reporting import format_table
from repro.sim.coreconfig import N_JOINT_CONFIGS, CoreConfig, JointConfig
from repro.sim.dvfs import DVFSModel, legacy_ladder, razor_thin_ladder
from repro.sim.machine import Machine
from repro.sim.power import PowerModel, PowerParams
from repro.workloads.mixes import paper_mixes
from repro.workloads.queueing import MGkQueue

SCHEMES = ("dvfs-legacy", "dvfs-razor", "core-gating", "reconfig")


@dataclass(frozen=True)
class DVFSComparisonResult:
    """Total batch BIPS per (cap, scheme)."""

    caps: Tuple[float, ...]
    total_bips: Dict[float, Dict[str, float]]

    def advantage(self, cap: float, over: str = "core-gating") -> float:
        """Reconfiguration's total-throughput edge over a scheme."""
        return self.total_bips[cap]["reconfig"] / max(
            self.total_bips[cap][over], 1e-9
        )

    def dvfs_headroom_loss(self, cap: float) -> float:
        """How much the razor-thin ladder loses vs the legacy one."""
        return self.total_bips[cap]["dvfs-razor"] / max(
            self.total_bips[cap]["dvfs-legacy"], 1e-9
        )


def _lc_reservation_dvfs(
    machine: Machine, dvfs: DVFSModel, load: float, n_cores: int
) -> float:
    """Least-power ladder level meeting QoS for the LC service."""
    service = machine.lc_service
    best = None
    for level in range(dvfs.n_levels()):
        bips = dvfs.bips(service.profile, level, cache_ways=4.0)
        service_time = service.work_instructions / (bips * 1e9)
        queue = MGkQueue(
            arrival_rate=service.qps_at_load(load),
            service_time_mean=service_time,
            service_scv=service.service_scv,
            servers=n_cores,
        )
        if queue.p99_latency() > service.qos_latency_s:
            continue
        util = min(1.0, queue.utilization)
        watts = dvfs.core_power(service.profile, level, utilization=util)
        if best is None or watts < best:
            best = watts
    if best is None:  # QoS needs the nominal level regardless
        util = 1.0
        best = dvfs.core_power(service.profile, 0, utilization=util)
    return best * n_cores


def _dvfs_allocation(
    machine: Machine, dvfs: DVFSModel, budget: float
) -> float:
    """maxBIPS-style greedy DVFS allocation; returns total batch BIPS.

    Start every core at the top level; while over budget, apply the
    downgrade (or final gating) that loses the least throughput per
    watt saved.
    """
    profiles = machine.batch_profiles
    n = len(profiles)
    levels = np.zeros(n, dtype=int)
    gated = np.zeros(n, dtype=bool)
    residual = machine.power.gated_core_power()

    def job_power(j: int) -> float:
        if gated[j]:
            return residual
        return dvfs.core_power(profiles[j], int(levels[j]))

    def job_bips(j: int) -> float:
        if gated[j]:
            return 0.0
        return dvfs.bips(profiles[j], int(levels[j]), cache_ways=2.0)

    def total_power() -> float:
        return sum(job_power(j) for j in range(n))

    while total_power() > budget:
        best_move = None
        best_cost = np.inf
        for j in range(n):
            if gated[j]:
                continue
            if levels[j] + 1 < dvfs.n_levels():
                new_bips = dvfs.bips(profiles[j], int(levels[j]) + 1, 2.0)
                saved = job_power(j) - dvfs.core_power(
                    profiles[j], int(levels[j]) + 1
                )
                lost = job_bips(j) - new_bips
            else:
                saved = job_power(j) - residual
                lost = job_bips(j)
            if saved <= 0:
                continue
            cost = lost / saved
            if cost < best_cost:
                best_cost = cost
                best_move = j
        if best_move is None:
            break
        if levels[best_move] + 1 < dvfs.n_levels():
            levels[best_move] += 1
        else:
            gated[best_move] = True
    return float(sum(job_bips(j) for j in range(n)))


def _gating_allocation(machine: Machine, budget: float) -> float:
    """Whole-core gating on fixed wide cores; returns total batch BIPS."""
    wide = CoreConfig.widest()
    profiles = machine.batch_profiles
    power = np.array([machine.power.core_power(p, wide) for p in profiles])
    bips = np.array(
        [machine.perf.bips(p, wide, cache_ways=2.0) for p in profiles]
    )
    keep = power_fallback(power, 0.0, budget, machine.power.gated_core_power())
    return float(bips[keep].sum())


def _reconfig_allocation(
    machine: Machine, budget: float, seed: int
) -> float:
    """DDS over true tables on the reconfigurable machine."""
    bips = throughput_rows(machine.batch_profiles, machine.perf)
    power = power_rows(machine.batch_profiles, machine.power)
    objective = SystemObjective(
        bips=bips,
        power=power,
        max_power=budget,
        max_ways=machine.params.llc_ways - 4.0,
        penalty_power=50.0,
    )
    result = DDSSearch(DDSParams(max_iter=80)).search(
        objective,
        n_dims=len(machine.batch_profiles),
        n_confs=N_JOINT_CONFIGS,
        rng=np.random.default_rng(seed),
    )
    x = result.best_x
    chosen = bips[np.arange(len(x)), x]
    if not objective.is_feasible(x, power_slack=budget * 0.01):
        # Gate hungriest until feasible (mirrors the runtime fallback).
        keep = power_fallback(
            power[np.arange(len(x)), x], 0.0, budget,
            machine.power.gated_core_power(),
        )
        return float(chosen[keep].sum())
    return float(chosen.sum())


def run_dvfs_comparison(
    mix_index: int = 0,
    caps: Sequence[float] = (0.9, 0.7, 0.5),
    load: float = 0.8,
    seed: int = 7,
    leakage_scale: float = 1.0,
) -> DVFSComparisonResult:
    """Total batch BIPS per scheme across power caps.

    ``leakage_scale`` models technology nodes with growing leakage
    (§II-A: "the increase in leakage power consumption limit[s] the
    effectiveness of DVFS"): at 1.0 leakage is ~25 % of busy core power
    (DVFS frequency scaling remains effective); at 2.5-3x, down-clocking
    barely moves total power while section gating still removes the
    leaky arrays — the regime where reconfiguration pulls ahead.
    """
    if leakage_scale <= 0:
        raise ValueError("leakage_scale must be positive")
    mix = paper_mixes()[mix_index]
    base = PowerParams()
    scaled = PowerParams(
        fe_leakage=base.fe_leakage * leakage_scale,
        be_leakage=base.be_leakage * leakage_scale,
        ls_leakage=base.ls_leakage * leakage_scale,
        other_leakage=base.other_leakage * leakage_scale,
        ls_dynamic=base.ls_dynamic,
    )
    fixed = build_machine_for_mix(mix, seed=seed, reconfigurable=False)
    reconf = build_machine_for_mix(mix, seed=seed)
    fixed = Machine(
        lc_service=fixed.lc_service,
        batch_profiles=fixed.batch_profiles,
        params=fixed.params,
        perf=fixed.perf,
        power=PowerModel(params=scaled, reconfigurable=False),
        seed=seed,
    )
    reconf = Machine(
        lc_service=reconf.lc_service,
        batch_profiles=reconf.batch_profiles,
        params=reconf.params,
        perf=reconf.perf,
        power=PowerModel(params=scaled, reconfigurable=True),
        seed=seed,
    )
    reference = reconf.reference_max_power()
    lc_cores = 16

    dvfs_models = {
        "dvfs-legacy": DVFSModel(legacy_ladder(), power=fixed.power),
        "dvfs-razor": DVFSModel(razor_thin_ladder(), power=fixed.power),
    }
    totals: Dict[float, Dict[str, float]] = {}
    for cap in caps:
        chip_budget = reference * cap
        per_scheme: Dict[str, float] = {}
        for name, dvfs in dvfs_models.items():
            reserved = (
                _lc_reservation_dvfs(fixed, dvfs, load, lc_cores)
                + fixed.power.llc_power()
            )
            per_scheme[name] = _dvfs_allocation(
                fixed, dvfs, chip_budget - reserved
            )
        # Core gating: fixed LC at nominal on wide cores.
        lc_joint = JointConfig(CoreConfig.widest(), 4.0)
        reserved = (
            fixed.true_lc_power(lc_joint, load, lc_cores) * lc_cores
            + fixed.power.llc_power()
        )
        per_scheme["core-gating"] = _gating_allocation(
            fixed, chip_budget - reserved
        )
        # Reconfigurable: LC at its true least-power QoS config.
        _, best_watts = OracleReconfigPolicy(lc_cores=lc_cores).select_lc(
            reconf, load
        )
        reserved = best_watts * lc_cores + reconf.power.llc_power()
        per_scheme["reconfig"] = _reconfig_allocation(
            reconf, chip_budget - reserved, seed
        )
        totals[cap] = per_scheme
    return DVFSComparisonResult(caps=tuple(caps), total_bips=totals)


def render_dvfs_comparison(result: DVFSComparisonResult) -> str:
    """Text table of the study."""
    rows = []
    for cap in result.caps:
        rows.append(
            [f"{cap:.0%}"]
            + [f"{result.total_bips[cap][s]:.1f}" for s in SCHEMES]
            + [
                f"{result.advantage(cap):.2f}x",
                f"{result.dvfs_headroom_loss(cap):.2f}x",
            ]
        )
    return format_table(
        ["cap"] + list(SCHEMES)
        + ["reconfig/core-gating", "razor/legacy DVFS"],
        rows,
    )
