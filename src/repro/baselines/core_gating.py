"""Core-level gating baseline (paper §VII-B).

Fixed {6,6,6} cores with per-core power gating (C6): to meet the power
budget, whole cores hosting batch jobs are turned off.  The cores
running the latency-critical service are never gated.  The policy
profiles every job for one 1 ms sample to estimate power, then gates in
**descending order of power** — the ordering the paper found best among
the four it explored (descending/ascending power, BIPS/W, BIPS); the
gating itself is the runtime's hard fallback,
:func:`repro.core.objective.power_fallback`.  When turning off the last
core needed to meet the budget, it searches the active cores for the
one that meets the budget with the smallest slack.

The ``way_partition`` variant adds UCP-style LLC way partitioning
[Qureshi & Patt]: ways are granted greedily by marginal miss-rate
utility, which the partitioning hardware measures online.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Sequence

import numpy as np

from repro.core.objective import hungriest_first, planned_power, power_fallback
from repro.sim.coreconfig import CACHE_ALLOCS, CoreConfig, JointConfig
from repro.sim.machine import Assignment, Machine, SliceMeasurement
from repro.sim.perf import AppProfile


class GatingOrder(enum.Enum):
    """Core-selection orderings explored in §VII-B."""

    DESCENDING_POWER = "descending_power"
    ASCENDING_POWER = "ascending_power"
    ASCENDING_BIPS_PER_WATT = "ascending_bips_per_watt"
    ASCENDING_BIPS = "ascending_bips"


def ucp_way_allocation(
    profiles: Sequence[AppProfile],
    way_budget: float,
    allocs: Sequence[float] = CACHE_ALLOCS,
) -> List[float]:
    """Greedy utility-based way partitioning over the discrete allocs.

    Starts every job at the smallest allocation and repeatedly upgrades
    the job with the highest marginal MPKI reduction per extra way,
    while the budget lasts — the lookahead algorithm of UCP restricted
    to CuttleSys's allocation levels.
    """
    if way_budget <= 0:
        raise ValueError("way_budget must be positive")
    levels = sorted(allocs)
    current = [0] * len(profiles)  # index into levels per job
    used = levels[0] * len(profiles)
    if used > way_budget:
        raise ValueError(
            f"cannot give {len(profiles)} jobs even {levels[0]} ways "
            f"within a budget of {way_budget}"
        )
    while True:
        best_job = -1
        best_gain = 0.0
        best_cost = 0.0
        for j, profile in enumerate(profiles):
            if current[j] + 1 >= len(levels):
                continue
            here = levels[current[j]]
            there = levels[current[j] + 1]
            cost = there - here
            if used + cost > way_budget + 1e-9:
                continue
            gain = profile.miss_curve.utility(here, there) / cost
            if gain > best_gain:
                best_gain = gain
                best_job = j
                best_cost = cost
        if best_job < 0:
            break
        current[best_job] += 1
        used += best_cost
    return [levels[i] for i in current]


class CoreGatingPolicy:
    """Per-core power gating on a fixed-core multicore."""

    def __init__(
        self,
        way_partition: bool = False,
        order: GatingOrder = GatingOrder.DESCENDING_POWER,
        lc_cores: int = 16,
        lc_ways: float = CACHE_ALLOCS[-1],
    ) -> None:
        self.way_partition = way_partition
        self.order = order
        self.lc_cores = lc_cores
        self.lc_ways = lc_ways
        self.name = "core-gating+wp" if way_partition else "core-gating"
        # One 1 ms profiling sample per quantum (§VII-B).
        self.overhead_fraction = 0.011

    def decide(self, machine: Machine, load: float, max_power: float) -> Assignment:
        """Gate batch cores until the measured power fits the budget."""
        widest = CoreConfig.widest()
        n_jobs = len(machine.batch_profiles)
        if self.way_partition:
            budget = machine.params.llc_ways - self.lc_ways
            ways = ucp_way_allocation(machine.batch_profiles, budget)
        else:
            ways = [CACHE_ALLOCS[0]] * n_jobs  # ignored under shared_llc
        joints = [JointConfig(widest, w) for w in ways]

        # One profiling sample at the (only) fixed configuration.
        sample = machine.profile(load)
        power = sample.batch_power_hi.copy()
        bips = sample.batch_bips_hi
        lc_power = sample.lc_power_hi * self.lc_cores

        keep = self._select_active(
            power, bips, lc_power + machine.power.llc_power(), max_power,
            machine.power.gated_core_power(),
        )
        configs: List[Optional[JointConfig]] = [
            joints[j] if keep[j] else None for j in range(n_jobs)
        ]
        return Assignment(
            lc_cores=self.lc_cores,
            lc_config=JointConfig(widest, self.lc_ways),
            batch_configs=tuple(configs),
            shared_llc=not self.way_partition,
        )

    def observe(self, measurement: SliceMeasurement) -> None:
        """No cross-quantum state (each quantum re-profiles)."""

    # ------------------------------------------------------------------

    def _gating_priority(self, power: np.ndarray, bips: np.ndarray) -> List[int]:
        """Job indices in the order they should be gated."""
        if self.order is GatingOrder.DESCENDING_POWER:
            return hungriest_first(power)
        if self.order is GatingOrder.ASCENDING_POWER:
            return np.argsort(power).tolist()
        if self.order is GatingOrder.ASCENDING_BIPS_PER_WATT:
            return np.argsort(bips / np.maximum(power, 1e-9)).tolist()
        return np.argsort(bips).tolist()

    def _select_active(
        self,
        power: np.ndarray,
        bips: np.ndarray,
        reserved: float,
        max_power: float,
        gated_residual: float,
    ) -> np.ndarray:
        """Boolean keep-mask after gating to meet the budget."""
        priority = self._gating_priority(power, bips)
        keep = power_fallback(
            power, reserved, max_power, gated_residual, order=priority
        )
        gated = [j for j in priority if not keep[j]]
        # Smallest-slack refinement for the last gated core (§VII-B):
        # try swapping it for a cheaper job that still meets the budget.
        if gated and keep.any():
            last = gated[-1]
            keep[last] = True
            candidates = [
                j for j in np.argsort(power) if keep[j]
            ]
            for j in candidates:
                keep[j] = False
                if planned_power(power, keep, reserved, gated_residual) <= max_power:
                    break
                keep[j] = True
            else:
                keep[last] = False
        return keep
