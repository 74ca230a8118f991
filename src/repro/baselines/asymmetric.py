"""Asymmetric (big.LITTLE) multicore baselines (paper §VII-C).

Big cores are fixed {6,6,6}, small cores fixed {2,2,2}; the LLC is
way-partitioned like the other fixed-core baselines.

* :class:`AsymmetricOraclePolicy` is deliberately unrealistic: it reads
  the machine's *true* metrics, picks per timeslice the optimal number
  of big and small cores (and the job-to-core-type mapping) that meets
  QoS and maximises batch gmean throughput under the budget, and pays
  no migration or scheduling overheads.
* :class:`StaticAsymmetricPolicy` is the realistic fixed design: half
  the cores big, half small; the LC service runs on the big half, batch
  jobs on the small half, with core gating for the power budget.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.core_gating import ucp_way_allocation
from repro.core.objective import power_fallback
from repro.sim.coreconfig import CACHE_ALLOCS, CoreConfig, JointConfig
from repro.sim.machine import Assignment, Machine, SliceMeasurement

BIG = CoreConfig.widest()
SMALL = CoreConfig.narrowest()


class AsymmetricOraclePolicy:
    """Oracle big/small split per timeslice, no overheads."""

    name = "asymm-oracle"
    overhead_fraction = 0.0

    def __init__(self, lc_cores: int = 16, lc_ways: float = CACHE_ALLOCS[-1]) -> None:
        self.lc_cores = lc_cores
        self.lc_ways = lc_ways

    def decide(self, machine: Machine, load: float, max_power: float) -> Assignment:
        """Exhaustively pick the best big-core count for the batch jobs."""
        n_jobs = len(machine.batch_profiles)
        budget = machine.params.llc_ways - self.lc_ways
        ways = ucp_way_allocation(machine.batch_profiles, budget)

        lc_joint = self._lc_choice(machine, load)
        lc_power = machine.true_lc_power(lc_joint, load, self.lc_cores)
        reserved = lc_power * self.lc_cores + machine.power.llc_power()

        big_joints = [JointConfig(BIG, w) for w in ways]
        small_joints = [JointConfig(SMALL, w) for w in ways]
        bips_big = np.array(
            [machine.true_batch_bips(j, big_joints[j]) for j in range(n_jobs)]
        )
        bips_small = np.array(
            [machine.true_batch_bips(j, small_joints[j]) for j in range(n_jobs)]
        )
        power_big = np.array(
            [machine.true_batch_power(j, BIG) for j in range(n_jobs)]
        )
        power_small = np.array(
            [machine.true_batch_power(j, SMALL) for j in range(n_jobs)]
        )

        # Jobs with the largest log-throughput gain get big cores first.
        # An asymmetric multicore keeps every core active (Fig. 7b);
        # the oracle picks the feasible big-core count with the best
        # geometric-mean throughput and only falls back to core gating
        # when even the all-small design busts the budget.
        gain_order = np.argsort(-np.log(bips_big / bips_small))
        best: Optional[Tuple[float, List[Optional[JointConfig]]]] = None
        for n_big in range(n_jobs + 1):
            on_big = set(gain_order[:n_big].tolist())
            is_big = np.array([j in on_big for j in range(n_jobs)])
            power = np.where(is_big, power_big, power_small)
            if power.sum() + reserved > max_power:
                continue
            vals = np.where(is_big, bips_big, bips_small)
            score = float(np.exp(np.mean(np.log(vals))))
            if best is None or score > best[0]:
                configs = [
                    big_joints[j] if is_big[j] else small_joints[j]
                    for j in range(n_jobs)
                ]
                best = (score, configs)
        if best is not None:
            configs = best[1]
        else:
            # Fallback: all-small, gating in descending power until the
            # budget is met (the runtime's hard fallback).
            on = power_fallback(
                power_small, reserved, max_power,
                machine.power.gated_core_power(),
            )
            configs = [
                joint if keep else None
                for joint, keep in zip(small_joints, on)
            ]
        return Assignment(
            lc_cores=self.lc_cores,
            lc_config=lc_joint,
            batch_configs=tuple(configs),
        )

    def observe(self, measurement: SliceMeasurement) -> None:
        """Oracle carries no state."""

    def _lc_choice(self, machine: Machine, load: float) -> JointConfig:
        """Least-power core type that meets QoS (big wins ties on safety)."""
        qos = machine.lc_service.qos_latency_s
        small = JointConfig(SMALL, self.lc_ways)
        big = JointConfig(BIG, self.lc_ways)
        if machine.true_lc_p99(small, load, self.lc_cores) <= qos:
            return small
        return big


class StaticAsymmetricPolicy:
    """Fixed 50 % big / 50 % small multicore (§VIII-C).

    The LC service owns the big half; batch jobs run on the small half
    and are gated in descending measured power to meet the budget (the
    runtime's hard fallback).
    """

    name = "asymm-50-50"
    overhead_fraction = 0.011  # same single profiling sample as gating

    def __init__(self, lc_ways: float = CACHE_ALLOCS[-1]) -> None:
        self.lc_ways = lc_ways

    def decide(self, machine: Machine, load: float, max_power: float) -> Assignment:
        """Batch on small cores; gate by measured power to fit the budget."""
        n_big = machine.params.n_cores // 2
        budget = machine.params.llc_ways - self.lc_ways
        ways = ucp_way_allocation(machine.batch_profiles, budget)
        joints = [JointConfig(SMALL, w) for w in ways]

        sample = machine.profile_configs(
            [JointConfig(SMALL, CACHE_ALLOCS[0])], load
        )
        power = sample[1][0]
        lc_joint = JointConfig(BIG, self.lc_ways)
        reserved = (
            machine.true_lc_power(lc_joint, load, n_big) * n_big
            + machine.power.llc_power()
        )
        on = power_fallback(
            power, reserved, max_power, machine.power.gated_core_power()
        )
        configs = [joint if keep else None for joint, keep in zip(joints, on)]
        return Assignment(
            lc_cores=n_big,
            lc_config=lc_joint,
            batch_configs=tuple(configs),
        )

    def observe(self, measurement: SliceMeasurement) -> None:
        """No cross-quantum state."""
