"""Perfect-inference CuttleSys: the reconfigurable-hardware oracle.

Identical decision structure to :class:`~repro.core.runtime.CuttleSysPolicy`
— least-power QoS-meeting LC configuration, then DDS over the batch
jobs — but fed the machine's *true* metric tables instead of SGD
reconstructions, with no profiling overhead.  Two uses:

* an upper bound on what any inference scheme could achieve on this
  hardware (the "oracle reconfigurable" of the ablation study: the gap
  between this and CuttleSys is the cost of imperfect inference);
* a reference scheduler for the DVFS/asymmetric hardware comparisons,
  isolating the hardware mechanism from the runtime.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.dds import DDSParams, DDSSearch
from repro.core.matrices import latency_row
from repro.core.objective import SystemObjective, power_fallback
from repro.sim.coreconfig import (
    CACHE_ALLOCS,
    N_JOINT_CONFIGS,
    CoreConfig,
    JointConfig,
)
from repro.sim.machine import Assignment, Machine, SliceMeasurement


class OracleReconfigPolicy:
    """CuttleSys's decision pipeline on ground-truth tables."""

    name = "oracle-reconfig"
    overhead_fraction = 0.0

    def __init__(
        self,
        lc_cores: int = 16,
        dds: DDSParams = DDSParams(),
        seed: int = 0,
    ) -> None:
        self.lc_cores = lc_cores
        self._searcher = DDSSearch(dds)
        self._rng = np.random.default_rng(seed)
        self._last_x: Optional[np.ndarray] = None

    def decide(self, machine: Machine, load: float, max_power: float) -> Assignment:
        """True-table LC scan + DDS over the batch jobs."""
        n_jobs = len(machine.batch_profiles)
        lc_joint, lc_watts = self.select_lc(machine, load)
        reserved = lc_watts * self.lc_cores + machine.power.llc_power()

        bips, power = machine.true_batch_tables()
        objective = SystemObjective(
            bips=bips,
            power=power,
            max_power=max_power,
            max_ways=machine.params.llc_ways,
            reserved_power=reserved,
            reserved_ways=lc_joint.cache_ways,
        )
        result = self._searcher.search(
            objective,
            n_dims=n_jobs,
            n_confs=N_JOINT_CONFIGS,
            rng=self._rng,
            initial=self._last_x,
        )
        x = result.best_x
        self._last_x = x.copy()
        # Hard fallback, the runtime's own: gate hungriest-first.
        on = power_fallback(
            power[np.arange(n_jobs), x], reserved, max_power,
            machine.power.gated_core_power(),
        )
        configs = [
            JointConfig.from_index(int(i)) if keep else None
            for i, keep in zip(x, on)
        ]

        return Assignment(
            lc_cores=self.lc_cores,
            lc_config=lc_joint,
            batch_configs=tuple(configs),
        )

    def observe(self, measurement: SliceMeasurement) -> None:
        """Oracle carries no state."""

    def select_lc(
        self, machine: Machine, load: float
    ) -> Tuple[JointConfig, float]:
        """The LC configuration and its per-core true power.

        The least-power configuration whose true p99 meets QoS at
        ``lc_cores`` cores, or the widest one when none does.
        """
        latency = latency_row(
            machine.lc_service, machine.perf, load, self.lc_cores
        )
        qos = machine.lc_service.qos_latency_s
        best, best_watts = None, np.inf
        for i in range(N_JOINT_CONFIGS):
            if latency[i] <= qos:
                joint = JointConfig.from_index(i)
                watts = machine.true_lc_power(joint, load, self.lc_cores)
                if watts < best_watts:
                    best, best_watts = joint, watts
        if best is None:
            best = JointConfig(CoreConfig.widest(), CACHE_ALLOCS[-1])
            best_watts = machine.true_lc_power(best, load, self.lc_cores)
        return best, best_watts
