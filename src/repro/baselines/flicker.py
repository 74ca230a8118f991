"""Flicker baseline (Petrica et al., ISCA'13; compared in §VIII-E).

Flicker manages multiprogrammed *batch* mixes on reconfigurable cores:
it profiles each application on nine configurations chosen by a 3MM3
(three-level) design, fits RBF surrogates to predict throughput and
power on the remaining configurations, and searches the space with a
genetic algorithm.  It does not partition the LLC and has no notion of
tail latency, which is exactly why the paper finds it unsuitable for
latency-critical colocation.

Two evaluation methodologies from §VIII-E:

* ``FlickerMethod.PROFILE_ALL`` (the paper's method *a*): every core —
  including the LC service's — cycles through the nine 10 ms profiling
  configurations, then runs 2 ms of GA and 8 ms of steady state.  The
  LC service spends most of the slice in low configurations and
  violates QoS by an order of magnitude.
* ``FlickerMethod.PIN_LC`` (method *b*): the LC cores are pinned to
  {6,6,6} (shrinking the batch power budget) and only batch cores are
  profiled, 1 ms per sample.  QoS violations drop to ~1.5x, still
  present because the service is never given a latency-aware
  configuration or cache isolation.

The policy reuses :class:`repro.core.rbf.RBFSurrogate` (3MM3 + RBF) and
:class:`repro.core.ga.GeneticSearch`, searching the 27 core
configurations per job (no cache dimension).
"""

from __future__ import annotations

import enum
from typing import List, Optional

import numpy as np

from repro.core.ga import GAParams, GeneticSearch
from repro.core.objective import SystemObjective, power_fallback
from repro.core.rbf import RBFSurrogate, l9_sample_configs
from repro.sim.coreconfig import (
    CACHE_ALLOCS,
    N_CORE_CONFIGS,
    CoreConfig,
    JointConfig,
)
from repro.sim.machine import Assignment, Machine, SliceMeasurement


class FlickerMethod(enum.Enum):
    """The two Flicker evaluation methodologies of §VIII-E."""

    PROFILE_ALL = "profile_all"  # method (a): 9 x 10 ms samples, all cores
    PIN_LC = "pin_lc"            # method (b): LC pinned wide, 9 x 1 ms


class FlickerPolicy:
    """Flicker's 3MM3 + RBF + GA pipeline as a harness policy."""

    def __init__(
        self,
        method: FlickerMethod = FlickerMethod.PIN_LC,
        lc_cores: int = 16,
        ga: GAParams = GAParams(),
        seed: int = 0,
    ) -> None:
        self.method = method
        self.lc_cores = lc_cores
        self._searcher = GeneticSearch(ga)
        self._rng = np.random.default_rng(seed)
        self.name = f"flicker-{method.value}"
        if method is FlickerMethod.PROFILE_ALL:
            # 9 x 10 ms profiling + 2 ms GA out of every 100 ms: only
            # 8 ms of each slice runs the chosen configuration.
            self.overhead_fraction = 0.40
        else:
            # 9 x 1 ms profiling + 2 ms GA.
            self.overhead_fraction = 0.11
        self._last_x: Optional[np.ndarray] = None

    #: Fraction of the slice spent in each profiling configuration
    #: (used by the QoS analysis of the Flicker experiment).
    def profiling_fractions(self) -> List[float]:
        """Per-sample slice fractions for the active method."""
        if self.method is FlickerMethod.PROFILE_ALL:
            return [0.10] * 9  # 9 x 10 ms of a 100 ms slice
        return [0.01] * 9  # 9 x 1 ms

    def decide(self, machine: Machine, load: float, max_power: float) -> Assignment:
        """Profile 9 configs, fit RBF surrogates, search with GA."""
        n_jobs = len(machine.batch_profiles)
        sample_cores = l9_sample_configs()
        sample_joints = [JointConfig(c, CACHE_ALLOCS[0]) for c in sample_cores]
        bips_s, power_s, _ = machine.profile_configs(sample_joints, load)
        sample_idx = [j.index for j in sample_joints]

        # Per-job surrogates over the 27 core configurations (evaluated
        # at the sampling cache point; the LLC is unpartitioned).
        core_joint_idx = [
            JointConfig(CoreConfig.from_index(c), CACHE_ALLOCS[0]).index
            for c in range(N_CORE_CONFIGS)
        ]
        bips_hat = np.empty((n_jobs, N_CORE_CONFIGS))
        power_hat = np.empty((n_jobs, N_CORE_CONFIGS))
        for j in range(n_jobs):
            bips_hat[j] = (
                RBFSurrogate(log_space=True)
                .fit(sample_idx, bips_s[:, j])
                .predict(core_joint_idx)
            )
            power_hat[j] = (
                RBFSurrogate(log_space=True)
                .fit(sample_idx, power_s[:, j])
                .predict(core_joint_idx)
            )

        lc_joint = JointConfig(CoreConfig.widest(), CACHE_ALLOCS[-1])
        lc_power = machine.true_lc_power(lc_joint, load, self.lc_cores)
        reserved = lc_power * self.lc_cores + machine.power.llc_power()

        objective = SystemObjective(
            bips=bips_hat,
            power=power_hat,
            max_power=max_power,
            max_ways=machine.params.llc_ways,
            reserved_power=reserved,
            ways_by_config=np.zeros(N_CORE_CONFIGS),
        )
        result = self._searcher.search(
            objective,
            n_dims=n_jobs,
            n_confs=N_CORE_CONFIGS,
            rng=self._rng,
            initial=self._last_x,
        )
        x = result.best_x
        self._last_x = x.copy()

        # Hard fallback, the runtime's own: gate in descending
        # predicted power.
        on = power_fallback(
            power_hat[np.arange(n_jobs), x], reserved, max_power,
            machine.power.gated_core_power(),
        )
        configs = [
            JointConfig(CoreConfig.from_index(int(c)), CACHE_ALLOCS[0])
            if keep else None
            for c, keep in zip(x, on)
        ]

        return Assignment(
            lc_cores=self.lc_cores,
            lc_config=lc_joint,
            batch_configs=tuple(configs),
            shared_llc=True,
        )

    def observe(self, measurement: SliceMeasurement) -> None:
        """Flicker re-profiles every quantum; nothing to carry over."""
