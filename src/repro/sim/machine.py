"""Timeslice-level simulator of a 32-core reconfigurable multicore.

Substitute for the paper's zsim testbed (see DESIGN.md).  The machine
hosts one latency-critical (LC) service load-balanced over ``lc_cores``
cores plus a fixed set of batch jobs on the remaining cores, and
advances in 100 ms decision quanta.  Each quantum it:

* serves the LC service through its queueing model (p99 latency),
* runs every active batch job at the throughput the performance model
  gives for its (core config, cache allocation), applying time
  multiplexing when jobs outnumber batch cores (core relocation),
* accounts chip power (active cores + gated residuals + LLC leakage),
* injects *phase behaviour* (slow AR(1) drift of each job's CPI) and
  measurement noise, the two error sources §VIII-B attributes runtime
  inaccuracy to.

Schedulers interact with the machine only through
:meth:`Machine.profile` (the two 1 ms samples of Fig. 3) and
:meth:`Machine.run_slice` (steady-state execution + end-of-slice
measurements), mirroring the Configuration Controller's interface.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry

from repro.sim.cache import MissRateCurve
from repro.sim.coreconfig import N_JOINT_CONFIGS, CoreConfig, JointConfig
from repro.sim.memory import MemoryDemand, MemorySystem
from repro.sim.perf import AppProfile, PerformanceModel
from repro.sim.power import PowerModel
from repro.snapshot import (
    ARRAY, BOOL, FLOAT, INT, RNG, STR, History, Indexed, Match, Opt, Record,
    Seq, Snapshottable, Transient, Tup,
)
from repro.telemetry.tracer import NULL_TRACER, tracer_of
from repro.workloads.latency_critical import LCService

#: Readings at or below this magnitude are treated as exactly zero by
#: the sensor path: an idle core reports 0.0 by construction, and
#: multiplicative noise on a denormal-scale residue is meaningless.
ZERO_READING_EPS = 1e-12


@dataclass(frozen=True)
class MachineParams:
    """Physical and measurement parameters (Table I plus noise knobs)."""

    n_cores: int = 32
    llc_ways: int = 32
    timeslice_s: float = 0.1
    sample_s: float = 0.001
    #: Relative noise (std) of a 1 ms profiling sample.
    profiling_noise: float = 0.05
    #: Relative noise (std) of a full-slice measurement.
    slice_noise: float = 0.02
    #: Std of the per-slice AR(1) innovation on each job's log-CPI.
    phase_drift: float = 0.02
    #: AR(1) persistence of the phase process.
    phase_persistence: float = 0.9
    #: Effective fraction of a job's fair LLC share it captures when the
    #: cache is unpartitioned (contention makes sharing inefficient).
    shared_llc_efficiency: float = 0.75
    #: Peak memory bandwidth in GB/s; infinite disables bandwidth
    #: contention (the default, matching the paper's cache-centric
    #: evaluation).  See repro.sim.memory.
    peak_memory_bandwidth_gbps: float = math.inf
    #: Queueing aggressiveness of the memory controller when enabled.
    memory_queue_factor: float = 0.5
    #: How the LC service's measured p99 is produced each slice:
    #: "analytical" evaluates the M/G/k approximation (fast, smooth,
    #: perturbed by ``slice_noise``); "des" replays the slice through
    #: the discrete-event queue — per-query fidelity with genuine
    #: sampling noise from the finite query count, like measuring a
    #: real 100 ms window.
    latency_mode: str = "analytical"
    #: Time lost when a core's configuration changes between quanta
    #: (pipeline drain + array power-gate transitions).  Charged
    #: against the slice's useful time for each reconfigured core; the
    #: default 50 us is conservative for SRAM power gating.
    reconfig_transition_s: float = 50e-6

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("n_cores must be positive")
        if self.llc_ways <= 0:
            raise ValueError("llc_ways must be positive")
        if self.timeslice_s <= 0 or self.sample_s <= 0:
            raise ValueError("timeslice_s and sample_s must be positive")
        if self.sample_s > self.timeslice_s:
            raise ValueError("sample_s cannot exceed timeslice_s")
        if not 0 <= self.phase_persistence < 1:
            raise ValueError("phase_persistence must be in [0, 1)")
        if self.latency_mode not in ("analytical", "des"):
            raise ValueError(
                f"latency_mode must be 'analytical' or 'des', "
                f"got {self.latency_mode!r}"
            )
        if self.reconfig_transition_s < 0:
            raise ValueError("reconfig_transition_s must be non-negative")
        if self.reconfig_transition_s >= self.timeslice_s:
            raise ValueError(
                "reconfig_transition_s must be below the timeslice"
            )


@dataclass(frozen=True)
class LCAllocation:
    """Cores + configuration for one additional LC service."""

    cores: int
    config: JointConfig

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("an LC allocation needs at least one core")


@dataclass(frozen=True)
class Assignment:
    """One quantum's resource decision.

    ``lc_cores`` cores run the primary LC service in ``lc_config``;
    machines hosting several LC services (§VII-A: "CuttleSys is
    generalizable to any number of LC and batch services") carry one
    :class:`LCAllocation` per additional service in ``extra_lc``.  Each
    batch job either runs in its :class:`JointConfig` or is gated off
    (``None``).  When active batch jobs outnumber the remaining cores
    they time-multiplex (paper Fig. 8c); when cores outnumber jobs the
    excess cores are gated.
    """

    lc_cores: int
    lc_config: Optional[JointConfig]
    batch_configs: Tuple[Optional[JointConfig], ...]
    #: True models an unpartitioned LLC: per-job ``cache_ways`` are
    #: ignored and every active job contends for an equal share of the
    #: cache (with the shared-way interference penalty).  Used by the
    #: no-partitioning baselines (§VII-B).
    shared_llc: bool = False
    #: Allocations for LC services beyond the first.
    extra_lc: Tuple[LCAllocation, ...] = ()

    def __post_init__(self) -> None:
        if self.lc_cores < 0:
            raise ValueError("lc_cores must be non-negative")
        if self.lc_cores > 0 and self.lc_config is None:
            raise ValueError("lc_config required when lc_cores > 0")

    @property
    def total_lc_cores(self) -> int:
        """Cores held by all LC services together."""
        return self.lc_cores + sum(a.cores for a in self.extra_lc)

    @property
    def active_batch_indices(self) -> Tuple[int, ...]:
        """Indices of batch jobs that are not gated off."""
        return tuple(
            i for i, cfg in enumerate(self.batch_configs) if cfg is not None
        )

    def lc_allocations(self) -> Tuple[Tuple[int, Optional[JointConfig]], ...]:
        """(cores, config) per LC service, primary first."""
        head = ((self.lc_cores, self.lc_config),) if self.lc_cores > 0 else (
            (0, None),
        )
        return head + tuple((a.cores, a.config) for a in self.extra_lc)

    def cache_ways_used(self) -> float:
        """Total fractional LLC ways allocated (Eq. 3 left-hand side)."""
        total = self.lc_config.cache_ways if self.lc_config is not None else 0.0
        total += sum(a.config.cache_ways for a in self.extra_lc)
        half_holders = 0
        for cfg in self.batch_configs:
            if cfg is None:
                continue
            # Half-way shares are the exact sentinel 0.5, never computed.
            if cfg.cache_ways == 0.5:  # repro: noqa[UNIT301]
                half_holders += 1
            else:
                total += cfg.cache_ways
        # Two half-way holders share one physical way.
        total += math.ceil(half_holders / 2.0) if half_holders else 0.0
        return total


@dataclass(frozen=True)
class ProfilingSample:
    """The two 1 ms samples per job (Fig. 3 step 1), with noise.

    Arrays are indexed by batch-job position; configs are the joint
    indices sampled (widest and narrowest core with one LLC way).
    """

    hi_joint_index: int
    lo_joint_index: int
    batch_bips_hi: np.ndarray
    batch_bips_lo: np.ndarray
    batch_power_hi: np.ndarray
    batch_power_lo: np.ndarray
    lc_power_hi: float
    lc_power_lo: float
    #: Per-extra-LC-service power samples (multi-service machines).
    extra_lc_power_hi: Tuple[float, ...] = ()
    extra_lc_power_lo: Tuple[float, ...] = ()


@dataclass(frozen=True)
class SliceMeasurement:
    """End-of-slice measurements the controller feeds back into SGD."""

    assignment: Assignment
    #: Measured per-batch-job BIPS (0 for gated jobs).
    batch_bips: np.ndarray
    #: Instructions executed per batch job this slice (absolute count).
    batch_instructions: np.ndarray
    #: Measured per-batch-job core power in watts (residual if gated).
    batch_power: np.ndarray
    #: Measured p99 latency of the LC service, seconds (0 if absent).
    lc_p99: float
    #: Queries served by the LC service this slice.
    lc_queries_served: float
    #: Instructions executed by the LC service this slice.
    lc_instructions: float
    #: LC per-core utilization.
    lc_utilization: float
    #: Measured LC per-core power in watts.
    lc_core_power: float
    #: Total chip power (cores + LLC), watts.
    total_power: float
    #: Fractional load the LC service saw this slice.
    lc_load: float
    #: Memory-stall inflation from bandwidth contention (1.0 = none;
    #: only exceeds 1.0 when the machine's bandwidth model is enabled).
    memory_stall_multiplier: float = 1.0
    #: Batch jobs whose core configuration changed this quantum (each
    #: pays the reconfiguration transition, MachineParams).
    reconfigurations: int = 0
    #: Per-extra-LC-service measurements (machines hosting >1 service).
    extra_lc_p99: Tuple[float, ...] = ()
    extra_lc_core_power: Tuple[float, ...] = ()
    extra_lc_instructions: Tuple[float, ...] = ()
    extra_lc_loads: Tuple[float, ...] = ()

    @property
    def total_batch_instructions(self) -> float:
        """Useful work metric of §VII-B (instructions over the slice)."""
        return float(np.sum(self.batch_instructions))


#: Snapshot codecs of the machine's value types.  Configurations
#: travel as joint-configuration indices and profiles by value (fault
#: injection and job churn install profiles no registry holds).
JOINT = Indexed(JointConfig)
ASSIGNMENT = Record(
    Assignment,
    lc_cores=INT,
    lc_config=Opt(JOINT),
    batch_configs=Seq(Opt(JOINT), tuple),
    shared_llc=BOOL,
    extra_lc=Seq(Record(LCAllocation, cores=INT, config=JOINT), tuple),
)
PROFILE = Record(
    AppProfile, FLOAT, name=STR, miss_curve=Record(MissRateCurve, FLOAT)
)
#: One batch-slot replacement: (slot, the profile installed).
REPLACEMENT = Tup(INT, PROFILE)
MEASUREMENT = Record(
    SliceMeasurement,
    FLOAT,
    assignment=ASSIGNMENT,
    batch_bips=ARRAY,
    batch_instructions=ARRAY,
    batch_power=ARRAY,
    reconfigurations=INT,
    extra_lc_p99=Seq(FLOAT, tuple),
    extra_lc_core_power=Seq(FLOAT, tuple),
    extra_lc_instructions=Seq(FLOAT, tuple),
    extra_lc_loads=Seq(FLOAT, tuple),
)
#: JSONable form of a :class:`SliceMeasurement` (canonical run digests).
measurement_state = MEASUREMENT.encode


class Machine(Snapshottable):
    """A 32-core reconfigurable multicore hosting one LC + batch jobs.

    Snapshots carry what :meth:`run_slice` and :meth:`profile` mutate;
    a resumed run rebuilds the static structure before it restores.
    The batch profiles travel as the history of slot replacements,
    which restore replays over the initial profiles (named by digest).
    """

    SNAPSHOT_FIELDS = {
        "profiles_sha256": Match("initial batch profiles"),
        "time_s": FLOAT,
        "_rng": RNG,
        "_log_phase": ARRAY,
        "_replacements": History(REPLACEMENT),
        # Rebuilt from the replacements by restore().
        "batch_profiles": Transient(list),
        "_previous_assignment": Opt(ASSIGNMENT),
    }

    #: Telemetry tracer; the shared no-op unless a session attaches one.
    trace = NULL_TRACER

    def __init__(
        self,
        lc_service: LCService,
        batch_profiles: Sequence[AppProfile],
        params: MachineParams = MachineParams(),
        perf: Optional[PerformanceModel] = None,
        power: Optional[PowerModel] = None,
        seed: int = 1,
        extra_services: Sequence[LCService] = (),
    ) -> None:
        self.lc_service = lc_service
        #: All hosted LC services, primary first.
        self.lc_services = [lc_service, *extra_services]
        self.batch_profiles = list(batch_profiles)
        self._initial_profiles = tuple(self.batch_profiles)
        #: (slot, profile) per :meth:`replace_batch_job`, in order.
        self._replacements: List[Tuple[int, AppProfile]] = []
        self.params = params
        self.perf = perf if perf is not None else PerformanceModel()
        self.power = (
            power
            if power is not None
            else PowerModel(llc_ways=params.llc_ways)
        )
        self._rng = np.random.default_rng(seed)
        # Per-job multiplicative phase factor on CPI (log-AR(1) state).
        self._log_phase = np.zeros(len(self.batch_profiles))
        self.time_s = 0.0
        #: Assignment of the most recently completed slice (drives
        #: reconfiguration-transition accounting; part of snapshots).
        self._previous_assignment: Optional[Assignment] = None
        self.memory = MemorySystem(
            peak_bandwidth_gbps=params.peak_memory_bandwidth_gbps,
            queue_factor=params.memory_queue_factor,
        )

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Route profiling/slice/reconfigure spans into a session."""
        # Session plumbing re-attached after restore(); deliberately
        # outside the snapshot contract.
        self.trace = tracer_of(telemetry)  # repro: noqa[SNAP701]

    # ------------------------------------------------------------------
    # Ground truth (no noise): what the oracle and matrices are built on.
    # ------------------------------------------------------------------

    def true_batch_bips(
        self,
        job: int,
        joint: JointConfig,
        shared_way: bool = False,
        ways_override: Optional[float] = None,
        mem_multiplier: float = 1.0,
    ) -> float:
        """Phase-adjusted BIPS of batch job ``job`` in ``joint``.

        ``ways_override`` substitutes an effective cache share (used by
        the unpartitioned-LLC mode, where the share is fractional);
        ``mem_multiplier`` applies bandwidth-contention stall inflation.
        """
        ways = joint.cache_ways if ways_override is None else ways_override
        base = self.perf.bips(
            self.batch_profiles[job], joint.core, ways, shared_way=shared_way,
            mem_multiplier=mem_multiplier,
        )
        return base / math.exp(self._log_phase[job])

    def true_batch_power(self, job: int, core: CoreConfig) -> float:
        """Core power of batch job ``job`` in ``core`` at full utilization."""
        return self.power.core_power(self.batch_profiles[job], core)

    def true_lc_p99(
        self,
        joint: JointConfig,
        load: float,
        n_cores: int,
        shared_way: bool = False,
        ways_override: Optional[float] = None,
        mem_multiplier: float = 1.0,
        service: Optional[LCService] = None,
    ) -> float:
        """p99 latency of an LC service in ``joint`` on ``n_cores``.

        ``service`` defaults to the primary LC service.
        """
        service = service if service is not None else self.lc_service
        ways = joint.cache_ways if ways_override is None else ways_override
        return service.tail_latency(
            self.perf, joint.core, ways, load, n_cores, shared_way=shared_way,
            mem_multiplier=mem_multiplier,
        )

    def true_lc_power(
        self,
        joint: JointConfig,
        load: float,
        n_cores: int,
        ways_override: Optional[float] = None,
        service: Optional[LCService] = None,
    ) -> float:
        """Per-core power of an LC core in ``joint`` at the given load."""
        service = service if service is not None else self.lc_service
        ways = joint.cache_ways if ways_override is None else ways_override
        util = min(
            1.0,
            service.utilization(self.perf, joint.core, ways, load, n_cores),
        )
        return self.power.core_power(
            service.profile, joint.core, utilization=util
        )

    def oracle_batch_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """Ground-truth batch BIPS and core power on all 108 joints.

        Returns ``(bips, power)``, each ``(n_batch, N_JOINT_CONFIGS)``,
        phase-adjusted at the *current* instant — the exact tables the
        controller's PQ reconstruction is trying to recover, and what
        the accuracy auditor scores each quantum against
        (docs/observability.md).  Phases advance in :meth:`run_slice`,
        so callers auditing a decision must snapshot before running the
        slice it applies to.
        """
        # Oracle table fills are the auditor's dominant cost; the span
        # feeds the virtual-cost profiler (evaluations = model calls).
        with self.trace.span(
            "mgk.latency", category="oracle", kind="batch_tables",
            evaluations=len(self.batch_profiles) * N_JOINT_CONFIGS,
        ):
            return self.true_batch_tables()

    def true_batch_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`oracle_batch_tables` without the profiler span.

        Entry ``[j, i]`` equals ``true_batch_bips(j, JOINT_CONFIGS[i])``
        and ``true_batch_power(j, JOINT_CONFIGS[i].core)`` bit for bit.
        """
        # repro.core imports this module, so the shared row builder is
        # imported at call time.
        from repro.core.matrices import power_rows

        phase = np.array([math.exp(v) for v in self._log_phase])
        bips = self.perf.bips_rows(self.batch_profiles) / phase[:, None]
        return bips, power_rows(self.batch_profiles, self.power)

    def oracle_lc_latency_row(
        self, load: float, n_cores: int, service_idx: int = 0
    ) -> np.ndarray:
        """Ground-truth p99 of one LC service across all 108 joints.

        The analytical queueing model is deterministic given (config,
        load, cores), so this is the oracle row the controller's
        reconstructed latency predictions are audited against.
        """
        # repro.core imports this module, so the shared row builder is
        # imported at call time.
        from repro.core.matrices import latency_row

        with self.trace.span(
            "mgk.latency", category="oracle", kind="lc_row",
            evaluations=N_JOINT_CONFIGS,
        ):
            return latency_row(
                self.lc_services[service_idx], self.perf, load, n_cores
            )

    # ------------------------------------------------------------------
    # Scheduler-facing interface.
    # ------------------------------------------------------------------

    def _noisy(self, value: float, rel_std: float) -> float:
        if not math.isfinite(value):
            # A NaN/inf reading (e.g. an injected sensor fault) must not
            # consume RNG draws, or it would shift every later sample
            # and break seed-exact replay of faulted runs.
            return math.nan
        if abs(value) <= ZERO_READING_EPS:
            # Idle-core readings are exactly zero by construction, but
            # tolerate denormal-scale residue from upstream arithmetic:
            # multiplicative noise on a ~0 reading is still ~0, and
            # skipping the draw here keeps the stream aligned with runs
            # where the reading is exactly 0.0.
            return value
        return value * float(
            np.exp(self._rng.normal(0.0, rel_std) - rel_std**2 / 2.0)
        )

    def profile(
        self,
        load: float,
        lc_cores: int = 16,
        extra_loads: Sequence[float] = (),
        extra_lc_cores: Sequence[int] = (),
    ) -> ProfilingSample:
        """Take the two 1 ms profiling samples of every job (Fig. 3, step 1).

        All jobs are sampled on the widest {6,6,6} and narrowest {2,2,2}
        core with one LLC way (half the cores per configuration per
        millisecond, to avoid a power overshoot — §VIII-A1).  Samples
        carry profiling noise.  ``lc_cores`` is the primary LC service's
        current core allocation (sets the utilization its power is
        sampled at); extra services take theirs via ``extra_loads`` /
        ``extra_lc_cores``.
        """
        with self.trace.span("machine.profile", category="machine"):
            return self._profile(load, lc_cores, extra_loads, extra_lc_cores)

    def _profile(
        self,
        load: float,
        lc_cores: int = 16,
        extra_loads: Sequence[float] = (),
        extra_lc_cores: Sequence[int] = (),
    ) -> ProfilingSample:
        hi = JointConfig(CoreConfig.widest(), 1.0)
        lo = JointConfig(CoreConfig.narrowest(), 1.0)
        n = len(self.batch_profiles)
        bips_hi = np.empty(n)
        bips_lo = np.empty(n)
        pow_hi = np.empty(n)
        pow_lo = np.empty(n)
        noise = self.params.profiling_noise
        for j in range(n):
            bips_hi[j] = self._noisy(self.true_batch_bips(j, hi), noise)
            bips_lo[j] = self._noisy(self.true_batch_bips(j, lo), noise)
            pow_hi[j] = self._noisy(self.true_batch_power(j, hi.core), noise)
            pow_lo[j] = self._noisy(self.true_batch_power(j, lo.core), noise)
        # The LC services are sampled for power only; tail latency is
        # measured over full timeslices (run_slice), not 1 ms windows.
        lc_pow_hi = self._noisy(self.true_lc_power(hi, load, lc_cores), noise)
        lc_pow_lo = self._noisy(self.true_lc_power(lo, load, lc_cores), noise)
        extra_hi = []
        extra_lo = []
        for idx, service in enumerate(self.lc_services[1:]):
            e_load = extra_loads[idx] if idx < len(extra_loads) else load
            e_cores = (
                extra_lc_cores[idx] if idx < len(extra_lc_cores) else lc_cores
            )
            extra_hi.append(
                self._noisy(
                    self.true_lc_power(hi, e_load, e_cores, service=service),
                    noise,
                )
            )
            extra_lo.append(
                self._noisy(
                    self.true_lc_power(lo, e_load, e_cores, service=service),
                    noise,
                )
            )
        return ProfilingSample(
            hi_joint_index=hi.index,
            lo_joint_index=lo.index,
            batch_bips_hi=bips_hi,
            batch_bips_lo=bips_lo,
            batch_power_hi=pow_hi,
            batch_power_lo=pow_lo,
            lc_power_hi=lc_pow_hi,
            lc_power_lo=lc_pow_lo,
            extra_lc_power_hi=tuple(extra_hi),
            extra_lc_power_lo=tuple(extra_lo),
        )

    def profile_configs(
        self, joints: Sequence[JointConfig], load: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Noisy 1 ms samples of every job on each given configuration.

        Generalisation of :meth:`profile` used by Flicker's nine-sample
        3MM3 design (§VIII-E).  Returns ``(bips, power, lc_power)``
        where the first two are [n_configs x n_jobs] and the last is
        [n_configs].
        """
        if not joints:
            raise ValueError("need at least one configuration to profile")
        n = len(self.batch_profiles)
        noise = self.params.profiling_noise
        bips = np.empty((len(joints), n))
        power = np.empty((len(joints), n))
        lc_power = np.empty(len(joints))
        for c, joint in enumerate(joints):
            for j in range(n):
                bips[c, j] = self._noisy(self.true_batch_bips(j, joint), noise)
                power[c, j] = self._noisy(
                    self.true_batch_power(j, joint.core), noise
                )
            lc_power[c] = self._noisy(self.true_lc_power(joint, load, 1), noise)
        return bips, power, lc_power

    def run_slice(
        self,
        assignment: Assignment,
        load: float,
        extra_loads: Sequence[float] = (),
    ) -> SliceMeasurement:
        """Execute one 100 ms timeslice under ``assignment``.

        Returns measured (noisy) per-job metrics and advances the
        machine's phase state and clock.  Machines hosting several LC
        services take one fractional load per extra service in
        ``extra_loads``.
        """
        with self.trace.span("slice", category="machine") as span:
            measurement = self._run_slice(assignment, load, extra_loads)
            span.set(reconfigurations=measurement.reconfigurations)
            return measurement

    def _run_slice(
        self,
        assignment: Assignment,
        load: float,
        extra_loads: Sequence[float] = (),
    ) -> SliceMeasurement:
        self._validate(assignment)
        if len(extra_loads) != len(assignment.extra_lc):
            raise ValueError(
                f"expected {len(assignment.extra_lc)} extra loads, "
                f"got {len(extra_loads)}"
            )
        p = self.params
        n_jobs = len(self.batch_profiles)
        batch_cores = p.n_cores - assignment.total_lc_cores
        active = assignment.active_batch_indices
        share = (
            min(1.0, batch_cores / len(active)) if active else 0.0
        )

        if assignment.shared_llc:
            n_lc = (1 if assignment.lc_cores > 0 else 0) + len(
                assignment.extra_lc
            )
            n_sharers = len(active) + n_lc
            ways_override = (
                p.llc_ways / max(n_sharers, 1) * p.shared_llc_efficiency
            )
            shared_flags = [True] * n_jobs
        else:
            ways_override = None
            shared_flags = self._shared_way_flags(assignment)

        mem_multiplier = self._solve_memory_contention(
            assignment, load, active, share, shared_flags, ways_override,
            extra_loads=extra_loads,
        )

        with self.trace.span("reconfigure", category="machine") as rspan:
            reconfigured = self._reconfigured_jobs(assignment)
            rspan.set(n_cores=len(reconfigured))
        transition_factor = 1.0 - p.reconfig_transition_s / p.timeslice_s

        batch_bips = np.zeros(n_jobs)
        batch_power = np.zeros(n_jobs)
        for j in active:
            joint = assignment.batch_configs[j]
            true_bips = self.true_batch_bips(
                j, joint, shared_way=shared_flags[j],
                ways_override=ways_override, mem_multiplier=mem_multiplier,
            )
            if j in reconfigured:
                true_bips *= transition_factor
            batch_bips[j] = self._noisy(true_bips * share, p.slice_noise)
            batch_power[j] = self._noisy(
                self.true_batch_power(j, joint.core) * share, p.slice_noise
            )
        batch_instructions = batch_bips * 1e9 * p.timeslice_s

        # LC services: primary first, then the extras.
        primary = self._run_lc(
            self.lc_service, assignment.lc_cores, assignment.lc_config,
            load, ways_override, assignment.shared_llc, mem_multiplier,
        )
        extras = tuple(
            self._run_lc(
                service, alloc.cores, alloc.config, extra_load,
                ways_override, assignment.shared_llc, mem_multiplier,
            )
            for service, alloc, extra_load in zip(
                self.lc_services[1:], assignment.extra_lc, extra_loads
            )
        )

        # Chip power: active batch cores + gated cores + LC cores + LLC.
        occupied = min(batch_cores, len(active))
        gated_cores = batch_cores - occupied
        total_power = (
            float(np.sum(batch_power))
            + gated_cores * self.power.gated_core_power()
            + primary["core_power"] * assignment.lc_cores
            + sum(
                extra["core_power"] * alloc.cores
                for extra, alloc in zip(extras, assignment.extra_lc)
            )
            + self.power.llc_power()
        )

        self._advance_phases()
        self.time_s += p.timeslice_s
        self._previous_assignment = assignment
        return SliceMeasurement(
            assignment=assignment,
            reconfigurations=len(reconfigured),
            batch_bips=batch_bips,
            batch_instructions=batch_instructions,
            batch_power=batch_power,
            lc_p99=primary["p99"],
            lc_queries_served=primary["served"],
            lc_instructions=primary["instructions"],
            lc_utilization=primary["utilization"],
            lc_core_power=primary["core_power"],
            total_power=total_power,
            lc_load=load,
            memory_stall_multiplier=mem_multiplier,
            extra_lc_p99=tuple(e["p99"] for e in extras),
            extra_lc_core_power=tuple(e["core_power"] for e in extras),
            extra_lc_instructions=tuple(e["instructions"] for e in extras),
            extra_lc_loads=tuple(extra_loads),
        )

    def _run_lc(
        self,
        service: LCService,
        cores: int,
        config: Optional[JointConfig],
        load: float,
        ways_override: Optional[float],
        shared: bool,
        mem_multiplier: float,
    ) -> Dict[str, float]:
        """Measured quantities of one LC service for this slice."""
        p = self.params
        if cores <= 0 or config is None:
            return {
                "p99": 0.0, "served": 0.0, "instructions": 0.0,
                "utilization": 0.0, "core_power": 0.0,
            }
        lc_ways = (
            ways_override if ways_override is not None else config.cache_ways
        )
        if p.latency_mode == "des":
            p99 = self._des_p99(
                config, load, cores, lc_ways, shared_way=shared,
                mem_multiplier=mem_multiplier, service=service,
            )
        else:
            p99 = self._noisy(
                self.true_lc_p99(
                    config, load, cores, shared_way=shared,
                    ways_override=ways_override,
                    mem_multiplier=mem_multiplier, service=service,
                ),
                p.slice_noise,
            )
        qps = service.qps_at_load(load)
        capacity = cores / service.service_time(
            self.perf, config.core, lc_ways, mem_multiplier=mem_multiplier
        )
        served = min(qps, capacity) * p.timeslice_s
        utilization = min(
            1.0,
            service.utilization(self.perf, config.core, lc_ways, load, cores),
        )
        core_power = self._noisy(
            self.true_lc_power(
                config, load, cores, ways_override=ways_override,
                service=service,
            ),
            p.slice_noise,
        )
        return {
            "p99": p99,
            "served": served,
            "instructions": served * service.work_instructions,
            "utilization": utilization,
            "core_power": core_power,
        }

    def _des_p99(
        self,
        joint: JointConfig,
        load: float,
        n_cores: int,
        lc_ways: float,
        shared_way: bool,
        mem_multiplier: float,
        service: Optional[LCService] = None,
    ) -> float:
        """Per-query p99 from a discrete-event replay of the slice.

        The measurement window matches the paper's: the previous 100 ms
        timeslice.  A short warm-up extends the simulated horizon so
        the queue reaches steady state before measuring.
        """
        from repro.workloads.queueing import DiscreteEventQueue

        service = service if service is not None else self.lc_service
        service_time = service.service_time(
            self.perf, joint.core, lc_ways, shared_way=shared_way,
            mem_multiplier=mem_multiplier,
        )
        queue = DiscreteEventQueue(
            arrival_rate=service.qps_at_load(load),
            service_time_mean=service_time,
            service_scv=service.service_scv,
            servers=n_cores,
        )
        horizon = self.params.timeslice_s * 3.0  # warm-up + window
        sojourns = queue.simulate(horizon, self._rng)
        if sojourns.size == 0:
            return 0.0
        window = sojourns[sojourns.size // 3:]
        return float(np.percentile(window, 99))

    def _solve_memory_contention(
        self,
        assignment: Assignment,
        load: float,
        active: Sequence[int],
        share: float,
        shared_flags: Sequence[bool],
        ways_override: Optional[float],
        extra_loads: Sequence[float] = (),
    ) -> float:
        """Fixed-point memory-stall multiplier for this slice's jobs."""
        if not self.memory.enabled:
            return 1.0
        hz = self.perf.effective_frequency_ghz * 1e9
        demands = []
        for j in active:
            joint = assignment.batch_configs[j]
            ways = (
                joint.cache_ways if ways_override is None else ways_override
            )
            core_cpi, mem_cpi = self.perf.cpi_split(
                self.batch_profiles[j], joint.core, ways,
                shared_way=shared_flags[j],
            )
            phase = math.exp(self._log_phase[j])
            scale = phase / max(share, 1e-9)
            demands.append(
                MemoryDemand(
                    core_seconds=core_cpi * scale / hz,
                    mem_seconds=mem_cpi * scale / hz,
                    misses_per_unit=self.batch_profiles[j].miss_curve.mpki(
                        ways, shared=shared_flags[j]
                    )
                    / 1000.0,
                )
            )
        lc_blocks = [(self.lc_service, assignment.lc_cores,
                      assignment.lc_config, load)]
        lc_blocks.extend(
            (service, alloc.cores, alloc.config, extra_load)
            for service, alloc, extra_load in zip(
                self.lc_services[1:], assignment.extra_lc, extra_loads
            )
        )
        for service, cores, config, lc_load in lc_blocks:
            if cores <= 0 or config is None:
                continue
            ways = (
                config.cache_ways if ways_override is None else ways_override
            )
            core_cpi, mem_cpi = self.perf.cpi_split(
                service.profile, config.core, ways,
                shared_way=assignment.shared_llc,
            )
            work = service.work_instructions
            # Aggregate the load-balanced cores into one demand whose
            # unit is a query, capped at the arrival rate.
            demands.append(
                MemoryDemand(
                    core_seconds=work * core_cpi / hz / cores,
                    mem_seconds=work * mem_cpi / hz / cores,
                    misses_per_unit=work
                    * service.profile.miss_curve.mpki(
                        ways, shared=assignment.shared_llc
                    )
                    / 1000.0,
                    rate_cap=max(service.qps_at_load(lc_load), 1e-9),
                )
            )
        return self.memory.solve(demands)

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------

    def _validate(self, assignment: Assignment) -> None:
        if len(assignment.batch_configs) != len(self.batch_profiles):
            raise ValueError(
                f"assignment covers {len(assignment.batch_configs)} batch "
                f"jobs, machine hosts {len(self.batch_profiles)}"
            )
        if assignment.total_lc_cores > self.params.n_cores:
            raise ValueError("LC core allocations exceed total cores")
        if len(assignment.extra_lc) != len(self.lc_services) - 1:
            raise ValueError(
                f"assignment carries {len(assignment.extra_lc)} extra LC "
                f"allocations; machine hosts {len(self.lc_services)} services"
            )
        if not assignment.shared_llc:
            ways = assignment.cache_ways_used()
            if ways > self.params.llc_ways + 1e-9:
                raise ValueError(
                    f"assignment uses {ways} LLC ways of {self.params.llc_ways}"
                )

    def _reconfigured_jobs(self, assignment: Assignment) -> set:
        """Batch jobs whose core configuration changed since last slice.

        Cache-way changes are free (partitioning registers); changing a
        core's section widths drains the pipeline and power-gates
        arrays, costing ``reconfig_transition_s`` of the slice.
        """
        previous = getattr(self, "_previous_assignment", None)
        if previous is None or len(previous.batch_configs) != len(
            assignment.batch_configs
        ):
            return set()
        changed = set()
        for j, (old, new) in enumerate(
            zip(previous.batch_configs, assignment.batch_configs)
        ):
            if new is None:
                continue
            if old is None or old.core != new.core:
                changed.add(j)
        return changed

    def _shared_way_flags(self, assignment: Assignment) -> List[bool]:
        """Mark batch jobs whose half-way allocation is co-occupied."""
        flags = [False] * len(assignment.batch_configs)
        halves = [
            i
            for i, cfg in enumerate(assignment.batch_configs)
            # Exact sentinel 0.5 (half-way share), never computed.
            if cfg is not None and cfg.cache_ways == 0.5  # repro: noqa[UNIT301]
        ]
        for pos, job in enumerate(halves):
            alone = pos == len(halves) - 1 and len(halves) % 2 == 1
            flags[job] = not alone
        return flags

    def _advance_phases(self) -> None:
        p = self.params
        innovation = self._rng.normal(
            0.0, p.phase_drift, size=len(self.batch_profiles)
        )
        self._log_phase = p.phase_persistence * self._log_phase + innovation

    def replace_batch_job(self, job: int, profile: AppProfile) -> None:
        """Swap in a new application on batch slot ``job`` (job churn).

        Models a batch job running to completion and the cluster
        scheduler placing a fresh — possibly never-seen — application
        on the freed core.  The new job starts with a clean phase
        state; schedulers must re-profile it (the controller resets its
        matrix rows via ``reset_job``).
        """
        if not 0 <= job < len(self.batch_profiles):
            raise ValueError(f"batch job index out of range: {job}")
        self.batch_profiles[job] = profile
        self._replacements.append((job, profile))
        self._log_phase[job] = 0.0

    @functools.cached_property
    def profiles_sha256(self) -> str:
        """Digest of the initial batch profiles (computed on first use:
        a machine that is never snapshotted does not pay for it)."""
        return hashlib.sha256(json.dumps(
            [PROFILE.encode(p) for p in self._initial_profiles],
            sort_keys=True,
        ).encode()).hexdigest()

    def restore(self, state: Mapping[str, Any]) -> None:
        """Restore the snapshot, then replay its slot replacements."""
        super().restore(state)
        self.batch_profiles = list(self._initial_profiles)
        for job, profile in self._replacements:
            self.batch_profiles[job] = profile

    def reference_max_power(self) -> float:
        """The paper's 100 % power budget for this workload.

        §VII-A: "the system's maximum power is the average per-core
        power across all jobs on reconfigurable cores scaled to 32
        cores" — computed at the widest configuration, plus LLC power.
        """
        widest = CoreConfig.widest()
        per_core = [
            self.true_batch_power(j, widest)
            for j in range(len(self.batch_profiles))
        ]
        per_core.append(
            self.power.core_power(self.lc_service.profile, widest)
        )
        return (
            float(np.mean(per_core)) * self.params.n_cores
            + self.power.llc_power()
        )

    def describe(self) -> str:
        """Human-readable summary of the simulated system (Table I)."""
        p = self.params
        return (
            f"{p.n_cores}-core reconfigurable multicore, "
            f"{p.llc_ways}-way shared LLC, "
            f"{self.perf.frequency_ghz:.1f} GHz nominal "
            f"({self.perf.effective_frequency_ghz:.2f} GHz effective), "
            f"{self.perf.mem_latency_cycles:.0f}-cycle DRAM, "
            f"timeslice {p.timeslice_s * 1e3:.0f} ms, "
            f"sample {p.sample_s * 1e3:.0f} ms"
        )
