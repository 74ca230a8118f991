"""Deterministic fault injection around a :class:`~repro.sim.machine.Machine`.

The injector perturbs exactly the interfaces the controller consumes —
profiling samples, slice measurements, requested reconfigurations — and
the environment the harness feeds it (power budget, LC load, batch-job
population).  It never touches the machine's internal state, so the
underlying physics stays truthful; only what the *controller can see or
request* is corrupted, mirroring how real sensor and actuator faults
present.

Determinism: each :class:`~repro.faults.spec.FaultSpec` draws from its
own ``numpy`` RNG stream seeded from ``(seed, spec position)``, so a
scenario replays injection-for-injection regardless of how other specs
consume randomness.

Every injection increments ``faults.injected.<kind>`` in the attached
telemetry session (and the injector's own ``injected`` tally), which is
how the fault study proves faults actually fired.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.spec import FaultScenario, FaultSpec
from repro.logs import get_logger
from repro.sim.coreconfig import CoreConfig, JointConfig
from repro.sim.machine import (
    JOINT,
    Assignment,
    Machine,
    ProfilingSample,
    SliceMeasurement,
)
from repro.snapshot import (
    ARRAY, FLOAT, INT, RNG, Indexed, Map, Match, Opt, Seq, Snapshottable,
    Tup,
)

log = get_logger("faults.injector")


class FaultInjector(Snapshottable):
    """Owns a scenario's fault state, RNG streams, and tallies.

    One injector drives one run: construct it, hand it to
    :func:`repro.experiments.harness.run_policy` via ``faults=``, and
    the harness wraps the machine with :class:`FaultyMachine` and
    consults the injector each quantum for budget/load/churn faults.
    Snapshots carry the per-spec RNG streams, tallies, frozen-sensor
    readings and standing reconfiguration pins, so a killed run resumed
    mid-scenario replays injection-for-injection.
    """

    SNAPSHOT_FIELDS = {
        "spec_count": Match("fault spec count"),
        "quantum": INT,
        "_rngs": Seq(RNG),
        "injected": Map(INT),
        "_frozen_profile": Map(Tup(ARRAY, ARRAY, FLOAT, FLOAT), key=INT),
        "_frozen_power": Map(Tup(ARRAY, FLOAT, FLOAT), key=INT),
        "_pins": Map(Tup(Indexed(CoreConfig), INT), key=INT),
        "_previous_batch_configs": Opt(Seq(Opt(JOINT), tuple)),
    }

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        seed: int = 0,
        telemetry=None,
    ) -> None:
        if isinstance(specs, FaultScenario):
            seed = specs.seed
            specs = specs.specs
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        if not self.specs:
            raise ValueError("an injector needs at least one fault spec")
        self.seed = seed
        # One independent stream per spec: replay-exact regardless of
        # which other faults are active.
        self._rngs = [
            np.random.default_rng([seed, i]) for i in range(len(self.specs))
        ]
        self.telemetry = telemetry
        self.quantum = 0
        #: Injections so far, by kind.
        self.injected: Dict[str, int] = {}
        # stuck_power snapshots: per-spec frozen sensor readings.
        self._frozen_profile: Dict[int, tuple] = {}
        self._frozen_power: Dict[int, tuple] = {}
        # failed_reconfig pins: job -> (old core config, expiry quantum).
        self._pins: Dict[int, Tuple[object, int]] = {}
        # Batch configurations that actually ran last quantum.
        self._previous_batch_configs: Optional[Tuple[Optional[JointConfig], ...]] = None

    @property
    def spec_count(self) -> int:
        """Number of fault specs (one RNG stream each)."""
        return len(self.specs)

    @classmethod
    def from_scenario(
        cls, scenario: FaultScenario, telemetry=None
    ) -> "FaultInjector":
        """Build an injector replaying ``scenario`` exactly."""
        return cls(scenario.specs, seed=scenario.seed, telemetry=telemetry)

    def attach_telemetry(self, telemetry) -> None:
        """Route injection counters into a telemetry session."""
        # Session plumbing re-attached after restore(); deliberately
        # outside the snapshot contract.
        self.telemetry = telemetry  # repro: noqa[SNAP701]

    def _count(self, kind: str, n: int = 1) -> None:
        if n <= 0:
            return
        self.injected[kind] = self.injected.get(kind, 0) + n
        if self.telemetry is not None:
            self.telemetry.metrics.counter(f"faults.injected.{kind}").inc(n)

    def total_injected(self) -> int:
        """All injections so far, across kinds."""
        return sum(self.injected.values())

    def _active(self, kind: str):
        """(spec index, spec) pairs of ``kind`` active this quantum."""
        return [
            (i, s)
            for i, s in enumerate(self.specs)
            if s.kind == kind and s.active(self.quantum)
        ]

    # ------------------------------------------------------------------
    # Harness-facing faults (environment).
    # ------------------------------------------------------------------

    def begin_quantum(self, quantum: int) -> None:
        """Advance the injector's clock; expire elapsed reconfig pins."""
        self.quantum = quantum
        self._pins = {
            job: (core, expiry)
            for job, (core, expiry) in self._pins.items()
            if expiry > quantum
        }

    def effective_budget(self, budget: float) -> float:
        """The power budget after any active ``cap_drop`` faults."""
        for _, spec in self._active("cap_drop"):
            budget *= spec.effective_magnitude
            self._count("cap_drop")
        return budget

    def effective_load(self, load: float) -> float:
        """The LC load after any active ``load_spike`` faults."""
        for _, spec in self._active("load_spike"):
            load = min(1.0, load * spec.effective_magnitude)
            self._count("load_spike")
        return load

    def crash_events(self, n_jobs: int) -> List[int]:
        """Batch slots that crash this quantum (``batch_crash`` faults)."""
        slots = []
        for i, spec in self._active("batch_crash"):
            rng = self._rngs[i]
            if rng.random() < spec.rate:
                candidates = [
                    j for j in range(n_jobs) if spec.applies_to_job(j)
                ]
                if candidates:
                    slot = candidates[int(rng.integers(len(candidates)))]
                    slots.append(slot)
                    self._count("batch_crash")
                    log.debug(
                        "quantum %d: batch job %d crashes",
                        self.quantum, slot,
                    )
        return slots

    # ------------------------------------------------------------------
    # Machine-facing faults (sensors and actuators).
    # ------------------------------------------------------------------

    def wrap(self, machine: Machine) -> "FaultyMachine":
        """Wrap ``machine`` so its observable interfaces are perturbed."""
        if isinstance(machine, FaultyMachine):
            return machine
        return FaultyMachine(machine, self)

    def perturb_profile(self, sample: ProfilingSample) -> ProfilingSample:
        """Apply sampling faults to the two 1 ms profiling samples."""
        n = len(sample.batch_bips_hi)
        bips_hi = sample.batch_bips_hi.copy()
        bips_lo = sample.batch_bips_lo.copy()
        pow_hi = sample.batch_power_hi.copy()
        pow_lo = sample.batch_power_lo.copy()
        lc_hi = sample.lc_power_hi
        lc_lo = sample.lc_power_lo
        changed = False

        for i, spec in self._active("drop_sample"):
            rng = self._rngs[i]
            dropped = 0
            for arr in (bips_hi, bips_lo, pow_hi, pow_lo):
                for j in range(n):
                    if spec.applies_to_job(j) and rng.random() < spec.rate:
                        arr[j] = np.nan
                        dropped += 1
            if rng.random() < spec.rate:
                lc_hi = float("nan")
                dropped += 1
            if rng.random() < spec.rate:
                lc_lo = float("nan")
                dropped += 1
            if dropped:
                changed = True
                self._count("drop_sample", dropped)

        for i, spec in self._active("outlier_sample"):
            rng = self._rngs[i]
            factor = spec.effective_magnitude
            corrupted = 0
            for arr in (bips_hi, bips_lo, pow_hi, pow_lo):
                for j in range(n):
                    if spec.applies_to_job(j) and rng.random() < spec.rate:
                        arr[j] *= factor
                        corrupted += 1
            if rng.random() < spec.rate:
                lc_hi *= factor
                corrupted += 1
            if corrupted:
                changed = True
                self._count("outlier_sample", corrupted)

        for i, spec in self._active("stuck_power"):
            if i not in self._frozen_profile:
                # Freeze at the first readings inside the window.
                self._frozen_profile[i] = (
                    pow_hi.copy(), pow_lo.copy(), lc_hi, lc_lo,
                )
            else:
                pow_hi, pow_lo, lc_hi, lc_lo = self._frozen_profile[i]
                pow_hi = pow_hi.copy()
                pow_lo = pow_lo.copy()
                changed = True
                self._count("stuck_power")

        if not changed:
            return sample
        return replace(
            sample,
            batch_bips_hi=bips_hi,
            batch_bips_lo=bips_lo,
            batch_power_hi=pow_hi,
            batch_power_lo=pow_lo,
            lc_power_hi=lc_hi,
            lc_power_lo=lc_lo,
        )

    def effective_assignment(self, assignment: Assignment) -> Assignment:
        """Apply ``failed_reconfig`` faults to a requested assignment.

        A failing core keeps its *old* section widths for ``duration``
        quanta while the new cache-way allocation still applies (way
        partitioning uses separate registers and does not fail here).
        Returns the assignment that actually runs; the controller can
        detect the fault by diffing it against what it requested.
        """
        previous = self._previous_batch_configs
        configs = list(assignment.batch_configs)
        changed = False

        # Honour standing pins first.
        for job, (core, _) in self._pins.items():
            cfg = configs[job] if job < len(configs) else None
            if cfg is not None and cfg.core != core:
                configs[job] = JointConfig(core, cfg.cache_ways)
                changed = True

        for i, spec in self._active("failed_reconfig"):
            rng = self._rngs[i]
            if previous is None:
                continue
            for j, cfg in enumerate(configs):
                if cfg is None or not spec.applies_to_job(j):
                    continue
                if j in self._pins or j >= len(previous):
                    continue
                old = previous[j]
                if old is None or old.core == cfg.core:
                    continue
                if rng.random() < spec.rate:
                    self._pins[j] = (old.core, self.quantum + spec.duration)
                    configs[j] = JointConfig(old.core, cfg.cache_ways)
                    changed = True
                    self._count("failed_reconfig")
                    log.debug(
                        "quantum %d: core %d reconfiguration fails "
                        "(%s stays %s for %d quanta)",
                        self.quantum, j, cfg.core.label, old.core.label,
                        spec.duration,
                    )

        effective = (
            replace(assignment, batch_configs=tuple(configs))
            if changed
            else assignment
        )
        self._previous_batch_configs = effective.batch_configs
        return effective

    def perturb_measurement(
        self, measurement: SliceMeasurement
    ) -> SliceMeasurement:
        """Apply sensor faults to the end-of-slice measurements."""
        stuck = self._active("stuck_power")
        if not stuck:
            return measurement
        batch_power = measurement.batch_power
        total_power = measurement.total_power
        lc_core_power = measurement.lc_core_power
        changed = False
        for i, _ in stuck:
            if i not in self._frozen_power:
                self._frozen_power[i] = (
                    batch_power.copy(), total_power, lc_core_power,
                )
            else:
                batch_power, total_power, lc_core_power = (
                    self._frozen_power[i]
                )
                batch_power = batch_power.copy()
                changed = True
                self._count("stuck_power")
        if not changed:
            return measurement
        return replace(
            measurement,
            batch_power=batch_power,
            total_power=total_power,
            lc_core_power=lc_core_power,
        )


class FaultyMachine:
    """A :class:`Machine` whose observable interfaces pass the injector.

    Composition, not inheritance: every attribute the schedulers read
    (``params``, ``perf``, ``power``, ``lc_services``, ...) delegates to
    the wrapped machine, while :meth:`profile` and :meth:`run_slice`
    route their inputs/outputs through the :class:`FaultInjector`.
    """

    def __init__(self, machine: Machine, injector: FaultInjector) -> None:
        self._machine = machine
        self._injector = injector

    def __getattr__(self, name: str):
        return getattr(self._machine, name)

    @property
    def machine(self) -> Machine:
        """The unwrapped machine (ground truth, for experiments)."""
        return self._machine

    @property
    def injector(self) -> FaultInjector:
        """The injector perturbing this machine."""
        return self._injector

    def profile(self, *args, **kwargs) -> ProfilingSample:
        """Profiling samples, with sampling faults applied."""
        sample = self._machine.profile(*args, **kwargs)
        return self._injector.perturb_profile(sample)

    def profile_configs(self, *args, **kwargs):
        """Multi-config profiling passes through unperturbed.

        Only Flicker's 3MM3 design uses this path; the fault study
        targets the CuttleSys loop, whose interface is
        :meth:`profile` + :meth:`run_slice`.
        """
        return self._machine.profile_configs(*args, **kwargs)

    def run_slice(
        self,
        assignment: Assignment,
        load: float,
        extra_loads: Sequence[float] = (),
    ) -> SliceMeasurement:
        """Execute the *effective* assignment; perturb the measurements.

        The requested assignment first passes the injector's actuator
        faults (failed reconfigurations pin cores at their old section
        widths), then runs on the real machine, and the resulting
        measurements pass its sensor faults.  The measurement's
        ``assignment`` field is the effective one, so consumers diffing
        it against their request see exactly what real hardware would
        report.
        """
        effective = self._injector.effective_assignment(assignment)
        measurement = self._machine.run_slice(
            effective, load, extra_loads=extra_loads
        )
        return self._injector.perturb_measurement(measurement)
