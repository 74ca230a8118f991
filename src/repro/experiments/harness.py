"""Shared experiment harness: drive a policy against a machine.

The harness owns the decision-quantum loop of §IV-B: each 100 ms slice
it asks the policy for an assignment (the policy may profile the
machine first), executes the slice, feeds the measurements back, and
accounts the policy's scheduling overheads against batch throughput.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.logs import get_logger
from repro.sim.machine import (
    MEASUREMENT,
    Machine,
    MachineParams,
    SliceMeasurement,
)
from repro.sim.perf import PerformanceModel
from repro.sim.power import PowerModel
from repro.snapshot import (
    FLOAT, INT, RNG, STR, Match, Nested, Seq, Snapshottable, Tup,
)
from repro.telemetry.live import current_emitter
from repro.telemetry.metrics import DecisionRecord
from repro.telemetry.tracer import tracer_of
from repro.workloads.batch import batch_profile
from repro.workloads.latency_critical import lc_service
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import Mix

log = get_logger("experiments.harness")

#: Fractional slack on the power budget before a slice counts as a
#: power violation.  Measured chip power carries ``slice_noise``-level
#: measurement error (~2 % std, MachineParams), so excursions inside
#: this band are indistinguishable from sensor noise rather than real
#: budget breaches.  Applied by :meth:`PolicyRun.power_violated`, the
#: one power-violation predicate every report and counter uses.
POWER_TOLERANCE = 0.02


def build_machine_for_mix(
    mix: Mix,
    seed: int = 1,
    params: Optional[MachineParams] = None,
    reconfigurable: bool = True,
) -> Machine:
    """Instantiate the simulated 32-core machine for one paper mix.

    ``reconfigurable=False`` builds the fixed-core variant the gating
    and asymmetric baselines run on: no 18 % energy or 1.67 % frequency
    reconfigurability penalty (§VII).  The LC service objects (and
    hence QoS targets) are shared across both variants so comparisons
    are apples-to-apples.
    """
    params = params if params is not None else MachineParams()
    perf = PerformanceModel(reconfigurable=reconfigurable)
    power = PowerModel(reconfigurable=reconfigurable, llc_ways=params.llc_ways)
    return Machine(
        lc_service=lc_service(mix.lc_name),
        batch_profiles=[batch_profile(name) for name in mix.batch_names],
        params=params,
        perf=perf,
        power=power,
        seed=seed,
    )


def reference_power_for_mix(
    mix: Mix, seed: int = 1, params: Optional[MachineParams] = None
) -> float:
    """The mix's 100 % power budget (§VII-A), shared by every design.

    Computed on the reconfigurable machine and held constant across
    designs, as in the paper's fixed-power comparisons.
    """
    return build_machine_for_mix(mix, seed=seed, params=params).reference_max_power()


@dataclass
class PolicyRun(Snapshottable):
    """Everything measured over one policy execution (the snapshot
    carries what the quantum loop appends to)."""

    SNAPSHOT_FIELDS = {
        "degraded_quanta": INT,
        "churn_events": Seq(Tup(INT, INT, STR)),
        "loads": Seq(FLOAT),
        "budgets": Seq(FLOAT),
        "measurements": Seq(MEASUREMENT),
    }

    policy_name: str
    power_budget_w: float
    #: QoS target of the primary LC service (seconds).
    qos_s: float = 0.0
    #: QoS targets of the extra LC services, in service order.
    qos_extra_s: Tuple[float, ...] = ()
    measurements: List[SliceMeasurement] = field(default_factory=list)
    loads: List[float] = field(default_factory=list)
    budgets: List[float] = field(default_factory=list)
    overhead_fraction: float = 0.0
    #: (slice index, batch slot, new app name) per churn event.
    churn_events: List[tuple] = field(default_factory=list)
    #: Quanta where the policy raised and the harness served a fallback
    #: assignment instead of dying (see ``run_policy`` degradation).
    degraded_quanta: int = 0
    #: When ``run_policy(stop_after=k)`` paused the run at quantum ``k``,
    #: the JSONable state that resumes it (``resume_state=``); ``None``
    #: for completed runs.  Excluded from comparisons: two runs covering
    #: the same slices are equal whether or not one was paused later.
    resume_state: Optional[Dict[str, Any]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def n_slices(self) -> int:
        """Number of decision quanta executed."""
        return len(self.measurements)

    def total_batch_instructions(self) -> float:
        """Useful batch work over the run, net of scheduling overheads.

        This is the §VII-B comparison metric: total instructions
        executed by batch applications over the same wall-clock time.
        """
        raw = sum(m.total_batch_instructions for m in self.measurements)
        return raw * (1.0 - self.overhead_fraction)

    def gmean_throughput_series(self) -> np.ndarray:
        """Per-slice geometric mean of active batch jobs' BIPS."""
        out = np.zeros(self.n_slices)
        for i, m in enumerate(self.measurements):
            active = m.batch_bips[m.batch_bips > 0]
            if active.size:
                out[i] = float(np.exp(np.mean(np.log(active))))
        return out

    def qos_violated(self, m: SliceMeasurement) -> bool:
        """Whether any hosted service's p99 exceeded its QoS target."""
        return bool(
            m.lc_p99 > self.qos_s and m.assignment.lc_cores > 0
        ) or any(
            p99 > qos for p99, qos in zip(m.extra_lc_p99, self.qos_extra_s)
        )

    @staticmethod
    def power_violated(
        m: SliceMeasurement, budget: float,
        tolerance: float = POWER_TOLERANCE,
    ) -> bool:
        """Whether measured power exceeded ``budget`` (+tolerance).

        ``tolerance`` defaults to :data:`POWER_TOLERANCE` (2 %): the
        measurement-noise band within which an excursion cannot be told
        apart from sensor error.  Pass 0.0 to count every overshoot.
        """
        return bool(m.total_power > budget * (1.0 + tolerance))

    def qos_violations(self) -> int:
        """Slices where any hosted service's p99 exceeded its QoS target."""
        return sum(1 for m in self.measurements if self.qos_violated(m))

    def power_violations(self, tolerance: float = POWER_TOLERANCE) -> int:
        """Slices whose measured power exceeded the budget (+tolerance)."""
        return sum(
            1
            for m, budget in zip(self.measurements, self.budgets)
            if self.power_violated(m, budget, tolerance)
        )

    def worst_p99_ratio(self) -> float:
        """Max measured p99 over the run, as a multiple of QoS."""
        if not self.measurements:
            return 0.0
        return max(m.lc_p99 for m in self.measurements) / self.qos_s

    def to_csv(self, path) -> None:
        """Write one row per slice (for external plotting/analysis).

        Columns: slice index, load, budget W, measured power W, LC
        p99 s, QoS target s, LC cores, LC config, active batch jobs,
        batch instructions — plus, on multi-service machines, one
        ``lc<k>_p99_s`` / ``lc<k>_qos_s`` / ``lc<k>_cores`` triple per
        extra hosted service.
        """
        import csv

        n_extra = len(self.qos_extra_s)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            header = [
                "slice", "load", "budget_w", "power_w", "lc_p99_s",
                "qos_s", "lc_cores", "lc_config", "active_batch",
                "batch_instructions",
            ]
            for k in range(1, n_extra + 1):
                header.extend(
                    [f"lc{k}_p99_s", f"lc{k}_qos_s", f"lc{k}_cores"]
                )
            writer.writerow(header)
            for i, m in enumerate(self.measurements):
                a = m.assignment
                row = [
                    i,
                    f"{self.loads[i]:.4f}",
                    f"{self.budgets[i]:.3f}",
                    f"{m.total_power:.3f}",
                    f"{m.lc_p99:.6f}",
                    f"{self.qos_s:.6f}",
                    a.lc_cores,
                    a.lc_config.label if a.lc_config else "",
                    len(a.active_batch_indices),
                    f"{m.total_batch_instructions:.0f}",
                ]
                for k in range(n_extra):
                    p99 = (
                        m.extra_lc_p99[k] if k < len(m.extra_lc_p99) else 0.0
                    )
                    cores = (
                        a.extra_lc[k].cores if k < len(a.extra_lc) else 0
                    )
                    row.extend(
                        [
                            f"{p99:.6f}",
                            f"{self.qos_extra_s[k]:.6f}",
                            cores,
                        ]
                    )
                writer.writerow(row)

    def summary(self) -> str:
        """One-line human-readable digest."""
        instr = self.total_batch_instructions()
        return (
            f"{self.policy_name}: {self.n_slices} slices, "
            f"{instr / 1e9:.2f} B batch instructions, "
            f"{self.qos_violations()} QoS violations, "
            f"{self.power_violations()} power violations "
            f"(budget {self.power_budget_w:.1f} W)"
        )


def _fallback_assignment(machine: Machine):
    """Emergency posture when a policy dies with no usable history.

    QoS priority: the LC services get conservative wide allocations;
    every batch job is gated.  Zero batch throughput for the quantum,
    but the machine keeps serving queries and stays inside any sane
    power budget.
    """
    from repro.sim.coreconfig import CACHE_ALLOCS, CoreConfig, JointConfig
    from repro.sim.machine import Assignment, LCAllocation

    conservative = JointConfig(CoreConfig.widest(), CACHE_ALLOCS[-1])
    n_extra = len(machine.lc_services) - 1
    extra = tuple(
        LCAllocation(cores=2, config=conservative) for _ in range(n_extra)
    )
    lc_cores = max(1, min(16, machine.params.n_cores - 2 * n_extra - 1))
    return Assignment(
        lc_cores=lc_cores,
        lc_config=conservative,
        batch_configs=(None,) * len(machine.batch_profiles),
        extra_lc=extra,
    )


def _degraded_assignment(policy, run: "PolicyRun", machine: Machine):
    """Best available stand-in when the policy raised this quantum.

    Preference order: the policy's own last-known-good cache (hardened
    CuttleSys exposes ``last_good_assignment``), then the most recent
    assignment that actually ran, then the gated-batch fallback.
    """
    last_good = getattr(policy, "last_good_assignment", None)
    if last_good is None and run.measurements:
        last_good = run.measurements[-1].assignment
    if last_good is None:
        last_good = _fallback_assignment(machine)
    return last_good


def _record_decision(telemetry, quantum: int, policy,
                     measurement: SliceMeasurement) -> None:
    """Pair the policy's prediction with the slice's measurements.

    Works for any :class:`Policy`: policies without a
    ``last_prediction`` (the baselines) contribute measured-only
    records whose predicted side is NaN, which the error histograms
    simply skip.
    """
    prediction = getattr(policy, "last_prediction", None)
    n_jobs = len(measurement.batch_bips)
    measured_p99 = (measurement.lc_p99, *measurement.extra_lc_p99)
    if prediction is None:
        predicted_bips: Tuple[float, ...] = (math.nan,) * n_jobs
        predicted_p99: Tuple[float, ...] = (math.nan,) * len(measured_p99)
        predicted_power = math.nan
    else:
        predicted_bips = tuple(prediction.bips)
        predicted_p99 = tuple(prediction.p99_s)
        predicted_power = prediction.power_w
    telemetry.record_decision(DecisionRecord(
        quantum=quantum,
        predicted_bips=predicted_bips,
        measured_bips=tuple(float(b) for b in measurement.batch_bips),
        predicted_p99_s=predicted_p99,
        measured_p99_s=measured_p99,
        predicted_power_w=predicted_power,
        measured_power_w=measurement.total_power,
    ))


class QuantumStepper(Snapshottable):
    """Resumable stepwise iterator over the decision-quantum loop.

    One :meth:`step` call executes exactly one decision quantum —
    churn, budget, decide, run_slice, observe, telemetry — against the
    machine/policy pair the stepper was built with.  :func:`run_policy`
    is a thin loop over this class; long-lived callers (the
    ``repro.server`` daemon) instead hold a stepper and tick it one
    quantum at a time, interleaving job submissions between steps.

    A stepper restored from a snapshot continues the quantum sequence
    byte-identically to one that was never paused.  Each snapshot
    carries the ``origin``, the sha256 of the stepper's canonical
    snapshot at construction, so a snapshot restored into a stepper
    built from other arguments (mix, seed, load, faults) is rejected.
    """

    SNAPSHOT_FIELDS = {
        "origin": Match("run origin"),
        "next_slice": INT,
        "load_estimate": FLOAT,
        "extra_estimates": Seq(FLOAT, tuple),
        "churn_rng": RNG,
        "machine": Nested(),
        "policy": Nested(),
        "faults": Nested(),
        "run": Nested(),
    }

    def __init__(
        self,
        machine: Machine,
        policy,
        trace: LoadTrace,
        power_cap_fraction: float = 0.7,
        n_slices: int = 10,
        power_cap_trace: Optional[Sequence[float]] = None,
        max_power_w: Optional[float] = None,
        churn_period: Optional[int] = None,
        churn_pool: Optional[Sequence] = None,
        churn_seed: int = 0,
        extra_traces: Sequence[LoadTrace] = (),
        telemetry=None,
        faults=None,
        on_policy_error: str = "degrade",
    ) -> None:
        if n_slices <= 0:
            raise ValueError("n_slices must be positive")
        if not 0 < power_cap_fraction <= 1.0:
            raise ValueError("power_cap_fraction must be in (0, 1]")
        if on_policy_error not in ("degrade", "raise"):
            raise ValueError(
                f"on_policy_error must be 'degrade' or 'raise', "
                f"got {on_policy_error!r}"
            )
        if churn_period is not None:
            if churn_period <= 0:
                raise ValueError("churn_period must be positive")
            if not churn_pool:
                raise ValueError(
                    "churn_period requires a non-empty churn_pool"
                )
        if faults is not None:
            machine = faults.wrap(machine)
            if telemetry is not None:
                faults.attach_telemetry(telemetry)
        self.machine = machine
        self.policy = policy
        self.trace = trace
        self.power_cap_fraction = power_cap_fraction
        self.n_slices = n_slices
        self.power_cap_trace = power_cap_trace
        self.churn_period = churn_period
        self.churn_pool = churn_pool
        self.extra_traces = tuple(extra_traces)
        self.telemetry = telemetry
        self.faults = faults
        self.on_policy_error = on_policy_error
        self.reference = (
            max_power_w if max_power_w is not None
            else machine.reference_max_power()
        )
        self.run = PolicyRun(
            policy_name=policy.name,
            power_budget_w=self.reference * power_cap_fraction,
            qos_s=machine.lc_service.qos_latency_s,
            qos_extra_s=tuple(
                s.qos_latency_s for s in machine.lc_services[1:]
            ),
            overhead_fraction=policy.overhead_fraction,
        )
        self.tracer = tracer_of(telemetry)
        self.auditor = getattr(telemetry, "auditor", None)
        if telemetry is not None:
            machine.attach_telemetry(telemetry)
            attach = getattr(policy, "attach_telemetry", None)
            if attach is not None:
                attach(telemetry)
            log.info(
                "running %s for %d slices (budget %.1f W, telemetry on)",
                policy.name, n_slices, self.run.power_budget_w,
            )
        self.churn_rng = np.random.default_rng(churn_seed)
        self.load_estimate = trace.load_at(0.0)
        self.extra_estimates = tuple(
            t.load_at(0.0) for t in self.extra_traces
        )
        self.next_slice = 0
        #: Digest of this stepper's fresh state (None for policies
        #: without snapshots, which cannot pause either).
        self.origin: Optional[str] = None
        if isinstance(policy, Snapshottable):
            canonical = json.dumps(
                self.snapshot(), sort_keys=True, separators=(",", ":")
            )
            self.origin = hashlib.sha256(canonical.encode()).hexdigest()

    @property
    def done(self) -> bool:
        """True once every quantum has executed."""
        return self.next_slice >= self.n_slices

    def step(self) -> SliceMeasurement:
        """Execute exactly one decision quantum; returns its measurement."""
        if self.done:
            raise RuntimeError(
                f"all {self.n_slices} quanta already executed"
            )
        machine = self.machine
        policy = self.policy
        telemetry = self.telemetry
        tracer = self.tracer
        # Without a session the harness skips its own per-quantum
        # accounting entirely, keeping the hot loop at near-zero overhead.
        session_on = telemetry is not None
        auditor = self.auditor
        faults = self.faults
        run = self.run
        i = self.next_slice

        def replace_job(slot, profile, instant, category, **args) -> None:
            # Churn and crash-respawn: the slot's process is new, so
            # the policy re-profiles it.
            machine.replace_batch_job(slot, profile)
            notify = getattr(policy, "on_job_replaced", None)
            if notify is not None:
                notify(slot)
            run.churn_events.append((i, slot, profile.name))
            if session_on:
                telemetry.counter("harness.job_churn").inc()
                tracer.instant(instant, category=category, slot=slot, **args)

        def count_degraded() -> None:
            run.degraded_quanta += 1
            if session_on:
                telemetry.counter("harness.degraded_quanta").inc()
                telemetry.counter("faults.recovered.degraded_quantum").inc()

        with tracer.span("quantum", category="harness", index=i):
            if session_on:
                recorder = getattr(telemetry, "provenance", None)
                if recorder is not None:
                    # The flight recorder indexes records by harness
                    # quantum, which survives pause/resume (the loop
                    # restarts at the saved ``next_slice``).
                    recorder.begin_quantum(i)
            if faults is not None:
                faults.begin_quantum(i)
                for slot in faults.crash_events(
                    len(machine.batch_profiles)
                ):
                    # Crash/respawn: same application, fresh process —
                    # phase state resets.
                    replace_job(
                        slot, machine.batch_profiles[slot],
                        "batch_crash", "faults",
                    )
                    log.info(
                        "slice %d: batch job %d crashed and respawned",
                        i, slot,
                    )
            if (
                self.churn_period is not None
                and i > 0
                and i % self.churn_period == 0
            ):
                slot = int(
                    self.churn_rng.integers(len(machine.batch_profiles))
                )
                newcomer = self.churn_pool[
                    int(self.churn_rng.integers(len(self.churn_pool)))
                ]
                replace_job(
                    slot, newcomer, "job_churn", "harness", app=newcomer.name
                )
                log.debug(
                    "slice %d: batch slot %d replaced by %s",
                    i, slot, newcomer.name,
                )
            fraction = (
                self.power_cap_trace[i]
                if self.power_cap_trace is not None
                else self.power_cap_fraction
            )
            budget = self.reference * fraction
            if faults is not None:
                budget = faults.effective_budget(budget)
            degraded = False
            with tracer.span("decide", category="harness"):
                try:
                    if self.extra_traces:
                        assignment = policy.decide(
                            machine, self.load_estimate, budget,
                            extra_loads=self.extra_estimates,
                        )
                    else:
                        assignment = policy.decide(
                            machine, self.load_estimate, budget
                        )
                except Exception as exc:
                    if self.on_policy_error == "raise":
                        # Callers (the fault study) recover completed
                        # slices from the aborted run via this attribute.
                        exc.partial_run = run
                        raise
                    degraded = True
                    assignment = _degraded_assignment(policy, run, machine)
                    count_degraded()
                    if session_on:
                        tracer.instant(
                            "degraded_quantum", category="faults",
                            error=type(exc).__name__,
                        )
                    log.warning(
                        "slice %d: policy %s raised %s: %s; serving "
                        "last-known-good assignment",
                        i, policy.name, type(exc).__name__, exc,
                    )
            if auditor is not None and not degraded:
                # Before run_slice: batch phases advance there, and the
                # audit must score the oracle the decision faced.
                auditor.audit_decision(policy, machine, i)
            actual_load = self.trace.load_at(machine.time_s)
            if faults is not None:
                actual_load = faults.effective_load(actual_load)
            actual_extras = tuple(
                t.load_at(machine.time_s) for t in self.extra_traces
            )
            measurement = machine.run_slice(
                assignment, actual_load, extra_loads=actual_extras
            )
            with tracer.span("observe", category="harness"):
                try:
                    policy.observe(measurement)
                except Exception as exc:
                    if self.on_policy_error == "raise":
                        exc.partial_run = run
                        raise
                    if not degraded:
                        degraded = True
                        count_degraded()
                    log.warning(
                        "slice %d: policy %s observe raised %s: %s; "
                        "measurement dropped",
                        i, policy.name, type(exc).__name__, exc,
                    )
            run.measurements.append(measurement)
            run.loads.append(actual_load)
            run.budgets.append(budget)
            if session_on:
                # A degraded quantum has no fresh prediction; record a
                # measured-only entry rather than pairing the slice
                # with a stale one.
                _record_decision(
                    telemetry, i, None if degraded else policy, measurement
                )
                metrics = telemetry.metrics
                metrics.counter("harness.reconfigurations").inc(
                    measurement.reconfigurations
                )
                qos_violated = run.qos_violated(measurement)
                if qos_violated:
                    metrics.counter("harness.qos_violations").inc()
                    log.info(
                        "slice %d: QoS violated (p99 %.2f ms, target "
                        "%.2f ms)", i, measurement.lc_p99 * 1e3,
                        run.qos_s * 1e3,
                    )
                power_violated = run.power_violated(measurement, budget)
                if power_violated:
                    metrics.counter("harness.power_violations").inc()
                live = current_emitter()
                if live is not None:
                    # Streaming fleet run: push this quantum's outcome
                    # through the bounded event bus (lossy, non-
                    # blocking — see repro.telemetry.live).
                    prediction = (
                        None if degraded
                        else getattr(policy, "last_prediction", None)
                    )
                    live.emit(
                        "quantum",
                        index=i,
                        lc_p99_ms=measurement.lc_p99 * 1e3,
                        power_w=measurement.total_power,
                        budget_w=budget,
                        qos_violated=qos_violated,
                        power_violated=power_violated,
                        predicted_power_w=getattr(
                            prediction, "power_w", None
                        ),
                    )
                metrics.gauge("harness.power_w").set(
                    measurement.total_power
                )
                metrics.gauge("harness.lc_load").set(actual_load)
                metrics.histogram("slice.lc_p99_ms").observe(
                    measurement.lc_p99 * 1e3
                )
                if auditor is not None:
                    auditor.audit_measurement(
                        machine, measurement, i, run.qos_s,
                        run.qos_extra_s,
                        policy=None if degraded else policy,
                    )
            self.load_estimate = actual_load
            self.extra_estimates = actual_extras
        self.next_slice = i + 1
        return measurement


def run_policy(
    machine: Machine,
    policy,
    trace: LoadTrace,
    power_cap_fraction: float = 0.7,
    n_slices: int = 10,
    power_cap_trace: Optional[Sequence[float]] = None,
    max_power_w: Optional[float] = None,
    churn_period: Optional[int] = None,
    churn_pool: Optional[Sequence] = None,
    churn_seed: int = 0,
    extra_traces: Sequence[LoadTrace] = (),
    telemetry=None,
    faults=None,
    on_policy_error: str = "degrade",
    stop_after: Optional[int] = None,
    resume_state: Optional[Dict[str, Any]] = None,
) -> PolicyRun:
    """Drive ``policy`` on ``machine`` for ``n_slices`` decision quanta.

    ``power_cap_fraction`` scales :meth:`Machine.reference_max_power`;
    ``power_cap_trace`` (one fraction per slice) overrides it for the
    varying-budget experiments (Fig. 8b).  The policy sees the *previous*
    slice's load as its estimate — decisions react one quantum late,
    exactly as in the paper (§VIII-D1).

    Job churn: with ``churn_period`` set, every that-many slices one
    random batch job completes and a fresh application drawn from
    ``churn_pool`` takes its core; policies exposing ``on_job_replaced``
    (CuttleSys) are notified so they re-profile the newcomer.

    Multi-service machines take one :class:`LoadTrace` per extra LC
    service in ``extra_traces``; the policy's ``decide`` must accept an
    ``extra_loads`` keyword (CuttleSys does).

    ``telemetry`` takes a :class:`repro.telemetry.Telemetry` session:
    the harness emits nested ``quantum`` > ``decide``/``observe`` spans
    (policy and machine phases nest inside), records one
    predicted-vs-measured :class:`DecisionRecord` per quantum, and
    counts QoS/power violations, reconfigurations and job churn.  Any
    :class:`Policy` benefits; policies exposing ``attach_telemetry``
    (CuttleSys) additionally emit their internal phase spans.

    Fault injection and graceful degradation (docs/robustness.md):
    ``faults`` takes a :class:`repro.faults.FaultInjector`; the harness
    wraps the machine so profiling samples, measurements and requested
    reconfigurations pass the injector, and consults it each quantum
    for power-cap drops, load spikes and batch-job crashes.
    ``on_policy_error`` controls what a policy exception costs: the
    default ``"degrade"`` records a degraded quantum (telemetry
    counter ``harness.degraded_quanta``), serves the policy's last-known-good
    assignment (or a gated-batch fallback), and keeps running;
    ``"raise"`` propagates, aborting the run — the unhardened arm of
    the fault study.

    Crash-safe pause/resume (docs/robustness.md): ``stop_after=k``
    executes quanta ``0..k-1``, captures the full loop state (machine,
    policy, fault injector, churn RNG, accumulated measurements) in the
    returned run's :attr:`PolicyRun.resume_state`, and returns early.
    Passing that dict back via ``resume_state=`` to a run freshly built
    from the *same* machine/policy/trace/fault arguments continues at
    quantum ``k``; the completed resumed run is byte-identical to an
    uninterrupted one.  A state from a run built otherwise raises
    :class:`repro.snapshot.SnapshotError`.  Both require a
    :class:`~repro.snapshot.Snapshottable` policy
    (:class:`repro.core.runtime.CuttleSysPolicy` is one).
    """
    if stop_after is not None and stop_after <= 0:
        raise ValueError("stop_after must be positive")
    if stop_after is not None or resume_state is not None:
        if not isinstance(policy, Snapshottable):
            raise ValueError(
                f"policy {policy.name!r} does not support "
                f"snapshot/restore; stop_after/resume_state need both"
            )
    stepper = QuantumStepper(
        machine, policy, trace,
        power_cap_fraction=power_cap_fraction,
        n_slices=n_slices,
        power_cap_trace=power_cap_trace,
        max_power_w=max_power_w,
        churn_period=churn_period,
        churn_pool=churn_pool,
        churn_seed=churn_seed,
        extra_traces=extra_traces,
        telemetry=telemetry,
        faults=faults,
        on_policy_error=on_policy_error,
    )
    if resume_state is not None:
        stepper.restore(resume_state)
        log.info(
            "resuming %s at quantum %d/%d",
            policy.name, stepper.next_slice, n_slices,
        )
    while not stepper.done:
        stepper.step()
        if (
            stop_after is not None
            and stepper.next_slice >= stop_after
            and not stepper.done
        ):
            stepper.run.resume_state = stepper.snapshot()
            log.info(
                "pausing %s after quantum %d/%d (resume state captured)",
                policy.name, stepper.next_slice, n_slices,
            )
            break
    return stepper.run
