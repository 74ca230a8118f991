"""CuttleSys as a schedulable policy (the full loop of Fig. 3).

A *policy* is anything the experiment harness can drive one decision
quantum at a time: it observes the machine (profiling samples, previous
slice measurements) and produces an :class:`~repro.sim.machine.Assignment`.
:class:`CuttleSysPolicy` wraps the
:class:`~repro.core.controller.ResourceController`; the baselines in
:mod:`repro.baselines` implement the same protocol.
"""

from __future__ import annotations

from dataclasses import replace
from typing import (
    TYPE_CHECKING,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.core.controller import (
    ControllerConfig,
    DecisionPrediction,
    ResourceController,
)
from repro.sim.machine import Assignment, Machine, SliceMeasurement
from repro.snapshot import Nested, Snapshottable
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.latency_critical import make_services

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.harness import PolicyRun
    from repro.telemetry import Telemetry
    from repro.workloads.loadgen import LoadTrace


@runtime_checkable
class Policy(Protocol):
    """What the experiment harness drives each decision quantum."""

    #: Display name used in experiment tables.
    name: str
    #: Fraction of a slice's useful batch work lost to profiling and
    #: reconfiguration (Table II-style overhead, folded into results).
    overhead_fraction: float

    def decide(self, machine: Machine, load: float, max_power: float) -> Assignment:
        """Produce the next quantum's assignment."""
        ...

    def observe(self, measurement: SliceMeasurement) -> None:
        """Receive the end-of-slice measurements."""
        ...


class CuttleSysPolicy(Snapshottable):
    """The paper's system: SGD reconstruction + DDS search per quantum.

    Overhead accounting: 2 ms of profiling per 100 ms quantum (the jobs
    keep running, but in the two extreme sampling configurations) plus
    the reconfiguration transient — about 2 % of batch throughput,
    consistent with Table II.  Its snapshot is the controller's, so a
    paused run resumes byte-identically.
    """

    name = "cuttlesys"
    overhead_fraction = 0.021

    SNAPSHOT_FIELDS = {"controller": Nested()}

    def __init__(self, controller: ResourceController) -> None:
        self.controller = controller

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Route controller and machine spans/metrics into a session."""
        self.controller.attach_telemetry(telemetry)
        self.controller.machine.attach_telemetry(telemetry)

    @property
    def last_prediction(self) -> Optional[DecisionPrediction]:
        """Predicted BIPS/p99/power of the most recent decision."""
        return self.controller.last_prediction

    @property
    def last_good_assignment(self) -> Optional[Assignment]:
        """Last assignment whose slice came back clean (degraded-path reuse)."""
        return self.controller.last_good_assignment

    @classmethod
    def for_machine(
        cls,
        machine: Machine,
        seed: int = 0,
        config: Optional[ControllerConfig] = None,
        train_profiles: Optional[Sequence] = None,
        train_services: Optional[Sequence] = None,
    ) -> "CuttleSysPolicy":
        """Build a policy with the paper's defaults for ``machine``.

        The offline training set defaults to the 16 SPEC-like
        benchmarks of :func:`repro.workloads.batch.train_test_split`
        and all five LC services (the running one is excluded from its
        own latency rows inside the controller).
        """
        if config is None:
            config = ControllerConfig(seed=seed)
        elif seed != 0 and config.seed != seed:
            config = replace(config, seed=seed)
        if train_profiles is None:
            train_names, _ = train_test_split()
            train_profiles = [batch_profile(name) for name in train_names]
        if train_services is None:
            train_services = list(make_services(machine.perf).values())
        controller = ResourceController(
            machine, train_profiles, train_services, config
        )
        return cls(controller)

    def decide(
        self,
        machine: Machine,
        load: float,
        max_power: float,
        extra_loads: Sequence[float] = (),
    ) -> Assignment:
        """One quantum: profile, reconstruct, scan LC, search batch.

        ``extra_loads`` carries the load estimates of LC services
        beyond the first on multi-service machines.
        """
        sample = machine.profile(
            load,
            lc_cores=self.controller.lc_cores,
            extra_loads=extra_loads,
            extra_lc_cores=self.controller.lc_cores_by_service[1:],
        )
        self.controller.ingest_profiling(sample)
        return self.controller.decide(load, max_power, extra_loads=extra_loads)

    def observe(self, measurement: SliceMeasurement) -> None:
        """Fold the steady-state measurements back into the matrices."""
        self.controller.ingest_measurement(measurement)

    def on_job_replaced(self, job: int) -> None:
        """A batch job completed; treat its replacement as unseen (§V)."""
        self.controller.reset_job(job)

    def run(
        self,
        machine: Machine,
        trace: "LoadTrace",
        power_cap_fraction: float,
        n_slices: int,
    ) -> "PolicyRun":
        """Convenience wrapper around the experiment harness."""
        from repro.experiments.harness import run_policy

        return run_policy(
            machine,
            self,
            trace,
            power_cap_fraction=power_cap_fraction,
            n_slices=n_slices,
        )
