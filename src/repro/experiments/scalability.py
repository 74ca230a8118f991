"""Scalability study: CuttleSys on growing core counts (paper §I, §IV).

The paper's pitch is that exhaustive exploration is hopeless —
``(m*p)^(B)`` configurations — while SGD + DDS stay cheap "as the
number of cores and configuration parameters increases".  This study
runs CuttleSys on 16-, 32- and 48-core machines (half LC, half batch)
and reports:

* the measured per-quantum decision cost (SGD + LC scan + search
  wall-clock, from the controller's phase spans),
* achieved batch work as a fraction of the perfect-inference oracle on
  the same machine (decision *quality* must not degrade with scale).

Fleet sharding: each (n_cores, arm) cell — arm being either the
CuttleSys controller or the perfect-inference oracle — is an
independent simulation, so the grid shards across all of them
(:func:`scalability_units`) and merges back in grid order.  One caveat:
``decision_ms`` is *real wall-clock* read from the controller's phase
spans, so it is deterministic in value only up to machine noise; the
determinism contract therefore covers every field except timings, and
:func:`render_scalability` can drop the timing column
(``include_timings=False``, the CLI's ``--no-timings``) when byte-exact
comparison across ``--jobs`` settings is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.controller import ControllerConfig
from repro.core.oracle import OracleReconfigPolicy
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import run_policy
from repro.experiments.reporting import format_table
from repro.fleet import WorkUnit, run_grid
from repro.sim.machine import Machine, MachineParams
from repro.telemetry.tracer import Span, Tracer
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.latency_critical import lc_service
from repro.workloads.loadgen import LoadTrace

#: Grid arms per machine size, in merge order.
ARMS: Tuple[str, ...] = ("cuttlesys", "oracle")

#: The controller phases whose wall time is the decision cost (the
#: fixed profiling interval excluded).
DECISION_PHASES = ("sgd", "lc_scan", "search")


@dataclass(frozen=True)
class ScalePoint:
    """Results at one machine size."""

    n_cores: int
    n_batch_jobs: int
    decision_ms: float
    cuttlesys_instructions_b: float
    oracle_instructions_b: float

    @property
    def quality(self) -> float:
        """CuttleSys work as a fraction of the oracle's."""
        return self.cuttlesys_instructions_b / max(
            self.oracle_instructions_b, 1e-9
        )


def _machine(n_cores: int, seed: int, service_name: str = "xapian") -> Machine:
    _, test_names = train_test_split()
    n_batch = n_cores // 2
    profiles = [
        batch_profile(test_names[i % len(test_names)]) for i in range(n_batch)
    ]
    return Machine(
        lc_service=lc_service(service_name),
        batch_profiles=profiles,
        params=MachineParams(n_cores=n_cores),
        seed=seed,
    )


def median_decision_ms(spans: Sequence[Span]) -> float:
    """Median over quanta of the summed decision-phase durations, ms.

    Each decision opens exactly one ``sgd`` span, so an ``sgd`` span
    starts the next quantum's sum.
    """
    per_quantum: List[float] = []
    for span in spans:
        if span.category != "controller" or span.name not in DECISION_PHASES:
            continue
        if span.name == "sgd":
            per_quantum.append(0.0)
        per_quantum[-1] += span.duration_s
    return float(np.median(per_quantum) * 1e3)


def _scale_cell(
    n_cores: int,
    arm: str,
    cap: float,
    load: float,
    n_slices: int,
    seed: int,
    telemetry: Any = None,
) -> Dict[str, Any]:
    """One (machine size, arm) simulation as a JSONable fleet unit."""
    lc_cores = n_cores // 2
    # The services' knee QPS is calibrated for 16 LC cores; scale the
    # offered load so per-core pressure is constant across machine
    # sizes.
    scaled_load = load * lc_cores / 16.0
    machine = _machine(n_cores, seed)
    reference = machine.reference_max_power()
    # A session brings its own tracer; otherwise the controller's phases
    # are timed into a bare one, which adds no records to the cell.
    tracer = telemetry.tracer if telemetry is not None else Tracer()
    if arm == "cuttlesys":
        policy: Any = CuttleSysPolicy.for_machine(
            machine,
            seed=seed,
            config=ControllerConfig(seed=seed, initial_lc_cores=lc_cores),
        )
        policy.controller.attach_tracer(tracer)
    elif arm == "oracle":
        policy = OracleReconfigPolicy(lc_cores=lc_cores, seed=seed)
    else:
        raise ValueError(f"unknown scalability arm {arm!r}")
    run = run_policy(
        machine, policy, LoadTrace.constant(scaled_load),
        power_cap_fraction=cap, n_slices=n_slices, max_power_w=reference,
        telemetry=telemetry,
    )
    cell: Dict[str, Any] = {
        "n_cores": n_cores,
        "arm": arm,
        "n_batch_jobs": len(machine.batch_profiles),
        "instructions_b": run.total_batch_instructions() / 1e9,
    }
    if arm == "cuttlesys":
        cell["decision_ms"] = median_decision_ms(tracer.spans)
    return cell


def scalability_units(
    core_counts: Sequence[int],
    cap: float,
    load: float,
    n_slices: int,
    seed: int,
) -> List[WorkUnit]:
    """The study's fleet work units, one per (machine size, arm)."""
    return [
        WorkUnit(
            unit_id=f"scale/{n_cores}c/{arm}",
            fn=_scale_cell,
            kwargs={
                "n_cores": n_cores, "arm": arm, "cap": cap, "load": load,
                "n_slices": n_slices, "seed": seed,
            },
        )
        for n_cores in core_counts
        for arm in ARMS
    ]


def points_from_cells(cells: Sequence[Dict[str, Any]]) -> Tuple[ScalePoint, ...]:
    """Pair each machine size's arm cells back into :class:`ScalePoint` rows."""
    by_key = {(cell["n_cores"], cell["arm"]): cell for cell in cells}
    sizes = sorted({cell["n_cores"] for cell in cells})
    points = []
    for n_cores in sizes:
        cuttle = by_key[(n_cores, "cuttlesys")]
        oracle = by_key[(n_cores, "oracle")]
        points.append(
            ScalePoint(
                n_cores=n_cores,
                n_batch_jobs=cuttle["n_batch_jobs"],
                decision_ms=cuttle["decision_ms"],
                cuttlesys_instructions_b=cuttle["instructions_b"],
                oracle_instructions_b=oracle["instructions_b"],
            )
        )
    return tuple(points)


def run_scalability(
    core_counts: Sequence[int] = (16, 32, 48),
    cap: float = 0.6,
    load: float = 0.8,
    n_slices: int = 8,
    seed: int = 7,
    **fleet: Any,
) -> Tuple[ScalePoint, ...]:
    """CuttleSys and the oracle across machine sizes.

    ``fleet`` takes the execution and telemetry keywords of
    :func:`repro.fleet.run_grid`.
    """
    outcome = run_grid(
        "scalability",
        scalability_units(core_counts, cap, load, n_slices, seed),
        seed=seed,
        **fleet,
    )
    return points_from_cells(outcome.values())


def render_scalability(
    points: Sequence[ScalePoint], include_timings: bool = True
) -> str:
    """Text table of the scaling study.

    ``include_timings=False`` drops the wall-clock ``decision (ms)``
    column — the one field outside the determinism contract — so the
    rendered report is byte-identical across ``--jobs`` settings.
    """
    if include_timings:
        header = ["cores", "batch jobs", "decision (ms)", "CuttleSys (B)",
                  "oracle (B)", "quality"]
        rows = [
            (
                p.n_cores,
                p.n_batch_jobs,
                f"{p.decision_ms:.1f}",
                f"{p.cuttlesys_instructions_b:.2f}",
                f"{p.oracle_instructions_b:.2f}",
                f"{p.quality:.2f}",
            )
            for p in points
        ]
    else:
        header = ["cores", "batch jobs", "CuttleSys (B)", "oracle (B)",
                  "quality"]
        rows = [
            (
                p.n_cores,
                p.n_batch_jobs,
                f"{p.cuttlesys_instructions_b:.2f}",
                f"{p.oracle_instructions_b:.2f}",
                f"{p.quality:.2f}",
            )
            for p in points
        ]
    return format_table(header, rows)
