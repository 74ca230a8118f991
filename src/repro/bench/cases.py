"""Deterministic benchmark cases for the scheduler's hot paths.

Each case runs a hot path once and reports its RNG-safe operation
counters — SGD iterations to converge, DDS objective evaluations,
trace-span counts, zero-baseline health counters.  The counters are
fully determined by the seeds, so the CI regression gate compares them
across machines.  Wall time is measured by perfbench
(``perfbench/README.md``), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.bench.report import BenchCaseResult, BenchReport

#: Slices per decision-loop case; small because each slice runs the
#: full profile -> reconstruct -> search -> reconfigure pipeline.
QUANTUM_SLICES = 3
#: Batch jobs in the solver microbenchmarks (the paper's mix size).
N_BENCH_JOBS = 16


@dataclass(frozen=True)
class BenchCase:
    """A named, self-contained benchmark."""

    name: str
    description: str
    runner: Callable[[int], BenchCaseResult]


# -- solver microbenchmarks ------------------------------------------------


def _run_sgd(seed: int) -> BenchCaseResult:
    """One PQ reconstruction of the profiled 32-app BIPS matrix."""
    from repro.core.sgd import PQReconstructor, SGDParams
    from repro.experiments.table2_overheads import _profiled_matrix

    matrix, _, _ = _profiled_matrix(n_train=N_BENCH_JOBS)
    reconstructor = PQReconstructor(SGDParams(seed=seed))
    reconstructor.reconstruct(matrix)
    diagnostics = reconstructor.last_diagnostics
    return BenchCaseResult(
        name="sgd.reconstruct",
        description="PQ/SGD reconstruction, 32-app BIPS matrix",
        counters={
            "sgd_iterations": 0 if diagnostics is None
            else int(diagnostics.iterations),
        },
    )


def _run_dds(seed: int) -> BenchCaseResult:
    """One 16-job DDS search over the 108-config joint space."""
    from repro.core.dds import DDSSearch
    from repro.core.matrices import throughput_rows
    from repro.core.objective import SystemObjective
    from repro.sim.coreconfig import N_JOINT_CONFIGS
    from repro.sim.perf import PerformanceModel
    from repro.sim.power import PowerModel
    from repro.workloads.batch import SPEC_APPS, batch_profile

    perf = PerformanceModel()
    power = PowerModel()
    profiles = [batch_profile(n) for n in SPEC_APPS[:N_BENCH_JOBS]]
    objective = SystemObjective(
        bips=throughput_rows(profiles, perf),
        power=np.vstack([power.power_row(p) for p in profiles]),
        max_power=100.0,
        max_ways=32,
    )
    result = DDSSearch().search(
        objective, n_dims=N_BENCH_JOBS, n_confs=N_JOINT_CONFIGS,
        rng=np.random.default_rng(seed),
    )
    return BenchCaseResult(
        name="dds.search",
        description="DDS search, 16 jobs x 108 joint configs",
        counters={"dds_evaluations": int(result.evaluations)},
    )


# -- decision-loop benchmarks ----------------------------------------------


def _decision_loop(seed: int, telemetry) -> None:
    """Run QUANTUM_SLICES full decision quanta on a fresh mix-0 setup."""
    from repro.core.runtime import CuttleSysPolicy
    from repro.experiments.harness import build_machine_for_mix, run_policy
    from repro.workloads.loadgen import LoadTrace
    from repro.workloads.mixes import paper_mixes

    mix = paper_mixes()[0]
    machine = build_machine_for_mix(mix, seed=seed)
    policy = CuttleSysPolicy.for_machine(machine, seed=seed)
    run_policy(
        machine, policy, LoadTrace.constant(0.6),
        n_slices=QUANTUM_SLICES, telemetry=telemetry,
    )


def _run_quantum(seed: int) -> BenchCaseResult:
    """Operation counts of the decision loop, read from its spans.

    Telemetry changes no RNG draws and no decisions, so the span
    arguments of a traced run are exactly the operation counts of an
    untraced one.
    """
    from repro.telemetry import Telemetry

    telemetry = Telemetry()
    _decision_loop(seed, telemetry)
    evaluations = 0
    iterations = 0
    for span in telemetry.tracer.spans:
        if span.name == "dds.search":
            evaluations += int(span.args.get("evaluations", 0))
        elif span.name == "sgd.reconstruct":
            iterations += int(span.args.get("iterations", 0))
    return BenchCaseResult(
        name="quantum.decision",
        description=(
            f"{QUANTUM_SLICES} full decision quanta, mix 0, telemetry off"
        ),
        counters={
            "dds_evaluations": evaluations,
            "sgd_iterations": iterations,
            "trace_spans": len(telemetry.tracer.spans),
        },
    )


#: Per-quantum decision budget comfortably above one full quantum's
#: metered cost (~6.5k operations): the deadline layer must never
#: degrade at this level, so ``degradation_rungs`` has baseline 0.
AMPLE_DECISION_BUDGET = 8000


def _run_deadline_quantum(seed: int) -> BenchCaseResult:
    """The decision loop with the deadline meter armed at ample budget.

    The counters are the zero-rung regression gate: at ample budget the
    graceful-degradation ladder must never fire, so ``degradation_rungs``
    has baseline 0 and any metering-cost creep that pushes a quantum
    over budget trips the CI counter comparison.  ``budget_total_spent``
    pins the meter's deterministic arithmetic itself.
    """
    from repro.core.controller import ControllerConfig
    from repro.core.runtime import CuttleSysPolicy
    from repro.experiments.harness import build_machine_for_mix, run_policy
    from repro.telemetry import Telemetry
    from repro.workloads.loadgen import LoadTrace
    from repro.workloads.mixes import paper_mixes

    machine = build_machine_for_mix(paper_mixes()[0], seed=seed)
    policy = CuttleSysPolicy.for_machine(
        machine, seed=seed,
        config=ControllerConfig(
            seed=seed, decision_budget=AMPLE_DECISION_BUDGET
        ),
    )
    session = Telemetry()
    run_policy(
        machine, policy, LoadTrace.constant(0.6),
        n_slices=QUANTUM_SLICES, telemetry=session,
    )
    counters = session.metrics.as_dict()["counters"]
    return BenchCaseResult(
        name="deadline.quantum",
        description=(
            f"{QUANTUM_SLICES} decision quanta under an ample "
            f"{AMPLE_DECISION_BUDGET}-op deadline budget"
        ),
        counters={
            "degradation_rungs": int(
                counters.get("controller.degradation.rungs", 0)
            ),
            "budget_total_spent": int(policy.controller.budget.total_spent),
            "budget_quanta": int(policy.controller.budget.quanta),
        },
    )


def _run_stream_overhead(seed: int) -> BenchCaseResult:
    """The decision loop with a live emitter bound to a bounded queue.

    The counters assert both ends of the bus after draining the queue:
    everything emitted was aggregated, and ``live_dropped_events`` has
    baseline 0, so any drop under the bounded queue at baseline load
    trips the CI counter comparison.
    """
    import queue as queue_mod

    from repro.telemetry import Telemetry
    from repro.telemetry.live import (
        LiveAggregator,
        LiveEmitter,
        install_emitter,
    )

    sink: "queue_mod.Queue" = queue_mod.Queue(maxsize=1024)
    emitter = LiveEmitter(sink, unit_id="bench/stream", worker="bench")
    prior = install_emitter(emitter)
    try:
        _decision_loop(seed, Telemetry())
    finally:
        install_emitter(prior)
    aggregator = LiveAggregator()
    while True:
        try:
            aggregator.ingest_event(sink.get_nowait())
        except queue_mod.Empty:
            break
    return BenchCaseResult(
        name="telemetry.stream_overhead",
        description=(
            f"{QUANTUM_SLICES} decision quanta streaming live quantum "
            "events into a bounded in-process queue"
        ),
        counters={
            "live_events": int(emitter.emitted),
            "live_dropped_events": int(emitter.dropped),
            "live_quanta_aggregated": int(aggregator.quanta),
            "live_qos_violations": int(aggregator.qos_violations),
        },
    )


def _run_profiler_overhead(seed: int) -> BenchCaseResult:
    """The decision loop with a live session, then the profile build.

    The counters are the observability gate: ``provenance_records``
    must equal the quantum count (the recorder never misses a
    decision) and ``provenance_dropped_records`` has baseline 0, so a
    recorder bound regression trips the CI counter comparison.  The
    ``profile_ops_total`` / ``profile_nodes`` pair pins the profiler's
    deterministic aggregation itself.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.profiler import (
        iter_nodes,
        phase_summary,
        profile_telemetry,
    )

    session = Telemetry()
    _decision_loop(seed, session)
    root = profile_telemetry(session)
    counters = session.metrics.as_dict()["counters"]
    ops_total = sum(
        sum(entry["ops"].values()) for entry in phase_summary(root)
    )
    return BenchCaseResult(
        name="profiler.overhead",
        description=(
            f"{QUANTUM_SLICES} decision quanta with provenance "
            "recording plus the profile build"
        ),
        counters={
            "provenance_records": int(
                counters.get("provenance.records", 0)
            ),
            "provenance_dropped_records": int(
                counters.get("provenance.dropped", 0)
            ),
            "profile_ops_total": int(ops_total),
            "profile_nodes": sum(1 for _ in iter_nodes(root)),
        },
    )


# -- fleet benchmarks ------------------------------------------------------

#: Slices per cluster-study arm in the fleet case.
FLEET_SLICES = 4


def _cluster_cells(seed: int, jobs: int, telemetry=None):
    from repro.experiments.cluster_study import run_cluster_study

    return run_cluster_study(
        n_slices=FLEET_SLICES, seed=seed, jobs=jobs, telemetry=telemetry,
    )


def _run_fleet_pool(seed: int) -> BenchCaseResult:
    """The 2-scheme cluster study sharded across 2 worker processes.

    The counters are the RNG-safe determinism gate: ``fleet_retries``
    and ``fleet_mismatched_units`` have baseline 0, so any worker death
    or serial-vs-parallel result divergence trips the CI counter
    comparison.
    """
    from repro.telemetry import Telemetry

    session = Telemetry()
    parallel = _cluster_cells(seed, jobs=2, telemetry=session)
    serial = _cluster_cells(seed, jobs=1)
    mismatched = sum(
        1 for scheme in serial if parallel.get(scheme) != serial[scheme]
    )
    return BenchCaseResult(
        name="fleet.pool",
        description=(
            f"cluster study ({FLEET_SLICES} slices) sharded over "
            "2 worker processes"
        ),
        counters={
            "fleet_units": int(
                session.metrics.counter("fleet.units_total").value
            ),
            "fleet_retries": int(
                session.metrics.counter("fleet.retries").value
            ),
            "fleet_mismatched_units": int(mismatched),
            "cluster_qos_violations": int(
                sum(outcome.qos_violations for outcome in serial.values())
            ),
        },
    )


BENCH_CASES: Tuple[BenchCase, ...] = (
    BenchCase(
        "sgd.reconstruct",
        "PQ/SGD reconstruction, 32-app BIPS matrix",
        _run_sgd,
    ),
    BenchCase(
        "dds.search",
        "DDS search, 16 jobs x 108 joint configs",
        _run_dds,
    ),
    BenchCase(
        "quantum.decision",
        "full decision quanta, telemetry off",
        _run_quantum,
    ),
    BenchCase(
        "deadline.quantum",
        "decision quanta under an ample deadline budget (zero-rung gate)",
        _run_deadline_quantum,
    ),
    BenchCase(
        "telemetry.stream_overhead",
        "decision quanta streaming live events into a bounded queue",
        _run_stream_overhead,
    ),
    BenchCase(
        "profiler.overhead",
        "decision quanta with provenance recording plus the profile build",
        _run_profiler_overhead,
    ),
    BenchCase(
        "fleet.pool",
        "cluster study sharded over 2 worker processes",
        _run_fleet_pool,
    ),
)


def case_names() -> Tuple[str, ...]:
    return tuple(case.name for case in BENCH_CASES)


def run_bench(
    seed: int = 7,
    only: Optional[Sequence[str]] = None,
) -> BenchReport:
    """Run the (selected) benchmark cases once each and assemble a report."""
    if only is not None:
        unknown = sorted(set(only) - set(case_names()))
        if unknown:
            raise ValueError(
                f"unknown bench case(s): {', '.join(unknown)}; "
                f"known: {', '.join(case_names())}"
            )
    cases: Dict[str, BenchCaseResult] = {}
    for case in BENCH_CASES:
        if only is not None and case.name not in only:
            continue
        cases[case.name] = case.runner(seed)
    return BenchReport(seed=seed, cases=cases)
