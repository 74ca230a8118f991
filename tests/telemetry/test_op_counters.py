"""Operation counters: the scheduler's hot paths do a fixed amount of work.

CuttleSys fits its 100 ms quantum only if SGD reconstruction and the
DDS search do a known amount of work (§VI, Table II).  Every counter
below is a pure function of its seed, so a fresh run must equal the
committed golden ``golden/op_counters.json`` exactly: a change that
adds work and one that drops work both fail, and pytest's dict diff
names the case and counter that moved.  Wall time belongs to perfbench
(``perfbench/README.md``), not here.

The cases, all at seed 7:

* ``sgd.reconstruct`` — one PQ/SGD reconstruction of the profiled
  32-app BIPS matrix (16 training apps);
* ``dds.search`` — one DDS search, 16 batch jobs x 108 joint configs;
* ``quantum.decision``, ``telemetry.stream_overhead`` and
  ``profiler.overhead`` — three full decision quanta on mix 0 under a
  telemetry session with a live emitter bound to a bounded queue: the
  operation counts read from the spans, the live bus's two ends
  (nothing dropped, everything aggregated), and the provenance
  recorder plus the profile built from the session;
* ``deadline.quantum`` — three decision quanta under an ample
  8000-op deadline budget: the ladder never fires (zero rungs) and the
  meter's arithmetic is pinned;
* ``fleet.pool`` — the cluster study (4 slices) sharded over 2 worker
  processes and checked unit by unit against the serial run.

The zero counters (``degradation_rungs``, ``live_dropped_events``,
``provenance_dropped_records``, ``fleet_retries`` and
``fleet_mismatched_units``) are health checks: a deadline overrun, a
dropped live event or provenance record, a worker death or a
serial-vs-parallel divergence moves one off zero.

Regenerate the golden only for a declared change in the work done,
and record the reason in CHANGES.md::

    PYTHONPATH=src python scripts/regen_op_counters.py
"""

import importlib.util
import json
import queue
import sys
from pathlib import Path
from typing import Dict, Optional

import numpy as np
import pytest

from repro.core.controller import ControllerConfig
from repro.core.dds import DDSSearch
from repro.core.matrices import throughput_rows
from repro.core.objective import SystemObjective
from repro.core.runtime import CuttleSysPolicy
from repro.core.sgd import PQReconstructor, SGDParams
from repro.experiments.cluster_study import run_cluster_study
from repro.experiments.harness import build_machine_for_mix, run_policy
from repro.experiments.table2_overheads import _profiled_matrix
from repro.sim.coreconfig import N_JOINT_CONFIGS
from repro.sim.perf import PerformanceModel
from repro.sim.power import PowerModel
from repro.telemetry import Telemetry
from repro.telemetry.live import LiveAggregator, LiveEmitter, install_emitter
from repro.telemetry.profiler import (
    iter_nodes,
    phase_summary,
    profile_telemetry,
)
from repro.workloads.batch import SPEC_APPS, batch_profile
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

GOLDEN = Path(__file__).parent / "golden" / "op_counters.json"
REGEN = (
    Path(__file__).resolve().parents[2] / "scripts" / "regen_op_counters.py"
)

SEED = 7
#: Batch jobs in the solver cases (the paper's mix size).
N_JOBS = 16
#: Quanta per decision-loop case; each runs the full profile ->
#: reconstruct -> search -> reconfigure pipeline.
N_QUANTA = 3
#: Comfortably above one quantum's metered cost (~6.5k operations), so
#: the deadline ladder must never fire.
AMPLE_DECISION_BUDGET = 8000
#: Slices per cluster-study arm in the fleet case.
FLEET_SLICES = 4

Counters = Dict[str, Dict[str, int]]


def _sgd() -> Dict[str, int]:
    matrix, _, _ = _profiled_matrix(n_train=N_JOBS)
    reconstructor = PQReconstructor(SGDParams(seed=SEED))
    reconstructor.reconstruct(matrix)
    return {"sgd_iterations": reconstructor.last_diagnostics.iterations}


def _dds() -> Dict[str, int]:
    perf, power = PerformanceModel(), PowerModel()
    profiles = [batch_profile(name) for name in SPEC_APPS[:N_JOBS]]
    objective = SystemObjective(
        bips=throughput_rows(profiles, perf),
        power=np.vstack([power.power_row(p) for p in profiles]),
        max_power=100.0,
        max_ways=32,
    )
    result = DDSSearch().search(
        objective, n_dims=N_JOBS, n_confs=N_JOINT_CONFIGS,
        rng=np.random.default_rng(SEED),
    )
    return {"dds_evaluations": result.evaluations}


def _decision_loop(
    telemetry: Telemetry, config: Optional[ControllerConfig] = None
) -> CuttleSysPolicy:
    """``N_QUANTA`` decision quanta on a fresh mix-0 machine."""
    machine = build_machine_for_mix(paper_mixes()[0], seed=SEED)
    policy = CuttleSysPolicy.for_machine(machine, seed=SEED, config=config)
    run_policy(
        machine, policy, LoadTrace.constant(0.6),
        n_slices=N_QUANTA, telemetry=telemetry,
    )
    return policy


def _observed_quanta() -> Counters:
    """One traced, streamed and recorded run serves three cases.

    Telemetry changes no RNG draws and no decisions, so the spans'
    arguments are exactly an untraced run's operation counts.
    """
    sink = queue.Queue(maxsize=1024)
    emitter = LiveEmitter(sink, unit_id="ops/stream", worker="ops")
    session = Telemetry()
    prior = install_emitter(emitter)
    try:
        _decision_loop(session)
    finally:
        install_emitter(prior)
    aggregator = LiveAggregator()
    while not sink.empty():
        aggregator.ingest_event(sink.get_nowait())

    spans = session.tracer.spans
    root = profile_telemetry(session)
    counters = session.metrics.as_dict()["counters"]
    return {
        "quantum.decision": {
            "dds_evaluations": sum(
                int(s.args.get("evaluations", 0))
                for s in spans if s.name == "dds.search"
            ),
            "sgd_iterations": sum(
                int(s.args.get("iterations", 0))
                for s in spans if s.name == "sgd.reconstruct"
            ),
            "trace_spans": len(spans),
        },
        "telemetry.stream_overhead": {
            "live_events": emitter.emitted,
            "live_dropped_events": emitter.dropped,
            "live_quanta_aggregated": aggregator.quanta,
            "live_qos_violations": aggregator.qos_violations,
        },
        "profiler.overhead": {
            "provenance_records": int(counters.get("provenance.records", 0)),
            "provenance_dropped_records": int(
                counters.get("provenance.dropped", 0)
            ),
            "profile_ops_total": sum(
                sum(entry["ops"].values()) for entry in phase_summary(root)
            ),
            "profile_nodes": sum(1 for _ in iter_nodes(root)),
        },
    }


def _deadline() -> Dict[str, int]:
    session = Telemetry()
    policy = _decision_loop(session, ControllerConfig(
        seed=SEED, decision_budget=AMPLE_DECISION_BUDGET
    ))
    budget = policy.controller.budget
    return {
        "budget_quanta": budget.quanta,
        "budget_total_spent": budget.total_spent,
        "degradation_rungs": int(session.metrics.as_dict()["counters"].get(
            "controller.degradation.rungs", 0
        )),
    }


def _fleet() -> Dict[str, int]:
    session = Telemetry()
    parallel = run_cluster_study(
        n_slices=FLEET_SLICES, seed=SEED, jobs=2, telemetry=session
    )
    serial = run_cluster_study(n_slices=FLEET_SLICES, seed=SEED, jobs=1)
    return {
        "cluster_qos_violations": sum(
            outcome.qos_violations for outcome in serial.values()
        ),
        "fleet_mismatched_units": sum(
            1 for scheme in serial if parallel.get(scheme) != serial[scheme]
        ),
        "fleet_retries": int(session.metrics.counter("fleet.retries").value),
        "fleet_units": int(
            session.metrics.counter("fleet.units_total").value
        ),
    }


def op_counters() -> Counters:
    """``{case: {counter: int}}`` of every case, run once each."""
    return {
        "sgd.reconstruct": _sgd(),
        "dds.search": _dds(),
        **_observed_quanta(),
        "deadline.quantum": _deadline(),
        "fleet.pool": _fleet(),
    }


CASES = (
    "sgd.reconstruct",
    "dds.search",
    "quantum.decision",
    "telemetry.stream_overhead",
    "profiler.overhead",
    "deadline.quantum",
    "fleet.pool",
)
#: The health counters: each stays zero on a healthy run.
ZERO_COUNTERS = (
    ("deadline.quantum", "degradation_rungs"),
    ("telemetry.stream_overhead", "live_dropped_events"),
    ("profiler.overhead", "provenance_dropped_records"),
    ("fleet.pool", "fleet_retries"),
    ("fleet.pool", "fleet_mismatched_units"),
)
#: Counters that count quanta: one per decision quantum run.
PER_QUANTUM = (
    ("telemetry.stream_overhead", "live_events"),
    ("telemetry.stream_overhead", "live_quanta_aggregated"),
    ("profiler.overhead", "provenance_records"),
    ("deadline.quantum", "budget_quanta"),
)


@pytest.fixture(scope="module")
def golden() -> Counters:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def live() -> Counters:
    """One fresh run of every case, shared by the tests below."""
    return op_counters()


@pytest.fixture(scope="module")
def untraced_budget():
    """The budget meter of a decision loop with no telemetry session."""
    return _decision_loop(None).controller.budget


def test_op_counters_equal_golden(live, golden):
    assert live == golden


@pytest.mark.parametrize("case", CASES)
def test_case_counters_equal_golden(live, golden, case):
    assert live[case] == golden[case]


def test_golden_holds_the_seven_cases(golden):
    assert sorted(golden) == sorted(CASES)
    assert all(
        type(value) is int and value >= 0
        for counters in golden.values() for value in counters.values()
    )


@pytest.mark.parametrize(
    "case, counter", ZERO_COUNTERS, ids=[c for _, c in ZERO_COUNTERS]
)
def test_health_counter_is_zero_in_golden(golden, case, counter):
    # A regenerated golden must not bake in an overrun, a drop, a
    # retry or a divergence.
    assert golden[case][counter] == 0


@pytest.mark.parametrize(
    "case, counter", PER_QUANTUM, ids=[c for _, c in PER_QUANTUM]
)
def test_quantum_counter_counts_every_quantum(live, case, counter):
    assert live[case][counter] == N_QUANTA


def test_untraced_run_does_the_traced_work(untraced_budget, golden):
    # The budget meter attributes the same work by phase with no
    # telemetry session at all, so tracing changes no work.
    budget = untraced_budget
    traced = golden["quantum.decision"]
    assert budget.spent_by_phase["sgd.reconstruct"] == traced["sgd_iterations"]
    assert budget.spent_by_phase["dds.search"] == traced["dds_evaluations"]


def test_ample_budget_does_the_unlimited_work(untraced_budget, golden):
    budget = untraced_budget
    deadline = golden["deadline.quantum"]
    assert budget.limit is None
    assert budget.quanta == deadline["budget_quanta"]
    assert budget.total_spent == deadline["budget_total_spent"]
    # Every quantum fits the ample budget with room to spare.
    assert budget.total_spent < N_QUANTA * AMPLE_DECISION_BUDGET


def test_golden_is_what_the_regen_script_writes(golden, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("regen_op_counters", REGEN)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    target = tmp_path / "golden" / "op_counters.json"
    monkeypatch.setattr(script, "GOLDEN", target)
    monkeypatch.setattr(script, "op_counters", lambda: golden)
    assert script.main() == 0
    # Byte for byte: the committed golden is in the script's format.
    assert target.read_text() == GOLDEN.read_text()
