"""Decision corpus: every fast path must leave the decisions byte-identical.

A fresh run of a fixed set of CuttleSys runs is diffed line by line
against the committed corpus ``golden/decision_corpus.jsonl``: one
canonical JSON record per decision quantum (the load, the budget, the
controller's prediction, the assignment that ran and its measured
tail latency and power).  The runs are mixes 0-4 for 30 quanta each,
one hardened run under injected faults and one under a starved
decision budget, so the corpus covers the normal, sanitising and
deadline-ladder paths.

Regenerate the corpus only for an intended change of decisions::

    PYTHONPATH=src python scripts/regen_decision_corpus.py
"""

import json
import math
from pathlib import Path
from typing import Any, Iterator, List, Optional, Tuple

import pytest

from repro.core.controller import ControllerConfig
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    QuantumStepper,
    build_machine_for_mix,
    reference_power_for_mix,
)
from repro.faults import FaultInjector, parse_fault_spec
from repro.sim.machine import ASSIGNMENT
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

GOLDEN = Path(__file__).parent / "golden" / "decision_corpus.jsonl"

SEED = 7
N_QUANTA = 30
MIXES = (0, 1, 2, 3, 4)
#: One load step halfway through, so every run also rebuilds its
#: latency regime once.
LOAD = LoadTrace.steps([(0.0, 0.8), (1.5, 0.5)])
FAULTS = (
    "drop_sample:rate=0.25,start=2,end=20;"
    "outlier_sample:rate=0.15,magnitude=40,start=2,end=20;"
    "failed_reconfig:rate=0.4,duration=2,start=4,end=12;"
    "stuck_power:start=14,end=18"
)
DECISION_BUDGET = 2000


def _runs() -> Iterator[Tuple[str, int, Optional[ControllerConfig], Any]]:
    for mix in MIXES:
        yield f"mix{mix}", mix, None, None
    yield "faults", 0, None, FaultInjector(
        parse_fault_spec(FAULTS), seed=SEED
    )
    yield "deadline", 1, ControllerConfig(
        seed=SEED, decision_budget=DECISION_BUDGET
    ), None


def _finite(values: Any) -> Any:
    """JSON has no NaN: cold-start predictions become ``null``."""
    if isinstance(values, (list, tuple)):
        return [_finite(v) for v in values]
    return None if math.isnan(values) else values


def decision_corpus() -> List[str]:
    """Canonical records (sorted keys, no whitespace) of every run."""
    lines = []
    mixes = paper_mixes()
    for name, mix, config, faults in _runs():
        machine = build_machine_for_mix(mixes[mix], seed=SEED)
        policy = CuttleSysPolicy.for_machine(machine, seed=SEED,
                                             config=config)
        stepper = QuantumStepper(
            machine, policy, LOAD, n_slices=N_QUANTA,
            max_power_w=reference_power_for_mix(mixes[mix], seed=SEED),
            faults=faults,
        )
        for quantum in range(N_QUANTA):
            measurement = stepper.step()
            prediction = policy.last_prediction
            record = {
                "run": name,
                "quantum": quantum,
                "load": stepper.run.loads[quantum],
                "budget_w": stepper.run.budgets[quantum],
                "degraded_quanta": stepper.run.degraded_quanta,
                "predicted": None if prediction is None else {
                    "bips": _finite(prediction.bips),
                    "p99_s": _finite(prediction.p99_s),
                    "power_w": _finite(prediction.power_w),
                },
                "assignment": ASSIGNMENT.encode(measurement.assignment),
                "lc_p99": measurement.lc_p99,
                "total_power": measurement.total_power,
            }
            lines.append(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")))
    return lines


def test_fresh_run_matches_corpus():
    assert GOLDEN.exists(), (
        "decision corpus missing; regenerate with "
        "scripts/regen_decision_corpus.py"
    )
    golden = GOLDEN.read_text().splitlines()
    produced = decision_corpus()
    for got, want in zip(produced, golden):
        if got != want:
            record = json.loads(want)
            pytest.fail(
                f"decision diverged at run {record['run']!r} quantum "
                f"{record['quantum']}:\n  want {want}\n  got  {got}"
            )
    assert len(produced) == len(golden)
