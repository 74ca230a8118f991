"""Decision corpus: every fast path must leave the decisions byte-identical.

A fresh run of a fixed set of CuttleSys runs is diffed line by line
against the committed corpus ``golden/decision_corpus.jsonl``: one
canonical JSON record per decision quantum (the load, the budget, the
controller's prediction, the assignment that ran and its measured
tail latency and power).  The CuttleSys runs are mixes 0-4 for 30
quanta each, one hardened run under injected faults and two under a
decision budget, so the corpus covers the normal and sanitising paths
and three rungs of the deadline ladder: ``deadline`` (budget 2000)
reaches ``reduced_dds``, and ``starved`` (budget 100) reaches
``last_good`` and ``fair_share``.

The hard power fallback (§VI-B: gate batch cores in descending
predicted power while the plan is over the cap) is pinned by one
10-quantum run at a 30 % cap for every policy that has one, built
through :func:`repro.experiments.policies.build_policy`: CuttleSys,
the reconfiguration oracle, Flicker, both asymmetric designs and both
core-gating variants.  At that cap every one of them gates batch
cores.  Baselines keep no prediction, so their ``predicted`` is null.

Regenerate the corpus only for an intended change of decisions::

    PYTHONPATH=src python scripts/regen_decision_corpus.py
"""

import json
import math
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

import pytest

from repro.core.controller import ControllerConfig
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    QuantumStepper,
    build_machine_for_mix,
    reference_power_for_mix,
)
from repro.experiments.policies import build_policy
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
#: Too small for any search: the ladder serves from its fallback rungs.
STARVED_BUDGET = 100
#: Every policy with a hard power fallback, run on mix 0 under a cap
#: tight enough that each one gates batch cores.
FALLBACK_POLICIES = (
    "cuttlesys", "oracle-reconfig", "flicker", "asymm-oracle",
    "asymm-50-50", "core-gating", "core-gating+wp",
)
FALLBACK_CAP = 0.3
FALLBACK_QUANTA = 10


def _runs() -> Iterator[Tuple[str, int, Any, int, Dict[str, Any]]]:
    """``(name, mix, (machine, policy), quanta, stepper kwargs)``."""
    mixes = paper_mixes()

    def cuttlesys(mix, config=None):
        machine = build_machine_for_mix(mixes[mix], seed=SEED)
        return machine, CuttleSysPolicy.for_machine(
            machine, seed=SEED, config=config
        )

    for mix in MIXES:
        yield f"mix{mix}", mix, cuttlesys(mix), N_QUANTA, {}
    yield "faults", 0, cuttlesys(0), N_QUANTA, {
        "faults": FaultInjector(parse_fault_spec(FAULTS), seed=SEED)
    }
    yield "deadline", 1, cuttlesys(1, ControllerConfig(
        seed=SEED, decision_budget=DECISION_BUDGET
    )), N_QUANTA, {}
    yield "starved", 1, cuttlesys(1, ControllerConfig(
        seed=SEED, decision_budget=STARVED_BUDGET
    )), N_QUANTA, {}
    for name in FALLBACK_POLICIES:
        yield f"fallback-{name}", 0, build_policy(
            name, mixes[0], SEED
        ), FALLBACK_QUANTA, {"power_cap_fraction": FALLBACK_CAP}


def _finite(values: Any) -> Any:
    """JSON has no NaN: cold-start predictions become ``null``."""
    if isinstance(values, (list, tuple)):
        return [_finite(v) for v in values]
    return None if math.isnan(values) else values


def decision_corpus() -> List[str]:
    """Canonical records (sorted keys, no whitespace) of every run."""
    lines = []
    mixes = paper_mixes()
    for name, mix, (machine, policy), n_quanta, kwargs in _runs():
        stepper = QuantumStepper(
            machine, policy, LOAD, n_slices=n_quanta,
            max_power_w=reference_power_for_mix(mixes[mix], seed=SEED),
            **kwargs,
        )
        for quantum in range(n_quanta):
            measurement = stepper.step()
            prediction = getattr(policy, "last_prediction", None)
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
