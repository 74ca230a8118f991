"""Chaos/soak harness: invariants under faults, kills, and deadlines.

Each cell of the chaos grid replays one ``(seed, mix, scenario,
decision budget)`` combination three ways — an uninterrupted reference
run, a mid-run kill at quantum ``kill_at`` resumed from the crash-safe
snapshot, and (when the controller entered safe mode) a fault-free
cooldown — then asserts the robustness invariants the rest of the
suite depends on (docs/robustness.md):

* **completes** — every quantum of the hardened run produced a valid
  assignment, even under deadline pressure and injected faults;
* **no-NaN** — QoS accounting (latencies, powers, instruction counts)
  contains only finite numbers;
* **monotonic meters** — the deadline meter and degradation counters
  never move backwards, including across the kill/resume boundary;
* **ladder accounting** — ``controller.degradation.rungs`` equals the
  sum of the per-rung counters, and an *unlimited* budget takes zero
  rungs;
* **safe-mode exits** — a controller that entered safe mode leaves it
  after fault-free quanta (safe mode is a mode, not a terminal state);
* **resume-identical** — the killed-and-resumed run is byte-identical
  (canonical JSON of every measurement) to the uninterrupted one.

Cells are independent simulations, so the soak shards as fleet
:class:`~repro.fleet.WorkUnit` s: ``--jobs`` parallelises,
``--checkpoint``/``--resume`` make long soaks crash-safe — the harness
eats its own dog food.  Every reported number is deterministic in the
seeds, so a failing cell replays exactly with ``repro chaos --seeds N``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.controller import ControllerConfig
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    PolicyRun,
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.experiments.reporting import format_table
from repro.faults import FaultInjector, scenario_by_name
from repro.fleet import WorkUnit, run_grid
from repro.logs import get_logger
from repro.telemetry import Telemetry
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

log = get_logger("experiments.chaos_study")

#: Fault regimes soaked by default: fault-free (pure deadline
#: pressure), noisy sensors, and the compound worst case.  ``None``
#: means no injector is attached.
DEFAULT_CHAOS_SCENARIOS: Tuple[Optional[str], ...] = (
    None, "sensor-noise", "perfect-storm",
)

#: Decision budgets soaked by default: unlimited (the zero-rung
#: baseline) and one tight enough to force the reduced-DDS rung.
DEFAULT_CHAOS_BUDGETS: Tuple[Optional[int], ...] = (None, 2000)

#: One representative mix per grid by default (Xapian + memcached-like).
DEFAULT_CHAOS_MIXES: Tuple[int, ...] = (0, 12)

#: Scenario label used for the no-injector cells.
FAULT_FREE = "fault-free"


@dataclass(frozen=True)
class ChaosOutcome:
    """One soaked (seed, mix, scenario, budget) cell of the chaos grid."""

    seed: int
    mix_index: int
    scenario: str  # scenario name or ``FAULT_FREE``
    budget: Optional[int]  # decision budget (None = unlimited)
    n_slices: int
    kill_at: int
    #: Invariant violations; an empty tuple means the cell is healthy.
    violations: Tuple[str, ...]
    #: Degradation-ladder rungs taken by the reference run.
    degradation_rungs: int
    #: Faults injected into the reference run.
    injected: int
    #: Safe-mode entries observed in the reference run.
    safe_mode_entries: int
    #: Whether the killed-and-resumed run matched byte-for-byte.
    resume_identical: bool

    @property
    def ok(self) -> bool:
        """Whether every invariant held."""
        return not self.violations


def _run_canonical_bytes(run: PolicyRun) -> str:
    """Canonical JSON of everything a run measured (its snapshot).

    Shortest-repr float serialisation round-trips exactly, so two runs
    agree on this string iff they agree on every measurement bit.
    """
    return json.dumps(run.snapshot(), sort_keys=True)


def _walk_nonfinite(value: Any, path: str, bad: List[str]) -> None:
    """Collect paths of NaN/inf floats inside a JSONable structure."""
    if isinstance(value, float):
        if not math.isfinite(value):
            bad.append(path)
    elif isinstance(value, dict):
        for key in sorted(value):
            _walk_nonfinite(value[key], f"{path}.{key}", bad)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _walk_nonfinite(item, f"{path}[{i}]", bad)


def _counters(telemetry: Telemetry) -> Dict[str, int]:
    counters = telemetry.metrics.as_dict().get("counters", {})
    return {k: int(v) for k, v in counters.items()}


def _build_arm(
    mix, seed: int, budget: Optional[int], scenario_name: Optional[str],
    telemetry: Optional[Telemetry],
):
    """A fresh (machine, policy, injector) triple for one chaos run.

    Everything is deterministic in ``seed``, so two calls build
    byte-identical starting states — the foundation of the
    resume-identical invariant.
    """
    machine = build_machine_for_mix(mix, seed=seed)
    config = ControllerConfig(
        seed=seed, hardened=True, decision_budget=budget
    )
    policy = CuttleSysPolicy.for_machine(machine, seed=seed, config=config)
    faults = None
    if scenario_name is not None:
        faults = FaultInjector.from_scenario(
            scenario_by_name(scenario_name, seed=seed), telemetry=telemetry
        )
    return machine, policy, faults


def _chaos_cell(
    scenario_name: Optional[str],
    mix_index: int,
    budget: Optional[int],
    kill_at: int,
    n_slices: int,
    cooldown: int,
    load: float,
    cap: float,
    seed: int,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, Any]:
    """Soak one (seed, mix, scenario, budget) cell and check invariants.

    Top-level so worker processes unpickle it by reference; all kwargs
    and the returned dict are plain JSON, as the fleet contract
    requires.  The reference run's counters feed the invariants, so
    without a fleet session the cell opens its own.
    """
    if not 0 < kill_at < n_slices:
        raise ValueError("kill_at must fall strictly inside the run")
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    trace = LoadTrace.constant(load)
    violations: List[str] = []

    # --- reference run (uninterrupted, telemetry attached) ------------
    if telemetry is None:
        telemetry = Telemetry()
    machine, policy, faults = _build_arm(
        mix, seed, budget, scenario_name, telemetry
    )
    run = run_policy(
        machine, policy, trace,
        power_cap_fraction=cap, n_slices=n_slices, max_power_w=reference,
        telemetry=telemetry, faults=faults,
    )

    # Invariant: the hardened loop serves every quantum.
    if len(run.measurements) != n_slices:
        violations.append(
            f"completes: served {len(run.measurements)}/{n_slices} quanta"
        )
    for i, m in enumerate(run.measurements):
        if m.assignment is None:
            violations.append(f"completes: quantum {i} has no assignment")

    # Invariant: QoS accounting is NaN/inf-free.
    reference_bytes = _run_canonical_bytes(run)
    bad_floats: List[str] = []
    _walk_nonfinite(json.loads(reference_bytes), "run", bad_floats)
    if bad_floats:
        violations.append(
            "no-nan: non-finite values at " + ", ".join(bad_floats[:5])
        )

    # Invariant: counters are non-negative and the ladder adds up.
    counters = _counters(telemetry)
    for name, value in sorted(counters.items()):
        if value < 0:
            violations.append(f"monotonic: counter {name} is {value}")
    rungs = counters.get("controller.degradation.rungs", 0)
    rung_sum = sum(
        v for k, v in counters.items()
        if k.startswith("controller.degradation.")
        and k != "controller.degradation.rungs"
    )
    if rungs != rung_sum:
        violations.append(
            f"ladder: rungs counter {rungs} != per-rung sum {rung_sum}"
        )
    if budget is None and rungs:
        violations.append(
            f"ladder: unlimited budget took {rungs} degradation rung(s)"
        )
    meter = policy.controller.budget
    if meter.quanta > n_slices:
        violations.append(
            f"monotonic: meter counted {meter.quanta} quanta in a "
            f"{n_slices}-quantum run"
        )

    # Invariant: safe mode is a mode, not a terminal state.
    safe_mode_entries = counters.get(
        "faults.detected.safe_mode_entered", 0
    )
    if policy.controller.in_safe_mode:
        cooldown_run = run_policy(
            machine, policy, trace,
            power_cap_fraction=cap, n_slices=cooldown,
            max_power_w=reference,
        )
        if policy.controller.in_safe_mode:
            violations.append(
                f"safe-mode: still in safe mode after {cooldown} "
                f"fault-free quanta"
            )
        if len(cooldown_run.measurements) != cooldown:
            violations.append("safe-mode: cooldown run did not complete")

    # --- kill/resume run (fresh state, killed at kill_at) -------------
    machine2, policy2, faults2 = _build_arm(
        mix, seed, budget, scenario_name, None
    )
    paused = run_policy(
        machine2, policy2, trace,
        power_cap_fraction=cap, n_slices=n_slices, max_power_w=reference,
        faults=faults2, stop_after=kill_at,
    )
    if paused.resume_state is None:
        violations.append("resume: stop_after returned no resume_state")
        resumed_identical = False
    else:
        paused_meter = paused.resume_state["policy"]["controller"]["budget"]
        # The killed process is gone: resume into a run rebuilt from
        # the same arguments, as a restarted process would.
        machine2, policy2, faults2 = _build_arm(
            mix, seed, budget, scenario_name, None
        )
        resumed = run_policy(
            machine2, policy2, trace,
            power_cap_fraction=cap, n_slices=n_slices,
            max_power_w=reference, faults=faults2,
            resume_state=paused.resume_state,
        )
        final_meter = policy2.controller.budget
        # Monotonicity must survive the crash boundary.
        if final_meter.total_spent < int(paused_meter["total_spent"]):
            violations.append(
                "monotonic: deadline meter moved backwards across "
                f"resume ({paused_meter['total_spent']} -> "
                f"{final_meter.total_spent})"
            )
        if final_meter.quanta < int(paused_meter["quanta"]):
            violations.append(
                "monotonic: quantum meter moved backwards across resume"
            )
        resumed_identical = (
            _run_canonical_bytes(resumed) == reference_bytes
        )
        if not resumed_identical:
            violations.append(
                f"resume: run killed at quantum {kill_at} and resumed "
                f"diverged from the uninterrupted run"
            )

    outcome = ChaosOutcome(
        seed=seed,
        mix_index=mix_index,
        scenario=scenario_name or FAULT_FREE,
        budget=budget,
        n_slices=n_slices,
        kill_at=kill_at,
        violations=tuple(violations),
        degradation_rungs=rungs,
        injected=sum(
            v for k, v in counters.items() if k.startswith("faults.injected.")
        ),
        safe_mode_entries=safe_mode_entries,
        resume_identical=resumed_identical,
    )
    cell: Dict[str, Any] = asdict(outcome)
    cell["violations"] = list(outcome.violations)
    return cell


def chaos_units(
    seeds: Sequence[int],
    mix_indices: Sequence[int],
    scenarios: Sequence[Optional[str]],
    budgets: Sequence[Optional[int]],
    n_slices: int,
    cooldown: int,
    load: float,
    cap: float,
) -> List[WorkUnit]:
    """The soak's fleet units, one per (seed, mix, scenario, budget).

    The kill point is derived from the seed (``1 + seed % (n-1)``) so a
    multi-seed soak exercises kills at different quanta without any
    wall-clock or ambient randomness.
    """
    return [
        WorkUnit(
            unit_id=(
                f"chaos/s{seed}/m{mix_index}/"
                f"{scenario or FAULT_FREE}/"
                f"b{budget if budget is not None else 'inf'}"
            ),
            fn=_chaos_cell,
            kwargs={
                "scenario_name": scenario, "mix_index": mix_index,
                "budget": budget,
                "kill_at": 1 + seed % (n_slices - 1),
                "n_slices": n_slices, "cooldown": cooldown,
                "load": load, "cap": cap, "seed": seed,
            },
        )
        for seed in seeds
        for mix_index in mix_indices
        for scenario in scenarios
        for budget in budgets
    ]


def outcomes_from_cells(
    cells: Sequence[Dict[str, Any]],
) -> Tuple[ChaosOutcome, ...]:
    """Rehydrate :class:`ChaosOutcome` rows from unit cell dicts."""
    outcomes = []
    for cell in cells:
        fields = {
            key: value for key, value in cell.items()
            if key != "telemetry"
        }
        fields["violations"] = tuple(fields["violations"])
        outcomes.append(ChaosOutcome(**fields))
    return tuple(outcomes)


def run_chaos_study(
    seeds: Sequence[int] = (7,),
    mix_indices: Sequence[int] = DEFAULT_CHAOS_MIXES,
    scenarios: Sequence[Optional[str]] = DEFAULT_CHAOS_SCENARIOS,
    budgets: Sequence[Optional[int]] = DEFAULT_CHAOS_BUDGETS,
    n_slices: int = 10,
    cooldown: int = 8,
    load: float = 0.7,
    cap: float = 0.7,
    **fleet: Any,
) -> Tuple[ChaosOutcome, ...]:
    """Soak the decision loop across seeds, mixes, faults and deadlines.

    Returns one :class:`ChaosOutcome` per grid cell in grid order; a
    cell with a non-empty ``violations`` tuple broke an invariant.  The
    grid executes as a fleet run; ``fleet`` takes the execution and
    telemetry keywords of :func:`repro.fleet.run_grid`.  ``--jobs N``
    output is byte-identical to serial, and one checkpoint file covers
    the full multi-seed, multi-mix soak.
    """
    outcome = run_grid(
        "chaos",
        chaos_units(
            seeds, mix_indices, scenarios, budgets, n_slices, cooldown,
            load, cap,
        ),
        seed=min(seeds) if seeds else 0,
        context={
            "seeds": list(seeds), "mix_indices": list(mix_indices),
            "scenarios": [s or FAULT_FREE for s in scenarios],
            "budgets": [b for b in budgets],
            "n_slices": n_slices, "cooldown": cooldown,
            "load": load, "cap": cap,
        },
        **fleet,
    )
    return outcomes_from_cells(outcome.values())


def render_chaos_study(outcomes: Sequence[ChaosOutcome]) -> str:
    """Text table of the soak plus a pass/fail headline."""
    rows = [
        (
            f"s{o.seed}",
            f"m{o.mix_index}",
            o.scenario,
            "inf" if o.budget is None else str(o.budget),
            f"{o.kill_at}/{o.n_slices}",
            o.degradation_rungs,
            o.injected,
            o.safe_mode_entries,
            "yes" if o.resume_identical else "NO",
            "ok" if o.ok else f"{len(o.violations)} VIOLATION(S)",
        )
        for o in outcomes
    ]
    table = format_table(
        [
            "seed", "mix", "scenario", "budget", "kill@", "rungs",
            "injected", "safe-mode", "resume==", "invariants",
        ],
        rows,
    )
    broken = [o for o in outcomes if not o.ok]
    lines = [table, ""]
    if broken:
        lines.append(
            f"{len(broken)}/{len(outcomes)} cell(s) broke invariants:"
        )
        for o in broken:
            for violation in o.violations:
                lines.append(
                    f"  [s{o.seed}/m{o.mix_index}/{o.scenario}/"
                    f"b{'inf' if o.budget is None else o.budget}] "
                    f"{violation}"
                )
    else:
        lines.append(
            f"all {len(outcomes)} cells healthy: every quantum served, "
            f"no NaN, meters monotonic across kills, safe mode always "
            f"exited, resumed runs byte-identical."
        )
    return "\n".join(lines)
