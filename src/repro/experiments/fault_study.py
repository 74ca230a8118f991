"""Robustness study: hardened vs unhardened control under injected faults.

Each scenario from :func:`repro.faults.scenarios.default_scenarios` runs
twice on identical machines and seeds:

* **hardened** — the default :class:`~repro.core.controller.ControllerConfig`
  (sample sanitisation, safe mode, reconfiguration quarantine) with the
  harness's ``on_policy_error="degrade"`` containment;
* **unhardened** — ``ControllerConfig(hardened=False)`` and
  ``on_policy_error="raise"``, i.e. the pre-robustness decision loop,
  where a single NaN profiling sample kills the run.

An aborted run leaves its remaining slices unserved; the study counts
those as QoS violations (the service is down, which is strictly worse
than slow).  The headline claim — checked by the acceptance tests — is
that the hardened controller finishes every scenario with fewer QoS
violations than the unhardened one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
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
from repro.faults import (
    FaultInjector,
    FaultScenario,
    default_scenarios,
    scenario_by_name,
)
from repro.fleet import WorkUnit, run_grid
from repro.logs import get_logger
from repro.telemetry import Telemetry
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

log = get_logger("experiments.fault_study")


@dataclass(frozen=True)
class FaultStudyOutcome:
    """One (scenario, controller arm) cell of the robustness study."""

    scenario: str
    policy: str  # "hardened" | "unhardened"
    n_slices: int
    completed_slices: int
    aborted: bool
    #: QoS violations over served slices, plus one per unserved slice
    #: of an aborted run (downtime counts against QoS).
    qos_violations: int
    degraded_quanta: int
    batch_instructions_b: float
    injected: int
    detected: int
    recovered: int
    #: Which paper mix the cell ran on (multi-mix grids disambiguate).
    mix_index: int = 0


def _counter_total(telemetry: Telemetry, prefix: str) -> int:
    """Sum all telemetry counters under ``prefix``."""
    counters = telemetry.metrics.as_dict().get("counters", {})
    return int(
        sum(v for k, v in counters.items() if k.startswith(prefix))
    )


def _run_arm(
    scenario: FaultScenario,
    hardened: bool,
    mix,
    reference: float,
    cap: float,
    load: float,
    n_slices: int,
    seed: int,
    telemetry: Optional[Telemetry],
) -> FaultStudyOutcome:
    machine = build_machine_for_mix(mix, seed=seed)
    config = ControllerConfig(seed=seed, hardened=hardened)
    policy = CuttleSysPolicy.for_machine(machine, seed=seed, config=config)
    # The outcome's fault counters come from the session, so an arm
    # run without a fleet session opens its own.
    if telemetry is None:
        telemetry = Telemetry()
    faults = FaultInjector.from_scenario(scenario, telemetry=telemetry)
    aborted = False
    run: Optional[PolicyRun] = None
    try:
        run = run_policy(
            machine,
            policy,
            LoadTrace.constant(load),
            power_cap_fraction=cap,
            n_slices=n_slices,
            max_power_w=reference,
            telemetry=telemetry,
            faults=faults,
            on_policy_error="degrade" if hardened else "raise",
        )
    except Exception as exc:  # unhardened arm: a fault killed the loop
        aborted = True
        run = getattr(exc, "partial_run", None)
        log.info(
            "scenario %s (%s): run aborted after %d slices: %s: %s",
            scenario.name,
            "hardened" if hardened else "unhardened",
            run.n_slices if run is not None else 0,
            type(exc).__name__,
            exc,
        )
    completed = run.n_slices if run is not None else 0
    served_violations = run.qos_violations() if run is not None else 0
    unserved = n_slices - completed
    instructions = (
        run.total_batch_instructions() / 1e9 if run is not None else 0.0
    )
    return FaultStudyOutcome(
        scenario=scenario.name,
        policy="hardened" if hardened else "unhardened",
        n_slices=n_slices,
        completed_slices=completed,
        aborted=aborted,
        qos_violations=served_violations + unserved,
        degraded_quanta=run.degraded_quanta if run is not None else 0,
        batch_instructions_b=instructions,
        injected=_counter_total(telemetry, "faults.injected."),
        detected=_counter_total(telemetry, "faults.detected."),
        recovered=_counter_total(telemetry, "faults.recovered."),
    )


def _fault_cell(
    scenario: str,
    hardened: bool,
    mix_index: int,
    cap: float,
    load: float,
    n_slices: int,
    seed: int,
    telemetry: Optional[Telemetry] = None,
) -> Dict[str, Any]:
    """One (scenario, arm) cell as a JSONable fleet unit value.

    Top-level so worker processes can unpickle it by reference.  The
    scenario, mix and power reference are rebuilt from their names and
    indices inside the unit (all deterministic in the seed), keeping
    the kwargs plain JSON for the checkpoint fingerprint.
    """
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    outcome = _run_arm(
        scenario_by_name(scenario, seed=seed), hardened, mix, reference,
        cap, load, n_slices, seed, telemetry,
    )
    return asdict(replace(outcome, mix_index=mix_index))


def fault_study_units(
    mix_indices: Sequence[int],
    cap: float,
    load: float,
    n_slices: int,
    seed: int,
    scenarios: Sequence[str],
) -> List[WorkUnit]:
    """The study's fleet work units, one per (mix, scenario name, arm).

    Unit ids are mix-qualified so one checkpoint file can snapshot a
    whole multi-mix sweep (the single-mix limitation of the original
    study is gone).
    """
    return [
        WorkUnit(
            unit_id=(
                f"faults/m{mix_index}/{scenario}/"
                f"{'hardened' if hardened else 'unhardened'}"
            ),
            fn=_fault_cell,
            kwargs={
                "scenario": scenario, "hardened": hardened,
                "mix_index": mix_index, "cap": cap, "load": load,
                "n_slices": n_slices, "seed": seed,
            },
        )
        for mix_index in mix_indices
        for scenario in scenarios
        for hardened in (True, False)
    ]


def outcomes_from_cells(
    cells: Sequence[Dict[str, Any]],
) -> Tuple[FaultStudyOutcome, ...]:
    """Rehydrate :class:`FaultStudyOutcome` rows from unit cell dicts."""
    return tuple(
        FaultStudyOutcome(**{
            key: value for key, value in cell.items()
            if key != "telemetry"
        })
        for cell in cells
    )


def run_fault_study(
    mix_indices: Sequence[int] = (0,),
    cap: float = 0.7,
    load: float = 0.7,
    n_slices: int = 12,
    seed: int = 7,
    scenarios: Optional[Sequence[str]] = None,
    **fleet: Any,
) -> Tuple[FaultStudyOutcome, ...]:
    """Hardened vs unhardened CuttleSys across the fault scenarios.

    Both arms of each scenario see byte-identical machines, training
    sets, and injection streams (the injector reseeds per scenario), so
    any divergence is the hardening, not luck.

    The (mix, scenario, arm) cells are independent simulations, so the
    study shards them as a fleet grid; ``fleet`` takes the execution
    and telemetry keywords of :func:`repro.fleet.run_grid`, and
    ``--jobs N`` output is byte-identical to serial.  ``mix_indices``
    sweeps several mixes in one fleet run — one checkpoint file then
    covers the whole grid.  ``scenarios`` names default scenarios
    (:func:`repro.faults.scenario_by_name`); ``None`` runs them all.
    """
    if scenarios is None:
        scenarios = [s.name for s in default_scenarios(seed)]
    outcome = run_grid(
        "fault_study",
        fault_study_units(
            mix_indices, cap, load, n_slices, seed, scenarios
        ),
        seed=seed,
        **fleet,
    )
    return outcomes_from_cells(outcome.values())


def study_totals(
    outcomes: Sequence[FaultStudyOutcome],
) -> Dict[str, Dict[str, int]]:
    """Aggregate per-arm totals (aborts, QoS violations, degradations)."""
    totals: Dict[str, Dict[str, int]] = {}
    for o in outcomes:
        arm = totals.setdefault(
            o.policy,
            {
                "aborted": 0,
                "qos_violations": 0,
                "degraded_quanta": 0,
                "injected": 0,
                "detected": 0,
                "recovered": 0,
            },
        )
        arm["aborted"] += int(o.aborted)
        arm["qos_violations"] += o.qos_violations
        arm["degraded_quanta"] += o.degraded_quanta
        arm["injected"] += o.injected
        arm["detected"] += o.detected
        arm["recovered"] += o.recovered
    return totals


def render_fault_study(outcomes: Sequence[FaultStudyOutcome]) -> str:
    """Text table plus the hardened-vs-unhardened headline.

    Multi-mix grids get a leading ``mix`` column; single-mix output is
    byte-identical to what the study printed before mixes existed.
    """
    multi_mix = len({o.mix_index for o in outcomes}) > 1
    rows = [
        ((f"m{o.mix_index}",) if multi_mix else ())
        + (
            o.scenario,
            o.policy,
            f"{o.completed_slices}/{o.n_slices}"
            + (" ABORT" if o.aborted else ""),
            o.qos_violations,
            o.degraded_quanta,
            f"{o.batch_instructions_b:.2f}",
            o.injected,
            o.detected,
            o.recovered,
        )
        for o in outcomes
    ]
    table = format_table(
        (["mix"] if multi_mix else [])
        + [
            "scenario", "controller", "slices", "QoS viol.", "degraded",
            "batch instr (B)", "injected", "detected", "recovered",
        ],
        rows,
    )
    totals = study_totals(outcomes)
    hard = totals.get("hardened", {})
    soft = totals.get("unhardened", {})
    return table + (
        f"\nhardened: {hard.get('aborted', 0)} aborted runs, "
        f"{hard.get('qos_violations', 0)} QoS violations "
        f"({hard.get('detected', 0)} faults detected, "
        f"{hard.get('recovered', 0)} recoveries); "
        f"unhardened: {soft.get('aborted', 0)} aborted, "
        f"{soft.get('qos_violations', 0)} QoS violations."
    )
