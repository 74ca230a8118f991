"""Fig. 8 — CuttleSys under dynamic load, power budgets, and relocation.

Three scenarios, all Xapian + a SPEC-like mix:

* **(a) varying load** — diurnal input load at a fixed 70 % cap: the LC
  service's configuration widens as load rises and narrows back, batch
  throughput moves inversely, QoS is met except transiently when load
  rises mid-quantum (decisions react one slice late, as in the paper).
* **(b) varying power budget** — constant 80 % load, cap stepping
  90 % → 60 % → 90 %: the LC configuration holds (QoS needs the same
  watts) while batch configurations absorb the budget swing.
* **(c) core relocation** — a load surge beyond the QoS-feasible range
  of 16 cores makes CuttleSys reclaim cores from the batch jobs (one
  per timeslice) and yield them back when load drops.
"""

from __future__ import annotations

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
from repro.fleet import WorkUnit, run_grid
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

#: Grid scenarios in merge order (keys of ``run_fig8_grid``'s result).
SCENARIOS: Tuple[str, ...] = ("a", "b", "c")


@dataclass(frozen=True)
class DynamicTrace:
    """Per-slice series of one dynamic experiment."""

    scenario: str
    loads: Tuple[float, ...]
    p99_over_qos: Tuple[float, ...]
    batch_gmean_bips: Tuple[float, ...]
    power_w: Tuple[float, ...]
    budget_w: Tuple[float, ...]
    lc_configs: Tuple[str, ...]
    lc_cores: Tuple[int, ...]

    @property
    def n_slices(self) -> int:
        """Number of decision quanta recorded."""
        return len(self.loads)


def _trace_from_run(scenario: str, run: PolicyRun, qos: float) -> DynamicTrace:
    return DynamicTrace(
        scenario=scenario,
        loads=tuple(run.loads),
        p99_over_qos=tuple(m.lc_p99 / qos for m in run.measurements),
        batch_gmean_bips=tuple(run.gmean_throughput_series()),
        power_w=tuple(m.total_power for m in run.measurements),
        budget_w=tuple(run.budgets),
        lc_configs=tuple(
            m.assignment.lc_config.label if m.assignment.lc_config else "-"
            for m in run.measurements
        ),
        lc_cores=tuple(m.assignment.lc_cores for m in run.measurements),
    )


def _run(
    trace: LoadTrace,
    cap: float,
    n_slices: int,
    scenario: str,
    mix_index: int,
    seed: int,
    power_cap_trace: Optional[List[float]] = None,
    config: Optional[ControllerConfig] = None,
    telemetry: Any = None,
) -> DynamicTrace:
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    machine = build_machine_for_mix(mix, seed=seed)
    policy = CuttleSysPolicy.for_machine(machine, seed=seed, config=config)
    run = run_policy(
        machine,
        policy,
        trace,
        power_cap_fraction=cap,
        n_slices=n_slices,
        power_cap_trace=power_cap_trace,
        max_power_w=reference,
        telemetry=telemetry,
    )
    return _trace_from_run(scenario, run, machine.lc_service.qos_latency_s)


def run_fig8a(
    mix_index: int = 0, n_slices: int = 20, seed: int = 7,
    telemetry: Any = None,
) -> DynamicTrace:
    """Diurnal load 20 % -> 80 % -> 20 % at a 70 % power cap."""
    diurnal = LoadTrace.diurnal(low=0.2, high=0.8, period=n_slices * 0.1)
    return _run(
        diurnal, 0.7, n_slices, "fig8a-varying-load", mix_index, seed,
        telemetry=telemetry,
    )


def run_fig8b(
    mix_index: int = 0, n_slices: int = 20, seed: int = 7,
    telemetry: Any = None,
) -> DynamicTrace:
    """Power budget step 90 % -> 60 % -> 90 % at constant 80 % load."""
    third = n_slices // 3
    cap_trace = [0.9] * third + [0.6] * third + [0.9] * (n_slices - 2 * third)
    return _run(
        LoadTrace.constant(0.8),
        0.9,
        n_slices,
        "fig8b-varying-budget",
        mix_index,
        seed,
        power_cap_trace=cap_trace,
        telemetry=telemetry,
    )


def run_fig8c(
    mix_index: int = 0, n_slices: int = 24, seed: int = 7,
    surge_load: float = 1.3, telemetry: Any = None,
) -> DynamicTrace:
    """Load surge past saturation forcing core relocation, then recovery.

    ``surge_load`` deliberately exceeds the knee (1.0): the service
    cannot meet QoS on its current core allocation at any
    configuration, so CuttleSys reclaims cores from the batch jobs one
    per timeslice (§VI-A) and yields them back once the surge passes.
    """
    surge = LoadTrace.steps(
        [(0.0, 0.2), (n_slices * 0.1 * 0.25, surge_load),
         (n_slices * 0.1 * 0.6, 0.2)]
    )
    return _run(
        surge, 0.7, n_slices, "fig8c-core-relocation", mix_index, seed,
        telemetry=telemetry,
    )


def _fig8_cell(
    scenario: str,
    mix_index: int,
    n_slices: Optional[int],
    seed: int,
    telemetry: Any = None,
) -> Dict[str, Any]:
    """One Fig. 8 scenario as a JSONable fleet unit.

    ``n_slices=None`` keeps each scenario's paper-matching default
    (20/20/24).
    """
    runners = {"a": run_fig8a, "b": run_fig8b, "c": run_fig8c}
    if scenario not in runners:
        raise ValueError(f"unknown fig8 scenario {scenario!r}")
    kwargs: Dict[str, Any] = {"mix_index": mix_index, "seed": seed}
    if n_slices is not None:
        kwargs["n_slices"] = n_slices
    trace = runners[scenario](telemetry=telemetry, **kwargs)
    fields = asdict(trace)
    return {
        "scenario": scenario,
        "scenario_name": fields.pop("scenario"),
        **fields,
    }


def trace_from_cell(cell: Dict[str, Any]) -> DynamicTrace:
    """Rebuild a :class:`DynamicTrace` from one fleet cell."""
    return DynamicTrace(
        scenario=str(cell["scenario_name"]),
        loads=tuple(float(v) for v in cell["loads"]),
        p99_over_qos=tuple(float(v) for v in cell["p99_over_qos"]),
        batch_gmean_bips=tuple(
            float(v) for v in cell["batch_gmean_bips"]
        ),
        power_w=tuple(float(v) for v in cell["power_w"]),
        budget_w=tuple(float(v) for v in cell["budget_w"]),
        lc_configs=tuple(str(v) for v in cell["lc_configs"]),
        lc_cores=tuple(int(v) for v in cell["lc_cores"]),
    )


def fig8_units(
    scenarios: Sequence[str],
    mix_index: int,
    n_slices: Optional[int],
    seed: int,
) -> List[WorkUnit]:
    """The dynamic study's fleet work units, one per scenario."""
    return [
        WorkUnit(
            unit_id=f"fig8/{scenario}/m{mix_index}",
            fn=_fig8_cell,
            kwargs={
                "scenario": scenario, "mix_index": mix_index,
                "n_slices": n_slices, "seed": seed,
            },
        )
        for scenario in scenarios
    ]


def run_fig8_grid(
    scenarios: Sequence[str] = SCENARIOS,
    mix_index: int = 0,
    n_slices: Optional[int] = None,
    seed: int = 7,
    **fleet: Any,
) -> Dict[str, DynamicTrace]:
    """All three dynamic scenarios as a sharded fleet grid.

    Returns ``{scenario: trace}`` in ``scenarios`` order; ``fleet``
    takes the execution and telemetry keywords of
    :func:`repro.fleet.run_grid`.
    """
    outcome = run_grid(
        "fig8",
        fig8_units(scenarios, mix_index, n_slices, seed),
        seed=seed,
        **fleet,
    )
    return {
        cell["scenario"]: trace_from_cell(cell)
        for cell in outcome.values()
    }


def render_fig8(trace: DynamicTrace) -> str:
    """Per-slice table of one dynamic scenario."""
    rows = []
    for i in range(trace.n_slices):
        rows.append(
            (
                i,
                f"{trace.loads[i]:.0%}",
                f"{trace.p99_over_qos[i]:.2f}",
                f"{trace.batch_gmean_bips[i]:.2f}",
                f"{trace.power_w[i]:.1f}/{trace.budget_w[i]:.1f}",
                trace.lc_configs[i],
                trace.lc_cores[i],
            )
        )
    return (
        f"== {trace.scenario} ==\n"
        + format_table(
            ["slice", "load", "p99/QoS", "batch gmean", "power/budget",
             "LC config", "LC cores"],
            rows,
        )
    )
