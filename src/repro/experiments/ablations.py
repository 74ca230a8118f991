"""Ablation studies of CuttleSys's design choices (DESIGN.md hooks).

Each ablation removes or resizes one mechanism and measures the effect
on useful work, QoS, and the power budget:

* **inference** — SGD reconstruction vs perfect (oracle) inference:
  the gap is what the two-sample collaborative filter costs.
* **guards** — QoS guardbands off vs on: without them, exploratory LC
  configuration choices violate QoS.
* **variants** — historical service variants in the latency training
  set (0 vs default): fewer known-similar services degrade the LC
  configuration choice.
* **training size** — 8/16/24 offline-characterised batch apps,
  end-to-end (the §VIII-A2 study measured in throughput, not error).
* **penalty weight** — the soft power penalty of §VI-A: too low busts
  the budget, too high leaves throughput on the table.  The controller
  fixes the weight, so this re-runs Fig. 10a's frozen search per weight.
* **transition cost** — the paper treats quantum-boundary
  reconfiguration as free and AnyCore's RTL suggests tens of
  microseconds; raising it to milliseconds checks how much
  CuttleSys's configuration churn would hurt on slower hardware.
* **dds budget** — DDS iterations vs solution quality (the maxIter
  trade-off discussed in §V/VI).
* **dds step** — the default population step (each thread's points of
  an iteration drawn from one point and scored as one batch) vs Alg. 2's
  sequential step, on the same frozen problem.

:data:`ABLATIONS` declares each one once (title, power cap, variants);
:func:`ablation_row` runs one variant and :func:`run_ablation_matrix`
runs them all as one fleet grid.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.controller import ControllerConfig
from repro.core.dds import DDSParams, DDSSearch
from repro.core.matrices import power_rows, throughput_rows
from repro.core.objective import SystemObjective
from repro.core.oracle import OracleReconfigPolicy
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    build_machine_for_mix,
    reference_power_for_mix,
    run_policy,
)
from repro.experiments.reporting import format_table
from repro.fleet import WorkUnit, run_grid
from repro.sim.coreconfig import N_JOINT_CONFIGS
from repro.sim.machine import MachineParams
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


@dataclass(frozen=True)
class AblationRow:
    """Outcome of one configuration of one ablation."""

    label: str
    batch_instructions_b: float
    qos_violations: int
    power_violations: int


def _closed_loop_row(
    mix_index: int,
    cap: float,
    n_slices: int,
    seed: int,
    label: str,
    telemetry: Any,
    config: Optional[ControllerConfig],
    train_profiles: Optional[Sequence] = None,
    machine_params: Optional[MachineParams] = None,
) -> AblationRow:
    """One run at a constant 0.8 load: CuttleSys under ``config``, or
    the perfect-inference oracle when ``config`` is ``None``."""
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    machine = build_machine_for_mix(mix, seed=seed, params=machine_params)
    if config is None:
        policy: Any = OracleReconfigPolicy(seed=seed)
    else:
        policy = CuttleSysPolicy.for_machine(
            machine, seed=seed, config=config,
            train_profiles=train_profiles,
        )
    run = run_policy(
        machine, policy, LoadTrace.constant(0.8),
        power_cap_fraction=cap, n_slices=n_slices, max_power_w=reference,
        telemetry=telemetry,
    )
    return AblationRow(
        label=label,
        batch_instructions_b=run.total_batch_instructions() / 1e9,
        qos_violations=run.qos_violations(),
        power_violations=run.power_violations(),
    )


def frozen_objective(
    mix_index: int,
    cap: float,
    seed: int,
    penalty_weight: Optional[float] = None,
) -> SystemObjective:
    """The frozen batch problem of one mix and power cap.

    True throughput and power rows of the mix's batch jobs; the power
    budget is the cap's batch share (0.6) of the reference power, and
    the LC service's 4 LLC ways are reserved.
    """
    mix = paper_mixes()[mix_index]
    machine = build_machine_for_mix(mix, seed=seed)
    return SystemObjective(
        bips=throughput_rows(machine.batch_profiles, machine.perf),
        power=power_rows(machine.batch_profiles, machine.power),
        max_power=machine.reference_max_power() * cap * 0.6,
        max_ways=machine.params.llc_ways - 4.0,
        **(
            {"penalty_power": penalty_weight}
            if penalty_weight is not None else {}
        ),
    )


def _frozen_search_row(
    mix_index: int,
    cap: float,
    seed: int,
    label: str,
    penalty_weight: Optional[float] = None,
    dds: Optional[DDSParams] = None,
) -> AblationRow:
    """One frozen-problem DDS run (penalty-weight / dds-* cells).

    For ``penalty_weight`` cells the row carries the predicted
    instructions + feasibility of the search result; for cells that
    set the search's ``dds`` parameters ``batch_instructions_b``
    carries the achieved search *objective* — the matrix keeps one row
    shape and the renderer labels the difference.
    """
    objective = frozen_objective(mix_index, cap, seed, penalty_weight)
    bips = objective.bips
    result = DDSSearch(dds or DDSParams()).search(
        objective, n_dims=objective.n_jobs, n_confs=N_JOINT_CONFIGS,
        rng=np.random.default_rng(seed),
    )
    if dds is not None:
        return AblationRow(
            label=label,
            batch_instructions_b=result.best_objective,
            qos_violations=0,
            power_violations=0,
        )
    x = result.best_x
    budget = objective.max_power
    over = max(0.0, objective.total_power(x) - budget)
    return AblationRow(
        label=label,
        batch_instructions_b=float(bips[np.arange(bips.shape[0]), x].sum()),
        qos_violations=0,
        power_violations=int(over > budget * 0.01),
    )


#: The two DDS steps of the ``dds-step`` ablation: (label, parameters).
DDS_STEPS: Dict[str, Tuple[str, DDSParams]] = {
    "population": ("DDS population step (default)", DDSParams()),
    "sequential": (
        "DDS sequential step (Alg. 2)",
        DDSParams(rounds_per_iteration=DDSParams().points_per_iteration),
    ),
}


@dataclass(frozen=True)
class Ablation:
    """One ablation's declaration.

    ``variants`` maps each variant's name (its unit id is
    ``ablate/<ablation>/<name>``) to the typed value
    :func:`ablation_row` takes, in render order.
    """

    title: str
    cap: float
    variants: Mapping[str, Any]


#: Every ablation of the matrix, in render order.  Each (ablation,
#: variant) pair is one independent simulation, so the whole matrix
#: shards as fleet work units (``repro experiment ablations --jobs N
#: --checkpoint ...``).
ABLATIONS: Dict[str, Ablation] = {
    "inference": Ablation(
        "inference: SGD vs oracle", 0.6,
        {"sgd": "sgd", "oracle": "oracle"},
    ),
    "guards": Ablation("QoS guardbands", 0.7, {"on": True, "off": False}),
    "variants": Ablation(
        "latency training variants", 0.7,
        {"default": ControllerConfig().latency_variants_per_service,
         "none": 0},
    ),
    "training-size": Ablation(
        "offline training-set size", 0.6, {"8": 8, "16": 16, "24": 24},
    ),
    "penalty-weight": Ablation(
        "power-penalty weight (frozen search)", 0.6,
        {"0.25": 0.25, "2": 2.0, "16": 16.0},
    ),
    "transition-cost": Ablation(
        "reconfiguration transition cost", 0.6,
        {"50us": 50e-6, "2ms": 2e-3, "10ms": 10e-3},
    ),
    "dds-budget": Ablation(
        "DDS iteration budget (objective, frozen search)", 0.6,
        {"5": 5, "40": 40, "120": 120},
    ),
    "dds-step": Ablation(
        "DDS step (objective, frozen search)", 0.6,
        {step: step for step in DDS_STEPS},
    ),
}


def ablation_row(
    ablation: str,
    value: Any,
    mix_index: int = 0,
    n_slices: int = 10,
    seed: int = 7,
    telemetry: Any = None,
) -> AblationRow:
    """The one simulation of one ablation at one variant value.

    ``value`` is typed per ablation, as in :data:`ABLATIONS`, and need
    not be one the matrix declares: ``"sgd"``/``"oracle"`` inference,
    guardbands on (bool), latency variants per service (int), a
    training-set size (int), a penalty weight (float), a transition
    cost in seconds (float), a DDS iteration budget (int) or a
    :data:`DDS_STEPS` name.  The power cap is the ablation's declared
    one; the frozen-search ablations ignore ``n_slices``.
    """
    if ablation not in ABLATIONS:
        raise ValueError(f"unknown ablation {ablation!r}")
    cap = ABLATIONS[ablation].cap
    if ablation == "penalty-weight":
        return _frozen_search_row(
            mix_index, cap, seed, f"penalty={value:g}",
            penalty_weight=value,
        )
    if ablation == "dds-budget":
        return _frozen_search_row(
            mix_index, cap, seed, f"maxIter={value}",
            dds=DDSParams(max_iter=value),
        )
    if ablation == "dds-step":
        label, params = DDS_STEPS[value]
        return _frozen_search_row(mix_index, cap, seed, label, dds=params)
    config: Optional[ControllerConfig] = ControllerConfig(seed=seed)
    inputs: Dict[str, Any] = {}
    if (ablation, value) == ("inference", "sgd"):
        label = "cuttlesys (SGD inference)"
    elif (ablation, value) == ("inference", "oracle"):
        label, config = "oracle inference", None
    elif ablation == "guards":
        label = "guards on (default)" if value else "guards off"
        if not value:
            config = ControllerConfig(
                seed=seed, qos_guard_sparse=1e-6, qos_guard_medium=1e-6,
                qos_guard_dense=1e-6,
            )
    elif ablation == "variants":
        label = f"{value} variants/service" if value else "no variants"
        if value == ControllerConfig().latency_variants_per_service:
            label += " (default)"
        config = ControllerConfig(
            seed=seed, latency_variants_per_service=value
        )
    elif ablation == "training-size":
        label = f"{value} training apps"
        train_names, _ = train_test_split(n_train=value)
        inputs["train_profiles"] = [batch_profile(n) for n in train_names]
    elif ablation == "transition-cost":
        label = f"transition {value * 1e3:g} ms"
        inputs["machine_params"] = MachineParams(reconfig_transition_s=value)
    else:
        raise ValueError(f"unknown ablation variant {ablation}/{value!r}")
    return _closed_loop_row(
        mix_index, cap, n_slices, seed, label, telemetry, config, **inputs
    )


def render_ablation(title: str, rows: Sequence[AblationRow]) -> str:
    """Text table for one ablation."""
    return (
        f"== {title} ==\n"
        + format_table(
            ["variant", "batch instr (B)", "QoS viol.", "power viol."],
            [
                (r.label, f"{r.batch_instructions_b:.2f}",
                 r.qos_violations, r.power_violations)
                for r in rows
            ],
        )
    )


# ----------------------------------------------------------------------
# Fleet-sharded ablation matrix.
# ----------------------------------------------------------------------

def _ablation_cell(
    ablation: str,
    variant: str,
    mix_index: int,
    n_slices: int,
    seed: int,
    telemetry: Any = None,
) -> Dict[str, Any]:
    """One (ablation, variant) simulation as a JSONable fleet unit."""
    row = ablation_row(
        ablation, ABLATIONS[ablation].variants[variant], mix_index,
        n_slices, seed, telemetry=telemetry,
    )
    return {"ablation": ablation, "variant": variant, **asdict(row)}


def ablation_units(
    mix_index: int, n_slices: int, seed: int
) -> List[WorkUnit]:
    """The matrix's fleet work units, one per (ablation, variant)."""
    return [
        WorkUnit(
            unit_id=f"ablate/{ablation}/{variant}",
            fn=_ablation_cell,
            kwargs={
                "ablation": ablation, "variant": variant,
                "mix_index": mix_index, "n_slices": n_slices, "seed": seed,
            },
        )
        for ablation, declared in ABLATIONS.items()
        for variant in declared.variants
    ]


def rows_from_cells(
    cells: Sequence[Dict[str, Any]],
) -> Dict[str, Tuple[AblationRow, ...]]:
    """Regroup matrix cells into per-ablation row tuples (matrix order)."""
    by_key = {(c["ablation"], c["variant"]): c for c in cells}
    return {
        ablation: tuple(
            AblationRow(*(
                by_key[(ablation, variant)][f.name]
                for f in fields(AblationRow)
            ))
            for variant in declared.variants
        )
        for ablation, declared in ABLATIONS.items()
    }


def run_ablation_matrix(
    mix_index: int = 0,
    n_slices: int = 10,
    seed: int = 7,
    **fleet: Any,
) -> Dict[str, Tuple[AblationRow, ...]]:
    """Every ablation of :data:`ABLATIONS` as one sharded grid.

    ``fleet`` takes the execution and telemetry keywords of
    :func:`repro.fleet.run_grid`.
    """
    outcome = run_grid(
        "ablations", ablation_units(mix_index, n_slices, seed), seed=seed,
        **fleet,
    )
    return rows_from_cells(outcome.values())


def render_ablation_matrix(
    rows_by_ablation: Dict[str, Tuple[AblationRow, ...]],
) -> str:
    """All matrix tables, in :data:`ABLATIONS` order.

    ``dds-budget`` and ``dds-step`` rows carry the achieved search
    *objective* in the instructions column, so their titles say so.
    """
    return "\n\n".join(
        render_ablation(declared.title, rows_by_ablation[ablation])
        for ablation, declared in ABLATIONS.items()
        if rows_by_ablation.get(ablation)
    )
