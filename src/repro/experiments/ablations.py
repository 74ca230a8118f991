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
  the budget, too high leaves throughput on the table.
* **dds budget** — DDS iterations vs solution quality (the maxIter
  trade-off discussed in §V/VI).
* **dds step** — the default population step (each thread's points of
  an iteration drawn from one point and scored as one batch) vs Alg. 2's
  sequential step, on the same frozen problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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


def _run_cuttlesys(
    mix_index: int,
    cap: float,
    n_slices: int,
    seed: int,
    config: ControllerConfig,
    label: str,
    telemetry: Any = None,
    train_profiles: Optional[Sequence] = None,
    machine_params: Optional[MachineParams] = None,
) -> AblationRow:
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    machine = build_machine_for_mix(mix, seed=seed, params=machine_params)
    policy = CuttleSysPolicy.for_machine(
        machine, seed=seed, config=config, train_profiles=train_profiles
    )
    return _policy_row(
        machine, policy, reference, cap, n_slices, label, telemetry
    )


def _run_oracle(
    mix_index: int, cap: float, n_slices: int, seed: int, label: str,
    telemetry: Any = None,
) -> AblationRow:
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=seed)
    machine = build_machine_for_mix(mix, seed=seed)
    return _policy_row(
        machine, OracleReconfigPolicy(seed=seed), reference, cap, n_slices,
        label, telemetry,
    )


def _policy_row(
    machine: Any, policy: Any, reference: float, cap: float,
    n_slices: int, label: str, telemetry: Any,
) -> AblationRow:
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


#: (label, ControllerConfig overrides) of the variants that only change
#: the controller configuration.
_CONFIG_VARIANTS: Dict[Tuple[str, str], Tuple[str, Dict[str, Any]]] = {
    ("inference", "sgd"): ("cuttlesys (SGD inference)", {}),
    ("guards", "on"): ("guards on (default)", {}),
    ("guards", "off"): ("guards off", {
        "qos_guard_sparse": 1e-6,
        "qos_guard_medium": 1e-6,
        "qos_guard_dense": 1e-6,
    }),
    ("variants", "default"): ("3 variants/service (default)", {}),
    ("variants", "none"): (
        "no variants", {"latency_variants_per_service": 0}
    ),
}


def _ablation_row(
    ablation: str,
    value: Any,
    mix_index: int,
    cap: float,
    n_slices: int,
    seed: int,
    telemetry: Any = None,
) -> AblationRow:
    """The one simulation of one (ablation, variant value).

    ``value`` is typed per ablation: a training-set size (int), a
    penalty weight (float), a transition cost in seconds (float), a DDS
    iteration budget (int), or one of the variant names of
    :data:`ABLATION_MATRIX` for the others.
    """
    if (ablation, value) == ("inference", "oracle"):
        return _run_oracle(
            mix_index, cap, n_slices, seed, "oracle inference",
            telemetry=telemetry,
        )
    if (ablation, value) in _CONFIG_VARIANTS:
        label, overrides = _CONFIG_VARIANTS[(ablation, value)]
        return _run_cuttlesys(
            mix_index, cap, n_slices, seed,
            ControllerConfig(seed=seed, **overrides), label,
            telemetry=telemetry,
        )
    if ablation == "training-size":
        train_names, _ = train_test_split(n_train=value)
        return _run_cuttlesys(
            mix_index, cap, n_slices, seed, ControllerConfig(seed=seed),
            f"{value} training apps", telemetry=telemetry,
            train_profiles=[batch_profile(n) for n in train_names],
        )
    if ablation == "transition-cost":
        return _run_cuttlesys(
            mix_index, cap, n_slices, seed, ControllerConfig(seed=seed),
            f"transition {value * 1e3:g} ms", telemetry=telemetry,
            machine_params=MachineParams(reconfig_transition_s=value),
        )
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
    raise ValueError(f"unknown ablation variant {ablation}/{value!r}")


def ablate_inference(
    mix_index: int = 0, cap: float = 0.6, n_slices: int = 10, seed: int = 7
) -> Tuple[AblationRow, AblationRow]:
    """SGD inference vs the perfect-inference oracle."""
    return (
        _ablation_row("inference", "sgd", mix_index, cap, n_slices, seed),
        _ablation_row("inference", "oracle", mix_index, cap, n_slices, seed),
    )


def ablate_guards(
    mix_index: int = 0, cap: float = 0.7, n_slices: int = 10, seed: int = 7
) -> Tuple[AblationRow, AblationRow]:
    """QoS guardbands on (default) vs effectively off."""
    return (
        _ablation_row("guards", "on", mix_index, cap, n_slices, seed),
        _ablation_row("guards", "off", mix_index, cap, n_slices, seed),
    )


def ablate_variants(
    mix_index: int = 0, cap: float = 0.7, n_slices: int = 10, seed: int = 7
) -> Tuple[AblationRow, AblationRow]:
    """Historical latency variants (default 3/service) vs none."""
    return (
        _ablation_row("variants", "default", mix_index, cap, n_slices, seed),
        _ablation_row("variants", "none", mix_index, cap, n_slices, seed),
    )


def ablate_training_size(
    sizes: Sequence[int] = (8, 16, 24),
    mix_index: int = 0,
    cap: float = 0.6,
    n_slices: int = 10,
    seed: int = 7,
) -> Tuple[AblationRow, ...]:
    """End-to-end effect of the offline training-set size (§VIII-A2)."""
    return tuple(
        _ablation_row("training-size", size, mix_index, cap, n_slices, seed)
        for size in sizes
    )


def ablate_penalty_weight(
    weights: Sequence[float] = (0.25, 2.0, 16.0),
    mix_index: int = 0,
    cap: float = 0.6,
    n_slices: int = 10,
    seed: int = 7,
) -> Tuple[AblationRow, ...]:
    """Soft power-penalty weight of the DDS objective (§VI-A).

    Exposed through a dedicated objective run because the controller
    fixes the weight: we re-run the frozen search of Fig. 10a per
    weight and report predicted feasibility + throughput.
    """
    return tuple(
        _ablation_row(
            "penalty-weight", weight, mix_index, cap, n_slices, seed
        )
        for weight in weights
    )


def ablate_transition_cost(
    transitions_s: Sequence[float] = (50e-6, 2e-3, 10e-3),
    mix_index: int = 0,
    cap: float = 0.6,
    n_slices: int = 10,
    seed: int = 7,
) -> Tuple[AblationRow, ...]:
    """Sensitivity to the core-reconfiguration transition cost.

    The paper treats quantum-boundary reconfiguration as free; AnyCore's
    RTL suggests tens of microseconds.  This ablation raises the cost to
    the milliseconds regime to check how much CuttleSys's configuration
    churn would hurt on slower hardware.
    """
    return tuple(
        _ablation_row(
            "transition-cost", transition, mix_index, cap, n_slices, seed
        )
        for transition in transitions_s
    )


def ablate_dds_budget(
    iterations: Sequence[int] = (5, 40, 120),
    mix_index: int = 0,
    cap: float = 0.6,
    seed: int = 7,
) -> Dict[int, float]:
    """DDS maxIter vs achieved objective on a frozen problem."""
    return {
        max_iter: _ablation_row(
            "dds-budget", max_iter, mix_index, cap, 0, seed
        ).batch_instructions_b
        for max_iter in iterations
    }


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

#: The matrix's (ablation, variants) grid, in render order.  Every
#: (ablation, variant) pair is one independent simulation, so the whole
#: matrix shards as fleet work units (``repro experiment ablations
#: --jobs N --checkpoint ...``).
ABLATION_MATRIX: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("inference", ("sgd", "oracle")),
    ("guards", ("on", "off")),
    ("variants", ("default", "none")),
    ("training-size", ("8", "16", "24")),
    ("penalty-weight", ("0.25", "2", "16")),
    ("transition-cost", ("50us", "2ms", "10ms")),
    ("dds-budget", ("5", "40", "120")),
    ("dds-step", tuple(DDS_STEPS)),
)

#: Per-ablation power cap, matching the standalone ablate_* defaults.
_ABLATION_CAPS: Dict[str, float] = {
    "inference": 0.6,
    "guards": 0.7,
    "variants": 0.7,
    "training-size": 0.6,
    "penalty-weight": 0.6,
    "transition-cost": 0.6,
    "dds-budget": 0.6,
    "dds-step": 0.6,
}

_TRANSITION_SECONDS: Dict[str, float] = {
    "50us": 50e-6, "2ms": 2e-3, "10ms": 10e-3,
}

#: Decoders from a matrix variant name to its :func:`_ablation_row`
#: value; ablations not listed take the name itself.
_VARIANT_VALUES: Dict[str, Callable[[str], Any]] = {
    "training-size": int,
    "penalty-weight": float,
    "transition-cost": _TRANSITION_SECONDS.__getitem__,
    "dds-budget": int,
}


def _ablation_cell(
    ablation: str,
    variant: str,
    mix_index: int,
    n_slices: int,
    seed: int,
    telemetry: Any = None,
) -> Dict[str, Any]:
    """One (ablation, variant) simulation as a JSONable fleet unit."""
    row = _ablation_row(
        ablation, _VARIANT_VALUES.get(ablation, str)(variant), mix_index,
        _ABLATION_CAPS[ablation], n_slices, seed, telemetry=telemetry,
    )
    return {
        "ablation": ablation,
        "variant": variant,
        "label": row.label,
        "batch_instructions_b": row.batch_instructions_b,
        "qos_violations": row.qos_violations,
        "power_violations": row.power_violations,
    }


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
        for ablation, variants in ABLATION_MATRIX
        for variant in variants
    ]


def rows_from_cells(
    cells: Sequence[Dict[str, Any]],
) -> Dict[str, Tuple[AblationRow, ...]]:
    """Regroup matrix cells into per-ablation row tuples (matrix order)."""
    by_key = {(c["ablation"], c["variant"]): c for c in cells}
    out: Dict[str, Tuple[AblationRow, ...]] = {}
    for ablation, variants in ABLATION_MATRIX:
        rows = []
        for variant in variants:
            cell = by_key[(ablation, variant)]
            rows.append(AblationRow(
                label=str(cell["label"]),
                batch_instructions_b=float(cell["batch_instructions_b"]),
                qos_violations=int(cell["qos_violations"]),
                power_violations=int(cell["power_violations"]),
            ))
        out[ablation] = tuple(rows)
    return out


def run_ablation_matrix(
    mix_index: int = 0,
    n_slices: int = 10,
    seed: int = 7,
    **fleet: Any,
) -> Dict[str, Tuple[AblationRow, ...]]:
    """Every ablation of :data:`ABLATION_MATRIX` as one sharded grid.

    ``fleet`` takes the execution and telemetry keywords of
    :func:`repro.fleet.run_grid`.
    """
    outcome = run_grid(
        "ablations",
        ablation_units(mix_index, n_slices, seed),
        seed=seed, context={"mix_index": mix_index, "n_slices": n_slices},
        **fleet,
    )
    return rows_from_cells(outcome.values())


def render_ablation_matrix(
    rows_by_ablation: Dict[str, Tuple[AblationRow, ...]],
) -> str:
    """All matrix tables, in :data:`ABLATION_MATRIX` order.

    ``dds-budget`` and ``dds-step`` rows carry the achieved search
    *objective* in the instructions column, so their headings say so.
    """
    titles = {
        "inference": "inference: SGD vs oracle",
        "guards": "QoS guardbands",
        "variants": "latency training variants",
        "training-size": "offline training-set size",
        "penalty-weight": "power-penalty weight (frozen search)",
        "transition-cost": "reconfiguration transition cost",
        "dds-budget": "DDS iteration budget (objective, frozen search)",
        "dds-step": "DDS step (objective, frozen search)",
    }
    sections = []
    for ablation, _variants in ABLATION_MATRIX:
        rows = rows_by_ablation.get(ablation)
        if rows:
            sections.append(render_ablation(titles[ablation], rows))
    return "\n\n".join(sections)
