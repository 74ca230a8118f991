"""The experiment catalogue and the one-shot full evaluation.

:data:`EXPERIMENTS` names every table and figure this repo regenerates,
once: ``python -m repro experiment NAME`` runs one entry and
``python -m repro report`` runs them all, in catalogue order, into a
single markdown report mirroring the paper's evaluation section plus
this repo's extension studies.

Fleet sharding: entries are mutually independent, so ``report --jobs
N`` shards at the entry level.  The fleet unit is the top-level
:func:`_section_cell`, which carries the entry's name and looks its
producer up inside the worker.  Section wall-clock times are measured
wherever the section ran; like the scalability study's
``decision_ms``, they sit outside the determinism contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

from repro.fleet import WorkUnit, run_grid
from repro.logs import get_logger

log = get_logger("experiments.full_eval")


@dataclass(frozen=True)
class SectionResult:
    """One experiment's rendered output and runtime."""

    title: str
    body: str
    seconds: float
    error: Optional[str] = None


class Experiment(NamedTuple):
    """One runnable entry of the catalogue."""

    title: str
    #: ``producer(n_slices, **grid_kwargs) -> str``; renders the entry.
    producer: Callable[..., str]
    #: Runs as a fleet grid: the producer also takes ``seed`` and the
    #: execution and telemetry keywords of :func:`repro.fleet.run_grid`
    #: (``jobs``, ``checkpoint``, ``resume``, ``merged_telemetry``,
    #: ``live``), which its ``run_*`` function forwards unchanged.
    grid: bool = False


def _fig1(n_slices: int) -> str:
    from repro.experiments.fig1_characterization import render_fig1, run_fig1
    return render_fig1(run_fig1())


def _table2(n_slices: int) -> str:
    from repro.experiments.table2_overheads import (
        render_table2, run_table2, run_training_set_sensitivity,
    )
    return render_table2(run_table2(), run_training_set_sensitivity())


def _fig5(n_slices: int) -> str:
    from repro.experiments.fig5_accuracy import (
        render_fig5, run_fig5a, run_fig5b,
    )
    return render_fig5(run_fig5a(), run_fig5b())


def _fig5c(n_slices: int, **grid: Any) -> str:
    from repro.experiments.fig5c_powercaps import render_fig5c, run_fig5c
    return render_fig5c(run_fig5c(n_slices=n_slices, **grid))


def _fig7(n_slices: int) -> str:
    from repro.experiments.fig7_timeline import render_fig7, run_fig7
    return render_fig7(run_fig7(n_slices=n_slices))


def _fig8(n_slices: int, **grid: Any) -> str:
    from repro.experiments.fig8_dynamic import (
        SCENARIOS, render_fig8, run_fig8_grid,
    )
    traces = run_fig8_grid(**grid)
    return "\n\n".join(render_fig8(traces[scenario]) for scenario in SCENARIOS)


def _fig9(n_slices: int) -> str:
    from repro.experiments.fig9_sgd_vs_rbf import render_fig9, run_fig9
    return render_fig9(run_fig9())


def _fig10(n_slices: int) -> str:
    from repro.experiments.fig10_dds_vs_ga import (
        render_fig10, run_fig10a, run_fig10b,
    )
    return render_fig10(run_fig10a(), run_fig10b(n_slices=n_slices))


def _flicker(n_slices: int) -> str:
    from repro.experiments.flicker_comparison import (
        render_flicker, run_flicker_qos, run_flicker_throughput,
    )
    return render_flicker(
        run_flicker_qos(), run_flicker_throughput(n_slices=n_slices)
    )


def _ablations(n_slices: int, **grid: Any) -> str:
    from repro.experiments.ablations import (
        render_ablation_matrix, run_ablation_matrix,
    )
    return render_ablation_matrix(
        run_ablation_matrix(n_slices=n_slices, **grid)
    )


def _dvfs(n_slices: int) -> str:
    from repro.experiments.dvfs_comparison import (
        render_dvfs_comparison, run_dvfs_comparison,
    )
    return (
        "leakage x1.0:\n"
        + render_dvfs_comparison(run_dvfs_comparison())
        + "\n\nleakage x2.5:\n"
        + render_dvfs_comparison(run_dvfs_comparison(leakage_scale=2.5))
    )


def _bandwidth(n_slices: int) -> str:
    from repro.experiments.bandwidth_study import (
        render_bandwidth_study, run_bandwidth_study,
    )
    return render_bandwidth_study(run_bandwidth_study(n_slices=n_slices))


def _churn(n_slices: int) -> str:
    from repro.experiments.churn_study import (
        render_churn_study, run_churn_study,
    )
    return render_churn_study(run_churn_study(n_slices=n_slices * 2))


def _cluster(n_slices: int, **grid: Any) -> str:
    from repro.experiments.cluster_study import (
        render_cluster_study, run_cluster_study,
    )
    return render_cluster_study(
        run_cluster_study(n_slices=n_slices * 2, **grid)
    )


def _area(n_slices: int) -> str:
    from repro.experiments.area_equivalence import (
        render_area_equivalence, run_area_equivalence,
    )
    return render_area_equivalence(run_area_equivalence(n_slices=n_slices))


def _multi_service(n_slices: int) -> str:
    from repro.experiments.multi_service import (
        render_multi_service, run_multi_service,
    )
    return render_multi_service(run_multi_service(n_slices=n_slices * 2))


def _scalability(
    n_slices: int, include_timings: bool = True, **grid: Any
) -> str:
    from repro.experiments.scalability import (
        render_scalability, run_scalability,
    )
    return render_scalability(
        run_scalability(n_slices=n_slices, **grid),
        include_timings=include_timings,
    )


def _faults(n_slices: int) -> str:
    from repro.experiments.fault_study import (
        render_fault_study, run_fault_study,
    )
    return render_fault_study(run_fault_study(n_slices=n_slices + 4))


#: Every runnable table/figure by name, in report order.
EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment("Fig. 1 — LC service characterisation", _fig1),
    "table2": Experiment("Table II — scheduling overheads", _table2),
    "fig5": Experiment("Fig. 5(a)(b) — SGD reconstruction accuracy", _fig5),
    "fig5c": Experiment(
        "Fig. 5(c) — relative work vs power cap", _fig5c, grid=True
    ),
    "fig7": Experiment("Fig. 7 — per-timeslice instructions", _fig7),
    "fig8": Experiment("Fig. 8 — dynamic behaviour", _fig8, grid=True),
    "fig9": Experiment("Fig. 9 — SGD vs RBF", _fig9),
    "fig10": Experiment("Fig. 10 — DDS vs GA", _fig10),
    "flicker": Experiment("§VIII-E — Flicker comparison", _flicker),
    "ablations": Experiment("Extension — ablations", _ablations, grid=True),
    "dvfs": Experiment("Extension — DVFS comparison", _dvfs),
    "bandwidth": Experiment("Extension — bandwidth contention", _bandwidth),
    "churn": Experiment("Extension — job churn", _churn),
    "cluster": Experiment(
        "Extension — rack-level power brokering", _cluster, grid=True
    ),
    "area": Experiment("Extension — equal-area comparison", _area),
    "multi-service": Experiment(
        "Extension — multi-service colocation", _multi_service
    ),
    "scalability": Experiment(
        "Extension — scalability", _scalability, grid=True
    ),
    "faults": Experiment(
        "Extension — fault injection & graceful degradation", _faults
    ),
}


def _section_cell(name: str, n_slices: int) -> Dict[str, Any]:
    """One report section as a JSONable fleet unit."""
    entry = EXPERIMENTS[name]
    start = time.perf_counter()
    try:
        body = entry.producer(n_slices)
        error = None
    except Exception as exc:  # pragma: no cover - defensive reporting
        body = ""
        error = f"{type(exc).__name__}: {exc}"
        log.warning("section %r failed: %s", entry.title, error)
    seconds = time.perf_counter() - start
    log.info("section %r took %.1f s", entry.title, seconds)
    return {
        "title": entry.title, "body": body, "seconds": seconds,
        "error": error,
    }


def _selected_names(only: Optional[Sequence[str]]) -> List[str]:
    names = list(EXPERIMENTS)
    if only is not None:
        wanted = [token.lower().replace(" ", "") for token in only]

        def matches(title: str) -> bool:
            compact = title.lower().replace(".", "").replace(" ", "")
            return any(token.replace(".", "") in compact for token in wanted)

        names = [name for name in names if matches(EXPERIMENTS[name].title)]
        if not names:
            raise ValueError(f"no sections match {list(only)!r}")
    return names


def run_full_evaluation(
    n_slices: int = 8,
    only: Optional[Sequence[str]] = None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    fleet_stats: Optional[Dict[str, Any]] = None,
) -> List[SectionResult]:
    """Run every (or a filtered subset of) catalogue entry.

    ``only`` keeps the entries whose title contains one of its tokens
    (case, spaces and dots ignored).  ``fleet_stats``, when given a
    dict, receives the run's execution tallies (retries, serial
    fallbacks) for :func:`render_report`'s fleet-execution section.
    """
    names = _selected_names(only)
    outcome = run_grid(
        "full_eval",
        [
            WorkUnit(
                unit_id=f"section/{EXPERIMENTS[name].title}",
                fn=_section_cell,
                kwargs={"name": name, "n_slices": n_slices},
            )
            for name in names
        ],
        seed=0, jobs=jobs,
        checkpoint=checkpoint, resume=resume,
    )
    if fleet_stats is not None:
        fleet_stats.update({
            "retries": outcome.retries,
            "serial_fallbacks": outcome.serial_fallbacks,
            "unit_attempts": outcome.unit_attempts(),
        })
    return [
        SectionResult(
            title=cell["title"], body=cell["body"],
            seconds=cell["seconds"], error=cell["error"],
        )
        for cell in outcome.values()
    ]


def render_report(
    results: Sequence[SectionResult],
    fleet_stats: Optional[Dict[str, Any]] = None,
) -> str:
    """Assemble the markdown report.

    ``fleet_stats`` appends a fleet-execution health section.  It
    deliberately carries only the tallies that are zero on a healthy
    run regardless of ``--jobs`` (worker-death retries and serial
    fallbacks), so the report stays byte-identical across job counts.
    """
    total = sum(r.seconds for r in results)
    lines = [
        "# CuttleSys reproduction — full evaluation report",
        "",
        f"{len(results)} sections, {total:.0f} s total. "
        "See EXPERIMENTS.md for paper-vs-measured commentary.",
        "",
    ]
    for result in results:
        lines.append(f"## {result.title}")
        lines.append("")
        if result.error is not None:
            lines.append(f"**FAILED**: {result.error}")
        else:
            lines.append("```")
            lines.append(result.body)
            lines.append("```")
        lines.append("")
        lines.append(f"_({result.seconds:.1f} s)_")
        lines.append("")
    if fleet_stats is not None:
        lines.append("## Fleet execution")
        lines.append("")
        lines.append(
            f"worker retries (WorkerDied resubmissions): "
            f"{fleet_stats.get('retries', 0)}; "
            f"serial fallbacks: "
            f"{fleet_stats.get('serial_fallbacks', 0)}."
        )
        lines.append("")
        unit_attempts = fleet_stats.get("unit_attempts") or {}
        if unit_attempts:
            # Only rendered when some unit needed more than one
            # attempt, so healthy reports stay byte-identical.
            lines.append("Units needing more than one attempt:")
            lines.append("")
            for unit_id in sorted(unit_attempts):
                lines.append(
                    f"- {unit_id}: {unit_attempts[unit_id]} attempts"
                )
            lines.append("")
    return "\n".join(lines)
