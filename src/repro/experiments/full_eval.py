"""One-shot full evaluation: regenerate every result into one report.

``run_full_evaluation`` executes each experiment at a configurable
scale and assembles a single markdown report mirroring the paper's
evaluation section plus this repo's extension studies.  Used by the
``python -m repro report`` CLI command.

Fleet sharding: sections are mutually independent experiments, so
``--jobs N`` shards at the section level.  Section producers are
closures (not picklable), so the fleet unit is the top-level
:func:`_section_cell`, which re-derives the producer from its title
inside the worker.  Section wall-clock times are measured wherever the
section ran; like the scalability study's ``decision_ms``, they sit
outside the determinism contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.fleet import WorkUnit, run_grid
from repro.logs import get_logger
from repro.telemetry.tracer import Tracer

log = get_logger("experiments.full_eval")

#: Section wall-clock times come from one module-level tracer, so a
#: report run can also be exported as a trace if ever needed.
_tracer = Tracer()


@dataclass(frozen=True)
class SectionResult:
    """One experiment's rendered output and runtime."""

    title: str
    body: str
    seconds: float
    error: Optional[str] = None


def _section(title: str, producer: Callable[[], str]) -> SectionResult:
    with _tracer.span("section", category="report", title=title) as span:
        try:
            body = producer()
            error = None
        except Exception as exc:  # pragma: no cover - defensive reporting
            body = ""
            error = f"{type(exc).__name__}: {exc}"
            log.warning("section %r failed: %s", title, error)
    log.info("section %r took %.1f s", title, span.duration_s)
    return SectionResult(
        title=title,
        body=body,
        seconds=span.duration_s,
        error=error,
    )


def default_sections(n_slices: int = 8) -> List[Tuple[str, Callable[[], str]]]:
    """The (title, producer) list the full evaluation runs, in order."""

    def fig1() -> str:
        from repro.experiments.fig1_characterization import (
            render_fig1, run_fig1,
        )
        return render_fig1(run_fig1())

    def table2() -> str:
        from repro.experiments.table2_overheads import (
            render_table2, run_table2, run_training_set_sensitivity,
        )
        return render_table2(run_table2(), run_training_set_sensitivity())

    def fig5() -> str:
        from repro.experiments.fig5_accuracy import (
            render_fig5, run_fig5a, run_fig5b,
        )
        return render_fig5(run_fig5a(), run_fig5b())

    def fig5c() -> str:
        from repro.experiments.fig5c_powercaps import (
            render_fig5c, run_fig5c,
        )
        return render_fig5c(run_fig5c(n_slices=n_slices))

    def fig7() -> str:
        from repro.experiments.fig7_timeline import render_fig7, run_fig7
        return render_fig7(run_fig7(n_slices=n_slices))

    def fig8() -> str:
        from repro.experiments.fig8_dynamic import (
            render_fig8, run_fig8a, run_fig8b, run_fig8c,
        )
        return "\n\n".join(
            render_fig8(trace)
            for trace in (run_fig8a(), run_fig8b(), run_fig8c())
        )

    def fig9() -> str:
        from repro.experiments.fig9_sgd_vs_rbf import render_fig9, run_fig9
        return render_fig9(run_fig9())

    def fig10() -> str:
        from repro.experiments.fig10_dds_vs_ga import (
            render_fig10, run_fig10a, run_fig10b,
        )
        return render_fig10(
            run_fig10a(), run_fig10b(n_slices=n_slices)
        )

    def flicker() -> str:
        from repro.experiments.flicker_comparison import (
            render_flicker, run_flicker_qos, run_flicker_throughput,
        )
        return render_flicker(
            run_flicker_qos(), run_flicker_throughput(n_slices=n_slices)
        )

    def ablations() -> str:
        from repro.experiments.ablations import (
            ablate_guards, ablate_inference, ablate_variants,
            render_ablation,
        )
        parts = [
            render_ablation("SGD vs oracle inference",
                            ablate_inference(n_slices=n_slices)),
            render_ablation("QoS guardbands",
                            ablate_guards(n_slices=n_slices)),
            render_ablation("latency training variants",
                            ablate_variants(n_slices=n_slices)),
        ]
        return "\n\n".join(parts)

    def dvfs() -> str:
        from repro.experiments.dvfs_comparison import (
            render_dvfs_comparison, run_dvfs_comparison,
        )
        return (
            "leakage x1.0:\n"
            + render_dvfs_comparison(run_dvfs_comparison())
            + "\n\nleakage x2.5:\n"
            + render_dvfs_comparison(run_dvfs_comparison(leakage_scale=2.5))
        )

    def bandwidth() -> str:
        from repro.experiments.bandwidth_study import (
            render_bandwidth_study, run_bandwidth_study,
        )
        return render_bandwidth_study(run_bandwidth_study(n_slices=n_slices))

    def churn() -> str:
        from repro.experiments.churn_study import (
            render_churn_study, run_churn_study,
        )
        return render_churn_study(run_churn_study(n_slices=n_slices * 2))

    def cluster() -> str:
        from repro.experiments.cluster_study import (
            render_cluster_study, run_cluster_study,
        )
        return render_cluster_study(run_cluster_study(n_slices=n_slices * 2))

    def area() -> str:
        from repro.experiments.area_equivalence import (
            render_area_equivalence, run_area_equivalence,
        )
        return render_area_equivalence(run_area_equivalence(n_slices=n_slices))

    def multi_service() -> str:
        from repro.experiments.multi_service import (
            render_multi_service, run_multi_service,
        )
        return render_multi_service(run_multi_service(n_slices=n_slices * 2))

    def scalability() -> str:
        from repro.experiments.scalability import (
            render_scalability, run_scalability,
        )
        return render_scalability(run_scalability(n_slices=n_slices))

    def faults() -> str:
        from repro.experiments.fault_study import (
            render_fault_study, run_fault_study,
        )
        return render_fault_study(run_fault_study(n_slices=n_slices + 4))

    return [
        ("Fig. 1 — LC service characterisation", fig1),
        ("Table II — scheduling overheads", table2),
        ("Fig. 5(a)(b) — SGD reconstruction accuracy", fig5),
        ("Fig. 5(c) — relative work vs power cap", fig5c),
        ("Fig. 7 — per-timeslice instructions", fig7),
        ("Fig. 8 — dynamic behaviour", fig8),
        ("Fig. 9 — SGD vs RBF", fig9),
        ("Fig. 10 — DDS vs GA", fig10),
        ("§VIII-E — Flicker comparison", flicker),
        ("Extension — ablations", ablations),
        ("Extension — DVFS comparison", dvfs),
        ("Extension — bandwidth contention", bandwidth),
        ("Extension — job churn", churn),
        ("Extension — rack-level power brokering", cluster),
        ("Extension — equal-area comparison", area),
        ("Extension — multi-service colocation", multi_service),
        ("Extension — scalability", scalability),
        ("Extension — fault injection & graceful degradation", faults),
    ]


def _section_cell(title: str, n_slices: int) -> Dict[str, Any]:
    """One report section as a JSONable fleet unit.

    Re-derives the producer from ``title`` so the unit stays picklable
    (the section closures themselves are not).
    """
    for candidate, producer in default_sections(n_slices=n_slices):
        if candidate == title:
            result = _section(title, producer)
            return {
                "title": result.title,
                "body": result.body,
                "seconds": result.seconds,
                "error": result.error,
            }
    raise ValueError(f"no section titled {title!r}")


def _selected_sections(
    n_slices: int, only: Optional[Sequence[str]]
) -> List[Tuple[str, Callable[[], str]]]:
    sections = default_sections(n_slices=n_slices)
    if only is not None:
        wanted = [token.lower().replace(" ", "") for token in only]

        def matches(title: str) -> bool:
            compact = title.lower().replace(".", "").replace(" ", "")
            return any(token.replace(".", "") in compact for token in wanted)

        sections = [
            (title, fn) for title, fn in sections if matches(title)
        ]
        if not sections:
            raise ValueError(f"no sections match {list(only)!r}")
    return sections


def run_full_evaluation(
    n_slices: int = 8,
    only: Optional[Sequence[str]] = None,
    jobs: int = 1,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    telemetry: Any = None,
    fleet_stats: Optional[Dict[str, Any]] = None,
) -> List[SectionResult]:
    """Run every (or a filtered subset of) experiment section.

    ``fleet_stats``, when given a dict, receives the run's execution
    tallies (retries, serial fallbacks) for :func:`render_report`'s
    fleet-execution section.
    """
    sections = _selected_sections(n_slices, only)
    outcome = run_grid(
        "full_eval",
        lambda _collect: [
            WorkUnit(
                unit_id=f"section/{title}",
                fn=_section_cell,
                kwargs={"title": title, "n_slices": n_slices},
            )
            for title, _ in sections
        ],
        seed=0, context={"n_slices": n_slices}, jobs=jobs,
        checkpoint=checkpoint, resume=resume, telemetry=telemetry,
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
