"""Deterministic operation-counter gate (``repro bench``).

Runs the scheduler's hot paths — PQ/SGD reconstruction, DDS search,
the full decision quantum, the deadline meter, the live event bus, the
profiler and the fleet pool — once each with fixed seeds, recording
RNG-safe operation counters.  Results serialise to BENCH.json;
``repro bench --compare BASELINE.json`` is the regression gate CI runs
against the committed ``benchmarks/BENCH_BASELINE.json``.  Wall time
belongs to perfbench (``perfbench/README.md``).

See ``docs/observability.md`` for the workflow.
"""

from repro.bench.cases import (
    BENCH_CASES,
    BenchCase,
    case_names,
    run_bench,
)
from repro.bench.report import (
    SCHEMA_VERSION,
    BenchCaseResult,
    BenchReport,
    Comparison,
    Delta,
    compare_reports,
    render_comparison,
    render_report,
)

__all__ = [
    "BENCH_CASES",
    "BenchCase",
    "BenchCaseResult",
    "BenchReport",
    "Comparison",
    "Delta",
    "SCHEMA_VERSION",
    "case_names",
    "compare_reports",
    "render_comparison",
    "render_report",
    "run_bench",
]
