"""Experiment modules: one per table/figure of the paper's evaluation.

Each module exposes a ``run_*`` function returning a plain dataclass of
results plus a ``render`` helper that prints the same rows/series the
paper reports.  :data:`repro.experiments.full_eval.EXPERIMENTS` is the
catalogue of runnable tables/figures (``python -m repro experiment
NAME`` and ``report``), and :data:`repro.experiments.policies.POLICIES`
the catalogue of named scheduling schemes.
"""

from repro.experiments.harness import (
    PolicyRun,
    build_machine_for_mix,
    run_policy,
)

__all__ = ["PolicyRun", "build_machine_for_mix", "run_policy"]
