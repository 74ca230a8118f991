#!/usr/bin/env python
"""Paired perfbench runs of two checkouts, in alternating order.

A speed-up claim compares a parent checkout with a change (see
``perfbench/README.md``).  This script runs ``perfbench/run.py
--trace 0`` once in each checkout per pair, alternating which side runs
first so a drift in host speed does not favour one side, and prints for
every end-to-end metric of ``BENCHMARK.json``: each side's median and
quartiles, the change over the parent, the pairs the change won, and
whether the medians differ by more than the parent's interquartile
range.  It also says whether both sides printed the same digest
(byte-identical decisions) and how many operations failed.

Usage, from any working directory::

    python scripts/perf_pairs.py PARENT_ROOT CHANGE_ROOT \\
        --workload churn --pairs 10 --seed 57 [--seconds 30]

Each root is a checkout with ``perfbench/run.py`` and ``src``; the
metrics and their directions come from the change's ``BENCHMARK.json``.
Exits 1 when a run fails or prints no result, else 0.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

SIDES = ("parent", "change")

_DIGEST = re.compile(r"\bdigest (\w+)")


@dataclass(frozen=True)
class Run:
    """What one ``perfbench/run.py`` process printed."""

    digest: Optional[str]
    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]


def parse_run(stdout: str) -> Run:
    """The digest line and the final JSON line of a run's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    result = json.loads(lines[-1])
    match = next(
        (m for m in map(_DIGEST.search, lines) if m is not None), None
    )
    return Run(
        digest=match.group(1) if match else None,
        correct=bool(result["correct"]),
        attempted=int(result["attempted"]),
        failed=int(result["failed"]),
        metrics={
            name: float(entry["value"])
            for name, entry in result["metrics"].items()
        },
    )


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value is all
    three."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


@dataclass(frozen=True)
class MetricSummary:
    """One end-to-end metric over every pair."""

    name: str
    unit: str
    better: str
    parent: Tuple[float, float, float]
    change: Tuple[float, float, float]
    #: Pairs in which the change was strictly better.
    won: int
    pairs: int

    @property
    def ratio(self) -> float:
        """Change median over parent median."""
        return self.change[1] / self.parent[1] if self.parent[1] else 1.0

    @property
    def beyond_parent_iqr(self) -> bool:
        """Whether the medians differ, in the better direction, by more
        than the parent's interquartile range."""
        gain = self.parent[1] - self.change[1]
        if self.better == "higher":
            gain = -gain
        return gain > self.parent[2] - self.parent[0]


def summarise(
    pairs: Sequence[Tuple[Run, Run]], declared: Sequence[Dict[str, Any]]
) -> List[MetricSummary]:
    """Per declared metric, both sides' quartiles and the pairs won."""
    summaries = []
    for metric in declared:
        name = metric["name"]
        parent = [p.metrics[name] for p, _ in pairs]
        change = [c.metrics[name] for _, c in pairs]
        if metric["better"] == "higher":
            won = sum(c > p for p, c in zip(parent, change))
        else:
            won = sum(c < p for p, c in zip(parent, change))
        summaries.append(MetricSummary(
            name=name, unit=metric["unit"], better=metric["better"],
            parent=quartiles(parent), change=quartiles(change),
            won=won, pairs=len(pairs),
        ))
    return summaries


def report(
    pairs: Sequence[Tuple[Run, Run]], declared: Sequence[Dict[str, Any]]
) -> str:
    """The printed table, digest and failure lines."""
    def spread(q: Tuple[float, float, float]) -> str:
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    lines = [
        f"{'metric':<18} {'parent median [q1, q3]':>30} "
        f"{'change median [q1, q3]':>30} {'ratio':>6} {'won':>6}  "
        f"beyond parent IQR"
    ]
    for s in summarise(pairs, declared):
        lines.append(
            f"{s.name:<18} {spread(s.parent):>30} {spread(s.change):>30} "
            f"{s.ratio:>6.3f} {s.won:>3}/{s.pairs:<2}  "
            f"{'yes' if s.beyond_parent_iqr else 'no'}"
        )
    digests = {run.digest for pair in pairs for run in pair}
    if len(digests) == 1 and None not in digests:
        lines.append(f"digest: same on both sides ({digests.pop()})")
    else:
        lines.append(
            "digest: DIFFERS: parent "
            + ", ".join(sorted({str(p.digest) for p, _ in pairs}))
            + "; change "
            + ", ".join(sorted({str(c.digest) for _, c in pairs}))
        )
    for index, side in enumerate(SIDES):
        runs = [pair[index] for pair in pairs]
        lines.append(
            f"{side}: {sum(r.failed for r in runs)} failed of "
            f"{sum(r.attempted for r in runs)} operations, "
            f"{sum(not r.correct for r in runs)} incorrect runs"
        )
    return "\n".join(lines)


def run_side(root: Path, workload: str, seed: int, seconds: float) -> Run:
    """One untraced perfbench run in ``root``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    try:
        return parse_run(proc.stdout)
    except (ValueError, KeyError) as exc:
        raise RuntimeError(
            f"{root}: perfbench exited {proc.returncode} without a result "
            f"({exc}): {proc.stderr.strip()[-400:]}"
        ) from exc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="parent checkout root")
    parser.add_argument("change", type=Path, help="changed checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds per run (default: BENCHMARK.json's "
                        "run_seconds)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(args.change / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    seconds = args.seconds or float(benchmark["run_seconds"])
    roots = {"parent": args.parent, "change": args.change}

    pairs: List[Tuple[Run, Run]] = []
    for index in range(args.pairs):
        order = SIDES if index % 2 == 0 else SIDES[::-1]
        runs: Dict[str, Run] = {}
        for side in order:
            try:
                runs[side] = run_side(
                    roots[side], args.workload, args.seed, seconds
                )
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        pairs.append((runs["parent"], runs["change"]))
        p50 = [runs[side].metrics.get("quantum_ms_p50") for side in SIDES]
        print(f"pair {index + 1}/{args.pairs} ({' first, '.join(order)} "
              f"second): quantum_ms_p50 {p50[0]} -> {p50[1]}", flush=True)

    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs "
          f"of {seconds:g} s runs, alternating order")
    print(report(pairs, benchmark["end_to_end"]))
    incorrect = any(not run.correct for pair in pairs for run in pair)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
