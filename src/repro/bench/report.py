"""BENCH.json schema, counter comparison, and rendering.

One :class:`BenchReport` records, per case, the RNG-safe *operation
counters* of the scheduler's hot paths — objective evaluations per DDS
search, SGD iterations-to-converge, trace-span counts — which are
deterministic given the seeds and therefore comparable across machines.
CI gates on them against a committed baseline
(``benchmarks/BENCH_BASELINE.json``).  Wall time is perfbench's job
(``perfbench/README.md``); reports written with the older ``wall_ms``
and ``repeats`` fields still load, and those fields are ignored.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

#: Bumped whenever the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchCaseResult:
    """One case's operation counters."""

    name: str
    description: str
    #: Deterministic operation counts (RNG-safe, machine-independent).
    counters: Dict[str, int]

    def to_dict(self) -> Dict:
        return {
            "description": self.description,
            "counters": dict(sorted(self.counters.items())),
        }

    @classmethod
    def from_dict(cls, name: str, data: Dict) -> "BenchCaseResult":
        return cls(
            name=name,
            description=str(data.get("description", "")),
            counters={
                str(k): int(v)
                for k, v in data.get("counters", {}).items()
            },
        )


@dataclass(frozen=True)
class BenchReport:
    """A full ``repro bench`` run (the BENCH.json artifact)."""

    seed: int
    cases: Dict[str, BenchCaseResult]
    schema: int = SCHEMA_VERSION

    def to_json_dict(self) -> Dict:
        return {
            "schema": self.schema,
            "seed": self.seed,
            "cases": {
                name: case.to_dict() for name, case in self.cases.items()
            },
        }

    def write(self, path_or_file) -> None:
        if hasattr(path_or_file, "write"):
            json.dump(self.to_json_dict(), path_or_file, indent=2)
            return
        with open(path_or_file, "w") as handle:
            json.dump(self.to_json_dict(), handle, indent=2)
            handle.write("\n")

    @classmethod
    def from_json_dict(cls, data: Dict) -> "BenchReport":
        schema = int(data.get("schema", 0))
        if schema > SCHEMA_VERSION:
            raise ValueError(
                f"BENCH.json schema {schema} is newer than supported "
                f"({SCHEMA_VERSION}); update the toolkit"
            )
        return cls(
            seed=int(data.get("seed", 0)),
            cases={
                name: BenchCaseResult.from_dict(name, case)
                for name, case in data.get("cases", {}).items()
            },
            schema=schema,
        )

    @classmethod
    def read(cls, path_or_file) -> "BenchReport":
        if hasattr(path_or_file, "read"):
            return cls.from_json_dict(json.load(path_or_file))
        with open(path_or_file) as handle:
            return cls.from_json_dict(json.load(handle))


@dataclass(frozen=True)
class Delta:
    """One compared quantity of one case."""

    case: str
    #: An operation-counter key.
    quantity: str
    baseline: float
    current: float
    change_pct: float
    regressed: bool


@dataclass(frozen=True)
class Comparison:
    """Outcome of comparing a current report against a baseline."""

    threshold_pct: float
    deltas: Tuple[Delta, ...]
    #: Baseline cases absent from the current report (a regression:
    #: a silently dropped benchmark hides future slowdowns).
    missing: Tuple[str, ...]

    @property
    def regressions(self) -> Tuple[Delta, ...]:
        return tuple(d for d in self.deltas if d.regressed)

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    threshold_pct: float = 10.0,
) -> Comparison:
    """Compare every baseline counter against the current report.

    A counter regresses when it grows more than ``threshold_pct`` above
    the baseline (a zero baseline counts as one, so any nonzero value
    is a >=100 % increase); a counter or case missing from the current
    report regresses too.
    """
    if threshold_pct < 0:
        raise ValueError("threshold_pct must be non-negative")
    deltas: List[Delta] = []
    missing: List[str] = []
    for name, base in baseline.cases.items():
        cur = current.cases.get(name)
        if cur is None:
            missing.append(name)
            continue
        for key, base_count in sorted(base.counters.items()):
            cur_count = cur.counters.get(key)
            if cur_count is None:
                deltas.append(Delta(
                    case=name, quantity=key, baseline=float(base_count),
                    current=math.nan, change_pct=math.nan, regressed=True,
                ))
                continue
            denom = max(base_count, 1)
            change = (cur_count - base_count) / denom * 100.0
            deltas.append(Delta(
                case=name, quantity=key, baseline=float(base_count),
                current=float(cur_count), change_pct=change,
                regressed=change > threshold_pct,
            ))
    return Comparison(
        threshold_pct=threshold_pct,
        deltas=tuple(deltas),
        missing=tuple(missing),
    )


def render_report(report: BenchReport) -> str:
    """Human-readable bench table."""
    lines = [f"operation-counter bench (seed {report.seed}):"]
    for name, case in report.cases.items():
        lines.append(f"  {name}")
        for key, value in sorted(case.counters.items()):
            lines.append(f"    {key:<32} {value}")
    return "\n".join(lines)


def render_comparison(comparison: Comparison) -> str:
    """Human-readable regression-gate verdict."""
    lines = [
        f"bench comparison (threshold {comparison.threshold_pct:.1f} %):"
    ]
    for delta in comparison.deltas:
        marker = "REGRESSED" if delta.regressed else "ok"
        if math.isnan(delta.current):
            lines.append(
                f"  {delta.case}/{delta.quantity}: missing from current "
                f"run  {marker}"
            )
            continue
        lines.append(
            f"  {delta.case}/{delta.quantity}: {delta.baseline:.2f} -> "
            f"{delta.current:.2f} ({delta.change_pct:+.1f} %)  {marker}"
        )
    for name in comparison.missing:
        lines.append(f"  {name}: case missing from current run  REGRESSED")
    lines.append(
        "verdict: "
        + ("ok" if comparison.ok
           else f"{len(comparison.regressions) + len(comparison.missing)} "
                "regression(s)")
    )
    return "\n".join(lines)
