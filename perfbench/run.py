"""The repo benchmark: decision-quantum and daemon-tick latency.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload steady|churn|server \
        --seed N --seconds S --trace 0|1

Each workload runs in fresh processes (``child.py``) with numpy/BLAS
threads pinned to 1; this process only generates the seeded inputs,
starts the children one after another, checks their answers and prints
the metrics.  ``BENCHMARK.json`` at the checkout root lists the
workloads, the metrics and which layer each workload stresses.

``--trace 0``: one process that runs the workload for ``--seconds``,
between set-up-only processes (set-up time is the median over all
``SETUP_SAMPLES``).  Prints the end-to-end metrics.

Every time is reported at a fixed host speed: each process times the
fixed ``calibrate.reference_work`` after set-up and after every quantum,
and each timing is scaled by the reference samples taken around it (see
``calibrate.py``).  The raw median times are printed beside them.

``--trace 1``: one untraced and one traced process, ``--seconds / 2``
each.  Their digests must match; prints the per-layer metrics,
normalised per timed quantum, and the tracing overhead.

The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A correctness failure
(missed quantum, non-finite accounting value, diverging digest, error
response, degraded quantum) prints ``correct: false`` and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_MS, scale_each, speed_factor  # noqa: E402
from inputs import WORKLOADS, make_inputs  # noqa: E402
from measure import min_samples_for, percentile, tail_percentile  # noqa: E402

#: Set-up time is the median over this many fresh processes.
SETUP_SAMPLES = 7
#: The tail percentile reported; the untraced run takes enough quanta
#: to keep at least ten samples beyond it.
TAIL = 90.0
#: A child that has not answered by then is killed.
CHILD_TIMEOUT_S = 150.0

#: Layers timed by ``layers.install`` (per-quantum calls, total, self).
SPAN_LAYERS = (
    "harness.step", "controller.decide", "controller.sanitize",
    "controller.ingest_measurement", "sgd.reconstruct", "dds.search",
    "objective.evaluate_batch", "mgk.latency_rows", "machine.profile",
    "machine.run_slice", "server.tick", "server.snapshot",
    "server.admission", "server.protocol",
)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, inputs_path: Path, workdir: Path,
              *flags: str) -> Dict[str, Any]:
    """Start one child, wait for it, return its JSON answer."""
    workdir.mkdir(parents=True, exist_ok=True)
    argv = [sys.executable, str(HERE / "child.py"),
            "--workload", workload, "--inputs", str(inputs_path),
            "--workdir", str(workdir), *flags]
    # Stamped last, just before the process starts: set-up time counts
    # interpreter start-up too.
    argv += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(argv, env=child_env(), cwd=str(ROOT),
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(
            f"{workload} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def scaled_setup_s(answer: Dict[str, Any]) -> float:
    return answer["setup_s"] * speed_factor(answer["setup_reference_ms"])


def setup_time(workload: str, inputs_path: Path, workdir: Path) -> float:
    return scaled_setup_s(
        run_child(workload, inputs_path, workdir, "--setup-only"))


def quanta_per_s(answer: Dict[str, Any]) -> float:
    """Quanta over the scaled wall time of the loop iterations."""
    loop_ms = scale_each(answer["loop_ms"], answer["reference_ms"])
    return len(loop_ms) * 1e3 / sum(loop_ms)


def end_to_end(workload: str, inputs_path: Path, workdir: Path,
               seconds: float) -> Tuple[Dict[str, Any], Dict[str, float]]:
    # Set-up-only processes run on both sides of the workload process,
    # so the median spans the run's whole stretch of host time.
    setups = [setup_time(workload, inputs_path, workdir / f"setup{i}")
              for i in range(SETUP_SAMPLES // 2)]
    main = run_child(workload, inputs_path, workdir / "main",
                     "--seconds", str(seconds),
                     "--min-quanta", str(min_samples_for(TAIL)))
    setups.append(scaled_setup_s(main))
    setups += [setup_time(workload, inputs_path, workdir / f"setup{i}")
               for i in range(len(setups), SETUP_SAMPLES)]
    samples = scale_each(main["quantum_ms"], main["reference_ms"])
    if tail_percentile(len(samples)) < TAIL:
        main["problems"].append(
            f"{len(samples)} quanta leave fewer than ten beyond p{TAIL:g}")
    metrics = {
        "setup_s": statistics.median(setups),
        "quantum_ms_p50": percentile(samples, 50.0),
        "quantum_ms_p90": percentile(samples, TAIL),
        "quanta_per_s": quanta_per_s(main),
        "batch_gmean_bips": main["gmean_bips"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return main, metrics


def per_layer(workload: str, inputs_path: Path, workdir: Path,
              seconds: float) -> Tuple[Dict[str, Any], Dict[str, float]]:
    plain = run_child(workload, inputs_path, workdir / "plain",
                      "--seconds", str(seconds / 2))
    traced = run_child(workload, inputs_path, workdir / "traced",
                       "--seconds", str(seconds / 2), "--trace")
    if plain["digest"] != traced["digest"]:
        traced["problems"].append(
            "traced and untraced runs decided differently")
    traced["problems"].extend(plain["problems"])
    traced["failed"] += plain["failed"]
    traced["attempted"] += plain["attempted"]

    quanta = len(traced["quantum_ms"])
    # One factor for the whole traced process: span totals are sums.
    speed = speed_factor(traced["reference_ms"])
    spans = {name: (calls, total_ms * speed, self_ms * speed)
             for name, (calls, total_ms, self_ms) in traced["spans"].items()}
    counters = traced["counters"]
    metrics: Dict[str, float] = {}
    for name in SPAN_LAYERS:
        calls, total_ms, self_ms = spans.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = calls / quanta
        metrics[f"{name}.total_ms"] = total_ms / quanta
        metrics[f"{name}.self_ms"] = self_ms / quanta

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    budget_ops = counters.get("controller.budget_ops", 0)
    sgd_iterations = counters.get("sgd.iterations", 0)
    evaluations = counters.get("dds.evaluations", 0)
    builds = counters.get("mgk.builds", 0)
    us_per_op = (
        (total("sgd.reconstruct") + total("dds.search")) * 1e3 / budget_ops
        if budget_ops else 0.0)
    plain_qps = quanta_per_s(plain)
    traced_qps = quanta_per_s(traced)
    metrics.update({
        "controller.budget_ops": budget_ops / quanta,
        "sgd.iterations": sgd_iterations / quanta,
        "dds.evaluations": evaluations / quanta,
        "dds.us_per_eval": (
            total("dds.search") * 1e3 / evaluations if evaluations else 0.0),
        "sgd.us_per_iteration": (
            total("sgd.reconstruct") * 1e3 / sgd_iterations
            if sgd_iterations else 0.0),
        "controller.us_per_budget_op": us_per_op,
        "controller.budget_ops_per_100ms": (
            100e3 / us_per_op if us_per_op else 0.0),
        "mgk.builds": builds / quanta,
        "mgk.duplicate_build_ratio": (
            counters.get("mgk.duplicate_builds", 0) / builds
            if builds else 0.0),
        "server.snapshot_bytes_first": traced.get("snapshot_bytes_first", 0),
        "server.snapshot_bytes_last": traced.get("snapshot_bytes_last", 0),
        "server.admitted": traced.get("admitted", 0),
        "server.rejected": traced.get("rejected", 0),
        "quality.qos_violation_frac": traced["qos_violation_frac"],
        "quality.power_violation_frac": traced["power_violation_frac"],
        "quality.failed_frac": traced["failed"] / max(1, traced["attempted"]),
        "trace.quanta": quanta,
        "trace.untraced_quanta_per_s": plain_qps,
        "trace.traced_quanta_per_s": traced_qps,
        "trace.overhead_ratio": plain_qps / traced_qps,
        "trace.self_sum_gap_ms": traced["self_sum_gap_ms"],
        "host.reference_ms": statistics.median(traced["reference_ms"]),
    })
    # Self times must tile the root spans exactly (no double counting).
    if traced["self_sum_gap_ms"] > 1e-6 * max(1.0, sum(
            spans[name][1] for name in spans)):
        traced["problems"].append("layer self times do not add up")
    return traced, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=str(ROOT)))
    try:
        inputs_path = scratch / "inputs.json"
        inputs_path.write_text(
            json.dumps(make_inputs(args.workload, args.seed)),
            encoding="utf-8")
        measure = per_layer if args.trace else end_to_end
        result, metrics = measure(
            args.workload, inputs_path, scratch, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(metrics):
        raise RuntimeError(
            "BENCHMARK.json and the measured metrics disagree: "
            f"{sorted(set(units) ^ set(metrics))}")
    problems = result["problems"]
    if result["failed"]:
        problems.append(f"{result['failed']} failed operation(s)")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: "
          f"{len(result['quantum_ms'])} timed quanta, "
          f"digest {result['digest']}")
    print(f"host: raw quantum_ms_p50 "
          f"{percentile(result['quantum_ms'], 50.0):.4f}, reference_ms "
          f"{statistics.median(result['reference_ms']):.4f} (nominal "
          f"{REFERENCE_MS:g})")
    print(f"quality: batch_gmean_bips {result['gmean_bips']:.4f}, "
          f"qos_violation_frac {result['qos_violation_frac']:.4f}, "
          f"power_violation_frac {result['power_violation_frac']:.4f}, "
          f"failed_frac {result['failed'] / max(1, result['attempted']):.4f}")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>14.4f} {units[name]}")
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
