"""One workload in one fresh process; ``run.py`` starts it.

Usage (from the checkout root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py --workload steady --inputs in.json \
        --workdir DIR --t0 MONOTONIC [--setup-only] [--trace] \
        [--seconds S] [--min-quanta N]

``--t0`` is the parent's ``time.monotonic()`` taken just before it
started this process (the clock is system-wide on Linux), so set-up time
covers interpreter start and ``import repro`` as well as building the
machines, controllers and daemon.  Set-up ends when the first timed
quantum is about to run, except that ``steady``'s warm-up quanta are
quanta, not set-up: they are neither timed nor part of set-up time.

After set-up, and after every timed quantum, the process times one call
of ``calibrate.reference_work``; ``run.py`` scales the timings by them
to a fixed host speed.

A quantum is one ``QuantumStepper.step`` (``steady``, ``churn``) or one
``tick`` request through ``parse_request`` -> ``CommandExecutor.execute``
-> ``encode_line`` (``server``).  The loop runs until ``--seconds`` have
passed *and* the workload's minimum work is done; only whole sessions
run, because the correctness digest covers whole sessions.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from calibrate import Gauge
from layers import LayerTracer, install
from measure import all_finite, canonical, digest

#: Seed of the simulated machine and the controller: part of the
#: program's configuration, not of its input, so it never varies.
PROGRAM_SEED = 7
#: ``steady``: untimed warm-up quanta (regime builds, first searches)
#: and the quanta, warm-up included, that the digest covers.
STEADY_WARMUP = 10
STEADY_DIGEST_QUANTA = 60
#: Ceiling on ``steady``'s quanta; far beyond any run's length.
STEADY_MAX_QUANTA = 100000
#: Reference samples taken right after set-up, to scale set-up time.
SETUP_REFERENCE_SAMPLES = 7


class Outcome:
    """What one process measured and checked."""

    def __init__(self) -> None:
        self.quantum_ms: List[float] = []
        #: Wall time of the loop iteration around each quantum: the
        #: quantum itself, and for ``server`` the round's other requests
        #: and the client's side of them.
        self.loop_ms: List[float] = []
        #: One reference sample right after each quantum.
        self.gauge = Gauge()
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest = ""
        self.gmean_bips: List[float] = []
        self.qos_violations = 0
        self.power_violations = 0
        self.quanta_checked = 0
        #: Size of every server snapshot written (traced runs only).
        self.snapshot_bytes: List[int] = []
        self.extra: Dict[str, Any] = {}

    def record(self, quantum_ms: float,
               loop_ms: Optional[float] = None) -> None:
        """One timed quantum, followed by one reference sample."""
        self.quantum_ms.append(quantum_ms)
        self.loop_ms.append(quantum_ms if loop_ms is None else loop_ms)
        self.gauge.sample()

    def check_run(self, run: Any, first: int, label: str) -> List[bytes]:
        """Canonical records of every quantum of ``run``; quanta from
        ``first`` on also feed the quality metrics."""
        from repro.experiments.harness import PolicyRun
        from repro.sim.machine import measurement_state

        records = []
        for i, measurement in enumerate(run.measurements):
            record = {
                "quantum": i,
                "load": run.loads[i],
                "budget_w": run.budgets[i],
                "measurement": measurement_state(measurement),
            }
            if not all_finite(record):
                self.problems.append(f"{label}: quantum {i} has a "
                                     "non-finite accounting value")
            records.append(canonical(record))
        timed = PolicyRun(
            run.policy_name, run.power_budget_w, qos_s=run.qos_s,
            qos_extra_s=run.qos_extra_s,
            measurements=run.measurements[first:],
            loads=run.loads[first:], budgets=run.budgets[first:],
        )
        self.gmean_bips.extend(
            float(v) for v in timed.gmean_throughput_series())
        self.qos_violations += timed.qos_violations()
        self.power_violations += timed.power_violations()
        self.quanta_checked += timed.n_slices
        self.failed += run.degraded_quanta
        return records

    def as_dict(self) -> Dict[str, Any]:
        checked = max(1, self.quanta_checked)
        if self.gauge.mismatches:
            self.problems.append(
                f"{self.gauge.mismatches} reference call(s) returned "
                "another checksum")
        return {
            "quantum_ms": self.quantum_ms,
            "loop_ms": self.loop_ms,
            "reference_ms": self.gauge.samples_ms,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "digest": self.digest,
            "gmean_bips": sum(self.gmean_bips) / max(1, len(self.gmean_bips)),
            "qos_violation_frac": self.qos_violations / checked,
            "power_violation_frac": self.power_violations / checked,
            **self.extra,
        }


class Steady:
    """One long-lived controller on mix 0 at a constant load."""

    def __init__(self, spec: Dict[str, Any], workdir: Path) -> None:
        self.spec = spec

    def setup(self) -> None:
        from repro.core.runtime import CuttleSysPolicy
        from repro.experiments.harness import (
            QuantumStepper,
            build_machine_for_mix,
        )
        from repro.workloads.loadgen import LoadTrace
        from repro.workloads.mixes import paper_mixes

        machine = build_machine_for_mix(
            paper_mixes()[self.spec["mix"]], seed=PROGRAM_SEED)
        policy = CuttleSysPolicy.for_machine(machine, seed=PROGRAM_SEED)
        self.stepper = QuantumStepper(
            machine, policy, LoadTrace.constant(self.spec["load"]),
            n_slices=STEADY_MAX_QUANTA,
        )

    def run(self, out: Outcome, seconds: float, min_quanta: int,
            tracer: Optional[LayerTracer]) -> None:
        stepper = self.stepper
        for _ in range(STEADY_WARMUP):
            stepper.step()
        if tracer is not None:
            tracer.reset()
        samples = out.quantum_ms
        clock = time.perf_counter
        start = clock()
        while (clock() - start < seconds or len(samples) < min_quanta
               or stepper.next_slice < STEADY_DIGEST_QUANTA):
            t = clock()
            stepper.step()
            out.record((clock() - t) * 1e3)
        out.attempted = len(samples)
        records = out.check_run(stepper.run, STEADY_WARMUP, "steady")
        out.digest = digest(records[:STEADY_DIGEST_QUANTA])


class Churn:
    """A fresh controller per LC service, stepped load, job churn.

    Sessions cycle through the five generated session specs; every
    cycle replays the same inputs, so each session's digest must equal
    the same session's digest in the first cycle.
    """

    def __init__(self, spec: Dict[str, Any], workdir: Path) -> None:
        self.sessions = spec["sessions"]
        self.first: Any = None

    def build(self, index: int) -> Any:
        from repro.core.runtime import CuttleSysPolicy
        from repro.experiments.harness import (
            QuantumStepper,
            build_machine_for_mix,
        )
        from repro.workloads.batch import batch_profile, train_test_split
        from repro.workloads.loadgen import LoadTrace
        from repro.workloads.mixes import paper_mixes

        spec = self.sessions[index % len(self.sessions)]
        machine = build_machine_for_mix(
            paper_mixes()[spec["mix"]], seed=PROGRAM_SEED)
        policy = CuttleSysPolicy.for_machine(machine, seed=PROGRAM_SEED)
        dt = machine.params.timeslice_s
        loads = spec["loads"]
        # Each level starts half a slice before its quantum, so float
        # drift in the machine clock never shifts a step by a quantum.
        levels = [(0.0, loads[0])] + [
            ((q - 0.5) * dt, loads[q])
            for q in range(1, len(loads)) if loads[q] != loads[q - 1]
        ]
        _, test_apps = train_test_split()
        return QuantumStepper(
            machine, policy, LoadTrace.steps(levels),
            n_slices=len(loads),
            churn_period=spec["churn_period"],
            churn_pool=[batch_profile(name) for name in test_apps],
            churn_seed=spec["churn_seed"],
        )

    def setup(self) -> None:
        self.first = self.build(0)

    def run(self, out: Outcome, seconds: float, min_quanta: int,
            tracer: Optional[LayerTracer]) -> None:
        if tracer is not None:
            tracer.reset()
        n_specs = len(self.sessions)
        session_digests: List[str] = []
        first_cycle: List[bytes] = []
        samples = out.quantum_ms
        clock = time.perf_counter
        start = clock()
        index = 0
        while (clock() - start < seconds or len(samples) < min_quanta
               or index < n_specs):
            stepper = self.first if index == 0 else self.build(index)
            while not stepper.done:
                t = clock()
                stepper.step()
                out.record((clock() - t) * 1e3)
            records = out.check_run(stepper.run, 0, f"churn session {index}")
            session_digests.append(digest(records))
            if index < n_specs:
                first_cycle.extend(records)
            elif session_digests[index] != session_digests[index % n_specs]:
                out.problems.append(
                    f"churn session {index} replayed session "
                    f"{index % n_specs}'s inputs but decided differently")
            index += 1
        self.first = None
        out.attempted = len(samples)
        out.digest = digest(first_cycle)


class ScriptClient:
    """Replays the generated job script against one daemon session.

    Requests take the path a socket's bytes take: client-side encoding,
    ``parse_request``, ``CommandExecutor.execute``, ``encode_line``.  The
    client tracks job states from the responses so it can resolve
    ``cancel``/``set_rps`` picks to job ids.
    """

    def __init__(self, executor: Any, tracer: Optional[LayerTracer]) -> None:
        from repro.server.protocol import encode_line, parse_request

        self.execute = executor.execute
        self.parse = parse_request
        self.encode = encode_line
        if tracer is not None:
            self.parse = tracer.wrap("server.protocol", parse_request)
            self.encode = tracer.wrap("server.protocol", encode_line)
        self.jobs: Dict[str, Dict[str, str]] = {}
        self.lines: List[bytes] = []
        self.attempted = 0
        self.errors = 0

    def send(self, request: Dict[str, Any]) -> tuple:
        """Returns (response, seconds spent in the server path)."""
        self.attempted += 1
        line = json.dumps(dict(request, id=self.attempted), sort_keys=True)
        clock = time.perf_counter
        t = clock()
        reply = self.encode(self.execute(self.parse(line)))
        elapsed = clock() - t
        self.lines.append(reply)
        response = json.loads(reply)
        if not response["ok"]:
            self.errors += 1
        self.observe(response)
        return response, elapsed

    def _live(self, kind: str, tenant: Optional[str]) -> List[str]:
        return sorted(
            job_id for job_id, job in self.jobs.items()
            if job["kind"] == kind and job["state"] in ("queued", "running")
            and (tenant is None or job["tenant"] == tenant)
        )

    def resolve(self, action: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        """The request an action stands for, or None when it names no
        live job (the skip is as deterministic as the send)."""
        op = action["op"]
        if op == "submit":
            return action
        if op == "cancel":
            live = self._live(action["kind"], action.get("tenant"))
            if not live:
                return None
            return {"op": "cancel",
                    "job_id": live[action["pick"] % len(live)]}
        live = self._live("lc", None)
        if not live:
            return None
        return {"op": "set_rps", "job_id": live[0], "rps": action["rps"]}

    def observe(self, response: Dict[str, Any]) -> None:
        job = response.get("job")
        if job is not None:
            self.jobs[job["job_id"]] = {
                "kind": job["kind"], "tenant": job["tenant"],
                "state": job["state"],
            }
        for decision in response.get("decisions", ()):
            for job_id in decision["admitted"]:
                self.jobs[job_id]["state"] = "running"
            for job_id in decision["timed_out"]:
                self.jobs[job_id]["state"] = "rejected"


class Server:
    """An in-process daemon driven by the generated multi-tenant script.

    Every session boots a fresh daemon with its state and decision
    files in its own directory, snapshots after every tick, and replays
    the same script; each session's digest must equal the first's.
    """

    def __init__(self, spec: Dict[str, Any], workdir: Path) -> None:
        self.spec = spec
        self.workdir = workdir
        self.first: Any = None

    def boot(self, index: int) -> Any:
        from repro.server.driver import QuantumDriver, ServerConfig
        from repro.server.session import CommandExecutor

        directory = self.workdir / f"session{index}"
        config = ServerConfig(
            mix=self.spec["mix"], seed=PROGRAM_SEED, whatif_jobs=1,
            state_path=str(directory / "state.json"),
            decisions_path=str(directory / "decisions.jsonl"),
            snapshot_every=1,
        )
        driver = QuantumDriver(config)
        return driver, CommandExecutor(driver), directory

    def setup(self) -> None:
        self.first = self.boot(0)

    def run(self, out: Outcome, seconds: float, min_quanta: int,
            tracer: Optional[LayerTracer]) -> None:
        if tracer is not None:
            tracer.reset()
        rounds = self.spec["rounds"]
        samples = out.quantum_ms
        clock = time.perf_counter
        start = clock()
        index = 0
        while (clock() - start < seconds or len(samples) < min_quanta
               or index < 1):
            driver, executor, directory = (
                self.first if index == 0 else self.boot(index))
            client = ScriptClient(executor, tracer)
            sizes_before = len(out.snapshot_bytes)
            for r, actions in enumerate(rounds):
                t_round = clock()
                for action in actions:
                    request = client.resolve(action)
                    if request is not None:
                        client.send(request)
                response, elapsed = client.send({"op": "tick"})
                out.record(elapsed * 1e3, (clock() - t_round) * 1e3)
                quanta = [d["quantum"] for d in response.get("decisions", [])]
                if quanta != [r]:
                    out.problems.append(
                        f"server session {index}: tick {r} returned "
                        f"quanta {quanta}")
            records = out.check_run(
                driver.stepper.run, 0, f"server session {index}")
            out.attempted += client.attempted
            out.failed += client.errors
            session_digest = digest(client.lines + records)
            if index == 0:
                out.digest = session_digest
                out.extra["admitted"] = driver.admission.admitted
                out.extra["rejected"] = driver.admission.rejected
            elif session_digest != out.digest:
                out.problems.append(
                    f"server session {index} replayed the script but "
                    "answered differently")
            sizes = out.snapshot_bytes[sizes_before:]
            if sizes:
                out.extra["snapshot_bytes_first"] = sizes[0]
                out.extra["snapshot_bytes_last"] = sizes[-1]
            shutil.rmtree(directory, ignore_errors=True)
            index += 1
        self.first = None


WORKLOADS = {"steady": Steady, "churn": Churn, "server": Server}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-quanta", type=int, default=0)
    args = parser.parse_args(argv)

    with open(args.inputs, encoding="utf-8") as handle:
        spec = json.load(handle)

    out = Outcome()
    tracer: Optional[LayerTracer] = None
    if args.trace:
        tracer = LayerTracer()
        install(tracer, out.snapshot_bytes)
    workload = WORKLOADS[args.workload](spec, Path(args.workdir))
    workload.setup()
    result: Dict[str, Any] = {"setup_s": time.monotonic() - args.t0}
    gauge = Gauge()
    for _ in range(SETUP_REFERENCE_SAMPLES):
        gauge.sample()
    if gauge.mismatches:
        raise RuntimeError("reference calls returned different checksums")
    result["setup_reference_ms"] = gauge.samples_ms
    if not args.setup_only:
        workload.run(out, args.seconds, args.min_quanta, tracer)
        result.update(out.as_dict())
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if tracer is not None:
            result["spans"] = {
                name: [s.calls, s.total_s * 1e3, s.self_s * 1e3]
                for name, s in tracer.spans.items()
            }
            result["counters"] = tracer.counters
            result["self_sum_gap_ms"] = tracer.self_sum_gap_s() * 1e3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
