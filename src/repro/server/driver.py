"""The daemon's core: one crash-safe decision quantum per tick.

The :class:`QuantumDriver` owns the simulated machine, the CuttleSys
policy, and a :class:`~repro.experiments.harness.QuantumStepper`; each
:meth:`tick` drains the admission queue, applies the resulting job
bindings, executes exactly one decision quantum, appends one canonical
JSON line to the decision stream, and persists an atomic snapshot.  A
daemon killed at any point, or losing power, resumes from its snapshot
and regenerates a byte-identical decision stream — the server-side
extension of the harness's pause/resume contract.

Load is *live* rather than trace-replayed: each LC slot reads its
level from a :class:`SlotLoad` the control plane mutates between
quanta (submissions bind a service at ``rps / max_qps`` of its knee;
``set_rps`` moves it; cancellation drops it back to the idle floor).
Batch slots start vacant — gated off through
:meth:`ResourceController.remove_job` — and are bound on admission.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional

import numpy as np

from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    QuantumStepper,
    build_machine_for_mix,
    reference_power_for_mix,
)
from repro.logs import get_logger
from repro.server.admission import AdmissionLimits, JobQueueManager
from repro.snapshot import (
    FLOAT, STR, History, Journal, Match, Nested, Seq, Snapshottable, Tail,
    Transient, atomic_write_text,
)
from repro.telemetry.live import CallbackSink, LiveEmitter, install_emitter
from repro.workloads.batch import SPEC_APPS, batch_profile
from repro.workloads.mixes import paper_mixes

log = get_logger("server.driver")

__all__ = ["QuantumDriver", "ServerConfig", "SlotLoad"]

#: Load fraction an unbound LC slot idles at: low enough to be
#: negligible, high enough that the queueing model never divides by a
#: zero arrival rate.
IDLE_LC_LOAD = 0.05

#: Decision lines kept in memory for the ``decisions`` query.
DECISION_TAIL = 4096

#: The decision lines: the newest in memory, every one in the journal.
DECISION_LINES = History(STR, keep=DECISION_TAIL)

@dataclass(frozen=True)
class ServerConfig:
    """Boot configuration of one scheduler daemon."""

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (see ``port_file``).
    port: int = 0
    #: Written with the bound port once listening (ephemeral ports).
    port_file: Optional[str] = None
    #: Paper mix index; fixes the machine and its hosted services.
    mix: int = 0
    seed: int = 7
    power_cap_fraction: float = 0.7
    #: Hard ceiling on quanta the daemon will ever execute.
    max_quanta: int = 100000
    #: Pace ticks to wall clock (outside the determinism contract);
    #: False = virtual time, quanta advance only on ``tick`` requests.
    real_time: bool = False
    #: Wall-clock seconds per quantum when ``real_time``.
    quantum_s: float = 0.1
    #: Snapshot file; None disables crash-safe resume.
    state_path: Optional[str] = None
    #: Decision-stream JSONL; None keeps it in memory only.
    decisions_path: Optional[str] = None
    #: Ticks between snapshots (1 = after every quantum).
    snapshot_every: int = 1
    #: Resume from ``state_path`` if it exists.
    resume: bool = False
    #: Worker processes of the daemon's what-if pool (1 = serial).
    whatif_jobs: int = 2
    limits: AdmissionLimits = field(default_factory=AdmissionLimits)

    def __post_init__(self) -> None:
        if self.max_quanta < 1:
            raise ValueError("max_quanta must be >= 1")
        if not 1 <= self.snapshot_every <= DECISION_TAIL:
            # A longer gap would drop decision lines from memory before
            # a snapshot journals them.
            raise ValueError(
                f"snapshot_every must be in [1, {DECISION_TAIL}]"
            )
        if self.quantum_s <= 0:
            raise ValueError("quantum_s must be positive")


class SlotLoad(Snapshottable):
    """A mutable load source shaped like a :class:`LoadTrace`.

    The stepper calls ``load_at(t)`` each quantum; the control plane
    moves ``level`` between quanta.  Time-independent by design: the
    *schedule* of level changes is what the snapshot reproduces.
    """

    SNAPSHOT_FIELDS = {"level": FLOAT}

    def __init__(self, level: float = IDLE_LC_LOAD) -> None:
        self.level = level

    def load_at(self, t: float) -> float:
        return self.level


class QuantumDriver(Snapshottable):
    """Runs the quantum loop incrementally under control-plane input.

    Its snapshot is everything a resume needs; a configuration
    fingerprint mismatch names the setting that changed.  The state
    file holds what does not grow with the session; the histories (the
    run's per-quantum lists and the decision lines) go to the journal
    beside it.
    """

    SNAPSHOT_FIELDS = {
        "fingerprint": Match("server configuration"),
        "stepper": Nested(),
        "admission": Nested(),
        "lc_loads": Seq(Nested()),
        "_decision_tail": DECISION_LINES,
        "snapshots_written": Transient(int),
        "_stream": Transient(),
    }

    def __init__(
        self,
        config: ServerConfig,
        telemetry: Any = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        mixes = paper_mixes()
        if not 0 <= config.mix < len(mixes):
            raise ValueError(
                f"mix index must be in [0, {len(mixes)})"
            )
        self.config = config
        self.telemetry = telemetry
        #: Live-event sink (the daemon's subscriber fan-out).
        self.on_event = on_event
        self.mix = mixes[config.mix]
        reference = reference_power_for_mix(self.mix, seed=config.seed)
        self.machine = build_machine_for_mix(self.mix, seed=config.seed)
        self.policy = CuttleSysPolicy.for_machine(
            self.machine, seed=config.seed
        )
        # The server boots *empty*: every batch slot is vacated before
        # telemetry attaches (so boot-time gating does not count as
        # job churn) and jobs only run once admitted.
        for slot in range(len(self.machine.batch_profiles)):
            self.policy.controller.remove_job(slot)
        self.lc_loads: List[SlotLoad] = [
            SlotLoad() for _ in self.machine.lc_services
        ]
        self.stepper = QuantumStepper(
            self.machine,
            self.policy,
            self.lc_loads[0],
            power_cap_fraction=config.power_cap_fraction,
            n_slices=config.max_quanta,
            max_power_w=reference,
            extra_traces=self.lc_loads[1:],
            telemetry=telemetry,
        )
        # Any SPEC app can be bound into a vacant slot via
        # replace_batch_job, so admission knows the full catalogue —
        # not just the apps the mix happened to seed the machine with.
        self.admission = JobQueueManager(
            known_batch_apps=list(SPEC_APPS),
            n_batch_slots=len(self.machine.batch_profiles),
            lc_services=[
                {
                    "name": service.name,
                    "qos_ms": service.qos_latency_s * 1e3,
                    "max_qps": service.max_qps,
                }
                for service in self.machine.lc_services
            ],
            llc_ways=self.machine.params.llc_ways,
            power_budget_w=self.stepper.run.power_budget_w,
            batch_power_w={
                name: self._min_power_w(batch_profile(name))
                for name in SPEC_APPS
            },
            lc_power_w={
                s.name: 2.0 * self._min_power_w(s.profile)
                for s in self.machine.lc_services
            },
            limits=config.limits,
            telemetry=telemetry,
        )
        self._decision_tail = Tail(DECISION_TAIL)
        self.journal: Optional[Journal] = None
        #: Whether this boot resumes: ``resume`` set and a state file
        #: to resume from (see :meth:`resume_from`).
        self.resumable = False
        if config.state_path is not None:
            Path(config.state_path).parent.mkdir(parents=True, exist_ok=True)
            self.journal = Journal(config.state_path)
            self.resumable = config.resume and Path(config.state_path).exists()
        self.snapshots_written = 0
        #: The decision-stream file, opened once (see _append_decision).
        self._stream: Optional[IO[str]] = None
        if config.decisions_path is not None:
            Path(config.decisions_path).parent.mkdir(
                parents=True, exist_ok=True
            )
            if not self.resumable:
                # A boot with nothing to resume owns the stream outright;
                # resume_from() opens it after repairing it.
                stream = Path(config.decisions_path)
                if config.resume and stream.exists():
                    log.warning(
                        "--resume found no state file to resume from: "
                        "starting %s afresh drops its %d byte(s)",
                        stream, stream.stat().st_size,
                    )
                self._open_stream("w")

    def _min_power_w(self, profile: Any) -> float:
        """Admission estimate: the app's draw at its narrowest config."""
        return float(np.min(self.machine.power.power_row(profile)))

    # ------------------------------------------------------------------
    # Job binding (between quanta, driven by admission events).
    # ------------------------------------------------------------------

    def _service_index(self, name: str) -> int:
        for idx, service in enumerate(self.machine.lc_services):
            if service.name == name:
                return idx
        raise ValueError(f"no hosted service {name!r}")

    def _bind(self, event: Dict[str, Any]) -> None:
        """Apply one admission event to the machine/controller pair."""
        if event["kind"] == "batch":
            slot = int(event["slot"])
            self.machine.replace_batch_job(
                slot, batch_profile(event["name"])
            )
            self.policy.controller.add_job(slot)
        else:
            idx = self._service_index(event["name"])
            service = self.machine.lc_services[idx]
            self.lc_loads[idx].level = (
                float(event["rps"]) / service.max_qps
            )

    def _unbind(self, job: Any) -> None:
        """Release a cancelled running job's machine-side binding."""
        if job.spec.kind == "batch" and isinstance(job.slot, int):
            self.policy.controller.remove_job(job.slot)
        elif job.spec.kind == "lc" and job.slot is not None:
            idx = self._service_index(str(job.slot))
            self.lc_loads[idx].level = IDLE_LC_LOAD

    def cancel_job(self, job_id: str) -> Optional[Any]:
        """Control-plane cancel: ledger first, then the machine side."""
        job = self.admission.cancel(job_id, self.stepper.next_slice)
        if job is not None and job.state == "cancelled" and (
            job.slot is not None
        ):
            self._unbind(job)
        return job

    def set_rps(self, job_id: str, rps: float) -> Optional[Any]:
        """Move a live LC job's offered load between quanta."""
        job = self.admission.set_rps(job_id, rps)
        if job is not None and job.state == "running":
            idx = self._service_index(job.spec.name)
            service = self.machine.lc_services[idx]
            self.lc_loads[idx].level = float(rps) / service.max_qps
        return job

    # ------------------------------------------------------------------
    # The tick: admission drain + one quantum + decision line.
    # ------------------------------------------------------------------

    @property
    def quantum(self) -> int:
        """Quanta executed so far (== next tick's index)."""
        return self.stepper.next_slice

    def tick(self) -> Dict[str, Any]:
        """Advance exactly one decision quantum; returns its record."""
        if self.stepper.done:
            raise RuntimeError(
                f"max_quanta ({self.config.max_quanta}) exhausted"
            )
        index = self.stepper.next_slice
        events = self.admission.drain(index)
        for event in events["admitted"]:
            self._bind(event)
        emitter = None
        prior = None
        if self.on_event is not None:
            emitter = LiveEmitter(
                CallbackSink(self.on_event), "server", worker="driver"
            )
            prior = install_emitter(emitter)
        try:
            measurement = self.stepper.step()
        finally:
            if emitter is not None:
                install_emitter(prior)
        record = self._decision_record(index, measurement, events)
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._append_decision(line)
        if self.on_event is not None:
            # Subscribers see the decision event before the tick reply.
            self.on_event(dict(record, kind="decision"))
        if self.telemetry is not None:
            metrics = self.telemetry.metrics
            metrics.counter("server.ticks").inc()
            metrics.gauge("server.queue_depth").set(
                len(self.admission.queue)
            )
            metrics.gauge("server.active_jobs").set(
                len(self.admission.running_jobs())
            )
        if (
            self.config.state_path is not None
            and self.quantum % self.config.snapshot_every == 0
        ):
            self.write_snapshot()
        return record

    def _decision_record(
        self,
        index: int,
        measurement: Any,
        events: Dict[str, List[Dict[str, Any]]],
    ) -> Dict[str, Any]:
        run = self.stepper.run
        assignment = measurement.assignment
        budget = run.budgets[-1]
        return {
            "quantum": index,
            "lc_p99_ms": measurement.lc_p99 * 1e3,
            "power_w": measurement.total_power,
            "budget_w": budget,
            "qos_violated": run.qos_violated(measurement),
            "power_violated": run.power_violated(measurement, budget),
            "assignment": {
                "lc_cores": assignment.lc_cores,
                "lc_config": (
                    assignment.lc_config.label
                    if assignment.lc_config is not None else None
                ),
                "batch": [
                    cfg.index if cfg is not None else None
                    for cfg in assignment.batch_configs
                ],
                "extra_lc": [
                    [alloc.cores, alloc.config.label]
                    for alloc in assignment.extra_lc
                ],
            },
            "jobs": {
                "batch": {
                    str(slot): jid
                    for slot, jid in enumerate(
                        self.admission.batch_slot_job
                    )
                    if jid is not None
                },
                "lc": {
                    name: jid
                    for name, jid in sorted(
                        self.admission.lc_slot_job.items()
                    )
                    if jid is not None
                },
            },
            "admitted": [e["job_id"] for e in events["admitted"]],
            "timed_out": [e["job_id"] for e in events["timed_out"]],
            "degraded": run.degraded_quanta,
        }

    @property
    def decision_count(self) -> int:
        """Decision-stream lines written so far (count = file lines)."""
        return self._decision_tail.start + len(self._decision_tail)

    def _open_stream(self, mode: str) -> None:
        self._stream = open(
            str(self.config.decisions_path), mode, encoding="utf-8"
        )

    def close(self) -> None:
        """Close the decision-stream file (a later tick reopens it)."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def _append_decision(self, line: str) -> None:
        # The in-memory tail backs the `decisions` query; it is bounded
        # so a long-lived daemon cannot grow without limit.
        self._decision_tail.append(line)
        if self.config.decisions_path is not None:
            if self._stream is None:
                self._open_stream("a")
            # Flushed, not synced: the journal holds every line durably
            # before a snapshot names it, and resume_from rewrites the
            # lines a power loss took from this file.
            self._stream.write(line + "\n")
            self._stream.flush()

    def recent_decisions(
        self, since: int = 0, limit: int = 100
    ) -> List[Dict[str, Any]]:
        """At most ``limit`` decision records with ``quantum >= since``
        (bounded tail); none when ``limit <= 0``.

        Line ``i`` of the stream is quantum ``i``, so only the returned
        lines are parsed.
        """
        tail = self._decision_tail
        first = min(len(tail), max(0, since - tail.start))
        return [
            json.loads(line) for line in tail[first:first + max(limit, 0)]
        ]

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def ladder_state(self) -> Dict[str, Any]:
        """Degradation-ladder posture for the ``ladder`` query."""
        controller = self.policy.controller
        return {
            "degraded_quanta": self.stepper.run.degraded_quanta,
            "deadline_degraded_quantum": bool(
                controller.deadline_degraded_quantum
            ),
            "budget": controller.budget_meter(),
            **controller.safety(),
        }

    def describe(self) -> Dict[str, Any]:
        """The driver section of the ``status`` response."""
        run = self.stepper.run
        return {
            "mix": self.config.mix,
            "policy": self.policy.name,
            "seed": self.config.seed,
            "quantum": self.quantum,
            "max_quanta": self.config.max_quanta,
            "power_budget_w": run.power_budget_w,
            "qos_violations": run.qos_violations(),
            "power_violations": run.power_violations(),
            "degraded_quanta": run.degraded_quanta,
            "decision_count": self.decision_count,
            "snapshots_written": self.snapshots_written,
            "lc_levels": [load.level for load in self.lc_loads],
        }

    # ------------------------------------------------------------------
    # Crash-safe snapshot / resume.
    # ------------------------------------------------------------------

    @property
    def fingerprint(self) -> Dict[str, Any]:
        """The settings a snapshot must share to be resumable."""
        config = self.config
        return {
            "mix": config.mix,
            "seed": config.seed,
            "power_cap_fraction": config.power_cap_fraction,
            "max_quanta": config.max_quanta,
        }

    def write_snapshot(self) -> None:
        """Durably persist everything a resume needs: the new history
        lines to the journal (synced), then the state file atomically
        (synced, renamed, directory synced)."""
        if self.journal is None:
            return
        state = self.journal.write(self)
        atomic_write_text(
            self.config.state_path, json.dumps(state, sort_keys=True) + "\n"
        )
        self.snapshots_written += 1
        if self.telemetry is not None:
            self.telemetry.metrics.counter("server.snapshots").inc()

    def resume_from(self) -> None:
        """Restore the state file and its journal, and repair the
        decision-stream file.

        A crash can land between a journal or decision append and the
        snapshot; the files may then hold lines *beyond* the snapshot.
        Those quanta re-execute deterministically, so the journal is
        truncated to the snapshot's line count, the stream file back to
        ``decision_count`` lines, and the replayed lines land
        byte-identically.  A power loss can also take stream lines the
        snapshot names, or tear one: the stream is never synced, but
        the journal holds every decision line, so the stream keeps its
        lines up to the first that differs from the journal's and the
        rest are rewritten from the journal.  A journal shorter than the
        snapshot's count, or with another digest, raises
        :class:`SnapshotError`.
        """
        if self.journal is None:
            raise ValueError("resume needs a state file")
        self.close()
        with open(self.config.state_path, "r", encoding="utf-8") as handle:
            loaded = self.journal.restore(self, json.load(handle))
        if self.config.decisions_path is not None:
            self._repair_decisions(loaded.get(str(DECISION_LINES.key), []))
        log.info(
            "resumed at quantum %d (%d decision line(s) kept)",
            self.quantum, self.decision_count,
        )

    def _repair_decisions(self, lines: List[str]) -> None:
        """Make the stream file hold exactly the journal's ``lines``."""
        path = Path(self.config.decisions_path)
        data = path.read_bytes() if path.exists() else b""
        want = [(line + "\n").encode("utf-8") for line in lines]
        size = kept = 0
        for have in data.splitlines(keepends=True)[:len(want)]:
            if have != want[kept]:
                break
            size += len(have)
            kept += 1
        if (size, kept) != (len(data), len(want)):
            log.info(
                "repairing decision stream %s: kept %d of %d line(s), "
                "rewrote %d from the journal, dropped %d byte(s)",
                path, kept, len(want), len(want) - kept, len(data) - size,
            )
            with open(path, "r+b" if path.exists() else "wb") as handle:
                handle.truncate(size)
                handle.seek(size)
                handle.write(b"".join(want[kept:]))
        self._open_stream("a")
