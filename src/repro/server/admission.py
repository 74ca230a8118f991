"""Multi-tenant admission control for the scheduler daemon.

The :class:`JobQueueManager` is the daemon's front desk: submissions
are validated statically (unknown applications, unachievable QoS
targets, tenant quotas are rejected on the spot), then queued and
admitted at tick boundaries against the machine's structural capacity
— batch slots, LC service bindings, LLC ways, and an estimated power
envelope.  The queue drains in priority order (higher first), FIFO
within a priority; a job that waits longer than
``AdmissionLimits.max_wait_quanta`` ticks is rejected with a
``wait_timeout`` so callers never wait unboundedly (the bounded-wait
accounting shows up in the status API).

Everything here is plain deterministic bookkeeping — dicts, lists and
integer ticks, no clocks and no RNG — so the admission sequence is a
pure function of the submission script, and ``snapshot``/``restore``
round-trip the whole ledger through JSON for crash-safe resume.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.logs import get_logger
from repro.snapshot import (
    INT, JSON, STR, History, Map, Record, Seq, Snapshottable,
)

log = get_logger("server.admission")

__all__ = [
    "AdmissionLimits",
    "Job",
    "JobQueueManager",
    "JobSpec",
]


@dataclass(frozen=True)
class AdmissionLimits:
    """Admission-control knobs of one daemon."""

    #: Queued + running jobs one tenant may hold at once.
    max_jobs_per_tenant: int = 8
    #: Ticks a queued job may wait before a ``wait_timeout`` rejection.
    max_wait_quanta: int = 16
    #: Fraction of the power budget the admission estimate may fill.
    power_fill_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.max_jobs_per_tenant < 1:
            raise ValueError("max_jobs_per_tenant must be >= 1")
        if self.max_wait_quanta < 1:
            raise ValueError("max_wait_quanta must be >= 1")
        if not 0 < self.power_fill_fraction <= 2.0:
            raise ValueError("power_fill_fraction must be in (0, 2]")


@dataclass(frozen=True)
class JobSpec:
    """What a client asked to run."""

    #: ``"batch"`` (a SPEC-like application) or ``"lc"`` (a service).
    kind: str
    #: Application name (batch) or hosted service name (lc).
    name: str
    tenant: str = "default"
    #: Higher admits first; FIFO within equal priorities.
    priority: int = 0
    #: LC only: the client's p99 target, milliseconds.
    qos_ms: Optional[float] = None
    #: LC only: offered arrival rate, queries per second.
    rps: Optional[float] = None


@dataclass(eq=False)
class Job:
    """One submission's lifecycle record.

    queued -> running -> (cancelled | finished); queued may also go
    straight to rejected (static validation or wait timeout).
    """

    job_id: str
    seq: int
    spec: JobSpec
    submitted_tick: int
    state: str = "queued"
    #: Batch slot index or LC service name once running.
    slot: Optional[Any] = None
    admitted_tick: Optional[int] = None
    finished_tick: Optional[int] = None
    waited_quanta: int = 0
    #: Rejection code, when ``state == "rejected"``.
    reason: Optional[str] = None
    #: Current arrival rate (LC; mutable via ``set_rps``).
    rps: Optional[float] = None

    def __post_init__(self) -> None:
        if self.rps is None:
            self.rps = self.spec.rps

    @property
    def live(self) -> bool:
        """Queued or running.  Every other state is terminal, entered
        only through :meth:`JobQueueManager._end`."""
        return self.state in ("queued", "running")

    def describe(self) -> Dict[str, Any]:
        """JSONable view for the ``jobs`` and ``status`` responses."""
        return {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "name": self.spec.name,
            "tenant": self.spec.tenant,
            "priority": self.spec.priority,
            "state": self.state,
            "slot": self.slot,
            "submitted_tick": self.submitted_tick,
            "admitted_tick": self.admitted_tick,
            "finished_tick": self.finished_tick,
            "waited_quanta": self.waited_quanta,
            "reason": self.reason,
            "qos_ms": self.spec.qos_ms,
            "rps": self.rps,
        }


#: Snapshot codec of a :class:`Job`; the optional numbers travel
#: exactly as the client sent them.
JOB = Record(
    Job, JSON, job_id=STR, seq=INT, submitted_tick=INT, state=STR,
    waited_quanta=INT,
    spec=Record(JobSpec, JSON, kind=STR, name=STR, tenant=STR, priority=INT),
)

class _LiveJobs(Map):
    """The ledger's queued and running jobs, by id; terminal jobs are
    journaled once, in :attr:`JobQueueManager.ended`."""

    def __init__(self) -> None:
        super().__init__(JOB)

    def encode(self, value: Mapping[str, Job]) -> Any:
        return super().encode({
            job_id: job for job_id, job in value.items()
            if job.live
        })


class JobQueueManager(Snapshottable):
    """Admission ledger: validate, queue, and admit jobs per tick.

    Capacity model (checked at every drain, per candidate):

    * **slots** — a batch job needs a vacant batch slot; an LC job
      needs its named service to be unbound (one binding per service);
    * **ways** — running batch jobs plus the always-reserved LC slots
      must leave at least one LLC way free;
    * **power** — the sum of per-job power estimates (offline
      characterisation medians, supplied by the driver) must fit the
      budget times ``AdmissionLimits.power_fill_fraction``.

    Jobs failing a *capacity* check stay queued (and may time out);
    jobs failing a *static* check are rejected immediately.  Snapshots
    carry the live jobs, and each terminal job once, as a history;
    restore merges the two back into one ledger in submission order.
    The capacity model and limits are rebuilt from the daemon's
    configuration.
    """

    SNAPSHOT_FIELDS = {
        "jobs": _LiveJobs(),
        "ended": History(JOB),
        "queue": Seq(STR),
        "batch_slot_job": Seq(JSON),
        "lc_slot_job": Map(JSON),
        "next_seq": INT,
        "submitted": INT,
        "admitted": INT,
        "rejected": INT,
        "cancelled": INT,
        "timed_out": INT,
        "total_wait_quanta": INT,
        "max_wait_quanta_seen": INT,
    }

    def __init__(
        self,
        known_batch_apps: Sequence[str],
        n_batch_slots: int,
        lc_services: Sequence[Mapping[str, Any]],
        llc_ways: int,
        power_budget_w: float,
        batch_power_w: Mapping[str, float],
        lc_power_w: Mapping[str, float],
        limits: AdmissionLimits = AdmissionLimits(),
        telemetry: Any = None,
    ) -> None:
        self.known_batch_apps = frozenset(known_batch_apps)
        self.n_batch_slots = n_batch_slots
        #: name -> {"qos_ms": float, "max_qps": float} per hosted slot.
        self.lc_services: Dict[str, Dict[str, float]] = {
            str(s["name"]): {
                "qos_ms": float(s["qos_ms"]),
                "max_qps": float(s["max_qps"]),
            }
            for s in lc_services
        }
        self.llc_ways = llc_ways
        self.power_budget_w = power_budget_w
        self.batch_power_w = dict(batch_power_w)
        self.lc_power_w = dict(lc_power_w)
        self.limits = limits
        # Session plumbing, not ledger state (the daemon re-attaches
        # after restore), so the snapshot contract excludes it.
        self.telemetry = telemetry

        #: Every job ever submitted, by id, in submission order.
        self.jobs: Dict[str, Job] = {}
        #: Terminal jobs, in the order they ended.
        self.ended: List[Job] = []
        #: Queued job ids in submission order (drain re-sorts).
        self.queue: List[str] = []
        self.batch_slot_job: List[Optional[str]] = [
            None for _ in range(n_batch_slots)
        ]
        self.lc_slot_job: Dict[str, Optional[str]] = {
            name: None for name in sorted(self.lc_services)
        }
        self.next_seq = 1
        self.submitted = 0
        self.admitted = 0
        self.rejected = 0
        self.cancelled = 0
        self.timed_out = 0
        #: Bounded-wait accounting across every admitted job.
        self.total_wait_quanta = 0
        self.max_wait_quanta_seen = 0

    def _count(self, name: str, n: int = 1) -> None:
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc(n)

    def _end(self, job: Job, state: str, tick: int) -> None:
        """Move ``job`` to a terminal ``state``; it never changes again."""
        job.state = state
        job.finished_tick = tick
        self.ended.append(job)

    def restore(self, state: Mapping[str, Any]) -> None:
        """Restore the snapshot, then merge the live and the ended jobs
        back into one ledger in submission order."""
        super().restore(state)
        jobs = [*self.jobs.values(), *self.ended]
        self.jobs = {
            job.job_id: job for job in sorted(jobs, key=lambda j: j.seq)
        }

    # ------------------------------------------------------------------
    # Client-facing operations.
    # ------------------------------------------------------------------

    def _static_rejection(self, spec: JobSpec) -> Optional[str]:
        """Reason code when a spec can never be admitted; else None."""
        if spec.kind not in ("batch", "lc"):
            return "bad_kind"
        tenant_live = sum(
            1 for job in self.jobs.values()
            if job.spec.tenant == spec.tenant and job.live
        )
        if tenant_live >= self.limits.max_jobs_per_tenant:
            return "tenant_quota"
        if spec.kind == "batch":
            if spec.name not in self.known_batch_apps:
                return "unknown_app"
            return None
        service = self.lc_services.get(spec.name)
        if service is None:
            return "unknown_service"
        if spec.qos_ms is None or spec.qos_ms <= 0:
            return "bad_qos"
        if spec.qos_ms < service["qos_ms"]:
            # The model cannot promise a tighter tail than its own
            # calibrated target; admitting would guarantee violations.
            return "qos_unachievable"
        if spec.rps is None or spec.rps <= 0:
            return "bad_rps"
        if spec.rps > service["max_qps"]:
            return "rps_exceeds_capacity"
        return None

    def submit(self, spec: JobSpec, tick: int) -> Job:
        """Validate and enqueue one submission; returns its record.

        Statically invalid submissions come back with
        ``state == "rejected"`` and a ``reason`` code.
        """
        if spec.kind == "lc" and spec.qos_ms is None:
            # An omitted QoS target means "the service's calibrated
            # target" — the loosest promise the model can still keep.
            service = self.lc_services.get(spec.name)
            if service is not None:
                spec = replace(spec, qos_ms=service["qos_ms"])
        # Validate before the job enters the ledger — a submission must
        # not count itself toward its own tenant quota.
        reason = self._static_rejection(spec)
        job_id = f"j{self.next_seq:06d}"
        job = Job(job_id, self.next_seq, spec, tick)
        self.next_seq += 1
        self.jobs[job_id] = job
        self.submitted += 1
        self._count("server.jobs_submitted")
        if reason is not None:
            job.reason = reason
            self._end(job, "rejected", tick)
            self.rejected += 1
            self._count("server.jobs_rejected")
            log.info("job %s rejected at submit: %s", job_id, reason)
            return job
        self.queue.append(job_id)
        log.info(
            "job %s queued (%s %s, tenant %s, priority %d)",
            job_id, spec.kind, spec.name, spec.tenant, spec.priority,
        )
        return job

    def cancel(self, job_id: str, tick: int) -> Optional[Job]:
        """Cancel a queued or running job; returns it (None = unknown).

        Running jobs release their slot immediately; the caller
        unbinds the machine side before the next tick.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if not job.live:
            return job
        if job.state == "queued":
            self.queue.remove(job_id)
        else:
            self._release_slot(job)
        self._end(job, "cancelled", tick)
        self.cancelled += 1
        self._count("server.jobs_cancelled")
        log.info("job %s cancelled", job_id)
        return job

    def set_rps(self, job_id: str, rps: float) -> Optional[Job]:
        """Update a live LC job's offered rate; returns it (or None).

        Raises ``ValueError`` for non-LC jobs or rates beyond the
        service's knee.
        """
        job = self.jobs.get(job_id)
        if job is None:
            return None
        if job.spec.kind != "lc":
            raise ValueError("set_rps only applies to LC jobs")
        if not job.live:
            raise ValueError(f"job {job_id} is {job.state}")
        service = self.lc_services[job.spec.name]
        if rps <= 0 or rps > service["max_qps"]:
            raise ValueError(
                f"rps must be in (0, {service['max_qps']:g}]"
            )
        job.rps = float(rps)
        return job

    # ------------------------------------------------------------------
    # Tick-boundary drain.
    # ------------------------------------------------------------------

    def _release_slot(self, job: Job) -> None:
        if job.spec.kind == "batch" and isinstance(job.slot, int):
            self.batch_slot_job[job.slot] = None
        elif job.spec.kind == "lc" and job.slot is not None:
            self.lc_slot_job[str(job.slot)] = None

    def running_jobs(self) -> List[Job]:
        """Currently admitted jobs, in admission (seq) order."""
        return sorted(
            (j for j in self.jobs.values() if j.state == "running"),
            key=lambda j: j.seq,
        )

    def _power_in_use(self) -> float:
        total = 0.0
        for job in self.jobs.values():
            if job.state != "running":
                continue
            if job.spec.kind == "batch":
                total += self.batch_power_w.get(job.spec.name, 0.0)
            else:
                total += self.lc_power_w.get(job.spec.name, 0.0)
        return total

    def _estimate_w(self, spec: JobSpec) -> float:
        if spec.kind == "batch":
            return self.batch_power_w.get(spec.name, 0.0)
        return self.lc_power_w.get(spec.name, 0.0)

    def _capacity_block(self, spec: JobSpec) -> Optional[str]:
        """Why a valid spec cannot be admitted *right now*; else None."""
        if spec.kind == "batch":
            if None not in self.batch_slot_job:
                return "no_free_slot"
            running_batch = sum(
                1 for j in self.batch_slot_job if j is not None
            )
            # Every hosted LC slot permanently reserves a way; each
            # running batch job needs one, and one way must stay free
            # for reconfiguration slack.
            if running_batch + len(self.lc_services) + 1 >= self.llc_ways:
                return "no_free_ways"
        else:
            if self.lc_slot_job.get(spec.name) is not None:
                return "service_bound"
        budget = self.power_budget_w * self.limits.power_fill_fraction
        if self._power_in_use() + self._estimate_w(spec) > budget:
            return "power_envelope"
        return None

    def drain(self, tick: int) -> Dict[str, List[Dict[str, Any]]]:
        """Admit what fits, time out what waited too long.

        Called once per tick, *before* the quantum executes.  Returns
        ``{"admitted": [...], "timed_out": [...]}`` where each admitted
        entry carries the binding the driver must apply
        (``job_id``/``kind``/``name``/``slot``/``rps``).
        """
        admitted: List[Dict[str, Any]] = []
        timed_out: List[Dict[str, Any]] = []
        # Priority first, FIFO (submission seq) within a priority.
        order = sorted(
            self.queue,
            key=lambda jid: (-self.jobs[jid].spec.priority,
                             self.jobs[jid].seq),
        )
        for job_id in order:
            job = self.jobs[job_id]
            block = self._capacity_block(job.spec)
            if block is None:
                self.queue.remove(job_id)
                job.state = "running"
                job.admitted_tick = tick
                job.waited_quanta = tick - job.submitted_tick
                self.total_wait_quanta += job.waited_quanta
                self.max_wait_quanta_seen = max(
                    self.max_wait_quanta_seen, job.waited_quanta
                )
                if job.spec.kind == "batch":
                    slot = self.batch_slot_job.index(None)
                    self.batch_slot_job[slot] = job_id
                    job.slot = slot
                else:
                    self.lc_slot_job[job.spec.name] = job_id
                    job.slot = job.spec.name
                self.admitted += 1
                self._count("server.jobs_admitted")
                admitted.append({
                    "job_id": job_id,
                    "kind": job.spec.kind,
                    "name": job.spec.name,
                    "slot": job.slot,
                    "rps": job.rps,
                })
                log.info(
                    "job %s admitted at tick %d (slot %r, waited %d)",
                    job_id, tick, job.slot, job.waited_quanta,
                )
                continue
            job.waited_quanta = tick - job.submitted_tick
            if job.waited_quanta >= self.limits.max_wait_quanta:
                self.queue.remove(job_id)
                job.reason = "wait_timeout"
                self._end(job, "rejected", tick)
                self.rejected += 1
                self.timed_out += 1
                self._count("server.jobs_rejected")
                self._count("server.jobs_timed_out")
                timed_out.append({
                    "job_id": job_id,
                    "waited_quanta": job.waited_quanta,
                    "blocked_on": block,
                })
                log.info(
                    "job %s timed out after %d quanta (blocked on %s)",
                    job_id, job.waited_quanta, block,
                )
        return {"admitted": admitted, "timed_out": timed_out}

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def describe(self) -> Dict[str, Any]:
        """The admission section of the ``status`` response."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "cancelled": self.cancelled,
            "timed_out": self.timed_out,
            "queued": len(self.queue),
            "running": sum(
                1 for j in self.jobs.values() if j.state == "running"
            ),
            "total_wait_quanta": self.total_wait_quanta,
            "max_wait_quanta_seen": self.max_wait_quanta_seen,
            "limits": {
                "max_jobs_per_tenant": self.limits.max_jobs_per_tenant,
                "max_wait_quanta": self.limits.max_wait_quanta,
                "power_fill_fraction": self.limits.power_fill_fraction,
            },
        }
