"""Deterministic process-pool execution of independent work units.

The pool shards :class:`~repro.fleet.shard.WorkUnit` descriptors
across worker processes.  Determinism does not come from controlling
*scheduling* (workers finish in any order) but from the unit contract:
each unit is self-contained and explicitly seeded, and the caller
merges results in stable unit order — so ``jobs=N`` is byte-identical
to ``jobs=1``.

One lifecycle: a pool starts worker processes on demand, up to
``min(jobs, len(units))`` for each ``map``, and keeps them until
:meth:`FleetPool.close`.  A map where that number is 1 or less runs
in-process with no subprocesses at all.

Robustness follows the :mod:`repro.faults` philosophy — contain, then
degrade, never silently corrupt:

* a unit that *raises* is a deterministic failure: it would fail
  identically on retry, so it aborts the run (:class:`UnitFailed`);
* a worker that *dies* (OOM kill, segfault, ``os._exit``) is an
  environment fault: its in-flight unit is resubmitted to a fresh
  worker, up to ``max_retries`` times (:class:`WorkerDied` after);
* when worker processes cannot be created at all (sandboxes, RLIMIT),
  the pool degrades to in-process serial execution — slower, but the
  results are identical by construction.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from repro.fleet.shard import UnitResult, WorkUnit
from repro.logs import get_logger
from repro.telemetry.live import CallbackSink, LiveEmitter, install_emitter

log = get_logger("fleet.pool")

__all__ = [
    "FleetError",
    "FleetPool",
    "PoolParams",
    "UnitFailed",
    "WorkerDied",
]

#: Result-queue poll interval; bounds worker-death detection lag.
POLL_INTERVAL_S = 0.05
#: Bound on the live-event queue.  Backpressure past this *drops*
#: events (with a counter) rather than ever blocking a worker's
#: decision loop — events are observability, not results.
EVENT_QUEUE_CAP = 1024
#: How long shutdown waits for workers to drain before terminating,
#: and how long a streaming map waits for its last events.
_SHUTDOWN_GRACE_S = 2.0


class FleetError(RuntimeError):
    """Base class for fleet execution failures."""


class UnitFailed(FleetError):
    """A work unit raised; deterministic failures are not retried."""

    def __init__(self, unit_id: str, error: str) -> None:
        super().__init__(f"unit {unit_id!r} failed: {error}")
        self.unit_id = unit_id
        self.error = error


class WorkerDied(FleetError):
    """A unit's worker died more times than ``max_retries`` allows."""

    def __init__(self, unit_id: str, attempts: int) -> None:
        super().__init__(
            f"unit {unit_id!r} lost its worker {attempts} time(s); "
            "giving up (raise max_retries or run --jobs 1 to debug)"
        )
        self.unit_id = unit_id
        self.attempts = attempts


@dataclass(frozen=True)
class PoolParams:
    """Execution settings of one :class:`FleetPool`."""

    #: Worker processes; 1 executes in-process with no subprocesses.
    jobs: int = 1
    #: Resubmissions allowed per unit after its worker dies.
    max_retries: int = 2
    #: multiprocessing start method; default prefers ``fork`` (cheap,
    #: and unit purity — FLT501 — makes forking safe) over ``spawn``.
    start_method: Optional[str] = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _worker_main(task_q: Any, result_q: Any, event_q: Any) -> None:
    """Worker loop: execute units until the ``None`` sentinel arrives.

    Tasks arrive as ``(index, unit, stream)``; results travel back as
    ``(index, ok, value, error)``.  A unit exception is *reported*, not
    raised, so one bad unit cannot take the worker down with it —
    worker death is reserved for real crashes, which the parent
    retries.

    For a task of a streaming map (``stream``), a per-unit
    :class:`LiveEmitter` is installed around ``unit.run()`` so
    instrumentation anywhere down the call stack (the harness's
    per-quantum hook) can push events through the bounded ``event_q``.
    ``unit_finished`` is the unit's last event, which is what lets the
    parent tell when a map's events have all arrived.  Result-queue
    puts below are control plane, not live events — they must never
    drop, hence the TEL403 suppressions.
    """
    while True:
        item = task_q.get()
        if item is None:
            return
        index, unit, stream = item
        emitter = None
        if stream:
            emitter = LiveEmitter(
                event_q, unit.unit_id,
                worker=mp.current_process().name,
            )
        prior = install_emitter(emitter)
        if emitter is not None:
            emitter.emit("unit_started")
        ok = False
        value = None
        error = None
        try:
            value = unit.run()
            ok = True
        except BaseException as exc:  # noqa: BLE001 - reported to parent
            error = f"{type(exc).__name__}: {exc}"
        finally:
            install_emitter(prior)
        if emitter is not None:
            emitter.emit("unit_finished", ok=ok, dropped=emitter.dropped)
        if ok:
            result_q.put((index, True, value, None))  # repro: noqa[TEL403]
        else:
            result_q.put((index, False, None, error))  # repro: noqa[TEL403]


class _WorkerSlot:
    """One worker process plus its private task queue."""

    def __init__(self, ctx: Any, slot: int, result_q: Any,
                 event_q: Any) -> None:
        self.slot = slot
        self.task_q = ctx.Queue()
        self.inflight: Optional[int] = None
        self.process = ctx.Process(
            target=_worker_main,
            args=(self.task_q, result_q, event_q),
            name=f"fleet-worker-{slot}",
            daemon=True,
        )
        self.process.start()

    @property
    def name(self) -> str:
        return f"worker-{self.slot}"

    def submit(self, index: int, unit: WorkUnit, stream: bool) -> None:
        self.inflight = index
        # Control plane: task delivery must never drop.
        self.task_q.put((index, unit, stream))  # repro: noqa[TEL403]

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self) -> None:
        try:
            # Control plane: the shutdown sentinel must never drop.
            self.task_q.put(None)  # repro: noqa[TEL403]
        except (OSError, ValueError) as exc:
            # Benign on the shutdown path, but never silent (ROB601):
            # the queue was already torn down, so the sentinel is moot.
            log.debug(
                "%s: shutdown sentinel skipped, task queue already "
                "closed: %s", self.name, exc,
            )

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()

    def close(self) -> None:
        # cancel_join_thread: never let a stuck feeder thread block
        # parent exit (the queue may hold undelivered tasks).
        self.task_q.cancel_join_thread()
        self.task_q.close()


class FleetPool:
    """Executes work units across processes; results in unit order.

    Workers start on demand and persist across ``map`` calls until
    :meth:`close` (use the pool as a context manager), so a long-lived
    pool — the daemon's what-if pool — pays the spawn cost once.  The
    pool is plain instance state, nothing global, so the FLT501
    no-global-state guarantee holds.  The ``retries`` /
    ``serial_fallbacks`` tallies accumulate across calls (the runner
    reports per-run deltas).
    """

    def __init__(self, params: PoolParams = PoolParams()) -> None:
        self.params = params
        #: Units resubmitted after a worker death, total.
        self.retries = 0
        #: Times the pool degraded to serial execution.
        self.serial_fallbacks = 0
        self._ctx: Any = None
        self._result_q: Any = None
        self._event_q: Any = None
        self._workers: List[_WorkerSlot] = []
        #: Units of the current streaming map whose ``unit_finished``
        #: event has not been forwarded yet.
        self._unfinished: Set[str] = set()
        self._closed = False

    def __enter__(self) -> "FleetPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop every worker; later ``map`` calls raise (idempotent)."""
        self._shutdown(None)
        self._closed = True

    def map(
        self,
        units: Sequence[WorkUnit],
        on_result: Optional[Callable[[UnitResult], None]] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> List[UnitResult]:
        """Execute every unit; returns results in submission order.

        ``on_result`` fires in the *parent* process as each result
        arrives (completion order) — the checkpoint hook.  An exception
        it raises aborts the run.

        ``on_event`` (optional) turns on live streaming for this map:
        workers push event dicts through a bounded queue and the
        callback fires in the parent, in arrival order, as the
        scheduler drains it.  Events are lossy by design (see
        :data:`EVENT_QUEUE_CAP`) and carry no results — dropping all of
        them changes no output.

        A map that raises stops the pool's workers, so none of its
        in-flight units can answer a later map; that map starts fresh
        ones.
        """
        units = list(units)
        ids = [u.unit_id for u in units]
        if len(set(ids)) != len(ids):
            raise ValueError("unit ids must be unique within one fleet")
        if not units:
            return []
        if self._closed:
            raise ValueError("map() called on a closed pool")
        jobs = min(self.params.jobs, len(units))
        if jobs <= 1:
            return self._run_serial(units, on_result, on_event)
        try:
            self._start_workers(jobs)
        except (OSError, PermissionError, ValueError) as exc:
            self.serial_fallbacks += 1
            log.warning(
                "worker pool unavailable (%s: %s); degrading to serial "
                "execution", type(exc).__name__, exc,
            )
            if on_event is not None:
                on_event({"kind": "serial_fallback"})
            return self._run_serial(units, on_result, on_event)
        if on_event is not None:
            self._unfinished = set(ids)
        try:
            results = self._schedule(units, jobs, on_result, on_event)
        except BaseException:
            self._shutdown(on_event)
            raise
        self._forward_events(on_event, wait=True)
        return results

    # ------------------------------------------------------------------

    def _start_workers(self, jobs: int) -> None:
        """Grow the worker set to ``jobs`` processes.

        The one place worker processes are created: a map's first
        spawn, a later map that wants more workers, and the
        replacement of a dead worker all come through here.
        """
        if self._result_q is None:
            ctx = mp.get_context(self.params.resolved_start_method())
            result_q = ctx.Queue()
            # Every worker gets the event queue: whether it streams is
            # decided per task, by the map that submitted it.
            event_q = ctx.Queue(EVENT_QUEUE_CAP)
            self._ctx, self._result_q, self._event_q = (
                ctx, result_q, event_q
            )
        taken = {worker.slot for worker in self._workers}
        free = (s for s in range(self.params.jobs) if s not in taken)
        while len(self._workers) < jobs:
            self._workers.append(_WorkerSlot(
                self._ctx, next(free), self._result_q, self._event_q
            ))

    def _run_serial(
        self,
        units: Sequence[WorkUnit],
        on_result: Optional[Callable[[UnitResult], None]],
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> List[UnitResult]:
        results: List[UnitResult] = []
        for index, unit in enumerate(units):
            emitter = None
            if on_event is not None:
                # No process boundary: events go straight to the
                # callback through the queue-shaped shim, exercising
                # the exact emission path workers use.
                emitter = LiveEmitter(
                    CallbackSink(on_event), unit.unit_id, worker="serial"
                )
            prior = install_emitter(emitter)
            if emitter is not None:
                emitter.emit("unit_started")
            ok = False
            try:
                value = unit.run()
                ok = True
            except Exception as exc:
                raise UnitFailed(
                    unit.unit_id, f"{type(exc).__name__}: {exc}"
                ) from exc
            finally:
                install_emitter(prior)
                if emitter is not None:
                    emitter.emit(
                        "unit_finished", ok=ok, dropped=emitter.dropped
                    )
            result = UnitResult(
                unit_id=unit.unit_id, index=index, value=value,
                attempts=1, worker="serial",
            )
            results.append(result)
            if on_result is not None:
                on_result(result)
        return results

    def _forward_events(
        self,
        on_event: Optional[Callable[[Dict[str, Any]], None]],
        wait: bool = False,
    ) -> None:
        """Forward every queued live event to the map's callback.

        With ``wait``, keep forwarding until each unit of the map has
        reported ``unit_finished`` (bounded by the shutdown grace).  A
        worker emits that event last, and one worker's events arrive in
        order, so the map returns with all of its events delivered and
        none left over for the next map.
        """
        if on_event is None or self._event_q is None:
            return
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        while True:
            block = (
                wait and bool(self._unfinished)
                and time.monotonic() < deadline
            )
            try:
                if block:
                    event = self._event_q.get(timeout=POLL_INTERVAL_S)
                else:
                    event = self._event_q.get_nowait()
            except queue_mod.Empty:
                if block:
                    continue
                return
            except (OSError, ValueError):  # queue torn down mid-drain
                return
            if event.get("kind") == "unit_finished":
                self._unfinished.discard(event.get("unit"))
            on_event(event)

    def _schedule(
        self,
        units: List[WorkUnit],
        jobs: int,
        on_result: Optional[Callable[[UnitResult], None]],
        on_event: Optional[Callable[[Dict[str, Any]], None]],
    ) -> List[UnitResult]:
        stream = on_event is not None
        pending = deque(range(len(units)))
        attempts = [0] * len(units)
        done: Dict[int, UnitResult] = {}
        while len(done) < len(units):
            self._start_workers(jobs)  # replaces reaped workers
            self._forward_events(on_event)
            for worker in self._workers:
                if worker.inflight is None and pending:
                    index = pending.popleft()
                    attempts[index] += 1
                    worker.submit(index, units[index], stream)
            try:
                index, ok, value, error = self._result_q.get(
                    timeout=POLL_INTERVAL_S
                )
            except queue_mod.Empty:
                self._reap(units, pending, attempts, done, on_event)
                continue
            owner = next(
                (w for w in self._workers if w.inflight == index), None
            )
            if owner is not None:
                owner.inflight = None
            if index in done:
                # A crashed-after-report worker's unit was resubmitted
                # and both copies answered; units are deterministic, so
                # the duplicate value is identical — drop it.
                continue
            if not ok:
                raise UnitFailed(units[index].unit_id, str(error))
            result = UnitResult(
                unit_id=units[index].unit_id,
                index=index,
                value=value,
                attempts=attempts[index],
                worker=owner.name if owner is not None else "worker-?",
            )
            done[index] = result
            if on_result is not None:
                on_result(result)
        return [done[i] for i in range(len(units))]

    def _reap(
        self,
        units: List[WorkUnit],
        pending: "deque[int]",
        attempts: List[int],
        done: Dict[int, UnitResult],
        on_event: Optional[Callable[[Dict[str, Any]], None]],
    ) -> None:
        """Drop dead workers and resubmit their units.

        The scheduler's next :meth:`_start_workers` replaces them.
        """
        for worker in [w for w in self._workers if not w.alive()]:
            self._workers.remove(worker)
            index = worker.inflight
            worker.close()
            if index is None or index in done:
                continue
            if attempts[index] > self.params.max_retries:
                raise WorkerDied(units[index].unit_id, attempts[index])
            self.retries += 1
            log.warning(
                "%s died running unit index %d (attempt %d); "
                "resubmitting to a fresh worker",
                worker.name, index, attempts[index],
            )
            if on_event is not None:
                # Parent-side direct call — no queue, cannot drop.
                on_event({
                    "kind": "unit_retry",
                    "unit": units[index].unit_id,
                    "worker": worker.name,
                    "attempt": attempts[index],
                })
            pending.appendleft(index)

    def _shutdown(
        self,
        on_event: Optional[Callable[[Dict[str, Any]], None]],
    ) -> None:
        """Stop every worker and tear the queues down."""
        workers, self._workers = self._workers, []
        for worker in workers:
            worker.stop()
        deadline = time.monotonic() + _SHUTDOWN_GRACE_S
        for worker in workers:
            worker.process.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
        for worker in workers:
            if worker.process.is_alive():
                worker.kill()
                worker.process.join(timeout=1.0)
            worker.close()
        # Workers have flushed (or died); whatever made it into the
        # event queue is forwarded before teardown so a failed map's
        # end-of-unit drop tallies are not themselves dropped.
        self._forward_events(on_event)
        for q in (self._result_q, self._event_q):
            if q is not None:
                q.cancel_join_thread()
                q.close()
        self._ctx = self._result_q = self._event_q = None
