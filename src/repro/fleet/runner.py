"""The :class:`FleetRun` facade: shard, execute, checkpoint, merge.

One ``FleetRun`` drives one fleet of independent work units through a
:class:`~repro.fleet.pool.FleetPool`, checkpointing completed units as
results arrive and merging everything back in stable unit order.  The
experiment grids (cluster, scalability, fig5c, fig8, ablations, chaos,
fault study and the full evaluation) all run through :func:`run_grid`,
which gives each run a private pool; the daemon's what-if probes
(``repro.server.whatif``) build a ``FleetRun`` directly because they
execute on the daemon's shared pool.

Telemetry: when a session is attached the runner publishes the
``fleet.*`` counters (units total/executed/resumed, retries, serial
fallbacks) that the ``fleet.pool`` bench case and CI's counter gate
read.

Fault injection: ``FleetParams.inject_abort_after`` kills the run —
*after* the checkpoint is flushed — once that many units complete.
It is the fleet's deterministic crash hook in the :mod:`repro.faults`
tradition: the checkpoint-atomicity tests inject a mid-grid abort,
``--resume``, and assert the final report is byte-identical to an
uninterrupted run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.fleet.checkpoint import CheckpointStore
from repro.fleet.pool import FleetPool, PoolParams
from repro.fleet.shard import (
    FROM_CHECKPOINT,
    UnitResult,
    WorkUnit,
    merge_results,
    merge_unit_telemetry,
)
from repro.logs import get_logger
from repro.telemetry.live import LiveAggregator

log = get_logger("fleet.runner")

__all__ = [
    "FleetAborted", "FleetOutcome", "FleetParams", "FleetRun", "run_grid",
]


class FleetAborted(RuntimeError):
    """Raised by the ``inject_abort_after`` fault hook."""

    def __init__(self, name: str, completed: int) -> None:
        super().__init__(
            f"fleet {name!r}: injected abort after {completed} "
            "completed unit(s)"
        )
        self.completed = completed


@dataclass(frozen=True)
class FleetParams:
    """Checkpoint settings of one fleet run.

    How units execute (``jobs``, ``max_retries``, ``start_method``) is
    the pool's business: see :class:`~repro.fleet.pool.PoolParams`.
    """

    #: Checkpoint file, rewritten after every completed unit; ``None``
    #: disables snapshots.
    checkpoint: Optional[Union[str, Path]] = None
    #: Skip units already completed in the checkpoint.
    resume: bool = False
    #: Fault hook: abort (after checkpointing) once N units complete.
    inject_abort_after: Optional[int] = None

    def __post_init__(self) -> None:
        if self.resume and self.checkpoint is None:
            raise ValueError("resume requires a checkpoint path")
        if (
            self.inject_abort_after is not None
            and self.inject_abort_after < 1
        ):
            raise ValueError("inject_abort_after must be >= 1")


@dataclass(frozen=True)
class FleetOutcome:
    """Everything one fleet run produced, in stable unit order."""

    name: str
    results: Tuple[UnitResult, ...]
    jobs: int
    resumed_units: int
    executed_units: int
    retries: int
    serial_fallbacks: int

    def values(self) -> List[Any]:
        """Unit values in unit order (the merge input)."""
        return [result.value for result in self.results]

    def value_of(self, unit_id: str) -> Any:
        for result in self.results:
            if result.unit_id == unit_id:
                return result.value
        raise KeyError(f"no unit {unit_id!r} in fleet {self.name!r}")

    def summary(self) -> str:
        """One-line human-readable digest."""
        return (
            f"fleet {self.name}: {len(self.results)} unit(s) "
            f"({self.executed_units} executed, {self.resumed_units} "
            f"resumed) on {self.jobs} job(s), {self.retries} "
            f"retry(ies), {self.serial_fallbacks} serial fallback(s)"
        )

    def unit_attempts(self) -> Dict[str, int]:
        """Per-unit attempt counts for units that needed more than one.

        Empty on a healthy run (every unit runs once; checkpoint-
        resumed units report 0), which is what keeps reports that
        embed it byte-identical across ``--jobs`` values.
        """
        return {
            result.unit_id: result.attempts
            for result in self.results
            if result.attempts > 1
        }


class FleetRun:
    """Deterministic parallel execution of one named unit fleet.

    ``pool`` is either a shared :class:`FleetPool` the caller owns (the
    run never closes it; its tallies are reported per run) or the
    :class:`PoolParams` of a private pool the run opens and closes.
    """

    def __init__(
        self,
        name: str,
        units: Sequence[WorkUnit],
        params: FleetParams = FleetParams(),
        seed: int = 0,
        telemetry: Any = None,
        live: Optional[LiveAggregator] = None,
        pool: Union[FleetPool, PoolParams] = PoolParams(),
    ) -> None:
        if not name:
            raise ValueError("fleet name must be non-empty")
        self.name = name
        self.units: Tuple[WorkUnit, ...] = tuple(units)
        if not self.units:
            raise ValueError("a fleet needs at least one work unit")
        ids = [u.unit_id for u in self.units]
        if len(set(ids)) != len(ids):
            raise ValueError("unit ids must be unique within one fleet")
        self.params = params
        self.seed = seed
        self.telemetry = telemetry
        #: Optional :class:`LiveAggregator`: streams worker events and
        #: folds each unit's counters and drift instants into the live
        #: view as the unit completes.
        self.live = live
        self.pool = pool
        self._store: Optional[CheckpointStore] = None
        if params.checkpoint is not None:
            self._store = CheckpointStore(
                params.checkpoint, fingerprint=self.fingerprint()
            )

    def fingerprint(self) -> Dict[str, Any]:
        """What must match for a checkpoint to be resumable.

        Built from what runs: the fleet name, the seed, and each unit's
        id with its kwargs, so a resume after any unit's arguments
        change is refused.
        """
        return {
            "fleet": self.name,
            "seed": self.seed,
            "units": [
                {"id": u.unit_id, "kwargs": dict(u.kwargs)}
                for u in self.units
            ],
        }

    # ------------------------------------------------------------------

    def execute(self) -> FleetOutcome:
        """Run (or resume) the fleet and merge results in unit order."""
        if isinstance(self.pool, FleetPool):
            return self._execute_on(self.pool)
        with FleetPool(self.pool) as pool:
            return self._execute_on(pool)

    def _execute_on(self, pool: FleetPool) -> FleetOutcome:
        completed: Dict[str, Any] = {}
        if self._store is not None and self.params.resume:
            completed = self._store.load()
        resumed = len(completed)
        todo = [u for u in self.units if u.unit_id not in completed]
        if self.live is not None:
            # Resumed units never re-execute, so their telemetry enters
            # the live view straight from the checkpoint.
            for unit in self.units:
                value = completed.get(unit.unit_id)
                if isinstance(value, dict) and "telemetry" in value:
                    self.live.ingest(unit.unit_id, value["telemetry"])
                if unit.unit_id in completed:
                    self.live.units.setdefault(
                        unit.unit_id,
                        {"state": "done", "events": 0,
                         "worker": "checkpoint"},
                    )
        jobs = pool.params.jobs
        log.info(
            "fleet %s: %d unit(s), %d resumed, %d to run on %d job(s)",
            self.name, len(self.units), resumed, len(todo), jobs,
        )
        # A shared pool's tallies accumulate across runs; report this
        # run's contribution only, so outcomes stay byte-identical
        # whether the pool is private or shared.
        base_retries = pool.retries
        base_fallbacks = pool.serial_fallbacks
        executed: Dict[str, UnitResult] = {}

        def run_stats() -> Dict[str, Any]:
            return {
                "jobs": jobs,
                "executed": len(executed),
                # Units this run actually executed (vs restored from
                # the checkpoint); `repro fleet status` uses the set to
                # label each completed unit's origin.
                "executed_ids": sorted(executed),
                "resumed": resumed,
                "retries": pool.retries - base_retries,
                "serial_fallbacks": (
                    pool.serial_fallbacks - base_fallbacks
                ),
            }

        def on_result(result: UnitResult) -> None:
            completed[result.unit_id] = result.value
            executed[result.unit_id] = result
            if (
                self.live is not None
                and isinstance(result.value, dict)
                and "telemetry" in result.value
            ):
                self.live.ingest(
                    result.unit_id, result.value["telemetry"]
                )
            if self._store is not None:
                self._store.save(completed, stats=run_stats())
            if (
                self.params.inject_abort_after is not None
                and len(executed) >= self.params.inject_abort_after
            ):
                raise FleetAborted(self.name, len(executed))

        on_event = (
            self.live.ingest_event if self.live is not None else None
        )
        if todo:
            pool.map(todo, on_result, on_event)
        elif self._store is not None:
            # Refresh the stats when every unit was restored: `repro
            # fleet status` labels each unit's origin from the *latest*
            # run's `executed_ids`, which would otherwise still
            # describe the run that executed them.
            self._store.save(completed, stats=run_stats())

        by_id: Dict[str, UnitResult] = {}
        for index, unit in enumerate(self.units):
            prior = executed.get(unit.unit_id)
            if prior is not None:
                by_id[unit.unit_id] = UnitResult(
                    unit_id=unit.unit_id, index=index, value=prior.value,
                    attempts=prior.attempts, worker=prior.worker,
                )
            else:
                by_id[unit.unit_id] = UnitResult(
                    unit_id=unit.unit_id, index=index,
                    value=completed[unit.unit_id],
                    attempts=0, worker=FROM_CHECKPOINT,
                )
        outcome = FleetOutcome(
            name=self.name,
            results=merge_results(self.units, by_id),
            jobs=jobs,
            resumed_units=resumed,
            executed_units=len(executed),
            retries=pool.retries - base_retries,
            serial_fallbacks=pool.serial_fallbacks - base_fallbacks,
        )
        self._publish(outcome)
        log.info("%s", outcome.summary())
        return outcome

    # ------------------------------------------------------------------

    def _publish(self, outcome: FleetOutcome) -> None:
        """Fold the run's tallies into an attached telemetry session."""
        if self.telemetry is None:
            return
        metrics = self.telemetry.metrics
        metrics.counter("fleet.units_total").inc(len(outcome.results))
        metrics.counter("fleet.units_executed").inc(
            outcome.executed_units
        )
        metrics.counter("fleet.units_resumed").inc(outcome.resumed_units)
        metrics.counter("fleet.retries").inc(outcome.retries)
        metrics.counter("fleet.serial_fallbacks").inc(
            outcome.serial_fallbacks
        )
        metrics.gauge("fleet.jobs").set(outcome.jobs)
        if self.live is not None:
            metrics.counter("live.dropped_events").inc(
                self.live.dropped_events
            )


def run_grid(
    name: str,
    units: Sequence[WorkUnit],
    seed: int,
    jobs: int = 1,
    checkpoint: Optional[Union[str, Path]] = None,
    resume: bool = False,
    telemetry: Any = None,
    merged_telemetry: Optional[List[Dict]] = None,
    live: Optional[LiveAggregator] = None,
) -> FleetOutcome:
    """Execute one experiment grid as a fleet run.

    The fleet owns per-unit telemetry: when ``merged_telemetry`` or
    ``live`` will consume it, every unit runs with a fresh session
    (:attr:`WorkUnit.with_telemetry`), so a cell takes a
    ``telemetry=None`` keyword and never exports it itself.
    ``merged_telemetry``, when given a list, receives the unit
    telemetry merged into one canonical session log
    (:func:`~repro.fleet.shard.merge_unit_telemetry`).  ``live`` streams
    worker events, and each unit's counters and drift instants, into a
    :class:`LiveAggregator` mid-run.  ``telemetry`` receives the
    run's ``fleet.*`` tallies.
    """
    if merged_telemetry is not None or live is not None:
        units = [replace(unit, with_telemetry=True) for unit in units]
    outcome = FleetRun(
        name,
        units,
        FleetParams(checkpoint=checkpoint, resume=resume),
        seed=seed,
        telemetry=telemetry,
        live=live,
        pool=PoolParams(jobs=jobs),
    ).execute()
    if merged_telemetry is not None:
        merged_telemetry.extend(merge_unit_telemetry(outcome.results))
    return outcome
