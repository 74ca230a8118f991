"""Deterministic parallel execution of independent simulation work.

``repro.fleet`` shards embarrassingly parallel simulation work —
scheme arms of the brokered rack study, (n_cores, arm) cells of the
scalability grid, sections of the full evaluation — across worker
processes while keeping output *byte-identical* to a serial run.

The determinism contract (docs/scaling.md) has three legs:

1. **Self-contained units.**  A :class:`WorkUnit` is a picklable
   ``(fn, kwargs)`` pair; every random stream it needs derives from its
   arguments via :func:`repro.rng.rng_for` (see :func:`unit_seed`), and
   units never touch process-global mutable state — enforced by the
   ``FLT501`` lint rule.
2. **Stable-order merge.**  Results and telemetry are merged in unit
   order, never completion order (:func:`merge_results`,
   :func:`merge_unit_telemetry`).
3. **Exact value transport.**  Unit values and checkpoints travel as
   JSON, whose float ``repr`` round-trips exactly — so ``--jobs N``,
   ``--jobs 1``, and a killed-then-``--resume``\\ d run all render the
   same bytes.

Entry points: :func:`run_grid` for experiment grids (the
``--jobs``/``--checkpoint``/``--resume`` flags of ``repro experiment``,
``report``, ``fault-study`` and ``chaos``), :class:`FleetRun` for a
run on a caller-owned pool, and ``repro fleet status`` to inspect a
checkpoint file.  ``run_grid`` declares the grid keywords (``jobs``,
``checkpoint``, ``resume``, ``telemetry``, ``merged_telemetry``,
``live``) once; each grid's ``run_*`` function forwards them as
``**fleet``.  The fleet also owns per-unit telemetry: when
``merged_telemetry`` or ``live`` consumes it, each unit's cell is
called with a fresh session as ``telemetry`` and its records travel
back in the unit value.
"""

from repro.fleet.checkpoint import (
    CheckpointError,
    CheckpointStore,
    inspect_checkpoint,
)
from repro.fleet.pool import (
    FleetError,
    FleetPool,
    PoolParams,
    UnitFailed,
    WorkerDied,
)
from repro.fleet.runner import (
    FleetAborted,
    FleetOutcome,
    FleetParams,
    FleetRun,
    run_grid,
)
from repro.fleet.shard import (
    FROM_CHECKPOINT,
    UnitResult,
    WorkUnit,
    merge_results,
    merge_unit_telemetry,
    unit_seed,
    unit_telemetry,
)

__all__ = [
    "CheckpointError",
    "CheckpointStore",
    "FROM_CHECKPOINT",
    "FleetAborted",
    "FleetError",
    "FleetOutcome",
    "FleetParams",
    "FleetPool",
    "FleetRun",
    "PoolParams",
    "UnitFailed",
    "UnitResult",
    "WorkUnit",
    "WorkerDied",
    "inspect_checkpoint",
    "merge_results",
    "merge_unit_telemetry",
    "run_grid",
    "unit_seed",
    "unit_telemetry",
]
