"""What-if evaluation: dry-run admission plus a fleet-backed probe.

The ``whatif`` op answers two questions without touching live state:

* *Would this job be admitted right now?* — a pure dry run against the
  admission ledger (no counters move, nothing enqueues).

* *What would each candidate batch app cost?* — a short standalone
  probe of each app on the daemon's shared
  :class:`~repro.fleet.pool.FleetPool`.  The pool's workers persist
  across successive what-if calls (and across the ``FleetRun``
  instances that ride them), so the per-call cost is one map, not one
  pool spawn.  A probe of one app, or any probe on a one-job pool,
  runs in-process in the caller's thread.

Worker purity (FLT501) still holds: :func:`probe_app` is a module-level
function of its kwargs alone, so results are identical whether the map
runs in-process, on fresh workers, or on reused ones.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.fleet.pool import FleetPool, PoolParams
from repro.fleet.runner import FleetRun
from repro.fleet.shard import WorkUnit
from repro.server.admission import JobQueueManager, JobSpec

__all__ = ["dry_run_admission", "probe_app", "run_whatif"]


def dry_run_admission(
    admission: JobQueueManager, spec: JobSpec
) -> Dict[str, Any]:
    """Admission verdict for ``spec`` with zero side effects."""
    reason = admission._static_rejection(spec)
    if reason is not None:
        return {"admissible": False, "verdict": "reject", "reason": reason}
    block = admission._capacity_block(spec)
    if block is not None:
        return {
            "admissible": False,
            "verdict": "queue",
            "reason": block,
            "estimate_w": admission._estimate_w(spec),
        }
    return {
        "admissible": True,
        "verdict": "admit",
        "estimate_w": admission._estimate_w(spec),
    }


def probe_app(mix: int, seed: int, app: str, n_slices: int) -> Dict[str, Any]:
    """Standalone short run of one batch app on the mix's machine.

    Module-level and a pure function of its arguments — the FLT501
    contract that makes it safe to execute on any worker, including a
    reused one.
    """
    # Imported here so a forked worker resolves everything fresh.
    from repro.core.runtime import CuttleSysPolicy
    from repro.experiments.harness import (
        build_machine_for_mix,
        run_policy,
    )
    from repro.workloads.batch import batch_profile
    from repro.workloads.mixes import paper_mixes

    the_mix = paper_mixes()[mix]
    machine = build_machine_for_mix(the_mix, seed=seed)
    profile = batch_profile(app)
    for slot in range(len(machine.batch_profiles)):
        machine.replace_batch_job(slot, profile)
    policy = CuttleSysPolicy.for_machine(machine, seed=seed)

    class _Flat:
        def load_at(self, t: float) -> float:
            return 0.5

    run = run_policy(machine, policy, _Flat(), n_slices=n_slices)
    bips = [
        float(np.sum(m.batch_bips)) for m in run.measurements
    ]
    return {
        "app": app,
        "mean_batch_bips": float(np.mean(bips)) if bips else 0.0,
        "mean_power_w": float(np.mean(
            [m.total_power for m in run.measurements]
        )) if run.measurements else 0.0,
        "qos_violations": run.qos_violations(),
    }


def run_whatif(
    pool: Optional[FleetPool],
    mix: int,
    seed: int,
    apps: List[str],
    n_slices: int = 3,
    telemetry: Any = None,
) -> List[Dict[str, Any]]:
    """Probe ``apps`` as a fleet on ``pool`` (in-process without one)."""
    units = [
        WorkUnit(
            unit_id=f"whatif-{app}",
            fn=probe_app,
            kwargs={
                "mix": mix, "seed": seed, "app": app,
                "n_slices": n_slices,
            },
        )
        for app in apps
    ]
    run = FleetRun(
        "server-whatif",
        units,
        seed=seed,
        telemetry=telemetry,
        pool=pool if pool is not None else PoolParams(),
    )
    outcome = run.execute()
    return list(outcome.values())
