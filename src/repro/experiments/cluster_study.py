"""Extension study: rack-level power brokering over CuttleSys sockets.

The paper assumes each server's budget comes from "a global power
manager running datacenter-wide" (§I) but evaluates a single server.
This study closes the loop: two CuttleSys-managed sockets share one
rack budget while their LC loads move in *anti-phase* (one peaks as the
other troughs).  A static 50/50 split strands power on the idle socket;
the :class:`~repro.core.broker.PowerBroker` shifts budget toward the
loaded socket each quantum.

Fleet sharding: the broker rebalances budget across *both* sockets
every quantum, so the sockets of one scheme are coupled and cannot be
sharded independently.  The two allocation *schemes*, however, are
fully independent full-rack simulations, so the study shards at the
scheme level (:func:`cluster_units`) and merges outcomes in scheme
order — ``--jobs 2`` output is byte-identical to serial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.broker import BrokerParams, PowerBroker, Socket
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import build_machine_for_mix
from repro.experiments.reporting import format_table
from repro.fleet import WorkUnit, run_grid
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes

#: Allocation schemes compared by the study, in report order.
SCHEMES: Tuple[str, ...] = ("static-50-50", "broker")


@dataclass(frozen=True)
class ClusterOutcome:
    """One (allocation scheme) row of the study."""

    scheme: str
    rack_instructions_b: float
    qos_violations: int
    #: (min, max) budget seen by socket A, watts.
    socket_a_budget_range: Tuple[float, float]


def _build_sockets(seed: int, n_slices: int):
    from repro.sim.machine import Machine
    from repro.workloads.batch import batch_profile, train_test_split
    from repro.workloads.latency_critical import lc_service

    mixes = paper_mixes()
    mix_a = mixes[0]    # xapian, full 16-job batch complement
    machine_a = build_machine_for_mix(mix_a, seed=seed)
    # Socket B is under-populated (8 batch jobs): once they run wide it
    # cannot productively spend more power — the slack a rack-level
    # manager should harvest.
    _, test_names = train_test_split()
    machine_b = Machine(
        lc_service=lc_service("silo"),
        batch_profiles=[batch_profile(n) for n in test_names[:8]],
        seed=seed + 1,
    )
    period = n_slices * 0.1
    trace_a = LoadTrace.diurnal(low=0.2, high=0.9, period=period)
    trace_b = LoadTrace.constant(0.3)
    sockets = [
        Socket("socket-a", machine_a,
               CuttleSysPolicy.for_machine(machine_a, seed=seed), trace_a),
        Socket("socket-b", machine_b,
               CuttleSysPolicy.for_machine(machine_b, seed=seed + 1),
               trace_b),
    ]
    rack_budget = 0.60 * (
        machine_a.reference_max_power() + machine_b.reference_max_power()
    )
    qos = {
        "socket-a": machine_a.lc_service.qos_latency_s,
        "socket-b": machine_b.lc_service.qos_latency_s,
    }
    return sockets, rack_budget, qos


def _scheme_cell(
    scheme: str, n_slices: int, seed: int, telemetry: Any = None
) -> Dict[str, Any]:
    """One scheme's full rack simulation as a JSONable fleet unit.

    Top-level so worker processes can unpickle it by reference; returns
    plain JSON types so the value checkpoints and merges exactly.
    """
    if scheme == "static-50-50":
        params = BrokerParams(step=1e-9)  # effectively frozen
    elif scheme == "broker":
        params = BrokerParams()
    else:
        raise ValueError(f"unknown allocation scheme {scheme!r}")
    sockets, rack_budget, qos = _build_sockets(seed, n_slices)
    if telemetry is not None:
        for socket in sockets:
            socket.machine.attach_telemetry(telemetry)
    broker = PowerBroker(sockets, rack_budget, params)
    run = broker.run(n_slices)
    series = run.budget_series("socket-a")
    cell: Dict[str, Any] = {
        "scheme": scheme,
        "rack_instructions_b": run.total_batch_instructions() / 1e9,
        "qos_violations": run.qos_violations(qos),
        "socket_a_budget_range": [min(series), max(series)],
    }
    if telemetry is not None:
        telemetry.counter("cluster.qos_violations").inc(
            run.qos_violations(qos)
        )
    return cell


def cluster_units(n_slices: int, seed: int) -> List[WorkUnit]:
    """The study's fleet work units, one per allocation scheme."""
    return [
        WorkUnit(
            unit_id=f"cluster/{scheme}",
            fn=_scheme_cell,
            kwargs={"scheme": scheme, "n_slices": n_slices, "seed": seed},
        )
        for scheme in SCHEMES
    ]


def outcomes_from_cells(cells: List[Dict[str, Any]]) -> Dict[str, ClusterOutcome]:
    """Rehydrate :class:`ClusterOutcome` rows from unit cell dicts."""
    results: Dict[str, ClusterOutcome] = {}
    for cell in cells:
        lo, hi = cell["socket_a_budget_range"]
        results[cell["scheme"]] = ClusterOutcome(
            scheme=cell["scheme"],
            rack_instructions_b=cell["rack_instructions_b"],
            qos_violations=cell["qos_violations"],
            socket_a_budget_range=(lo, hi),
        )
    return results


def run_cluster_study(
    n_slices: int = 20,
    seed: int = 7,
    **fleet: Any,
) -> Dict[str, ClusterOutcome]:
    """Static 50/50 split vs dynamic brokering over two sockets.

    ``fleet`` takes the execution and telemetry keywords of
    :func:`repro.fleet.run_grid`.
    """
    outcome = run_grid(
        "cluster_study",
        cluster_units(n_slices, seed),
        seed=seed, **fleet,
    )
    return outcomes_from_cells(outcome.values())


def render_cluster_study(results: Dict[str, ClusterOutcome]) -> str:
    """Text table of the rack-level study."""
    rows = []
    for outcome in results.values():
        lo, hi = outcome.socket_a_budget_range
        rows.append(
            (
                outcome.scheme,
                f"{outcome.rack_instructions_b:.2f}",
                outcome.qos_violations,
                f"{lo:.1f}-{hi:.1f} W",
            )
        )
    gain = (
        results["broker"].rack_instructions_b
        / max(results["static-50-50"].rack_instructions_b, 1e-9)
    )
    return (
        format_table(
            ["scheme", "rack batch instr (B)", "QoS viol.",
             "socket-a budget range"],
            rows,
        )
        + f"\nDynamic brokering: {gain:.2f}x the static split's rack work."
    )
