"""Seeded input generators for the three benchmark workloads.

Each generator is a pure function of the workload seed and returns a
JSON-able dict: the mix, the load trace and the job script the program
is fed.  Everything else (session length, warm-up, digest prefix) is a
constant of the benchmark in ``child.py``, so a seed changes only what
the scheduler sees, never how much of it the benchmark measures.

The shape of every input is fixed and only its values are drawn: the
same number of load steps, bucket crossings, churn events and requests
for every seed.  That keeps run-to-run spread down to the values' effect
rather than to a different amount of work.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

WORKLOADS = ("steady", "churn", "server")

#: Paper mix indices hosting each of the five LC services (xapian,
#: masstree, imgdnn, moses, silo), one fresh controller each in ``churn``.
CHURN_MIXES = (0, 10, 20, 30, 40)
#: Quanta between load steps, and the LOAD_GRID bucket of each step:
#: every step crosses into another bucket, and a session of 40 quanta
#: walks five buckets twice, building its latency regimes on the first
#: pass and mostly reusing them on the second.  About a third of the
#: quanta then build a regime, for every seed: far enough from half that
#: p50 lies among the plain quanta and p90 among the builds, rather
#: than in the gap between them, where it would jump with the draw.  The
#: buckets are fixed and only the level inside each is seeded.
CHURN_STEP_QUANTA = 4
CHURN_BUCKETS = (0.3, 0.7, 0.5, 0.8, 0.4) * 2
#: Quanta between batch-job replacements inside a churn session.
CHURN_PERIOD = 5
#: Half-width of the jitter around a bucket centre; below half the
#: 0.1 grid pitch, so a jittered level never changes bucket.
BUCKET_JITTER = 0.04

#: Ticks (one per round) in one server session.
SERVER_ROUNDS = 50
SERVER_MIX = 0
#: Tenants submitting batch jobs; the LC tenant also submits three batch
#: jobs at boot but never enough to hit its quota, so its LC job is
#: never refused.
BATCH_TENANTS = ("alpha", "beta")
LC_TENANT = "gamma"
#: LOAD_GRID buckets of the LC job's rate, in the order the script sets
#: it (first submission, each ``set_rps``, the resubmission after the
#: cancel).  Fixed, so every seed builds about as many latency regimes
#: (and snapshots about as many latency matrices); the level inside
#: each bucket is seeded.
LC_BUCKETS = (0.5, 0.3, 0.6, 0.4, 0.7, 0.5, 0.3, 0.6, 0.4, 0.7)


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with sha512: stable across Python versions
    # and platforms, unlike hash().
    return random.Random(f"perfbench/{workload}/{seed}")


def _jittered(rng: random.Random, centre: float) -> float:
    return round(centre + rng.uniform(-BUCKET_JITTER, BUCKET_JITTER), 4)


def steady_inputs(seed: int) -> Dict[str, Any]:
    """Mix 0 at one constant load inside the 0.6 bucket."""
    rng = _rng("steady", seed)
    return {"workload": "steady", "mix": 0, "load": _jittered(rng, 0.6)}


def churn_inputs(seed: int) -> Dict[str, Any]:
    """One session per LC service: stepped load plus batch-job churn."""
    rng = _rng("churn", seed)
    sessions: List[Dict[str, Any]] = []
    for mix in CHURN_MIXES:
        loads: List[float] = []
        for centre in CHURN_BUCKETS:
            loads.extend([_jittered(rng, centre)] * CHURN_STEP_QUANTA)
        sessions.append({
            "mix": mix,
            "loads": loads,
            "churn_period": CHURN_PERIOD,
            "churn_seed": rng.randrange(2**31),
        })
    return {"workload": "churn", "sessions": sessions}


def server_inputs(seed: int, batch_apps: List[str],
                  lc_name: str, lc_max_qps: float) -> Dict[str, Any]:
    """A scripted multi-tenant session: one list of requests per round.

    ``batch_apps`` are submitted in turn (the mix's own applications,
    so every seed offers the same work); ``lc_name`` / ``lc_max_qps``
    are the mix's hosted service.  The batch tenants take turns, so every
    seed meets the same tenant quotas; the seed draws priorities, which
    tenant cancels which job, and the LC rate inside each bucket.  Cancels and
    ``set_rps`` name no job id, because ids are assigned by the daemon:
    the client resolves ``pick`` against live jobs when it sends them.
    Two submissions per session are meant to be refused (an unknown app
    and an rps beyond the service's knee) and exercise the rejection
    path without counting as failures.
    """
    rng = _rng("server", seed)
    apps = iter(batch_apps * 4)
    lc_levels = iter(LC_BUCKETS)

    def batch(tenant: str) -> Dict[str, Any]:
        return {"op": "submit", "kind": "batch", "tenant": tenant,
                "name": next(apps), "priority": rng.randrange(3)}

    def lc_rps() -> float:
        return round(_jittered(rng, next(lc_levels)) * lc_max_qps, 1)

    def lc() -> Dict[str, Any]:
        return {"op": "submit", "kind": "lc", "tenant": LC_TENANT,
                "name": lc_name, "rps": lc_rps()}

    rounds: List[List[Dict[str, Any]]] = [[] for _ in range(SERVER_ROUNDS)]
    for tenant in (*BATCH_TENANTS, LC_TENANT):
        rounds[0].extend(batch(tenant) for _ in range(3))
    rounds[0].append(lc())
    for r in range(1, SERVER_ROUNDS):
        if r % 4 == 0:
            tenant = BATCH_TENANTS[r // 4 % len(BATCH_TENANTS)]
            rounds[r].extend(batch(tenant) for _ in range(2))
        if r % 7 == 0:
            rounds[r].append({"op": "cancel", "kind": "batch",
                              "tenant": rng.choice(BATCH_TENANTS),
                              "pick": rng.randrange(8)})
        if r % 6 == 0:
            rounds[r].append({"op": "set_rps", "rps": lc_rps()})
        if r == SERVER_ROUNDS // 2:
            rounds[r].append({"op": "cancel", "kind": "lc", "pick": 0})
        if r == SERVER_ROUNDS // 2 + 2:
            rounds[r].append(lc())
    rounds[1].append({"op": "submit", "kind": "batch",
                      "tenant": rng.choice(BATCH_TENANTS),
                      "name": "no-such-app", "priority": 0})
    rounds[2].append({"op": "submit", "kind": "lc", "tenant": LC_TENANT,
                      "name": lc_name, "rps": lc_max_qps * 2.0})
    return {"workload": "server", "mix": SERVER_MIX, "rounds": rounds}


def make_inputs(workload: str, seed: int) -> Dict[str, Any]:
    """The generated inputs of ``workload`` for ``seed``.

    Needs ``repro`` importable for the server's app catalogue.
    """
    if workload == "steady":
        return steady_inputs(seed)
    if workload == "churn":
        return churn_inputs(seed)
    if workload == "server":
        from repro.workloads.latency_critical import lc_service
        from repro.workloads.mixes import paper_mixes

        mix = paper_mixes()[SERVER_MIX]
        return server_inputs(
            seed, [str(name) for name in mix.batch_names], mix.lc_name,
            lc_service(mix.lc_name).max_qps,
        )
    raise ValueError(f"unknown workload {workload!r}")
