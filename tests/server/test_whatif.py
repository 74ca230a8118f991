"""What-if probes of candidate batch apps on the daemon's shared pool.

The daemon runs every ``whatif`` with an ``apps`` list on one
long-lived :class:`~repro.fleet.pool.FleetPool`.  Successive probes on
that pool must answer exactly what an in-process probe answers.
"""

import multiprocessing as mp

import pytest

from repro.fleet import FleetPool, PoolParams
from repro.server.whatif import run_whatif

HAVE_FORK = "fork" in mp.get_all_start_methods()

APPS = ["mcf", "gcc"]


@pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")
def test_probes_on_a_shared_pool_match_in_process():
    solo = run_whatif(None, mix=0, seed=7, apps=APPS, n_slices=1)
    assert [probe["app"] for probe in solo] == APPS
    with FleetPool(PoolParams(jobs=2, start_method="fork")) as pool:
        first = run_whatif(pool, mix=0, seed=7, apps=APPS, n_slices=1)
        second = run_whatif(pool, mix=0, seed=7, apps=APPS, n_slices=1)
    assert first == solo
    assert second == solo
