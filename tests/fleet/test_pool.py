"""Tests for the worker pool: determinism, failure containment, retry.

Unit functions live at module top level so forked worker processes can
unpickle them by reference; the crash tests pin ``start_method="fork"``
(always available on the Linux CI runners) for the same reason.
"""

import multiprocessing as mp
import os

import pytest

from repro.fleet import (
    FleetPool,
    PoolParams,
    UnitFailed,
    WorkUnit,
    WorkerDied,
    unit_seed,
)

HAVE_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")


def seeded_value(unit_id: str, seed: int) -> dict:
    stream_seed = unit_seed(unit_id, seed=seed)
    return {"unit": unit_id, "draw": stream_seed % 1000}


def failing_unit(unit_id: str) -> None:
    raise RuntimeError(f"unit {unit_id} is broken")


def crash_once(flag_path: str, payload: int) -> int:
    """Dies with os._exit on the first attempt, succeeds on the second."""
    if os.path.exists(flag_path):
        return payload
    with open(flag_path, "w") as handle:
        handle.write("attempted")
    os._exit(13)


def crash_always(payload: int) -> int:
    os._exit(13)


def make_units(n: int, seed: int = 7):
    return [
        WorkUnit(f"unit-{i}", seeded_value,
                 {"unit_id": f"unit-{i}", "seed": seed})
        for i in range(n)
    ]


class TestSerial:
    def test_results_in_unit_order(self):
        results = FleetPool(PoolParams(jobs=1)).map(make_units(4))
        assert [r.unit_id for r in results] == [f"unit-{i}" for i in range(4)]
        assert all(r.worker == "serial" and r.attempts == 1 for r in results)

    def test_unit_exception_wrapped(self):
        units = [WorkUnit("bad", failing_unit, {"unit_id": "bad"})]
        with pytest.raises(UnitFailed) as excinfo:
            FleetPool(PoolParams(jobs=1)).map(units)
        assert excinfo.value.unit_id == "bad"
        assert "broken" in str(excinfo.value)

    def test_duplicate_unit_ids_rejected(self):
        units = [
            WorkUnit("same", seeded_value, {"unit_id": "same", "seed": 1}),
            WorkUnit("same", seeded_value, {"unit_id": "same", "seed": 2}),
        ]
        with pytest.raises(ValueError, match="unique"):
            FleetPool(PoolParams(jobs=1)).map(units)

    def test_on_result_fires_per_unit(self):
        seen = []
        FleetPool(PoolParams(jobs=1)).map(
            make_units(3), on_result=lambda r: seen.append(r.unit_id)
        )
        assert seen == ["unit-0", "unit-1", "unit-2"]


@needs_fork
class TestParallel:
    def test_matches_serial_results(self):
        units = make_units(6)
        serial = FleetPool(PoolParams(jobs=1)).map(units)
        with FleetPool(PoolParams(jobs=3, start_method="fork")) as pool:
            parallel = pool.map(units)
        assert [r.value for r in parallel] == [r.value for r in serial]
        assert [r.unit_id for r in parallel] == [r.unit_id for r in serial]

    def test_unit_exception_wrapped_not_retried(self):
        units = make_units(2) + [
            WorkUnit("bad", failing_unit, {"unit_id": "bad"})
        ]
        with FleetPool(PoolParams(jobs=2, start_method="fork")) as pool:
            with pytest.raises(UnitFailed) as excinfo:
                pool.map(units)
        assert excinfo.value.unit_id == "bad"
        assert pool.retries == 0

    def test_worker_death_retries_unit(self, tmp_path):
        flag = tmp_path / "attempted.flag"
        units = [
            WorkUnit("fragile", crash_once,
                     {"flag_path": str(flag), "payload": 99}),
        ] + make_units(2)
        with FleetPool(PoolParams(jobs=2, start_method="fork")) as pool:
            results = pool.map(units)
        fragile = results[0]
        assert fragile.value == 99
        assert fragile.attempts == 2
        assert pool.retries == 1

    def test_worker_death_exhausts_retries(self):
        units = [WorkUnit("doomed", crash_always, {"payload": 1})]
        params = PoolParams(jobs=2, max_retries=1, start_method="fork")
        with FleetPool(params) as pool:
            with pytest.raises(WorkerDied) as excinfo:
                pool.map(units + make_units(1))
        assert excinfo.value.unit_id == "doomed"
        assert excinfo.value.attempts == 2


class TestDegradation:
    def test_bad_start_method_falls_back_to_serial(self):
        pool = FleetPool(PoolParams(jobs=2, start_method="no-such-method"))
        results = pool.map(make_units(3))
        assert pool.serial_fallbacks == 1
        assert [r.worker for r in results] == ["serial"] * 3

    def test_jobs_capped_to_unit_count_runs_serial(self):
        # One unit on a many-job pool short-circuits to in-process.
        pool = FleetPool(PoolParams(jobs=8))
        results = pool.map(make_units(1))
        assert results[0].worker == "serial"
        assert pool.serial_fallbacks == 0


class TestParams:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PoolParams(jobs=0)
        with pytest.raises(ValueError):
            PoolParams(max_retries=-1)

    def test_resolved_start_method_prefers_fork(self):
        resolved = PoolParams().resolved_start_method()
        assert resolved in ("fork", "spawn")
        if HAVE_FORK:
            assert resolved == "fork"

    def test_empty_unit_id_rejected(self):
        with pytest.raises(ValueError):
            WorkUnit("", seeded_value)
