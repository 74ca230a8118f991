"""The single pool lifecycle: workers start on demand, persist, close.

A ``FleetPool`` starts workers for its first multi-process map, keeps
them across later maps until ``close()``, and runs any map of
``min(jobs, len(units)) <= 1`` in-process.  ``FleetRun`` without a
shared pool opens a private one and closes it on every exit path; the
``repro.server`` daemon holds one for its lifetime and runs every
``whatif`` probe on it.  Results are bit-equal to serial execution
either way.
"""

import multiprocessing as mp
import os

import pytest

from repro.fleet import (
    FleetAborted,
    FleetParams,
    FleetPool,
    FleetRun,
    PoolParams,
    UnitFailed,
    WorkUnit,
    unit_seed,
)
from repro.fleet.pool import EVENT_QUEUE_CAP
from repro.telemetry.live import emit

HAVE_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")

FORK2 = PoolParams(jobs=2, start_method="fork")


def worker_pid(unit_id: str) -> int:
    return os.getpid()


def seeded_cell(unit_id: str, seed: int) -> dict:
    return {"unit": unit_id, "draw": unit_seed(unit_id, seed=seed) % 1000}


def event_burst(unit_id: str, n: int) -> str:
    """Emit ``n`` quantum events, then return at once."""
    for index in range(n):
        emit("quantum", index=index, pad="x" * 200)
    return unit_id


def failing_unit(unit_id: str) -> None:
    raise RuntimeError(f"unit {unit_id} is broken")


def pid_units(tag: str, n: int):
    return [
        WorkUnit(f"{tag}-{i}", worker_pid, {"unit_id": f"{tag}-{i}"})
        for i in range(n)
    ]


def cell_units(tag: str, n: int, seed: int = 7):
    return [
        WorkUnit(f"{tag}-{i}", seeded_cell,
                 {"unit_id": f"{tag}-{i}", "seed": seed})
        for i in range(n)
    ]


def child_pids() -> set:
    return {child.pid for child in mp.active_children()}


@needs_fork
class TestWorkerReuse:
    def test_same_worker_pids_across_map_calls(self):
        with FleetPool(FORK2) as pool:
            first = {r.value for r in pool.map(pid_units("a", 4))}
            second = {r.value for r in pool.map(pid_units("b", 4))}
        assert first == second
        assert os.getpid() not in first

    def test_results_match_serial_execution(self):
        with FleetPool(PoolParams(jobs=1)) as pool:
            serial = pool.map(cell_units("x", 6))
        with FleetPool(PoolParams(jobs=3, start_method="fork")) as pool:
            alive = pool.map(cell_units("x", 6))
        assert [r.value for r in alive] == [r.value for r in serial]

    def test_single_unit_map_runs_in_process_on_a_started_pool(self):
        with FleetPool(FORK2) as pool:
            pool.map(pid_units("a", 2))
            (only,) = pool.map(pid_units("b", 1))
        assert only.worker == "serial"
        assert only.value == os.getpid()

    def test_only_the_streaming_map_reaches_its_callback(self):
        events = []
        with FleetPool(FORK2) as pool:
            quiet = pool.map(pid_units("quiet", 4))
            loud = pool.map(pid_units("loud", 4), on_event=events.append)
        loud_ids = {f"loud-{i}" for i in range(4)}
        assert {e["unit"] for e in events} == loud_ids
        # Every unit's last event arrived before map() returned.
        finished = {e["unit"] for e in events if e["kind"] == "unit_finished"}
        assert finished == loud_ids
        assert {r.value for r in quiet} == {r.value for r in loud}

    def test_streaming_map_returns_with_all_of_its_events(self):
        # A burst right before returning leaves events in the worker's
        # queue buffer after the result has gone; the map must wait
        # for them rather than hand them to the next map.
        n = EVENT_QUEUE_CAP // 3
        with FleetPool(FORK2) as pool:
            for tag in ("a", "b", "c"):
                events = []
                units = [
                    WorkUnit(f"{tag}-{i}", event_burst,
                             {"unit_id": f"{tag}-{i}", "n": n})
                    for i in range(2)
                ]
                pool.map(units, on_event=events.append)
                for unit in units:
                    mine = [e for e in events if e["unit"] == unit.unit_id]
                    kinds = [e["kind"] for e in mine]
                    assert kinds.count("quantum") == n
                    assert kinds[-1] == "unit_finished"
                assert {e["unit"] for e in events} == {
                    unit.unit_id for unit in units
                }

    def test_failed_map_stops_its_workers_and_the_pool_recovers(self):
        before = child_pids()
        with FleetPool(FORK2) as pool:
            first = {r.value for r in pool.map(pid_units("a", 2))}
            broken = pid_units("b", 2) + [
                WorkUnit("bad", failing_unit, {"unit_id": "bad"})
            ]
            with pytest.raises(UnitFailed):
                pool.map(broken)
            assert child_pids() == before
            again = pool.map(cell_units("x", 4))
            fresh = {r.value for r in pool.map(pid_units("c", 2))}
        assert [r.value for r in again] == [
            seeded_cell(f"x-{i}", 7) for i in range(4)
        ]
        assert first.isdisjoint(fresh)


class TestCloseSemantics:
    def test_map_after_close_raises(self):
        pool = FleetPool(PoolParams(jobs=1))
        pool.close()
        with pytest.raises(ValueError, match="closed pool"):
            pool.map(cell_units("x", 1))

    def test_close_is_idempotent(self):
        pool = FleetPool(PoolParams(jobs=1))
        pool.close()
        pool.close()

    @needs_fork
    def test_close_reaps_persistent_workers(self):
        pool = FleetPool(FORK2)
        pool.map(pid_units("a", 2))
        workers = list(pool._workers)
        assert all(w.process.is_alive() for w in workers)
        pool.close()
        for worker in workers:
            worker.process.join(timeout=30)
        assert not any(w.process.is_alive() for w in workers)


@needs_fork
class TestPrivatePool:
    def test_execute_leaves_no_child_processes(self):
        before = child_pids()
        outcome = FleetRun(
            "private", pid_units("p", 4), seed=7, pool=FORK2,
        ).execute()
        assert os.getpid() not in outcome.values()
        assert child_pids() == before

    def test_aborted_execute_leaves_no_child_processes(self, tmp_path):
        before = child_pids()
        params = FleetParams(
            checkpoint=tmp_path / "ck.json", inject_abort_after=1,
        )
        with pytest.raises(FleetAborted):
            FleetRun(
                "private", pid_units("p", 4), params, seed=7, pool=FORK2,
            ).execute()
        assert child_pids() == before


@needs_fork
class TestSharedAcrossFleetRuns:
    def test_two_runs_share_one_pool(self):
        with FleetPool(FORK2) as pool:
            first = FleetRun(
                "ka-one", cell_units("p", 4), seed=7, pool=pool,
            ).execute()
            second = FleetRun(
                "ka-two", cell_units("q", 4), seed=7, pool=pool,
            ).execute()
        solo = FleetRun("ka-one", cell_units("p", 4), seed=7, pool=FORK2)
        assert [r.value for r in first.results] == [
            r.value for r in solo.execute().results
        ]
        # Shared-pool tallies are reported per run, not cumulatively.
        assert first.retries == 0 and second.retries == 0
