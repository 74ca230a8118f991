"""Tests for the fleet's live event bus and the live view it feeds.

Two contracts:

* **Streaming never changes results.**  A run with an event consumer
  attached produces byte-identical unit values to one without; events
  are observability only.
* **The live view sees every unit.**  A ``LiveAggregator`` fed through
  ``FleetRun(live=...)`` ends the run with every unit done and the
  counter totals of the merged log — for serial and multi-process
  execution alike.
"""

import multiprocessing as mp
import os

import pytest

from repro.fleet import (
    FleetParams,
    FleetPool,
    FleetRun,
    PoolParams,
    WorkUnit,
    inspect_checkpoint,
    merge_unit_telemetry,
    run_grid,
)
from repro.telemetry.live import LiveAggregator

HAVE_FORK = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAVE_FORK, reason="no fork start method")


def telemetry_unit(unit_id: str, power: float) -> dict:
    """A unit value carrying a small deterministic telemetry shard."""
    return {
        "power": power,
        "telemetry": [
            {"type": "counter", "name": "power_sum_w", "value": power},
            {"type": "counter", "name": "unit.runs", "value": 1},
            {
                "type": "decision",
                "quantum": 0,
                "predicted_power_w": power + 1.0,
                "measured_power_w": power,
                "measured_p99_s": [0.005],
            },
        ],
    }


def crash_once(flag_path: str, payload: int) -> int:
    if os.path.exists(flag_path):
        return payload
    with open(flag_path, "w") as handle:
        handle.write("attempted")
    os._exit(13)


def make_units(n: int):
    return [
        WorkUnit(f"unit-{i}", telemetry_unit,
                 {"unit_id": f"unit-{i}", "power": 0.1 * (i + 1)})
        for i in range(n)
    ]


class TestPoolEvents:
    def test_serial_lifecycle_events(self):
        events = []
        results = FleetPool(PoolParams(jobs=1)).map(
            make_units(3), on_event=events.append
        )
        assert len(results) == 3
        kinds = [(e["kind"], e["unit"]) for e in events]
        for i in range(3):
            assert ("unit_started", f"unit-{i}") in kinds
            assert ("unit_finished", f"unit-{i}") in kinds
        assert all(e["worker"] == "serial" for e in events)
        finished = [e for e in events if e["kind"] == "unit_finished"]
        assert all(e["ok"] and e["dropped"] == 0 for e in finished)

    def test_streaming_does_not_change_results(self):
        silent = FleetPool(PoolParams(jobs=1)).map(make_units(3))
        streamed = FleetPool(PoolParams(jobs=1)).map(
            make_units(3), on_event=lambda event: None
        )
        assert [r.value for r in silent] == [r.value for r in streamed]

    @needs_fork
    def test_parallel_lifecycle_events(self):
        events = []
        with FleetPool(PoolParams(jobs=2, start_method="fork")) as pool:
            results = pool.map(make_units(4), on_event=events.append)
        assert [r.unit_id for r in results] == [
            f"unit-{i}" for i in range(4)
        ]
        finished = {
            e["unit"]: e for e in events if e["kind"] == "unit_finished"
        }
        assert sorted(finished) == [f"unit-{i}" for i in range(4)]
        assert all(e["ok"] and e["dropped"] == 0
                   for e in finished.values())
        assert all(e.get("worker") for e in events)

    @needs_fork
    def test_worker_death_emits_retry_event(self, tmp_path):
        events = []
        flag = str(tmp_path / "crashed")
        units = [
            WorkUnit("crasher", crash_once,
                     {"flag_path": flag, "payload": 42}),
        ] + make_units(2)
        with FleetPool(PoolParams(jobs=2, start_method="fork")) as pool:
            results = pool.map(units, on_event=events.append)
        assert results[0].value == 42
        retries = [e for e in events if e["kind"] == "unit_retry"]
        assert len(retries) == 1
        assert retries[0]["unit"] == "crasher"
        assert retries[0]["attempt"] == 1  # the attempt that died
        assert pool.retries == 1


def merged_counters(results) -> dict:
    return {
        rec["name"]: rec["value"]
        for rec in merge_unit_telemetry(results)
        if rec["type"] == "counter"
    }


class TestLiveRunEndToEnd:
    def run_with_live(self, jobs: int) -> None:
        pool = PoolParams(jobs=jobs)
        if jobs > 1:
            if not HAVE_FORK:
                pytest.skip("no fork start method")
            pool = PoolParams(jobs=jobs, start_method="fork")
        live = LiveAggregator()
        outcome = FleetRun(
            "stream-test", make_units(4), seed=7, live=live, pool=pool,
        ).execute()
        assert live.counter_totals == pytest.approx(
            merged_counters(outcome.results)
        )
        assert live.dropped_events == 0
        done = [s for s in live.units.values() if s["state"] == "done"]
        assert len(done) == 4

    def test_serial(self):
        self.run_with_live(jobs=1)

    def test_parallel(self):
        self.run_with_live(jobs=2)

    def test_resume_folds_checkpointed_telemetry(self, tmp_path):
        path = tmp_path / "ckpt.json"
        FleetRun(
            "stream-test", make_units(4),
            FleetParams(checkpoint=path), seed=7,
        ).execute()
        live = LiveAggregator()
        outcome = FleetRun(
            "stream-test", make_units(4),
            FleetParams(checkpoint=path, resume=True), seed=7,
            live=live,
        ).execute()
        assert outcome.resumed_units == 4
        assert live.counter_totals == pytest.approx(
            merged_counters(outcome.results)
        )
        assert all(s["worker"] == "checkpoint"
                   for s in live.units.values())

    def test_checkpoint_carries_run_stats(self, tmp_path):
        path = tmp_path / "ckpt.json"
        FleetRun(
            "stream-test", make_units(2),
            FleetParams(checkpoint=path), seed=7,
        ).execute()
        payload = inspect_checkpoint(path)
        assert payload["stats"] == {
            "jobs": 1, "executed": 2,
            "executed_ids": ["unit-0", "unit-1"], "resumed": 0,
            "retries": 0, "serial_fallbacks": 0,
        }
        # Additive only: schema and load behaviour are untouched.
        assert payload["schema"] == 1


class TestStudyStreaming:
    def test_fault_study_streams(self):
        from repro.experiments.fault_study import run_fault_study
        from repro.faults import default_scenarios

        live = LiveAggregator()
        outcomes = run_fault_study(
            n_slices=2, seed=7,
            scenarios=default_scenarios(7)[:1], live=live,
        )
        assert len(outcomes) == 2  # hardened + unhardened
        assert live.counter_totals  # unit telemetry was collected
        states = {s["state"] for s in live.units.values()}
        assert states == {"done"}


class TestRunGrid:
    @pytest.mark.parametrize("case", ["merged-only", "live-only", "both"])
    def test_consumers_collect_unit_telemetry(self, case):
        merged = [] if case in ("merged-only", "both") else None
        live = LiveAggregator() if case != "merged-only" else None
        collected = []

        def units(collect):
            collected.append(collect)
            return make_units(3)

        outcome = run_grid(
            "grid-test", units, seed=7, context={},
            merged_telemetry=merged, live=live,
        )
        assert collected == [True]
        if merged is not None:
            assert merged == merge_unit_telemetry(outcome.results)
        if live is not None:
            assert live.counter_totals["unit.runs"] == 3

    def test_no_consumer_skips_unit_telemetry(self):
        collected = []

        def units(collect):
            collected.append(collect)
            return make_units(2)

        outcome = run_grid("grid-test", units, seed=7, context={})
        assert collected == [False]
        assert len(outcome.results) == 2
