"""Tests for the fleet's live event bus and incremental telemetry merge.

Two contracts:

* **Streaming never changes results.**  A run with an event consumer
  attached produces byte-identical unit values to one without; events
  are observability only.
* **Incremental == post-hoc.**  A ``LiveAggregator`` fed through
  ``FleetRun(live=...)`` ends the run holding exactly the records
  ``merge_unit_telemetry`` would produce from the same results — for
  serial and multi-process execution alike.
"""

import json
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
    # Float values chosen so summation order is observable: the
    # incremental counter fold must match merge_jsonl bit for bit.
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
        results = FleetPool(
            PoolParams(jobs=2, start_method="fork")
        ).map(make_units(4), on_event=events.append)
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
        pool = FleetPool(PoolParams(jobs=2, start_method="fork"))
        units = [
            WorkUnit("crasher", crash_once,
                     {"flag_path": flag, "payload": 42}),
        ] + make_units(2)
        results = pool.map(units, on_event=events.append)
        assert results[0].value == 42
        retries = [e for e in events if e["kind"] == "unit_retry"]
        assert len(retries) == 1
        assert retries[0]["unit"] == "crasher"
        assert retries[0]["attempt"] == 1  # the attempt that died
        assert pool.retries == 1


class TestIncrementalMergeEndToEnd:
    def run_with_live(self, jobs: int) -> None:
        params = FleetParams(jobs=jobs)
        if jobs > 1:
            if not HAVE_FORK:
                pytest.skip("no fork start method")
            params = FleetParams(jobs=jobs, start_method="fork")
        live = LiveAggregator()
        outcome = FleetRun(
            "stream-test", make_units(4), params, seed=7, live=live,
        ).execute()
        posthoc = merge_unit_telemetry(outcome.results)
        streamed = live.merged_records()
        assert streamed == posthoc
        assert (
            [json.dumps(r, sort_keys=True) for r in streamed]
            == [json.dumps(r, sort_keys=True) for r in posthoc]
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
            FleetParams(jobs=1, checkpoint=path), seed=7,
        ).execute()
        live = LiveAggregator()
        outcome = FleetRun(
            "stream-test", make_units(4),
            FleetParams(jobs=1, checkpoint=path, resume=True), seed=7,
            live=live,
        ).execute()
        assert outcome.resumed_units == 4
        assert live.merged_records() == merge_unit_telemetry(
            outcome.results
        )
        assert all(s["worker"] == "checkpoint"
                   for s in live.units.values())

    def test_checkpoint_carries_run_stats(self, tmp_path):
        path = tmp_path / "ckpt.json"
        FleetRun(
            "stream-test", make_units(2),
            FleetParams(jobs=1, checkpoint=path), seed=7,
        ).execute()
        payload = inspect_checkpoint(path)
        assert payload["stats"] == {
            "jobs": 1, "executed": 2,
            "executed_ids": ["unit-0", "unit-1"], "resumed": 0,
            "retries": 0, "serial_fallbacks": 0,
        }
        # Additive only: schema and load behaviour are untouched.
        assert payload["schema"] == 1


class TestStudySelfCheck:
    def test_fault_study_streams_and_self_checks(self):
        from repro.experiments.fault_study import run_fault_study
        from repro.faults import default_scenarios

        live = LiveAggregator()
        outcomes = run_fault_study(
            n_slices=2, seed=7,
            scenarios=default_scenarios(7)[:1], live=live,
        )
        assert len(outcomes) == 2  # hardened + unhardened
        assert live.merged_records()  # telemetry was collected
        states = {s["state"] for s in live.units.values()}
        assert states == {"done"}


class DivergingAggregator(LiveAggregator):
    """A live aggregator whose incremental merge disagrees with the
    post-hoc one by an extra record."""

    def merged_records(self):
        return super().merged_records() + [
            {"type": "counter", "name": "phantom", "value": 1}
        ]


class TestRunGrid:
    @pytest.mark.parametrize("case", ["merged-only", "live-only", "both"])
    def test_streamed_vs_posthoc_divergence(self, case):
        merged = [] if case in ("merged-only", "both") else None
        live = DivergingAggregator() if case != "merged-only" else None
        collected = []

        def units(collect):
            collected.append(collect)
            return make_units(3)

        def run():
            return run_grid(
                "grid-test", units, seed=7, context={},
                merged_telemetry=merged, live=live,
            )

        if live is None:
            # Nothing streamed, so nothing to diverge: the merged log is
            # the post-hoc merge.
            outcome = run()
            assert merged == merge_unit_telemetry(outcome.results)
        else:
            with pytest.raises(RuntimeError, match="diverged"):
                run()
            if merged is not None:
                assert merged == []  # never extended with a bad log
        assert collected == [True]

    def test_no_consumer_skips_unit_telemetry(self):
        collected = []

        def units(collect):
            collected.append(collect)
            return make_units(2)

        outcome = run_grid("grid-test", units, seed=7, context={})
        assert collected == [False]
        assert len(outcome.results) == 2
