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
from repro.telemetry import Telemetry
from repro.telemetry.exporters import telemetry_records
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


def session_unit(unit_id: str, telemetry=None) -> dict:
    """A grid cell that records into the session it is handed, if any."""
    value = {"had_session": telemetry is not None}
    if telemetry is not None:
        telemetry.counter("unit.runs").inc()
        telemetry.counter(f"unit.{unit_id}").inc(2)
        value["own_records"] = telemetry_records(telemetry)
    return value


def session_units(n: int):
    return [
        WorkUnit(f"unit-{i}", session_unit, {"unit_id": f"unit-{i}"})
        for i in range(n)
    ]


class TestRunGrid:
    """The fleet owns per-unit telemetry: cells take ``telemetry``."""

    def test_no_consumer_opens_no_session(self):
        outcome = run_grid("grid-test", session_units(2), seed=7, context={})
        assert len(outcome.results) == 2
        for value in outcome.values():
            assert value == {"had_session": False}

    @pytest.mark.parametrize("case", ["merged-only", "live-only", "both"])
    def test_consumer_exports_each_units_session(self, case):
        merged = [] if case in ("merged-only", "both") else None
        live = LiveAggregator() if case != "merged-only" else None
        outcome = run_grid(
            "grid-test", session_units(3), seed=7, context={},
            merged_telemetry=merged, live=live,
        )
        for i, value in enumerate(outcome.values()):
            assert value["had_session"]
            # The exported records are exactly the session the unit
            # received, and each unit got a fresh one.
            assert value["telemetry"] == value["own_records"]
            names = {
                rec["name"] for rec in value["telemetry"]
                if rec["type"] == "counter"
            }
            assert names == {"unit.runs", f"unit.unit-{i}"}
        if merged is not None:
            assert merged == merge_unit_telemetry(outcome.results)
        if live is not None:
            assert live.counter_totals["unit.runs"] == 3

    @needs_fork
    def test_parallel_units_export_their_sessions(self):
        merged = []
        serial = run_grid(
            "grid-test", session_units(4), seed=7, context={},
            merged_telemetry=[],
        )
        parallel = run_grid(
            "grid-test", session_units(4), seed=7, context={}, jobs=2,
            merged_telemetry=merged,
        )
        assert parallel.values() == serial.values()
        assert merged == merge_unit_telemetry(serial.results)


def _grid_units(name: str):
    """One cheap unit of each experiment grid's builder."""
    if name == "ablations":
        from repro.experiments.ablations import ablation_units
        return ablation_units(0, 2, 7)[:1]
    if name == "chaos":
        from repro.experiments.chaos_study import chaos_units
        return chaos_units((7,), (0,), ("sensor-noise",), (2000,),
                           n_slices=3, cooldown=2, load=0.7, cap=0.7)
    if name == "cluster":
        from repro.experiments.cluster_study import cluster_units
        return cluster_units(2, 7)[:1]
    if name == "faults":
        from repro.experiments.fault_study import fault_study_units
        from repro.faults import scenario_by_name
        return fault_study_units(
            (0,), 0.7, 0.7, 2, 7, (scenario_by_name("sensor-noise", seed=7),)
        )[:1]
    if name == "fig5c":
        from repro.experiments.fig5c_powercaps import fig5c_units
        return fig5c_units((0,), (0.7,), 2, 0.8, 7)
    if name == "fig8":
        from repro.experiments.fig8_dynamic import fig8_units
        return fig8_units(("b",), 0, 2, 7)
    if name == "scalability":
        from repro.experiments.scalability import scalability_units
        return scalability_units((16,), 0.6, 0.8, 2, 7)[:1]
    raise ValueError(name)


GRIDS = (
    "ablations", "chaos", "cluster", "faults", "fig5c", "fig8",
    "scalability",
)


class TestGridCells:
    @pytest.mark.parametrize("name", GRIDS)
    def test_cell_runs_with_a_fleet_session(self, name):
        merged = []
        outcome = run_grid(
            name, _grid_units(name), seed=7, context={},
            merged_telemetry=merged,
        )
        (value,) = outcome.values()
        assert value["telemetry"]
        assert merged == merge_unit_telemetry(outcome.results)
        assert any(rec["type"] == "counter" for rec in merged)

    @pytest.mark.parametrize("name", ["chaos", "faults"])
    def test_outcome_independent_of_fleet_session(self, name):
        """The cells that need counters open their own session only
        when the fleet passes none; the outcome is the same either way."""
        (unit,) = _grid_units(name)
        bare = unit.run()
        session = Telemetry()
        kept = unit.fn(telemetry=session, **dict(unit.kwargs))
        assert "telemetry" not in bare and "telemetry" not in kept
        assert kept == bare
        assert session.metrics.as_dict()["counters"]

    @pytest.mark.parametrize("module, runner", [
        ("ablations", "run_ablation_matrix"),
        ("chaos_study", "run_chaos_study"),
        ("cluster_study", "run_cluster_study"),
        ("fault_study", "run_fault_study"),
        ("fig5c_powercaps", "run_fig5c"),
        ("fig8_dynamic", "run_fig8_grid"),
        ("scalability", "run_scalability"),
    ])
    def test_misspelt_fleet_keyword_raises(self, module, runner):
        import importlib

        run = getattr(
            importlib.import_module(f"repro.experiments.{module}"), runner
        )
        with pytest.raises(TypeError, match="checkpont"):
            run(checkpont="grid.ckpt")
