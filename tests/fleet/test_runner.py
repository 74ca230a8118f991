"""Tests for the FleetRun facade: checkpointing, abort/resume, telemetry.

The checkpoint-atomicity property the ISSUE demands — kill a fleet run
mid-grid, ``--resume``, final report equals an uninterrupted run — is
exercised with the deterministic ``inject_abort_after`` fault hook
(the fleet's crash lever in the ``repro.faults`` tradition) rather
than a timing-dependent SIGKILL race.
"""

import json

import pytest

from repro.fleet import (
    FROM_CHECKPOINT,
    CheckpointError,
    FleetAborted,
    FleetParams,
    FleetRun,
    WorkUnit,
    inspect_checkpoint,
    unit_seed,
)
from repro.telemetry import Telemetry


def cell(unit_id: str, seed: int) -> dict:
    return {"unit": unit_id, "seed": unit_seed(unit_id, seed=seed)}


def make_units(n: int, seed: int = 7):
    return [
        WorkUnit(f"u{i}", cell, {"unit_id": f"u{i}", "seed": seed})
        for i in range(n)
    ]


class TestExecute:
    def test_results_in_unit_order(self):
        outcome = FleetRun("t", make_units(4), seed=7).execute()
        assert [r.unit_id for r in outcome.results] == ["u0", "u1", "u2", "u3"]
        assert outcome.executed_units == 4
        assert outcome.resumed_units == 0
        assert outcome.value_of("u2") == cell("u2", 7)
        with pytest.raises(KeyError):
            outcome.value_of("nope")

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetRun("t", [])
        with pytest.raises(ValueError, match="unique"):
            FleetRun("t", make_units(2) + make_units(1))
        with pytest.raises(ValueError, match="name"):
            FleetRun("", make_units(1))
        with pytest.raises(ValueError, match="resume requires"):
            FleetParams(resume=True)

    def test_summary_mentions_counts(self):
        outcome = FleetRun("t", make_units(2), seed=7).execute()
        assert "2 unit(s)" in outcome.summary()
        assert "2 executed" in outcome.summary()


class TestAbortResume:
    def test_injected_abort_saves_checkpoint(self, tmp_path):
        ck = tmp_path / "ck.json"
        params = FleetParams(checkpoint=str(ck), inject_abort_after=2)
        with pytest.raises(FleetAborted) as excinfo:
            FleetRun("t", make_units(5), params, seed=7).execute()
        assert excinfo.value.completed == 2
        payload = inspect_checkpoint(ck)
        assert len(payload["completed"]) == 2

    def test_resume_equals_uninterrupted(self, tmp_path):
        ck = tmp_path / "ck.json"
        units = make_units(5)
        uninterrupted = FleetRun("t", units, seed=7).execute()
        with pytest.raises(FleetAborted):
            FleetRun(
                "t", units,
                FleetParams(checkpoint=str(ck), inject_abort_after=2),
                seed=7,
            ).execute()
        resumed = FleetRun(
            "t", units, FleetParams(checkpoint=str(ck), resume=True),
            seed=7,
        ).execute()
        assert resumed.values() == uninterrupted.values()
        assert resumed.resumed_units == 2
        assert resumed.executed_units == 3
        restored = [
            r for r in resumed.results if r.worker == FROM_CHECKPOINT
        ]
        assert len(restored) == 2
        assert all(r.attempts == 0 for r in restored)
        # Global unit indices survive the todo-local pool indices.
        assert [r.index for r in resumed.results] == list(range(5))

    def test_fully_resumed_run_executes_nothing(self, tmp_path):
        ck = tmp_path / "ck.json"
        units = make_units(3)
        first = FleetRun(
            "t", units, FleetParams(checkpoint=str(ck)), seed=7
        ).execute()
        again = FleetRun(
            "t", units, FleetParams(checkpoint=str(ck), resume=True),
            seed=7,
        ).execute()
        assert again.values() == first.values()
        assert again.executed_units == 0
        assert again.resumed_units == 3

    def test_seed_change_invalidates_checkpoint(self, tmp_path):
        ck = tmp_path / "ck.json"
        units = make_units(3)
        FleetRun("t", units, FleetParams(checkpoint=str(ck)), seed=7).execute()
        with pytest.raises(CheckpointError, match="different run"):
            FleetRun(
                "t", units, FleetParams(checkpoint=str(ck), resume=True),
                seed=8,
            ).execute()

    def test_fingerprint_is_built_from_the_units(self):
        run = FleetRun("t", make_units(2), seed=7)
        assert run.fingerprint() == {
            "fleet": "t", "seed": 7,
            "units": [
                {"id": "u0", "kwargs": {"unit_id": "u0", "seed": 7}},
                {"id": "u1", "kwargs": {"unit_id": "u1", "seed": 7}},
            ],
        }

    def test_unit_kwarg_change_invalidates_checkpoint(self, tmp_path):
        ck = tmp_path / "ck.json"
        units = make_units(3)
        FleetRun("t", units, FleetParams(checkpoint=str(ck)), seed=7).execute()
        # Same fleet, seed and unit ids; one unit's arguments differ.
        changed = units[:2] + [
            WorkUnit("u2", cell, {"unit_id": "u2", "seed": 8})
        ]
        with pytest.raises(CheckpointError, match="different run"):
            FleetRun(
                "t", changed, FleetParams(checkpoint=str(ck), resume=True),
                seed=7,
            ).execute()

    def test_unjsonable_unit_kwargs_refuse_a_checkpoint(self, tmp_path):
        units = [WorkUnit("u0", cell, {"unit_id": object(), "seed": 7})]
        with pytest.raises(CheckpointError, match="JSON-serializable"):
            FleetRun(
                "t", units, FleetParams(checkpoint=str(tmp_path / "ck")),
            )

    def test_schema_1_checkpoint_is_refused(self, tmp_path):
        ck = tmp_path / "ck.json"
        units = make_units(2)
        ck.write_text(json.dumps({
            "schema": 1,
            "fingerprint": {
                "fleet": "t", "seed": 7, "context": {},
                "units": ["u0", "u1"],
            },
            "completed": {"u0": cell("u0", 7)},
        }))
        with pytest.raises(CheckpointError, match="schema 1; .* schema 2"):
            FleetRun(
                "t", units, FleetParams(checkpoint=str(ck), resume=True),
                seed=7,
            ).execute()

    def test_without_resume_checkpoint_is_overwritten(self, tmp_path):
        ck = tmp_path / "ck.json"
        units = make_units(3)
        with pytest.raises(FleetAborted):
            FleetRun(
                "t", units,
                FleetParams(checkpoint=str(ck), inject_abort_after=1),
                seed=7,
            ).execute()
        fresh = FleetRun(
            "t", units, FleetParams(checkpoint=str(ck)), seed=7
        ).execute()
        assert fresh.executed_units == 3
        assert len(inspect_checkpoint(ck)["completed"]) == 3


class TestTelemetry:
    def test_counters_published(self, tmp_path):
        ck = tmp_path / "ck.json"
        units = make_units(4)
        with pytest.raises(FleetAborted):
            FleetRun(
                "t", units,
                FleetParams(checkpoint=str(ck), inject_abort_after=1),
                seed=7,
            ).execute()
        session = Telemetry()
        FleetRun(
            "t", units, FleetParams(checkpoint=str(ck), resume=True),
            seed=7, telemetry=session,
        ).execute()
        metrics = session.metrics
        assert metrics.counter("fleet.units_total").value == 4
        assert metrics.counter("fleet.units_resumed").value == 1
        assert metrics.counter("fleet.units_executed").value == 3
        assert metrics.counter("fleet.retries").value == 0
        assert metrics.counter("fleet.serial_fallbacks").value == 0
        assert metrics.gauge("fleet.jobs").value == 1.0


class TestUnitAttempts:
    def test_healthy_run_reports_no_extra_attempts(self):
        outcome = FleetRun("t", make_units(3), seed=7).execute()
        assert all(r.attempts == 1 for r in outcome.results)
        assert outcome.unit_attempts() == {}

    def test_retried_units_surface_with_their_counts(self):
        from repro.fleet.runner import FleetOutcome
        from repro.fleet.shard import UnitResult

        outcome = FleetOutcome(
            name="t",
            results=(
                UnitResult("u0", 0, value=1, worker="w0", attempts=1),
                UnitResult("u1", 1, value=2, worker="w1", attempts=3),
                UnitResult("u2", 2, value=3, worker="checkpoint",
                           attempts=0),
            ),
            jobs=2,
            resumed_units=1,
            executed_units=2,
            retries=2,
            serial_fallbacks=0,
        )
        assert outcome.unit_attempts() == {"u1": 3}
