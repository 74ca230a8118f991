"""Admission-control unit tests: every rejection path, ordering, resume."""

import pytest

from repro.server.admission import (
    AdmissionLimits,
    JobQueueManager,
    JobSpec,
)


def make_manager(**overrides):
    """A small, fully synthetic manager: 2 batch slots, 1 LC service."""
    defaults = dict(
        known_batch_apps=["alpha", "beta", "gamma"],
        n_batch_slots=2,
        lc_services=[{"name": "svc", "qos_ms": 5.0, "max_qps": 1000.0}],
        llc_ways=20,
        power_budget_w=100.0,
        batch_power_w={"alpha": 10.0, "beta": 10.0, "gamma": 10.0},
        lc_power_w={"svc": 20.0},
        limits=AdmissionLimits(max_jobs_per_tenant=3, max_wait_quanta=4),
    )
    defaults.update(overrides)
    return JobQueueManager(**defaults)


class TestStaticRejections:
    def test_bad_kind(self):
        job = make_manager().submit(JobSpec(kind="gpu", name="alpha"), 0)
        assert (job.state, job.reason) == ("rejected", "bad_kind")

    def test_unknown_app(self):
        job = make_manager().submit(JobSpec(kind="batch", name="zzz"), 0)
        assert (job.state, job.reason) == ("rejected", "unknown_app")

    def test_unknown_service(self):
        job = make_manager().submit(
            JobSpec(kind="lc", name="nosvc", rps=10.0), 0
        )
        assert (job.state, job.reason) == ("rejected", "unknown_service")

    def test_qos_tighter_than_model_unachievable(self):
        job = make_manager().submit(
            JobSpec(kind="lc", name="svc", qos_ms=1.0, rps=10.0), 0
        )
        assert (job.state, job.reason) == ("rejected", "qos_unachievable")

    def test_omitted_qos_defaults_to_service_target(self):
        job = make_manager().submit(
            JobSpec(kind="lc", name="svc", rps=10.0), 0
        )
        assert job.state == "queued"
        assert job.spec.qos_ms == 5.0

    def test_missing_rps_is_bad_rps(self):
        job = make_manager().submit(
            JobSpec(kind="lc", name="svc", qos_ms=9.0), 0
        )
        assert (job.state, job.reason) == ("rejected", "bad_rps")

    def test_rps_beyond_knee_rejected(self):
        job = make_manager().submit(
            JobSpec(kind="lc", name="svc", qos_ms=9.0, rps=2000.0), 0
        )
        assert (job.state, job.reason) == (
            "rejected", "rps_exceeds_capacity"
        )

    def test_tenant_quota(self):
        mgr = make_manager()
        for _ in range(3):
            mgr.submit(JobSpec(kind="batch", name="alpha", tenant="t"), 0)
        job = mgr.submit(JobSpec(kind="batch", name="beta", tenant="t"), 0)
        assert (job.state, job.reason) == ("rejected", "tenant_quota")
        # Another tenant is unaffected.
        other = mgr.submit(
            JobSpec(kind="batch", name="beta", tenant="u"), 0
        )
        assert other.state == "queued"


class TestCapacityAndDrain:
    def test_admits_into_free_slots_in_priority_then_fifo_order(self):
        mgr = make_manager()
        low = mgr.submit(JobSpec(kind="batch", name="alpha"), 0)
        high = mgr.submit(
            JobSpec(kind="batch", name="beta", priority=5), 0
        )
        mgr.submit(JobSpec(kind="batch", name="gamma"), 0)  # overflow
        events = mgr.drain(1)
        admitted = [e["job_id"] for e in events["admitted"]]
        # Priority 5 admits first even though it was submitted second.
        assert admitted == [high.job_id, low.job_id]
        assert mgr.jobs[high.job_id].slot == 0
        assert len(mgr.queue) == 1

    def test_service_bound_blocks_second_lc_job(self):
        mgr = make_manager()
        first = mgr.submit(JobSpec(kind="lc", name="svc", rps=10.0), 0)
        second = mgr.submit(JobSpec(kind="lc", name="svc", rps=10.0), 0)
        mgr.drain(1)
        assert mgr.jobs[first.job_id].state == "running"
        assert mgr.jobs[second.job_id].state == "queued"

    def test_power_envelope_blocks(self):
        mgr = make_manager(batch_power_w={
            "alpha": 90.0, "beta": 90.0, "gamma": 10.0,
        })
        a = mgr.submit(JobSpec(kind="batch", name="alpha"), 0)
        b = mgr.submit(JobSpec(kind="batch", name="beta"), 0)
        mgr.drain(1)
        assert mgr.jobs[a.job_id].state == "running"
        assert mgr.jobs[b.job_id].state == "queued"

    def test_no_free_ways_blocks(self):
        # 1 hosted LC way + 1 slack way fill the cache: no batch fits.
        mgr = make_manager(llc_ways=2)
        job = mgr.submit(JobSpec(kind="batch", name="alpha"), 0)
        mgr.drain(1)
        assert mgr.jobs[job.job_id].state == "queued"

    def test_bounded_wait_times_out(self):
        mgr = make_manager()
        for _ in range(2):
            mgr.submit(JobSpec(kind="batch", name="alpha"), 0)
        blocked = mgr.submit(JobSpec(kind="batch", name="beta"), 0)
        mgr.drain(0)
        for tick in range(1, 4):
            assert mgr.drain(tick)["timed_out"] == []
        events = mgr.drain(4)
        assert [e["job_id"] for e in events["timed_out"]] == [
            blocked.job_id
        ]
        job = mgr.job(blocked.job_id)
        assert job is blocked and blocked.job_id not in mgr.jobs
        assert (job.state, job.reason) == ("rejected", "wait_timeout")
        assert job.waited_quanta == 4
        assert mgr.timed_out == 1

    def test_cancel_releases_slot_for_next_drain(self):
        mgr = make_manager()
        a = mgr.submit(JobSpec(kind="batch", name="alpha"), 0)
        mgr.submit(JobSpec(kind="batch", name="beta"), 0)
        waiting = mgr.submit(JobSpec(kind="batch", name="gamma"), 0)
        mgr.drain(0)
        mgr.cancel(a.job_id, 1)
        events = mgr.drain(1)
        assert [e["job_id"] for e in events["admitted"]] == [
            waiting.job_id
        ]

    def test_set_rps_validates(self):
        mgr = make_manager()
        lc = mgr.submit(JobSpec(kind="lc", name="svc", rps=10.0), 0)
        batch = mgr.submit(JobSpec(kind="batch", name="alpha"), 0)
        mgr.drain(0)
        assert mgr.set_rps(lc.job_id, 500.0).rps == 500.0
        with pytest.raises(ValueError):
            mgr.set_rps(lc.job_id, 5000.0)  # beyond the knee
        with pytest.raises(ValueError):
            mgr.set_rps(batch.job_id, 10.0)  # not an LC job
        assert mgr.set_rps("j999999", 10.0) is None

    def test_each_job_lives_in_one_place(self):
        mgr = make_manager()
        lc = mgr.submit(JobSpec(kind="lc", name="svc", rps=10.0), 0)
        rejected = mgr.submit(JobSpec(kind="batch", name="zzz"), 0)
        kept = mgr.submit(JobSpec(kind="batch", name="alpha"), 0)
        mgr.drain(0)
        mgr.cancel(lc.job_id, 1)
        # Live jobs in `jobs`, terminal ones in `ended`, never both.
        assert list(mgr.jobs) == [kept.job_id]
        assert mgr.ended == [rejected, lc]
        for job in (lc, rejected, kept):
            assert mgr.job(job.job_id) is job
        assert mgr.job("j999999") is None
        # Ended jobs still answer cancel and set_rps as before.
        assert mgr.cancel(lc.job_id, 2) is lc and lc.finished_tick == 1
        with pytest.raises(ValueError, match="cancelled"):
            mgr.set_rps(lc.job_id, 20.0)

    def test_counters_track_accept_and_reject(self):
        mgr = make_manager()
        mgr.submit(JobSpec(kind="batch", name="alpha"), 0)
        mgr.submit(JobSpec(kind="batch", name="zzz"), 0)
        mgr.drain(0)
        desc = mgr.describe()
        assert desc["submitted"] == 2
        assert desc["admitted"] == 1
        assert desc["rejected"] == 1
        assert desc["running"] == 1


class TestSnapshotRestore:
    def test_ledger_roundtrips_through_json(self):
        import json

        mgr = make_manager()
        mgr.submit(JobSpec(kind="batch", name="alpha", priority=2), 0)
        mgr.submit(JobSpec(kind="lc", name="svc", rps=250.0), 0)
        mgr.submit(JobSpec(kind="batch", name="zzz"), 0)  # rejected
        mgr.drain(1)
        state = json.loads(json.dumps(mgr.snapshot(), sort_keys=True))

        other = make_manager()
        other.restore(state)
        assert other.snapshot() == mgr.snapshot()
        assert other.describe() == mgr.describe()
        # The restored ledger keeps allocating fresh ids.
        nxt = other.submit(JobSpec(kind="batch", name="beta"), 2)
        assert nxt.job_id == f"j{state['next_seq']:06d}"

    def test_state_keeps_live_jobs_and_journals_each_ended_job_once(
        self, tmp_path
    ):
        import json

        from repro.snapshot import Journal

        mgr = make_manager()
        mgr.submit(JobSpec(kind="batch", name="alpha"), 0)
        mgr.submit(JobSpec(kind="lc", name="svc", rps=250.0), 0)
        mgr.submit(JobSpec(kind="batch", name="zzz"), 0)  # rejected
        mgr.drain(1)
        journal = Journal(tmp_path / "state.json")
        journal.write(mgr)
        mgr.cancel("j000001", 2)
        mgr.submit(JobSpec(kind="batch", name="beta"), 2)
        state = json.loads(json.dumps(journal.write(mgr)))
        assert sorted(state["jobs"]) == ["j000002", "j000004"]
        assert state["ended"] == {"length": 2}
        journal.write(mgr)
        lines = journal.path.read_text().splitlines()
        ended = [json.loads(line)[1]["job_id"] for line in lines]
        assert ended == ["j000003", "j000001"]  # in the order they ended

        other = make_manager()
        Journal(tmp_path / "state.json").restore(other, state)
        # The same live jobs in submission order, answering as before.
        assert list(other.jobs) == ["j000002", "j000004"]
        assert list(other.jobs) == list(mgr.jobs)
        assert [j.describe() for j in other.ended] == [
            j.describe() for j in mgr.ended
        ]
        assert [j.describe() for j in other.jobs.values()] == [
            j.describe() for j in mgr.jobs.values()
        ]
        assert other.describe() == mgr.describe()
        assert other.cancel("j000001", 3).state == "cancelled"
        assert other.cancelled == mgr.cancelled

    def test_restore_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            make_manager().restore({"version": 99})
