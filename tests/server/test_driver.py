"""QuantumDriver and CommandExecutor tests, including crash/resume.

These run the daemon's core without sockets: the driver is built
directly, ticked, "killed" (dropped), rebuilt, and resumed — the
decision stream must come out byte-identical to an uninterrupted run.
"""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import snapshot as snapshot_module
from repro.server import driver as driver_module
from repro.server.admission import JobSpec
from repro.server.driver import (
    DECISION_TAIL,
    IDLE_LC_LOAD,
    QuantumDriver,
    ServerConfig,
)
from repro.server.session import CommandExecutor
from repro.snapshot import SnapshotError

REPO_ROOT = Path(__file__).resolve().parents[2]

SEED = 3
MIX = 0


def make_driver(tmp_path, name="run", resume=False, **overrides):
    kwargs = dict(
        mix=MIX, seed=SEED, max_quanta=30,
        state_path=str(tmp_path / f"{name}_state.json"),
        decisions_path=str(tmp_path / f"{name}_dec.jsonl"),
        resume=resume,
    )
    kwargs.update(overrides)
    return QuantumDriver(ServerConfig(**kwargs))


def scripted_actions(driver):
    """The deterministic submission schedule both runs replay."""
    service = driver.machine.lc_services[0]
    return {
        0: [
            lambda: driver.admission.submit(
                JobSpec(kind="lc", name=service.name,
                        rps=service.max_qps * 0.5),
                driver.quantum,
            ),
            lambda: driver.admission.submit(
                JobSpec(kind="batch", name="astar"), driver.quantum
            ),
        ],
        3: [lambda: driver.set_rps(
            "j000001", service.max_qps * 0.9
        )],
        5: [lambda: driver.admission.submit(
            JobSpec(kind="batch", name="bzip2", priority=2),
            driver.quantum,
        )],
        7: [lambda: driver.cancel_job("j000002")],
    }


def run_quanta(driver, start, stop):
    actions = scripted_actions(driver)
    for i in range(start, stop):
        for action in actions.get(i, []):
            action()
        driver.tick()


class TestDriverBasics:
    def test_boots_with_all_batch_slots_vacant(self, tmp_path):
        driver = make_driver(tmp_path)
        record = driver.tick()
        assert record["jobs"]["batch"] == {}
        assert record["assignment"]["batch"] == [None] * len(
            driver.machine.batch_profiles
        )
        assert driver.lc_loads[0].level == IDLE_LC_LOAD

    def test_admitted_jobs_appear_in_decisions(self, tmp_path):
        driver = make_driver(tmp_path)
        run_quanta(driver, 0, 2)
        record = driver.recent_decisions(since=1)[0]
        assert record["jobs"]["batch"] == {"0": "j000002"}
        assert record["jobs"]["lc"] == {
            driver.machine.lc_services[0].name: "j000001"
        }
        assert record["assignment"]["batch"][0] is not None

    def test_cancel_unbinds_batch_slot(self, tmp_path):
        driver = make_driver(tmp_path)
        run_quanta(driver, 0, 8)
        record = driver.recent_decisions(since=driver.quantum - 1)[0]
        assert "j000002" not in record["jobs"]["batch"].values()

    def test_set_rps_moves_lc_load(self, tmp_path):
        driver = make_driver(tmp_path)
        run_quanta(driver, 0, 4)
        assert driver.lc_loads[0].level == pytest.approx(0.9)

    def test_bad_mix_index_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            QuantumDriver(ServerConfig(mix=999))

    @pytest.mark.parametrize("every", [0, DECISION_TAIL + 1])
    def test_snapshot_every_within_the_decision_tail(self, every):
        # A longer gap would drop decision lines before they are journaled.
        ServerConfig(snapshot_every=DECISION_TAIL)
        with pytest.raises(ValueError, match="snapshot_every"):
            ServerConfig(snapshot_every=every)

    def test_tick_beyond_max_quanta_raises(self, tmp_path):
        driver = make_driver(tmp_path, max_quanta=2)
        driver.tick()
        driver.tick()
        with pytest.raises(RuntimeError):
            driver.tick()


class TestCrashResume:
    def test_decision_stream_byte_identical_across_resume(self, tmp_path):
        reference = make_driver(tmp_path, "ref")
        run_quanta(reference, 0, 12)
        ref_bytes = (tmp_path / "ref_dec.jsonl").read_bytes()

        victim = make_driver(tmp_path, "vic")
        run_quanta(victim, 0, 6)
        del victim  # simulated SIGKILL: no shutdown hook runs

        resumed = make_driver(tmp_path, "vic", resume=True)
        resumed.resume_from()
        assert resumed.quantum == 6
        run_quanta(resumed, 6, 12)
        assert (tmp_path / "vic_dec.jsonl").read_bytes() == ref_bytes

    def test_resume_truncates_orphan_decision_lines(self, tmp_path):
        """A crash between append and snapshot leaves extra lines; the
        resume rewinds them and re-executes byte-identically."""
        reference = make_driver(tmp_path, "ref")
        run_quanta(reference, 0, 10)
        ref_bytes = (tmp_path / "ref_dec.jsonl").read_bytes()

        victim = make_driver(
            tmp_path, "vic", snapshot_every=4
        )
        run_quanta(victim, 0, 6)  # snapshot at 4; lines 5-6 orphaned
        del victim

        resumed = make_driver(
            tmp_path, "vic", resume=True, snapshot_every=4
        )
        resumed.resume_from()
        assert resumed.quantum == 4
        assert len(
            (tmp_path / "vic_dec.jsonl").read_text().splitlines()
        ) == 4
        run_quanta(resumed, 4, 10)
        assert (tmp_path / "vic_dec.jsonl").read_bytes() == ref_bytes

    def test_crash_between_journal_append_and_state_rename(
        self, tmp_path, monkeypatch
    ):
        """A kill after the journal append but before the state file
        is replaced leaves orphan journal lines; the resume drops them
        and the replayed quanta land byte-identically."""
        reference = make_driver(tmp_path, "ref")
        run_quanta(reference, 0, 10)

        class Killed(BaseException):
            pass

        def killed(path, text):
            raise Killed()

        victim = make_driver(tmp_path, "vic")
        run_quanta(victim, 0, 5)
        journal = victim.journal.path
        lines_at_snapshot = len(journal.read_bytes().splitlines())
        monkeypatch.setattr(driver_module, "atomic_write_text", killed)
        with pytest.raises(Killed):
            run_quanta(victim, 5, 6)
        monkeypatch.undo()
        del victim
        assert len(journal.read_bytes().splitlines()) > lines_at_snapshot

        resumed = make_driver(tmp_path, "vic", resume=True)
        resumed.resume_from()
        assert resumed.quantum == 5
        assert len(journal.read_bytes().splitlines()) == lines_at_snapshot
        run_quanta(resumed, 5, 10)
        for suffix in ("_dec.jsonl", "_state.json", "_state.json.journal.jsonl"):
            assert (tmp_path / f"vic{suffix}").read_bytes() == (
                tmp_path / f"ref{suffix}"
            ).read_bytes(), suffix

    @pytest.mark.parametrize("loss", ["torn", "first_torn", "missing"])
    def test_resume_rewrites_stream_lines_a_power_loss_took(
        self, tmp_path, loss
    ):
        """The stream is flushed, never synced: a power loss may keep
        part of it, tear a line or lose the file.  The journal holds
        every decision line, so the resume rewrites what is missing."""
        reference = make_driver(tmp_path, "ref")
        run_quanta(reference, 0, 10)
        ref_bytes = (tmp_path / "ref_dec.jsonl").read_bytes()

        victim = make_driver(tmp_path, "vic")
        run_quanta(victim, 0, 6)
        del victim
        stream = tmp_path / "vic_dec.jsonl"
        lines = stream.read_bytes().splitlines(keepends=True)
        if loss == "missing":
            stream.unlink()
        else:
            keep = 0 if loss == "first_torn" else 3
            stream.write_bytes(
                b"".join(lines[:keep]) + lines[keep][:len(lines[keep]) // 2]
            )

        resumed = make_driver(tmp_path, "vic", resume=True)
        resumed.resume_from()
        assert stream.read_bytes() == b"".join(lines)
        run_quanta(resumed, 6, 10)
        assert stream.read_bytes() == ref_bytes

    @pytest.mark.parametrize("state", [True, False])
    def test_resume_boot_without_a_state_file_owns_the_stream(
        self, tmp_path, caplog, state
    ):
        """Killed before its first snapshot (or run without --state),
        the daemon reboots with --resume into a fresh session, which
        must not append to the lines the killed one left, and says
        what it drops."""
        reference = make_driver(tmp_path, "ref")
        run_quanta(reference, 0, 3)
        stream = tmp_path / "vic_dec.jsonl"
        stream.write_bytes((tmp_path / "ref_dec.jsonl").read_bytes()[:50])
        overrides = {} if state else {"state_path": None}
        with caplog.at_level(logging.WARNING, logger="repro.server.driver"):
            fresh = make_driver(tmp_path, "vic", resume=True, **overrides)
        assert [r.getMessage() for r in caplog.records] == [
            "--resume found no state file to resume from: "
            f"starting {stream} afresh drops its 50 byte(s)"
        ]
        run_quanta(fresh, 0, 3)
        assert stream.read_bytes() == (tmp_path / "ref_dec.jsonl").read_bytes()

    def test_fresh_boot_truncates_the_stream_silently(self, tmp_path, caplog):
        stream = tmp_path / "run_dec.jsonl"
        stream.write_text("stale\n")
        with caplog.at_level(logging.WARNING, logger="repro.server.driver"):
            make_driver(tmp_path)
        assert not caplog.records
        assert stream.read_bytes() == b""

    def test_a_tick_opens_and_syncs_the_stream_never(
        self, tmp_path, monkeypatch
    ):
        """The stream is opened once at boot and only flushed; a tick
        syncs the journal, the state file and its directory."""
        driver = make_driver(tmp_path)
        driver.tick()
        opened, synced = [], []
        real_open, real_fsync = open, os.fsync

        def recording_open(path, *args, **kwargs):
            opened.append(os.path.basename(path))
            return real_open(path, *args, **kwargs)

        def recording_fsync(fd):
            synced.append(os.path.basename(os.readlink(f"/proc/self/fd/{fd}")))
            real_fsync(fd)

        for module in (driver_module, snapshot_module):
            monkeypatch.setattr(module, "open", recording_open, raising=False)
        monkeypatch.setattr(os, "fsync", recording_fsync)
        driver.tick()
        assert "run_dec.jsonl" not in opened + synced
        assert synced == [
            "run_state.json.journal.jsonl", "run_state.json.tmp", tmp_path.name,
        ]

    @pytest.mark.parametrize("damage", ["short", "flipped"])
    def test_damaged_journal_refuses_resume(self, tmp_path, damage):
        victim = make_driver(tmp_path, "vic")
        run_quanta(victim, 0, 4)
        journal = victim.journal.path
        data = journal.read_bytes()
        if damage == "short":
            data = b"".join(data.splitlines(keepends=True)[:-1])
            match = "line"
        else:
            at = data.index(b"[", len(data) // 2) + 1
            data = data[:at] + b" " + data[at + 1:]
            match = "digest"
        journal.write_bytes(data)
        resumed = make_driver(tmp_path, "vic", resume=True)
        with pytest.raises(SnapshotError, match=match):
            resumed.resume_from()
        assert journal.read_bytes() == data

    def test_serve_resume_on_damaged_journal_exits_2(self, tmp_path):
        victim = make_driver(tmp_path, "vic")
        run_quanta(victim, 0, 2)
        journal = victim.journal.path
        lines = journal.read_bytes().splitlines(keepends=True)
        journal.write_bytes(b"".join(lines[:-1]))
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--seed", str(SEED), "serve",
             "--mix", str(MIX), "--max-quanta", "30", "--port", "0",
             "--state", victim.config.state_path,
             "--decisions", victim.config.decisions_path,
             "--whatif-jobs", "1", "--resume"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1 and "journal" in errors[0]
        assert "Traceback" not in proc.stderr

    def test_decision_tail_rebuilt_from_journal(self, tmp_path):
        """Without a decision file the tail still survives a resume:
        the journal is its one source."""
        reference = make_driver(tmp_path, "ref", decisions_path=None)
        run_quanta(reference, 0, 6)
        victim = make_driver(tmp_path, "vic", decisions_path=None)
        run_quanta(victim, 0, 6)
        del victim
        resumed = make_driver(
            tmp_path, "vic", resume=True, decisions_path=None
        )
        resumed.resume_from()
        assert resumed.decision_count == 6
        assert resumed.recent_decisions() == reference.recent_decisions()

    def test_resume_rejects_config_mismatch(self, tmp_path):
        driver = make_driver(tmp_path, "a")
        driver.tick()
        other = make_driver(tmp_path, "a", resume=True, seed=SEED + 1)
        with pytest.raises(ValueError):
            other.resume_from()


class TestCommandExecutor:
    def test_submit_and_status_counters(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        ok = executor.execute({
            "op": "submit", "kind": "batch", "name": "astar",
        })
        assert ok["ok"] and ok["job"]["state"] == "queued"
        bad = executor.execute({
            "op": "submit", "kind": "batch", "name": "no_such_app",
        })
        assert bad["job"]["state"] == "rejected"
        assert bad["job"]["reason"] == "unknown_app"
        executor.execute({"op": "tick"})
        status = executor.execute({"op": "status"})
        assert status["admission"]["submitted"] == 2
        assert status["admission"]["admitted"] == 1
        assert status["admission"]["rejected"] == 1
        assert status["driver"]["quantum"] == 1

    def test_tick_batches_and_bounds(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        resp = executor.execute({"op": "tick", "count": 3})
        assert resp["quantum"] == 3
        assert [r["quantum"] for r in resp["decisions"]] == [0, 1, 2]
        assert executor.execute(
            {"op": "tick", "count": 0}
        )["code"] == "bad_request"

    def test_unknown_job_errors(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        resp = executor.execute({"op": "cancel", "job_id": "j000099"})
        assert resp["ok"] is False and resp["code"] == "unknown_job"

    def test_whatif_dry_run_has_no_side_effects(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        resp = executor.execute({
            "op": "whatif", "kind": "batch", "name": "astar",
        })
        assert resp["verdict"] == "admit"
        reject = executor.execute({
            "op": "whatif", "kind": "lc", "name": "nope", "rps": 1.0,
        })
        assert reject["verdict"] == "reject"
        assert reject["reason"] == "unknown_service"
        status = executor.execute({"op": "status"})
        assert status["admission"]["submitted"] == 0

    def test_ladder_and_decisions_queries(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        executor.execute({"op": "tick", "count": 2})
        ladder = executor.execute({"op": "ladder"})["ladder"]
        assert ladder["degraded_quanta"] == 0
        decisions = executor.execute(
            {"op": "decisions", "since": 1}
        )["decisions"]
        assert [d["quantum"] for d in decisions] == [1]

    def test_responses_are_json_serializable(self, tmp_path):
        executor = CommandExecutor(make_driver(tmp_path))
        for op in ({"op": "hello"}, {"op": "status"}, {"op": "tick"},
                   {"op": "jobs"}, {"op": "ladder"}):
            json.dumps(executor.execute(dict(op)), sort_keys=True)


def scan_decisions(tail, since, limit):
    """The decisions query as a scan of every tail line (the oracle)."""
    out = []
    for line in tail:
        if len(out) >= limit:
            break
        record = json.loads(line)
        if record["quantum"] >= since:
            out.append(record)
    return out


QUERIES = [
    (since, limit)
    for since in (-3, 0, 1, 2, 3, 4, 5, 6, 50, 4095, 4096, 4100,
                  4120, 4123, 4124, 10**6)
    for limit in (-1, 0, 1, 2, 5, 100, 10**6)
]


class TestRecentDecisions:
    """``recent_decisions`` parses only the lines it returns; it must
    answer as the full scan does."""

    def test_matches_scan_at_head_middle_and_past_end(self, tmp_path):
        driver = make_driver(tmp_path)
        run_quanta(driver, 0, 6)
        for since, limit in QUERIES:
            assert driver.recent_decisions(since, limit) == scan_decisions(
                driver._decision_tail, since, limit
            ), (since, limit)

    def test_limit_zero_or_less_answers_no_records(self, tmp_path):
        driver = make_driver(tmp_path)
        run_quanta(driver, 0, 2)
        executor = CommandExecutor(driver)
        for limit in (0, -1):
            response = executor.execute({"op": "decisions", "limit": limit})
            assert response["decisions"] == []
        assert len(executor.execute({"op": "decisions"})["decisions"]) == 2

    def test_matches_scan_after_the_tail_cap(self, tmp_path):
        driver = make_driver(tmp_path, decisions_path=None)
        for quantum in range(DECISION_TAIL + 28):
            driver._append_decision(json.dumps({"quantum": quantum}))
        tail = driver._decision_tail
        assert len(tail) == DECISION_TAIL and tail.start == 28
        assert driver.decision_count == DECISION_TAIL + 28
        for since, limit in QUERIES:
            assert driver.recent_decisions(since, limit) == scan_decisions(
                tail, since, limit
            ), (since, limit)

    def test_matches_scan_after_a_resume(self, tmp_path):
        victim = make_driver(tmp_path, "vic")
        run_quanta(victim, 0, 5)
        del victim
        resumed = make_driver(tmp_path, "vic", resume=True)
        resumed.resume_from()
        run_quanta(resumed, 5, 7)
        for since, limit in QUERIES:
            assert resumed.recent_decisions(since, limit) == scan_decisions(
                resumed._decision_tail, since, limit
            ), (since, limit)


#: LOAD_GRID buckets the LC job's rate walks, one step every 5 ticks.
SIZE_LC_BUCKETS = (0.5, 0.3, 0.6, 0.4, 0.7, 0.5, 0.3, 0.6, 0.4, 0.7)
SIZE_BATCH_APPS = ("astar", "bzip2", "gcc", "mcf", "milc", "namd")


class TestSnapshotSize:
    """Snapshots carry what the run learned, not the known rows."""

    def test_fifty_tick_session_state_stays_small(self, tmp_path):
        driver = make_driver(tmp_path, max_quanta=50)
        service = driver.machine.lc_services[0]
        lc = driver.admission.submit(
            JobSpec(kind="lc", name=service.name, tenant="lc",
                    rps=service.max_qps * SIZE_LC_BUCKETS[0]),
            driver.quantum,
        )
        for i, app in enumerate(SIZE_BATCH_APPS):
            driver.admission.submit(
                JobSpec(kind="batch", name=app, tenant=f"t{i % 2}"),
                driver.quantum,
            )
        for tick in range(50):
            if tick and tick % 5 == 0:
                level = SIZE_LC_BUCKETS[tick // 5]
                driver.set_rps(lc.job_id, service.max_qps * level)
            if tick and tick % 7 == 0:
                running = [j for j in driver.admission.running_jobs()
                           if j.spec.kind == "batch"]
                driver.cancel_job(running[0].job_id)
                driver.admission.submit(
                    JobSpec(kind="batch", name=running[0].spec.name,
                            tenant=running[0].spec.tenant),
                    driver.quantum,
                )
            driver.tick()

        state = json.loads((tmp_path / "run_state.json").read_text())
        controller = state["stepper"]["policy"]["controller"]
        regimes = controller["latency_matrices"]
        assert len({bucket for (_, bucket, _), _ in regimes}) >= 4
        matrices = [matrix for _, matrix in regimes] + [
            controller["bips_matrix"], controller["power_matrix"]]
        for matrix in matrices:
            # Observed runtime entries only, as flat row-major indices.
            runtime_rows = matrix["n_rows"] - len(matrix["known_rows"])
            n_entries = len(matrix["index"])
            assert len(matrix["values"]) == len(matrix["age"]) == n_entries
            assert n_entries < runtime_rows * matrix["n_cols"]
            assert all(0 <= i < runtime_rows * matrix["n_cols"]
                       for i in matrix["index"])
        for _, matrix in regimes:
            assert matrix["n_rows"] - len(matrix["known_rows"]) == 1
            assert matrix["n_cols"] == 108
        assert sum(len(m["index"]) for m in matrices) > 0
        # The per-quantum history lives in the journal, not the state.
        run = state["stepper"]["run"]
        for name in ("measurements", "loads", "budgets"):
            assert run[name] == {"length": 50}
        assert state["decision_tail"] == {"length": 50}
        # So do the slot replacements (6 admissions and 7 re-admissions)
        # and the ended jobs (7 cancels), one journal line each.
        assert state["stepper"]["machine"]["replacements"] == {"length": 13}
        assert state["admission"]["ended"] == {"length": 7}
        assert sorted(state["admission"]["jobs"]) == sorted(
            job.job_id for job in driver.admission.jobs.values()
            if job.state in ("queued", "running")
        )
        assert state["journal"]["lines"] == 4 * 50 + 13 + 7
        # 12,687 bytes here; 20,041 while the state held every job and
        # the batch profiles.
        assert (tmp_path / "run_state.json").stat().st_size <= 14_600

    def test_state_file_bounded_at_a_constant_load(self, tmp_path):
        """With one rate and a fixed job set nothing in the state file
        grows with the session: the history is in the journal."""
        driver = make_driver(tmp_path, max_quanta=300)
        service = driver.machine.lc_services[0]
        driver.admission.submit(
            JobSpec(kind="lc", name=service.name, rps=service.max_qps * 0.5),
            driver.quantum,
        )
        for app in SIZE_BATCH_APPS[:3]:
            driver.admission.submit(
                JobSpec(kind="batch", name=app), driver.quantum
            )
        state = tmp_path / "run_state.json"
        sizes = {}
        for tick in range(1, 301):
            driver.tick()
            if tick in (20, 300):
                sizes[tick] = state.stat().st_size
        assert sizes[300] <= 1.1 * sizes[20], sizes
        # Four history lines a tick, plus the three slot replacements.
        assert driver.journal.lines == 4 * 300 + 3

    def test_state_file_bounded_under_job_churn(self, tmp_path):
        """Ended jobs leave the state for the journal, so a session
        that keeps submitting and cancelling jobs does not grow it."""
        driver = make_driver(tmp_path, max_quanta=400)
        service = driver.machine.lc_services[0]
        driver.admission.submit(
            JobSpec(kind="lc", name=service.name, rps=service.max_qps * 0.5),
            driver.quantum,
        )
        state = tmp_path / "run_state.json"
        sizes = {}
        for tick in range(1, 401):
            if tick % 3 == 0:
                driver.admission.submit(
                    JobSpec(kind="batch", tenant=f"t{tick % 5}",
                            name=SIZE_BATCH_APPS[tick % len(SIZE_BATCH_APPS)]),
                    driver.quantum,
                )
            if tick % 3 == 1:
                running = [job for job in driver.admission.running_jobs()
                           if job.spec.kind == "batch"]
                if len(running) > 2:
                    driver.cancel_job(running[0].job_id)
            if tick % 20 == 0:
                driver.admission.submit(
                    JobSpec(kind="batch", name="no_such_app"), driver.quantum
                )
            driver.tick()
            if tick in (50, 400):
                sizes[tick] = state.stat().st_size
        admission = driver.admission
        assert admission.cancelled > 100 and admission.rejected >= 20
        assert sizes[400] <= 1.1 * sizes[50], sizes
