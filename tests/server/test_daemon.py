"""End-to-end daemon tests over real sockets and real processes.

The daemon is booted as a subprocess through the actual CLI
(``python -m repro serve``); a scripted client drives it over TCP.
The centrepiece is the kill/resume gate: a daemon SIGKILLed mid-session
and rebooted with ``--resume`` must regenerate a decision stream
byte-identical to an uninterrupted run — and both must match the
committed golden file (``golden/decision_stream.jsonl``), which the CI
``server-smoke`` job also diffs against.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.server.script import ScriptedClient

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "golden" / "decision_stream.jsonl"

SEED = 3
MIX = 0

#: The canonical scripted session: 8 quanta with submissions, an rps
#: move, a priority submission, and a cancel along the way.  PART_ONE
#: runs before the simulated crash, PART_TWO after the resume.
PART_ONE = [
    {"op": "submit", "kind": "lc", "name": "xapian", "rps": 500.0},
    {"op": "submit", "kind": "batch", "name": "astar"},
    {"op": "tick", "count": 3},
    {"op": "set_rps", "job_id": "j000001", "rps": 800.0},
    {"op": "tick", "count": 1},
]
PART_TWO = [
    {"op": "submit", "kind": "batch", "name": "bzip2", "priority": 2},
    {"op": "tick", "count": 2},
    {"op": "cancel", "job_id": "j000002"},
    {"op": "tick", "count": 2},
]


def daemon_argv(directory, tag, resume=False, extra=()):
    """The ``repro serve`` argv of a daemon writing into ``directory``,
    and its port file.

    The daemon runs with ``cwd=REPO_ROOT``, so every path it is given
    is resolved against the caller's working directory first.
    """
    directory = Path(directory).resolve()
    port_file = directory / f"{tag}.port"
    argv = [
        sys.executable, "-m", "repro", "--seed", str(SEED), "serve",
        "--mix", str(MIX),
        "--max-quanta", "50",
        "--port-file", str(port_file),
        "--state", str(directory / "daemon_state.json"),
        "--decisions", str(directory / "daemon_dec.jsonl"),
        "--whatif-jobs", "1",
    ]
    if resume:
        argv.append("--resume")
    argv.extend(extra)
    return argv, port_file


def boot_daemon(directory, tag, resume=False, extra=()):
    """Start ``repro serve`` and wait for its port file."""
    argv, port_file = daemon_argv(directory, tag, resume, extra)
    if port_file.exists():
        port_file.unlink()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.Popen(argv, cwd=REPO_ROOT, env=env)
    deadline = time.time() + 120
    while time.time() < deadline:
        if port_file.exists() and port_file.read_text().strip():
            return proc, int(port_file.read_text())
        if proc.poll() is not None:
            raise RuntimeError(
                f"daemon exited early with code {proc.returncode}"
            )
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError("daemon did not bind within 120 s")


def stop_daemon(proc, port):
    try:
        with ScriptedClient("127.0.0.1", port, 10.0) as client:
            client.request({"op": "shutdown"})
        proc.wait(timeout=30)
    except Exception:
        proc.kill()
        proc.wait(timeout=10)


def run_commands(port, commands):
    with ScriptedClient("127.0.0.1", port, 120.0) as client:
        return [client.request(dict(cmd)) for cmd in commands]


@pytest.fixture(scope="module")
def golden_bytes():
    assert GOLDEN.exists(), (
        "golden decision stream missing; regenerate with "
        "scripts/regen_server_golden.py"
    )
    return GOLDEN.read_bytes()


def test_daemon_argv_paths_are_absolute(tmp_path, monkeypatch):
    # The daemon starts in the repository root; a relative path would
    # land there instead of under the caller's working directory.
    monkeypatch.chdir(tmp_path)
    argv, port_file = daemon_argv("out", "smoke", resume=True)
    out = tmp_path.resolve() / "out"
    paths = [
        argv[i + 1] for i, arg in enumerate(argv)
        if arg in ("--port-file", "--state", "--decisions")
    ]
    assert len(paths) == 3
    for path in [argv[0], *paths, str(port_file)]:
        assert Path(path).is_absolute(), path
    assert all(Path(path).parent == out for path in paths)


class TestScriptedSession:
    def test_uninterrupted_session_matches_golden(
        self, tmp_path, golden_bytes
    ):
        proc, port = boot_daemon(tmp_path, "full")
        try:
            responses = run_commands(port, PART_ONE + PART_TWO)
        finally:
            stop_daemon(proc, port)
        assert all(r.get("ok") for r in responses)
        produced = (tmp_path / "daemon_dec.jsonl").read_bytes()
        assert produced == golden_bytes

    def test_sigkill_and_resume_matches_golden(
        self, tmp_path, golden_bytes
    ):
        proc, port = boot_daemon(tmp_path, "victim")
        try:
            run_commands(port, PART_ONE)
        finally:
            # The crash: no shutdown op, no final snapshot, no flush.
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)

        proc, port = boot_daemon(tmp_path, "resumed", resume=True)
        try:
            status = run_commands(port, [{"op": "status"}])[0]
            assert status["driver"]["quantum"] == 4
            # The ledger survived the crash too.
            assert status["admission"]["submitted"] == 2
            run_commands(port, PART_TWO)
        finally:
            stop_daemon(proc, port)
        produced = (tmp_path / "daemon_dec.jsonl").read_bytes()
        assert produced == golden_bytes


class TestProtocolOverTcp:
    @pytest.fixture(scope="class")
    def daemon(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("daemon")
        proc, port = boot_daemon(tmp_path, "proto")
        yield port
        stop_daemon(proc, port)

    def test_rejection_paths(self, daemon):
        responses = run_commands(daemon, [
            {"op": "submit", "kind": "batch", "name": "no_such_app"},
            {"op": "submit", "kind": "lc", "name": "xapian",
             "rps": 999999.0},
            {"op": "cancel", "job_id": "j009999"},
        ])
        assert responses[0]["job"]["reason"] == "unknown_app"
        assert responses[1]["job"]["reason"] == "rps_exceeds_capacity"
        assert responses[2]["code"] == "unknown_job"

    def test_malformed_lines_get_stable_error_codes(self, daemon):
        with ScriptedClient("127.0.0.1", daemon, 30.0) as client:
            client.sock.sendall(b"this is not json\n")
            assert client.read_line()["code"] == "bad_json"
            client.sock.sendall(b'{"op": "dance"}\n')
            assert client.read_line()["code"] == "unknown_op"
            client.sock.sendall(b'{"no_op": 1}\n')
            assert client.read_line()["code"] == "bad_request"

    def test_subscribe_events_precede_tick_response(self, daemon):
        with ScriptedClient("127.0.0.1", daemon, 120.0) as client:
            assert client.request({"op": "subscribe"})["subscribed"]
            before = len(client.events)
            client.request({"op": "tick", "count": 2})
            # Both quanta's events (quantum + decision per tick) were
            # already buffered when the response arrived.
            fresh = client.events[before:]
            kinds = [e["event"] for e in fresh]
            assert kinds.count("decision") == 2
            assert kinds.count("quantum") == 2
            off = client.request({"op": "unsubscribe"})
            assert off["subscribed"] is False

    def test_hello_and_metrics(self, daemon):
        responses = run_commands(daemon, [
            {"op": "hello"}, {"op": "metrics"},
        ])
        assert responses[0]["services"] == ["xapian"]
        assert "server_ticks_total" in responses[1]["prometheus"]

    def test_http_surface(self, daemon):
        base = f"http://127.0.0.1:{daemon}"
        status = json.loads(urllib.request.urlopen(
            base + "/status", timeout=30
        ).read())
        assert status["ok"] and "driver" in status
        metrics = urllib.request.urlopen(
            base + "/metrics", timeout=30
        ).read().decode()
        assert "server_requests_total" in metrics
        decisions = urllib.request.urlopen(
            base + "/decisions", timeout=30
        ).read().decode().splitlines()
        assert all(
            json.loads(line)["quantum"] == i
            for i, line in enumerate(decisions)
        )
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(base + "/nope", timeout=30)
