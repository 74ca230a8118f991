#!/usr/bin/env python
"""CI smoke test for the scheduler daemon (the ``server-smoke`` job).

Boots ``repro serve`` as a real subprocess, drives the canonical
scripted session from ``tests/server/test_daemon.py`` over TCP —
including a SIGKILL halfway through and a ``--resume`` reboot — and
diffs the daemon's decision stream against the committed golden file.
Before the reboot the stream is cut back to a torn line in its middle,
as a power loss leaves it (the stream is never synced; the journal
holds its lines), so the resume must also rewrite the lost lines.
Any byte of drift fails the job, and so does a final state file above
``MAX_STATE_BYTES``.

Usage, from any working directory (the script finds ``src`` itself)::

    python scripts/server_smoke.py [OUT_DIR]

OUT_DIR (default ``server_smoke_out``, relative to the working
directory) receives the daemon's state file and the decision stream;
CI uploads it as an artifact.
"""

import os
import signal
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests" / "server"))

from test_daemon import (  # noqa: E402
    GOLDEN,
    PART_ONE,
    PART_TWO,
    boot_daemon,
    run_commands,
    stop_daemon,
)

#: Bound on the final state file of the scripted session.  A snapshot
#: carries only the observed matrix entries and the live jobs, and
#: keeps the per-quantum history, the slot replacements and the ended
#: jobs in its journal (7,943 bytes here); one that also wrote the
#: batch profiles and every job (13,567 bytes) fails.
MAX_STATE_BYTES = 9_100


def main(argv):
    out_dir = Path(argv[1] if len(argv) > 1 else "server_smoke_out")
    out_dir.mkdir(parents=True, exist_ok=True)

    print("== boot daemon, run first half of the scripted session")
    proc, port = boot_daemon(out_dir, "smoke")
    try:
        responses = run_commands(port, PART_ONE)
    finally:
        print(f"== SIGKILL daemon pid {proc.pid} (no shutdown hook)")
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
    if not all(r.get("ok") for r in responses):
        print(f"error: first-half command failed: {responses}")
        return 1

    stream = out_dir / "daemon_dec.jsonl"
    lines = stream.read_bytes().splitlines(keepends=True)
    middle = len(lines) // 2
    torn = lines[middle][:len(lines[middle]) // 2]
    print(f"== power loss: cut the decision stream from {len(lines)} "
          f"line(s) to {middle} and half of line {middle}")
    stream.write_bytes(b"".join(lines[:middle]) + torn)

    print("== reboot with --resume, run second half")
    proc, port = boot_daemon(out_dir, "smoke-resumed", resume=True)
    try:
        status = run_commands(port, [{"op": "status"}])[0]
        print(f"   resumed at quantum {status['driver']['quantum']}, "
              f"{status['admission']['submitted']} submission(s) on ledger")
        responses = run_commands(port, PART_TWO)
    finally:
        stop_daemon(proc, port)
    if not all(r.get("ok") for r in responses):
        print(f"error: second-half command failed: {responses}")
        return 1

    produced = out_dir / "daemon_dec.jsonl"
    got = produced.read_bytes()
    want = GOLDEN.read_bytes()
    if got != want:
        print(f"error: {produced} diverges from {GOLDEN}")
        for i, (g, w) in enumerate(
            zip(got.splitlines(), want.splitlines())
        ):
            if g != w:
                print(f"  first divergent line {i}:")
                print(f"    got:  {g.decode(errors='replace')}")
                print(f"    want: {w.decode(errors='replace')}")
                break
        return 1
    print(f"== OK: {len(got.splitlines())} decision line(s) "
          "byte-identical to the golden stream across SIGKILL + resume")

    state_bytes = (out_dir / "daemon_state.json").stat().st_size
    print(f"== final state file: {state_bytes} bytes "
          f"(bound {MAX_STATE_BYTES})")
    if state_bytes > MAX_STATE_BYTES:
        print(f"error: state file of {state_bytes} bytes exceeds "
              f"{MAX_STATE_BYTES}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
