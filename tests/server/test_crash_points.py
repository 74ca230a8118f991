"""Crash-point enumeration over the I/O of a daemon tick.

A shim records every open, write, flush, fsync, rename and truncate the
driver makes on its files (the decision stream, the journal, the state
file and its temp file) and every fsync of their directory.  The
operations replay onto :class:`Disk`, a model of one directory that
keeps what processes see apart from what stable storage holds.  For
each prefix of a tick's operations the directory is materialised under
two crash models:

* **process kill**: every flushed write is visible;
* **power loss**: only fsync'd data is visible, and a name only as of
  the last directory fsync; an unsynced append survives with none,
  half or all of its bytes.

Each materialised directory is resumed as ``repro serve --resume``
would (a fresh boot when there is no state file) and the session is
finished.  The decision stream, the tick responses, the ``jobs`` and
``status`` answers and the run's records must be byte-identical to the
uninterrupted run, and a tick that returned must not be lost.
"""

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import pytest

from repro import snapshot as snapshot_module
from repro.server import driver as driver_module
from repro.server.admission import JobSpec
from repro.server.driver import QuantumDriver, ServerConfig
from repro.server.session import CommandExecutor
from repro.sim.machine import measurement_state

SEED = 3
MIX = 0
STATE = "state.json"
STREAM = "decisions.jsonl"
#: Quanta of the session; the enumerated ticks are listed in TARGETS.
N_TICKS = 4
#: Tick 0 creates every file, admits a batch job (a slot replacement)
#: and journals a rejected job; tick 2 admits a job into a slot a
#: cancel freed and journals the cancelled job.
TARGETS = (0, 2)
DIRECTORY = "<dir>"


def config(directory, resume):
    return ServerConfig(
        mix=MIX, seed=SEED, max_quanta=N_TICKS, resume=resume,
        state_path=os.path.join(directory, STATE),
        decisions_path=os.path.join(directory, STREAM),
    )


def script(driver, tick):
    """The control-plane requests issued before ``tick``."""
    admission = driver.admission
    service = driver.machine.lc_services[0]
    if tick == 0:
        admission.submit(
            JobSpec(kind="lc", name=service.name, rps=service.max_qps * 0.5),
            tick,
        )
        admission.submit(JobSpec(kind="batch", name="astar"), tick)
        admission.submit(JobSpec(kind="batch", name="no_such_app"), tick)
    elif tick == 2:
        driver.cancel_job("j000002")
        admission.submit(JobSpec(kind="batch", name="bzip2"), tick)
        driver.set_rps("j000001", service.max_qps * 0.8)


@dataclass
class Outcome:
    """What a session answered, from its first tick after boot on."""

    first: int
    ticks: List[str]
    stream: bytes
    records: List[str]
    jobs: str
    status: str


def finish(driver, directory):
    """Run the session to its end; what it answered."""
    first = driver.quantum
    ticks = []
    for tick in range(first, N_TICKS):
        script(driver, tick)
        ticks.append(json.dumps(driver.tick(), sort_keys=True))
    executor = CommandExecutor(driver)
    status = executor.execute({"op": "status"})
    # Counts this process's writes; restore resets it.
    del status["driver"]["snapshots_written"]
    driver.close()
    with open(os.path.join(directory, STREAM), "rb") as handle:
        stream = handle.read()
    return Outcome(
        first=first,
        ticks=ticks,
        stream=stream,
        records=[
            json.dumps(measurement_state(m), sort_keys=True)
            for m in driver.stepper.run.measurements
        ],
        jobs=json.dumps(executor.execute({"op": "jobs"}), sort_keys=True),
        status=json.dumps(status, sort_keys=True),
    )


# ----------------------------------------------------------------------
# The model of one directory, and the shim that feeds it.
# ----------------------------------------------------------------------


@dataclass
class Disk:
    """One directory: what processes see and what stable storage holds."""

    contents: Dict[int, bytearray] = field(default_factory=dict)
    synced: Dict[int, bytes] = field(default_factory=dict)
    names: Dict[str, int] = field(default_factory=dict)
    synced_names: Dict[str, int] = field(default_factory=dict)

    def apply(self, op: Tuple) -> None:
        kind, name = op[0], op[1]
        if kind == "create":
            self.names[name] = len(self.contents)
            self.contents[len(self.contents)] = bytearray()
        elif kind == "flush":
            data = self.contents[self.names[name]]
            offset = len(data) if op[2] is None else op[2]
            data[offset:offset + len(op[3])] = op[3]
        elif kind == "truncate":
            del self.contents[self.names[name]][op[2]:]
        elif kind == "fsync":
            ino = self.names[name]
            self.synced[ino] = bytes(self.contents[ino])
        elif kind == "rename":
            self.names[op[2]] = self.names.pop(name)
        elif kind == "fsync_dir":
            self.synced_names = dict(self.names)
        # "open", "write" and "close" change nothing a crash can see.

    def after_kill(self) -> Dict[str, bytes]:
        return {
            name: bytes(self.contents[ino])
            for name, ino in self.names.items()
        }

    def after_power_loss(self, kept: float) -> Dict[str, bytes]:
        """Synced data under synced names, plus ``kept`` of each file's
        unsynced append."""
        files = {}
        for name, ino in self.synced_names.items():
            durable = self.synced.get(ino, b"")
            visible = bytes(self.contents[ino])
            if visible.startswith(durable):
                extra = visible[len(durable):]
                files[name] = durable + extra[:int(len(extra) * kept)]
            else:
                files[name] = visible if kept == 1.0 else durable
        return files


class Recorder:
    """Logs the file operations made inside one directory."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self.ops: List[Tuple] = []
        self.fds: Dict[int, str] = {}
        self.disk_names: set = set()

    def name_of(self, path) -> Optional[str]:
        path = os.path.abspath(os.fspath(path))
        if path == self.directory:
            return DIRECTORY
        if os.path.dirname(path) == self.directory:
            return os.path.basename(path)
        return None

    def log(self, op: Tuple) -> None:
        if op[0] == "create":
            self.disk_names.add(op[1])
        elif op[0] == "rename":
            self.disk_names.discard(op[1])
            self.disk_names.add(op[2])
        self.ops.append(op)

    def install(self, monkeypatch) -> None:
        real_open, real_os_open = open, os.open
        real_fsync, real_replace = os.fsync, os.replace

        def shim_open(path, mode="r", *args, **kwargs):
            name = self.name_of(path)
            if name is None or mode in ("r", "rb"):
                return real_open(path, mode, *args, **kwargs)
            self.log(("open", name, mode))
            if name not in self.disk_names:
                self.log(("create", name))
            elif "w" in mode:
                self.log(("truncate", name, 0))
            handle = real_open(path, mode, *args, **kwargs)
            shim = ShimFile(self, name, handle, mode)
            self.fds[handle.fileno()] = name
            return shim

        # A later open reusing a closed descriptor's number replaces
        # its entry, so closing needs no shim.
        def shim_os_open(path, flags, *args, **kwargs):
            fd = real_os_open(path, flags, *args, **kwargs)
            name = self.name_of(path)
            if name is not None:
                self.fds[fd] = name
            return fd

        def shim_fsync(fd):
            real_fsync(fd)
            name = self.fds.get(fd)
            if name == DIRECTORY:
                self.log(("fsync_dir", name))
            elif name is not None:
                self.log(("fsync", name))

        def shim_replace(src, dst):
            real_replace(src, dst)
            src_name, dst_name = self.name_of(src), self.name_of(dst)
            if src_name is not None:
                self.log(("rename", src_name, dst_name))

        for module in (snapshot_module, driver_module):
            monkeypatch.setattr(module, "open", shim_open, raising=False)
        monkeypatch.setattr(os, "open", shim_os_open)
        monkeypatch.setattr(os, "fsync", shim_fsync)
        monkeypatch.setattr(os, "replace", shim_replace)


class ShimFile:
    """A file handle whose writes reach the recorder when flushed."""

    def __init__(self, recorder: Recorder, name: str, handle, mode: str):
        self.recorder = recorder
        self.name = name
        self.handle = handle
        self.append = "a" in mode
        self.position = 0
        self.buffer: List[bytes] = []

    def write(self, data):
        raw = data.encode("utf-8") if isinstance(data, str) else bytes(data)
        self.buffer.append(raw)
        self.recorder.log(("write", self.name))
        return self.handle.write(data)

    def flush(self):
        if self.buffer:
            data = b"".join(self.buffer)
            self.buffer = []
            self.recorder.log((
                "flush", self.name,
                None if self.append else self.position, data,
            ))
            self.position += len(data)
        self.handle.flush()

    def seek(self, offset, whence=0):
        self.flush()
        self.position = self.handle.seek(offset, whence)
        return self.position

    def tell(self):
        return self.handle.tell()

    def truncate(self, size=None):
        self.flush()
        size = self.position if size is None else size
        self.recorder.log(("truncate", self.name, size))
        return self.handle.truncate(size)

    def fileno(self):
        return self.handle.fileno()

    def close(self):
        if not self.handle.closed:
            self.flush()
            self.recorder.log(("close", self.name))
        self.handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ----------------------------------------------------------------------
# The enumeration.
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """The uninterrupted session, its recorded operations, and the
    operation count at the end of each tick."""
    directory = str(tmp_path_factory.mktemp("live").resolve())
    recorder = Recorder(directory)
    with pytest.MonkeyPatch.context() as monkeypatch:
        recorder.install(monkeypatch)
        driver = QuantumDriver(config(directory, resume=False))
        ends = []
        ticks = []
        for tick in range(N_TICKS):
            script(driver, tick)
            ticks.append(json.dumps(driver.tick(), sort_keys=True))
            ends.append(len(recorder.ops))
    reference = finish(driver, directory)
    reference.ticks = ticks
    reference.first = 0
    return recorder.ops, ends, reference


def crash_states(ops, ends, target):
    """``(label, files, ticks acknowledged)`` for every prefix of the
    target tick's operations under each crash model."""
    start = 0 if target == 0 else ends[target - 1]
    disk = Disk()
    for op in ops[:start]:
        disk.apply(op)
    for cut in range(start, ends[target] + 1):
        if cut > start:
            disk.apply(ops[cut - 1])
        acknowledged = target + 1 if cut == ends[target] else target
        where = f"tick {target}, after op {cut - start}/{ends[target] - start}"
        yield f"{where}, kill", disk.after_kill(), acknowledged
        for kept in (0.0, 0.5, 1.0):
            yield (
                f"{where}, power loss keeping {kept:.0%} of unsynced appends",
                disk.after_power_loss(kept), acknowledged,
            )


def resume_outcome(files, directory):
    """Boot on ``files`` as ``serve --resume`` does and finish."""
    os.makedirs(directory)
    for name, data in files.items():
        with open(os.path.join(directory, name), "wb") as handle:
            handle.write(data)
    driver = QuantumDriver(config(directory, resume=True))
    if os.path.exists(os.path.join(directory, STATE)):
        driver.resume_from()
    return finish(driver, directory)


@pytest.mark.parametrize("target", TARGETS)
def test_every_crash_point_resumes_byte_identically(
    recorded, tmp_path, target
):
    ops, ends, reference = recorded
    kinds = {op[0] for op in ops[ends[target - 1] if target else 0:
                                 ends[target]]}
    assert {"flush", "rename"} <= kinds
    outcomes: Dict[Tuple, object] = {}
    failures = []
    for label, files, acknowledged in crash_states(ops, ends, target):
        key = tuple(sorted(files.items()))
        if key not in outcomes:
            try:
                outcomes[key] = resume_outcome(
                    files, str(tmp_path / f"case{len(outcomes)}")
                )
            except Exception as exc:  # reported with every crash point
                outcomes[key] = exc
        got = outcomes[key]
        if isinstance(got, Exception):
            failures.append(f"{label}: resume raised {got!r}")
            continue
        problems = [
            what for what, ok in (
                ("lost an acknowledged tick", got.first >= acknowledged),
                ("stream", got.stream == reference.stream),
                ("tick responses",
                 got.ticks == reference.ticks[got.first:]),
                ("run records", got.records == reference.records),
                ("jobs", got.jobs == reference.jobs),
                ("status", got.status == reference.status),
            ) if not ok
        ]
        if problems:
            failures.append(f"{label}: {', '.join(problems)}")
    assert not failures, "\n".join(failures)
    # Distinct crash states, not just the one the process-kill model
    # leaves: the power-loss model tears the stream's unsynced append.
    assert len(outcomes) > 3
