"""The snapshot protocol (repro.snapshot): declared fields, one version,
explicit rejections, and the durable file write every snapshot uses."""

import json

import numpy as np
import pytest

from repro.core.controller import ControllerConfig
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import (
    QuantumStepper,
    build_machine_for_mix,
    reference_power_for_mix,
)
from repro.fleet.checkpoint import CheckpointStore
from repro.server.driver import QuantumDriver, ServerConfig
from repro.sim.machine import measurement_state
from repro.snapshot import (
    FLOAT,
    INT,
    RNG,
    SNAPSHOT_VERSION,
    STR,
    History,
    Journal,
    Match,
    Nested,
    SnapshotError,
    Snapshottable,
    Tail,
    Transient,
    atomic_write_text,
)
from repro.telemetry.tracer import Tracer
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.loadgen import LoadTrace
from repro.workloads.mixes import paper_mixes


class Counter(Snapshottable):
    SNAPSHOT_FIELDS = {"count": INT}

    def __init__(self):
        self.count = 0


class Holder(Snapshottable):
    SNAPSHOT_FIELDS = {
        "kind": Match("holder kind"),
        "_rng": RNG,
        "child": Nested(),
        "scratch": Transient(list),
    }

    def __init__(self, kind="a", child=True):
        self.kind = kind
        self._rng = np.random.default_rng(3)
        self.child = Counter() if child else None
        self.scratch = []


class TestSnapshottable:
    def test_round_trip_restores_in_place_and_resets_transients(self):
        source = Holder()
        source.child.count = 5
        source._rng.random(4)
        state = json.loads(json.dumps(source.snapshot()))
        assert state["version"] == SNAPSHOT_VERSION
        assert "scratch" not in state and "rng" in state
        target = Holder()
        child, rng = target.child, target._rng
        target.scratch.append("stale")
        target.restore(state)
        assert target.child is child and target._rng is rng
        assert target.child.count == 5
        assert target.scratch == []
        assert target._rng.random() == source._rng.random()

    @pytest.mark.parametrize("version", [None, 1, 9])
    def test_other_versions_rejected(self, version):
        state = Counter().snapshot()
        state["version"] = version
        with pytest.raises(SnapshotError, match="version"):
            Counter().restore(state)

    def test_missing_and_malformed_fields_rejected(self):
        with pytest.raises(SnapshotError, match="count"):
            Counter().restore({"version": SNAPSHOT_VERSION})
        with pytest.raises(SnapshotError, match="count"):
            Counter().restore({"version": SNAPSHOT_VERSION, "count": "x"})

    def test_match_field_names_the_mismatch(self):
        state = Holder(kind="a").snapshot()
        with pytest.raises(SnapshotError, match="holder kind mismatch"):
            Holder(kind="b").restore(state)

    def test_nested_presence_must_agree_both_ways(self):
        with pytest.raises(SnapshotError, match="child"):
            Holder(child=False).restore(Holder().snapshot())
        with pytest.raises(SnapshotError, match="child"):
            Holder().restore(Holder(child=False).snapshot())


class Log(Snapshottable):
    SNAPSHOT_FIELDS = {
        "ticks": INT,
        "readings": History(FLOAT),
        "_lines": History(STR, keep=3),
    }

    def __init__(self):
        self.ticks = 0
        self.readings = []
        self._lines = Tail(3)

    def step(self):
        self.ticks += 1
        self.readings.append(self.ticks / 10)
        self._lines.append(f"line {self.ticks}")


def _logged(steps):
    log = Log()
    for _ in range(steps):
        log.step()
    return log


def _journaled(journal, steps):
    """A log journaled after every step, and its last state."""
    log = Log()
    state = None
    for _ in range(steps):
        log.step()
        state = journal.write(log)
    return log, json.loads(json.dumps(state))


def _same(a, b):
    return (a.ticks, a.readings, list(a._lines), a._lines.start) == (
        b.ticks, b.readings, list(b._lines), b._lines.start)


class TestHistory:
    def test_histories_are_keyed_by_class_and_field(self):
        codecs = Log.SNAPSHOT_FIELDS
        assert codecs["readings"].key == "Log.readings"
        assert codecs["_lines"].key == "Log.lines"

    def test_one_history_declares_one_field(self):
        with pytest.raises(TypeError, match="reuses"):
            class Copy(Snapshottable):
                SNAPSHOT_FIELDS = {"readings": Log.SNAPSHOT_FIELDS["readings"]}

    def test_tail_keeps_the_newest_items_and_counts_the_rest(self):
        tail = Tail(3, range(5))
        tail.append(5)
        assert list(tail) == [3, 4, 5] and tail.start == 3

    def test_self_contained_round_trip(self):
        source = _logged(5)
        state = json.loads(json.dumps(source.snapshot()))
        assert state["readings"] == {
            "length": 5, "items": [0.1, 0.2, 0.3, 0.4, 0.5]}
        assert state["lines"] == {
            "length": 5, "items": ["line 3", "line 4", "line 5"]}
        target = Log()
        target.restore(state)
        assert _same(target, source)

    @pytest.mark.parametrize("field, items", [
        ("readings", [0.1]), ("lines", ["a", "b", "c", "d", "e", "f"]),
    ])
    def test_item_count_must_fit_the_length(self, field, items):
        state = _logged(5).snapshot()
        state[field]["items"] = items
        with pytest.raises(SnapshotError, match=field):
            Log().restore(state)


class TestJournal:
    def test_state_keeps_lengths_and_the_journal_only_new_items(
        self, tmp_path
    ):
        source = _logged(2)
        journal = Journal(tmp_path / "s.json")
        assert journal.path == tmp_path / "s.json.journal.jsonl"
        journal.write(source)
        source.step()
        state = journal.write(source)
        assert state["readings"] == {"length": 3}
        assert state["lines"] == {"length": 3}
        lines = journal.path.read_text().splitlines()
        assert [json.loads(line)[0] for line in lines] == [
            "Log.readings", "Log.readings", "Log.lines", "Log.lines",
            "Log.readings", "Log.lines",
        ]
        assert state["journal"]["lines"] == 6
        # Nothing new: nothing appended, the same state.
        assert journal.write(source) == state
        assert journal.path.read_text().splitlines() == lines

    def test_restore_replays_the_journal_and_drops_orphans(self, tmp_path):
        writer = Journal(tmp_path / "s.json")
        source, state = _journaled(writer, 5)
        kept = writer.path.read_bytes()
        source.step()
        writer.write(source)  # its state file is never written: a kill
        assert writer.path.read_bytes() != kept

        target = Log()
        reader = Journal(tmp_path / "s.json")
        reader.restore(target, state)
        assert _same(target, _logged(5))
        assert writer.path.read_bytes() == kept
        # The restored journal appends where the snapshot left off.
        target.step()
        reference = Journal(tmp_path / "r.json")
        _, want = _journaled(reference, 6)
        assert json.loads(json.dumps(reader.write(target))) == want
        assert reader.path.read_bytes() == reference.path.read_bytes()

    @pytest.mark.parametrize("damage", ["short", "flipped", "missing"])
    def test_damaged_journal_is_refused_untouched(self, tmp_path, damage):
        journal = Journal(tmp_path / "s.json")
        _, state = _journaled(journal, 3)
        data = journal.path.read_bytes()
        if damage == "short":
            data = data[:data.rindex(b"\n", 0, -1) + 1]
        elif damage == "flipped":
            data = data.replace(b"0.3", b"0.4", 1)
        else:
            data = b""
        journal.path.write_bytes(data)
        with pytest.raises(SnapshotError, match="line|digest"):
            Journal(tmp_path / "s.json").restore(Log(), state)
        assert journal.path.read_bytes() == data

    def test_items_dropped_before_journaling_are_refused(self, tmp_path):
        with pytest.raises(SnapshotError, match="Log.lines"):
            Journal(tmp_path / "s.json").write(_logged(4))


def _stepper():
    """Mix 0 through four load buckets, with a batch job replaced every
    other quantum: the controller builds regimes at several buckets and
    core counts, and its bips/power matrices see churn."""
    mix = paper_mixes()[0]
    machine = build_machine_for_mix(mix, seed=7)
    policy = CuttleSysPolicy.for_machine(
        machine, seed=7, config=ControllerConfig(seed=7)
    )
    train_names, _ = train_test_split()
    trace = LoadTrace.steps([(0.0, 0.9), (0.25, 0.3), (0.55, 1.0), (0.85, 0.5)])
    return QuantumStepper(
        machine, policy, trace, n_slices=16,
        max_power_w=reference_power_for_mix(mix, seed=7),
        churn_period=2, churn_pool=[batch_profile(n) for n in train_names],
        churn_seed=5,
    )


def _matrices(controller):
    matrices = {"bips": controller._bips_matrix,
                "power": controller._power_matrix}
    matrices.update(controller._latency_matrices)
    return matrices


class TestControllerRestore:
    """Restore recomputes the known rows the snapshot leaves out."""

    def test_restored_matrices_and_decisions_match(self):
        source = _stepper()
        for _ in range(10):
            source.step()
        controller = source.policy.controller
        regimes = list(controller._latency_matrices)
        assert len({bucket for _, bucket, _ in regimes}) >= 4
        assert len({cores for _, _, cores in regimes}) >= 2
        state = json.loads(json.dumps(source.snapshot()))

        target = _stepper()
        target.policy.controller.attach_tracer(Tracer())
        target.restore(state)
        restored = target.policy.controller
        # The rebuild is neither spanned nor charged as a first build.
        assert not any(s.name == "mgk.latency"
                       for s in restored.tracer.spans)
        assert list(restored._latency_matrices) == regimes
        want, got = _matrices(controller), _matrices(restored)
        assert got.keys() == want.keys()
        for key, matrix in want.items():
            for name in ("values", "mask", "age", "known_rows"):
                assert np.array_equal(
                    getattr(got[key], name), getattr(matrix, name)
                ), (key, name)
        for _ in range(5):
            assert (measurement_state(target.step())
                    == measurement_state(source.step()))


def _formerly_written(path, payload, **kwargs):
    """The bytes the hand-rolled writers produced with ``json.dump``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, **kwargs)
        handle.write("\n")
    return path.read_bytes()


class TestAtomicWrite:
    def test_server_state_bytes_match_json_dump(self, tmp_path):
        driver = QuantumDriver(ServerConfig(
            mix=0, seed=3, max_quanta=5,
            state_path=str(tmp_path / "state.json"),
        ))
        driver.tick()
        written = (tmp_path / "state.json").read_bytes()
        journal = driver.journal.path.read_bytes()
        # Everything is journaled already, so this write appends nothing.
        assert written == _formerly_written(
            tmp_path / "old.json", driver.journal.write(driver),
            sort_keys=True,
        )
        assert driver.journal.path.read_bytes() == journal
        assert not (tmp_path / "state.json.tmp").exists()

    def test_checkpoint_bytes_match_json_dump(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json", {"fleet": "t"})
        store.save({"u1": {"x": 0.1, "y": [1, 2]}})
        payload = json.loads((tmp_path / "ck.json").read_text())
        assert (tmp_path / "ck.json").read_bytes() == _formerly_written(
            tmp_path / "old.json", payload, indent=2, sort_keys=True
        )
        assert not (tmp_path / "ck.json.tmp").exists()

    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "state.json"
        atomic_write_text(path, "old\n")
        with pytest.raises(UnicodeEncodeError):
            atomic_write_text(path, "new \udc80\n")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.json"]
