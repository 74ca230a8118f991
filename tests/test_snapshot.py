"""The snapshot protocol (repro.snapshot): declared fields, one version,
explicit rejections, and the durable file write every snapshot uses."""

import json

import numpy as np
import pytest

from repro.fleet.checkpoint import CheckpointStore
from repro.server.driver import QuantumDriver, ServerConfig
from repro.snapshot import (
    INT,
    RNG,
    SNAPSHOT_VERSION,
    Match,
    Nested,
    SnapshotError,
    Snapshottable,
    Transient,
    atomic_write_text,
)


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
        assert written == _formerly_written(
            tmp_path / "old.json", driver.snapshot(), sort_keys=True
        )
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
