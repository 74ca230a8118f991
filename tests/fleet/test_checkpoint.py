"""Tests for atomic checkpoint snapshots and fingerprint pinning."""

import json

import pytest

from repro.fleet import CheckpointError, CheckpointStore, inspect_checkpoint
from repro.fleet.checkpoint import SCHEMA_VERSION

FINGERPRINT = {
    "fleet": "test", "seed": 7,
    "units": [{"id": "a", "kwargs": {"n_slices": 4}},
              {"id": "b", "kwargs": {"n_slices": 4}}],
}


class TestRoundTrip:
    def test_missing_file_loads_empty(self, tmp_path):
        store = CheckpointStore(tmp_path / "ck.json", FINGERPRINT)
        assert not store.exists()
        assert store.load() == {}

    def test_save_then_load(self, tmp_path):
        path = tmp_path / "ck.json"
        store = CheckpointStore(path, FINGERPRINT)
        store.save({"a": {"value": 1.5}, "b": [1, 2, 3]})
        assert store.exists()
        reloaded = CheckpointStore(path, FINGERPRINT).load()
        assert reloaded == {"a": {"value": 1.5}, "b": [1, 2, 3]}

    def test_floats_round_trip_exactly(self, tmp_path):
        # repr-shortest floats survive JSON bit-for-bit — the property
        # that makes resumed reports byte-identical.
        value = 19.613428736401837
        path = tmp_path / "ck.json"
        store = CheckpointStore(path, FINGERPRINT)
        store.save({"a": value})
        assert CheckpointStore(path, FINGERPRINT).load()["a"] == value

    def test_no_tmp_file_left_behind(self, tmp_path):
        path = tmp_path / "ck.json"
        CheckpointStore(path, FINGERPRINT).save({"a": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["ck.json"]

    def test_tuples_normalise_to_lists(self, tmp_path):
        path = tmp_path / "ck.json"
        fingerprint = dict(FINGERPRINT, units=tuple(FINGERPRINT["units"]))
        CheckpointStore(path, fingerprint).save({"a": 1})
        # A later run passing lists must still match.
        assert CheckpointStore(path, FINGERPRINT).load() == {"a": 1}


class TestValidation:
    def test_fingerprint_mismatch_refuses(self, tmp_path):
        path = tmp_path / "ck.json"
        CheckpointStore(path, FINGERPRINT).save({"a": 1})
        other = dict(FINGERPRINT, seed=8)
        with pytest.raises(CheckpointError, match="different run"):
            CheckpointStore(path, other).load()

    def test_corrupt_json_refuses(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="corrupt"):
            CheckpointStore(path, FINGERPRINT).load()

    def test_wrong_schema_refuses(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "schema": 99, "fingerprint": FINGERPRINT, "completed": {},
        }))
        with pytest.raises(CheckpointError, match="schema"):
            CheckpointStore(path, FINGERPRINT).load()

    def test_unserializable_value_raises_and_cleans_up(self, tmp_path):
        path = tmp_path / "ck.json"
        store = CheckpointStore(path, FINGERPRINT)
        with pytest.raises(CheckpointError, match="JSON-serializable"):
            store.save({"a": object()})
        assert list(tmp_path.iterdir()) == []

    def test_unserializable_fingerprint_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="fingerprint"):
            CheckpointStore(tmp_path / "ck.json", {"bad": object()})


class TestInspect:
    def test_inspect_returns_raw_payload(self, tmp_path):
        path = tmp_path / "ck.json"
        CheckpointStore(path, FINGERPRINT).save({"a": 1})
        payload = inspect_checkpoint(path)
        assert payload["schema"] == SCHEMA_VERSION == 2
        assert payload["fingerprint"]["fleet"] == "test"
        assert payload["completed"] == {"a": 1}

    def test_inspect_refuses_another_schema(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({
            "schema": 1, "fingerprint": FINGERPRINT, "completed": {},
        }))
        with pytest.raises(CheckpointError, match="schema 1"):
            inspect_checkpoint(path)

    def test_inspect_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no such checkpoint"):
            inspect_checkpoint(tmp_path / "absent.json")

    def test_inspect_zero_byte_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_bytes(b"")
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            inspect_checkpoint(path)

    def test_inspect_truncated_file(self, tmp_path):
        path = tmp_path / "ck.json"
        CheckpointStore(path, FINGERPRINT).save({"a": 1})
        truncated = path.read_bytes()[: path.stat().st_size // 2]
        path.write_bytes(truncated)
        with pytest.raises(CheckpointError, match="corrupt checkpoint"):
            inspect_checkpoint(path)

    def test_inspect_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            inspect_checkpoint(tmp_path)
