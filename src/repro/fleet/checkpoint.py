"""Atomic checkpoint/resume snapshots of completed fleet units.

The checkpoint file is a single JSON document::

    {
      "schema": 2,
      "fingerprint": {"fleet": ..., "seed": ...,
                      "units": [{"id": ..., "kwargs": {...}}, ...]},
      "completed": {"<unit id>": <JSON value>, ...}
    }

Writes are atomic (:func:`repro.snapshot.atomic_write_text`), so a run
killed mid-write leaves either the previous snapshot or the new one —
never a torn file.  The fingerprint pins the run configuration: a
``--resume`` against a checkpoint written by a different fleet, seed,
unit set, or any unit's arguments refuses loudly instead of silently
mixing results.

Float values round-trip exactly through JSON (``repr`` shortest-round-
trip), so a resumed run's merged report is byte-identical to an
uninterrupted one — the property the checkpoint tests assert.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.logs import get_logger
from repro.snapshot import atomic_write_text

log = get_logger("fleet.checkpoint")

__all__ = ["CheckpointError", "CheckpointStore", "inspect_checkpoint"]

#: Bumped whenever the file layout changes incompatibly.
SCHEMA_VERSION = 2


class CheckpointError(RuntimeError):
    """Unusable checkpoint: corrupt, mismatched, or unserializable."""


def _read_payload(path: Path) -> Dict[str, Any]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        # Truncated, zero-byte, or otherwise non-JSON content.
        raise CheckpointError(
            f"corrupt checkpoint {path}: {exc}"
        ) from exc
    except OSError as exc:
        # Directory, permission denied, vanished mid-read: all "this
        # file is not a readable checkpoint", not a crash.
        raise CheckpointError(
            f"unreadable checkpoint {path}: {exc}"
        ) from exc
    if not isinstance(data, dict):
        raise CheckpointError(
            f"corrupt checkpoint {path}: expected a JSON object"
        )
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has schema {schema!r}; this "
            f"toolkit reads schema {SCHEMA_VERSION}"
        )
    return data


def inspect_checkpoint(path: Union[str, Path]) -> Dict[str, Any]:
    """Raw payload of a checkpoint file (the ``fleet status`` CLI).

    Like :meth:`CheckpointStore.load`, refuses a file of another schema.
    """
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no such checkpoint: {path}")
    return _read_payload(path)


class CheckpointStore:
    """Owns one checkpoint file and its run fingerprint."""

    def __init__(
        self, path: Union[str, Path], fingerprint: Mapping[str, Any]
    ) -> None:
        self.path = Path(path)
        # Round-trip through JSON so load()'s comparison sees the same
        # normalised types (tuples become lists, ints stay ints).
        try:
            self.fingerprint: Dict[str, Any] = json.loads(
                json.dumps(dict(fingerprint), sort_keys=True)
            )
        except TypeError as exc:
            raise CheckpointError(
                f"fingerprint must be JSON-serializable: {exc}"
            ) from exc

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> Dict[str, Any]:
        """Completed units of a prior run; ``{}`` when none exists."""
        if not self.path.exists():
            return {}
        data = _read_payload(self.path)
        if data.get("fingerprint") != self.fingerprint:
            raise CheckpointError(
                f"checkpoint {self.path} was written by a different run "
                "configuration (fleet, seed, units or unit arguments "
                "changed); delete it or drop --resume to start fresh"
            )
        completed = data.get("completed", {})
        if not isinstance(completed, dict):
            raise CheckpointError(
                f"corrupt checkpoint {self.path}: 'completed' must be "
                "an object"
            )
        log.info(
            "loaded checkpoint %s (%d completed unit(s))",
            self.path, len(completed),
        )
        return completed

    def save(
        self,
        completed: Mapping[str, Any],
        stats: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Atomically replace the snapshot with ``completed``.

        ``stats`` (optional) adds execution health — retries, serial
        fallbacks, jobs — for ``repro fleet status``.  Purely additive,
        ignored by :meth:`load`, so the schema version stays put.
        """
        payload = {
            "schema": SCHEMA_VERSION,
            "fingerprint": self.fingerprint,
            "completed": dict(completed),
        }
        if stats is not None:
            payload["stats"] = dict(stats)
        try:
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        except TypeError as exc:
            raise CheckpointError(
                "checkpointed unit values must be JSON-serializable: "
                f"{exc}"
            ) from exc
        atomic_write_text(self.path, text)
        log.debug(
            "checkpointed %d unit(s) to %s", len(completed), self.path
        )
