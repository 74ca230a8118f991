"""One snapshot protocol for crash-safe pause/resume (docs/robustness.md).

A stateful class subclasses :class:`Snapshottable` and declares its
mutable fields once, in a class-level ``SNAPSHOT_FIELDS`` mapping from
attribute name to :class:`Codec`; ``snapshot()`` and ``restore()``
walk that declaration.  Each JSON key is the attribute name without its
leading underscore.  Every snapshot carries ``version``; restore raises
:class:`SnapshotError` for any other version, a missing or malformed
field, or an identity value (:class:`Match`) another run wrote.  Floats
round-trip exactly through JSON (shortest ``repr``), so a restored
object continues bit-exactly.  SNAP701 lints the declarations.

Per-quantum history is declared with :class:`History`.  A snapshot
walk is self-contained by default; written through a :class:`Journal`,
each history appends only its new items to the journal beside the
state file, and the snapshot keeps the history's length instead.
"""

from __future__ import annotations

import contextvars
import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import (
    Any, Callable, ClassVar, Dict, Iterable, List, Mapping, Optional, Tuple,
    Type, Union,
)

import numpy as np

#: The one schema version every snapshot carries.
SNAPSHOT_VERSION = 5


class SnapshotError(ValueError):
    """A snapshot that cannot be restored here: wrong version, another
    run's origin, or a missing or malformed field."""

    def __init__(self, message: str, path: Tuple[str, ...] = ()) -> None:
        self.message = message
        self.path = path
        where = f"snapshot field {'.'.join(path)}: " if path else ""
        super().__init__(where + message)

    def within(self, key: str) -> "SnapshotError":
        """The same error, one level further down the snapshot tree."""
        return SnapshotError(self.message, (key,) + self.path)


class Codec:
    """Turns one attribute value into JSON and back; ``decode`` gets the
    attribute's current value so in-place codecs can restore into it."""

    def encode(self, value: Any) -> Any:
        raise NotImplementedError

    def decode(self, data: Any, current: Any) -> Any:
        raise NotImplementedError


class _Scalar(Codec):
    def __init__(self, kind: Callable[[Any], Any]) -> None:
        self.kind = kind

    def encode(self, value: Any) -> Any:
        return self.kind(value)

    def decode(self, data: Any, current: Any) -> Any:
        return self.kind(data)


INT = _Scalar(int)
FLOAT = _Scalar(float)
BOOL = _Scalar(bool)
STR = _Scalar(str)
#: A value that is already plain JSON, kept exactly as given.
JSON = _Scalar(lambda value: value)


class Array(Codec):
    """A numpy array of ``dtype``, as nested lists."""

    def __init__(self, dtype: Any) -> None:
        self.dtype = dtype

    def encode(self, value: np.ndarray) -> Any:
        return value.tolist()

    def decode(self, data: Any, current: Any) -> np.ndarray:
        return np.asarray(data, dtype=self.dtype)


ARRAY = Array(float)


class _Rng(Codec):
    """A numpy ``Generator``, restored in place into this run's stream."""

    def encode(self, value: np.random.Generator) -> Any:
        return value.bit_generator.state

    def decode(self, data: Any, current: Any) -> Any:
        current.bit_generator.state = data
        return current


RNG = _Rng()


class Indexed(Codec):
    """A value object with a dense ``index`` and a ``from_index``
    inverse (``JointConfig``, ``CoreConfig``)."""

    def __init__(self, cls: Any) -> None:
        self.cls = cls

    def encode(self, value: Any) -> int:
        return value.index

    def decode(self, data: Any, current: Any) -> Any:
        return self.cls.from_index(int(data))


class Opt(Codec):
    """``None`` or a value of ``inner``."""

    def __init__(self, inner: Codec) -> None:
        self.inner = inner

    def encode(self, value: Any) -> Any:
        return None if value is None else self.inner.encode(value)

    def decode(self, data: Any, current: Any) -> Any:
        return None if data is None else self.inner.decode(data, current)


class Seq(Codec):
    """A homogeneous list, tuple or set (sets travel sorted)."""

    def __init__(self, item: Codec, into: Callable[[Any], Any] = list) -> None:
        self.item = item
        self.into = into

    def encode(self, value: Any) -> Any:
        items = sorted(value) if self.into is set else value
        return [self.item.encode(v) for v in items]

    def decode(self, data: Any, current: Any) -> Any:
        if current is None or len(current) != len(data):
            current = [None] * len(data)
        return self.into(self.item.decode(d, c) for d, c in zip(data, current))


class Tup(Codec):
    """A fixed-length tuple with one codec per position."""

    def __init__(self, *items: Codec) -> None:
        self.items = items

    def encode(self, value: Any) -> Any:
        return [c.encode(v) for c, v in zip(self.items, value)]

    def decode(self, data: Any, current: Any) -> Any:
        if len(data) != len(self.items):
            raise SnapshotError(f"expected {len(self.items)} items")
        return tuple(c.decode(d, None) for c, d in zip(self.items, data))


class Map(Codec):
    """A dict in sorted key order: a JSON object when the keys are
    strings, else a list of ``[key, value]`` pairs."""

    def __init__(self, value: Codec, key: Codec = STR) -> None:
        self.value = value
        self.key = key

    def encode(self, value: Mapping[Any, Any]) -> Any:
        pairs = [
            [self.key.encode(k), self.value.encode(value[k])]
            for k in sorted(value)
        ]
        return dict(pairs) if self.key is STR else pairs

    def decode(self, data: Any, current: Any) -> Dict[Any, Any]:
        pairs = data.items() if self.key is STR else data
        return {
            self.key.decode(k, None): self.value.decode(v, None)
            for k, v in pairs
        }


class Record(Codec):
    """A dataclass value, one codec per field (``default`` for fields
    not named); decoding builds a fresh, validated instance."""

    def __init__(
        self, cls: Type[Any], default: Optional[Codec] = None, **fields: Codec
    ) -> None:
        self.cls = cls
        self.fields: Dict[str, Codec] = {}
        for f in dataclasses.fields(cls):
            codec = fields.get(f.name, default)
            if codec is None:
                raise TypeError(f"{cls.__name__}.{f.name} has no codec")
            self.fields[f.name] = codec
        self.init = {f.name for f in dataclasses.fields(cls) if f.init}

    def encode(self, value: Any) -> Dict[str, Any]:
        return {
            name: codec.encode(getattr(value, name))
            for name, codec in self.fields.items()
        }

    def decode(self, data: Any, current: Any) -> Any:
        values = {}
        for name, codec in self.fields.items():
            if current is None and isinstance(codec, Match):
                values[name] = data[name]  # nothing to match a fresh record to
            else:
                values[name] = codec.decode(data[name], getattr(current, name, None))
        obj = self.cls(**{k: v for k, v in values.items() if k in self.init})
        for name in values.keys() - self.init:
            object.__setattr__(obj, name, values[name])
        return obj


class Match(Codec):
    """An identity value a snapshot must share with this run (an origin
    digest, a configuration fingerprint, a matrix shape), named
    ``what`` in the error.  Restore compares and never overwrites."""

    def __init__(self, what: str) -> None:
        self.what = what

    def encode(self, value: Any) -> Any:
        return value

    def decode(self, data: Any, current: Any) -> Any:
        if data == current:
            return data
        if isinstance(data, dict) and isinstance(current, dict):
            pairs = [(f"{k}: ", data.get(k), current.get(k)) for k in
                     sorted(set(data) | set(current))
                     if data.get(k) != current.get(k)]
        else:
            pairs = [("", str(data)[:16], str(current)[:16])]
        detail = "; ".join(
            f"{k}snapshot {a!r}, this run {b!r}" for k, a, b in pairs
        )
        raise SnapshotError(f"{self.what} mismatch ({detail})")


class Nested(Codec):
    """Another snapshottable, restored into the current object; the
    snapshot and this run must agree on whether the object exists."""

    def encode(self, value: Any) -> Any:
        return None if value is None else value.snapshot()

    def decode(self, data: Any, current: Any) -> Any:
        if (data is None) != (current is None):
            raise SnapshotError(
                "snapshot has no state for an object this run has"
                if data is None else
                "snapshot has state for an object this run lacks"
            )
        if current is not None:
            current.restore(data)
        return current


class Transient(Codec):
    """State restore resets (to ``reset()``) instead of carrying; it
    never appears in the snapshot."""

    def __init__(self, reset: Callable[[], Any] = lambda: None) -> None:
        self.reset = reset


class Tail(list):
    """The newest ``keep`` items of an append-only history; ``start``
    counts the older items dropped from its head.  Append only."""

    def __init__(
        self, keep: int, items: Iterable[Any] = (), start: int = 0
    ) -> None:
        super().__init__(items)
        self.keep = keep
        self.start = start
        self._trim()

    def append(self, item: Any) -> None:
        super().append(item)
        self._trim()

    def _trim(self) -> None:
        excess = len(self) - self.keep
        if excess > 0:
            del self[:excess]
            self.start += excess


#: The journal the running snapshot walk writes to or reads from.
#: Codecs take no context, so :meth:`Journal.write` and
#: :meth:`Journal.restore` set it around their one walk.
_JOURNAL: "contextvars.ContextVar[Optional[Journal]]" = (
    contextvars.ContextVar("journal", default=None)
)


class History(Codec):
    """An append-only list of ``item`` values, or a :class:`Tail` of
    the newest ``keep`` of them.

    Self-contained it is ``{"length": n, "items": [...]}``, the items
    held in memory.  Under a :class:`Journal` the walk appends the items
    not yet journaled and keeps ``{"length": n}``; restore reads the
    items back from the journal.  :class:`Snapshottable` keys each
    declared history by class and field name.
    """

    def __init__(self, item: Codec, keep: Optional[int] = None) -> None:
        self.item = item
        self.keep = keep
        self.key: Optional[str] = None

    def encode(self, value: List[Any]) -> Dict[str, Any]:
        start = getattr(value, "start", 0)
        journal = _JOURNAL.get()
        if journal is not None:
            journal.append(self, value, start)
            return {"length": start + len(value)}
        return {
            "length": start + len(value),
            "items": [self.item.encode(v) for v in value],
        }

    def decode(self, data: Any, current: Any) -> List[Any]:
        length = int(data["length"])
        journal = _JOURNAL.get()
        items = (
            data["items"] if journal is None else journal.items(self, length)
        )
        if len(items) > length or (
            self.keep is None and len(items) != length
        ):
            raise SnapshotError(
                f"{len(items)} items for a history of {length}"
            )
        if self.keep is not None:
            items = items[max(0, len(items) - self.keep):]
        values = [self.item.decode(d, None) for d in items]
        if self.keep is None:
            return values
        return Tail(self.keep, values, start=length - len(values))


class Snapshottable:
    """Base of every class whose state survives a crash-safe resume.
    Restore walks ``SNAPSHOT_FIELDS`` in order, so :class:`Match`
    fields declared first reject a foreign snapshot untouched."""

    __slots__ = ()

    SNAPSHOT_FIELDS: ClassVar[Mapping[str, Codec]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        for attr, codec in vars(cls).get("SNAPSHOT_FIELDS", {}).items():
            if isinstance(codec, History):
                key = f"{cls.__name__}.{attr.lstrip('_')}"
                if codec.key not in (None, key):
                    raise TypeError(f"{key} reuses the history {codec.key}")
                codec.key = key

    def snapshot(self) -> Dict[str, Any]:
        """JSONable state of every declared field, plus the version."""
        state: Dict[str, Any] = {"version": SNAPSHOT_VERSION}
        for attr, codec in self.SNAPSHOT_FIELDS.items():
            if not isinstance(codec, Transient):
                state[attr.lstrip("_")] = codec.encode(getattr(self, attr))
        return state

    def restore(self, state: Mapping[str, Any]) -> None:
        """Overwrite every declared field from :meth:`snapshot` output."""
        name = type(self).__name__
        version = state.get("version") if isinstance(state, Mapping) else None
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported {name} snapshot version {version!r} "
                f"(expected {SNAPSHOT_VERSION})"
            )
        for attr, codec in self.SNAPSHOT_FIELDS.items():
            key = attr.lstrip("_")
            if isinstance(codec, Transient):
                value = codec.reset()
            elif key not in state:
                raise SnapshotError(f"missing from the {name} snapshot", (key,))
            else:
                try:
                    value = codec.decode(state[key], getattr(self, attr, None))
                except SnapshotError as exc:
                    raise exc.within(key) from None
                except (KeyError, TypeError, ValueError, IndexError) as exc:
                    raise SnapshotError(f"malformed ({exc!r})", (key,)) from exc
            if not isinstance(codec, Match):
                setattr(self, attr, value)


def atomic_write_text(path: Union[str, "os.PathLike[str]"], text: str) -> None:
    """Durably replace ``path`` with ``text``: write a sibling ``.tmp``
    file, fsync it, rename it over the target and fsync the directory,
    so a crash, power loss included, leaves the old file or the new
    one, never a torn mix, and the new one once this returns.  A failed
    write removes the temp file and leaves the previous file intact."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    # The rename lives in the directory: until the directory is synced,
    # a power loss can bring the old file back.
    directory = os.open(target.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


class Journal:
    """The append-only file that holds a state file's histories
    (``<state>.journal.jsonl``, one ``[key, item]`` JSON line per item).

    :meth:`write` runs an object's snapshot walk, appends the items no
    earlier write journaled with one fsync, and returns the state to
    persist: each :class:`History` as its length, plus the journal's
    line count and running sha256 under ``"journal"``.  Append the
    journal first and replace the state file second: a crash in between
    leaves orphan lines past the count, which :meth:`restore` drops
    before it replays the rest into the object's restore walk.
    """

    def __init__(self, state_path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = Path(f"{os.fspath(state_path)}.journal.jsonl")
        self.lines = 0
        self._size = 0
        self._sha = hashlib.sha256()
        #: Items journaled so far, per history key.
        self._counts: Dict[str, int] = {}
        self._staged: Dict[str, int] = {}
        self._pending: List[str] = []
        self._loaded: Dict[str, List[Any]] = {}

    def append(self, history: History, value: List[Any], start: int) -> None:
        """Stage the items of ``value`` (the items from absolute index
        ``start`` on) that are not journaled yet."""
        key = history.key
        if key is None or key in self._staged:
            raise SnapshotError(f"history {key!r} cannot be journaled twice")
        done = self._counts.get(key, 0)
        if not start <= done <= start + len(value):
            raise SnapshotError(
                f"history {key} holds items {start}..{start + len(value)}, "
                f"journal has {done}"
            )
        for item in value[done - start:]:
            self._pending.append(json.dumps(
                [key, history.item.encode(item)],
                sort_keys=True, separators=(",", ":"),
            ) + "\n")
        self._staged[key] = start + len(value)

    def items(self, history: History, length: int) -> List[Any]:
        """The journaled items of ``history``; ``length`` of them."""
        items = self._loaded.get(history.key or "", [])
        if len(items) != length:
            raise SnapshotError(
                f"journal holds {len(items)} items, snapshot expects {length}"
            )
        return items

    def write(self, obj: "Snapshottable") -> Dict[str, Any]:
        """Journal ``obj``'s new history and return its state."""
        token = _JOURNAL.set(self)
        try:
            state = obj.snapshot()
        finally:
            _JOURNAL.reset(token)
            staged, self._staged = self._staged, {}
            pending, self._pending = self._pending, []
        if pending:
            data = "".join(pending).encode("utf-8")
            with open(self.path, "r+b" if self._size else "wb") as handle:
                # Write from the journaled end, over anything a failed
                # write left past it.
                handle.seek(self._size)
                handle.write(data)
                handle.flush()
                if os.fstat(handle.fileno()).st_size > handle.tell():
                    handle.truncate()
                os.fsync(handle.fileno())
            self._sha.update(data)
            self._size += len(data)
            self.lines += len(pending)
        self._counts.update(staged)
        state["journal"] = {
            "lines": self.lines, "sha256": self._sha.hexdigest(),
        }
        return state

    def restore(
        self, obj: "Snapshottable", state: Mapping[str, Any]
    ) -> Dict[str, List[Any]]:
        """Check the journal against ``state``, restore ``obj`` from
        both, and drop the journal's orphan lines.  Returns every
        history's journaled items (as JSON), by key."""
        try:
            lines = int(state["journal"]["lines"])
            digest = str(state["journal"]["sha256"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(
                f"malformed ({exc!r})", ("journal",)
            ) from exc
        data = self.path.read_bytes() if self.path.exists() else b""
        parts = data.split(b"\n", lines)
        if len(parts) <= lines:
            raise SnapshotError(
                f"{self.path} has {len(parts) - 1} line(s), "
                f"the snapshot expects {lines}"
            )
        size = len(data) - len(parts[-1])
        sha = hashlib.sha256(data[:size])
        if sha.hexdigest() != digest:
            raise SnapshotError(
                f"{self.path} does not match the snapshot's digest"
            )
        loaded: Dict[str, List[Any]] = {}
        try:
            for line in parts[:-1]:
                key, item = json.loads(line)
                loaded.setdefault(key, []).append(item)
        except (TypeError, ValueError) as exc:
            raise SnapshotError(
                f"malformed ({exc!r})", ("journal",)
            ) from exc
        self._loaded = loaded
        token = _JOURNAL.set(self)
        try:
            obj.restore(state)
        finally:
            _JOURNAL.reset(token)
            self._loaded = {}
        if size < len(data):
            with open(self.path, "r+b") as handle:
                handle.truncate(size)
                os.fsync(handle.fileno())
        self.lines, self._size, self._sha = lines, size, sha
        self._counts = {key: len(items) for key, items in loaded.items()}
        return loaded
