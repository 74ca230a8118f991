"""Reconstruction matrices: ground truth, observations, and training rows.

CuttleSys maintains three application × configuration matrices —
throughput (BIPS, batch jobs), tail latency (LC services), and power —
whose rows are either *known* applications characterised offline on all
108 joint configurations, or currently-running applications observed on
just a couple of configurations (two profiling samples plus whatever
steady states they have visited).  :class:`ObservedMatrix` is the sparse
container the controller fills at runtime; the row builders
(:func:`throughput_rows`, :func:`power_rows`, :func:`latency_row`, ...)
compute noise-free rows of the substrate's models, which give the
known rows and the experiments' true tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.sim.coreconfig import N_JOINT_CONFIGS
from repro.sim.perf import AppProfile, PerformanceModel
from repro.sim.power import PowerModel
from repro.snapshot import Codec, Match, SnapshotError
from repro.workloads.latency_critical import LCService, service_times
from repro.workloads.queueing import ServiceTimes

T = TypeVar("T")


@dataclass
class ObservedMatrix:
    """A sparse ratings matrix: known rows plus runtime observations.

    ``values`` is dense with ``mask`` marking which entries are
    observed; unobserved entries hold zeros and are ignored by the
    reconstruction.  Known (offline-characterised) rows are fully
    observed.

    ``version`` counts changes to the known rows and ``revision``
    changes to any entry of ``values`` or ``mask``.  Quantities derived
    from the known rows alone (the reconstruction's anchor statistics,
    the sanitiser's population statistics) are memoised per version by
    :meth:`derived`, and the reconstruction itself per revision; the
    memo is neither copied nor snapshotted.
    """

    n_rows: int
    n_cols: int = N_JOINT_CONFIGS
    values: np.ndarray = field(init=False)
    mask: np.ndarray = field(init=False)
    #: Quanta since each runtime observation was taken (0 = this
    #: quantum); known rows stay 0.
    age: np.ndarray = field(init=False)
    #: Rows installed as offline characterisations (never expire).
    known_rows: np.ndarray = field(init=False)
    #: Bumped by every change to a known row and by snapshot restore.
    version: int = field(init=False, default=0)
    #: Bumped by every change to ``values`` or ``mask``.
    revision: int = field(init=False, default=0)
    _derived: Dict[Hashable, Tuple[int, Any]] = field(
        init=False, default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.n_rows <= 0 or self.n_cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        self.values = np.zeros((self.n_rows, self.n_cols))
        self.mask = np.zeros((self.n_rows, self.n_cols), dtype=bool)
        self.age = np.zeros((self.n_rows, self.n_cols), dtype=int)
        self.known_rows = np.zeros(self.n_rows, dtype=bool)

    def set_known_row(self, row: int, values: np.ndarray) -> None:
        """Install a fully-characterised (training) row."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_cols,):
            raise ValueError(
                f"expected a row of {self.n_cols} values, got {values.shape}"
            )
        self.values[row] = values
        self.mask[row] = True
        self.age[row] = 0
        self.known_rows[row] = True
        self.version += 1
        self.revision += 1

    def observe(self, row: int, col: int, value: float) -> None:
        """Record one runtime measurement (later samples overwrite)."""
        self.observe_many(np.array([row]), np.array([col]), np.array([value]))

    def observe_many(
        self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
    ) -> None:
        """Record ``values[k]`` at ``(rows[k], cols[k])`` for every
        ``k``, in order, as one write.

        Raises ValueError for an index that is not an integer or lies
        outside the matrix, before writing anything; for a non-finite
        value, after writing the entries before it.  A later entry
        overwrites an earlier one at the same position (``put``
        writes in order).
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        values = np.asarray(values, dtype=float)
        if not rows.shape == cols.shape == values.shape or rows.ndim != 1:
            raise ValueError("rows, cols and values must be equal 1-D arrays")
        if not rows.size:
            return
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise ValueError("entry indices must be integers")
        rows = rows.astype(np.intp, copy=False)
        cols = cols.astype(np.intp, copy=False)
        # Viewed unsigned, a negative index is larger than any bound.
        if (
            rows.view(np.uintp).max() >= self.n_rows
            or cols.view(np.uintp).max() >= self.n_cols
        ):
            raise ValueError(
                f"entry index outside a {self.n_rows}x{self.n_cols} matrix"
            )
        finite = np.isfinite(values)
        n = rows.size
        if np.count_nonzero(finite) < n:
            n = int(np.argmin(finite))
        if n:
            flat = rows[:n] * self.n_cols + cols[:n]
            if self.known_rows[rows[:n]].any():
                self.version += 1
            self.values.put(flat, values[:n])
            self.mask.put(flat, True)
            self.age.put(flat, 0)
            self.revision += 1
        if n < rows.size:
            raise ValueError(f"observation must be finite, got {values[n]}")

    def observed_count(self, row: int) -> int:
        """Number of observed entries in ``row``."""
        return int(np.sum(self.mask[row]))

    def tick(self) -> None:
        """One decision quantum passes: age every runtime observation.

        Known rows never expire, so they are never aged either.
        """
        self.age += self.mask & ~self.known_rows[:, None]

    def expire(self, max_age: int) -> int:
        """Drop runtime observations older than ``max_age`` quanta.

        Offline-characterised (known) rows never expire.  Under phase
        drift, stale steady-state samples describe behaviour the job no
        longer exhibits; expiring them keeps the reconstruction anchored
        to recent reality.  Returns the number of entries dropped.
        """
        if max_age < 0:
            raise ValueError("max_age must be non-negative")
        stale = self.mask & (self.age > max_age)
        stale &= ~self.known_rows[:, None]
        dropped = int(np.count_nonzero(stale))
        if dropped:
            self.mask[stale] = False
            self.values[stale] = 0.0
            self.age[stale] = 0
            self.revision += 1
        return dropped

    def clear_row(self, row: int) -> None:
        """Forget every runtime observation in ``row`` (job churn)."""
        if self.known_rows[row]:
            self.version += 1
        self.values[row] = 0.0
        self.mask[row] = False
        self.age[row] = 0
        self.known_rows[row] = False
        self.revision += 1

    def copy(self) -> "ObservedMatrix":
        """Deep copy (used to snapshot before what-if reconstructions)."""
        out = ObservedMatrix(self.n_rows, self.n_cols)
        out.values = self.values.copy()
        out.mask = self.mask.copy()
        out.age = self.age.copy()
        out.known_rows = self.known_rows.copy()
        return out

    def derived(
        self, key: Hashable, build: Callable[[], T], stamp: Hashable = None
    ) -> T:
        """``build()``, computed once per ``stamp`` under ``key``.

        The stamp defaults to :attr:`version`, and then ``build`` must
        depend on the known rows alone: runtime observations change
        without bumping the version.  A stamp holding :attr:`revision`
        covers every entry.  Each key keeps one value, that of the last
        stamp.  Every caller gets the same value, so an array is made
        read-only.
        """
        if stamp is None:
            stamp = self.version
        hit = self._derived.get(key)
        if hit is None or hit[0] != stamp:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            hit = self._derived[key] = (stamp, value)
        return hit[1]


class _RuntimeEntries(Codec):
    """Snapshot codec of an :class:`ObservedMatrix`: only what the run
    observed.

    Known rows are offline characterisations, a pure function of the
    configuration, so a snapshot names them (a :class:`Match`).  Of the
    other rows it carries the observed entries alone: their flat
    indices (row-major within those rows), values and ages.  That is
    exact because an unobserved entry always holds value 0 and age 0
    (``__post_init__``, ``expire`` and ``clear_row`` keep it so).
    Restore lays the entries over the current matrix, which must
    already hold the same known rows.
    """

    N_ROWS = Match("matrix rows")
    N_COLS = Match("matrix columns")
    KNOWN = Match("known matrix rows")

    def encode(self, value: ObservedMatrix) -> Dict[str, Any]:
        runtime = ~value.known_rows
        index = np.flatnonzero(value.mask[runtime])
        return {
            "n_rows": value.n_rows,
            "n_cols": value.n_cols,
            "known_rows": np.flatnonzero(value.known_rows).tolist(),
            "index": index.tolist(),
            "values": value.values[runtime].ravel()[index].tolist(),
            "age": value.age[runtime].ravel()[index].tolist(),
        }

    def decode(self, data: Any, current: ObservedMatrix) -> ObservedMatrix:
        self.N_ROWS.decode(data["n_rows"], current.n_rows)
        self.N_COLS.decode(data["n_cols"], current.n_cols)
        self.KNOWN.decode(
            data["known_rows"], np.flatnonzero(current.known_rows).tolist()
        )
        runtime = ~current.known_rows
        shape = (int(np.count_nonzero(runtime)), current.n_cols)
        size = shape[0] * shape[1]
        index = np.asarray(data["index"], dtype=int).reshape(-1)
        entries = np.asarray(data["values"], dtype=float).reshape(index.shape)
        ages = np.asarray(data["age"], dtype=int).reshape(index.shape)
        if index.size and not 0 <= index.min() <= index.max() < size:
            raise SnapshotError(f"entry index out of range [0, {size})")
        if np.unique(index).size != index.size:
            raise SnapshotError("repeated entry index")
        values = np.zeros(size)
        mask = np.zeros(size, dtype=bool)
        age = np.zeros(size, dtype=int)
        values[index] = entries
        mask[index] = True
        age[index] = ages
        current.values[runtime] = values.reshape(shape)
        current.mask[runtime] = mask.reshape(shape)
        current.age[runtime] = age.reshape(shape)
        current.version += 1
        current.revision += 1
        return current


#: The one snapshot codec of an :class:`ObservedMatrix`.
MATRIX = _RuntimeEntries()


def throughput_rows(
    profiles: Sequence[AppProfile], perf: PerformanceModel
) -> np.ndarray:
    """Noise-free BIPS of each profile across all joint configurations."""
    return perf.bips_rows(profiles)


def power_rows(
    profiles: Sequence[AppProfile], power: PowerModel
) -> np.ndarray:
    """Noise-free core power of each profile across joint configurations."""
    return np.vstack([power.power_row(p) for p in profiles])


def latency_row(
    service: LCService,
    perf: PerformanceModel,
    load: float,
    n_cores: int,
) -> np.ndarray:
    """p99 latency of one service across all 108 joint configurations.

    Entry ``i`` equals ``service.tail_latency(perf, joint.core,
    joint.cache_ways, load, n_cores)`` for ``joint = JOINT_CONFIGS[i]``
    bit for bit: one array evaluation of the same M/G/k model.
    """
    return service_times([service], perf).p99_rows(
        [service.qps_at_load(load)], n_cores
    )[0]


def latency_training_rows(
    services: Sequence[LCService],
    loads: Sequence[float],
    perf: PerformanceModel,
    n_cores: int,
    exclude: Optional[Tuple[str, float]] = None,
    times: Optional[ServiceTimes] = None,
) -> Tuple[np.ndarray, List[Tuple[str, float]]]:
    """Offline latency characterisations of (service, load) combinations.

    The latency matrix's "known applications" are previously-seen
    services at a grid of loads.  ``exclude`` removes one (name, load)
    pair so a service under test never trains on its own exact row.
    ``times`` is :func:`service_times` of ``services``, built here when
    not given.  Returns the matrix and the (name, load) key per row;
    every row is :func:`latency_row` of its pair, all computed in one
    array pass.
    """
    pairs = [
        (index, load)
        for index, service in enumerate(services)
        for load in loads
        if exclude is None
        or service.name != exclude[0]
        or abs(load - exclude[1]) >= 1e-9
    ]
    if not pairs:
        raise ValueError("latency training set is empty")
    if times is None:
        times = service_times(services, perf)
    rows = times.p99_rows(
        [services[index].qps_at_load(load) for index, load in pairs],
        n_cores,
        rows=[index for index, _ in pairs],
    )
    return rows, [(services[index].name, load) for index, load in pairs]
