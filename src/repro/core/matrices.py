"""Reconstruction matrices: ground truth, observations, and training rows.

CuttleSys maintains three application × configuration matrices —
throughput (BIPS, batch jobs), tail latency (LC services), and power —
whose rows are either *known* applications characterised offline on all
108 joint configurations, or currently-running applications observed on
just a couple of configurations (two profiling samples plus whatever
steady states they have visited).  :class:`ObservedMatrix` is the sparse
container the controller fills at runtime; :class:`TruthTables`
pre-computes the noise-free ground truth the oracle baselines and the
accuracy experiments (Fig. 5) compare against.
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
from repro.workloads.latency_critical import LCService, service_time_rows
from repro.workloads.queueing import p99_latency_rows

T = TypeVar("T")


@dataclass
class ObservedMatrix:
    """A sparse ratings matrix: known rows plus runtime observations.

    ``values`` is dense with ``mask`` marking which entries are
    observed; unobserved entries hold zeros and are ignored by the
    reconstruction.  Known (offline-characterised) rows are fully
    observed.

    ``version`` counts changes to the known rows.  Quantities derived
    from the known rows alone (the reconstruction's anchor statistics,
    the sanitiser's population statistics) are memoised per version by
    :meth:`derived`; the memo is neither copied nor snapshotted.
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

    def observe(self, row: int, col: int, value: float) -> None:
        """Record one runtime measurement (later samples overwrite)."""
        if not np.isfinite(value):
            raise ValueError(f"observation must be finite, got {value}")
        if self.known_rows[row]:
            self.version += 1
        self.values[row, col] = value
        self.mask[row, col] = True
        self.age[row, col] = 0

    def observed_count(self, row: int) -> int:
        """Number of observed entries in ``row``."""
        return int(np.sum(self.mask[row]))

    def tick(self) -> None:
        """One decision quantum passes: age every runtime observation.

        Known rows never expire, so they are never aged either.
        """
        self.age[self.mask & ~self.known_rows[:, None]] += 1

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
        stale[self.known_rows] = False
        dropped = int(np.sum(stale))
        self.mask[stale] = False
        self.values[stale] = 0.0
        self.age[stale] = 0
        return dropped

    def clear_row(self, row: int) -> None:
        """Forget every runtime observation in ``row`` (job churn)."""
        if self.known_rows[row]:
            self.version += 1
        self.values[row] = 0.0
        self.mask[row] = False
        self.age[row] = 0
        self.known_rows[row] = False

    def copy(self) -> "ObservedMatrix":
        """Deep copy (used to snapshot before what-if reconstructions)."""
        out = ObservedMatrix(self.n_rows, self.n_cols)
        out.values = self.values.copy()
        out.mask = self.mask.copy()
        out.age = self.age.copy()
        out.known_rows = self.known_rows.copy()
        return out

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per :attr:`version` under ``key``.

        ``build`` must depend on the known rows alone: runtime
        observations change without bumping the version.  Every caller
        gets the same value, so an array is made read-only.
        """
        hit = self._derived.get(key)
        if hit is None or hit[0] != self.version:
            value = build()
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            hit = self._derived[key] = (self.version, value)
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
    return _latency_rows([(service, load)], perf, n_cores)[0]


def latency_training_rows(
    services: Sequence[LCService],
    loads: Sequence[float],
    perf: PerformanceModel,
    n_cores: int,
    exclude: Optional[Tuple[str, float]] = None,
) -> Tuple[np.ndarray, List[Tuple[str, float]]]:
    """Offline latency characterisations of (service, load) combinations.

    The latency matrix's "known applications" are previously-seen
    services at a grid of loads.  ``exclude`` removes one (name, load)
    pair so a service under test never trains on its own exact row.
    Returns the matrix and the (name, load) key per row; every row is
    :func:`latency_row` of its pair, all computed in one array pass.
    """
    pairs = [
        (service, load)
        for service in services
        for load in loads
        if exclude is None
        or service.name != exclude[0]
        or abs(load - exclude[1]) >= 1e-9
    ]
    if not pairs:
        raise ValueError("latency training set is empty")
    keys = [(service.name, load) for service, load in pairs]
    return _latency_rows(pairs, perf, n_cores), keys


def _latency_rows(
    pairs: Sequence[Tuple[LCService, float]],
    perf: PerformanceModel,
    n_cores: int,
) -> np.ndarray:
    """p99 rows of (service, load) pairs sharing ``n_cores`` cores."""
    services = [service for service, _ in pairs]
    return p99_latency_rows(
        [service.qps_at_load(load) for service, load in pairs],
        service_time_rows(services, perf),
        [service.service_scv for service in services],
        n_cores,
        distributions=[service.service_distribution for service in services],
    )


@dataclass(frozen=True)
class TruthTables:
    """Noise-free per-job metric tables for one machine/workload.

    ``batch_bips``/``batch_power`` are [n_batch x 108]; ``lc_latency``
    and ``lc_power`` are dictionaries keyed by (load, n_cores) filled
    lazily by :meth:`for_machine`-style helpers in the experiments.
    """

    batch_bips: np.ndarray
    batch_power: np.ndarray

    @classmethod
    def build(
        cls,
        profiles: Sequence[AppProfile],
        perf: PerformanceModel,
        power: PowerModel,
    ) -> "TruthTables":
        """Compute both batch tables in one pass."""
        return cls(
            batch_bips=throughput_rows(profiles, perf),
            batch_power=power_rows(profiles, power),
        )
