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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.coreconfig import N_JOINT_CONFIGS, JointConfig
from repro.sim.perf import AppProfile, PerformanceModel
from repro.sim.power import PowerModel
from repro.snapshot import ARRAY, Array, Match, Record
from repro.workloads.latency_critical import LCService


@dataclass
class ObservedMatrix:
    """A sparse ratings matrix: known rows plus runtime observations.

    ``values`` is dense with ``mask`` marking which entries are
    observed; unobserved entries hold zeros and are ignored by the
    reconstruction.  Known (offline-characterised) rows are fully
    observed.
    """

    n_rows: int
    n_cols: int = N_JOINT_CONFIGS
    values: np.ndarray = field(init=False)
    mask: np.ndarray = field(init=False)
    #: Quanta since each observation was taken (0 = this quantum).
    age: np.ndarray = field(init=False)
    #: Rows installed as offline characterisations (never expire).
    known_rows: np.ndarray = field(init=False)

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

    def observe(self, row: int, col: int, value: float) -> None:
        """Record one runtime measurement (later samples overwrite)."""
        if not np.isfinite(value):
            raise ValueError(f"observation must be finite, got {value}")
        self.values[row, col] = value
        self.mask[row, col] = True
        self.age[row, col] = 0

    def observed_count(self, row: int) -> int:
        """Number of observed entries in ``row``."""
        return int(np.sum(self.mask[row]))

    def tick(self) -> None:
        """One decision quantum passes: age every runtime observation."""
        self.age[self.mask] += 1

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


#: Snapshot codec of an :class:`ObservedMatrix`; restoring into an
#: existing matrix rejects a snapshot of another shape.
MATRIX = Record(
    ObservedMatrix,
    n_rows=Match("matrix rows"),
    n_cols=Match("matrix columns"),
    values=ARRAY,
    mask=Array(bool),
    age=Array(int),
    known_rows=Array(bool),
)


def throughput_rows(
    profiles: Sequence[AppProfile], perf: PerformanceModel
) -> np.ndarray:
    """Noise-free BIPS of each profile across all joint configurations."""
    return np.vstack([perf.bips_row(p) for p in profiles])


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
    """p99 latency of one service across all 108 joint configurations."""
    row = np.empty(N_JOINT_CONFIGS)
    for i in range(N_JOINT_CONFIGS):
        joint = JointConfig.from_index(i)
        row[i] = service.tail_latency(
            perf, joint.core, joint.cache_ways, load, n_cores
        )
    return row


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
    Returns the matrix and the (name, load) key per row.
    """
    rows = []
    keys = []
    for service in services:
        for load in loads:
            if exclude is not None and (
                service.name == exclude[0] and abs(load - exclude[1]) < 1e-9
            ):
                continue
            rows.append(latency_row(service, perf, load, n_cores))
            keys.append((service.name, load))
    if not rows:
        raise ValueError("latency training set is empty")
    return np.vstack(rows), keys


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
