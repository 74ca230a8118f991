"""The optimisation objective of §IV-A / §VI-A.

Maximise the geometric mean of batch throughput (Eq. 1) subject to the
power budget (Eq. 2), the LLC way budget (Eq. 3), and the QoS of the
latency-critical service (Eq. 4; handled outside the search by fixing
the LC configuration first).  Constraint violations are folded into the
objective as *soft penalties* so points slightly over budget are not
discarded outright (§VI-A)::

    objective(x) = gmean(BIPS) - penalty_power * excess_power(x)
                               - penalty_cache * excess_ways(x)

(The paper's formula is written with ``maxPower - Power``; as printed
that would reward high power, so we penalise the excess, which is the
evident intent.)

The decision vector ``x`` assigns each batch job a joint-configuration
index in ``[0, 108)``; the LC service's contribution (cores, power,
ways) is folded in as a fixed reservation.

``__call__`` evaluates one vector term by term and is the reference.
The searchers call :meth:`SystemObjective.evaluate_batch`, which
gathers all four per-job terms (log throughput, power, whole ways,
half-way flag) from one table built at construction and sums them in
one reduction, with results bit-identical to gathering each metric on
its own.

:func:`power_fallback` is the hard constraint behind the soft power
penalty (§VI-B): when the chosen plan still exceeds the cap it gates
batch cores, hungriest first, until the plan fits.  The controller,
the oracle and every baseline with a power fallback call it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.coreconfig import CACHE_ALLOCS, N_CACHE_ALLOCS, N_JOINT_CONFIGS

#: Cache ways of each joint index (shape [108]); used vectorised.
_WAYS_BY_JOINT = np.array(
    [CACHE_ALLOCS[i % N_CACHE_ALLOCS] for i in range(N_JOINT_CONFIGS)]
)

#: Per-slot watts, or per-slot on flags: a list or a 1-D array.
Watts = Union[Sequence[float], np.ndarray]
Flags = Union[Sequence[bool], np.ndarray]


@dataclass(frozen=True)
class SystemObjective:
    """Evaluates candidate decision vectors for the batch jobs.

    ``bips`` and ``power`` are the (reconstructed) per-job metric
    tables, shape [n_jobs x 108].  ``reserved_power`` and
    ``reserved_ways`` account for the LC service and uncore;
    ``time_share`` scales throughput when active jobs outnumber batch
    cores (core relocation).
    """

    bips: np.ndarray
    power: np.ndarray
    max_power: float
    max_ways: float
    reserved_power: float = 0.0
    reserved_ways: float = 0.0
    penalty_power: float = 2.0
    penalty_cache: float = 2.0
    time_share: float = 1.0
    #: Cache ways consumed by each configuration index; ``None`` (the
    #: default for 108-column tables) uses the joint-configuration
    #: mapping.  Pass an explicit array (or zeros) for searches over a
    #: different alphabet, e.g. Flicker's 27 core-only configurations.
    ways_by_config: np.ndarray = None
    #: Stacked per-element terms of evaluate_batch, shape
    #: [4, n_jobs * n_confs]; built by ``__post_init__``.
    _table: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``j * n_confs`` per job j: a row's flat offset into ``_table``.
    _offsets: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.bips.shape != self.power.shape:
            raise ValueError("bips and power tables must have the same shape")
        if self.bips.ndim != 2:
            raise ValueError("metric tables must be 2-D [n_jobs x n_confs]")
        if self.max_power <= 0:
            raise ValueError("max_power must be positive")
        if self.max_ways <= 0:
            raise ValueError("max_ways must be positive")
        if self.ways_by_config is None:
            if self.bips.shape[1] != N_JOINT_CONFIGS:
                raise ValueError(
                    "ways_by_config is required for tables that are not "
                    f"[n_jobs x {N_JOINT_CONFIGS}]"
                )
            object.__setattr__(self, "ways_by_config", _WAYS_BY_JOINT)
        else:
            object.__setattr__(
                self,
                "ways_by_config",
                np.asarray(self.ways_by_config, dtype=float),
            )
            if self.ways_by_config.shape != (self.bips.shape[1],):
                raise ValueError(
                    "ways_by_config must have one entry per configuration"
                )
        # The per-element terms of evaluate_batch, computed once: entry
        # j * n_confs + c of each row belongs to job j at configuration
        # c, so a batch gathers all four terms with one ``take`` and
        # sums them with one reduction.
        n_jobs, n_confs = self.bips.shape
        ways = self.ways_by_config
        # 0.5 is the exact half-way sentinel from the config table,
        # never the result of arithmetic.
        half = ways == 0.5  # repro: noqa[UNIT301]
        table = np.empty((4, n_jobs, n_confs))
        table[0] = np.log(np.maximum(self.bips * self.time_share, 1e-12))
        table[1] = self.power
        table[2] = np.where(half, 0.0, ways)
        table[3] = half
        object.__setattr__(self, "_table", table.reshape(4, -1))
        object.__setattr__(self, "_offsets", np.arange(n_jobs) * n_confs)

    @property
    def n_jobs(self) -> int:
        """Number of batch jobs the decision vector covers."""
        return self.bips.shape[0]

    @property
    def n_confs(self) -> int:
        """Alphabet size of each decision dimension."""
        return self.bips.shape[1]

    def gmean_bips(self, x: np.ndarray) -> float:
        """Geometric mean of batch throughput for one decision vector."""
        vals = self.bips[np.arange(self.n_jobs), x] * self.time_share
        return float(np.exp(np.mean(np.log(np.maximum(vals, 1e-12)))))

    def total_power(self, x: np.ndarray) -> float:
        """Chip power of one decision vector, including reservations."""
        return float(
            np.sum(self.power[np.arange(self.n_jobs), x]) + self.reserved_power
        )

    def total_ways(self, x: np.ndarray) -> float:
        """Physical LLC ways used, pairing half-way holders (Eq. 3)."""
        ways = self.ways_by_config[x]
        # 0.5 is the exact half-way sentinel from the config table,
        # never the result of arithmetic.
        halves = int(np.sum(ways == 0.5))  # repro: noqa[UNIT301]
        whole = float(np.sum(ways[ways != 0.5]))  # repro: noqa[UNIT301]
        paired = np.ceil(halves / 2.0) if halves else 0.0
        return whole + paired + self.reserved_ways

    def __call__(self, x: np.ndarray) -> float:
        """Soft-penalty objective of one decision vector."""
        x = np.asarray(x, dtype=int)
        if x.shape != (self.n_jobs,):
            raise ValueError(
                f"decision vector must have shape ({self.n_jobs},), got {x.shape}"
            )
        value = self.gmean_bips(x)
        excess_power = max(0.0, self.total_power(x) - self.max_power)
        excess_ways = max(0.0, self.total_ways(x) - self.max_ways)
        return (
            value
            - self.penalty_power * excess_power
            - self.penalty_cache * excess_ways
        )

    def _column_sums(self, xs: np.ndarray) -> np.ndarray:
        """Per-row sums of the four table terms, shape [4, k].

        Each row still sums a contiguous run of ``n_jobs`` values, so
        the sums are bit-identical to summing the gathered metric rows
        one term at a time.
        """
        xs = np.asarray(xs, dtype=np.int64)
        if xs.ndim != 2 or xs.shape[1] != self.n_jobs:
            raise ValueError(
                f"batch must be [k x {self.n_jobs}], got {xs.shape}"
            )
        # An index out of range would read another job's entry.  Viewed
        # as unsigned, a negative index is huge, so one max bounds both.
        if xs.size and xs.view(np.uint64).max() >= self.n_confs:
            raise IndexError(
                f"configuration indices must be in [0, {self.n_confs})"
            )
        return np.add.reduce(self._table.take(xs + self._offsets, axis=1),
                             axis=2)

    def _totals(self, sums: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Power and way totals from :meth:`_column_sums`' output."""
        power = sums[1] + self.reserved_power
        total_ways = sums[2] + np.ceil(sums[3] / 2.0) + self.reserved_ways
        return power, total_ways

    def constraint_totals(
        self, xs: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Chip power and physical LLC ways of each row of ``xs``.

        Both include the reservations; half-way holders pair up as in
        :meth:`total_ways`.  Returns ``(power_w, total_ways)``.
        """
        return self._totals(self._column_sums(xs))

    def evaluate_batch(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised objective over ``xs`` of shape [k, n_jobs].

        Semantically identical to calling the objective on each row;
        this is what makes the Python DDS/GA loops run in the
        millisecond range the paper reports for its parallel C++.
        """
        sums = self._column_sums(xs)
        power, total_ways = self._totals(sums)
        gmean = np.exp(sums[0] / self.n_jobs)
        return (
            gmean
            - self.penalty_power * np.maximum(0.0, power - self.max_power)
            - self.penalty_cache * np.maximum(0.0, total_ways - self.max_ways)
        )

    def is_feasible(self, x: np.ndarray, power_slack: float = 0.0) -> bool:
        """Hard-constraint check (used after the search, §VI-B)."""
        x = np.asarray(x, dtype=int)
        return (
            self.total_power(x) <= self.max_power + power_slack
            and self.total_ways(x) <= self.max_ways + 1e-9
        )


def hungriest_first(power: Watts) -> List[int]:
    """Slot indices in descending power; equal powers lowest index first."""
    return sorted(range(len(power)), key=lambda j: -power[j])


def planned_power(
    power: Watts,
    on: Flags,
    reserved_power: float,
    gated_residual: float,
) -> float:
    """Chip power of a plan in which only the ``on`` slots run.

    Sums the reserved power first, then the slots by index, a gated
    slot adding ``gated_residual``: the runtime's order of addition,
    on which :func:`power_fallback`'s decisions depend bit for bit.
    """
    total = reserved_power
    for watts, is_on in zip(power, on):
        total += watts if is_on else gated_residual
    return float(total)


def power_fallback(
    power: Watts,
    reserved_power: float,
    max_power: float,
    gated_residual: float,
    order: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """The hard power fallback (§VI-B): which batch slots stay on.

    ``power[j]`` is slot j's predicted power at its chosen
    configuration.  While :func:`planned_power` exceeds ``max_power``,
    the next slot of ``order`` (default :func:`hungriest_first`) is
    gated.  Gating stops at the cap or when ``order`` is exhausted, so
    every slot is off when the reservation and the residuals alone
    exceed the cap.
    """
    power = [float(watts) for watts in power]
    on = [True] * len(power)
    for j in hungriest_first(power) if order is None else order:
        if planned_power(power, on, reserved_power, gated_residual) <= max_power:
            break
        on[j] = False
    return np.array(on, dtype=bool)
