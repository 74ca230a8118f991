"""A fixed reference workload that gauges how fast the host runs now.

The benchmark's hosts are shared: the wall time of one and the same
quantum moves by a third between seconds, and between minutes, as
neighbours come and go.  Every timed process therefore runs
:func:`reference_work` right after each quantum (and a few times after
set-up) and the benchmark reports its timings at a fixed host speed::

    scaled_ms = measured_ms * REFERENCE_MS / reference_ms

where ``reference_ms`` is the median of the reference samples taken
around the measured work.  ``reference_work`` imports nothing from the
program, so its cost is the same on every commit; it mixes the
operations a decision quantum is made of (interpreted loops, small numpy
gathers and reductions, a small matrix factorisation, dict and list
churn), so that a host slowdown moves it as much as it moves a quantum.
A program that gets faster reads faster; a host that gets slower does
not.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Wall time of one ``reference_work`` call at the nominal host speed
#: (about its median on a 2-vCPU Xeon VM in its slower state; 2.8 ms in
#: its faster one).  Scaled timings are milliseconds at that speed.
REFERENCE_MS = 4.0
#: Reference samples on each side of a quantum whose median scales it:
#: wide enough to shrug off one noisy sample, narrow enough (about a
#: second) to follow the host from one speed to another.
HALF_WINDOW = 5

_N_JOBS = 16
_N_CONFIGS = 108
_BATCH = 256
_ROUNDS = 12


def _tables() -> tuple:
    rng = np.random.default_rng(20200401)
    bips = rng.uniform(0.2, 4.0, size=(_N_JOBS, _N_CONFIGS))
    power = rng.uniform(0.5, 6.0, size=(_N_JOBS, _N_CONFIGS))
    ways = rng.choice([0.5, 1.0, 2.0, 3.0], size=_N_CONFIGS)
    sparse = rng.uniform(0.1, 1.0, size=(24, 40))
    sparse[rng.uniform(size=sparse.shape) < 0.7] = np.nan
    return bips, power, ways, sparse


_BIPS, _POWER, _WAYS, _SPARSE = _tables()


def reference_work() -> float:
    """One fixed unit of work; returns a checksum of its result."""
    rng = np.random.default_rng(7)
    cols = np.arange(_N_JOBS)[None, :]
    best = rng.integers(0, _N_CONFIGS, size=_N_JOBS)
    best_value = -np.inf
    seen = {}
    # A DDS-like search: perturb, evaluate a batch, keep the best.
    for r in range(_ROUNDS):
        xs = np.repeat(best[None, :], _BATCH, axis=0)
        mask = rng.uniform(size=xs.shape) < 1.0 / (r + 2)
        xs[mask] = rng.integers(0, _N_CONFIGS, size=int(mask.sum()))
        bips = _BIPS[cols, xs]
        gmean = np.exp(np.mean(np.log(np.maximum(bips, 1e-12)), axis=1))
        power = np.sum(_POWER[cols, xs], axis=1)
        ways = _WAYS[xs]
        halves = np.sum(ways == 0.5, axis=1)
        whole = np.sum(np.where(ways == 0.5, 0.0, ways), axis=1)
        value = (gmean - 0.5 * np.maximum(0.0, power - 40.0)
                 - 0.5 * np.maximum(0.0, whole + np.ceil(halves / 2.0) - 20.0))
        i = int(np.argmax(value))
        if value[i] > best_value:
            best_value = float(value[i])
            best = xs[i].copy()
        for row in xs[:32].tolist():
            key = tuple(row[:4])
            seen[key] = seen.get(key, 0) + 1
    # A small SGD matrix completion over the observed entries.
    observed = ~np.isnan(_SPARSE)
    target = np.where(observed, _SPARSE, 0.0)
    p = rng.uniform(0.1, 0.5, size=(_SPARSE.shape[0], 4))
    q = rng.uniform(0.1, 0.5, size=(4, _SPARSE.shape[1]))
    for _ in range(30):
        err = np.where(observed, target - p @ q, 0.0)
        p, q = (p + 0.05 * (err @ q.T - 0.01 * p),
                q + 0.05 * (p.T @ err - 0.01 * q))
    # Interpreted bookkeeping.
    records = [{"job": j, "config": int(c), "bips": float(_BIPS[j, c])}
               for j, c in enumerate(best.tolist())]
    total = sum(r["bips"] for r in sorted(records, key=lambda r: r["config"]))
    return best_value + total + float(np.sum(p @ q)) + len(seen)


class Gauge:
    """Timed ``reference_work`` calls; every call must agree with the
    first one's checksum."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.samples_ms: List[float] = []
        self.checksum: Optional[float] = None
        self.mismatches = 0

    def sample(self) -> None:
        t = self.clock()
        checksum = reference_work()
        self.samples_ms.append((self.clock() - t) * 1e3)
        if self.checksum is None:
            self.checksum = checksum
        elif checksum != self.checksum:
            self.mismatches += 1


def speed_factor(reference_ms: Sequence[float]) -> float:
    """``REFERENCE_MS`` over the median reference time: multiply a
    measured time by it to get the time at the nominal host speed."""
    return REFERENCE_MS / statistics.median(reference_ms)


def scale_each(values_ms: Sequence[float], reference_ms: Sequence[float],
               half_window: int = HALF_WINDOW) -> List[float]:
    """Each ``values_ms[i]`` at the nominal host speed.

    ``reference_ms[i]`` was taken right after ``values_ms[i]``; value
    ``i`` is scaled by the median reference of samples ``i - half_window``
    to ``i + half_window``, so a host that changes speed mid-run scales
    each stretch by its own speed.
    """
    if len(values_ms) != len(reference_ms):
        raise ValueError("one reference sample per value expected")
    n = len(values_ms)
    return [
        value * speed_factor(
            reference_ms[max(0, i - half_window):min(n, i + half_window + 1)])
        for i, value in enumerate(values_ms)
    ]
