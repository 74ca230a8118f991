"""Parallel Dynamically Dimensioned Search (paper §VI, Alg. 2).

DDS [Tolson & Shoemaker 2007] searches a high-dimensional discrete space
by perturbing a shrinking random subset of dimensions of the current
best point: early iterations move many dimensions (global exploration),
late iterations move few (local refinement).  The paper parallelises it
with ``n_threads`` logical searchers that share a global best point at a
per-iteration barrier, each thread group using a different perturbation
radius ``r`` so threads do not explore the same neighbourhood (§VI-B).

Each iteration runs in ``rounds_per_iteration`` rounds.  In a round
every thread draws ``points_per_iteration / rounds_per_iteration``
perturbations of its current best point, all threads' candidates are
scored as one vectorised batch when the objective provides
``evaluate_batch`` (see :class:`repro.core.objective.SystemObjective`),
and each thread moves to its best candidate if it improves.  The
default, one round, is the *population step*: 16 threads x 10 points in
one batch per iteration, 40 batches per search — the moral equivalent
of the paper's multi-threaded C++, and what keeps the search in the
low-millisecond range of Table II.  ``rounds_per_iteration ==
points_per_iteration`` is Alg. 2's sequential step (one point per
thread per round, 400 batches per search), kept as the reference; both
spend the same evaluations.

The decision vector has one dimension per batch job; each dimension's
value is a joint-configuration index in ``[0, n_confs)``, and every
dimension is searched (the LC service enters the objective as a
reservation, not as a pinned dimension).  Out-of-range perturbations
are *reflected* about the violated bound (Alg. 2 lines 14-15).

The round loop runs ``max_iter * rounds_per_iteration`` times per
search.  A round's perturbation draws the RNG in a fixed order
(dimension subset, forced dimensions when a candidate chose none, then
one normal step per chosen entry, in row-major order of the
thread-major candidate array) and changes only the chosen entries: a
given seed and round count always yield the same search.  The
sequential step draws through the same kernel: it is the reference for
the search algorithm, not for a particular RNG stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.deadline import DecisionBudget
from repro.telemetry.tracer import NULL_TRACER

Objective = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class DDSParams:
    """The paper's tuned parameters (Fig. 6)."""

    initial_random_points: int = 50
    perturbation_radii: Tuple[float, ...] = (0.2, 0.3, 0.4, 0.5)
    points_per_iteration: int = 10
    max_iter: int = 40
    n_threads: int = 16
    #: Rounds each thread's ``points_per_iteration`` points are drawn
    #: in.  A round perturbs the thread's current best point
    #: ``points_per_iteration / rounds_per_iteration`` times and scores
    #: every thread's candidates in one batch.  1 (the default) is the
    #: population step: one batch of ``n_threads * points_per_iteration``
    #: candidates per iteration.  ``points_per_iteration`` is Alg. 2's
    #: sequential step: one candidate per thread per round.
    rounds_per_iteration: int = 1

    def __post_init__(self) -> None:
        if self.initial_random_points <= 0:
            raise ValueError("initial_random_points must be positive")
        if not self.perturbation_radii:
            raise ValueError("need at least one perturbation radius")
        if any(r <= 0 for r in self.perturbation_radii):
            raise ValueError("perturbation radii must be positive")
        if self.points_per_iteration <= 0:
            raise ValueError("points_per_iteration must be positive")
        if self.max_iter <= 1:
            raise ValueError("max_iter must exceed 1")
        if self.n_threads <= 0:
            raise ValueError("n_threads must be positive")
        if (
            self.rounds_per_iteration <= 0
            or self.points_per_iteration % self.rounds_per_iteration
        ):
            raise ValueError(
                "rounds_per_iteration must be a positive divisor of "
                "points_per_iteration"
            )


@dataclass
class DDSResult:
    """Best point found plus the exploration trace (for Fig. 10a)."""

    best_x: np.ndarray
    best_objective: float
    #: Objective of the global best after each iteration.
    history: List[float] = field(default_factory=list)
    #: Every point evaluated, as (decision vector, objective) pairs.
    explored: List[Tuple[np.ndarray, float]] = field(default_factory=list)
    evaluations: int = 0


class DDSSearch:
    """Parallel DDS over discrete decision vectors."""

    #: Telemetry tracer; the shared no-op unless a session attaches one.
    tracer = NULL_TRACER
    #: Decision-budget meter (repro.core.deadline); when a controller
    #: attaches one, every search charges its candidate evaluations
    #: against the current quantum.
    budget: Optional[DecisionBudget] = None

    def __init__(self, params: DDSParams = DDSParams()) -> None:
        self.params = params

    def search(
        self,
        objective: Objective,
        n_dims: int,
        n_confs: int,
        rng: np.random.Generator,
        initial: Optional[np.ndarray] = None,
        record_explored: bool = False,
    ) -> DDSResult:
        """Maximise ``objective`` over ``[0, n_confs)**n_dims``.

        Every dimension is searched; the controller folds the LC
        service into the objective as a reservation rather than pinning
        a dimension.  ``initial`` seeds one starting point (e.g. the
        previous quantum's decision) alongside the random ones.
        """
        with self.tracer.span(
            "dds.search", category="dds", n_dims=n_dims
        ) as span:
            result = self._search(
                objective, n_dims, n_confs, rng, initial, record_explored,
            )
            span.set(evaluations=result.evaluations)
            if self.budget is not None:
                self.budget.charge(result.evaluations, phase="dds.search")
            return result

    def _search(
        self,
        objective: Objective,
        n_dims: int,
        n_confs: int,
        rng: np.random.Generator,
        initial: Optional[np.ndarray],
        record_explored: bool,
    ) -> DDSResult:
        if n_dims <= 0:
            raise ValueError("n_dims must be positive")
        if n_confs <= 1:
            raise ValueError("n_confs must exceed 1")
        params = self.params
        result = DDSResult(best_x=np.zeros(n_dims, dtype=int),
                           best_objective=-np.inf)
        batch_eval = getattr(objective, "evaluate_batch", None)

        def evaluate_many(xs: np.ndarray) -> np.ndarray:
            if batch_eval is not None:
                values = np.asarray(batch_eval(xs), dtype=float)
            else:
                values = np.array([float(objective(x)) for x in xs])
            result.evaluations += xs.shape[0]
            if record_explored:
                for x, v in zip(xs, values):
                    result.explored.append((x.copy(), float(v)))
            return values

        # Initial random population (Alg. 2 lines 5-6).
        candidates = rng.integers(
            0, n_confs, size=(params.initial_random_points, n_dims)
        )
        if initial is not None:
            candidates = np.vstack(
                [candidates, np.asarray(initial, dtype=int)[None, :]]
            )
        values = evaluate_many(candidates)
        best = int(np.argmax(values))
        best_x = candidates[best].copy()
        best_val = float(values[best])

        radii = np.array([
            params.perturbation_radii[
                min(
                    t // max(1, params.n_threads // len(params.perturbation_radii)),
                    len(params.perturbation_radii) - 1,
                )
            ]
            for t in range(params.n_threads)
        ])
        # A round's candidates are thread-major: thread t's are rows
        # first[t] .. first[t] + per_round - 1 of the batch.
        per_round = params.points_per_iteration // params.rounds_per_iteration
        first = np.arange(params.n_threads) * per_round
        # Per-candidate step scale of the perturbation (line 13).
        scale = np.repeat(radii, per_round)[:, None] * n_confs

        for iteration in range(1, params.max_iter + 1):
            # Perturbation probability shrinks with iteration (line 10).
            prob = 1.0 - math.log(iteration) / math.log(params.max_iter)
            prob = max(prob, 1.0 / n_dims)
            local_x = best_x[None, :].repeat(params.n_threads, axis=0)
            local_val = np.full(params.n_threads, best_val)
            for _ in range(params.rounds_per_iteration):
                new_x = self._perturb_batch(
                    local_x.repeat(per_round, axis=0), prob, scale, n_confs,
                    rng,
                )
                new_val = evaluate_many(new_x)
                # Each thread keeps its best candidate if it improves.
                pick = first + new_val.reshape(
                    params.n_threads, per_round
                ).argmax(axis=1)
                improved = new_val[pick] > local_val
                np.copyto(local_x, new_x[pick], where=improved[:, None])
                np.copyto(local_val, new_val[pick], where=improved)
            # Barrier: thread 0 aggregates (lines 18-21).
            top = int(local_val.argmax())
            if local_val[top] > best_val:
                best_val = float(local_val[top])
                best_x = local_x[top].copy()
            result.history.append(best_val)

        result.best_x = best_x
        result.best_objective = best_val
        return result

    @staticmethod
    def _perturb_batch(
        local_x: np.ndarray,
        prob: float,
        scale: np.ndarray,
        n_confs: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Perturb each row's point on a random dimension subset.

        A row is one candidate; ``scale`` is each row's step scale,
        ``radius * n_confs`` of its thread, as a column.  Only the
        chosen entries move, each by one normal step, drawn in
        row-major order; out-of-range values are reflected about the
        violated bound.  The RNG is drawn in a fixed order: the
        dimension subset, then (only when some row chose no dimension)
        the forced dimensions, then one step per chosen entry.
        """
        shape = local_x.shape
        chosen = rng.random(shape) < prob
        # Every candidate perturbs at least one dimension (Alg. 2).
        empty = (~chosen.any(axis=1)).nonzero()[0]
        if empty.size:
            chosen[empty, rng.integers(0, shape[1], size=empty.size)] = True
        # Flat indices of the chosen entries, in row-major order.
        moved = chosen.ravel().nonzero()[0]
        values = scale.take(moved // shape[1]) * rng.standard_normal(
            moved.size
        )
        values += local_x.take(moved)
        # Reflect into [0, upper]: below 0 about 0, above upper about
        # upper (Alg. 2 lines 14-15).
        upper = n_confs - 1
        np.abs(values, out=values)
        np.minimum(values, 2 * upper - values, out=values)
        np.maximum(values, 0, out=values)
        np.rint(values, out=values)
        new_x = local_x.astype(int)
        new_x.put(moved, values)
        return new_x
