"""Deterministic decision-deadline accounting (docs/robustness.md).

CuttleSys's premise is that reconstruction + search fit inside the
100 ms decision quantum, but nothing in the original design bounds what
happens when they do not.  :class:`DecisionBudget` meters the decision
loop in *virtual time* — deterministic operation counts (SGD refinement
iterations, DDS/GA candidate evaluations) rather than wall-clock, so
deadline behaviour replays bit-exactly across hosts and ``--jobs``
settings and the DET103 wall-clock lint stays clean.

On exhaustion the controller walks a degradation ladder (full DDS →
reduced-sample DDS → last-known-good assignment → static fair-share);
the rung taken each quantum is recorded under the
``controller.degradation.*`` counters and attributed by the accuracy
auditor as the ``deadline_degraded`` QoS-violation cause.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Dict, Optional

from repro.snapshot import INT, Map, Match, Snapshottable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.dds import DDSParams


class DecisionBudget(Snapshottable):
    """Per-quantum operation budget for one controller's decision loop.

    ``limit`` is the number of metered operations (SGD iterations,
    search-candidate evaluations and latency-regime builds priced at
    :data:`REGIME_BUILD_COST`) one decision quantum may spend; None
    meters without ever degrading.  The budget is charged by the
    reconstructor and the searcher through their ``budget`` hook — the
    same wiring pattern as their telemetry ``tracer`` — so nested uses
    (e.g. latency reconstructions inside the LC scan) are captured
    without the controller enumerating call sites.  The limit comes
    from the controller's configuration; a snapshot taken under another
    limit is rejected.
    """

    SNAPSHOT_FIELDS = {
        "limit": Match("decision budget"),
        "spent": INT,
        "total_spent": INT,
        "quanta": INT,
        "spent_by_phase": Map(INT),
    }

    def __init__(self, limit: Optional[int] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("decision budget must be at least 1 operation")
        self.limit = limit
        #: Operations charged in the current quantum.
        self.spent = 0
        #: Operations charged over the budget's lifetime.
        self.total_spent = 0
        #: Quanta started (``begin_quantum`` calls).
        self.quanta = 0
        #: Lifetime operations per phase label (``charge(..., phase=)``).
        #: Purely additive attribution for the virtual-cost profiler;
        #: the ``spent``/``total_spent`` arithmetic is unchanged.
        self.spent_by_phase: Dict[str, int] = {}

    @property
    def limited(self) -> bool:
        """Whether exhaustion is possible (a finite limit is set)."""
        return self.limit is not None

    def begin_quantum(self) -> None:
        """Reset the per-quantum meter at a decision boundary."""
        self.spent = 0
        self.quanta += 1

    def charge(self, units: int, phase: Optional[str] = None) -> None:
        """Record ``units`` operations against the current quantum.

        ``phase`` attributes the charge to a named hot-path phase
        (``sgd.reconstruct``, ``dds.search``, ...) without altering the
        deadline arithmetic itself.
        """
        if units < 0:
            raise ValueError("cannot charge a negative operation count")
        self.spent += units
        self.total_spent += units
        if phase is not None:
            self.spent_by_phase[phase] = (
                self.spent_by_phase.get(phase, 0) + units
            )

    def can_afford(self, units: int) -> bool:
        """Whether ``units`` more operations fit in this quantum."""
        if self.limit is None:
            return True
        return self.spent + units <= self.limit

    def remaining(self) -> Optional[int]:
        """Operations left this quantum (None when unlimited)."""
        if self.limit is None:
            return None
        return max(0, self.limit - self.spent)


#: Operations charged when a controller first builds a latency regime
#: (the known rows of one (service, load bucket, cores) matrix, in
#: ``ResourceController._latency_matrix``).  The build is array
#: arithmetic, not SGD iterations or candidate evaluations, so it is
#: priced in their currency: ~2.4 ms per 19-row build divided by the
#: ~6 us a metered operation took when it was set.  Now a build takes
#: ~1.3 ms and an operation ~1.6 us, so a build is worth ~840
#: operations and these 400 ~0.63 ms; the price is not yet recalibrated,
#: since changing it moves every budgeted decision (docs/robustness.md,
#: "Pricing a regime build").
REGIME_BUILD_COST = 400


def dds_search_cost(params: "DDSParams", seeded: bool) -> int:
    """Exact candidate-evaluation count of one DDS search.

    The initial random population, the optional seeded point (the
    previous quantum's decision), then ``max_iter`` barrier iterations
    in which each of ``n_threads`` logical searchers evaluates
    ``points_per_iteration`` candidates, however many rounds
    (``rounds_per_iteration``) it draws them in.  Deterministic by
    construction — DDS never early-exits — so the ladder can price a
    search before running it.
    """
    return (
        params.initial_random_points
        + (1 if seeded else 0)
        + params.max_iter * params.points_per_iteration * params.n_threads
    )


def reduced_dds_params(params: "DDSParams") -> "DDSParams":
    """The reduced-sample search of degradation rung 1.

    A deterministic ~70x shrink of the configured search (default
    6450 → 91 evaluations): fewer random starts, fewer logical
    threads, shallower iteration schedule.  Floors keep every field
    inside :class:`~repro.core.dds.DDSParams` validation range.  The
    round count is clamped to the largest divisor of the halved
    ``points_per_iteration`` it does not exceed, so the sequential
    step stays sequential and one round stays one round.
    """
    points = max(1, params.points_per_iteration // 2)
    rounds = min(params.rounds_per_iteration, points)
    while points % rounds:
        rounds -= 1
    return replace(
        params,
        initial_random_points=max(1, params.initial_random_points // 5),
        points_per_iteration=points,
        max_iter=max(2, params.max_iter // 10),
        n_threads=max(1, params.n_threads // 4),
        rounds_per_iteration=rounds,
    )
