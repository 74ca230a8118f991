"""PQ-reconstruction with Stochastic Gradient Descent (paper §V, Alg. 1).

The sparse application × configuration matrix ``R`` is factored as
``R ~ baseline + Q @ P.T`` and trained on the observed entries only; the
product fills in every missing entry — the Netflix-style recommender
formulation the paper adopts, with applications as users and joint
configurations as items.

Structure, following the paper and the BellKor line of work it cites:

* a **baseline** of per-configuration means plus a shrunk per-application
  bias (two profiling samples pin the bias down well);
* **factors initialised by SVD** of the fully-characterised training
  rows' residuals — the paper constructs Q and P from an SVD — with
  sparse rows *folded in* by ridge projection onto that basis;
* **SGD refinement** over the observed entries (Alg. 1), either the
  literal per-entry serial loop or the lock-free parallel variant
  (HOGWILD-style: an epoch's updates are computed from the same stale
  state and applied at once, trading a bounded ~1 % accuracy difference
  for a large speedup, §V).

Values are reconstructed in log space by default: throughput, power and
tail latency are positive and multiplicative in structure, which makes
their log matrices close to low-rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.deadline import PhaseMeter
from repro.core.matrices import ObservedMatrix
from repro.telemetry.tracer import SGD_RECONSTRUCT


@dataclass(frozen=True)
class SGDParams:
    """Hyper-parameters of the reconstruction (paper §V, §VIII-A2)."""

    #: Latent dimensionality of the interaction factors.
    rank: int = 3
    #: SGD refinement learning rate (eta in Alg. 1).
    learning_rate: float = 0.02
    #: L2 regularisation (lambda in Alg. 1).
    regularization: float = 0.05
    #: Maximum SGD refinement epochs.
    max_iter: int = 20
    #: Relative stopping tolerance: refinement stops after an epoch that
    #: lowers the observed RMSE by at most ``tol`` times the RMSE before
    #: it (0 runs every epoch that lowers it at all).
    tol: float = 1e-2
    #: Lock-free parallel refinement (True) or literal Alg. 1 (False).
    parallel: bool = True
    #: Reconstruct log-metrics (positive, multiplicative quantities).
    log_space: bool = True
    #: Shrinkage added to the per-row observation count when estimating
    #: the application bias (ridge prior toward the population).
    bias_shrinkage: float = 0.2
    #: Ridge strength (relative to the design's scale) of the fold-in.
    fold_in_ridge: float = 0.1
    #: A row is a basis ("anchor") row when at least this fraction of
    #: its entries is observed.
    anchor_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rank <= 0:
            raise ValueError("rank must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.regularization < 0:
            raise ValueError("regularization must be non-negative")
        if self.max_iter < 0:
            raise ValueError("max_iter must be non-negative")
        if self.bias_shrinkage < 0:
            raise ValueError("bias_shrinkage must be non-negative")
        if self.fold_in_ridge <= 0:
            raise ValueError("fold_in_ridge must be positive")
        if not 0 < self.anchor_fraction <= 1:
            raise ValueError("anchor_fraction must be in (0, 1]")
        if not (math.isfinite(self.tol) and self.tol >= 0):
            raise ValueError("tol must be finite and non-negative")


@dataclass(frozen=True)
class SGDDiagnostics:
    """What the last reconstruction did (for the overhead experiments)."""

    iterations: int
    observed_rmse: float
    converged: bool


class PQReconstructor:
    """Reconstructs missing entries of an :class:`ObservedMatrix`."""

    def __init__(self, params: SGDParams = SGDParams()) -> None:
        self.params = params
        self.last_diagnostics: Optional[SGDDiagnostics] = None
        self.meter = PhaseMeter()

    def reconstruct(self, matrix: ObservedMatrix) -> np.ndarray:
        """Return the dense reconstruction; observed entries are kept.

        Observed entries are copied through verbatim — the controller
        always trusts measurements over predictions (§IV-B).

        The result is memoised per matrix revision and parameters
        (:meth:`ObservedMatrix.derived`): a repeat returns a fresh copy
        of the same estimate and reports and charges the same
        iterations, so the meter and the trace cannot tell it from a
        recomputation.
        """
        with self.meter.phase(SGD_RECONSTRUCT, n_rows=matrix.n_rows) as charge:
            estimate, diagnostics = matrix.derived(
                "sgd.reconstruct",
                lambda: self._reconstruct(matrix),
                stamp=(self.params, matrix.revision),
            )
            self.last_diagnostics = diagnostics
            charge(diagnostics.iterations)
            return estimate.copy()

    def _reconstruct(
        self, matrix: ObservedMatrix
    ) -> Tuple[np.ndarray, SGDDiagnostics]:
        """The reconstruction (read-only) and what its refinement did."""
        mask = matrix.mask
        if not mask.any():
            raise ValueError("cannot reconstruct a matrix with no observations")
        values = matrix.values
        if self.params.log_space:
            if np.any(values[mask] <= 0):
                raise ValueError(
                    "log-space reconstruction requires positive observations"
                )
            work = np.zeros_like(values)
            np.log(values, where=mask, out=work)
        else:
            work = np.where(mask, values, 0.0)

        anchors = self._anchor_rows(mask)
        # When the anchors are exactly the known rows, their column means
        # and SVD basis are derived once per matrix version.
        memo = (
            matrix
            if anchors.size >= 2
            and np.array_equal(anchors, np.flatnonzero(matrix.known_rows))
            else None
        )
        baseline, centred = self._baseline(work, mask, anchors, memo)
        q, p = self._init_factors(centred, mask, anchors, memo)
        diagnostics = self._refine(centred, mask, q, p)

        estimate = baseline + q @ p.T
        if self.params.log_space:
            # Observed entries are copied over below; only the missing
            # ones are exponentiated.
            np.clip(estimate, -60.0, 60.0, out=estimate)
            np.exp(estimate, out=estimate, where=~mask)
        np.copyto(estimate, values, where=mask)
        estimate.flags.writeable = False
        return estimate, diagnostics

    # ------------------------------------------------------------------

    def _anchor_rows(self, mask: np.ndarray) -> np.ndarray:
        """Rows observed densely enough to serve as the training basis."""
        row_frac = mask.sum(axis=1) / mask.shape[1]
        return np.nonzero(row_frac >= self.params.anchor_fraction)[0]

    def _baseline(
        self,
        work: np.ndarray,
        mask: np.ndarray,
        anchors: np.ndarray,
        memo: Optional[ObservedMatrix] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-configuration mean + shrunk per-application bias.

        Column means come from the anchor (offline-characterised) rows
        when available, so sparse runtime rows do not contaminate the
        population profile at the two heavily-sampled columns.  When
        ``memo`` is given its known rows are the anchors, and the means
        are read from its per-version memo.
        """
        if memo is None:
            col_mean = self._column_means(work, mask, anchors)
        else:
            col_mean = memo.derived(
                ("sgd.column_means", self.params),
                lambda: self._column_means(work, mask, anchors),
            )
        col_centred = np.where(mask, work - col_mean[None, :], 0.0)
        row_count = mask.sum(axis=1)
        row_bias = col_centred.sum(axis=1) / np.maximum(
            row_count + self.params.bias_shrinkage, 1e-9
        )
        baseline = col_mean[None, :] + row_bias[:, None]
        centred = np.where(mask, col_centred - row_bias[:, None], 0.0)
        return baseline, centred

    @staticmethod
    def _column_means(
        work: np.ndarray, mask: np.ndarray, anchors: np.ndarray
    ) -> np.ndarray:
        """Mean of each column over the anchor rows (every row when
        fewer than two are anchors); the global mean where a column has
        no observation."""
        if anchors.size >= 2:
            basis_mask = mask[anchors]
            basis_work = work[anchors]
        else:
            basis_mask = mask
            basis_work = work
        col_count = basis_mask.sum(axis=0)
        col_mean = np.divide(
            basis_work.sum(axis=0),
            np.maximum(col_count, 1),
            out=np.zeros(work.shape[1]),
            where=col_count > 0,
        )
        global_mean = basis_work[basis_mask].mean()
        return np.where(col_count > 0, col_mean, global_mean)

    def _init_factors(
        self,
        centred: np.ndarray,
        mask: np.ndarray,
        anchors: np.ndarray,
        memo: Optional[ObservedMatrix] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """SVD of the anchor rows' residuals, ridge fold-in of the rest.

        With ``memo`` (whose known rows are the anchors) the basis comes
        from its per-version memo, copied because :meth:`_refine` updates
        it in place.  The copy keeps the basis's memory layout, so BLAS
        sums in the same order as on a fresh SVD.
        """
        params = self.params
        n_rows, n_cols = centred.shape
        if memo is None:
            p = self._basis(centred, anchors)
        else:
            p = memo.derived(
                ("sgd.basis", params), lambda: self._basis(centred, anchors)
            ).copy(order="K")
        rank = p.shape[1]

        # Every row's ridge system, stacked into one solve.  gram[i] is
        # the sum of p[j] p[j]^T over row i's observed columns j: one
        # matmul against the columns' outer products.  ``centred`` is
        # zero off the mask, so a row with no observations has a zero
        # right-hand side and solves to q = 0.
        outer = (p[:, :, None] * p[:, None, :]).reshape(n_cols, rank * rank)
        gram = (mask.astype(float) @ outer).reshape(n_rows, rank, rank)
        ridge = params.fold_in_ridge * (
            gram.trace(axis1=1, axis2=2) / rank + 1e-12
        )
        gram += ridge[:, None, None] * np.eye(rank)
        q = np.linalg.solve(gram, (centred @ p)[:, :, None])[:, :, 0]
        return q, p

    def _basis(self, centred: np.ndarray, anchors: np.ndarray) -> np.ndarray:
        """The configurations' factor basis (columns x rank)."""
        params = self.params
        n_cols = centred.shape[1]
        rank = min(params.rank, n_cols)
        if anchors.size >= 2:
            rank = min(rank, anchors.size)
            _, _, vt = np.linalg.svd(centred[anchors], full_matrices=False)
            return vt[:rank].T
        # Degenerate case (no offline-characterised rows): fall back to
        # a small random basis, as in the original Alg. 1.
        rng = np.random.default_rng(params.seed)
        return rng.normal(0.0, 1.0 / np.sqrt(n_cols), size=(n_cols, rank))

    def _refine(
        self,
        centred: np.ndarray,
        mask: np.ndarray,
        q: np.ndarray,
        p: np.ndarray,
    ) -> SGDDiagnostics:
        """SGD epochs over the observed entries (Alg. 1).

        Epochs run until one lowers the observed RMSE by at most
        ``tol`` times the RMSE before it, or ``max_iter`` have run.  The
        factors returned are the best seen: an epoch that raised the
        RMSE is undone, and its run still counts as an iteration.
        Every epoch writes into the same buffers: the factors before
        it, the residual, its square and the gradient and temporary of
        each factor.
        """
        params = self.params
        n_observed = np.count_nonzero(mask)
        # The mask is fixed for the whole refinement.
        weight = mask.astype(float)
        # As floats: a division by an int array casts it every epoch.
        counts_row = np.maximum(mask.sum(axis=1, keepdims=True), 1.0)
        counts_col = np.maximum(mask.sum(axis=0)[:, None], 1.0)
        err = np.empty(centred.shape)
        square = np.empty(centred.shape)
        if params.parallel:
            # C-ordered like the fresh arrays the plain expressions
            # make, so BLAS sums in the same order.
            grads = (
                np.empty(q.shape), np.empty(q.shape),
                np.empty(p.shape), np.empty(p.shape),
            )
        else:
            rng = np.random.default_rng(params.seed)
            rows_idx, cols_idx = np.nonzero(mask)

        def residual() -> float:
            """Refresh ``err`` for the current factors; its RMSE."""
            np.matmul(q, p.T, out=err)
            np.subtract(centred, err, out=err)
            # Zeroes the residual off the mask, up to the sign of a
            # zero, which no sum sees.
            np.multiply(err, weight, out=err)
            np.square(err, out=square)
            # np.sum's reduction, without its Python wrapper.
            total = np.add.reduce(square, axis=None)
            if not math.isfinite(total):
                # Overflowed factors: inf * 0 left NaN off the mask.
                np.copyto(err, 0.0, where=~mask)
                np.square(err, out=square)
                total = np.add.reduce(square, axis=None)
            return math.sqrt(total / n_observed)

        # The factors before the epoch, kept in case it raises the RMSE.
        prev_q = np.empty_like(q)
        prev_p = np.empty_like(p)
        # The residual that scores the factors is the next epoch's
        # gradient input: both read the same factor state.
        last_rmse = residual()
        iterations = 0
        converged = False
        for iterations in range(1, params.max_iter + 1):
            np.copyto(prev_q, q)
            np.copyto(prev_p, p)
            if params.parallel:
                self._epoch_parallel(
                    err, q, p, counts_row, counts_col, *grads
                )
            else:
                self._epoch_serial(centred, rows_idx, cols_idx, q, p, rng)
            current = residual()
            converged = last_rmse - current <= params.tol * last_rmse
            if current > last_rmse:
                np.copyto(q, prev_q)
                np.copyto(p, prev_p)
                break
            last_rmse = current
            if converged:
                break
        return SGDDiagnostics(
            iterations=iterations, observed_rmse=last_rmse, converged=converged
        )

    def _epoch_serial(
        self,
        centred: np.ndarray,
        rows_idx: np.ndarray,
        cols_idx: np.ndarray,
        q: np.ndarray,
        p: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """One pass of per-entry SGD updates in random order (Alg. 1).

        The step is bounded twice.  Each entry's rate on ``q[i]``
        (``p[j]``) is the learning rate divided by row ``i``'s (column
        ``j``'s) observed count, as the parallel epoch divides its
        summed gradient: at the full rate a fully observed row takes 108
        steps an epoch.  And both rates shrink together until the step
        moves the entry's own residual by at most the residual itself
        (``a * |p[j]|^2 + b * |q[i]|^2 <= 1``): a row folded in from
        one observation can carry a factor in the thousands, and an
        unbounded step on it overflows the factors.
        """
        eta = self.params.learning_rate
        lam = self.params.regularization
        rate_q = eta / np.maximum(np.bincount(rows_idx, minlength=q.shape[0]), 1)
        rate_p = eta / np.maximum(np.bincount(cols_idx, minlength=p.shape[0]), 1)
        order = rng.permutation(rows_idx.size)
        for k in order:
            i = rows_idx[k]
            j = cols_idx[k]
            q_i = q[i].copy()
            p_j = p[j]
            err = centred[i, j] - q_i @ p_j
            a, b = rate_q[i], rate_p[j]
            gain = a * (p_j @ p_j) + b * (q_i @ q_i)
            if gain > 1.0:
                a, b = a / gain, b / gain
            q[i] += a * (err * p_j - lam * q_i)
            p[j] += b * (err * q_i - lam * p_j)

    def _epoch_parallel(
        self,
        err: np.ndarray,
        q: np.ndarray,
        p: np.ndarray,
        counts_row: np.ndarray,
        counts_col: np.ndarray,
        grad_q: np.ndarray,
        temp_q: np.ndarray,
        grad_p: np.ndarray,
        temp_p: np.ndarray,
    ) -> None:
        """One lock-free epoch: all updates computed from stale factors.

        Every observed entry's gradient uses the factor state from the
        start of the epoch, mirroring HOGWILD workers reading stale
        parameters; the accumulated updates are then applied at once.
        ``err`` is that state's residual on the observed entries (zero
        elsewhere); ``counts_row`` (rows x 1) and ``counts_col``
        (columns x 1) count the observed entries, floored at 1.  The
        updates are ``q += eta * (err @ p / counts_row - lam * q)`` and
        then the same for ``p`` with the new ``q``, evaluated in that
        order into the gradient and temporary buffers.
        """
        eta = self.params.learning_rate
        lam = self.params.regularization
        for grad, temp, factor, other, resid, counts in (
            (grad_q, temp_q, q, p, err, counts_row),
            (grad_p, temp_p, p, q, err.T, counts_col),
        ):
            np.matmul(resid, other, out=grad)
            np.divide(grad, counts, out=grad)
            np.multiply(lam, factor, out=temp)
            np.subtract(grad, temp, out=grad)
            np.multiply(eta, grad, out=grad)
            np.add(factor, grad, out=factor)
