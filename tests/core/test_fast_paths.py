"""Differential tests: the fast paths against the arithmetic they replaced.

``SystemObjective.evaluate_batch`` gathers from one stacked table and
``DDSSearch._perturb_batch`` draws and moves only the chosen entries.
Both must give the same bits (``np.array_equal``, not ``allclose``) and
leave the RNG in the same state as the straightforward versions kept
here as reference oracles, or a seeded run would decide differently.

SGD's refinement reuses each epoch's scoring residual as the next
epoch's gradient input and must match the per-epoch recomputation bit
for bit.  Its fold-in solves every row's ridge system in one stacked
solve; that changes the summation order, so it is held to the per-row
loop within rounding.  What the known rows alone determine is memoised
per matrix version; a warm reconstruction must equal a cold one on a
copy bit for bit, also after any change to the known rows.

The latency regimes' known rows are array passes over all 108 joint
configurations (``latency_row``, ``latency_training_rows``,
``erlang_c_array``, ``PerformanceModel.bips_rows``); their oracles are
the scalar ``erlang_c``, ``MGkQueue.p99_latency`` (through
``LCService.tail_latency``) and ``PerformanceModel.bips``, which the
machine's per-measurement path still uses.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.controller import LOAD_GRID, ResourceController
from repro.core.dds import DDSParams, DDSSearch
from repro.core.matrices import (
    MATRIX,
    ObservedMatrix,
    latency_row,
    latency_training_rows,
)
from repro.core.objective import SystemObjective
from repro.core.sgd import PQReconstructor, SGDDiagnostics, SGDParams
from repro.sim.cache import MissRateCurve
from repro.sim.coreconfig import JOINT_CONFIGS, N_CORE_CONFIGS, N_JOINT_CONFIGS
from repro.sim.perf import AppProfile, PerformanceModel
from repro.telemetry.provenance import classify_candidates
from repro.workloads.batch import SPEC_APPS, batch_profile
from repro.workloads.latency_critical import (
    LC_SERVICE_NAMES,
    make_services,
    service_variants,
)
from repro.workloads.queueing import (
    MGkQueue,
    ServiceDistribution,
    erlang_c,
    erlang_c_array,
    p99_latency_rows,
)


def reference_constraint_totals(obj, xs):
    """Power and way totals, gathering each metric on its own."""
    cols = np.arange(obj.n_jobs)[None, :]
    power = np.sum(obj.power[cols, xs], axis=1) + obj.reserved_power
    ways = obj.ways_by_config[xs]
    halves = np.sum(ways == 0.5, axis=1)
    whole = np.sum(np.where(ways == 0.5, 0.0, ways), axis=1)
    return power, whole + np.ceil(halves / 2.0) + obj.reserved_ways


def reference_evaluate_batch(obj, xs):
    """The batch objective computed term by term from the metric tables."""
    cols = np.arange(obj.n_jobs)[None, :]
    bips = obj.bips[cols, xs] * obj.time_share
    gmean = np.exp(np.mean(np.log(np.maximum(bips, 1e-12)), axis=1))
    power, total_ways = reference_constraint_totals(obj, xs)
    return (
        gmean
        - obj.penalty_power * np.maximum(0.0, power - obj.max_power)
        - obj.penalty_cache * np.maximum(0.0, total_ways - obj.max_ways)
    )


def reference_perturb_batch(local_x, prob, scale, n_confs, rng):
    """Perturbation one entry at a time: one normal per chosen entry."""
    n_threads, n_dims = local_x.shape
    chosen = rng.random((n_threads, n_dims)) < prob
    empty = ~chosen.any(axis=1)
    if empty.any():
        forced = rng.integers(0, n_dims, size=int(empty.sum()))
        chosen[np.nonzero(empty)[0], forced] = True
    upper = n_confs - 1
    new_x = local_x.astype(int)
    for i in range(n_threads):
        for j in range(n_dims):
            if not chosen[i, j]:
                continue
            value = float(local_x[i, j]) + float(
                scale[i, 0] * rng.standard_normal()
            )
            if value < 0:
                value = -value
            if value > upper:
                value = 2 * upper - value
            new_x[i, j] = int(np.rint(max(value, 0.0)))
    return new_x


@st.composite
def objectives(draw):
    """Random objectives over the three alphabets the searchers use."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_jobs = draw(st.integers(1, 20))
    alphabet = draw(st.sampled_from(["joint", "flicker", "custom"]))
    rng = np.random.default_rng(seed)
    ways_by_config = None
    n_confs = N_JOINT_CONFIGS
    if alphabet == "flicker":
        n_confs = N_CORE_CONFIGS
        ways_by_config = np.zeros(N_CORE_CONFIGS)
    elif alphabet == "custom":
        n_confs = draw(st.integers(2, 40))
        ways_by_config = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 4.0], n_confs)
    bips = rng.uniform(0.0, 6.0, (n_jobs, n_confs))
    # Zero throughput exercises the 1e-12 floor under the log.
    bips[rng.random((n_jobs, n_confs)) < 0.05] = 0.0
    power = rng.uniform(0.5, 6.0, (n_jobs, n_confs))
    return SystemObjective(
        bips=bips,
        power=power,
        max_power=draw(st.floats(1.0, 150.0)),
        max_ways=draw(st.floats(1.0, 40.0)),
        reserved_power=draw(st.floats(0.0, 40.0)),
        reserved_ways=draw(st.floats(0.0, 8.0)),
        penalty_power=draw(st.floats(0.0, 5.0)),
        penalty_cache=draw(st.floats(0.0, 5.0)),
        time_share=draw(st.floats(0.01, 1.0)),
        ways_by_config=ways_by_config,
    )


class TestObjectiveTable:
    @given(objectives(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_batch_bit_identical_to_reference(self, obj, k, seed):
        xs = np.random.default_rng(seed).integers(
            0, obj.n_confs, (k, obj.n_jobs)
        )
        assert np.array_equal(
            obj.evaluate_batch(xs), reference_evaluate_batch(obj, xs)
        )

    @given(objectives(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_constraint_totals_bit_identical(self, obj, k, seed):
        xs = np.random.default_rng(seed).integers(
            0, obj.n_confs, (k, obj.n_jobs)
        )
        power, ways = obj.constraint_totals(xs)
        ref_power, ref_ways = reference_constraint_totals(obj, xs)
        assert np.array_equal(power, ref_power)
        assert np.array_equal(ways, ref_ways)
        classified = classify_candidates(obj, xs)
        assert np.array_equal(classified[0], ref_power)
        assert np.array_equal(classified[1], ref_ways)

    @pytest.mark.parametrize("bad", [N_JOINT_CONFIGS, -1])
    def test_out_of_range_index_rejected(self, bad):
        rng = np.random.default_rng(0)
        obj = SystemObjective(
            bips=rng.uniform(1, 2, (3, N_JOINT_CONFIGS)),
            power=rng.uniform(1, 2, (3, N_JOINT_CONFIGS)),
            max_power=10.0, max_ways=32.0,
        )
        # Flattened, either index would silently read a neighbouring job.
        xs = np.zeros((2, 3), dtype=int)
        xs[1, 1] = bad
        with pytest.raises(IndexError):
            obj.evaluate_batch(xs)


class TestPerturbation:
    @given(
        st.integers(1, 20), st.integers(1, 20), st.integers(2, 200),
        st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_output_and_rng_state(
        self, n_threads, n_dims, n_confs, prob, seed
    ):
        setup = np.random.default_rng(seed)
        local_x = setup.integers(0, n_confs, (n_threads, n_dims))
        radii = setup.choice([0.2, 0.3, 0.4, 0.5, 2.0], n_threads)
        rng_new = np.random.default_rng(seed + 1)
        rng_ref = np.random.default_rng(seed + 1)
        scale = radii[:, None] * n_confs
        got = DDSSearch._perturb_batch(local_x, prob, scale, n_confs, rng_new)
        want = reference_perturb_batch(local_x, prob, scale, n_confs, rng_ref)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def controller_objective():
    """A 16 x 108 objective shaped like the controller's, constraints binding."""
    rng = np.random.default_rng(2020)
    bips = rng.uniform(0.3, 6.0, (16, N_JOINT_CONFIGS))
    power = rng.uniform(0.8, 5.5, (16, N_JOINT_CONFIGS))
    return SystemObjective(
        bips=bips, power=power * 0.75, max_power=60.0, max_ways=32.0,
        reserved_power=20.0, reserved_ways=4.0, time_share=0.75,
    )


#: Expected searches of Alg. 2's sequential step
#: (``rounds_per_iteration == points_per_iteration``), recorded with
#: :func:`reference_perturb_batch` in place of the kernel: (seed,
#: best_x, best_objective, evaluations, sha256 of the float64 history
#: bytes).
PINNED_SEARCHES = [
    (0, [57, 12, 43, 88, 68, 72, 9, 98, 74, 29, 59, 70, 55, 69, 5, 60],
     4.432166443702579, 6450,
     "e779b414136369bf703a836cd7012a3831c4ba64e888156161c1d170ff71c2da"),
    (1, [57, 12, 43, 88, 55, 72, 52, 55, 74, 20, 59, 33, 70, 69, 5, 60],
     4.450899855422499, 6450,
     "35ce7479cb0f2829a0b58811a8ba89931ff8e6941e9f4c00e1e6c1da307e1955"),
    (2, [42, 12, 101, 65, 95, 72, 85, 55, 74, 0, 53, 72, 79, 46, 78, 60],
     4.4577481059187845, 6450,
     "5720cc98d7cf3354a943ba38134463eb307bc01712f2d8c152eaddac563dc524"),
]


#: The same searches with the default population step (one round per
#: iteration), recorded the same way.
PINNED_POPULATION_SEARCHES = [
    (0, [91, 107, 101, 70, 55, 72, 9, 98, 74, 20, 81, 72, 13, 46, 62, 72],
     4.422521362998847, 6450,
     "b565ed6b890d74dfe9fc7508b9a97d6560fa553fe6006ec45a5306def641e448"),
    (1, [42, 9, 101, 65, 95, 72, 85, 54, 74, 0, 59, 72, 53, 52, 5, 83],
     4.447953931064483, 6450,
     "5028fba6ac23e34b478d47c2e8ba62bb896d596ea20bdbaba61a5b5414390803"),
    (2, [52, 24, 65, 65, 95, 72, 52, 98, 68, 29, 51, 70, 55, 69, 5, 72],
     4.431372507834604, 6450,
     "e325686cf91827d60284d29e1d22db937c63edd4ff99ea59214082fb96c0e0dd"),
]


@pytest.mark.parametrize("kernel", ["fast", "oracle"])
@pytest.mark.parametrize("params, pinned", [
    (DDSParams(rounds_per_iteration=10), PINNED_SEARCHES),
    (DDSParams(), PINNED_POPULATION_SEARCHES),
], ids=["sequential", "population"])
def test_pinned_controller_shaped_searches(
    params, pinned, kernel, monkeypatch
):
    if kernel == "oracle":
        monkeypatch.setattr(
            DDSSearch, "_perturb_batch", staticmethod(reference_perturb_batch)
        )
    objective = controller_objective()
    for seed, best_x, best_objective, evaluations, history in pinned:
        result = DDSSearch(params).search(
            objective, n_dims=16, n_confs=N_JOINT_CONFIGS,
            rng=np.random.default_rng(seed),
        )
        assert [int(v) for v in result.best_x] == best_x
        assert result.best_objective == best_objective
        assert result.evaluations == evaluations
        digest = hashlib.sha256(
            np.asarray(result.history, dtype=float).tobytes()
        ).hexdigest()
        assert digest == history


# ----------------------------------------------------------------------
# Latency regimes: array M/G/k rows against the scalar model.
# ----------------------------------------------------------------------

PERF = PerformanceModel()


def _latency_services():
    """The five services, jittered variants, and distribution shapes."""
    base = list(make_services(PERF).values())
    services = list(base)
    for name in LC_SERVICE_NAMES:
        services.extend(service_variants(name, 2, seed=3, perf=PERF))
    xapian, masstree, imgdnn, moses, silo = base
    services += [
        dataclasses.replace(xapian, service_scv=0.0),
        dataclasses.replace(
            masstree,
            service_distribution=ServiceDistribution("bimodal", scv=2.0),
        ),
        dataclasses.replace(
            imgdnn, service_distribution=ServiceDistribution("deterministic"),
        ),
        dataclasses.replace(
            moses,
            service_distribution=ServiceDistribution("lognormal", scv=1.3),
        ),
        dataclasses.replace(
            silo, service_scv=0.0,
            service_distribution=ServiceDistribution("bimodal", scv=0.7),
        ),
    ]
    return services


LATENCY_SERVICES = _latency_services()


def scalar_latency_row(service, load, n_cores):
    """One p99 per joint configuration, through ``MGkQueue.p99_latency``."""
    return np.array([
        service.tail_latency(PERF, joint.core, joint.cache_ways, load, n_cores)
        for joint in JOINT_CONFIGS
    ])


class TestErlangCArray:
    @given(
        st.integers(1, 16),
        st.lists(
            st.one_of(st.just(0.0), st.floats(1e-9, 1.3)),
            min_size=1, max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar(self, servers, rhos):
        offered = np.array(rhos) * servers
        want = np.array([erlang_c(servers, a) for a in offered])
        assert np.array_equal(erlang_c_array(servers, offered), want)

    @pytest.mark.parametrize("servers", range(1, 17))
    def test_edges_match_scalar(self, servers):
        k = float(servers)
        offered = np.array([
            0.0,                      # idle: 0 without a log(0)
            1e-300,                   # smallest loads
            np.nextafter(k, 0.0),     # rho just below 1
            k * (1.0 - 1e-12),
            0.995 * 0.99 * k,         # the overload knee
            k,                        # rho == 1
            2.5 * k,                  # rho > 1
        ])
        want = np.array([erlang_c(servers, a) for a in offered])
        assert np.array_equal(erlang_c_array(servers, offered), want)

    def test_rejects_what_the_scalar_rejects(self):
        with pytest.raises(ValueError):
            erlang_c_array(0, np.array([1.0]))
        with pytest.raises(ValueError):
            erlang_c_array(2, np.array([1.0, -0.5]))


class TestP99Rows:
    @given(
        st.integers(1, 16),
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 10.0, 1e3, 5e3, 2e4, 1e5]),
                st.floats(0.0, 3.0),
            ),
            min_size=1, max_size=4,
        ),
        st.floats(0.01, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_mgk_queue(self, servers, queues, horizon, seed):
        """Idle, light (p_wait <= 0.01), waiting and overloaded queues."""
        rng = np.random.default_rng(seed)
        means = 10.0 ** rng.uniform(-5.5, -2.0, (len(queues), 30))
        rates = [rate for rate, _ in queues]
        scvs = [scv for _, scv in queues]
        want = np.array([
            [
                MGkQueue(rate, mean, scv, servers, horizon).p99_latency()
                for mean in row
            ]
            for rate, scv, row in zip(rates, scvs, means)
        ])
        got = p99_latency_rows(
            rates, means, scvs, servers, overload_horizon=horizon
        )
        assert np.array_equal(got, want)

    def test_rejects_what_the_queue_rejects(self):
        means = np.full((1, 3), 0.001)
        for rates, row, scvs, servers in (
            ([-1.0], means, [1.0], 4),
            ([1.0], means * 0.0, [1.0], 4),
            ([1.0], means, [-0.1], 4),
            ([1.0], means, [1.0], 0),
        ):
            with pytest.raises(ValueError):
                p99_latency_rows(rates, row, scvs, servers)


class TestLatencyRows:
    @given(
        st.sampled_from(LATENCY_SERVICES),
        st.sampled_from(LOAD_GRID),
        st.integers(1, 15),
    )
    @settings(max_examples=150, deadline=None)
    def test_latency_row_matches_scalar(self, service, load, n_cores):
        assert np.array_equal(
            latency_row(service, PERF, load, n_cores),
            scalar_latency_row(service, load, n_cores),
        )

    @pytest.mark.parametrize("load", LOAD_GRID)
    def test_every_bucket_every_service_at_both_ends(self, load):
        for n_cores in (1, 15):
            rows, keys = latency_training_rows(
                LATENCY_SERVICES, [load], PERF, n_cores
            )
            want = np.vstack([
                scalar_latency_row(service, load, n_cores)
                for service in LATENCY_SERVICES
            ])
            assert np.array_equal(rows, want)
            assert keys == [(s.name, load) for s in LATENCY_SERVICES]

    @given(
        st.lists(st.sampled_from(LATENCY_SERVICES), min_size=1, max_size=6),
        st.lists(st.sampled_from(LOAD_GRID), min_size=1, max_size=3),
        st.integers(1, 15),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_training_rows_match_scalar(
        self, services, loads, n_cores, use_exclude
    ):
        exclude = (services[0].name, loads[0]) if use_exclude else None
        pairs = [
            (service, load)
            for service in services
            for load in loads
            if exclude is None
            or (service.name, load) != exclude
        ]
        if not pairs:
            with pytest.raises(ValueError):
                latency_training_rows(
                    services, loads, PERF, n_cores, exclude=exclude
                )
            return
        rows, keys = latency_training_rows(
            services, loads, PERF, n_cores, exclude=exclude
        )
        want = np.vstack([
            scalar_latency_row(service, load, n_cores)
            for service, load in pairs
        ])
        assert np.array_equal(rows, want)
        assert keys == [(service.name, load) for service, load in pairs]


@st.composite
def app_profiles(draw):
    """Random profiles across the model's validated parameter ranges."""
    floor = draw(st.floats(0.0, 10.0))
    return AppProfile(
        name="random",
        base_cpi=draw(st.floats(0.1, 3.0)),
        fe_sens=draw(st.floats(0.0, 1.0)),
        be_sens=draw(st.floats(0.0, 1.0)),
        ls_sens=draw(st.floats(0.0, 1.0)),
        miss_curve=MissRateCurve(
            peak=floor + draw(st.floats(0.0, 30.0)),
            floor=floor,
            half_ways=draw(st.floats(0.1, 8.0)),
        ),
        mem_blocking=draw(st.floats(0.0, 1.0)),
        ls_mlp_sens=draw(st.floats(0.0, 1.0)),
        activity=draw(st.floats(0.1, 2.0)),
    )


def scalar_bips_row(perf, profile):
    return np.array([
        perf.bips(profile, joint.core, joint.cache_ways)
        for joint in JOINT_CONFIGS
    ])


class TestBipsRow:
    @given(app_profiles(), st.booleans(), st.floats(1.0, 5.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_loop(self, profile, reconfigurable, frequency):
        perf = PerformanceModel(
            frequency_ghz=frequency, reconfigurable=reconfigurable
        )
        assert np.array_equal(
            perf.bips_row(profile), scalar_bips_row(perf, profile)
        )

    def test_stacked_rows_match_scalar_loop(self):
        profiles = [batch_profile(name) for name in SPEC_APPS]
        profiles += [service.profile for service in LATENCY_SERVICES]
        want = np.vstack([scalar_bips_row(PERF, p) for p in profiles])
        assert np.array_equal(PERF.bips_rows(profiles), want)


# ----------------------------------------------------------------------
# SGD: the stacked fold-in and the residual-reusing refinement.
# ----------------------------------------------------------------------


def reference_init_factors(params, centred, mask, anchors):
    """SVD basis, then one ridge solve per observed row."""
    n_rows, n_cols = centred.shape
    rank = min(params.rank, n_cols)
    if anchors.size >= 2:
        rank = min(rank, anchors.size)
        _, _, vt = np.linalg.svd(centred[anchors], full_matrices=False)
        p = vt[:rank].T
    else:
        rng = np.random.default_rng(params.seed)
        p = rng.normal(0.0, 1.0 / np.sqrt(n_cols), size=(n_cols, rank))
    q = np.zeros((n_rows, rank))
    for i in range(n_rows):
        obs = np.nonzero(mask[i])[0]
        if obs.size == 0:
            continue
        design = p[obs]
        gram = design.T @ design
        ridge = params.fold_in_ridge * (np.trace(gram) / rank + 1e-12)
        q[i] = np.linalg.solve(
            gram + ridge * np.eye(rank), design.T @ centred[i, obs]
        )
    return q, p


def reference_refine(reconstructor, centred, mask, q, p):
    """Refinement that recomputes the residual and counts every epoch."""
    params = reconstructor.params
    rng = np.random.default_rng(params.seed)
    rows_idx, cols_idx = np.nonzero(mask)
    n_observed = rows_idx.size
    eta, lam = params.learning_rate, params.regularization

    def rmse():
        residual = np.where(mask, centred - q @ p.T, 0.0)
        return float(np.sqrt(np.sum(residual**2) / n_observed))

    last_rmse = rmse()
    iterations = 0
    converged = False
    for iterations in range(1, params.max_iter + 1):
        if params.parallel:
            err = np.where(mask, centred - q @ p.T, 0.0)
            counts_row = np.maximum(mask.sum(axis=1, keepdims=True), 1)
            counts_col = np.maximum(mask.sum(axis=0)[:, None], 1)
            q += eta * (err @ p / counts_row - lam * q)
            p += eta * (err.T @ q / counts_col - lam * p)
        else:
            reconstructor._epoch_serial(
                centred, rows_idx, cols_idx, q, p, rng
            )
        current = rmse()
        if last_rmse - current < params.tol:
            converged = True
            last_rmse = min(last_rmse, current)
            break
        last_rmse = current
    return SGDDiagnostics(
        iterations=iterations, observed_rmse=last_rmse, converged=converged
    )


@st.composite
def sparse_matrices(draw):
    """Known rows plus sparse runtime rows, some of them unobserved."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_known = draw(st.integers(0, 6))
    n_sparse = draw(st.integers(1, 8))
    n_cols = draw(st.sampled_from([5, 27, N_JOINT_CONFIGS]))
    rng = np.random.default_rng(seed)
    truth = np.exp(
        rng.normal(size=(n_known + n_sparse, 2))
        @ rng.normal(size=(2, n_cols))
        + rng.normal(0.0, 0.1, (n_known + n_sparse, n_cols))
    )
    matrix = ObservedMatrix(n_known + n_sparse, n_cols)
    for row in range(n_known):
        matrix.set_known_row(row, truth[row])
    for row in range(n_known, n_known + n_sparse):
        for col in rng.choice(n_cols, rng.integers(0, 4), replace=False):
            matrix.observe(row, int(col), float(truth[row, col]))
    if not matrix.mask.any():
        matrix.observe(0, 0, float(truth[0, 0]))
    return matrix


def sgd_problem(reconstructor, matrix):
    """The centred residuals, mask and anchors ``_reconstruct`` builds."""
    mask = matrix.mask
    work = np.zeros_like(matrix.values)
    np.log(matrix.values, where=mask, out=work)
    anchors = reconstructor._anchor_rows(mask)
    _, centred = reconstructor._baseline(work, mask, anchors)
    return centred, mask, anchors


class TestSGDFastPaths:
    @given(sparse_matrices(), st.sampled_from([1, 3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_stacked_fold_in_matches_per_row_solve(self, matrix, rank):
        reconstructor = PQReconstructor(SGDParams(rank=rank))
        centred, mask, anchors = sgd_problem(reconstructor, matrix)
        q, p = reconstructor._init_factors(centred, mask, anchors)
        want_q, want_p = reference_init_factors(
            reconstructor.params, centred, mask, anchors
        )
        assert np.array_equal(p, want_p)
        scale = max(1.0, float(np.abs(want_q).max()))
        np.testing.assert_allclose(q, want_q, rtol=1e-12, atol=1e-12 * scale)
        # Unobserved rows fold in to exactly zero, as the loop skips them.
        assert not q[~mask.any(axis=1)].any()

    @given(sparse_matrices(), st.booleans(), st.sampled_from([1e-5, 0.0]))
    @settings(max_examples=80, deadline=None)
    def test_refine_bit_identical_to_per_epoch_residual(
        self, matrix, parallel, tol
    ):
        reconstructor = PQReconstructor(SGDParams(parallel=parallel, tol=tol))
        centred, mask, anchors = sgd_problem(reconstructor, matrix)
        q, p = reconstructor._init_factors(centred, mask, anchors)
        # Same memory layout (p is a transposed SVD slice), so BLAS
        # sums in the same order.
        want_q, want_p = q.copy(order="K"), p.copy(order="K")
        got = reconstructor._refine(centred, mask, q, p)
        want = reference_refine(reconstructor, centred, mask, want_q, want_p)
        assert got == want
        assert np.array_equal(q, want_q)
        assert np.array_equal(p, want_p)


def reconstruct_cold(params, matrix):
    """A reconstruction of a copy, whose memo starts empty."""
    reconstructor = PQReconstructor(params)
    estimate = reconstructor.reconstruct(matrix.copy())
    return estimate, reconstructor.last_diagnostics


def known_rows_are_anchors(params, matrix):
    anchors = PQReconstructor(params)._anchor_rows(matrix.mask)
    return anchors.size >= 2 and np.array_equal(
        anchors, np.flatnonzero(matrix.known_rows)
    )


def check_population_memo(matrix):
    for col in range(matrix.n_cols):
        assert ResourceController._population(
            matrix, col
        ) == ResourceController._population_stats(matrix, col)


class TestKnownRowMemo:
    """The per-version memo of what the known rows alone determine."""

    @given(sparse_matrices(), st.sampled_from([1, 3]), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_warm_reconstruct_bit_identical_to_cold(
        self, matrix, rank, log_space
    ):
        params = SGDParams(rank=rank, log_space=log_space)
        reconstructor = PQReconstructor(params)
        reconstructor.reconstruct(matrix)
        assert not matrix.copy()._derived
        warm = reconstructor.reconstruct(matrix)
        cold, diagnostics = reconstruct_cold(params, matrix)
        assert np.array_equal(warm, cold)
        assert reconstructor.last_diagnostics == diagnostics
        assert bool(matrix._derived) == known_rows_are_anchors(params, matrix)
        # Other parameters sharing the matrix get their own entries.
        other = dataclasses.replace(params, rank=rank + 1)
        assert np.array_equal(
            PQReconstructor(other).reconstruct(matrix),
            reconstruct_cold(other, matrix)[0],
        )

    @given(sparse_matrices())
    @settings(max_examples=40, deadline=None)
    def test_memoised_basis_is_a_copy_in_the_same_layout(self, matrix):
        # The layout sets the order BLAS sums in; a C-order copy of the
        # F-order SVD basis changes controller decisions.
        reconstructor = PQReconstructor()
        centred, mask, anchors = sgd_problem(reconstructor, matrix)
        assume(known_rows_are_anchors(reconstructor.params, matrix))
        _, cold = reconstructor._init_factors(centred, mask, anchors)
        _, first = reconstructor._init_factors(centred, mask, anchors, matrix)
        _, second = reconstructor._init_factors(centred, mask, anchors, matrix)
        assert first is not second
        first += 1.0  # as _refine updates it in place
        assert np.array_equal(second, cold)
        assert second.strides == cold.strides

    @given(
        sparse_matrices(),
        st.sampled_from(["set_known_row", "clear_row", "observe", "restore"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_known_row_change_matches_cold_rebuild(
        self, matrix, change, seed
    ):
        params = SGDParams()
        reconstructor = PQReconstructor(params)
        reconstructor.reconstruct(matrix)
        check_population_memo(matrix)
        version = matrix.version
        rng = np.random.default_rng(seed)
        known = np.flatnonzero(matrix.known_rows)
        if change == "set_known_row":
            matrix.set_known_row(
                int(rng.integers(matrix.n_rows)),
                np.exp(rng.normal(size=matrix.n_cols)),
            )
        elif change == "restore":
            snapshot = MATRIX.encode(matrix)
            matrix.observe(matrix.n_rows - 1, 0, 123.0)
            MATRIX.decode(json.loads(json.dumps(snapshot)), matrix)
        else:
            assume(known.size > 0)
            row = int(rng.choice(known))
            if change == "clear_row":
                matrix.clear_row(row)
            else:
                matrix.observe(row, int(rng.integers(matrix.n_cols)), 2.5)
        assume(matrix.mask.any())
        assert matrix.version > version
        assert np.array_equal(
            reconstructor.reconstruct(matrix),
            reconstruct_cold(params, matrix)[0],
        )
        check_population_memo(matrix)

    @given(sparse_matrices())
    @settings(max_examples=40, deadline=None)
    def test_runtime_anchor_bypasses_memo(self, matrix):
        params = SGDParams()
        reconstructor = PQReconstructor(params)
        reconstructor.reconstruct(matrix)
        # The last row is a runtime row; observe it past anchor_fraction.
        row = matrix.n_rows - 1
        for col in range(math.ceil(params.anchor_fraction * matrix.n_cols)):
            matrix.observe(row, col, 1.0 + col / 10)

        def consulted(key, build):
            raise AssertionError(f"memo consulted for {key}")

        matrix.derived = consulted
        got = reconstructor.reconstruct(matrix)
        del matrix.derived
        assert np.array_equal(got, reconstruct_cold(params, matrix)[0])

    @given(sparse_matrices())
    @settings(max_examples=40, deadline=None)
    def test_memo_never_snapshotted(self, matrix):
        PQReconstructor().reconstruct(matrix)
        check_population_memo(matrix)
        data = json.loads(json.dumps(MATRIX.encode(matrix)))
        assert set(data) == {
            "n_rows", "n_cols", "known_rows", "index", "values", "age",
        }
        fresh = ObservedMatrix(matrix.n_rows, matrix.n_cols)
        for row in np.flatnonzero(matrix.known_rows):
            fresh.set_known_row(row, matrix.values[row])
        restored = MATRIX.decode(data, fresh)
        assert not restored._derived
        assert np.array_equal(restored.values, matrix.values)


class TestSparseMatrixCodec:
    """``MATRIX`` writes observed runtime entries only; a restore into
    the same known rows rebuilds every dense array exactly."""

    @given(sparse_matrices(), st.integers(0, 3), st.integers(0, 2),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_restores_dense_arrays(self, matrix, ticks, max_age,
                                              clear_last):
        for _ in range(ticks):
            matrix.tick()
        matrix.expire(max_age)
        if clear_last:
            matrix.clear_row(matrix.n_rows - 1)
        # What makes the sparse form exact: nothing hides off the mask.
        assert not matrix.values[~matrix.mask].any()
        assert not matrix.age[~matrix.mask].any()
        data = json.loads(json.dumps(MATRIX.encode(matrix)))
        runtime = ~matrix.known_rows
        assert data["index"] == sorted(set(data["index"]))
        assert len(data["index"]) == int(matrix.mask[runtime].sum())
        fresh = ObservedMatrix(matrix.n_rows, matrix.n_cols)
        for row in np.flatnonzero(matrix.known_rows):
            fresh.set_known_row(row, matrix.values[row])
        assert MATRIX.decode(data, fresh) is fresh
        for name in ("values", "mask", "age", "known_rows"):
            assert np.array_equal(getattr(fresh, name), getattr(matrix, name))
