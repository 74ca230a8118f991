"""Differential tests: the fast paths against the arithmetic they replaced.

``SystemObjective.evaluate_batch`` gathers from one stacked table and
``DDSSearch._perturb_batch`` draws and moves only the chosen entries.
Both must give the same bits (``np.array_equal``, not ``allclose``) and
leave the RNG in the same state as the straightforward versions kept
here as reference oracles, or a seeded run would decide differently.

SGD's refinement reuses each epoch's scoring residual as the next
epoch's gradient input and writes every epoch into preallocated
buffers; it must match both the per-epoch recomputation and the
unbuffered refinement bit for bit (up to the sign of a zero).  Its
fold-in solves every row's ridge system in one stacked solve; that
changes the summation order, so it is held to the per-row loop within
rounding.  What the known rows alone determine is memoised per matrix
version, and the whole reconstruction per matrix revision; a warm
reconstruction must equal a cold one on a copy bit for bit, also after
any sequence of changes to the matrix, and a memo hit must report and
charge the same iterations.  ``ObservedMatrix``'s batched write, aging
and expiry are held to the scalar and boolean-indexing forms they
replaced.

The latency regimes' known rows are array passes over all 108 joint
configurations (``latency_row``, ``latency_training_rows``,
``ServiceTimes``, ``erlang_c_array``, ``PerformanceModel.bips_rows``);
their oracles are the scalar ``erlang_c``, ``MGkQueue.p99_latency``
(through ``LCService.tail_latency``) and ``PerformanceModel.bips``,
which the machine's per-measurement path still uses.  The array path
skips Erlang C below ``erlang_c_floor``; the floor's premise (Erlang C
does not decrease in the load) is tested on its own.
"""

import dataclasses
import functools
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.core.controller import (
    LOAD_GRID,
    ResourceController,
    _diagnostics_state,
)
from repro.core.deadline import DecisionBudget
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
from repro.telemetry.tracer import Tracer
from repro.workloads.batch import SPEC_APPS, batch_profile
from repro.workloads.latency_critical import (
    LC_SERVICE_NAMES,
    make_services,
    service_variants,
)
from repro.workloads import queueing
from repro.workloads.queueing import (
    MGkQueue,
    ServiceDistribution,
    ServiceTimes,
    erlang_c,
    erlang_c_array,
    erlang_c_floor,
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
        got = ServiceTimes(means, scvs).p99_rows(
            rates, servers, overload_horizon=horizon
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
                ServiceTimes(row, scvs).p99_rows(rates, servers)


@functools.lru_cache(maxsize=None)
def erlang_c_crossing(servers):
    """The offered load where ``erlang_c(servers, .)`` crosses 0.01,
    bisected to the last bit."""
    lo, hi = 0.0, float(servers)
    for _ in range(100):
        mid = (lo + hi) / 2.0
        if erlang_c(servers, mid) <= 0.01:
            lo = mid
        else:
            hi = mid
    return lo


#: Relative amount by which computed Erlang C may step down between
#: neighbouring loads: a few ulps (about 2e-15 measured), far inside
#: the floor's margin.
ROUNDING = 1e-13


@st.composite
def offered_loads(draw, servers):
    """Anywhere in [0, k), or within 1e-9 of the 0.01 crossing."""
    if draw(st.booleans()):
        return draw(st.floats(
            0.0, float(servers), exclude_max=True, allow_subnormal=False
        ))
    return erlang_c_crossing(servers) * (1.0 + draw(st.floats(-1e-9, 1e-9)))


class TestErlangCFloor:
    """The floor's premise: Erlang C does not decrease in the load."""

    def test_rounding_is_inside_the_margin(self):
        assert ROUNDING < queueing._FLOOR_MARGIN

    @given(st.integers(1, 64).flatmap(
        lambda k: st.tuples(st.just(k), offered_loads(k), offered_loads(k))
    ))
    @settings(max_examples=300, deadline=None)
    def test_does_not_decrease_in_load(self, drawn):
        servers, a, b = drawn
        lo, hi = min(a, b), max(a, b)
        assert erlang_c(servers, lo) <= erlang_c(servers, hi) * (1 + ROUNDING)

    @pytest.mark.parametrize("servers", range(1, 65))
    def test_neighbours_of_the_crossing(self, servers):
        loads = [erlang_c_crossing(servers)]
        for _ in range(40):
            loads.insert(0, np.nextafter(loads[0], 0.0))
            loads.append(np.nextafter(loads[-1], np.inf))
        values = [erlang_c(servers, a) for a in loads]
        for lower, higher in zip(values, values[1:]):
            assert lower <= higher * (1 + ROUNDING)

    # Loads from zero up; not subnormal ones, where erlang_c(1, a)
    # overflows an intermediate exp on its way to 0.0.
    @given(st.integers(1, 64), st.one_of(
        st.just(0.0), st.floats(1e-12, 1.0, exclude_max=True)
    ))
    @settings(max_examples=300, deadline=None)
    def test_every_load_below_the_floor_waits_at_most_one_percent(
        self, servers, fraction
    ):
        floor = erlang_c_floor(servers)
        below = np.array([floor * fraction, np.nextafter(floor, 0.0)])
        assert all(erlang_c(servers, a) <= 0.01 for a in below)
        assert np.all(erlang_c_array(servers, below) <= 0.01)

    @pytest.mark.parametrize("servers", range(1, 65))
    def test_floor_sits_just_below_the_crossing(self, servers):
        floor = erlang_c_floor(servers)
        assert erlang_c(servers, floor) <= 0.01
        # One 5.5 % grid step at most: the floor prunes nearly every
        # queue that cannot wait.
        assert erlang_c_crossing(servers) / 1.06 < floor


#: (SCV, distribution) of a service: lognormal by SCV (including SCV
#: 0), and explicit lognormal, bimodal and deterministic shapes.
SERVICE_SHAPES = [
    (1.0, None),
    (0.0, None),
    (1.3, ServiceDistribution("lognormal", scv=1.3)),
    (2.0, ServiceDistribution("bimodal", scv=2.0)),
    (0.7, ServiceDistribution("bimodal", scv=0.7)),
    (0.5, ServiceDistribution("deterministic")),
]

#: Where a row's offered load sits, as a function of the core count:
#: idle, below, at and above the floor, waiting, and overloaded.
LOAD_PLACES = {
    "idle": lambda k: 0.0,
    "below": lambda k: 0.5 * erlang_c_floor(k),
    "floor": lambda k: erlang_c_floor(k),
    "crossing": lambda k: erlang_c_crossing(k),
    "waiting": lambda k: 0.5 * (erlang_c_crossing(k) + 0.995 * k),
    "overloaded": lambda k: 0.995 * k,
    "beyond": lambda k: 1.7 * k,
}


class TestOwnedServiceTimes:
    """One :class:`ServiceTimes` answers many (load, cores) questions,
    with the floor, exactly as :meth:`MGkQueue.p99_latency`."""

    @given(
        st.lists(st.sampled_from(SERVICE_SHAPES), min_size=1, max_size=4),
        st.lists(
            st.tuples(st.integers(1, 64), st.sampled_from(sorted(LOAD_PLACES))),
            min_size=1, max_size=6,
        ),
        st.floats(0.01, 1.0),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_mgk_queue_on_both_sides_of_the_floor(
        self, shapes, questions, horizon, seed
    ):
        rng = np.random.default_rng(seed)
        base = 10.0 ** rng.uniform(-4.0, -2.0, len(shapes))
        # Each row spreads +-5 % around its base mean, so a row placed
        # at the floor or the crossing has queues on both sides of it.
        means = base[:, None] * rng.uniform(0.95, 1.05, (len(shapes), 40))
        times = ServiceTimes(
            means, [scv for scv, _ in shapes], [d for _, d in shapes]
        )
        for servers, place in questions:
            rows = rng.integers(0, len(shapes), rng.integers(1, 5))
            rates = [LOAD_PLACES[place](servers) / base[r] for r in rows]
            want = np.array([
                [
                    MGkQueue(
                        rate, mean, shapes[r][0], servers, horizon,
                        shapes[r][1],
                    ).p99_latency()
                    for mean in means[r]
                ]
                for rate, r in zip(rates, rows)
            ])
            got = times.p99_rows(
                rates, servers, rows=rows, overload_horizon=horizon
            )
            assert np.array_equal(got, want)

    def test_rows_default_to_every_service_in_order(self):
        means = np.full((2, 3), 1e-3)
        times = ServiceTimes(means, [1.0, 0.5])
        assert np.array_equal(
            times.p99_rows([100.0, 200.0], 4),
            times.p99_rows([100.0, 200.0], 4, rows=[0, 1]),
        )
        with pytest.raises(ValueError):
            times.p99_rows([100.0], 4)


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
        before = q.copy(), p.copy()
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
        converged = last_rmse - current <= params.tol * last_rmse
        if current > last_rmse:
            q[...], p[...] = before
            break
        last_rmse = current
        if converged:
            break
    return SGDDiagnostics(
        iterations=iterations, observed_rmse=last_rmse, converged=converged
    )


def unbuffered_refine(reconstructor, centred, mask, q, p):
    """The refinement whose epochs made fresh arrays (with the parallel
    epoch inlined)."""
    params = reconstructor.params
    rng = np.random.default_rng(params.seed)
    n_observed = np.count_nonzero(mask)
    unobserved = ~mask
    counts_row = np.maximum(mask.sum(axis=1, keepdims=True), 1)
    counts_col = np.maximum(mask.sum(axis=0)[:, None], 1)

    def residual():
        err = centred - q @ p.T
        np.copyto(err, 0.0, where=unobserved)
        return err

    def rmse(err):
        total = np.add.reduce(err**2, axis=None)
        return float(np.sqrt(total / n_observed))

    err = residual()
    last_rmse = rmse(err)
    iterations = 0
    converged = False
    for iterations in range(1, params.max_iter + 1):
        before = q.copy(), p.copy()
        if params.parallel:
            eta = params.learning_rate
            lam = params.regularization
            q += eta * (err @ p / counts_row - lam * q)
            p += eta * (err.T @ q / counts_col - lam * p)
        else:
            reconstructor._epoch_serial(centred, *np.nonzero(mask), q, p, rng)
        err = residual()
        current = rmse(err)
        converged = last_rmse - current <= params.tol * last_rmse
        if current > last_rmse:
            q[...], p[...] = before
            break
        last_rmse = current
        if converged:
            break
    return SGDDiagnostics(
        iterations=iterations, observed_rmse=last_rmse, converged=converged
    )


def sparse_matrix(seed, n_known, n_sparse, n_cols):
    """Known rows plus sparse runtime rows, some of them unobserved."""
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


@st.composite
def sparse_matrices(draw, n_cols=st.sampled_from([5, 27, N_JOINT_CONFIGS])):
    """:func:`sparse_matrix` of drawn sizes."""
    return sparse_matrix(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(0, 6)),
        draw(st.integers(1, 8)),
        draw(n_cols),
    )


def sgd_problem(reconstructor, matrix):
    """The centred residuals, mask and anchors ``_reconstruct`` builds."""
    mask = matrix.mask
    work = np.zeros_like(matrix.values)
    np.log(matrix.values, where=mask, out=work)
    anchors = reconstructor._anchor_rows(mask)
    _, centred = reconstructor._baseline(work, mask, anchors)
    return centred, mask, anchors


def rmse_on_mask(centred, mask, q, p):
    """The factors' RMSE over the observed entries, from scratch."""
    residual = (centred - q @ p.T)[mask]
    return math.sqrt(float(np.mean(residual**2)))


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

    @given(sparse_matrices(), st.booleans(),
           st.sampled_from([1e-2, 3e-3, 0.0]), st.sampled_from([1, 3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_refine_bit_identical_to_per_epoch_residual(
        self, matrix, parallel, tol, rank
    ):
        reconstructor = PQReconstructor(
            SGDParams(parallel=parallel, tol=tol, rank=rank)
        )
        centred, mask, anchors = sgd_problem(reconstructor, matrix)
        q, p = reconstructor._init_factors(centred, mask, anchors)
        if anchors.size >= 2 and p.shape[1] > 1:
            # The SVD basis is a transposed slice: F-ordered.
            assert p.flags.f_contiguous and not p.flags.c_contiguous
        # Same memory layout, so BLAS sums in the same order.
        start = q.copy(order="K"), p.copy(order="K")
        got = reconstructor._refine(centred, mask, q, p)
        # The diagnostics describe the factors returned.
        assert got.observed_rmse == pytest.approx(
            rmse_on_mask(centred, mask, q, p), rel=1e-9, abs=1e-12
        )
        for reference in (reference_refine, unbuffered_refine):
            want_q, want_p = (factor.copy(order="K") for factor in start)
            want = reference(reconstructor, centred, mask, want_q, want_p)
            # Equal up to the sign of a zero.
            assert (got.iterations, got.converged) == (
                want.iterations, want.converged
            )
            assert got.observed_rmse == want.observed_rmse
            assert np.array_equal(q, want_q)
            assert np.array_equal(p, want_p)

    def test_epoch_that_raises_the_rmse_is_undone(self):
        # One epoch would take this matrix from RMSE 0.139 to 0.268; it
        # ends the refinement and the initial factors are returned.
        matrix = sparse_matrix(2, 5, 2, N_JOINT_CONFIGS)
        reconstructor = PQReconstructor(SGDParams())
        centred, mask, anchors = sgd_problem(reconstructor, matrix)
        q, p = reconstructor._init_factors(centred, mask, anchors)
        start_q, start_p = q.copy(), p.copy()
        start = rmse_on_mask(centred, mask, q, p)
        diagnostics = reconstructor._refine(centred, mask, q, p)
        assert (diagnostics.iterations, diagnostics.converged) == (1, True)
        assert np.array_equal(q, start_q) and np.array_equal(p, start_p)
        assert diagnostics.observed_rmse == pytest.approx(start, rel=1e-12)
        # Provenance records the same number.
        assert _diagnostics_state(diagnostics)["rmse"] == (
            diagnostics.observed_rmse
        )

    @pytest.mark.parametrize("parallel, seed, n_known, n_sparse", [
        (True, 0, 5, 2),
        (True, 9, 5, 2),
        (True, 20, 6, 8),
        (False, 0, 5, 2),
        (False, 3, 6, 8),
        (False, 4, 6, 8),
    ])
    def test_last_epoch_raising_the_rmse_keeps_the_previous_factors(
        self, parallel, seed, n_known, n_sparse
    ):
        # Refinements whose final epoch raised the RMSE after at least
        # one that lowered it, in both epoch modes: the factors and the
        # RMSE returned are the previous epoch's.
        matrix = sparse_matrix(seed, n_known, n_sparse, N_JOINT_CONFIGS)
        params = SGDParams(parallel=parallel)
        reconstructor = PQReconstructor(params)
        centred, mask, anchors = sgd_problem(reconstructor, matrix)
        q, p = reconstructor._init_factors(centred, mask, anchors)
        diagnostics = reconstructor._refine(centred, mask, q, p)
        assert diagnostics.converged and diagnostics.iterations >= 2
        # The same refinement stopped one epoch earlier.
        shorter = PQReconstructor(
            dataclasses.replace(params, max_iter=diagnostics.iterations - 1)
        )
        prior_q, prior_p = shorter._init_factors(centred, mask, anchors)
        prior = shorter._refine(centred, mask, prior_q, prior_p)
        assert not prior.converged
        assert np.array_equal(q, prior_q) and np.array_equal(p, prior_p)
        assert diagnostics.observed_rmse == prior.observed_rmse
        assert diagnostics.observed_rmse == pytest.approx(
            rmse_on_mask(centred, mask, q, p), rel=1e-9
        )

    @given(sparse_matrices(), st.booleans(), st.sampled_from([1, 3]))
    @settings(max_examples=80, deadline=None)
    def test_refinement_never_raises_the_rmse(self, matrix, parallel, rank):
        reconstructor = PQReconstructor(
            SGDParams(parallel=parallel, rank=rank)
        )
        centred, mask, anchors = sgd_problem(reconstructor, matrix)
        q, p = reconstructor._init_factors(centred, mask, anchors)
        start = rmse_on_mask(centred, mask, q, p)
        diagnostics = reconstructor._refine(centred, mask, q, p)
        assert diagnostics.observed_rmse <= start * (1 + 1e-12) + 1e-15
        assert rmse_on_mask(centred, mask, q, p) <= (
            start * (1 + 1e-9) + 1e-15
        )

    @given(sparse_matrices(n_cols=st.just(N_JOINT_CONFIGS)))
    # Sparse 7x108 and 10x108 matrices whose folded-in factors made
    # the unbounded serial epoch overflow to inf/NaN at rank 1.
    @example(sparse_matrix(3, 5, 2, N_JOINT_CONFIGS))
    @example(sparse_matrix(3, 6, 4, N_JOINT_CONFIGS))
    @settings(max_examples=60, deadline=None)
    def test_serial_reference_stays_finite(self, matrix):
        reconstructor = PQReconstructor(SGDParams(parallel=False, rank=1))
        centred, mask, anchors = sgd_problem(reconstructor, matrix)
        q, p = reconstructor._init_factors(centred, mask, anchors)
        with np.errstate(over="raise", invalid="raise"):
            diagnostics = reconstructor._refine(centred, mask, q, p)
        assert math.isfinite(diagnostics.observed_rmse)
        assert np.isfinite(q).all() and np.isfinite(p).all()


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


def reference_population_stats(matrix, col):
    """Median and outlier scale of the known rows at ``col``; None
    when fewer than four rows are known (the per-column form)."""
    known = matrix.values[matrix.known_rows, col]
    if known.size < 4:
        return None
    med = float(np.median(known))
    mad_sigma = float(np.median(np.abs(known - med))) * 1.4826
    return med, max(mad_sigma, abs(med) * 0.5, 1e-12)


def check_population_memo(matrix):
    population = ResourceController._population(matrix)
    for col in range(matrix.n_cols):
        want = reference_population_stats(matrix, col)
        if want is None:
            assert population is None
        else:
            assert (population[0][col], population[1][col]) == want


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
        # Drop the memoised estimate, so the known-row memo serves.
        del matrix._derived["sgd.reconstruct"]
        warm = reconstructor.reconstruct(matrix)
        cold, diagnostics = reconstruct_cold(params, matrix)
        assert np.array_equal(warm, cold)
        assert reconstructor.last_diagnostics == diagnostics
        assert (("sgd.basis", params) in matrix._derived) == (
            known_rows_are_anchors(params, matrix)
        )
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

        def consulted(key, build, stamp=None):
            if key == "sgd.reconstruct":
                return build()
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


# ----------------------------------------------------------------------
# One reconstruction per matrix revision.
# ----------------------------------------------------------------------


MUTATORS = [
    "observe", "observe_many", "tick", "expire", "clear_row",
    "set_known_row", "decode", "copy", "none",
]


def mutate(matrix, mutator, seed):
    """Apply one mutator; returns the matrix to use next (``copy``
    swaps in a copy, whose memo starts empty)."""
    rng = np.random.default_rng(seed)
    row = int(rng.integers(matrix.n_rows))
    col = int(rng.integers(matrix.n_cols))
    if mutator == "observe":
        matrix.observe(row, col, float(np.exp(rng.normal())))
    elif mutator == "observe_many":
        k = int(rng.integers(1, 4))
        matrix.observe_many(
            rng.integers(matrix.n_rows, size=k),
            rng.integers(matrix.n_cols, size=k),
            np.exp(rng.normal(size=k)),
        )
    elif mutator == "tick":
        matrix.tick()
    elif mutator == "expire":
        matrix.expire(int(rng.integers(0, 3)))
    elif mutator == "clear_row":
        matrix.clear_row(row)
    elif mutator == "set_known_row":
        matrix.set_known_row(row, np.exp(rng.normal(size=matrix.n_cols)))
    elif mutator == "decode":
        snapshot = json.loads(json.dumps(MATRIX.encode(matrix)))
        runtime = np.flatnonzero(~matrix.known_rows)
        if runtime.size:
            matrix.clear_row(int(rng.choice(runtime)))
        MATRIX.decode(snapshot, matrix)
    elif mutator == "copy":
        return matrix.copy()
    return matrix


def bits(matrix):
    return (matrix.values.tobytes(), matrix.mask.tobytes())


class TestReconstructionMemo:
    @given(
        sparse_matrices(),
        st.lists(
            st.tuples(st.sampled_from(MUTATORS), st.integers(0, 2**32 - 1)),
            min_size=1, max_size=6,
        ),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_memoised_matches_cold_after_any_mutation(
        self, matrix, mutations, log_space
    ):
        params = SGDParams(log_space=log_space)
        reconstructor = PQReconstructor(params)
        reconstructor.budget = DecisionBudget()
        for mutator, seed in mutations:
            before = (bits(matrix), matrix.revision)
            matrix = mutate(matrix, mutator, seed)
            if mutator != "copy" and bits(matrix) != before[0]:
                assert matrix.revision > before[1]
            if not matrix.mask.any():
                continue
            want, diagnostics = reconstruct_cold(params, matrix)
            for _ in range(2):  # the second is a hit
                spent = reconstructor.budget.total_spent
                got = reconstructor.reconstruct(matrix)
                assert got.tobytes() == want.tobytes()
                assert got.flags.writeable
                assert reconstructor.last_diagnostics == diagnostics
                assert (
                    reconstructor.budget.total_spent - spent
                    == diagnostics.iterations
                )

    def test_revision_counts_changes_to_values_and_mask(self):
        matrix = ObservedMatrix(6, 5)
        for row in range(4):
            matrix.set_known_row(row, np.arange(1.0, 6.0) + row)
        assert matrix.revision == 4
        matrix.observe(5, 0, 2.0)
        matrix.observe_many(np.array([5, 4]), np.array([1, 2]),
                            np.array([1.0, 3.0]))
        assert matrix.revision == 6
        matrix.observe_many(np.array([], int), np.array([], int),
                            np.array([]))
        matrix.tick()
        assert matrix.expire(5) == 0
        assert matrix.revision == 6  # nothing changed
        assert matrix.expire(0) == 3
        assert matrix.revision == 7
        matrix.clear_row(4)
        MATRIX.decode(json.loads(json.dumps(MATRIX.encode(matrix))), matrix)
        assert matrix.revision == 9

    def test_hit_reports_and_charges_like_a_recomputation(self):
        rng = np.random.default_rng(3)
        first, second = ObservedMatrix(6, 27), ObservedMatrix(6, 27)
        for matrix in (first, second):
            for row in range(4):
                matrix.set_known_row(row, np.exp(rng.normal(size=27)))
            matrix.observe(5, 3, 1.5)
        tracer = Tracer()
        reconstructor = PQReconstructor()
        reconstructor.tracer = tracer
        reconstructor.budget = DecisionBudget()
        cold = reconstructor.reconstruct(first)
        diagnostics = reconstructor.last_diagnostics
        reconstructor.reconstruct(second)
        assert reconstructor.last_diagnostics != diagnostics
        charged = reconstructor.budget.spent_by_phase["sgd.reconstruct"]
        cold[:] = 0.0  # a caller's copy; the memo is not touched
        hit = reconstructor.reconstruct(first)
        assert hit.tobytes() == reconstruct_cold(
            reconstructor.params, first
        )[0].tobytes()
        assert reconstructor.last_diagnostics == diagnostics
        assert (
            reconstructor.budget.spent_by_phase["sgd.reconstruct"] - charged
            == diagnostics.iterations
        )
        spans = [s for s in tracer.spans if s.name == "sgd.reconstruct"]
        assert len(spans) == 3
        assert spans[2].args["iterations"] == spans[0].args["iterations"]


# ----------------------------------------------------------------------
# ObservedMatrix: batched observations, indices, aging.
# ----------------------------------------------------------------------


def reference_observe(matrix, row, col, value):
    """The scalar observe before the batched write (verbatim)."""
    if not np.isfinite(value):
        raise ValueError(f"observation must be finite, got {value}")
    if matrix.known_rows[row]:
        matrix.version += 1
    matrix.values[row, col] = value
    matrix.mask[row, col] = True
    matrix.age[row, col] = 0


def reference_tick(matrix):
    matrix.age[matrix.mask & ~matrix.known_rows[:, None]] += 1


def reference_expire(matrix, max_age):
    stale = matrix.mask & (matrix.age > max_age)
    stale[matrix.known_rows] = False
    dropped = int(np.sum(stale))
    matrix.mask[stale] = False
    matrix.values[stale] = 0.0
    matrix.age[stale] = 0
    return dropped


def dense(matrix):
    return (matrix.values.tobytes(), matrix.mask.tobytes(),
            matrix.age.tobytes())


class TestObservedMatrixFastPaths:
    @given(
        sparse_matrices(),
        st.lists(
            st.tuples(
                st.integers(0, 99), st.integers(0, 199),
                st.one_of(
                    st.floats(0.01, 100.0),
                    st.sampled_from([math.nan, math.inf, -math.inf, -2.0]),
                ),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_observe_many_matches_scalar_loop(self, matrix, entries):
        rows = np.array([r % matrix.n_rows for r, _, _ in entries], int)
        cols = np.array([c % matrix.n_cols for _, c, _ in entries], int)
        values = np.array([v for _, _, v in entries], float)
        matrix.tick()  # an observation resets its entry's age
        loop, batch = matrix.copy(), matrix.copy()
        outcomes = []
        for target, write in (
            (loop, lambda m: [reference_observe(m, r, c, v)
                              for r, c, v in zip(rows, cols, values)]),
            (batch, lambda m: m.observe_many(rows, cols, values)),
        ):
            version = target.version
            try:
                write(target)
                error = None
            except ValueError as exc:
                error = str(exc)
            outcomes.append(
                (dense(target), error, target.version > version)
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("row, col", [(-1, 0), (0, -1), (4, 0), (0, 5),
                                          (-5, -1)])
    def test_indices_outside_the_matrix_raise(self, row, col):
        matrix = ObservedMatrix(4, 5)
        with pytest.raises(ValueError, match="outside"):
            matrix.observe(row, col, 1.0)
        # The batch is checked as a whole before anything is written.
        with pytest.raises(ValueError, match="outside"):
            matrix.observe_many(np.array([0, row]), np.array([0, col]),
                                np.array([1.0, 2.0]))
        assert not matrix.mask.any() and matrix.revision == 0

    @pytest.mark.parametrize("row, col", [(1.0, 0), (0, 2.5), (True, 0)])
    def test_indices_must_be_integers(self, row, col):
        matrix = ObservedMatrix(4, 5)
        with pytest.raises(ValueError, match="integers"):
            matrix.observe(row, col, 1.0)
        assert not matrix.mask.any()

    @given(
        sparse_matrices(),
        st.lists(st.sampled_from(["tick", "expire", "observe", "clear",
                                  "decode"]),
                 max_size=10),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_tick_and_expire_match_boolean_indexing(
        self, matrix, steps, seed
    ):
        rng = np.random.default_rng(seed)
        fast, slow = matrix.copy(), matrix.copy()
        for step in steps:
            if step == "tick":
                fast.tick()
                reference_tick(slow)
            elif step == "expire":
                max_age = int(rng.integers(0, 3))
                assert fast.expire(max_age) == reference_expire(
                    slow, max_age
                )
            elif step == "decode":
                # A restore brings back ages from the snapshot.
                data = json.loads(json.dumps(MATRIX.encode(fast)))
                fast.clear_row(fast.n_rows - 1)
                MATRIX.decode(data, fast)
            else:
                row = int(rng.integers(matrix.n_rows))
                col = int(rng.integers(matrix.n_cols))
                if step == "observe":
                    fast.observe(row, col, 1.5)
                    reference_observe(slow, row, col, 1.5)
                else:
                    fast.clear_row(row)
                    slow.clear_row(row)
            assert dense(fast) == dense(slow)
