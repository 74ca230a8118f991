"""Tests for parallel Dynamically Dimensioned Search."""

import numpy as np
import pytest

from repro.core.dds import DDSParams, DDSSearch
from repro.experiments.ablations import DDS_STEPS, frozen_objective


class SeparableObjective:
    """Maximum when every dimension hits its own target value."""

    def __init__(self, targets, n_confs):
        self.targets = np.asarray(targets)
        self.n_confs = n_confs

    def __call__(self, x):
        return -float(np.sum(np.abs(x - self.targets)))

    def evaluate_batch(self, xs):
        return -np.sum(np.abs(xs - self.targets[None, :]), axis=1).astype(float)


class TestSearchQuality:
    def test_finds_separable_optimum(self):
        targets = np.array([3, 77, 104, 0, 55, 21])
        objective = SeparableObjective(targets, 108)
        result = DDSSearch(DDSParams(max_iter=60)).search(
            objective, n_dims=6, n_confs=108, rng=np.random.default_rng(0)
        )
        # Within a tiny distance of the optimum (0 = exact).
        assert result.best_objective > -6

    def test_beats_pure_random_sampling(self):
        rng = np.random.default_rng(1)
        targets = rng.integers(0, 108, size=16)
        objective = SeparableObjective(targets, 108)
        result = DDSSearch().search(
            objective, n_dims=16, n_confs=108, rng=np.random.default_rng(2)
        )
        random_xs = np.random.default_rng(3).integers(
            0, 108, size=(result.evaluations, 16)
        )
        random_best = float(np.max(objective.evaluate_batch(random_xs)))
        assert result.best_objective > random_best

    def test_history_monotone_nondecreasing(self):
        objective = SeparableObjective(np.arange(8) * 13, 108)
        result = DDSSearch().search(
            objective, n_dims=8, n_confs=108, rng=np.random.default_rng(0)
        )
        assert all(
            b >= a for a, b in zip(result.history, result.history[1:])
        )
        assert result.history[-1] == result.best_objective


class TestContract:
    def test_initial_seed_point_used(self):
        targets = np.array([50, 60, 70, 80])
        objective = SeparableObjective(targets, 108)
        result = DDSSearch(DDSParams(initial_random_points=1, max_iter=2)).search(
            objective,
            n_dims=4,
            n_confs=108,
            rng=np.random.default_rng(0),
            initial=targets,
        )
        assert result.best_objective == 0.0  # optimum seeded directly

    def test_values_stay_in_bounds(self):
        objective = SeparableObjective(np.zeros(8, dtype=int), 16)
        result = DDSSearch(DDSParams(perturbation_radii=(2.0,))).search(
            objective, n_dims=8, n_confs=16, rng=np.random.default_rng(0),
            record_explored=True,
        )
        for x, _ in result.explored:
            assert np.all(x >= 0)
            assert np.all(x < 16)

    def test_explored_recorded_only_on_request(self):
        objective = SeparableObjective(np.zeros(4, dtype=int), 108)
        silent = DDSSearch().search(
            objective, n_dims=4, n_confs=108, rng=np.random.default_rng(0)
        )
        assert silent.explored == []
        verbose = DDSSearch().search(
            objective, n_dims=4, n_confs=108, rng=np.random.default_rng(0),
            record_explored=True,
        )
        assert len(verbose.explored) == verbose.evaluations

    def test_deterministic_given_rng(self):
        objective = SeparableObjective(np.arange(6) * 10, 108)
        a = DDSSearch().search(objective, 6, 108, np.random.default_rng(9))
        b = DDSSearch().search(objective, 6, 108, np.random.default_rng(9))
        assert np.array_equal(a.best_x, b.best_x)

    def test_plain_callable_without_batch(self):
        """Objectives without evaluate_batch still work (slow path)."""
        calls = []

        def objective(x):
            calls.append(1)
            return -float(np.sum(x))

        result = DDSSearch(DDSParams(max_iter=3, points_per_iteration=2,
                                     n_threads=2, initial_random_points=4)).search(
            objective, n_dims=3, n_confs=10, rng=np.random.default_rng(0)
        )
        assert result.evaluations == len(calls)

    def test_validation(self):
        objective = SeparableObjective(np.zeros(2, dtype=int), 10)
        searcher = DDSSearch()
        with pytest.raises(ValueError):
            searcher.search(objective, 0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            searcher.search(objective, 2, 1, np.random.default_rng(0))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DDSParams(initial_random_points=0)
        with pytest.raises(ValueError):
            DDSParams(perturbation_radii=())
        with pytest.raises(ValueError):
            DDSParams(perturbation_radii=(0.0,))
        with pytest.raises(ValueError):
            DDSParams(max_iter=1)
        with pytest.raises(ValueError):
            DDSParams(n_threads=0)
        for rounds in (0, -1, 3, 11):
            with pytest.raises(ValueError, match="rounds_per_iteration"):
                DDSParams(rounds_per_iteration=rounds)

    @pytest.mark.parametrize("rounds", [1, 2, 5, 10])
    def test_one_batch_per_round(self, rounds):
        """Each round scores every thread's candidates in one call."""
        sizes = []
        base = SeparableObjective(np.arange(5) * 20, 108)

        class Counting:
            def __call__(self, x):
                return base(x)

            def evaluate_batch(self, xs):
                sizes.append(xs.shape[0])
                return base.evaluate_batch(xs)

        params = DDSParams(rounds_per_iteration=rounds)
        DDSSearch(params).search(
            Counting(), n_dims=5, n_confs=108, rng=np.random.default_rng(0)
        )
        per_round = params.n_threads * params.points_per_iteration // rounds
        assert sizes == (
            [params.initial_random_points]
            + [per_round] * (params.max_iter * rounds)
        )

    def test_paper_default_parameters(self):
        """Fig. 6 parameter table."""
        params = DDSParams()
        assert params.initial_random_points == 50
        assert params.perturbation_radii == (0.2, 0.3, 0.4, 0.5)
        assert params.points_per_iteration == 10
        assert params.max_iter == 40


class TestPopulationStep:
    """The default population step against Alg. 2's sequential step.

    Both spend the same evaluations; the population step draws each
    thread's points of an iteration from one point and scores them as
    one batch.  On frozen problems (the true batch rows of a mix at a
    power cap) its mean best objective over seeds must stay within
    1.5 % of the sequential step's.  Over 20 seeds on every cell of
    mixes 0/10/25/40 x caps 1.0/0.7/0.5/0.4 the gap ranged from
    -0.73 % to +0.21 %.
    """

    @pytest.mark.parametrize("mix_index, cap", [
        (0, 1.0), (10, 0.5), (25, 0.4), (40, 0.7),
    ])
    def test_population_reaches_the_sequential_objective(self, mix_index, cap):
        objective = frozen_objective(mix_index, cap, seed=7)
        means = {}
        for step, (_label, params) in DDS_STEPS.items():
            means[step] = np.mean([
                DDSSearch(params).search(
                    objective, n_dims=objective.n_jobs, n_confs=108,
                    rng=np.random.default_rng(seed),
                ).best_objective
                for seed in range(8)
            ])
        assert means["population"] >= 0.985 * means["sequential"]
