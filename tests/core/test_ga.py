"""Tests for the genetic-algorithm explorer (Flicker's search)."""

import numpy as np
import pytest

from repro.core.ga import GAParams, GeneticSearch


class SeparableObjective:
    def __init__(self, targets):
        self.targets = np.asarray(targets)

    def __call__(self, x):
        return -float(np.sum(np.abs(x - self.targets)))

    def evaluate_batch(self, xs):
        return -np.sum(np.abs(xs - self.targets[None, :]), axis=1).astype(float)


class TestSearchQuality:
    def test_approaches_separable_optimum(self):
        targets = np.array([3, 77, 104, 0])
        result = GeneticSearch().search(
            SeparableObjective(targets), n_dims=4, n_confs=108,
            rng=np.random.default_rng(0),
        )
        assert result.best_objective > -25

    def test_more_generations_do_not_hurt(self):
        targets = np.arange(8) * 12
        short = GeneticSearch(GAParams(generations=5)).search(
            SeparableObjective(targets), 8, 108, np.random.default_rng(1)
        )
        long = GeneticSearch(GAParams(generations=60)).search(
            SeparableObjective(targets), 8, 108, np.random.default_rng(1)
        )
        assert long.best_objective >= short.best_objective


class TestContract:
    def test_initial_seed_point(self):
        targets = np.array([10, 20, 30])
        result = GeneticSearch(GAParams(generations=1)).search(
            SeparableObjective(targets), 3, 108,
            np.random.default_rng(0), initial=targets,
        )
        assert result.best_objective == 0.0

    def test_elitism_preserves_best(self):
        targets = np.array([5, 50, 100])
        result = GeneticSearch().search(
            SeparableObjective(targets), 3, 108, np.random.default_rng(2)
        )
        assert all(
            b >= a - 1e-9 for a, b in zip(result.history, result.history[1:])
        )

    def test_explored_recording(self):
        result = GeneticSearch(GAParams(population=10, generations=2)).search(
            SeparableObjective(np.zeros(3, dtype=int)), 3, 20,
            np.random.default_rng(0), record_explored=True,
        )
        assert len(result.explored) == result.evaluations
        assert result.evaluations == 10 * 3  # initial + 2 generations

    def test_deterministic(self):
        obj = SeparableObjective(np.arange(5) * 7)
        a = GeneticSearch().search(obj, 5, 108, np.random.default_rng(3))
        b = GeneticSearch().search(obj, 5, 108, np.random.default_rng(3))
        assert np.array_equal(a.best_x, b.best_x)

    def test_bounds_respected(self):
        result = GeneticSearch(GAParams(mutation_rate=0.5)).search(
            SeparableObjective(np.zeros(6, dtype=int)), 6, 12,
            np.random.default_rng(0), record_explored=True,
        )
        for x, _ in result.explored:
            assert np.all((x >= 0) & (x < 12))

    def test_validation(self):
        searcher = GeneticSearch()
        obj = SeparableObjective(np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            searcher.search(obj, 0, 10, np.random.default_rng(0))
        with pytest.raises(ValueError):
            searcher.search(obj, 2, 1, np.random.default_rng(0))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GAParams(population=2)
        with pytest.raises(ValueError):
            GAParams(tournament=0)
        with pytest.raises(ValueError):
            GAParams(crossover_rate=1.5)
        with pytest.raises(ValueError):
            GAParams(mutation_rate=-0.1)
        with pytest.raises(ValueError):
            GAParams(elites=50, population=50)
