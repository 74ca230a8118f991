"""Genetic-algorithm design-space exploration (Flicker's optimiser).

Flicker [Petrica et al., ISCA'13] searches the per-core configuration
space with a genetic algorithm; the paper compares DDS against it
directly (Fig. 10).  This is a standard discrete GA: tournament
selection, uniform crossover, per-gene mutation, and elitism, over the
same decision vectors and objective as :class:`repro.core.dds.DDSSearch`
so the two explorers are interchangeable in the controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.core.deadline import PhaseMeter
from repro.telemetry.tracer import GA_SEARCH

Objective = Callable[[np.ndarray], float]


@dataclass(frozen=True)
class GAParams:
    """GA knobs, sized to match DDS's evaluation budget."""

    population: int = 50
    generations: int = 40
    tournament: int = 3
    crossover_rate: float = 0.9
    mutation_rate: float = 0.08
    elites: int = 2

    def __post_init__(self) -> None:
        if self.population <= 2:
            raise ValueError("population must exceed 2")
        if self.generations <= 0:
            raise ValueError("generations must be positive")
        if not 1 <= self.tournament <= self.population:
            raise ValueError("tournament size must be in [1, population]")
        if not 0 <= self.crossover_rate <= 1:
            raise ValueError("crossover_rate must be in [0, 1]")
        if not 0 <= self.mutation_rate <= 1:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0 <= self.elites < self.population:
            raise ValueError("elites must be in [0, population)")


@dataclass
class GAResult:
    """Best point found plus the exploration trace (for Fig. 10a)."""

    best_x: np.ndarray
    best_objective: float
    history: List[float] = field(default_factory=list)
    explored: List[Tuple[np.ndarray, float]] = field(default_factory=list)
    evaluations: int = 0


class GeneticSearch:
    """Discrete GA over joint-configuration decision vectors."""

    def __init__(self, params: GAParams = GAParams()) -> None:
        self.params = params
        self.meter = PhaseMeter()

    def search(
        self,
        objective: Objective,
        n_dims: int,
        n_confs: int,
        rng: np.random.Generator,
        initial: Optional[np.ndarray] = None,
        record_explored: bool = False,
    ) -> GAResult:
        """Maximise ``objective``; same contract as ``DDSSearch.search``."""
        if n_dims <= 0:
            raise ValueError("n_dims must be positive")
        if n_confs <= 1:
            raise ValueError("n_confs must exceed 1")
        with self.meter.phase(GA_SEARCH, n_dims=n_dims) as charge:
            params = self.params
            result = GAResult(best_x=np.zeros(n_dims, dtype=int),
                              best_objective=-np.inf)
            batch_eval = getattr(objective, "evaluate_batch", None)

            def evaluate_all(xs: List[np.ndarray]) -> np.ndarray:
                stacked = np.vstack(xs)
                if batch_eval is not None:
                    values = np.asarray(batch_eval(stacked), dtype=float)
                else:
                    values = np.array([float(objective(x)) for x in stacked])
                result.evaluations += stacked.shape[0]
                if record_explored:
                    for x, v in zip(stacked, values):
                        result.explored.append((x.copy(), float(v)))
                return values

            population = [
                rng.integers(0, n_confs, size=n_dims)
                for _ in range(params.population)
            ]
            if initial is not None:
                population[0] = np.asarray(initial, dtype=int).copy()
            fitness = evaluate_all(population)

            for _ in range(params.generations):
                order = np.argsort(fitness)[::-1]
                next_pop: List[np.ndarray] = [
                    population[i].copy() for i in order[: params.elites]
                ]
                while len(next_pop) < params.population:
                    parent_a = self._tournament(population, fitness, rng)
                    parent_b = self._tournament(population, fitness, rng)
                    child = self._crossover(parent_a, parent_b, rng)
                    child = self._mutate(child, n_confs, rng)
                    next_pop.append(child)
                population = next_pop
                fitness = evaluate_all(population)
                result.history.append(float(fitness.max()))

            best = int(np.argmax(fitness))
            result.best_x = population[best]
            result.best_objective = float(fitness[best])
            charge(result.evaluations)
        return result

    def _tournament(
        self,
        population: List[np.ndarray],
        fitness: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        picks = rng.integers(0, len(population), size=self.params.tournament)
        winner = picks[int(np.argmax(fitness[picks]))]
        return population[winner]

    def _crossover(
        self, a: np.ndarray, b: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        if rng.random() > self.params.crossover_rate:
            return a.copy()
        take_b = rng.random(a.size) < 0.5
        child = a.copy()
        child[take_b] = b[take_b]
        return child

    def _mutate(
        self, x: np.ndarray, n_confs: int, rng: np.random.Generator
    ) -> np.ndarray:
        flips = rng.random(x.size) < self.params.mutation_rate
        if flips.any():
            x = x.copy()
            x[flips] = rng.integers(0, n_confs, size=int(flips.sum()))
        return x
