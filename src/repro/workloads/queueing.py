"""Tail-latency models for latency-critical services.

Interactive cloud services are load-balanced across their allocated
cores, so each service behaves as a FIFO M/G/k queue: Poisson query
arrivals, ``k`` identical cores, and a general per-query service-time
distribution whose mean depends on the core/cache configuration.

Two models are provided:

* :class:`MGkQueue` — a fast analytical approximation (Erlang-C waiting
  probability + Allen–Cunneen correction + exponential waiting tail)
  used as the ground truth the scheduler's matrices are built from.
* :class:`DiscreteEventQueue` — an event-driven simulation used to
  validate the approximation (tests assert agreement) and to produce
  noisy "measured" latencies.

Both report the 99th-percentile sojourn time (queueing + service), the
QoS metric of the paper.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

#: Utilization beyond which the analytical model switches to the
#: overload regime (queues grow without bound; latency is dominated by
#: backlog accumulated over the measurement horizon).
_SATURATION_RHO = 0.995

#: Standard-normal quantiles of the supported service-time quantiles.
_NORMAL_Z = {0.5: 0.0, 0.95: 1.6448536269514722, 0.99: 2.3263478740408408}


def erlang_c(servers: int, offered_load: float) -> float:
    """Probability an arrival must wait in an M/M/k queue (Erlang C).

    ``offered_load`` is ``lambda * E[S]`` in Erlangs.  Computed in log
    space so large server counts stay stable.  Returns 1.0 at or beyond
    saturation.
    """
    if servers <= 0:
        raise ValueError(f"servers must be positive, got {servers}")
    if offered_load < 0:
        raise ValueError(f"offered_load must be non-negative, got {offered_load}")
    if offered_load == 0:
        return 0.0
    rho = offered_load / servers
    if rho >= 1.0:
        return 1.0
    # log of a^n / n! for n = 0..k
    log_terms = np.cumsum(
        np.concatenate(([0.0], np.log(offered_load) - np.log(np.arange(1, servers + 1))))
    )
    log_top = log_terms[-1] - math.log(1.0 - rho)
    log_max = max(log_top, float(np.max(log_terms[:-1]))) if servers > 1 else log_top
    denom = math.exp(log_top - log_max) + float(
        np.sum(np.exp(log_terms[:-1] - log_max))
    )
    return math.exp(log_top - log_max) / denom


def erlang_c_array(servers: int, offered_loads: np.ndarray) -> np.ndarray:
    """:func:`erlang_c` of every entry of ``offered_loads``, bit for bit.

    One row-wise log-space cumsum over the ``k + 1`` terms of every
    stable load; the scalar code's ``math.log``/``math.exp`` calls stay
    per element (:func:`_map`) and the rest are the same numpy
    operations, so each entry equals the scalar result.
    """
    if servers <= 0:
        raise ValueError(f"servers must be positive, got {servers}")
    offered = np.asarray(offered_loads, dtype=float)
    if np.any(offered < 0):
        raise ValueError("offered loads must be non-negative")
    rho = offered / servers
    out = np.where(rho >= 1.0, 1.0, 0.0)
    live = (offered > 0) & (rho < 1.0)
    if not live.any():
        return out
    load = offered[live]
    steps = np.log(load)[:, None] - np.log(np.arange(1, servers + 1))
    log_terms = np.cumsum(
        np.concatenate((np.zeros((load.size, 1)), steps), axis=1), axis=1
    )
    lower = log_terms[:, :-1]
    log_top = log_terms[:, -1] - _map(math.log, 1.0 - rho[live])
    log_max = np.maximum(log_top, lower.max(axis=1)) if servers > 1 else log_top
    top = _map(math.exp, log_top - log_max)
    out[live] = top / (top + np.sum(np.exp(lower - log_max[:, None]), axis=1))
    return out


#: Utilisations at which :func:`erlang_c_floor` reads Erlang C:
#: geometric, each 5.5 % above the last.
_FLOOR_GRID = np.geomspace(1e-3, 1.0, 129)[:-1]
#: Relative slack below 0.01 that a grid load's Erlang C must keep to
#: become the floor.  Computed Erlang C can step down by a few ulps
#: between neighbouring loads (about 2e-15 relative); the slack is far
#: wider, so no load below the floor computes above 0.01.
_FLOOR_MARGIN = 1e-9


def erlang_c_floor(servers: int) -> float:
    """An offered load below which ``erlang_c(servers, a)`` is <= 0.01.

    Erlang C does not decrease as the offered load grows at a fixed
    server count, so every load below a load whose Erlang C is at most
    ``0.01 * (1 - margin)`` has Erlang C at most 0.01.  The floor is the
    highest such load of a grid of utilisations, all of it read from
    one :func:`erlang_c_array` call; 0.0 when no grid load qualifies.
    """
    grid = servers * _FLOOR_GRID
    above = np.flatnonzero(
        erlang_c_array(servers, grid) > 0.01 * (1.0 - _FLOOR_MARGIN)
    )
    first = int(above[0]) if above.size else grid.size
    return float(grid[first - 1]) if first else 0.0


@dataclass(frozen=True)
class MGkQueue:
    """Analytical M/G/k tail-latency model.

    ``service_scv`` is the squared coefficient of variation of the
    service-time distribution (1 for exponential; interactive services
    are typically in [0.5, 2]).
    """

    arrival_rate: float
    service_time_mean: float
    service_scv: float
    servers: int
    #: Horizon over which overload backlog accumulates (the paper
    #: measures tail latency over 100 ms timeslices).
    overload_horizon: float = 0.1
    #: Optional explicit distribution shape; None means lognormal with
    #: the given SCV.
    distribution: "Optional[ServiceDistribution]" = None

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        if self.service_time_mean <= 0:
            raise ValueError("service_time_mean must be positive")
        if self.service_scv < 0:
            raise ValueError("service_scv must be non-negative")
        if self.servers <= 0:
            raise ValueError("servers must be positive")

    @property
    def utilization(self) -> float:
        """Offered load per server (rho)."""
        return self.arrival_rate * self.service_time_mean / self.servers

    def _service_quantile(self, q: float) -> float:
        """Quantile of the service-time distribution (lognormal default)."""
        if self.distribution is not None:
            return self.distribution.quantile(q, self.service_time_mean)
        if self.service_scv == 0:
            return self.service_time_mean
        sigma2 = math.log(1.0 + self.service_scv)
        mu = math.log(self.service_time_mean) - sigma2 / 2.0
        # Inverse normal CDF via Acklam-style rational approximation is
        # overkill; for the fixed q=0.99 we use the exact constant.
        return math.exp(mu + _NORMAL_Z[q] * math.sqrt(sigma2))

    def mean_wait(self) -> float:
        """Mean queueing delay (Allen–Cunneen approximation)."""
        rho = self.utilization
        if rho >= _SATURATION_RHO:
            return self._overload_wait()
        p_wait = erlang_c(self.servers, self.arrival_rate * self.service_time_mean)
        mmk_wait = (
            p_wait * self.service_time_mean / (self.servers * (1.0 - rho))
        )
        return mmk_wait * (1.0 + self.service_scv) / 2.0

    def _overload_wait(self) -> float:
        """Waiting time in the overload regime (rho >= saturation).

        Backlog grows linearly: over a horizon H the queue accumulates
        (rho - 1) * H / E[S] unserved queries per server, so the last
        arrivals wait about (rho - 1) * H plus the near-saturation wait.
        """
        rho = self.utilization
        knee_rho = _SATURATION_RHO * 0.99  # strictly inside the stable regime
        offered = knee_rho * self.servers
        p_wait = erlang_c(self.servers, offered)
        knee_wait = (
            p_wait
            * self.service_time_mean
            / (self.servers * (1.0 - knee_rho))
            * (1.0 + self.service_scv)
            / 2.0
        )
        return knee_wait + max(0.0, rho - 1.0) * self.overload_horizon

    def p99_latency(self) -> float:
        """99th-percentile sojourn time (waiting + service).

        The conditional waiting time in an M/G/k queue is approximately
        exponential with rate ``k (1 - rho) / E[S] * 2 / (1 + SCV)``;
        the 99th percentile of the sojourn combines that tail with the
        service-time quantile.
        """
        rho = self.utilization
        s99 = self._service_quantile(0.99)
        if rho >= _SATURATION_RHO:
            return s99 + self._overload_wait() * math.log(100.0)
        if self.arrival_rate == 0:
            return s99
        p_wait = erlang_c(self.servers, self.arrival_rate * self.service_time_mean)
        if p_wait <= 0.01:
            return s99
        theta = (
            self.servers
            * (1.0 - rho)
            / self.service_time_mean
            * 2.0
            / (1.0 + self.service_scv)
        )
        w99 = math.log(100.0 * p_wait) / theta
        return s99 + max(0.0, w99)

    def mean_latency(self) -> float:
        """Mean sojourn time."""
        return self.service_time_mean + self.mean_wait()


class ServiceTimes:
    """The analytical p99 of many services' M/G/k queues, in two halves.

    The constructor computes the load-independent half.  Row ``r`` is
    one service: its mean service time on every
    configuration (``means[r]``), its SCV (``scvs[r, 0]``) and its
    service-time p99 on every configuration (``p99s[r]``, which is
    ``MGkQueue._service_quantile(0.99)`` of each mean).  None of these
    depend on the load or the core count, so the owner of a fixed set
    of services builds them once and answers every (load, core count)
    with :meth:`p99_rows`, the load- and core-dependent half.  The
    :func:`erlang_c_floor` of each core count is memoised here too, so
    no memo outlives its owner.
    """

    def __init__(
        self,
        means: np.ndarray,
        service_scvs: Sequence[float],
        distributions: "Optional[Sequence[Optional[ServiceDistribution]]]" = None,
    ) -> None:
        self.means = np.asarray(means, dtype=float)
        n_rows = self.means.shape[0]
        self.scvs = np.asarray(service_scvs, dtype=float).reshape(n_rows, 1)
        if np.any(self.means <= 0):
            raise ValueError("service_time_mean must be positive")
        if np.any(self.scvs < 0):
            raise ValueError("service_scv must be non-negative")
        if distributions is None:
            distributions = [None] * n_rows
        self.p99s = np.vstack([
            _service_p99_row(row, scv, distribution)
            for row, scv, distribution in zip(
                self.means, self.scvs[:, 0], distributions
            )
        ])
        self._floors: Dict[int, float] = {}

    def p99_rows(
        self,
        arrival_rates: Sequence[float],
        servers: int,
        rows: Optional[Sequence[int]] = None,
        overload_horizon: float = 0.1,
    ) -> np.ndarray:
        """:meth:`MGkQueue.p99_latency` of queues sharing ``servers``.

        Output row ``i`` is service ``rows[i]`` (every service in
        order when ``rows`` is None) at ``arrival_rates[i]``; entry
        ``[i, c]`` equals ``MGkQueue(arrival_rates[i], means[rows[i],
        c], scvs[rows[i], 0], servers, overload_horizon,
        distribution).p99_latency()`` bit for bit: the same operations
        in the same order, over arrays.  The overload regime's knee term
        ``erlang_c(k, knee_rho * k)`` depends on ``k`` alone, so it is
        computed once.  Erlang C is evaluated, in one
        :func:`erlang_c_array` pass, only for the stable queues whose
        offered load reaches :func:`erlang_c_floor`: below it Erlang C
        is at most 0.01, where the scalar model adds no wait either.
        """
        if rows is None:
            means, scvs, out = self.means, self.scvs, self.p99s.copy()
        else:
            index = np.asarray(rows, dtype=int)
            means, scvs, out = (
                self.means[index], self.scvs[index], self.p99s[index]
            )
        rates = np.asarray(arrival_rates, dtype=float).reshape(-1, 1)
        if rates.shape[0] != means.shape[0]:
            raise ValueError("one arrival rate per row is needed")
        if np.any(rates < 0):
            raise ValueError("arrival_rate must be non-negative")
        if servers <= 0:
            raise ValueError("servers must be positive")
        scv_of = np.broadcast_to(scvs, means.shape)
        offered = rates * means
        rho = offered / servers
        over = rho >= _SATURATION_RHO
        if over.any():
            knee_rho = _SATURATION_RHO * 0.99
            knee_wait = (
                erlang_c(servers, knee_rho * servers)
                * means[over]
                / (servers * (1.0 - knee_rho))
                * (1.0 + scv_of[over])
                / 2.0
            )
            wait = knee_wait + np.maximum(0.0, rho[over] - 1.0) * overload_horizon
            out[over] += wait * math.log(100.0)
        floor = self._floors.get(servers)
        if floor is None:
            floor = self._floors[servers] = erlang_c_floor(servers)
        # An idle queue (zero arrival rate) never waits: Erlang C is 0.
        stable = ~over & (offered > 0) & (offered >= floor)
        p_wait = erlang_c_array(servers, offered[stable])
        waiting = np.zeros_like(stable)
        waiting[stable] = p_wait > 0.01
        theta = (
            servers * (1.0 - rho[waiting]) / means[waiting]
            * 2.0 / (1.0 + scv_of[waiting])
        )
        w99 = _map(math.log, 100.0 * p_wait[p_wait > 0.01]) / theta
        out[waiting] += np.maximum(0.0, w99)
        return out


def _service_p99_row(
    means: np.ndarray,
    service_scv: float,
    distribution: "Optional[ServiceDistribution]",
) -> np.ndarray:
    """``MGkQueue._service_quantile(0.99)`` for every mean."""
    if distribution is not None:
        return np.array([distribution.quantile(0.99, m) for m in means])
    if service_scv == 0:
        return means.copy()
    sigma2 = math.log(1.0 + service_scv)
    mu = _map(math.log, means) - sigma2 / 2.0
    return _map(math.exp, mu + _NORMAL_Z[0.99] * math.sqrt(sigma2))


def _map(function: Callable[[float], float], values: np.ndarray) -> np.ndarray:
    """A scalar ``math`` function applied to every element.

    numpy's ``log``/``exp`` may round differently from ``math``'s, so
    the array paths keep the scalar code's function wherever it calls
    ``math``.
    """
    return np.fromiter(map(function, values.tolist()), float, values.size)


@dataclass(frozen=True)
class ServiceDistribution:
    """Shape of a service's per-query service-time distribution.

    Interactive services differ in more than their SCV: search and
    translation workloads are famously *bimodal* — most queries are
    short, a small class is many times longer and dominates the tail.
    Three kinds are supported:

    * ``"lognormal"`` — the default smooth heavy-ish tail, parameterised
      by ``scv``;
    * ``"bimodal"`` — a fraction ``long_fraction`` of queries takes
      ``long_ratio`` times the short time (ratios solved from the SCV
      when not given);
    * ``"deterministic"`` — fixed service time.

    The distribution is *scale-free*: ``mean`` is applied per call, so
    the same shape serves every core configuration.
    """

    kind: str = "lognormal"
    scv: float = 1.0
    long_fraction: float = 0.05
    long_ratio: float = 0.0  # 0 -> solve from scv

    def __post_init__(self) -> None:
        if self.kind not in ("lognormal", "bimodal", "deterministic"):
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        if self.scv < 0:
            raise ValueError("scv must be non-negative")
        if not 0 < self.long_fraction < 1:
            raise ValueError("long_fraction must be in (0, 1)")
        if self.long_ratio < 0:
            raise ValueError("long_ratio must be non-negative")
        if self.kind == "bimodal":
            object.__setattr__(self, "long_ratio", self._solve_ratio())

    def _solve_ratio(self) -> float:
        """Long/short ratio matching the target SCV (bisection)."""
        if self.long_ratio > 0:
            return self.long_ratio
        p = self.long_fraction

        def scv_of(k: float) -> float:
            mean = (1 - p) + p * k
            second = (1 - p) + p * k * k
            return second / mean**2 - 1.0

        lo, hi = 1.0, 2.0
        while scv_of(hi) < self.scv and hi < 1e4:
            hi *= 2.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if scv_of(mid) < self.scv:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def _short_long(self, mean: float) -> "Tuple[float, float]":
        p = self.long_fraction
        k = self.long_ratio
        short = mean / ((1 - p) + p * k)
        return short, short * k

    def quantile(self, q: float, mean: float) -> float:
        """Quantile of the distribution scaled to ``mean``."""
        if not 0 < q < 1:
            raise ValueError("q must be in (0, 1)")
        if self.kind == "deterministic" or self.scv == 0:
            return mean
        if self.kind == "bimodal":
            short, long = self._short_long(mean)
            return long if q > 1 - self.long_fraction else short
        sigma2 = math.log(1.0 + self.scv)
        mu = math.log(mean) - sigma2 / 2.0
        z = _NORMAL_Z.get(q)
        if z is None:
            raise ValueError("only q in {0.5, 0.95, 0.99} supported")
        return math.exp(mu + z * math.sqrt(sigma2))

    def sample(
        self, n: int, mean: float, rng: np.random.Generator
    ) -> np.ndarray:
        """``n`` service times scaled to ``mean``."""
        if self.kind == "deterministic" or self.scv == 0:
            return np.full(n, mean)
        if self.kind == "bimodal":
            short, long = self._short_long(mean)
            is_long = rng.random(n) < self.long_fraction
            return np.where(is_long, long, short)
        sigma2 = math.log(1.0 + self.scv)
        mu = math.log(mean) - sigma2 / 2.0
        return rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)


def mixture_p99(
    fractions: "Sequence[float]", p99s: "Sequence[float]"
) -> float:
    """p99 of a timeslice spent across several queue regimes.

    Used to model profiling schedules that cycle a latency-critical
    service through configurations within one slice (Flicker, §VIII-E):
    a fraction ``f_c`` of queries experiences regime ``c`` whose own
    99th percentile is ``p99s[c]``.  Each regime's sojourn tail is
    approximated as exponential calibrated through its p99
    (``P_c(T > t) = 0.01 ** (t / p99_c)``); the mixture's 99th
    percentile solves ``sum_c f_c P_c(T > t) = 0.01`` by bisection.
    """
    fractions = np.asarray(fractions, dtype=float)
    p99s = np.asarray(p99s, dtype=float)
    if fractions.shape != p99s.shape or fractions.size == 0:
        raise ValueError("fractions and p99s must be equal-length, non-empty")
    if np.any(fractions < 0) or not math.isclose(
        float(fractions.sum()), 1.0, rel_tol=1e-6
    ):
        raise ValueError("fractions must be non-negative and sum to 1")
    if np.any(p99s <= 0):
        raise ValueError("per-regime p99s must be positive")

    def excess(t: float) -> float:
        return float(np.sum(fractions * 0.01 ** (t / p99s))) - 0.01

    lo, hi = 0.0, float(p99s.max())
    if excess(hi) > 0:  # numerical guard; tail mass beyond the max p99
        hi *= 2.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class DiscreteEventQueue:
    """Event-driven M/G/k FIFO simulation with lognormal service times.

    Used to validate :class:`MGkQueue` and to generate noisy per-slice
    latency measurements.  Deterministic given the generator.
    """

    def __init__(
        self,
        arrival_rate: float,
        service_time_mean: float,
        service_scv: float,
        servers: int,
        distribution: "Optional[ServiceDistribution]" = None,
    ) -> None:
        if arrival_rate < 0:
            raise ValueError("arrival_rate must be non-negative")
        if service_time_mean <= 0:
            raise ValueError("service_time_mean must be positive")
        if servers <= 0:
            raise ValueError("servers must be positive")
        self.arrival_rate = arrival_rate
        self.service_time_mean = service_time_mean
        self.service_scv = service_scv
        self.servers = servers
        self.distribution = distribution

    def _service_samples(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.distribution is not None:
            return self.distribution.sample(n, self.service_time_mean, rng)
        if self.service_scv == 0:
            return np.full(n, self.service_time_mean)
        sigma2 = math.log(1.0 + self.service_scv)
        mu = math.log(self.service_time_mean) - sigma2 / 2.0
        return rng.lognormal(mean=mu, sigma=math.sqrt(sigma2), size=n)

    def simulate(
        self, duration: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Run for ``duration`` seconds; return per-query sojourn times.

        Returns an empty array if no queries arrive.
        """
        if duration <= 0:
            raise ValueError("duration must be positive")
        if self.arrival_rate == 0:
            return np.array([])
        n_expected = self.arrival_rate * duration
        inter = rng.exponential(
            1.0 / self.arrival_rate, size=max(16, int(n_expected * 1.3) + 16)
        )
        arrivals = np.cumsum(inter)
        arrivals = arrivals[arrivals < duration]
        if arrivals.size == 0:
            return np.array([])
        services = self._service_samples(arrivals.size, rng)
        free_at = [0.0] * self.servers
        heapq.heapify(free_at)
        sojourns = np.empty(arrivals.size)
        for i in range(arrivals.size):
            earliest = heapq.heappop(free_at)
            start = max(arrivals[i], earliest)
            finish = start + services[i]
            heapq.heappush(free_at, finish)
            sojourns[i] = finish - arrivals[i]
        return sojourns

    def p99_latency(self, duration: float, rng: np.random.Generator) -> float:
        """Empirical 99th-percentile sojourn over one run."""
        sojourns = self.simulate(duration, rng)
        if sojourns.size == 0:
            return 0.0
        return float(np.percentile(sojourns, 99))
