"""Tests for the analytical M/G/k model and the discrete-event validator."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.queueing import (
    DiscreteEventQueue,
    MGkQueue,
    erlang_c,
    mixture_p99,
)


class TestErlangC:
    def test_zero_load(self):
        assert erlang_c(4, 0.0) == 0.0

    def test_single_server_equals_rho(self):
        # M/M/1: P(wait) = rho.
        assert erlang_c(1, 0.3) == pytest.approx(0.3)
        assert erlang_c(1, 0.9) == pytest.approx(0.9)

    def test_known_multi_server_value(self):
        # Classic table value: k=2, offered load 1.0 -> P(wait) = 1/3.
        assert erlang_c(2, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-6)

    def test_saturation_returns_one(self):
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(4, 10.0) == 1.0

    @given(st.integers(1, 64), st.floats(0.01, 0.99))
    def test_bounded_probability(self, servers, rho):
        p = erlang_c(servers, rho * servers)
        assert 0.0 <= p <= 1.0

    @given(st.floats(0.1, 0.9))
    def test_more_servers_less_waiting(self, rho):
        # At equal per-server utilization, pooling reduces waiting.
        assert erlang_c(16, rho * 16) <= erlang_c(2, rho * 2) + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            erlang_c(0, 1.0)
        with pytest.raises(ValueError):
            erlang_c(2, -1.0)


class TestMGkQueue:
    def queue(self, rho=0.5, scv=1.0, servers=16, service=0.001):
        return MGkQueue(
            arrival_rate=rho * servers / service,
            service_time_mean=service,
            service_scv=scv,
            servers=servers,
        )

    def test_utilization(self):
        q = self.queue(rho=0.7)
        assert q.utilization == pytest.approx(0.7)

    def test_p99_at_least_service_quantile(self):
        q = self.queue(rho=0.2)
        assert q.p99_latency() >= q._service_quantile(0.99) - 1e-12

    @given(st.floats(0.05, 0.9), st.floats(0.05, 0.9))
    @settings(max_examples=40)
    def test_p99_monotone_in_load(self, a, b):
        lo, hi = sorted((a, b))
        assert self.queue(rho=hi).p99_latency() >= \
            self.queue(rho=lo).p99_latency() - 1e-9

    def test_p99_explodes_near_saturation(self):
        calm = self.queue(rho=0.5).p99_latency()
        hot = self.queue(rho=0.98).p99_latency()
        assert hot > 2 * calm

    def test_overload_grows_with_backlog(self):
        over1 = self.queue(rho=1.2).p99_latency()
        over2 = self.queue(rho=2.0).p99_latency()
        assert over2 > over1 > self.queue(rho=0.9).p99_latency()

    def test_higher_variability_higher_tail(self):
        smooth = self.queue(rho=0.8, scv=0.3).p99_latency()
        bursty = self.queue(rho=0.8, scv=2.0).p99_latency()
        assert bursty > smooth

    def test_mean_latency_exceeds_service_time(self):
        q = self.queue(rho=0.7)
        assert q.mean_latency() > q.service_time_mean

    def test_zero_arrivals(self):
        q = MGkQueue(0.0, 0.001, 1.0, 4)
        assert q.mean_wait() == 0.0
        assert q.p99_latency() == pytest.approx(q._service_quantile(0.99))

    def test_validation(self):
        with pytest.raises(ValueError):
            MGkQueue(-1.0, 0.001, 1.0, 4)
        with pytest.raises(ValueError):
            MGkQueue(1.0, 0.0, 1.0, 4)
        with pytest.raises(ValueError):
            MGkQueue(1.0, 0.001, -1.0, 4)
        with pytest.raises(ValueError):
            MGkQueue(1.0, 0.001, 1.0, 0)

    def test_deterministic_service_quantile(self):
        q = MGkQueue(10.0, 0.001, 0.0, 4)
        assert q._service_quantile(0.99) == pytest.approx(0.001)


#: Stable regimes at small core counts (k in {2, 4, 8}, rho in
#: {0.5, 0.8}), with each service's SCV.
SMALL_CORE_REGIMES = [
    (scv, servers, rho)
    for scv in (1.2, 0.8, 0.6, 1.5, 0.9)  # xapian .. silo
    for servers in (2, 4, 8)
    for rho in (0.5, 0.8)
]

#: (k, rho) cells where the analytical p99 is at or past the 0.35 band,
#: mapped to whether every run lands outside it.  The model adds the
#: service-time and waiting-time 99th percentiles, an upper bound on the
#: sojourn's; against 200,000-query simulations it reads +0.38..+0.40
#: high at (2, 0.5), +0.35..+0.40 at (4, 0.8) and +0.33..+0.34 at
#: (8, 0.8), where a finite run lands on either side of the band.
OUT_OF_BAND = {(2, 0.5): True, (4, 0.8): False, (8, 0.8): False}


def _band_case(regime):
    scv, servers, rho = regime
    marks = ()
    if (servers, rho) in OUT_OF_BAND:
        marks = pytest.mark.xfail(
            reason="analytical p99 overestimates at this (k, rho): the "
            "sum of the service and waiting quantiles",
            strict=OUT_OF_BAND[servers, rho],
        )
    return pytest.param(regime, marks=marks, id=_regime_id(regime))


def _regime_id(regime):
    scv, servers, rho = regime
    return f"scv{scv}-k{servers}-rho{rho}"


_SMALL_CORE_P99 = {}


def _small_core_p99(scv, servers, rho):
    """(analytical, simulated) p99 of one regime, simulated once.

    One fixed-seed run of 100,000 queries at a 1 ms mean service time;
    the first tenth (the queue filling from empty) is dropped.
    """
    key = (scv, servers, rho)
    if key not in _SMALL_CORE_P99:
        service = 0.001
        rate = rho * servers / service
        analytical = MGkQueue(rate, service, scv, servers).p99_latency()
        rng = np.random.default_rng([servers, int(rho * 10), int(scv * 10)])
        sojourns = DiscreteEventQueue(rate, service, scv, servers).simulate(
            100000 / rate, rng
        )
        empirical = np.percentile(sojourns[sojourns.size // 10:], 99)
        _SMALL_CORE_P99[key] = (analytical, float(empirical))
    return _SMALL_CORE_P99[key]

class TestDiscreteEventValidation:
    """The DES validates the analytical approximation (DESIGN.md)."""

    @pytest.mark.parametrize("rho", [0.3, 0.6, 0.8])
    def test_p99_agreement_moderate_loads(self, rho):
        servers = 16
        service = 0.001
        analytical = MGkQueue(
            arrival_rate=rho * servers / service,
            service_time_mean=service,
            service_scv=1.0,
            servers=servers,
        ).p99_latency()
        des = DiscreteEventQueue(
            arrival_rate=rho * servers / service,
            service_time_mean=service,
            service_scv=1.0,
            servers=servers,
        )
        rng = np.random.default_rng(42)
        empirical = np.median(
            [des.p99_latency(duration=3.0, rng=rng) for _ in range(5)]
        )
        assert analytical == pytest.approx(empirical, rel=0.35)

    @pytest.mark.parametrize(
        "regime", [_band_case(regime) for regime in SMALL_CORE_REGIMES]
    )
    def test_p99_agreement_small_core_counts(self, regime):
        """The controller's stable regimes, with each service's SCV."""
        analytical, empirical = _small_core_p99(*regime)
        assert analytical == pytest.approx(empirical, rel=0.35)

    @pytest.mark.parametrize("regime", SMALL_CORE_REGIMES, ids=_regime_id)
    def test_p99_conservative_small_core_counts(self, regime):
        """Where it leaves the band, the model errs on the safe side.

        Adding the service-time and waiting-time quantiles bounds the
        sojourn quantile from above, so the latency the controller
        plans with is never below what the simulated queue delivers.
        """
        analytical, empirical = _small_core_p99(*regime)
        assert analytical >= empirical

    def test_des_mean_matches_analytical(self):
        servers = 8
        service = 0.002
        rho = 0.7
        q = MGkQueue(rho * servers / service, service, 1.0, servers)
        des = DiscreteEventQueue(
            rho * servers / service, service, 1.0, servers
        )
        rng = np.random.default_rng(7)
        sojourns = des.simulate(duration=5.0, rng=rng)
        assert np.mean(sojourns) == pytest.approx(q.mean_latency(), rel=0.25)

    def test_des_deterministic_given_rng(self):
        des = DiscreteEventQueue(1000.0, 0.001, 1.0, 4)
        a = des.p99_latency(1.0, np.random.default_rng(3))
        b = des.p99_latency(1.0, np.random.default_rng(3))
        assert a == b

    def test_no_arrivals(self):
        des = DiscreteEventQueue(0.0, 0.001, 1.0, 4)
        assert des.simulate(1.0, np.random.default_rng(0)).size == 0
        assert des.p99_latency(1.0, np.random.default_rng(0)) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteEventQueue(-1.0, 0.001, 1.0, 4)
        with pytest.raises(ValueError):
            DiscreteEventQueue(1.0, 0.001, 1.0, 4).simulate(
                0.0, np.random.default_rng(0)
            )


class TestMixtureP99:
    def test_single_regime_is_identity(self):
        assert mixture_p99([1.0], [0.005]) == pytest.approx(0.005, rel=1e-3)

    def test_small_bad_fraction_dominates_tail(self):
        # 10% of queries in a regime 20x worse: the mixture p99 must be
        # far above the good regime's p99, near half the bad one's.
        p = mixture_p99([0.9, 0.1], [0.001, 0.020])
        assert p > 0.005
        assert p < 0.020

    def test_tiny_bad_fraction_matters_less(self):
        big = mixture_p99([0.9, 0.1], [0.001, 0.020])
        small = mixture_p99([0.99, 0.01], [0.001, 0.020])
        assert small < big

    def test_monotone_in_bad_p99(self):
        worse = mixture_p99([0.9, 0.1], [0.001, 0.050])
        better = mixture_p99([0.9, 0.1], [0.001, 0.010])
        assert worse > better

    def test_validation(self):
        with pytest.raises(ValueError):
            mixture_p99([0.5, 0.4], [0.001, 0.002])  # doesn't sum to 1
        with pytest.raises(ValueError):
            mixture_p99([1.0], [0.0])
        with pytest.raises(ValueError):
            mixture_p99([], [])
        with pytest.raises(ValueError):
            mixture_p99([0.5, 0.5], [0.001])
