"""TailBench-like latency-critical services (paper §III, §VII-A).

Five interactive services — Xapian (web search), Masstree (key-value
store), ImgDNN (image recognition), Moses (machine translation), and
Silo (OLTP) — modelled as M/G/k queues whose per-query service time is
derived from the core performance model.  Each service's section
sensitivities follow the paper's Fig. 1 characterisation:

* **Xapian** — tail latency dominated by the load/store queue (needs a
  six-wide LS at high load; lowest-power QoS config {2,2,6}).
* **ImgDNN / Masstree** — need four- or six-wide FE *and* LS ({4,2,4}).
* **Moses** — front-end bound ({6,2,4}).
* **Silo** — comparatively insensitive ({2,2,4}).

All five are nearly insensitive to back-end width, so every best
low-power configuration has BE = 2, as in the paper.

Per-service maximum sustainable load (the knee before saturation on a
16-core machine) matches the paper's measured values: Xapian 22 kQPS,
Masstree 17 kQPS, ImgDNN 8 kQPS, Moses 8 kQPS, Silo 24 kQPS.  Query
*work* (instructions per query) is calibrated so the service saturates
at exactly that QPS, and the QoS target is set with a fixed margin over
the 80 %-load tail latency on the widest core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.rng import rng_for
from repro.sim.cache import MissRateCurve
from repro.sim.coreconfig import CoreConfig
from repro.sim.perf import AppProfile, PerformanceModel
from repro.workloads.queueing import MGkQueue, ServiceTimes

#: Utilization at the max-QPS knee; loads are fractions of the knee QPS.
KNEE_UTILIZATION = 0.85

#: QoS = this margin times the p99 at 80 % load on the service's
#: lowest-power QoS-feasible configuration from the paper's Fig. 1 (the
#: anchor config) — TailBench-style targets with a modest slack.
QOS_MARGIN = 1.15

#: Core count the paper's max-QPS calibration used.
CALIBRATION_CORES = 16


@dataclass(frozen=True)
class LCService:
    """A latency-critical service: an app profile plus queueing behaviour."""

    profile: AppProfile
    #: Mean instructions per query.
    work_instructions: float
    #: Squared coefficient of variation of per-query service time.
    service_scv: float
    #: Knee QPS on 16 {6,6,6} cores (100 % load).
    max_qps: float
    #: 99th-percentile latency target, seconds.
    qos_latency_s: float
    #: Optional explicit service-time distribution shape (bimodal query
    #: mixes, deterministic handlers, ...); None = lognormal via SCV.
    service_distribution: "object" = None

    def __post_init__(self) -> None:
        if self.work_instructions <= 0:
            raise ValueError("work_instructions must be positive")
        if self.max_qps <= 0:
            raise ValueError("max_qps must be positive")
        if self.qos_latency_s <= 0:
            raise ValueError("qos_latency_s must be positive")

    @property
    def name(self) -> str:
        """Service name (same as the underlying profile's)."""
        return self.profile.name

    def qps_at_load(self, load: float) -> float:
        """Queries per second at a fractional ``load`` of the knee QPS."""
        if load < 0:
            raise ValueError(f"load must be non-negative, got {load}")
        return load * self.max_qps

    def service_time(
        self,
        perf: PerformanceModel,
        config: CoreConfig,
        cache_ways: float,
        shared_way: bool = False,
        mem_multiplier: float = 1.0,
    ) -> float:
        """Mean seconds to serve one query on a core in ``config``.

        ``mem_multiplier`` inflates the memory-stall portion (bandwidth
        contention, :mod:`repro.sim.memory`).
        """
        bips = perf.bips(
            self.profile, config, cache_ways, shared_way=shared_way,
            mem_multiplier=mem_multiplier,
        )
        return self.work_instructions / (bips * 1e9)

    def queue(
        self,
        perf: PerformanceModel,
        config: CoreConfig,
        cache_ways: float,
        load: float,
        n_cores: int,
        shared_way: bool = False,
        mem_multiplier: float = 1.0,
    ) -> MGkQueue:
        """The M/G/k queue this service forms under the given allocation."""
        return MGkQueue(
            arrival_rate=self.qps_at_load(load),
            service_time_mean=self.service_time(
                perf, config, cache_ways, shared_way=shared_way,
                mem_multiplier=mem_multiplier,
            ),
            service_scv=self.service_scv,
            servers=n_cores,
            distribution=self.service_distribution,
        )

    def tail_latency(
        self,
        perf: PerformanceModel,
        config: CoreConfig,
        cache_ways: float,
        load: float,
        n_cores: int,
        shared_way: bool = False,
        mem_multiplier: float = 1.0,
    ) -> float:
        """99th-percentile latency (seconds) under the given allocation."""
        return self.queue(
            perf, config, cache_ways, load, n_cores, shared_way=shared_way,
            mem_multiplier=mem_multiplier,
        ).p99_latency()

    def utilization(
        self,
        perf: PerformanceModel,
        config: CoreConfig,
        cache_ways: float,
        load: float,
        n_cores: int,
        mem_multiplier: float = 1.0,
    ) -> float:
        """Per-core utilization under the given allocation (may exceed 1)."""
        return self.queue(
            perf, config, cache_ways, load, n_cores,
            mem_multiplier=mem_multiplier,
        ).utilization

    def meets_qos(
        self,
        perf: PerformanceModel,
        config: CoreConfig,
        cache_ways: float,
        load: float,
        n_cores: int,
    ) -> bool:
        """Whether p99 latency is within the QoS target."""
        return (
            self.tail_latency(perf, config, cache_ways, load, n_cores)
            <= self.qos_latency_s
        )


def service_time_rows(
    services: Sequence[LCService], perf: PerformanceModel
) -> np.ndarray:
    """Mean query service time of each service in every joint config.

    Entry ``[s, i]`` equals ``services[s].service_time(perf,
    JOINT_CONFIGS[i].core, JOINT_CONFIGS[i].cache_ways)`` bit for bit.
    """
    work = np.array([[service.work_instructions] for service in services])
    return work / (perf.bips_rows([s.profile for s in services]) * 1e9)


def service_times(
    services: Sequence[LCService], perf: PerformanceModel
) -> ServiceTimes:
    """The load-independent half of every p99 latency row of ``services``.

    Row ``s`` holds ``services[s]``'s mean service time and service
    p99 on every joint configuration.  An owner of a fixed service set
    builds it once and reads every (load, core count) from it with
    :meth:`ServiceTimes.p99_rows`.
    """
    return ServiceTimes(
        service_time_rows(services, perf),
        [service.service_scv for service in services],
        [service.service_distribution for service in services],
    )


@dataclass(frozen=True)
class _ServiceSpec:
    name: str
    base_cpi: float
    fe_sens: float
    be_sens: float
    ls_sens: float
    mpki: Tuple[float, float, float]  # (peak, floor, half_ways)
    service_scv: float
    max_qps: float
    activity: float
    #: Fig. 1's lowest-power QoS-meeting config at 80 % load; the QoS
    #: target is anchored to this configuration's tail latency.
    qos_anchor: Tuple[int, int, int]


_SPECS: Tuple[_ServiceSpec, ...] = (
    _ServiceSpec("xapian", 0.65, 0.10, 0.02, 0.60, (8.0, 2.5, 3.0), 1.2, 22000.0, 0.95, (2, 2, 6)),
    _ServiceSpec("masstree", 0.55, 0.30, 0.03, 0.40, (12.0, 4.0, 4.0), 0.8, 17000.0, 0.90, (4, 2, 4)),
    _ServiceSpec("imgdnn", 0.70, 0.32, 0.03, 0.32, (5.0, 2.0, 2.0), 0.6, 8000.0, 1.10, (4, 2, 4)),
    _ServiceSpec("moses", 0.75, 0.55, 0.04, 0.15, (6.0, 2.0, 3.0), 1.5, 8000.0, 1.00, (6, 2, 4)),
    _ServiceSpec("silo", 0.50, 0.06, 0.02, 0.12, (7.0, 2.5, 3.0), 0.9, 24000.0, 0.95, (2, 2, 4)),
)

#: Names of the five TailBench-like services.
LC_SERVICE_NAMES: Tuple[str, ...] = tuple(spec.name for spec in _SPECS)

_SERVICE_CACHE: Dict[Tuple[str, PerformanceModel], LCService] = {}


def _build_service(spec: _ServiceSpec, perf: PerformanceModel) -> LCService:
    peak, floor, half_ways = spec.mpki
    profile = AppProfile(
        name=spec.name,
        base_cpi=spec.base_cpi,
        fe_sens=spec.fe_sens,
        be_sens=spec.be_sens,
        ls_sens=spec.ls_sens,
        miss_curve=MissRateCurve(peak=peak, floor=floor, half_ways=half_ways),
        activity=spec.activity,
    )
    widest = CoreConfig.widest()
    bips_widest = perf.bips(profile, widest, cache_ways=4.0)
    # Calibrate per-query work so the knee utilization lands at max QPS
    # on 16 widest cores, as in the paper's saturation sweep (§VII-A).
    work = KNEE_UTILIZATION * CALIBRATION_CORES * bips_widest * 1e9 / spec.max_qps
    provisional = LCService(
        profile=profile,
        work_instructions=work,
        service_scv=spec.service_scv,
        max_qps=spec.max_qps,
        qos_latency_s=1.0,  # placeholder, replaced below
    )
    anchor = CoreConfig(*spec.qos_anchor)
    p99_anchor = provisional.tail_latency(
        perf, anchor, cache_ways=4.0, load=0.8, n_cores=CALIBRATION_CORES
    )
    return LCService(
        profile=profile,
        work_instructions=work,
        service_scv=spec.service_scv,
        max_qps=spec.max_qps,
        qos_latency_s=QOS_MARGIN * p99_anchor,
    )


def make_services(perf: PerformanceModel = None) -> Dict[str, LCService]:
    """Build (and calibrate) all five services against a performance model."""
    perf = perf if perf is not None else PerformanceModel()
    services = {}
    for spec in _SPECS:
        key = (spec.name, perf)
        if key not in _SERVICE_CACHE:
            # Pure memoization: _build_service is deterministic in its
            # key, so per-worker repopulation is byte-identical and
            # fleet outputs cannot diverge.
            _SERVICE_CACHE[key] = _build_service(spec, perf)  # repro: noqa[FLT502]
        services[spec.name] = _SERVICE_CACHE[key]
    return services


def lc_service(name: str, perf: PerformanceModel = None) -> LCService:
    """One calibrated service by name."""
    services = make_services(perf)
    if name not in services:
        raise KeyError(
            f"unknown latency-critical service {name!r}; "
            f"known: {', '.join(LC_SERVICE_NAMES)}"
        )
    return services[name]


def service_variants(
    name: str,
    n_variants: int,
    seed: int = 0,
    perf: PerformanceModel = None,
    jitter: float = 0.2,
) -> Tuple[LCService, ...]:
    """Jittered "historical" variants of a service for latency training.

    The latency matrix's known rows represent previously-seen
    interactive services.  Beyond the other four TailBench services,
    a realistic deployment history contains many services *similar* to
    each archetype (different search engines, key-value stores, ...).
    Variants jitter every sensitivity and cache parameter of the base
    spec by up to ``jitter`` (relative), then go through the same
    work/QoS calibration as first-class services.  A variant is a
    different application — the running service's own row is still
    never in its training set.
    """
    if n_variants < 0:
        raise ValueError("n_variants must be non-negative")
    if not 0 <= jitter < 1:
        raise ValueError("jitter must be in [0, 1)")
    base = next((s for s in _SPECS if s.name == name), None)
    if base is None:
        raise KeyError(f"unknown latency-critical service {name!r}")
    perf = perf if perf is not None else PerformanceModel()
    # rng_for(name, seed=seed) derives the same stream the ad-hoc
    # crc32 expression here used to: variants are unchanged.
    rng = rng_for(name, seed=seed)

    def wiggle(value: float, lo: float = 0.0) -> float:
        return max(lo, value * float(rng.uniform(1 - jitter, 1 + jitter)))

    variants = []
    for v in range(n_variants):
        peak, floor, half = base.mpki
        peak = wiggle(peak, lo=0.5)
        spec = _ServiceSpec(
            name=f"{name}-v{v}",
            base_cpi=wiggle(base.base_cpi, lo=0.1),
            fe_sens=wiggle(base.fe_sens),
            be_sens=wiggle(base.be_sens),
            ls_sens=wiggle(base.ls_sens),
            mpki=(peak, min(wiggle(floor, lo=0.1), peak), wiggle(half, lo=0.5)),
            service_scv=wiggle(base.service_scv, lo=0.1),
            max_qps=wiggle(base.max_qps, lo=100.0),
            activity=min(2.0, wiggle(base.activity, lo=0.2)),
            qos_anchor=base.qos_anchor,
        )
        variants.append(_build_service(spec, perf))
    return tuple(variants)
