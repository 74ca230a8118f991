"""Analytical performance model for reconfigurable cores.

Substitute for zsim's cycle-level core models (see DESIGN.md).  The model
is a bottleneck CPI decomposition: an application's cycles-per-instruction
on a given core configuration is its ideal CPI on the widest {6,6,6} core
plus per-section stall terms that grow as a section narrows, plus a
memory-stall term driven by its LLC miss-rate curve::

    CPI = base_cpi
        + fe_sens * penalty(fe) + be_sens * penalty(be) + ls_sens * penalty(ls)
        + MPKI(ways)/1000 * mem_latency * blocking(ls)

with ``penalty(w) = 6/w - 1`` (0 at six-wide, 0.5 at four-wide, 2 at
two-wide) — a convex diminishing-returns shape matching the width
characterisations of Flicker and AnyCore.  A narrow LS section also
reduces memory-level parallelism, exposing a larger fraction of each
miss (``blocking`` grows with ``penalty(ls)``).

The per-application sensitivity coefficients are what make workloads
*diverse*: they determine which core section bottlenecks which job, the
structure CuttleSys's collaborative filtering learns and exploits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.sim.cache import MissRateCurve
from repro.sim.coreconfig import CACHE_ALLOCS, JOINT_CONFIGS, CoreConfig


#: Convexity of the width penalty: dropping six-wide to four-wide costs
#: little (spare issue slots absorb it), four to two costs a lot.
WIDTH_PENALTY_EXPONENT = 1.35


def width_penalty(width: int) -> float:
    """Stall multiplier for one section at ``width`` (0 when six-wide)."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    return (6.0 / width - 1.0) ** WIDTH_PENALTY_EXPONENT


@dataclass(frozen=True)
class AppProfile:
    """Microarchitecture-facing summary of one application.

    Instances are built by :mod:`repro.workloads` (SPEC-like batch
    profiles and TailBench-like service profiles) and consumed by the
    performance and power models.  All coefficients refer to the CPI
    decomposition documented in the module docstring.
    """

    name: str
    base_cpi: float
    fe_sens: float
    be_sens: float
    ls_sens: float
    miss_curve: MissRateCurve
    #: Fraction of a miss's latency exposed as stall on a six-wide LS.
    mem_blocking: float = 0.35
    #: How much a narrow LS section degrades memory-level parallelism.
    ls_mlp_sens: float = 0.25
    #: Switching-activity scale for the dynamic power model.
    activity: float = 1.0

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ValueError(f"base_cpi must be positive, got {self.base_cpi}")
        for label, value in (
            ("fe_sens", self.fe_sens),
            ("be_sens", self.be_sens),
            ("ls_sens", self.ls_sens),
            ("mem_blocking", self.mem_blocking),
            ("ls_mlp_sens", self.ls_mlp_sens),
        ):
            if value < 0:
                raise ValueError(f"{label} must be non-negative, got {value}")
        if not 0 < self.activity <= 2.0:
            raise ValueError(f"activity must be in (0, 2], got {self.activity}")


@dataclass(frozen=True)
class PerformanceModel:
    """Maps (application, core config, cache ways) to CPI / IPC / BIPS.

    Parameters mirror Table I of the paper: a 4 GHz nominal clock, a
    200-cycle DRAM access, and the 1.67 % frequency penalty that
    reconfigurable cores pay relative to fixed ones (AnyCore RTL
    analysis, §VII).
    """

    frequency_ghz: float = 4.0
    mem_latency_cycles: float = 200.0
    #: Relative frequency loss of a reconfigurable core (0 for fixed cores).
    reconfig_frequency_penalty: float = 0.0167
    reconfigurable: bool = True

    @property
    def effective_frequency_ghz(self) -> float:
        """Clock after the reconfigurability penalty, in GHz."""
        if self.reconfigurable:
            return self.frequency_ghz * (1.0 - self.reconfig_frequency_penalty)
        return self.frequency_ghz

    def cpi_split(
        self,
        profile: AppProfile,
        config: CoreConfig,
        cache_ways: float,
        shared_way: bool = False,
    ) -> Tuple[float, float]:
        """(core CPI, memory-stall CPI) of ``profile`` on ``config``.

        The split matters for DVFS studies: core cycles scale with the
        clock, while memory-stall time is fixed in wall-clock terms
        (the stall *cycles* here are expressed at the nominal clock).
        """
        mpki = profile.miss_curve.mpki(cache_ways, shared=shared_way)
        blocking = profile.mem_blocking * (
            1.0 + profile.ls_mlp_sens * width_penalty(config.ls)
        )
        core = (
            profile.base_cpi
            + profile.fe_sens * width_penalty(config.fe)
            + profile.be_sens * width_penalty(config.be)
            + profile.ls_sens * width_penalty(config.ls)
        )
        memory = (mpki / 1000.0) * self.mem_latency_cycles * blocking
        return core, memory

    def cpi(
        self,
        profile: AppProfile,
        config: CoreConfig,
        cache_ways: float,
        shared_way: bool = False,
        mem_multiplier: float = 1.0,
    ) -> float:
        """Cycles per instruction of ``profile`` on ``config``.

        ``mem_multiplier`` inflates the memory-stall component — the
        hook the optional memory-bandwidth contention model
        (:mod:`repro.sim.memory`) uses.
        """
        if mem_multiplier < 1.0:
            raise ValueError("mem_multiplier must be >= 1")
        core, memory = self.cpi_split(
            profile, config, cache_ways, shared_way=shared_way
        )
        return core + memory * mem_multiplier

    def ipc(
        self,
        profile: AppProfile,
        config: CoreConfig,
        cache_ways: float,
        shared_way: bool = False,
        mem_multiplier: float = 1.0,
    ) -> float:
        """Instructions per cycle (reciprocal of :meth:`cpi`)."""
        return 1.0 / self.cpi(
            profile, config, cache_ways, shared_way=shared_way,
            mem_multiplier=mem_multiplier,
        )

    def bips(
        self,
        profile: AppProfile,
        config: CoreConfig,
        cache_ways: float,
        shared_way: bool = False,
        mem_multiplier: float = 1.0,
    ) -> float:
        """Billions of instructions per second on one core."""
        return self.effective_frequency_ghz * self.ipc(
            profile, config, cache_ways, shared_way=shared_way,
            mem_multiplier=mem_multiplier,
        )

    def cpi_rows(self, profiles: Sequence[AppProfile]) -> np.ndarray:
        """CPI of each profile across all 108 joint configurations.

        Array arithmetic in the scalar :meth:`cpi_split` order over the
        per-joint width penalties and each profile's four cache
        allocations' MPKI (both from the scalar functions), so entry
        ``[p, i]`` has the same bits as ``cpi(profiles[p],
        JOINT_CONFIGS[i].core, JOINT_CONFIGS[i].cache_ways)``.
        """
        def column(name: str) -> np.ndarray:
            return np.array([[getattr(p, name)] for p in profiles])

        fe, be, ls = _JOINT_PENALTIES
        mpki = np.array([
            [p.miss_curve.mpki(ways) for ways in CACHE_ALLOCS]
            for p in profiles
        ])[:, _JOINT_CACHE]
        blocking = column("mem_blocking") * (
            1.0 + column("ls_mlp_sens") * ls
        )
        core = (
            column("base_cpi")
            + column("fe_sens") * fe
            + column("be_sens") * be
            + column("ls_sens") * ls
        )
        memory = (mpki / 1000.0) * self.mem_latency_cycles * blocking
        return core + memory

    def bips_rows(self, profiles: Sequence[AppProfile]) -> np.ndarray:
        """BIPS of each profile across all 108 joint configurations.

        Entry ``[p, i]`` equals ``bips(profiles[p], JOINT_CONFIGS[i].core,
        JOINT_CONFIGS[i].cache_ways)`` bit for bit.
        """
        return self.effective_frequency_ghz * (1.0 / self.cpi_rows(profiles))

    def bips_row(self, profile: AppProfile) -> np.ndarray:
        """BIPS of ``profile`` across all 108 joint configurations.

        This is one row of the throughput ground-truth matrix used to
        train and evaluate the SGD reconstruction.
        """
        return self.bips_rows([profile])[0]

    def cpi_row(self, profile: AppProfile) -> np.ndarray:
        """CPI of ``profile`` across all 108 joint configurations."""
        return self.cpi_rows([profile])[0]


#: Width penalty of each section (rows fe, be, ls) of every joint
#: configuration, looked up from the scalar :func:`width_penalty`.
_JOINT_PENALTIES = np.array([
    [width_penalty(width) for width in joint.core.widths()]
    for joint in JOINT_CONFIGS
]).T
#: Index into :data:`CACHE_ALLOCS` of every joint configuration.
_JOINT_CACHE = np.array([joint.cache_index for joint in JOINT_CONFIGS])
