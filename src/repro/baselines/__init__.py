"""Baseline policies the paper compares CuttleSys against (§VII-B/C, §VIII-E).

* :class:`NoGatingPolicy` — all cores at the widest configuration, no
  cache partitioning (the normalisation baseline of Fig. 5c).
* :class:`CoreGatingPolicy` — fixed {6,6,6} cores with per-core power
  gating (C6), cores turned off in descending power order to meet the
  budget, optionally with LLC way partitioning.
* :class:`AsymmetricOraclePolicy` — an oracle-like big.LITTLE multicore
  that picks the optimal number of big/small cores per timeslice.
* :class:`StaticAsymmetricPolicy` — a realistic fixed 50/50 big.LITTLE.
* :class:`FlickerPolicy` — Flicker's 3MM3 + RBF estimation and GA
  search, in both evaluation methodologies of §VIII-E.

Every baseline that gates cores for the power cap does so through the
runtime's hard fallback, :func:`repro.core.objective.power_fallback`.
"""

from repro.baselines.asymmetric import AsymmetricOraclePolicy, StaticAsymmetricPolicy
from repro.baselines.core_gating import CoreGatingPolicy, GatingOrder
from repro.baselines.flicker import FlickerMethod, FlickerPolicy
from repro.baselines.no_gating import NoGatingPolicy

__all__ = [
    "AsymmetricOraclePolicy",
    "CoreGatingPolicy",
    "FlickerMethod",
    "FlickerPolicy",
    "GatingOrder",
    "NoGatingPolicy",
    "StaticAsymmetricPolicy",
]
