"""The policy catalogue: every named scheduling scheme, declared once.

``run --policy NAME``, the Fig. 5c / Fig. 7 sweeps and the churn study
all build their policies from :data:`POLICIES`.  Each entry pairs a
``factory(machine, seed)`` with the machine variant the scheme runs
on: CuttleSys, Flicker and the reconfiguration oracle need the
reconfigurable cores (and pay their energy/frequency tax, §VII); the
gating and asymmetric baselines run on the fixed-core variant.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro.baselines import (
    AsymmetricOraclePolicy,
    CoreGatingPolicy,
    FlickerPolicy,
    NoGatingPolicy,
    StaticAsymmetricPolicy,
)
from repro.core.oracle import OracleReconfigPolicy
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.harness import build_machine_for_mix
from repro.sim.machine import Machine
from repro.workloads.mixes import Mix


class PolicyEntry(NamedTuple):
    """How to build one named scheme."""

    factory: Callable[[Machine, int], Any]
    #: Runs on the reconfigurable machine variant.
    reconfigurable: bool


POLICIES: Dict[str, PolicyEntry] = {
    "cuttlesys": PolicyEntry(
        lambda machine, seed: CuttleSysPolicy.for_machine(machine, seed=seed),
        True,
    ),
    "core-gating": PolicyEntry(lambda machine, seed: CoreGatingPolicy(), False),
    "core-gating+wp": PolicyEntry(
        lambda machine, seed: CoreGatingPolicy(way_partition=True), False
    ),
    "asymm-oracle": PolicyEntry(
        lambda machine, seed: AsymmetricOraclePolicy(), False
    ),
    "asymm-50-50": PolicyEntry(
        lambda machine, seed: StaticAsymmetricPolicy(), False
    ),
    "no-gating": PolicyEntry(lambda machine, seed: NoGatingPolicy(), False),
    "flicker": PolicyEntry(
        lambda machine, seed: FlickerPolicy(seed=seed), True
    ),
    "oracle-reconfig": PolicyEntry(
        lambda machine, seed: OracleReconfigPolicy(seed=seed), True
    ),
}


def build_policy(name: str, mix: Mix, seed: int) -> Tuple[Machine, Any]:
    """The machine ``name`` runs on for ``mix``, and the policy for it."""
    entry = POLICIES[name]
    machine = build_machine_for_mix(
        mix, seed=seed, reconfigurable=entry.reconfigurable
    )
    return machine, entry.factory(machine, seed)
