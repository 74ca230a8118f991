"""Colocation study: CuttleSys against every baseline across power caps.

The motivating scenario of the paper's introduction: a latency-critical
web-search service colocated with a multiprogrammed batch mix on one
power-capped server.  This script sweeps power caps from 90 % down to
50 % and reports the useful batch work of each resource-management
scheme, relative to a machine with no power management — a small-scale
version of Fig. 5(c).

Run:
    python examples/colocation_study.py [mix_index]
"""

import sys

from repro import LoadTrace
from repro.experiments.harness import reference_power_for_mix, run_policy
from repro.experiments.policies import build_policy
from repro.workloads import paper_mixes

CAPS = (0.9, 0.7, 0.5)
N_SLICES = 8
SEED = 7


def main() -> None:
    mix_index = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    mix = paper_mixes()[mix_index]
    reference = reference_power_for_mix(mix, seed=SEED)
    print(f"Mix: {mix.label}   reference power: {reference:.1f} W\n")

    schemes = (
        "no-gating", "core-gating", "core-gating+wp", "asymm-oracle",
        "cuttlesys",
    )

    header = f"{'cap':<6}" + "".join(f"{name:>16}" for name in schemes)
    print(header)
    print("-" * len(header))
    for cap in CAPS:
        cells = [f"{cap:<6.0%}"]
        baseline = None
        for name in schemes:
            machine, policy = build_policy(name, mix, SEED)
            run = run_policy(
                machine,
                policy,
                LoadTrace.constant(0.8),
                power_cap_fraction=cap,
                n_slices=N_SLICES,
                max_power_w=reference,
            )
            instr = run.total_batch_instructions()
            if baseline is None:
                baseline = instr
            flag = "!" if run.qos_violations() else ""
            cells.append(f"{instr / baseline:>15.2f}{flag or ' '}")
        print("".join(cells))
    print(
        "\nValues are batch instructions relative to no-gating; "
        "'!' marks QoS violations."
    )


if __name__ == "__main__":
    main()
