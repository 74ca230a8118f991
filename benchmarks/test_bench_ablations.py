"""Ablation benches for the design choices DESIGN.md calls out."""

from repro.experiments.ablations import (
    ABLATIONS,
    ablation_row,
    render_ablation,
)


def declared_rows(ablation):
    """Every declared variant of one ablation, at the default scale."""
    return tuple(
        ablation_row(ablation, value)
        for value in ABLATIONS[ablation].variants.values()
    )


def test_bench_ablation_inference(once, capsys):
    """What imperfect (two-sample SGD) inference costs vs an oracle."""
    sgd, oracle = once(declared_rows, "inference")
    with capsys.disabled():
        print()
        print(render_ablation("SGD vs oracle inference", [sgd, oracle]))
    assert oracle.batch_instructions_b >= sgd.batch_instructions_b
    # Inference imperfection costs some throughput but never QoS.
    assert sgd.qos_violations == 0
    assert sgd.batch_instructions_b > 0.7 * oracle.batch_instructions_b


def test_bench_ablation_guards_and_variants(once, capsys):
    """QoS guardbands and historical latency variants."""
    with_guards, without_guards = once(declared_rows, "guards")
    with_variants, without_variants = declared_rows("variants")
    with capsys.disabled():
        print()
        print(render_ablation("QoS guardbands",
                              [with_guards, without_guards]))
        print()
        print(render_ablation("latency training variants",
                              [with_variants, without_variants]))
    assert with_guards.qos_violations == 0
    assert with_variants.qos_violations == 0
    # Removing either safety mechanism must not *improve* safety.
    removed = (
        without_guards.qos_violations + without_guards.power_violations
        + without_variants.qos_violations + without_variants.power_violations
    )
    kept = (
        with_guards.qos_violations + with_guards.power_violations
        + with_variants.qos_violations + with_variants.power_violations
    )
    assert removed >= kept


def test_bench_ablation_training_size(once, capsys):
    """End-to-end training-set-size effect (§VIII-A2)."""
    rows = once(declared_rows, "training-size")
    with capsys.disabled():
        print()
        print(render_ablation("offline training-set size", rows))
    assert all(r.batch_instructions_b > 0 for r in rows)


def test_bench_ablation_transition_cost(once, capsys):
    """How expensive would per-core reconfiguration have to be to hurt?"""
    rows = once(declared_rows, "transition-cost")
    with capsys.disabled():
        print()
        print(render_ablation("reconfiguration transition cost", rows))
    # CuttleSys's configurations are stable enough that even 10 ms
    # transitions (200x the AnyCore estimate) cost under ~15 %.
    assert rows[-1].batch_instructions_b > 0.8 * rows[0].batch_instructions_b
    assert all(r.qos_violations == 0 for r in rows)


def test_bench_ablation_search(once, capsys):
    """DDS iteration budget and the soft power-penalty weight."""
    budgets = once(lambda: {
        max_iter: ablation_row("dds-budget", max_iter).batch_instructions_b
        for max_iter in ABLATIONS["dds-budget"].variants.values()
    })
    penalties = declared_rows("penalty-weight")
    with capsys.disabled():
        print()
        print("DDS maxIter -> objective:",
              {k: round(v, 3) for k, v in budgets.items()})
        print(render_ablation("power penalty weight", penalties))
    iters = sorted(budgets)
    # More iterations never hurt; the default (40) captures most gains.
    assert budgets[iters[-1]] >= budgets[iters[0]]
    assert budgets[40] >= 0.95 * budgets[iters[-1]]


def test_bench_ablation_sgd_epochs(once, capsys):
    """SGD refinement's relative stopping tolerance."""
    rows = once(declared_rows, "sgd-epochs")
    with capsys.disabled():
        print()
        print(render_ablation("SGD refinement stopping rule", rows))
    # After the SVD fold-in the epochs move little: every stopping rule
    # keeps QoS and stays within a few percent of every other.
    assert all(r.qos_violations == 0 for r in rows)
    work = [r.batch_instructions_b for r in rows]
    assert min(work) > 0.95 * max(work)
