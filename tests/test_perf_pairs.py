"""Tests for ``scripts/perf_pairs.py``'s summary, on canned runs.

No perfbench process is started: the runs are the lines
``perfbench/run.py`` prints.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perf_pairs.py"


@pytest.fixture(scope="module")
def perf_pairs():
    spec = importlib.util.spec_from_file_location("perf_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    sys.modules["perf_pairs"] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules["perf_pairs"]


DECLARED = [
    {"name": "quantum_ms_p50", "unit": "ms", "better": "lower"},
    {"name": "quanta_per_s", "unit": "1/s", "better": "higher"},
]


def stdout(p50, rate, digest="ef9b6051", failed=0, correct=True):
    """What ``perfbench/run.py --trace 0`` prints."""
    return "\n".join([
        f"workload churn seed 57: 900 timed quanta, digest {digest}",
        "host: raw quantum_ms_p50 12.9, reference_ms 4.4 (nominal 4)",
        "quality: batch_gmean_bips 3.9409, qos_violation_frac 0.0630",
        f"  quantum_ms_p50 {p50:>14.4f} ms",
        json.dumps({
            "correct": correct, "attempted": 900, "failed": failed,
            "metrics": {
                "quantum_ms_p50": {"value": p50, "unit": "ms"},
                "quanta_per_s": {"value": rate, "unit": "1/s"},
            },
        }),
    ])


def test_parse_run_reads_digest_and_metrics(perf_pairs):
    run = perf_pairs.parse_run(stdout(12.5, 80.0, failed=2))
    assert run.digest == "ef9b6051"
    assert run.metrics == {"quantum_ms_p50": 12.5, "quanta_per_s": 80.0}
    assert (run.attempted, run.failed, run.correct) == (900, 2, True)
    with pytest.raises(ValueError):
        perf_pairs.parse_run("\n\n")


def test_summary_counts_wins_in_each_direction(perf_pairs):
    parent = [(13.0, 70.0), (12.8, 72.0), (13.2, 69.0), (12.9, 71.0)]
    change = [(11.9, 75.0), (11.7, 71.0), (12.0, 74.0), (13.0, 76.0)]
    pairs = [
        (perf_pairs.parse_run(stdout(*p)), perf_pairs.parse_run(stdout(*c)))
        for p, c in zip(parent, change)
    ]
    p50, rate = perf_pairs.summarise(pairs, DECLARED)
    assert (p50.won, p50.pairs) == (3, 4)
    assert rate.won == 3  # higher is better: 71.0 < 72.0 loses
    # Inclusive quartiles of 12.8, 12.9, 13.0, 13.2.
    assert p50.parent == pytest.approx((12.875, 12.95, 13.05))
    assert p50.change[1] == pytest.approx(11.95)
    assert p50.ratio == pytest.approx(11.95 / 12.95)
    # 1.0 ms gained against an IQR of 0.175 ms.
    assert p50.beyond_parent_iqr
    # 74.5 vs 70.5 against an IQR of 1.5.
    assert rate.beyond_parent_iqr


def test_gain_within_parent_iqr_is_not_claimed(perf_pairs):
    pairs = [
        (perf_pairs.parse_run(stdout(p, 70.0)),
         perf_pairs.parse_run(stdout(c, 70.0)))
        for p, c in [(12.0, 11.9), (13.0, 12.9), (14.0, 13.9)]
    ]
    p50, rate = perf_pairs.summarise(pairs, DECLARED)
    assert p50.won == 3 and not p50.beyond_parent_iqr
    assert rate.won == 0 and not rate.beyond_parent_iqr
    # One pair: every quartile is the value itself.
    (single, _) = perf_pairs.summarise(pairs[:1], DECLARED)
    assert single.parent == (12.0, 12.0, 12.0)


def test_report_flags_a_digest_change_and_failures(perf_pairs):
    same = [(perf_pairs.parse_run(stdout(13.0, 70.0)),
             perf_pairs.parse_run(stdout(12.0, 75.0)))]
    text = perf_pairs.report(same, DECLARED)
    assert "digest: same on both sides (ef9b6051)" in text
    assert "parent: 0 failed of 900 operations, 0 incorrect runs" in text
    assert text.splitlines()[1].split()[0] == "quantum_ms_p50"

    differs = [(perf_pairs.parse_run(stdout(13.0, 70.0)),
                perf_pairs.parse_run(stdout(12.0, 75.0, digest="0badc0de",
                                            failed=3, correct=False)))]
    text = perf_pairs.report(differs, DECLARED)
    assert "digest: DIFFERS: parent ef9b6051; change 0badc0de" in text
    assert "change: 3 failed of 900 operations, 1 incorrect runs" in text
