"""Fig. 9 — prediction error: SGD reconstruction vs RBF surrogate.

Flicker's RBF surrogate needs nine 3MM3 samples; given the two-or-three
samples CuttleSys operates with, the interpolant is wildly
under-determined and extrapolates to errors of hundreds of percent
(the paper shows outliers near 600 %), while SGD's collaborative
filtering stays within tens of percent with just two samples — because
it leans on the offline-characterised population instead of the
samples alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.core.matrices import ObservedMatrix, power_rows, throughput_rows
from repro.core.rbf import RBFSurrogate
from repro.core.sgd import PQReconstructor, SGDParams
from repro.experiments.reporting import (
    format_table,
    percentile_summary,
    relative_error_percent,
)
from repro.sim.coreconfig import CoreConfig, JointConfig
from repro.sim.perf import PerformanceModel
from repro.sim.power import PowerModel
from repro.workloads.batch import batch_profile, train_test_split

#: Number of samples the RBF fit gets (the paper uses 3: it could not
#: converge with 2).
RBF_SAMPLES = 3

HI = JointConfig(CoreConfig.widest(), 1.0)
LO = JointConfig(CoreConfig.narrowest(), 1.0)
MID = JointConfig(CoreConfig(4, 4, 4), 1.0)


@dataclass(frozen=True)
class Fig9Result:
    """Percentile error summaries (percent) for both estimators."""

    sgd_throughput: Dict[str, float]
    sgd_power: Dict[str, float]
    rbf_throughput: Dict[str, float]
    rbf_power: Dict[str, float]


def _rbf_errors(test_rows: np.ndarray, sample_idx: Sequence[int]) -> np.ndarray:
    errors: List[np.ndarray] = []
    for row in test_rows:
        surrogate = RBFSurrogate(log_space=True)
        surrogate.fit(sample_idx, row[list(sample_idx)])
        errors.append(relative_error_percent(surrogate.predict_all(), row))
    return np.concatenate(errors)


def _sgd_errors(
    train_rows: np.ndarray, test_rows: np.ndarray, params: SGDParams
) -> np.ndarray:
    matrix = ObservedMatrix(train_rows.shape[0] + test_rows.shape[0])
    for i in range(train_rows.shape[0]):
        matrix.set_known_row(i, train_rows[i])
    for t in range(test_rows.shape[0]):
        matrix.observe(train_rows.shape[0] + t, HI.index, test_rows[t, HI.index])
        matrix.observe(train_rows.shape[0] + t, LO.index, test_rows[t, LO.index])
    full = PQReconstructor(params).reconstruct(matrix)
    return relative_error_percent(full[train_rows.shape[0]:], test_rows)


def run_fig9(params: SGDParams = SGDParams()) -> Fig9Result:
    """Compare SGD (2 samples) with RBF (3 samples) on the test apps."""
    perf = PerformanceModel()
    power = PowerModel()
    train_names, test_names = train_test_split()
    train_profiles = [batch_profile(n) for n in train_names]
    test_profiles = [batch_profile(n) for n in test_names]

    sample_idx = [HI.index, LO.index, MID.index][:RBF_SAMPLES]
    bips_train = throughput_rows(train_profiles, perf)
    bips_test = throughput_rows(test_profiles, perf)
    power_train = power_rows(train_profiles, power)
    power_test = power_rows(test_profiles, power)

    return Fig9Result(
        sgd_throughput=percentile_summary(
            _sgd_errors(bips_train, bips_test, params)
        ),
        sgd_power=percentile_summary(
            _sgd_errors(power_train, power_test, params)
        ),
        rbf_throughput=percentile_summary(_rbf_errors(bips_test, sample_idx)),
        rbf_power=percentile_summary(_rbf_errors(power_test, sample_idx)),
    )


def render_fig9(result: Fig9Result) -> str:
    """Text rendering of the four error distributions."""
    headers = ["estimator/metric", "p5%", "p25%", "median%", "p75%", "p95%",
               "max|err|%"]
    rows = []
    for label, summary in (
        ("RBF throughput (3 samples)", result.rbf_throughput),
        ("RBF power (3 samples)", result.rbf_power),
        ("SGD throughput (2 samples)", result.sgd_throughput),
        ("SGD power (2 samples)", result.sgd_power),
    ):
        rows.append(
            (
                label,
                f"{summary['p5']:+.1f}",
                f"{summary['p25']:+.1f}",
                f"{summary['median']:+.1f}",
                f"{summary['p75']:+.1f}",
                f"{summary['p95']:+.1f}",
                f"{summary['max_abs']:.0f}",
            )
        )
    return format_table(headers, rows)
