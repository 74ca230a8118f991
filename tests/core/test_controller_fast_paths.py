"""Differential tests of the controller's array-at-a-time paths.

Observation ingest and sanitisation, and the LC scan's two argmins, run
as a few numpy calls per quantum.  Each is checked against the
per-entry loop it replaced, kept here verbatim as the oracle (with
``self`` renamed ``controller``): the matrices, the exception, the
counters and the choices must be the same.
"""

import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import (
    ControllerConfig,
    ResourceController,
    nearest_load_bucket,
)
from repro.core.dds import DDSParams
from repro.core.matrices import ObservedMatrix
from repro.core.runtime import CuttleSysPolicy
from repro.experiments.multi_service import build_two_service_machine
from repro.sim.coreconfig import (
    CACHE_ALLOCS,
    N_JOINT_CONFIGS,
    CoreConfig,
    JointConfig,
)
from repro.sim.machine import Machine, MachineParams
from repro.telemetry import Telemetry
from repro.workloads.batch import batch_profile, train_test_split
from repro.workloads.latency_critical import lc_service

FAST = ControllerConfig(
    dds=DDSParams(initial_random_points=15, max_iter=6,
                  points_per_iteration=3, n_threads=4),
    seed=3,
)


# ----------------------------------------------------------------------
# The per-entry ingest, verbatim.
# ----------------------------------------------------------------------


def reference_population_stats(matrix, col):
    known = matrix.values[matrix.known_rows, col]
    if known.size < 4:
        return None
    med = float(np.median(known))
    mad_sigma = float(np.median(np.abs(known - med))) * 1.4826
    return med, max(mad_sigma, abs(med) * 0.5, 1e-12)


def reference_sample_ok(controller, matrix, col, value, mad_check=True):
    if not np.isfinite(value) or value < 0:
        return False
    if not mad_check:
        return True
    population = reference_population_stats(matrix, col)
    if population is None:
        return True
    med, scale = population
    return abs(value - med) <= controller.config.outlier_mad_threshold * scale


def reference_observe(controller, matrix, row, col, value, mad_check=True):
    if controller.config.hardened and not reference_sample_ok(
        controller, matrix, col, value, mad_check=mad_check
    ):
        controller._rejections_this_quantum += 1
        controller._count("faults.detected.bad_sample")
        return False
    matrix.observe(row, col, value)
    return True


def reference_ingest_profiling(controller, sample):
    power_ok = True
    if controller.config.hardened and controller._detect_stuck_sensor(sample):
        power_ok = False
        controller._rejections_this_quantum += 1
        controller._count("faults.detected.stuck_sensor")
    for j in range(controller.n_batch):
        row = controller._batch_row(j)
        reference_observe(controller, controller._bips_matrix, row,
                          sample.hi_joint_index, sample.batch_bips_hi[j])
        reference_observe(controller, controller._bips_matrix, row,
                          sample.lo_joint_index, sample.batch_bips_lo[j])
        if power_ok:
            reference_observe(controller, controller._power_matrix, row,
                              sample.hi_joint_index,
                              sample.batch_power_hi[j])
            reference_observe(controller, controller._power_matrix, row,
                              sample.lo_joint_index,
                              sample.batch_power_lo[j])
    if power_ok:
        reference_observe(controller, controller._power_matrix,
                          controller._lc_power_row(0),
                          sample.hi_joint_index, sample.lc_power_hi)
        reference_observe(controller, controller._power_matrix,
                          controller._lc_power_row(0),
                          sample.lo_joint_index, sample.lc_power_lo)
        for idx, (hi, lo) in enumerate(
            zip(sample.extra_lc_power_hi, sample.extra_lc_power_lo),
            start=1,
        ):
            reference_observe(
                controller, controller._power_matrix,
                controller._lc_power_row(idx), sample.hi_joint_index, hi,
            )
            reference_observe(
                controller, controller._power_matrix,
                controller._lc_power_row(idx), sample.lo_joint_index, lo,
            )


def reference_ingest_measurement(controller, measurement):
    assignment = measurement.assignment
    if controller.config.hardened:
        controller._detect_failed_reconfigs(assignment)
        if controller._measurement_clean(measurement):
            controller.last_good_assignment = assignment
    batch_cores = (
        controller.machine.params.n_cores - assignment.total_lc_cores
    )
    active = assignment.active_batch_indices
    share = min(1.0, batch_cores / len(active)) if active else 0.0
    for j in active:
        joint = assignment.batch_configs[j]
        if share <= 0:
            continue
        row = controller._batch_row(j)
        bips = measurement.batch_bips[j] / share
        power = measurement.batch_power[j] / share
        if bips > 0:
            reference_observe(controller, controller._bips_matrix, row,
                              joint.index, bips)
        if power > 0:
            reference_observe(controller, controller._power_matrix, row,
                              joint.index, power)

    lc_blocks = zip(
        assignment.lc_allocations(),
        (measurement.lc_load, *measurement.extra_lc_loads),
        (measurement.lc_p99, *measurement.extra_lc_p99),
        (measurement.lc_core_power, *measurement.extra_lc_core_power),
    )
    for idx, ((cores, config), lc_load, p99, core_power) in enumerate(
        lc_blocks
    ):
        if config is None or p99 <= 0:
            continue
        bucket = nearest_load_bucket(lc_load)
        matrix = controller._latency_matrix(bucket, cores, idx)
        if reference_observe(controller, matrix, matrix.n_rows - 1,
                             config.index, p99, mad_check=False):
            key = (idx, bucket, cores)
            controller._latency_evidence.setdefault(key, set()).add(
                config.index
            )
        if core_power > 0:
            reference_observe(
                controller, controller._power_matrix,
                controller._lc_power_row(idx), config.index, core_power,
            )


# ----------------------------------------------------------------------
# Controllers with one and two LC services, mid-run.
# ----------------------------------------------------------------------


def one_service_machine():
    _, test_names = train_test_split()
    return Machine(
        lc_service=lc_service("xapian"),
        batch_profiles=[batch_profile(n) for n in (test_names * 2)[:16]],
        params=MachineParams(),
        seed=11,
    )


def warmed(machine, hardened, loads):
    """A controller after two quanta, with a fresh sample and slice."""
    config = dataclasses.replace(FAST, hardened=hardened)
    controller = CuttleSysPolicy.for_machine(
        machine, seed=3, config=config
    ).controller
    controller.attach_telemetry(Telemetry())
    budget = machine.reference_max_power() * 0.8
    extra = loads[1:]
    measurement = None
    for _ in range(2):
        sample = machine.profile(
            loads[0], lc_cores=controller.lc_cores, extra_loads=extra,
            extra_lc_cores=controller.lc_cores_by_service[1:],
        )
        controller.ingest_profiling(sample)
        if measurement is not None:
            controller.ingest_measurement(measurement)
        assignment = controller.decide(loads[0], budget, extra_loads=extra)
        measurement = machine.run_slice(assignment, loads[0], extra)
    return controller, sample, measurement


@pytest.fixture(scope="module")
def warmed_controllers():
    return {
        (services, hardened): warmed(
            one_service_machine() if services == 1
            else build_two_service_machine(seed=1),
            hardened,
            (0.55,) if services == 1 else (0.45, 0.35),
        )
        for services in (1, 2)
        for hardened in (True, False)
    }


#: What a corrupted reading becomes: a multiple of the true reading
#: (far outliers included) or a fixed value.
CORRUPTIONS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -1.0, 0.0]),
    st.sampled_from([1e-3, 0.5, 2.0, 50.0, 1e4]).map(lambda k: ("x", k)),
)


def corrupt(value, how):
    return value * how[1] if isinstance(how, tuple) else how


def corrupted(record, fields, edits):
    """``record`` with ``edits`` — (field, index, corruption) — applied."""
    changes = {}
    for field, index, how in edits:
        name = fields[field % len(fields)]
        current = changes.get(name, getattr(record, name))
        if isinstance(current, np.ndarray):
            current = current.copy()
            i = index % current.size
            current[i] = corrupt(current[i], how)
        elif isinstance(current, tuple):
            if not current:
                continue
            i = index % len(current)
            current = (*current[:i], corrupt(current[i], how),
                       *current[i + 1:])
        else:
            current = corrupt(current, how)
        changes[name] = current
    return dataclasses.replace(record, **changes)


EDITS = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 31), CORRUPTIONS),
    max_size=4,
)


def outcome(controller, ingest, record):
    """Run ``ingest``; return the error and everything it may change."""
    try:
        ingest(controller, record)
        error = None
    except ValueError as exc:
        error = str(exc)
    matrices = {
        "bips": controller._bips_matrix,
        "power": controller._power_matrix,
        **{key: m for key, m in controller._latency_matrices.items()},
    }
    return {
        "error": error,
        "matrices": {
            key: (m.values.tobytes(), m.mask.tobytes(), m.age.tobytes(),
                  m.version)
            for key, m in matrices.items()
        },
        "counters": controller.telemetry.metrics.as_dict()["counters"],
        "rejections": controller._rejections_this_quantum,
        "evidence": dict(controller._latency_evidence),
        "budget": (controller.budget.total_spent,
                   dict(controller.budget.spent_by_phase)),
        "last_good": controller.last_good_assignment,
    }


def check_same(base, ingest, reference, record):
    want = outcome(copy.deepcopy(base), reference, record)
    got = outcome(copy.deepcopy(base), ingest, record)
    assert got == want


def test_mad_band_includes_its_edge(warmed_controllers):
    # Constant known rows: median 4, MAD 0, so the scale is half the
    # median and the band's edge is exactly representable.
    controller = warmed_controllers[(1, True)][0]
    matrix = ObservedMatrix(6, 3)
    for row in range(5):
        matrix.set_known_row(row, np.full(3, 4.0))
    edge = 4.0 + controller.config.outlier_mad_threshold * 2.0
    values = np.array([edge, np.nextafter(edge, np.inf), 4.0])
    ok = controller._credible((matrix,), np.zeros(3, int),
                              np.array([0, 1, 2]), values)
    assert ok.tolist() == [
        reference_sample_ok(controller, matrix, col, value)
        for col, value in enumerate(values)
    ] == [True, False, True]


PROFILE_FIELDS = (
    "batch_bips_hi", "batch_bips_lo", "batch_power_hi", "batch_power_lo",
    "lc_power_hi", "lc_power_lo", "extra_lc_power_hi", "extra_lc_power_lo",
)
MEASUREMENT_FIELDS = (
    "batch_bips", "batch_power", "batch_bips", "batch_power",
    "lc_p99", "lc_core_power", "extra_lc_p99", "extra_lc_core_power",
)


class TestBatchedIngest:
    @given(st.sampled_from([1, 2]), st.booleans(), EDITS, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_profiling_matches_per_entry_loop(
        self, warmed_controllers, services, hardened, edits, repeat
    ):
        base, sample, _ = warmed_controllers[(services, hardened)]
        if repeat:
            # The second of two identical samples trips the stuck-sensor
            # check, which skips every power reading.
            base = copy.deepcopy(base)
            base._detect_stuck_sensor(sample)
            sample = dataclasses.replace(sample)
        record = corrupted(sample, PROFILE_FIELDS, edits)
        check_same(base, ResourceController.ingest_profiling,
                   reference_ingest_profiling, record)

    @given(st.sampled_from([1, 2]), st.booleans(), EDITS,
           st.lists(st.integers(0, 15), max_size=3))
    @settings(max_examples=120, deadline=None)
    def test_measurement_matches_per_entry_loop(
        self, warmed_controllers, services, hardened, edits, gated
    ):
        base, _, measurement = warmed_controllers[(services, hardened)]
        assignment = measurement.assignment
        configs = list(assignment.batch_configs)
        for j in gated:
            configs[j % len(configs)] = None
        record = corrupted(
            dataclasses.replace(
                measurement,
                assignment=dataclasses.replace(
                    assignment, batch_configs=tuple(configs)
                ),
            ),
            MEASUREMENT_FIELDS, edits,
        )
        check_same(base, ResourceController.ingest_measurement,
                   reference_ingest_measurement, record)

    @pytest.mark.parametrize("services", [1, 2])
    def test_non_finite_mid_batch_leaves_the_same_partial_state(
        self, warmed_controllers, services
    ):
        base, sample, _ = warmed_controllers[(services, False)]
        for field in ("batch_bips_lo", "batch_power_hi", "lc_power_lo"):
            value = getattr(sample, field)
            if isinstance(value, np.ndarray):
                value = value.copy()
                value[5] = math.nan
            else:
                value = math.inf
            record = dataclasses.replace(sample, **{field: value})
            want = outcome(copy.deepcopy(base), reference_ingest_profiling,
                           record)
            assert want["error"] is not None
            got = outcome(copy.deepcopy(base),
                          ResourceController.ingest_profiling, record)
            assert got == want

    def test_p99_then_power_order_of_one_service(self, warmed_controllers):
        # An infinite core power after an accepted p99: the p99 and its
        # evidence stay, then the power matrix raises.
        base, _, measurement = warmed_controllers[(2, False)]
        record = dataclasses.replace(measurement, lc_core_power=math.inf)
        want = outcome(copy.deepcopy(base), reference_ingest_measurement,
                       record)
        assert want["error"] is not None
        got = outcome(copy.deepcopy(base),
                      ResourceController.ingest_measurement, record)
        assert got == want


# ----------------------------------------------------------------------
# The LC scan's argmins, against their loops (verbatim).
# ----------------------------------------------------------------------


def reference_best_config(latency, lc_power_row, target):
    best = None
    best_key = (np.inf, np.inf)
    for index in range(N_JOINT_CONFIGS):
        if latency[index] > target:
            continue
        joint = JointConfig.from_index(index)
        key = (lc_power_row[index], joint.cache_ways)
        if key < best_key:
            best = joint
            best_key = key
    return best


def reference_safest_downgrade(latency, lc_power_row, qos):
    wide_power = lc_power_row[
        JointConfig(CoreConfig.widest(), CACHE_ALLOCS[-1]).index
    ]
    best = None
    best_key = (np.inf, np.inf)
    for index in range(N_JOINT_CONFIGS):
        if latency[index] > qos or lc_power_row[index] >= wide_power:
            continue
        key = (latency[index], lc_power_row[index])
        if key < best_key:
            best = JointConfig.from_index(index)
            best_key = key
    return best


def random_table(rng):
    """A latency row with ties and NaNs, and a power row with ties."""
    latency = rng.choice(rng.uniform(0.5, 2.0, size=rng.integers(2, 30)),
                         size=N_JOINT_CONFIGS)
    latency[rng.random(N_JOINT_CONFIGS) < rng.uniform(0.0, 0.3)] = np.nan
    if rng.random() < 0.1:
        latency[:] = np.nan
    power = rng.choice(rng.uniform(1.0, 5.0, size=rng.integers(1, 20)),
                       size=N_JOINT_CONFIGS)
    if rng.random() < 0.2:
        power[:] = power[0]
    return latency, power


class TestLCArgmins:
    def test_least_power_matches_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(3000):
            latency, power = random_table(rng)
            target = float(rng.uniform(0.3, 2.2))
            assert ResourceController._least_power(
                latency, power, target
            ) == reference_best_config(latency, power, target)

    def test_safest_downgrade_matches_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(3000):
            latency, power = random_table(rng)
            qos = float(rng.uniform(0.3, 2.2))
            assert ResourceController._safest_downgrade(
                latency, power, qos
            ) == reference_safest_downgrade(latency, power, qos)

    def test_nan_latency_meets_the_guarded_bar(self):
        latency = np.full(N_JOINT_CONFIGS, np.nan)
        power = np.linspace(5.0, 1.0, N_JOINT_CONFIGS)
        assert ResourceController._least_power(latency, power, 1.0) == (
            JointConfig.from_index(N_JOINT_CONFIGS - 1)
        )
        assert ResourceController._safest_downgrade(
            latency, power, 1.0
        ) is None
