"""Self-tests of the benchmark's own helpers.

Run from the checkout root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from calibrate import (  # noqa: E402
    REFERENCE_MS,
    Gauge,
    scale_each,
    speed_factor,
)
from inputs import WORKLOADS, make_inputs  # noqa: E402
from layers import LayerTracer, mgk_key  # noqa: E402
from measure import (  # noqa: E402
    all_finite,
    canonical,
    digest,
    min_samples_for,
    percentile,
    tail_percentile,
)


@pytest.mark.parametrize("n, expected", [
    (19, 0.0), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_min_samples_for_tail():
    assert min_samples_for(90.0) == 100
    assert min_samples_for(99.0) == 1000


def test_percentile_interpolates_like_numpy():
    import numpy as np

    rng = random.Random(3)
    values = [rng.expovariate(1.0) for _ in range(101)]
    for q in (0.0, 50.0, 90.0, 100.0):
        assert percentile(values, q) == pytest.approx(
            float(np.percentile(values, q)))
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def test_self_time_subtracts_mgk_nested_in_decide_and_ingest():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)

    def latency_rows():
        clock.advance(5.0)

    rows = tracer.wrap("mgk.latency_rows", latency_rows)

    def decide():
        clock.advance(2.0)
        rows()
        clock.advance(1.0)

    def ingest():
        clock.advance(1.0)
        rows()
        clock.advance(3.0)

    decide_w = tracer.wrap("controller.decide", decide)
    ingest_w = tracer.wrap("controller.ingest_measurement", ingest)

    def step():
        clock.advance(1.0)
        decide_w()
        ingest_w()
        clock.advance(1.0)

    tracer.wrap("harness.step", step)()
    spans = {name: (s.calls, s.total_s, s.self_s)
             for name, s in tracer.spans.items()}
    assert spans == {
        "mgk.latency_rows": (2, 10.0, 10.0),
        "controller.decide": (1, 8.0, 3.0),
        "controller.ingest_measurement": (1, 9.0, 4.0),
        "harness.step": (1, 19.0, 2.0),
    }
    assert tracer.root_s == 19.0
    assert tracer.self_sum_gap_s() == 0.0


def test_after_hook_runs_outside_the_span():
    clock = FakeClock()
    tracer = LayerTracer(clock=clock)
    seen = []

    def after(args, kwargs, result):
        clock.advance(4.0)
        seen.append((args, kwargs, result))

    inner = tracer.wrap("dds.search", lambda x, y=0: x + y, after)
    outer = tracer.wrap("controller.decide", lambda: inner(1, y=2))
    assert outer() == 3
    assert seen == [((1,), {"y": 2}, 3)]
    assert tracer.spans["dds.search"].total_s == 0.0
    assert tracer.spans["controller.decide"].self_s == 4.0


def test_span_closes_when_the_call_raises():
    tracer = LayerTracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("machine.profile", boom)()
    assert tracer.spans["machine.profile"].calls == 1
    assert tracer.wrap("machine.run_slice", lambda: 1)() == 1
    assert tracer.self_sum_gap_s() == 0.0


def test_mgk_key_separates_exclusions():
    class Service:
        def __init__(self, name):
            self.name = name

    services = [Service("xapian"), Service("silo")]
    a = mgk_key(services, [0.6], 8, ("xapian", 0.6))
    assert a == mgk_key(services, (0.6,), 8, ("xapian", 0.6))
    assert a != mgk_key(services, [0.6], 8, ("silo", 0.6))
    assert a != mgk_key(services, [0.6], 9, ("xapian", 0.6))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_seed_deterministic(workload):
    first = make_inputs(workload, 11)
    assert json.dumps(first) == json.dumps(make_inputs(workload, 11))
    assert first != make_inputs(workload, 12)


def shape(value):
    """The input with every number and name blanked out."""
    if isinstance(value, dict):
        return {k: shape(v) for k, v in value.items()
                if k not in ("name", "tenant")}
    if isinstance(value, list):
        return [shape(v) for v in value]
    return type(value).__name__


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seeds_change_values_not_the_amount_of_work(workload):
    assert shape(make_inputs(workload, 1)) == shape(make_inputs(workload, 2))


def test_churn_levels_stay_inside_their_bucket():
    from repro.core.controller import nearest_load_bucket

    from inputs import CHURN_BUCKETS, CHURN_STEP_QUANTA

    for seed in range(5):
        for session in make_inputs("churn", seed)["sessions"]:
            loads = session["loads"]
            buckets = [nearest_load_bucket(v) for v in loads]
            assert buckets == [b for b in CHURN_BUCKETS
                               for _ in range(CHURN_STEP_QUANTA)]


def test_digest_and_finiteness_checks():
    records = [canonical({"b": 1.5, "a": [1, 2]}), canonical({"q": 0})]
    assert records[0] == b'{"a":[1,2],"b":1.5}'
    assert digest(records) != digest(records[::-1])
    assert digest([b"ab", b"c"]) != digest([b"a", b"bc"])
    assert all_finite({"m": [1.0, {"p": 2.0}]})
    assert not all_finite({"m": [1.0, {"p": math.nan}]})
    assert not all_finite([math.inf])


def test_scaling_cancels_a_host_that_changes_speed():
    # The host runs at nominal speed, then 1.5x slower, then at nominal
    # speed again; a quantum costs 16 reference calls throughout.
    slowdown = [1.0] * 20 + [1.5] * 20 + [1.0] * 20
    reference = [REFERENCE_MS * k for k in slowdown]
    quanta = [16 * r for r in reference]
    # A window median follows a clean step exactly, even for quanta
    # whose window straddles it.
    scaled = scale_each(quanta, reference, half_window=2)
    assert scaled == pytest.approx([16 * REFERENCE_MS] * len(quanta))
    # One outlying reference sample moves nothing.
    reference[30] *= 3
    assert scale_each(quanta, reference, half_window=2) == pytest.approx(
        scaled)
    assert speed_factor([REFERENCE_MS * 2] * 3) == 0.5


def test_scaling_needs_one_reference_per_value():
    with pytest.raises(ValueError):
        scale_each([1.0, 2.0], [REFERENCE_MS])


def test_gauge_samples_and_checks_the_reference():
    clock = FakeClock()
    gauge = Gauge(clock=clock)
    gauge.sample()
    gauge.sample()
    assert gauge.samples_ms == [0.0, 0.0]
    assert gauge.mismatches == 0
    assert gauge.checksum is not None and math.isfinite(gauge.checksum)
