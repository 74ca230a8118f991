"""Metrics registry: counters, gauges, histograms, decision records.

The registry is the numeric half of the telemetry subsystem (the
tracer is the temporal half).  It holds:

* **counters** — monotonically increasing event tallies (QoS
  violations, core reclamations, emergency core-offs from the §VI-B
  power fallback, reconfigurations, job churn);
* **gauges** — last-written values (current load, power budget);
* **histograms** — streaming samples summarised at p50/p95/p99
  (per-phase latencies, prediction errors);
* **decision records** — one per quantum, pairing the controller's
  *predicted* BIPS/p99/power against the machine's *measured* values,
  so the online reconstruction error (the Fig. 5 quantity) is tracked
  continuously during any run rather than only in the offline
  accuracy experiment.

Prediction errors are signed percentages ``(predicted - measured) /
measured * 100`` — positive means the reconstruction over-estimated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple


def signed_error_percent(predicted: float, measured: float) -> float:
    """Signed relative error in percent; NaN when not comparable."""
    if measured <= 0 or predicted <= 0:
        return math.nan
    return (predicted - measured) / measured * 100.0


class Counter:
    """A monotonically increasing tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only count up")
        self.value += n


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Streaming samples with percentile summaries.

    Stores every sample (runs are tens to hundreds of quanta, so
    exactness is affordable); NaN samples are dropped at observation.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isnan(value):
            self.samples.append(value)

    @property
    def count(self) -> int:
        return len(self.samples)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile; NaN when empty."""
        if not self.samples:
            return math.nan
        data = sorted(self.samples)
        if len(data) == 1:
            return data[0]
        pos = (len(data) - 1) * q / 100.0
        lo = int(math.floor(pos))
        hi = min(lo + 1, len(data) - 1)
        frac = pos - lo
        return data[lo] * (1.0 - frac) + data[hi] * frac

    def summary(self) -> Dict[str, float]:
        """count/mean/min/max plus the p50/p95/p99 trio."""
        if not self.samples:
            return {
                "count": 0, "mean": math.nan, "min": math.nan,
                "max": math.nan, "p50": math.nan, "p95": math.nan,
                "p99": math.nan,
            }
        return {
            "count": len(self.samples),
            "mean": sum(self.samples) / len(self.samples),
            "min": min(self.samples),
            "max": max(self.samples),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


@dataclass(frozen=True)
class DecisionRecord:
    """Predicted vs measured outcomes of one decision quantum.

    Per-batch-job arrays are aligned with the machine's batch slots;
    gated or unpredicted entries are NaN.  Latency/power fields are
    NaN when the controller had no prediction (e.g. the cold-start
    conservative configuration).
    """

    quantum: int
    #: Predicted / measured per-batch-job BIPS (time-share applied).
    predicted_bips: Tuple[float, ...]
    measured_bips: Tuple[float, ...]
    #: Predicted / measured p99 per hosted LC service, primary first.
    predicted_p99_s: Tuple[float, ...]
    measured_p99_s: Tuple[float, ...]
    #: Predicted / measured total chip power.
    predicted_power_w: float
    measured_power_w: float

    def bips_errors_percent(self) -> List[float]:
        """Signed per-job throughput prediction errors (NaNs dropped)."""
        errors = [
            signed_error_percent(p, m)
            for p, m in zip(self.predicted_bips, self.measured_bips)
        ]
        return [e for e in errors if not math.isnan(e)]

    def p99_errors_percent(self) -> List[float]:
        """Signed per-service tail-latency prediction errors."""
        errors = [
            signed_error_percent(p, m)
            for p, m in zip(self.predicted_p99_s, self.measured_p99_s)
        ]
        return [e for e in errors if not math.isnan(e)]

    def power_error_percent(self) -> float:
        """Signed total-power prediction error (NaN if unavailable)."""
        return signed_error_percent(
            self.predicted_power_w, self.measured_power_w
        )


class MetricsRegistry:
    """Named counters/gauges/histograms plus the decision-record log."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.decisions: List[DecisionRecord] = []

    # -- get-or-create accessors ---------------------------------------

    def counter(self, name: str) -> Counter:
        if name not in self.counters:
            self.counters[name] = Counter(name)
        return self.counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self.gauges:
            self.gauges[name] = Gauge(name)
        return self.gauges[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self.histograms:
            self.histograms[name] = Histogram(name)
        return self.histograms[name]

    # -- decision accounting -------------------------------------------

    def record_decision(self, record: DecisionRecord) -> None:
        """Log one quantum's record and fold it into error histograms.

        Error histograms hold |signed error| so p50/p95/p99 read as
        "the error magnitude x % of predictions stay under"; the
        signed values remain available per record.
        """
        self.decisions.append(record)
        for err in record.bips_errors_percent():
            self.histogram("prediction_error.bips_pct").observe(abs(err))
            self.histogram("prediction_error.bips_signed_pct").observe(err)
        for err in record.p99_errors_percent():
            self.histogram("prediction_error.p99_pct").observe(abs(err))
            self.histogram("prediction_error.p99_signed_pct").observe(err)
        power_err = record.power_error_percent()
        if not math.isnan(power_err):
            self.histogram("prediction_error.power_pct").observe(
                abs(power_err)
            )
            self.histogram("prediction_error.power_signed_pct").observe(
                power_err
            )

    # -- export helpers ------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Plain-data snapshot (JSON-serialisable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
            "n_decisions": len(self.decisions),
        }
