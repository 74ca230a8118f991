"""Online prediction-accuracy auditing (the Fig. 4 quantity, live).

CuttleSys schedules on *reconstructed* performance/power/latency
matrices, so the quality of every decision is bounded by the quality of
the reconstruction (paper §V, Fig. 4: ~5-12 % error).  Because this
reproduction's simulator is analytical, the ground truth of every job
on all 108 joint configurations is computable at any instant — which
makes continuous auditing cheap:

* each quantum the :class:`AccuracyAuditor` scores the controller's
  :class:`~repro.core.controller.ReconstructionSnapshot` against the
  machine's oracle tables (``Machine.oracle_batch_tables`` /
  ``Machine.oracle_lc_latency_row``), folding per-app error medians
  into ``accuracy.*`` histograms of the session's
  :class:`~repro.telemetry.metrics.MetricsRegistry`;
* a fast-vs-slow EWMA :class:`DriftTracker` per metric flags when the
  reconstruction *degrades* — after job churn, injected faults, or
  phase jumps — rather than only reporting a run-level average;
* every QoS violation is *attributed*: the controller predicted the
  violating configuration safe (**misprediction**), a QoS-meeting
  configuration existed but was not chosen (**search_failure**), or no
  configuration at the allocated cores could have met QoS
  (**infeasible**).

Everything flows through the existing registry, so the JSONL/CSV/trace
exporters and ``python -m repro run --metrics`` pick the audit up
for free; ``python -m repro audit`` renders the focused report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.logs import get_logger

log = get_logger("telemetry.accuracy")

#: Metric keys the auditor tracks (histogram / drift-tracker names).
AUDIT_METRICS: Tuple[str, ...] = ("bips", "power", "lc_p99")

#: QoS-violation attribution kinds (counter suffixes).
#: ``deadline_degraded`` marks violations in quanta where the decision
#: budget forced the controller down its degradation ladder
#: (repro.core.deadline): the served assignment came from a cheaper
#: search rung, so the violation is priced to the deadline, not to the
#: reconstruction or the full search.
QOS_ATTRIBUTION_KINDS: Tuple[str, ...] = (
    "misprediction", "search_failure", "infeasible", "deadline_degraded",
)


#: EWMA smoothing of the fast (reactive) error tracker.
DRIFT_ALPHA = 0.4
#: The slow (reference) tracker's smoothing, as a fraction of
#: :data:`DRIFT_ALPHA` — it remembers the pre-drift error level.
DRIFT_SLOW_RATIO = 0.25
#: Drift flags when fast > ``DRIFT_FACTOR`` * max(slow, floor).
DRIFT_FACTOR = 2.5
#: Error floor (percent) below which drift is never flagged: a jump
#: from 0.5 % to 2 % error is noise, not degradation.
DRIFT_FLOOR_PCT = 5.0
#: Quanta before the trackers are trusted (cold-start errors are
#: legitimately high while the matrices fill in).
DRIFT_WARMUP = 3
#: Latency errors are scored only where the true p99 is at most this
#: multiple of QoS: far into saturation the queueing model explodes
#: and relative error stops measuring decision quality (same regime
#: guard as experiments/fig5_accuracy.py).
QOS_RELEVANCE_FACTOR = 3.0


class DriftTracker:
    """Fast-vs-slow EWMA degradation detector over an error series.

    The fast tracker follows the current error level; the slow tracker
    remembers where it used to be.  Degradation — the fast level
    pulling a ``factor`` above the slow one (with a floor so tiny
    absolute errors never flag) — is exactly the churn/fault signature
    the auditor wants: a *rise* relative to the run's own baseline, not
    an absolute threshold that would need per-mix tuning.
    """

    __slots__ = ("alpha", "slow_ratio", "factor", "floor", "warmup",
                 "fast", "slow", "samples")

    def __init__(
        self,
        alpha: float = DRIFT_ALPHA,
        slow_ratio: float = DRIFT_SLOW_RATIO,
        factor: float = DRIFT_FACTOR,
        floor: float = DRIFT_FLOOR_PCT,
        warmup: int = DRIFT_WARMUP,
    ) -> None:
        if not 0 < alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if factor <= 1:
            raise ValueError("factor must exceed 1")
        self.alpha = alpha
        self.slow_ratio = slow_ratio
        self.factor = factor
        self.floor = floor
        self.warmup = warmup
        self.fast = math.nan
        self.slow = math.nan
        self.samples = 0

    def update(self, value: float) -> bool:
        """Fold one sample in; True when the series is drifting."""
        value = float(value)
        if math.isnan(value):
            return False
        self.samples += 1
        if self.samples == 1:
            self.fast = value
            self.slow = value
        else:
            self.fast += self.alpha * (value - self.fast)
            self.slow += self.alpha * self.slow_ratio * (value - self.slow)
        if self.samples <= self.warmup:
            return False
        return self.fast > self.factor * max(self.slow, self.floor)


@dataclass(frozen=True)
class DriftEvent:
    """One rising-edge drift flag."""

    quantum: int
    metric: str
    fast_pct: float
    slow_pct: float


class AccuracyAuditor:
    """Scores each decision's reconstruction against the oracle.

    Construction registers the auditor on the telemetry session
    (``telemetry.auditor``); the experiment harness picks it up from
    there and calls :meth:`audit_decision` right after the policy
    decides (before the slice runs — batch phases advance in
    ``run_slice``, so the oracle must be snapshotted at decision time)
    and :meth:`audit_measurement` once the slice's measurements are in.

    Policies without a controller/reconstruction (the baselines, safe
    mode, cold start) are counted as unaudited quanta and skipped.
    """

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self._trackers: Dict[str, DriftTracker] = {
            metric: DriftTracker() for metric in AUDIT_METRICS
        }
        self._drifting: Dict[str, bool] = {m: False for m in AUDIT_METRICS}
        #: Rising-edge drift flags, in quantum order.
        self.drift_events: List[DriftEvent] = []
        telemetry.auditor = self

    # -- decision-side audit -------------------------------------------

    def audit_decision(
        self, policy, machine, quantum: int
    ) -> Optional[Dict[str, float]]:
        """Score the reconstruction behind this quantum's decision.

        Returns the per-metric median |error| %, or None when the
        policy exposes no reconstruction (baselines, safe mode).
        """
        metrics = self.telemetry.metrics
        controller = getattr(policy, "controller", None)
        snapshot = getattr(controller, "last_reconstruction", None)
        if snapshot is None:
            metrics.counter("accuracy.unaudited_quanta").inc()
            return None
        truth_bips, truth_power = machine.oracle_batch_tables()
        names = [profile.name for profile in machine.batch_profiles]
        medians = {
            "bips": self._audit_batch(
                "bips", snapshot.batch_bips, truth_bips, names
            ),
            "power": self._audit_batch(
                "power", snapshot.batch_power, truth_power, names
            ),
            "lc_p99": self._audit_latency(snapshot, machine),
        }
        for metric, median in medians.items():
            self._update_drift(metric, median, quantum)
        metrics.counter("accuracy.audited_quanta").inc()
        return medians

    def _audit_batch(
        self,
        metric: str,
        predicted: np.ndarray,
        truth: np.ndarray,
        names: Sequence[str],
    ) -> float:
        """Fold one batch matrix's errors in; returns the quantum median.

        Per app, the error is summarised as the median |signed error| %
        over all 108 joint configurations — the Fig. 4 quantity — so a
        few saturated configurations cannot dominate the histogram.
        """
        metrics = self.telemetry.metrics
        per_app: List[float] = []
        for j, name in enumerate(names):
            pred_row = predicted[j]
            truth_row = truth[j]
            ok = (
                np.isfinite(pred_row) & np.isfinite(truth_row)
                & (truth_row > 0) & (pred_row > 0)
            )
            if not ok.any():
                continue
            errors = (pred_row[ok] - truth_row[ok]) / truth_row[ok] * 100.0
            med_abs = float(np.median(np.abs(errors)))
            med_signed = float(np.median(errors))
            per_app.append(med_abs)
            metrics.histogram(f"accuracy.{metric}_err_pct").observe(med_abs)
            metrics.histogram(
                f"accuracy.{metric}_signed_err_pct"
            ).observe(med_signed)
            metrics.histogram(
                f"accuracy.app.{name}.{metric}_err_pct"
            ).observe(med_abs)
        if not per_app:
            return math.nan
        return float(np.median(per_app))

    def _audit_latency(self, snapshot, machine) -> float:
        """Score the reconstructed LC latency rows against the oracle.

        Errors are restricted to configurations whose *true* p99 stays
        within :data:`QOS_RELEVANCE_FACTOR` x QoS: scoring against the
        regime the prediction was made for (the snapshot's load bucket
        and core count) isolates reconstruction error from the
        one-quantum load-forecast lag the harness models.
        """
        metrics = self.telemetry.metrics
        per_service: List[float] = []
        for lc in snapshot.lc:
            if lc.latency_row is None or lc.cores <= 0:
                continue
            service = machine.lc_services[lc.service_idx]
            truth = machine.oracle_lc_latency_row(
                lc.bucket, lc.cores, lc.service_idx
            )
            ceiling = service.qos_latency_s * QOS_RELEVANCE_FACTOR
            pred = np.asarray(lc.latency_row, dtype=float)
            ok = (
                np.isfinite(truth) & np.isfinite(pred)
                & (truth > 0) & (pred > 0) & (truth <= ceiling)
            )
            if not ok.any():
                continue
            errors = (pred[ok] - truth[ok]) / truth[ok] * 100.0
            med_abs = float(np.median(np.abs(errors)))
            per_service.append(med_abs)
            metrics.histogram("accuracy.lc_p99_err_pct").observe(med_abs)
            metrics.histogram("accuracy.lc_p99_signed_err_pct").observe(
                float(np.median(errors))
            )
        if not per_service:
            return math.nan
        return float(np.median(per_service))

    def _update_drift(self, metric: str, value: float, quantum: int) -> None:
        if math.isnan(value):
            return
        tracker = self._trackers[metric]
        drifting = tracker.update(value)
        metrics = self.telemetry.metrics
        metrics.gauge(f"accuracy.drift.{metric}_fast_pct").set(tracker.fast)
        if drifting and not self._drifting[metric]:
            metrics.counter("accuracy.drift.flags").inc()
            self.telemetry.instant(
                "accuracy_drift", category="accuracy", metric=metric,
                quantum=quantum,
                fast_pct=round(tracker.fast, 2),
                slow_pct=round(tracker.slow, 2),
            )
            self.drift_events.append(DriftEvent(
                quantum=quantum, metric=metric,
                fast_pct=tracker.fast, slow_pct=tracker.slow,
            ))
            log.warning(
                "quantum %d: %s reconstruction error drifting "
                "(EWMA %.1f %% vs baseline %.1f %%)",
                quantum, metric, tracker.fast, tracker.slow,
            )
        self._drifting[metric] = drifting

    @property
    def drifting_metrics(self) -> Tuple[str, ...]:
        """Metrics currently flagged as drifting."""
        return tuple(m for m in AUDIT_METRICS if self._drifting[m])

    # -- measurement-side audit ----------------------------------------

    def audit_measurement(
        self,
        machine,
        measurement,
        quantum: int,
        qos_s: float,
        qos_extra_s: Sequence[float] = (),
        policy=None,
    ) -> None:
        """Attribute this slice's QoS violations (if any).

        The oracle row at the *measured* load and the allocated core
        count decides feasibility: tail latency is analytic in (config,
        load, cores), so it needs no decision-time snapshot.
        """
        assignment = measurement.assignment
        prediction = (
            getattr(policy, "last_prediction", None)
            if policy is not None else None
        )
        deadline_degraded = bool(
            getattr(
                getattr(policy, "controller", None),
                "deadline_degraded_quantum",
                False,
            )
        )
        blocks = [(
            0, float(measurement.lc_p99), qos_s,
            assignment.lc_cores, float(measurement.lc_load),
        )]
        for k, alloc in enumerate(assignment.extra_lc):
            qos = qos_extra_s[k] if k < len(qos_extra_s) else math.inf
            p99 = (
                float(measurement.extra_lc_p99[k])
                if k < len(measurement.extra_lc_p99) else 0.0
            )
            lc_load = (
                float(measurement.extra_lc_loads[k])
                if k < len(measurement.extra_lc_loads) else 0.0
            )
            blocks.append((k + 1, p99, qos, alloc.cores, lc_load))
        metrics = self.telemetry.metrics
        for position, (service_idx, p99, qos, cores, lc_load) in enumerate(
            blocks
        ):
            if cores <= 0 or not math.isfinite(p99) or p99 <= qos:
                continue
            truth = machine.oracle_lc_latency_row(lc_load, cores, service_idx)
            finite = truth[np.isfinite(truth)]
            if finite.size and float(finite.min()) > qos:
                kind = "infeasible"
            elif deadline_degraded:
                # The budget ladder served a cheaper rung this quantum;
                # a feasible configuration existed but the full search
                # never ran, so neither misprediction nor search
                # failure describes the miss.
                kind = "deadline_degraded"
            else:
                predicted = (
                    float(prediction.p99_s[position])
                    if prediction is not None
                    and position < len(prediction.p99_s)
                    else math.nan
                )
                if math.isfinite(predicted) and predicted <= qos:
                    kind = "misprediction"
                else:
                    kind = "search_failure"
            metrics.counter(f"accuracy.qos_attrib.{kind}").inc()
            self.telemetry.instant(
                "qos_attribution", category="accuracy",
                quantum=quantum, service=service_idx, kind=kind,
                p99_ms=round(p99 * 1e3, 3),
            )
            log.info(
                "quantum %d: service %d QoS violation attributed to %s",
                quantum, service_idx, kind,
            )


def median_error_pct(telemetry, metric: str) -> float:
    """Median |reconstruction error| % of one audited metric (or NaN)."""
    hist = telemetry.metrics.histograms.get(f"accuracy.{metric}_err_pct")
    if hist is None:
        return math.nan
    return hist.percentile(50)


def render_accuracy_report(telemetry) -> str:
    """Human-readable audit summary (the ``repro audit`` output)."""
    metrics = telemetry.metrics
    counters = metrics.counters
    audited = counters.get("accuracy.audited_quanta")
    skipped = counters.get("accuracy.unaudited_quanta")
    lines: List[str] = ["prediction-accuracy audit", "=" * 25, ""]
    lines.append(
        f"quanta audited: {audited.value if audited else 0}"
        f" (skipped: {skipped.value if skipped else 0})"
    )
    lines.append("")
    lines.append(
        "reconstruction error (median |signed| % per app/service "
        "per quantum):"
    )
    lines.append(f"  {'metric':<10} {'count':>5} {'p50':>8} {'p95':>8}")
    for metric in AUDIT_METRICS:
        hist = metrics.histograms.get(f"accuracy.{metric}_err_pct")
        if hist is None or not hist.count:
            lines.append(f"  {metric:<10} {0:>5} {'-':>8} {'-':>8}")
            continue
        summary = hist.summary()
        lines.append(
            f"  {metric:<10} {summary['count']:>5} "
            f"{summary['p50']:>7.2f}% {summary['p95']:>7.2f}%"
        )
    flags = counters.get("accuracy.drift.flags")
    lines.append("")
    lines.append(f"drift flags: {flags.value if flags else 0}")
    auditor = getattr(telemetry, "auditor", None)
    if auditor is not None:
        for event in auditor.drift_events:
            lines.append(
                f"  quantum {event.quantum}: {event.metric} error EWMA "
                f"{event.fast_pct:.1f} % vs baseline {event.slow_pct:.1f} %"
            )
    attributed = [
        (kind, counters[f"accuracy.qos_attrib.{kind}"].value)
        for kind in QOS_ATTRIBUTION_KINDS
        if f"accuracy.qos_attrib.{kind}" in counters
    ]
    lines.append("")
    if attributed:
        lines.append("qos violations attributed:")
        for kind, value in attributed:
            lines.append(f"  {kind:<16} {value}")
    else:
        lines.append("qos violations attributed: none")
    return "\n".join(lines)
