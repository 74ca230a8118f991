"""The CuttleSys Resource Controller (paper §IV-B, §V, §VI).

Per decision quantum the controller:

1. folds the two 1 ms profiling samples and the previous slice's
   steady-state measurements into its sparse metric matrices,
2. runs three PQ-reconstructions (throughput, tail latency, power) to
   estimate every job on all 108 joint configurations,
3. scans the reconstructed latency row for the latency-critical
   service: lowest cache allocation, then the core configuration with
   the least predicted power that meets QoS (§VI-A); if nothing meets
   QoS it reclaims one core from the batch jobs per timeslice, and
   yields one back when QoS is met with slack,
4. searches the batch jobs' joint-configuration space with parallel DDS
   (or the GA ablation) under soft power/cache penalties, and
5. applies the hard fallback: if the power budget is busted even so,
   gates cores in descending predicted power (§VI-B).

The controller never reads ground truth — only profiling samples and
end-of-slice measurements, like the real system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry

from repro.core.dds import DDSParams, DDSSearch
from repro.core.deadline import (
    DecisionBudget,
    dds_search_cost,
    reduced_dds_params,
)
from repro.core.ga import GAParams, GeneticSearch
from repro.logs import get_logger
from repro.telemetry.provenance import (
    ProvenanceRecorder,
    candidate_provenance,
    classify_candidates,
)
from repro.telemetry.tracer import NullTracer, Tracer, tracer_of
from repro.core.matrices import (
    MATRIX,
    ObservedMatrix,
    latency_training_rows,
    power_rows,
    throughput_rows,
)
from repro.core.objective import SystemObjective
from repro.core.sgd import PQReconstructor, SGDParams
from repro.sim.coreconfig import (
    CACHE_ALLOCS,
    N_JOINT_CONFIGS,
    CoreConfig,
    JointConfig,
)
from repro.sim.machine import (
    Assignment,
    LCAllocation,
    Machine,
    ProfilingSample,
    ASSIGNMENT,
    JOINT,
    SliceMeasurement,
)
from repro.sim.perf import AppProfile
from repro.snapshot import (
    BOOL, FLOAT, INT, RNG, Array, Map, Nested, Opt, Seq, Snapshottable,
    Transient, Tup,
)
from repro.workloads.latency_critical import LC_SERVICE_NAMES, service_variants

#: Load grid used to bucket latency observations and training rows.
LOAD_GRID: Tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 11))

#: Power readings at or below this magnitude (watts) count as "all
#: cores idle" for stuck-sensor detection: core powers are O(1-10) W,
#: so anything this small is numerical residue, not a live signal.
POWER_READING_EPS_W = 1e-9

#: One ingest call's memo of known-row population statistics, keyed by
#: (matrix identity, column); None marks too few known rows to test.
PopulationStats = Dict[Tuple[int, int], Optional[Tuple[float, float]]]

log = get_logger("core.controller")


def nearest_load_bucket(load: float) -> float:
    """Snap a fractional load onto :data:`LOAD_GRID`."""
    return min(LOAD_GRID, key=lambda b: abs(b - load))


def _diagnostics_state(diag: Any) -> Optional[Dict[str, Any]]:
    """JSONable view of one reconstruction's SGD diagnostics."""
    if diag is None:
        return None
    return {
        "iterations": int(diag.iterations),
        "rmse": float(diag.observed_rmse),
        "converged": bool(diag.converged),
    }


@dataclass(frozen=True)
class ControllerConfig:
    """Knobs of the resource controller."""

    initial_lc_cores: int = 16
    min_lc_cores: int = 2
    #: Yield a core back to batch when predicted latency is below
    #: (1 - slack) * QoS even with one core fewer (§VIII-D3: 20 %).
    lc_slack_to_yield: float = 0.2
    #: Fraction of the power budget kept as headroom against
    #: measurement noise and phase drift.
    power_headroom: float = 0.02
    #: QoS guardbands by latency-observation count: with few samples the
    #: reconstruction is uncertain, so candidate configurations must
    #: clear QoS by a margin that relaxes as measurements accumulate.
    qos_guard_sparse: float = 0.35
    qos_guard_medium: float = 0.25
    qos_guard_dense: float = 0.10
    #: Jittered "historical" variants per known service added to the
    #: latency training rows (see workloads.latency_critical.service_variants).
    latency_variants_per_service: int = 3
    #: Runtime observations older than this many quanta are dropped
    #: (phase drift makes stale steady-state samples misleading);
    #: None keeps everything forever.
    observation_max_age: Optional[int] = 30
    sgd: SGDParams = SGDParams()
    dds: DDSParams = DDSParams()
    ga: GAParams = GAParams()
    #: Design-space explorer: "dds" (CuttleSys) or "ga" (ablation).
    explorer: str = "dds"
    seed: int = 0
    #: Master switch for the graceful-degradation paths below.  With it
    #: off the controller behaves like the original reproduction: a
    #: non-finite observation raises out of the ingest path and there is
    #: no safe mode or reconfiguration quarantine (the "unhardened" arm
    #: of experiments/fault_study.py).
    hardened: bool = True
    #: Reject a runtime observation further than this many robust
    #: standard deviations (median absolute deviation, MAD) from the
    #: offline-characterised population at the same configuration.
    outlier_mad_threshold: float = 6.0
    #: Consecutive bad quanta (rejected samples, stuck sensors) before
    #: the controller stops trusting its reconstructions and falls back
    #: to the safe-mode assignment.
    safe_mode_after: int = 3
    #: Clean quanta required before safe mode is exited.
    safe_mode_hold: int = 4
    #: Consecutive failed reconfigurations of one core before it is
    #: quarantined (no further reconfiguration requests).
    quarantine_after: int = 3
    #: How many quanta a quarantined core is left alone before the
    #: controller retries reconfiguring it.
    quarantine_quanta: int = 6
    #: Per-quantum decision-operation budget: SGD refinement iterations
    #: plus search-candidate evaluations, counted in virtual time
    #: (deterministic operation counts, never wall-clock).  None meters
    #: without degrading; a finite budget makes :meth:`decide` walk the
    #: degradation ladder of docs/robustness.md on exhaustion — full
    #: DDS, reduced-sample DDS, last-known-good assignment, static
    #: fair-share.
    decision_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.initial_lc_cores < 1:
            raise ValueError("initial_lc_cores must be at least 1")
        if not 1 <= self.min_lc_cores <= self.initial_lc_cores:
            raise ValueError(
                "min_lc_cores must be in [1, initial_lc_cores]"
            )
        if not 0 < self.lc_slack_to_yield < 1:
            raise ValueError("lc_slack_to_yield must be in (0, 1)")
        if self.explorer not in ("dds", "ga"):
            raise ValueError(f"unknown explorer {self.explorer!r}")
        if self.outlier_mad_threshold <= 0:
            raise ValueError("outlier_mad_threshold must be positive")
        for name in ("safe_mode_after", "safe_mode_hold",
                     "quarantine_after", "quarantine_quanta"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.decision_budget is not None and self.decision_budget < 1:
            raise ValueError("decision_budget must be at least 1")


@dataclass(frozen=True)
class DecisionPrediction:
    """What the controller *expected* of the assignment it just made.

    Captured every quantum so the harness can pair predictions with
    the subsequent slice's measurements — turning the Fig. 5 offline
    accuracy experiment into a continuously tracked online metric.
    NaN marks quantities the controller had no prediction for (gated
    jobs, cold-start latency rows).
    """

    #: Per-batch-job predicted BIPS with the time-multiplexing share
    #: applied (comparable to ``SliceMeasurement.batch_bips``).
    bips: Tuple[float, ...]
    #: Predicted p99 per hosted LC service, primary first (seconds).
    p99_s: Tuple[float, ...]
    #: Predicted total chip power (cores + gated residuals + LLC), W.
    power_w: float


@dataclass(frozen=True)
class LCRegimeSnapshot:
    """One LC service's reconstructed latency row behind a decision.

    ``latency_row`` is the reconstructed p99 across all 108 joint
    configurations at the regime (load bucket, core count) the decision
    was made in — None on the cold-start path, where the controller
    runs conservative without a prediction.
    """

    service_idx: int
    #: Load estimate the decision used (pre-bucketing).
    load: float
    #: The :data:`LOAD_GRID` bucket the latency matrices keyed on.
    bucket: float
    #: Core count the service was allocated.
    cores: int
    latency_row: Optional[np.ndarray]
    #: Joint-configuration index actually chosen (None if zero cores).
    chosen_index: Optional[int]


@dataclass(frozen=True)
class ReconstructionSnapshot:
    """The reconstructed matrices behind the most recent decision.

    Captured by :meth:`ResourceController.decide` for the accuracy
    auditor (``repro.telemetry.accuracy``): since the simulator is
    analytical, every entry can be scored against ground truth, turning
    the paper's Fig. 4 offline accuracy study into a per-quantum online
    metric.  Arrays are the raw reconstructions (no time-multiplexing
    share applied), aligned with the machine's batch slots.
    """

    #: Reconstructed batch BIPS, ``(n_batch, N_JOINT_CONFIGS)``.
    batch_bips: np.ndarray
    #: Reconstructed batch core power, ``(n_batch, N_JOINT_CONFIGS)``.
    batch_power: np.ndarray
    #: Per-hosted-LC-service latency regimes, primary first.
    lc: Tuple[LCRegimeSnapshot, ...]


#: A latency regime key: (service, load bucket, cores).
REGIME = Tup(INT, FLOAT, INT)


class ResourceController(Snapshottable):
    """Online decision maker for one machine's jobs.

    Snapshots carry all state that shapes future decisions; a completed
    quantum's prediction is never read again, so restore resets it.
    """

    SNAPSHOT_FIELDS = {
        "_rng": RNG,
        "lc_cores_by_service": Seq(INT),
        "_last_assignment": Opt(ASSIGNMENT),
        "last_good_assignment": Opt(ASSIGNMENT),
        "_last_x": Opt(Array(int)),
        "_rejections_this_quantum": INT,
        "_bad_quanta_streak": INT,
        "_safe_mode_remaining": INT,
        "_last_profile_powers": Opt(Seq(FLOAT, tuple)),
        "_reconfig_fail_streak": Array(int),
        "_quarantine": Array(int),
        "_quarantine_config": Seq(Opt(JOINT)),
        "_job_active": Seq(BOOL),
        "_bips_matrix": MATRIX,
        "_power_matrix": MATRIX,
        "_latency_matrices": Map(MATRIX, key=REGIME),
        "_latency_evidence": Map(Seq(INT, set), key=REGIME),
        "budget": Nested(),
        "deadline_degraded_quantum": BOOL,
        "last_prediction": Transient(),
        "last_reconstruction": Transient(),
        "_rungs_this_quantum": Transient(list),
    }

    def __init__(
        self,
        machine: Machine,
        train_profiles: Sequence[AppProfile],
        train_services: Sequence,  # Sequence[LCService]
        config: ControllerConfig = ControllerConfig(),
        telemetry: Optional["Telemetry"] = None,
    ) -> None:
        self.machine = machine
        self.config = config
        # Without a session the phase spans go to the shared null
        # tracer, which records nothing.
        self.telemetry: Optional["Telemetry"] = telemetry
        self.tracer: "Tracer | NullTracer" = tracer_of(telemetry)
        self._rng = np.random.default_rng(config.seed)
        self.n_batch = len(machine.batch_profiles)
        self.n_train = len(train_profiles)
        self.n_services = len(machine.lc_services)
        # Initial LC core split: the configured total, divided across
        # the hosted services (all of it to a single service).
        total = min(config.initial_lc_cores, machine.params.n_cores - 1)
        base = max(1, total // self.n_services)
        self.lc_cores_by_service: List[int] = [
            base for _ in range(self.n_services)
        ]
        self.lc_cores_by_service[0] += total - base * self.n_services
        self._last_assignment: Optional[Assignment] = None
        self._last_x: Optional[np.ndarray] = None
        #: Predicted outcomes of the most recent :meth:`decide`.
        self.last_prediction: Optional[DecisionPrediction] = None
        #: Reconstructed matrices behind the most recent :meth:`decide`
        #: (None before the first decision and in safe mode, where no
        #: trusted reconstruction backs the assignment).
        self.last_reconstruction: Optional[ReconstructionSnapshot] = None

        # Graceful-degradation state (docs/robustness.md).  The
        # controller counts sample rejections per quantum; runs of bad
        # quanta drive the safe-mode state machine, and per-core
        # reconfiguration-failure streaks drive the quarantine.
        self._rejections_this_quantum = 0
        self._bad_quanta_streak = 0
        self._safe_mode_remaining = 0
        self._last_profile_powers: Optional[Tuple[float, ...]] = None
        self._reconfig_fail_streak = np.zeros(self.n_batch, dtype=int)
        self._quarantine = np.zeros(self.n_batch, dtype=int)
        self._quarantine_config: List[Optional[JointConfig]] = [
            None for _ in range(self.n_batch)
        ]
        #: Which batch slots currently host a live job.  Slots vacated
        #: by :meth:`remove_job` are gated off (their configurations
        #: forced to ``None``) in every assignment until
        #: :meth:`add_job` binds a newcomer; the machine keeps the
        #: vacated profile around but never executes it.
        self._job_active: List[bool] = [True] * self.n_batch
        #: Most recent assignment whose slice came back clean (finite
        #: measurements, QoS met).  The harness reuses it when a policy
        #: exception degrades a quantum.
        self.last_good_assignment: Optional[Assignment] = None

        # Offline characterisation of the known applications (the rows
        # the collaborative filter learns structure from).
        train_bips = throughput_rows(train_profiles, machine.perf)
        train_power = power_rows(train_profiles, machine.power)
        self._bips_matrix = ObservedMatrix(self.n_train + self.n_batch)
        self._power_matrix = ObservedMatrix(
            self.n_train + self.n_batch + self.n_services
        )
        for i in range(self.n_train):
            self._bips_matrix.set_known_row(i, train_bips[i])
            self._power_matrix.set_known_row(i, train_power[i])

        # Latency training rows: known services (plus their historical
        # variants) characterised per load bucket and core count; the
        # running service's own row is never in the training set.
        self._train_services = list(train_services)
        if config.latency_variants_per_service > 0:
            for service in list(self._train_services):
                base_name = service.name.split("-v")[0]
                if base_name in LC_SERVICE_NAMES:
                    self._train_services.extend(
                        service_variants(
                            base_name,
                            config.latency_variants_per_service,
                            seed=config.seed,
                            perf=machine.perf,
                        )
                    )
        self._latency_matrices: Dict[Tuple[int, float, int], ObservedMatrix] = {}
        # Distinct configurations ever measured per (service, bucket,
        # cores) regime: the QoS guard relaxes on accumulated evidence
        # and stays relaxed even after observations expire.
        self._latency_evidence: Dict[Tuple[int, float, int], set] = {}

        self._reconstructor = PQReconstructor(config.sgd)
        if config.explorer == "dds":
            self._searcher = DDSSearch(config.dds)
        else:
            self._searcher = GeneticSearch(config.ga)
        self._reconstructor.tracer = self.tracer
        self._searcher.tracer = self.tracer

        # Virtual-time deadline metering (docs/robustness.md): the
        # reconstructor and searcher charge their operation counts
        # against this budget; exhaustion walks the degradation ladder
        # in decide().  The reduced searcher is rung 1 (DDS only).
        self.budget = DecisionBudget(config.decision_budget)
        self._reconstructor.budget = self.budget
        self._searcher.budget = self.budget
        self._reduced_searcher: Optional[DDSSearch] = None
        if config.explorer == "dds":
            self._reduced_searcher = DDSSearch(reduced_dds_params(config.dds))
            self._reduced_searcher.tracer = self.tracer
            self._reduced_searcher.budget = self.budget
        #: True while the most recent decide() took a degradation rung;
        #: the accuracy auditor attributes that quantum's QoS
        #: violations to the deadline_degraded cause.
        self.deadline_degraded_quantum = False
        #: Degradation rungs taken by the in-flight decide() call, in
        #: order — the provenance record's ``rungs`` section.  Reset at
        #: every decision boundary (and in restore(): runs resume at a
        #: quantum boundary, so no decision is in flight).
        self._rungs_this_quantum: List[str] = []

    def attach_telemetry(self, telemetry: "Telemetry") -> None:
        """Route spans/metrics into a :class:`repro.telemetry.Telemetry`.

        The session's tracer replaces the null tracer so phase spans
        nest inside whatever the harness records (quantum, decide,
        slice), and counters (core reclamations/yields, emergency
        core-offs) land in the session's registry.
        """
        # Telemetry wiring is session plumbing, not simulation state:
        # the harness re-attaches it after every restore(), so the
        # snapshot contract deliberately excludes these rebindings.
        self.telemetry = telemetry  # repro: noqa[SNAP701]
        self.attach_tracer(tracer_of(telemetry))

    def attach_tracer(self, tracer: "Tracer | NullTracer") -> None:
        """Record the phase spans into ``tracer`` alone.

        Unlike :meth:`attach_telemetry` this binds no session counters
        or provenance recorder: callers that only want the wall time of
        the ``sgd``, ``lc_scan`` and ``search`` phases attach a bare
        :class:`~repro.telemetry.tracer.Tracer`.
        """
        self.tracer = tracer  # repro: noqa[SNAP701]
        self._reconstructor.tracer = tracer  # repro: noqa[SNAP701]
        self._searcher.tracer = tracer  # repro: noqa[SNAP701]
        reduced = self._reduced_searcher
        if reduced is not None:
            reduced.tracer = tracer

    def _count(self, name: str, n: int = 1) -> None:
        """Increment a session counter, if a session is attached."""
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc(n)

    # ------------------------------------------------------------------
    # Decision provenance (repro.telemetry.provenance).
    # ------------------------------------------------------------------

    def _provenance_recorder(self) -> Optional[ProvenanceRecorder]:
        """The attached session's flight recorder, if recording."""
        if self.telemetry is None:
            return None
        if not getattr(self.telemetry, "enabled", True):
            return None
        return getattr(self.telemetry, "provenance", None)

    def _budget_meter(
        self,
        full_cost: Optional[int] = None,
        reduced_cost: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The deadline meter's readings at this point in the decision."""
        meter: Dict[str, Any] = {
            "limit": self.budget.limit,
            "spent": int(self.budget.spent),
            "remaining": self.budget.remaining(),
        }
        if full_cost is not None:
            meter["full_search_cost"] = int(full_cost)
        if reduced_cost is not None:
            meter["reduced_search_cost"] = int(reduced_cost)
        return meter

    def _emit_provenance(self, record: Dict[str, Any]) -> None:
        """Stamp and store one quantum's provenance record.

        The quantum index comes from the harness (which marks each
        boundary on the recorder) and falls back to the budget meter's
        lifetime quantum counter — snapshot state, so standalone
        ``decide()`` loops and resumed runs index identically.
        """
        recorder = self._provenance_recorder()
        if recorder is None:
            return
        quantum = recorder.quantum
        if quantum is None:
            quantum = self.budget.quanta - 1
        full: Dict[str, Any] = {
            "type": "provenance",
            "quantum": int(quantum),
            "rungs": list(self._rungs_this_quantum),
            "safety": {
                "safe_mode": bool(self._safe_mode_remaining > 0),
                "quarantined_jobs": int(
                    np.count_nonzero(self._quarantine > 0)
                ),
            },
            **record,
        }
        if recorder.record(full):
            self._count("provenance.records")
        else:
            self._count("provenance.dropped")

    # ------------------------------------------------------------------
    # Matrix bookkeeping.
    # ------------------------------------------------------------------

    def _batch_row(self, job: int) -> int:
        return self.n_train + job

    def _lc_power_row(self, service_idx: int = 0) -> int:
        return self.n_train + self.n_batch + service_idx

    @property
    def lc_cores(self) -> int:
        """Primary service's current core allocation (back-compat)."""
        return self.lc_cores_by_service[0]

    def _latency_matrix(
        self, bucket: float, n_cores: int, service_idx: int = 0
    ) -> ObservedMatrix:
        key = (service_idx, bucket, n_cores)
        if key not in self._latency_matrices:
            service = self.machine.lc_services[service_idx]
            rows, _ = latency_training_rows(
                self._train_services,
                [bucket],
                self.machine.perf,
                n_cores,
                exclude=(service.name, bucket),
            )
            matrix = ObservedMatrix(rows.shape[0] + 1)
            for i in range(rows.shape[0]):
                matrix.set_known_row(i, rows[i])
            self._latency_matrices[key] = matrix
        return self._latency_matrices[key]

    def reset_job(self, job: int) -> None:
        """Forget everything about batch slot ``job`` (job churn).

        Called when a job completes and a new application takes its
        core: the slot's observed matrix entries are cleared so the
        newcomer is treated as previously unseen — it gets its two
        profiling samples next quantum and is reconstructed from the
        known-application population, exactly the arrival story of §V.
        """
        if not 0 <= job < self.n_batch:
            raise ValueError(f"batch job index out of range: {job}")
        row = self._batch_row(job)
        for matrix in (self._bips_matrix, self._power_matrix):
            matrix.clear_row(row)
        if self._last_x is not None:
            # Restart the newcomer's search from a safe narrow config.
            self._last_x[job] = 0

    def remove_job(self, job: int) -> None:
        """Vacate batch slot ``job`` between quanta (live cancellation).

        The slot's learned state is forgotten and the slot is gated off
        in every subsequent assignment: the search still proposes a
        configuration for it, but :meth:`decide` forces it to ``None``
        so the vacated core contributes neither throughput nor dynamic
        power.  Idempotent: removing an already-vacant slot is a no-op.
        """
        if not 0 <= job < self.n_batch:
            raise ValueError(f"batch job index out of range: {job}")
        if not self._job_active[job]:
            return
        self.reset_job(job)
        self._job_active[job] = False
        self._count("controller.jobs_removed")
        log.info("batch slot %d vacated; gating it off", job)

    def add_job(self, job: int) -> None:
        """Bind a newcomer to vacant batch slot ``job`` between quanta.

        The caller replaces the slot's application on the machine
        first (:meth:`Machine.replace_batch_job`); this method clears
        the slot's learned state — the newcomer is profiled from
        scratch next quantum, the §V arrival story — and lifts the
        gate.  Raises if the slot is still occupied.
        """
        if not 0 <= job < self.n_batch:
            raise ValueError(f"batch job index out of range: {job}")
        if self._job_active[job]:
            raise ValueError(f"batch slot {job} already hosts a job")
        self._job_active[job] = True
        self.reset_job(job)
        self._count("controller.jobs_added")
        log.info("batch slot %d bound to a new job", job)

    def active_jobs(self) -> List[bool]:
        """Per-slot occupancy (True = slot hosts a live job)."""
        return list(self._job_active)

    def _apply_job_mask(self, assignment: Assignment) -> Assignment:
        """Force vacant slots' configurations off in ``assignment``.

        Used by the decision paths that reuse cached assignments
        (safe mode, last-known-good, fair share), which may predate a
        :meth:`remove_job`.  Gating only ever removes load, so every
        power/way feasibility argument still holds.
        """
        if all(self._job_active):
            return assignment
        return replace(
            assignment,
            batch_configs=tuple(
                cfg if self._job_active[j] else None
                for j, cfg in enumerate(assignment.batch_configs)
            ),
        )

    def _age_observations(self) -> None:
        """Advance observation ages and expire stale ones (phase drift)."""
        matrices = [self._bips_matrix, self._power_matrix]
        matrices.extend(self._latency_matrices.values())
        for matrix in matrices:
            matrix.tick()
            if self.config.observation_max_age is not None:
                matrix.expire(self.config.observation_max_age)

    # ------------------------------------------------------------------
    # Observation sanitisation (hardened mode; docs/robustness.md).
    # ------------------------------------------------------------------

    def _sample_ok(self, matrix: ObservedMatrix, col: int,
                   value: float, mad_check: bool = True,
                   stats: Optional[PopulationStats] = None) -> bool:
        """Whether a runtime observation is credible enough to ingest.

        Rejects non-finite and negative values outright, then applies a
        MAD-based outlier test against the offline-characterised
        (known-row) population at the same configuration: a sample more
        than ``outlier_mad_threshold`` robust standard deviations from
        the training median — with a floor of half the median, so
        heterogeneous-but-legitimate applications are not rejected — is
        treated as corrupted.

        ``mad_check=False`` skips the population test; tail-latency
        samples use it because a saturated service legitimately posts
        p99s tens of times above the historical median, and rejecting
        them would hide exactly the QoS violations the reclaim ladder
        must react to.

        ``stats`` memoises each (matrix, column)'s ``(median, scale)``
        across the samples of one ingest call.  Observations never write
        the known rows, so the memo cannot go stale within the call.
        """
        if not np.isfinite(value) or value < 0:
            return False
        if not mad_check:
            return True
        if stats is None:
            stats = {}
        key = (id(matrix), col)
        if key not in stats:
            stats[key] = self._population_stats(matrix, col)
        population = stats[key]
        if population is None:
            return True
        med, scale = population
        return abs(value - med) <= self.config.outlier_mad_threshold * scale

    @staticmethod
    def _population_stats(
        matrix: ObservedMatrix, col: int
    ) -> Optional[Tuple[float, float]]:
        """Median and outlier scale of the known rows at ``col``; None
        when fewer than four rows are known."""
        known = matrix.values[matrix.known_rows, col]
        if known.size < 4:
            return None
        med = float(np.median(known))
        mad_sigma = float(np.median(np.abs(known - med))) * 1.4826
        return med, max(mad_sigma, abs(med) * 0.5, 1e-12)

    def _observe(self, matrix: ObservedMatrix, row: int, col: int,
                 value: float, mad_check: bool = True,
                 stats: Optional[PopulationStats] = None) -> bool:
        """Ingest one runtime observation, sanitised when hardened.

        Returns True if the observation entered the matrix.  Unhardened
        controllers keep the original behaviour: the matrix itself
        raises on non-finite values (the failure mode the fault study's
        unhardened arm exhibits).  ``stats`` is the calling ingest's
        memo of population statistics (see :meth:`_sample_ok`).
        """
        if self.config.hardened and not self._sample_ok(
            matrix, col, value, mad_check=mad_check, stats=stats
        ):
            self._rejections_this_quantum += 1
            self._count("faults.detected.bad_sample")
            log.debug(
                "rejected observation %.4g at config %d (non-finite or "
                "outlier)", value, col,
            )
            return False
        matrix.observe(row, col, value)
        return True

    def _detect_stuck_sensor(self, sample: ProfilingSample) -> bool:
        """Flag bit-identical consecutive power samples (frozen sensor).

        Profiling noise makes exact repeats of every power reading
        across consecutive quanta vanishingly unlikely; equality means
        the sensor path is stuck and this quantum's power samples must
        not be ingested.  On a noise-free machine that premise fails —
        honest repeats are the norm — so detection is disabled there.
        """
        if self.machine.params.profiling_noise <= 0:
            return False
        powers = (
            tuple(float(p) for p in sample.batch_power_hi)
            + tuple(float(p) for p in sample.batch_power_lo)
            + (float(sample.lc_power_hi), float(sample.lc_power_lo))
        )
        stuck = (
            self._last_profile_powers is not None
            and powers == self._last_profile_powers
            and any(abs(p) > POWER_READING_EPS_W for p in powers)
        )
        self._last_profile_powers = powers
        return stuck

    def ingest_profiling(self, sample: ProfilingSample) -> None:
        """Fold the two 1 ms samples into the matrices (Fig. 3, step 1).

        Hardened controllers sanitise each sample (non-finite and
        MAD-outlier values are rejected and counted) and skip power
        ingestion entirely when the power sensor path reports
        bit-identical readings two quanta running (stuck sensor).
        """
        power_ok = True
        if self.config.hardened and self._detect_stuck_sensor(sample):
            power_ok = False
            self._rejections_this_quantum += 1
            self._count("faults.detected.stuck_sensor")
            log.warning(
                "power sensors returned bit-identical samples two quanta "
                "running; discarding this quantum's power samples"
            )
        stats: PopulationStats = {}
        for j in range(self.n_batch):
            row = self._batch_row(j)
            self._observe(self._bips_matrix, row, sample.hi_joint_index,
                          sample.batch_bips_hi[j], stats=stats)
            self._observe(self._bips_matrix, row, sample.lo_joint_index,
                          sample.batch_bips_lo[j], stats=stats)
            if power_ok:
                self._observe(self._power_matrix, row,
                              sample.hi_joint_index,
                              sample.batch_power_hi[j], stats=stats)
                self._observe(self._power_matrix, row,
                              sample.lo_joint_index,
                              sample.batch_power_lo[j], stats=stats)
        if power_ok:
            self._observe(self._power_matrix, self._lc_power_row(0),
                          sample.hi_joint_index, sample.lc_power_hi,
                          stats=stats)
            self._observe(self._power_matrix, self._lc_power_row(0),
                          sample.lo_joint_index, sample.lc_power_lo,
                          stats=stats)
            for idx, (hi, lo) in enumerate(
                zip(sample.extra_lc_power_hi, sample.extra_lc_power_lo),
                start=1,
            ):
                self._observe(
                    self._power_matrix, self._lc_power_row(idx),
                    sample.hi_joint_index, hi, stats=stats,
                )
                self._observe(
                    self._power_matrix, self._lc_power_row(idx),
                    sample.lo_joint_index, lo, stats=stats,
                )

    def _detect_failed_reconfigs(self, ran: Assignment) -> None:
        """Diff what ran against what was requested; quarantine repeat
        offenders.

        A core whose measured configuration kept its old section widths
        despite a requested change failed to reconfigure.  After
        ``quarantine_after`` consecutive failures the controller stops
        requesting changes for that core for ``quarantine_quanta``
        quanta (retry-with-quarantine), pinning it at its last observed
        configuration instead of thrashing a broken actuator.
        """
        requested = self._last_assignment
        if requested is None or len(requested.batch_configs) != len(
            ran.batch_configs
        ):
            return
        for j, (req, got) in enumerate(
            zip(requested.batch_configs, ran.batch_configs)
        ):
            if req is None or got is None:
                continue
            if req.core != got.core:
                self._count("faults.detected.reconfig_failed")
                self._reconfig_fail_streak[j] += 1
                self._quarantine_config[j] = got
                if (
                    self._reconfig_fail_streak[j]
                    >= self.config.quarantine_after
                    and self._quarantine[j] == 0
                ):
                    self._quarantine[j] = self.config.quarantine_quanta
                    self._count("faults.detected.core_quarantined")
                    log.warning(
                        "core %d failed %d consecutive reconfigurations; "
                        "quarantined for %d quanta at %s",
                        j, int(self._reconfig_fail_streak[j]),
                        self.config.quarantine_quanta, got.label,
                    )
            else:
                self._reconfig_fail_streak[j] = 0

    def _measurement_clean(self, measurement: SliceMeasurement) -> bool:
        """Whether a slice is good enough to refresh last-known-good."""
        values = [
            measurement.lc_p99, measurement.total_power,
            *measurement.batch_bips, *measurement.batch_power,
            *measurement.extra_lc_p99,
        ]
        if not all(math.isfinite(v) for v in values):
            return False
        if measurement.assignment.lc_cores > 0 and (
            measurement.lc_p99 > self.machine.lc_service.qos_latency_s
        ):
            return False
        for p99, service in zip(
            measurement.extra_lc_p99, self.machine.lc_services[1:]
        ):
            if p99 > service.qos_latency_s:
                return False
        return True

    def ingest_measurement(self, measurement: SliceMeasurement) -> None:
        """Fold the previous steady state back in (matrix update, §IV-B).

        Hardened controllers additionally diff the assignment that
        actually ran against the one they requested (failed-
        reconfiguration detection feeding the quarantine) and refresh
        the last-known-good assignment cache from clean slices.
        """
        assignment = measurement.assignment
        if self.config.hardened:
            self._detect_failed_reconfigs(assignment)
            if self._measurement_clean(measurement):
                self.last_good_assignment = assignment
        batch_cores = self.machine.params.n_cores - assignment.total_lc_cores
        active = assignment.active_batch_indices
        share = min(1.0, batch_cores / len(active)) if active else 0.0
        stats: PopulationStats = {}
        for j in active:
            joint = assignment.batch_configs[j]
            if share <= 0:
                continue
            row = self._batch_row(j)
            bips = measurement.batch_bips[j] / share
            power = measurement.batch_power[j] / share
            if bips > 0:
                self._observe(self._bips_matrix, row, joint.index, bips,
                              stats=stats)
            if power > 0:
                self._observe(self._power_matrix, row, joint.index, power,
                              stats=stats)

        lc_blocks = [
            (0, assignment.lc_cores, assignment.lc_config,
             measurement.lc_load, measurement.lc_p99,
             measurement.lc_core_power),
        ]
        for idx, alloc in enumerate(assignment.extra_lc, start=1):
            lc_blocks.append(
                (
                    idx,
                    alloc.cores,
                    alloc.config,
                    measurement.extra_lc_loads[idx - 1],
                    measurement.extra_lc_p99[idx - 1],
                    measurement.extra_lc_core_power[idx - 1],
                )
            )
        for idx, cores, config, lc_load, p99, core_power in lc_blocks:
            if cores <= 0 or config is None or p99 <= 0:
                continue
            bucket = nearest_load_bucket(lc_load)
            matrix = self._latency_matrix(bucket, cores, idx)
            if self._observe(matrix, matrix.n_rows - 1, config.index, p99,
                             mad_check=False):
                key = (idx, bucket, cores)
                self._latency_evidence.setdefault(key, set()).add(
                    config.index
                )
            if core_power > 0:
                self._observe(
                    self._power_matrix, self._lc_power_row(idx),
                    config.index, core_power, stats=stats,
                )

    # ------------------------------------------------------------------
    # Decision.
    # ------------------------------------------------------------------

    def decide(
        self,
        load: float,
        max_power: float,
        extra_loads: Sequence[float] = (),
    ) -> Assignment:
        """Pick the next quantum's assignment from current knowledge.

        ``extra_loads`` carries the load estimate of each LC service
        beyond the first on multi-service machines.
        """
        if max_power <= 0:
            raise ValueError("max_power must be positive")
        if len(extra_loads) != self.n_services - 1:
            raise ValueError(
                f"expected {self.n_services - 1} extra loads, "
                f"got {len(extra_loads)}"
            )
        self.deadline_degraded_quantum = False
        self.budget.begin_quantum()
        self._rungs_this_quantum = []
        recorder = self._provenance_recorder()
        self._age_observations()

        if self.config.hardened:
            self._tick_quarantine()
            if self._update_safe_mode():
                assignment = self._apply_job_mask(
                    self._conservative_assignment(CACHE_ALLOCS[0])
                )
                self._emit_provenance({
                    "mode": "safe_mode",
                    "budget": self._budget_meter(),
                })
                return assignment

        with self.tracer.span("sgd", category="controller"):
            bips_hat = self._reconstructor.reconstruct(self._bips_matrix)
            bips_diag = _diagnostics_state(
                self._reconstructor.last_diagnostics
            )
            power_hat = self._reconstructor.reconstruct(self._power_matrix)
            power_diag = _diagnostics_state(
                self._reconstructor.last_diagnostics
            )

        with self.tracer.span("lc_scan", category="controller"):
            loads = [load, *extra_loads]
            selections = []
            predicted_p99 = []
            lc_snapshots: List[LCRegimeSnapshot] = []
            lc_entries: List[Dict[str, Any]] = []
            # The paper relocates at most one core per timeslice; with
            # several services the most recently violating one wins it.
            reclaim_available = True
            for idx in range(self.n_services):
                previous_cores = self.lc_cores_by_service[idx]
                (joint, cores, watts, reclaimed, p99_hat,
                 latency_row) = self._select_lc(
                    loads[idx],
                    power_hat[self._lc_power_row(idx)],
                    service_idx=idx,
                    allow_reclaim=reclaim_available,
                )
                if reclaimed:
                    reclaim_available = False
                    self._count("controller.core_reclamations")
                    log.info(
                        "service %d reclaims a core (now %d): QoS "
                        "predicted unreachable at load %.2f",
                        idx, cores, loads[idx],
                    )
                elif cores < previous_cores:
                    self._count("controller.core_yields")
                    log.info(
                        "service %d yields a core back to batch (now %d)",
                        idx, cores,
                    )
                selections.append((joint, cores, watts))
                predicted_p99.append(p99_hat)
                lc_snapshots.append(LCRegimeSnapshot(
                    service_idx=idx,
                    load=loads[idx],
                    bucket=nearest_load_bucket(loads[idx]),
                    cores=cores,
                    latency_row=latency_row,
                    chosen_index=joint.index if cores > 0 else None,
                ))
                lc_entries.append({
                    "service": idx,
                    "load": float(loads[idx]),
                    "cores": int(cores),
                    "config": int(joint.index) if cores > 0 else None,
                    "reclaimed": bool(reclaimed),
                })
            lc_joint, lc_cores, lc_power = selections[0]

        batch_bips = bips_hat[self.n_train:self.n_train + self.n_batch]
        batch_power = power_hat[self.n_train:self.n_train + self.n_batch]
        # Reconstructions are fresh arrays each quantum, so the
        # snapshot can hold views without copying.
        self.last_reconstruction = ReconstructionSnapshot(
            batch_bips=batch_bips,
            batch_power=batch_power,
            lc=tuple(lc_snapshots),
        )

        # Degradation ladder (docs/robustness.md): the reconstructions
        # above already charged the budget; price the search before
        # running it and step down a rung when it does not fit.  The
        # prices quoted here land in the provenance record's budget
        # section so `repro explain` can show why a rung was taken.
        searcher = self._searcher
        search_label = self.config.explorer
        full_cost: Optional[int] = None
        reduced_cost: Optional[int] = None
        if self.budget.limited and self._reduced_searcher is not None:
            full_cost = dds_search_cost(
                self.config.dds, self._last_x is not None
            )
            if not self.budget.can_afford(full_cost):
                reduced_cost = dds_search_cost(
                    self._reduced_searcher.params, self._last_x is not None
                )
                if self.budget.can_afford(reduced_cost):
                    searcher = self._reduced_searcher
                    search_label = "reduced_dds"
                    self._degradation_rung("reduced_dds")
                elif (
                    self.last_good_assignment is not None
                    or self._last_assignment is not None
                ):
                    assignment = self._apply_job_mask(
                        self._deadline_last_good_assignment()
                    )
                    self._emit_provenance({
                        "mode": "last_good",
                        "budget": self._budget_meter(
                            full_cost, reduced_cost
                        ),
                        "reconstruction": {
                            "bips": bips_diag, "power": power_diag,
                        },
                        "lc": lc_entries,
                    })
                    return assignment
                else:
                    self._degradation_rung("fair_share")
                    assignment = self._apply_job_mask(
                        self._conservative_assignment(None)
                    )
                    self._emit_provenance({
                        "mode": "fair_share",
                        "budget": self._budget_meter(
                            full_cost, reduced_cost
                        ),
                        "reconstruction": {
                            "bips": bips_diag, "power": power_diag,
                        },
                        "lc": lc_entries,
                    })
                    return assignment

        total_lc_cores = sum(cores for _, cores, _ in selections)
        batch_cores = self.machine.params.n_cores - total_lc_cores
        time_share = min(1.0, batch_cores / self.n_batch)
        reserved_power = (
            sum(watts * cores for _, cores, watts in selections)
            + self.machine.power.llc_power()
        )
        reserved_ways = sum(
            joint.cache_ways for joint, cores, _ in selections if cores > 0
        )
        target_power = max_power * (1.0 - self.config.power_headroom)
        objective = SystemObjective(
            bips=batch_bips,
            power=batch_power * time_share,
            max_power=target_power,
            max_ways=self.machine.params.llc_ways,
            reserved_power=reserved_power,
            reserved_ways=reserved_ways,
            time_share=time_share,
        )

        with self.tracer.span(
            "search", category="controller", explorer=self.config.explorer
        ):
            # record_explored only stores the candidate trace for the
            # provenance summary; it changes neither the RNG stream nor
            # the evaluation count, so recorded and bare runs decide
            # identically.
            result = searcher.search(
                objective,
                n_dims=self.n_batch,
                n_confs=N_JOINT_CONFIGS,
                rng=self._rng,
                initial=self._last_x,
                record_explored=recorder is not None,
            )

        x = result.best_x
        self._last_x = x.copy()
        configs: List[Optional[JointConfig]] = [
            JointConfig.from_index(int(i)) for i in x
        ]
        with self.tracer.span("power_fallback", category="controller"):
            active_before = sum(1 for c in configs if c is not None)
            configs = self._power_fallback(
                configs, batch_power * time_share, reserved_power,
                target_power,
            )
            gated = active_before - sum(1 for c in configs if c is not None)
            if gated > 0:
                self._count("controller.emergency_core_off", gated)
                log.info(
                    "power fallback gated %d batch job(s) to meet "
                    "%.1f W", gated, target_power,
                )
        if self.config.hardened:
            # Quarantined cores are not asked to change their section
            # widths; they keep their last observed configuration (the
            # cache-way choice still applies — partition registers are
            # a separate, working actuator).
            for j in range(self.n_batch):
                pinned = self._quarantine_config[j]
                if (
                    self._quarantine[j] > 0
                    and pinned is not None
                    and configs[j] is not None
                    and configs[j].core != pinned.core
                ):
                    configs[j] = JointConfig(
                        pinned.core, configs[j].cache_ways
                    )
        if not all(self._job_active):
            # Vacant slots never execute: gate them off no matter what
            # the search proposed for them.
            configs = [
                cfg if self._job_active[j] else None
                for j, cfg in enumerate(configs)
            ]
        assignment = Assignment(
            lc_cores=lc_cores,
            lc_config=lc_joint if lc_cores > 0 else None,
            batch_configs=tuple(configs),
            extra_lc=tuple(
                LCAllocation(cores=cores, config=joint)
                for joint, cores, _ in selections[1:]
            ),
        )
        self.last_prediction = self._predict_assignment(
            assignment, batch_bips, batch_power, predicted_p99,
            reserved_power, batch_cores, time_share,
        )
        self.lc_cores_by_service = [cores for _, cores, _ in selections]
        self._last_assignment = assignment
        if recorder is not None:
            chosen_power, chosen_ways, _, _ = classify_candidates(
                objective, x[None, :]
            )
            self._emit_provenance({
                "mode": (
                    "reduced_dds" if search_label == "reduced_dds"
                    else "normal"
                ),
                "budget": self._budget_meter(full_cost, reduced_cost),
                "reconstruction": {"bips": bips_diag, "power": power_diag},
                "lc": lc_entries,
                "power": {
                    "max_power_w": float(max_power),
                    "target_power_w": float(target_power),
                    "headroom_fraction": float(self.config.power_headroom),
                    "reserved_power_w": float(reserved_power),
                },
                "search": {
                    "searcher": search_label,
                    "evaluations": int(result.evaluations),
                    **candidate_provenance(
                        objective, result.explored, recorder.top_k
                    ),
                },
                "power_fallback": {"cores_disabled": int(gated)},
                # The chosen point is the search's winner *before* the
                # power fallback and quarantine pinning, whose effects
                # are recorded in their own sections.
                "chosen": {
                    "objective": float(result.best_objective),
                    "power_w": float(chosen_power[0]),
                    "ways": float(chosen_ways[0]),
                },
            })
        return assignment

    # ------------------------------------------------------------------
    # Graceful degradation (hardened mode; docs/robustness.md).
    # ------------------------------------------------------------------

    def _tick_quarantine(self) -> None:
        """Advance quarantine timers; release served-out cores."""
        for j in range(self.n_batch):
            if self._quarantine[j] > 0:
                self._quarantine[j] -= 1
                if self._quarantine[j] == 0:
                    self._reconfig_fail_streak[j] = 0
                    self._count("faults.recovered.quarantine_released")
                    log.info(
                        "core %d released from quarantine; "
                        "reconfigurations will be retried", j,
                    )

    def _update_safe_mode(self) -> bool:
        """Advance the safe-mode state machine; True = stay degraded.

        A quantum is *bad* when sanitisation rejected at least one
        observation since the previous decision (corrupted samples,
        stuck sensors).  ``safe_mode_after`` consecutive bad quanta
        mean the matrices can no longer be trusted, so the controller
        stops optimising and serves the safe-mode assignment until
        ``safe_mode_hold`` clean quanta have passed.
        """
        bad = self._rejections_this_quantum > 0
        self._rejections_this_quantum = 0
        self._bad_quanta_streak = self._bad_quanta_streak + 1 if bad else 0
        if self._safe_mode_remaining > 0:
            if bad:
                self._safe_mode_remaining = self.config.safe_mode_hold
            else:
                self._safe_mode_remaining -= 1
            if self._safe_mode_remaining > 0:
                return True
            self._count("faults.recovered.safe_mode_exited")
            log.info(
                "%d clean quanta: exiting safe mode, resuming normal "
                "decisions", self.config.safe_mode_hold,
            )
            return False
        if self._bad_quanta_streak >= self.config.safe_mode_after:
            self._safe_mode_remaining = self.config.safe_mode_hold
            self._count("faults.detected.safe_mode_entered")
            log.warning(
                "%d consecutive bad quanta: entering safe mode "
                "(narrowest batch configurations, QoS-priority LC)",
                self._bad_quanta_streak,
            )
            return True
        return False

    @property
    def in_safe_mode(self) -> bool:
        """Whether the controller is currently serving safe mode."""
        return self._safe_mode_remaining > 0

    def _conservative_assignment(
        self, batch_ways: Optional[float]
    ) -> Assignment:
        """The no-prediction fallback of safe mode and deadline rung 3.

        QoS priority: every LC service keeps its cores on the widest
        configuration with the full cache allocation; batch jobs run the
        narrowest core with ``batch_ways`` each — safe mode passes the
        minimum share (lowest power without gating work outright), rung
        3 passes None to split the ways left after the LC reservation
        evenly.  Batch jobs are gated from the tail until the LLC covers
        every allocation.
        """
        p = self.machine.params
        conservative = JointConfig(CoreConfig.widest(), CACHE_ALLOCS[-1])
        lc_ways = conservative.cache_ways * sum(
            1 for c in self.lc_cores_by_service if c > 0
        )
        free_ways = max(0.0, p.llc_ways - lc_ways)
        if batch_ways is None:
            share = free_ways / max(1, self.n_batch)
            batch_ways = CACHE_ALLOCS[0]
            for candidate in CACHE_ALLOCS:
                if candidate <= share:
                    batch_ways = max(batch_ways, candidate)
        batch = JointConfig(CoreConfig.narrowest(), batch_ways)
        # Half-way shares are the exact sentinel 0.5, never computed;
        # two half-way holders share one physical way.
        if batch.cache_ways == 0.5:  # repro: noqa[UNIT301]
            budget_jobs = int(free_ways * 2)
        else:
            budget_jobs = int(free_ways // batch.cache_ways)
        configs: List[Optional[JointConfig]] = [
            batch if j < budget_jobs else None
            for j in range(self.n_batch)
        ]
        lc_cores = self.lc_cores_by_service[0]
        assignment = Assignment(
            lc_cores=lc_cores,
            lc_config=conservative if lc_cores > 0 else None,
            batch_configs=tuple(configs),
            extra_lc=tuple(
                LCAllocation(cores=cores, config=conservative)
                for cores in self.lc_cores_by_service[1:]
            ),
        )
        # No trusted reconstruction backs this decision: pair it with
        # no prediction rather than a stale one.
        self.last_prediction = None
        self.last_reconstruction = None
        self._last_assignment = assignment
        return assignment

    # ------------------------------------------------------------------
    # Deadline degradation ladder (docs/robustness.md).
    # ------------------------------------------------------------------

    def _degradation_rung(self, rung: str) -> None:
        """Record one degradation-ladder step taken this quantum."""
        self.deadline_degraded_quantum = True
        self._rungs_this_quantum.append(rung)
        self._count("controller.degradation.rungs")
        self._count(f"controller.degradation.{rung}")
        log.warning(
            "decision budget exhausted (%d of %s operations spent): "
            "taking degradation rung %s",
            self.budget.spent, self.budget.limit, rung,
        )

    def _deadline_last_good_assignment(self) -> Assignment:
        """Degradation rung 2: re-serve the last assignment known good.

        Falls back to the most recently *requested* assignment when no
        slice has come back clean yet.  No trusted reconstruction backs
        the decision, so the prediction and reconstruction snapshots
        are cleared — the accuracy auditor counts the quantum as
        unaudited and attributes its QoS violations to the deadline.
        """
        self._degradation_rung("last_good")
        assignment = self.last_good_assignment
        if assignment is None:
            assignment = self._last_assignment
        if assignment is None:  # pragma: no cover - guarded by decide()
            raise RuntimeError("no previous assignment to degrade to")
        self.last_prediction = None
        self.last_reconstruction = None
        self._last_assignment = assignment
        self.lc_cores_by_service = [
            cores for cores, _ in assignment.lc_allocations()
        ]
        return assignment

    def _predict_assignment(
        self,
        assignment: Assignment,
        batch_bips: np.ndarray,
        batch_power: np.ndarray,
        predicted_p99: Sequence[float],
        reserved_power: float,
        batch_cores: int,
        time_share: float,
    ) -> DecisionPrediction:
        """Bundle the decision's predicted BIPS/p99/power for telemetry.

        Mirrors the machine's measurement accounting (time-multiplexing
        share, gated-core residuals) so the prediction is directly
        comparable to the next :class:`SliceMeasurement`.
        """
        bips_pred = []
        power_pred = 0.0
        active = 0
        for j, cfg in enumerate(assignment.batch_configs):
            if cfg is None:
                bips_pred.append(math.nan)
            else:
                active += 1
                bips_pred.append(float(batch_bips[j, cfg.index]) * time_share)
                power_pred += float(batch_power[j, cfg.index]) * time_share
        gated_cores = batch_cores - min(batch_cores, active)
        power_pred += (
            gated_cores * self.machine.power.gated_core_power()
            + reserved_power
        )
        return DecisionPrediction(
            bips=tuple(bips_pred),
            p99_s=tuple(predicted_p99),
            power_w=power_pred,
        )

    def _select_lc(
        self,
        load: float,
        lc_power_row: np.ndarray,
        service_idx: int = 0,
        allow_reclaim: bool = True,
    ) -> Tuple[JointConfig, int, float, bool, float, Optional[np.ndarray]]:
        """Choose one LC service's configuration and core count.

        Returns ``(config, cores, power, reclaimed, predicted_p99,
        latency_row)`` (§VI-A, §VIII-D3); ``allow_reclaim`` arbitrates
        the one-core-per-timeslice relocation budget among multiple
        services.  ``predicted_p99`` is the reconstructed tail latency
        of the chosen configuration and ``latency_row`` the full
        reconstructed row it was read from (both NaN/None on the
        cold-start path, where the controller runs conservative
        without a prediction — the accuracy auditor skips such
        regimes).
        """
        service = self.machine.lc_services[service_idx]
        bucket = nearest_load_bucket(load)
        qos = service.qos_latency_s
        lc_cores = self.lc_cores_by_service[service_idx]
        conservative = JointConfig(CoreConfig.widest(), CACHE_ALLOCS[-1])

        if not self._has_latency_observation(bucket, lc_cores, service_idx):
            # Cold start at this (load, core count): run wide with the
            # full cache allocation; predictions become available once
            # one slice has been measured.
            return conservative, lc_cores, float(
                lc_power_row[conservative.index]
            ), False, math.nan, None

        # Memoise the per-core-count latency reconstructions: the scan,
        # the downgrade fallback and the final prediction record all
        # read the same rows, and each reconstruction costs real time.
        latency_cache: Dict[int, np.ndarray] = {}

        def predict(n_cores: int) -> np.ndarray:
            if n_cores not in latency_cache:
                latency_cache[n_cores] = self._predict_latency(
                    bucket, n_cores, service_idx
                )
            return latency_cache[n_cores]

        def best_config(
            n_cores: int, guard: Optional[float] = None
        ) -> Optional[JointConfig]:
            """Least predicted power among QoS-meeting configurations.

            The QoS bar carries a guardband that shrinks as latency
            observations accumulate (reconstruction from one or two
            samples is uncertain); ties break toward smaller cache
            allocations, freeing ways for the batch jobs (§VI-A).
            """
            latency = predict(n_cores)
            if guard is None:
                guard = self._qos_guard(bucket, n_cores, service_idx)
            target = qos * (1.0 - guard)
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

        reclaimed = False
        choice = best_config(lc_cores)
        if choice is None:
            # Nothing clears the guarded bar.  The guard exists to veto
            # risky downgrades, not to trigger reclamation: if raw QoS
            # is still predicted reachable, take the *safest
            # power-improving step* — among configurations meeting raw
            # QoS and predicted cheaper than running wide, the one with
            # the lowest predicted latency.  Measuring it relaxes the
            # guard for the next quantum.  Only when even raw QoS is
            # unreachable does the controller reclaim one core per
            # timeslice (§VI-A).
            choice = self._safest_downgrade(
                bucket, lc_cores, lc_power_row, qos, service_idx,
                latency=predict(lc_cores),
            )
            if choice is None:
                if allow_reclaim:
                    lc_cores = min(
                        lc_cores + 1, self.machine.params.n_cores - 1
                    )
                    reclaimed = True
                choice = conservative
        elif (
            lc_cores > self.config.min_lc_cores
            and self._latency_observations(bucket, lc_cores, service_idx) >= 2
        ):
            # Yield a core back if QoS would still hold with slack AND
            # total LC power would not grow: fewer cores usually means a
            # wider (hungrier) per-core configuration, which can cost
            # more watts than the freed core is worth.  Yields are
            # rate-limited by hysteresis (the current regime must have
            # been measured at least twice) so each new core count is
            # validated before descending further.
            latency_fewer = predict(lc_cores - 1)
            slack_target = qos * (1.0 - self.config.lc_slack_to_yield)
            fewer_choice = best_config(lc_cores - 1)
            if (
                fewer_choice is not None
                and latency_fewer[fewer_choice.index] <= slack_target
                and lc_power_row[fewer_choice.index] * (lc_cores - 1)
                < lc_power_row[choice.index] * lc_cores
            ):
                lc_cores -= 1
                choice = fewer_choice
        lc_power = float(lc_power_row[choice.index])
        latency_row = predict(lc_cores)
        predicted_p99 = float(latency_row[choice.index])
        return choice, lc_cores, lc_power, reclaimed, predicted_p99, latency_row

    def _safest_downgrade(
        self,
        bucket: float,
        n_cores: int,
        lc_power_row: np.ndarray,
        qos: float,
        service_idx: int = 0,
        latency: Optional[np.ndarray] = None,
    ) -> Optional[JointConfig]:
        """Lowest-latency config that meets raw QoS and saves power."""
        if latency is None:
            latency = self._predict_latency(bucket, n_cores, service_idx)
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

    def _latency_observations(
        self, bucket: float, n_cores: int, service_idx: int = 0
    ) -> int:
        """Measurements of one running service at this (load, cores)."""
        key = (service_idx, bucket, n_cores)
        if key not in self._latency_matrices:
            return 0
        matrix = self._latency_matrices[key]
        return matrix.observed_count(matrix.n_rows - 1)

    def _has_latency_observation(
        self, bucket: float, n_cores: int, service_idx: int = 0
    ) -> bool:
        """Whether the service has any measurement at this regime."""
        return self._latency_observations(bucket, n_cores, service_idx) > 0

    def _qos_guard(
        self, bucket: float, n_cores: int, service_idx: int = 0
    ) -> float:
        """Safety margin on QoS, by how much latency evidence exists.

        Uses the *lifetime* measurement count for this regime: the
        guard relaxes with accumulated evidence and stays relaxed even
        after individual observations age out of the matrices.
        """
        observed = max(
            self._latency_observations(bucket, n_cores, service_idx),
            len(self._latency_evidence.get((service_idx, bucket, n_cores), ())),
        )
        if observed < 2:
            return self.config.qos_guard_sparse
        if observed < 4:
            return self.config.qos_guard_medium
        return self.config.qos_guard_dense

    def _predict_latency(
        self, bucket: float, n_cores: int, service_idx: int = 0
    ) -> np.ndarray:
        """Reconstructed p99 of the running service across 108 configs.

        When the service has never been measured at this (load, cores)
        regime but has at another core count, predictions are
        *transferred*: the known services' rows teach how latency moves
        between core counts (a per-configuration log-ratio), which is
        applied to the reconstructed row of the observed regime.  This
        is what lets core reclamation/yielding reason about a regime
        before entering it (§VIII-D3).
        """
        matrix = self._latency_matrix(bucket, n_cores, service_idx)
        row = matrix.n_rows - 1
        if matrix.observed_count(row) > 0:
            full = self._reconstructor.reconstruct(matrix)
            return full[row]
        observed_counts = [
            m
            for (s_idx, b, m), mat in self._latency_matrices.items()
            if s_idx == service_idx
            and b == bucket
            and m != n_cores
            and mat.observed_count(mat.n_rows - 1) > 0
        ]
        if observed_counts:
            source = min(observed_counts, key=lambda m: abs(m - n_cores))
            base = self._predict_latency(bucket, source, service_idx)
            ratio = self._core_count_ratio(
                bucket, source, n_cores, service_idx
            )
            return base * ratio
        # Nothing measured at this load at all: fall back to the known
        # services' geometric-mean latency profile.
        known = np.log(matrix.values[:-1])
        return np.exp(known.mean(axis=0))

    def _core_count_ratio(
        self,
        bucket: float,
        from_cores: int,
        to_cores: int,
        service_idx: int = 0,
    ) -> np.ndarray:
        """Known-row latency ratio between two core counts, per config."""
        from_rows = self._latency_matrix(
            bucket, from_cores, service_idx
        ).values[:-1]
        to_rows = self._latency_matrix(bucket, to_cores, service_idx).values[:-1]
        return np.exp(
            np.log(to_rows).mean(axis=0) - np.log(from_rows).mean(axis=0)
        )

    def _power_fallback(
        self,
        configs: List[Optional[JointConfig]],
        power_table: np.ndarray,
        reserved_power: float,
        max_power: float,
    ) -> List[Optional[JointConfig]]:
        """Gate cores in descending predicted power if still over budget."""
        def predicted_total() -> float:
            total = reserved_power
            for j, cfg in enumerate(configs):
                if cfg is not None:
                    total += power_table[j, cfg.index]
                else:
                    total += self.machine.power.gated_core_power()
            return total

        while predicted_total() > max_power:
            active = [j for j, cfg in enumerate(configs) if cfg is not None]
            if not active:
                break
            hungriest = max(
                active, key=lambda j: power_table[j, configs[j].index]
            )
            configs[hungriest] = None
        return configs
