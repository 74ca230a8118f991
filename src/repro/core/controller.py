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
   gates cores in descending predicted power (§VI-B) through
   :func:`repro.core.objective.power_fallback`, the one fallback the
   oracle and the baselines share.

The controller never reads ground truth — only profiling samples and
end-of-slice measurements, like the real system.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry import Telemetry

from repro.core.dds import DDSParams, DDSSearch
from repro.core.deadline import (
    DecisionBudget,
    PhaseMeter,
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
from repro.telemetry.tracer import MGK_LATENCY, NullTracer, Tracer, tracer_of
from repro.core.matrices import (
    MATRIX,
    ObservedMatrix,
    latency_training_rows,
    power_rows,
    throughput_rows,
)
from repro.core.objective import SystemObjective, power_fallback
from repro.core.sgd import PQReconstructor, SGDParams
from repro.sim.coreconfig import (
    CACHE_ALLOCS,
    JOINT_CONFIGS,
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
from repro.sim.perf import AppProfile, PerformanceModel
from repro.snapshot import (
    BOOL, FLOAT, INT, RNG, Array, Codec, Map, Nested, Opt, Seq,
    Snapshottable, Transient, Tup,
)
from repro.workloads.latency_critical import (
    LC_SERVICE_NAMES,
    LCService,
    service_times,
    service_variants,
)
from repro.workloads.queueing import ServiceTimes

#: Load grid used to bucket latency observations and training rows.
LOAD_GRID: Tuple[float, ...] = tuple(round(0.1 * i, 1) for i in range(1, 11))

#: Power readings at or below this magnitude (watts) count as "all
#: cores idle" for stuck-sensor detection: core powers are O(1-10) W,
#: so anything this small is numerical residue, not a live signal.
POWER_READING_EPS_W = 1e-9

#: A design-space explorer: DDS (CuttleSys) or the GA ablation.
Searcher = Union[DDSSearch, GeneticSearch]

log = get_logger("core.controller")

#: Each joint configuration's LLC ways, in dense-index order.
_CACHE_WAYS = np.array([joint.cache_ways for joint in JOINT_CONFIGS])
#: Dense index of the widest core with the full cache allocation.
_WIDEST_INDEX = JointConfig(CoreConfig.widest(), CACHE_ALLOCS[-1]).index


def nearest_load_bucket(load: float) -> float:
    """Snap a fractional load onto :data:`LOAD_GRID`."""
    return min(LOAD_GRID, key=lambda b: abs(b - load))


def _assignment(
    lc: Sequence[Tuple[int, JointConfig]],
    batch_configs: Sequence[Optional[JointConfig]],
) -> Assignment:
    """An assignment from (cores, config) per LC service, primary first."""
    (cores, config), *extra = lc
    return Assignment(
        lc_cores=cores,
        lc_config=config if cores > 0 else None,
        batch_configs=tuple(batch_configs),
        extra_lc=tuple(LCAllocation(cores=n, config=c) for n, c in extra),
    )


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
    """One LC service's choice in a decision, and the row behind it.

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
    #: Joint configuration chosen for those cores.
    config: JointConfig
    #: Reconstructed per-core power of ``config`` (watts).
    power_w: float
    #: Reconstructed p99 of ``config`` (seconds); NaN on cold start.
    p99_s: float
    #: Whether the service reclaimed a core from the batch jobs.
    reclaimed: bool
    latency_row: Optional[np.ndarray]

    def provenance(self) -> Dict[str, Any]:
        """The provenance record's ``lc`` entry for this service."""
        return {
            "service": self.service_idx,
            "load": float(self.load),
            "cores": int(self.cores),
            "config": int(self.config.index) if self.cores > 0 else None,
            "reclaimed": bool(self.reclaimed),
        }


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


#: A latency regime key: (service index, load bucket, cores).
Regime = Tuple[int, float, int]
REGIME = Tup(INT, FLOAT, INT)


class LatencyRegimes(Dict[Regime, ObservedMatrix]):
    """The latency matrix of each regime built so far.

    :meth:`known` builds a regime's matrix holding only its known rows;
    restore rebuilds every snapshotted regime through it and lays the
    runtime rows over the result.
    """

    def __init__(
        self,
        services: Sequence[LCService],
        train_services: Sequence[LCService],
        perf: PerformanceModel,
    ) -> None:
        super().__init__()
        self.services = services
        self.train_services = train_services
        self.perf = perf

    @functools.cached_property
    def train_times(self) -> ServiceTimes:
        """The training services' load-independent half
        (:func:`service_times`), built at the first regime build."""
        return service_times(self.train_services, self.perf)

    def known(self, key: Regime) -> ObservedMatrix:
        """A regime's latency matrix holding only its known rows.

        The training services' p99 at the regime's load bucket and core
        count, excluding the running service's own row; the last row is
        left for the running service's observations.
        """
        service_idx, bucket, n_cores = key
        # Looked up in this module on every call: perfbench times the
        # builds by wrapping repro.core.controller.latency_training_rows.
        rows, _ = latency_training_rows(
            self.train_services,
            [bucket],
            self.perf,
            n_cores,
            exclude=(self.services[service_idx].name, bucket),
            times=self.train_times,
        )
        matrix = ObservedMatrix(rows.shape[0] + 1)
        for i in range(rows.shape[0]):
            matrix.set_known_row(i, rows[i])
        return matrix


class _Regimes(Codec):
    """Snapshot codec of :class:`LatencyRegimes`, in build order: the
    controller breaks ties between regimes by that order, so a restored
    table must iterate as the uninterrupted one does."""

    def encode(self, value: LatencyRegimes) -> Any:
        return [[REGIME.encode(k), MATRIX.encode(m)] for k, m in value.items()]

    def decode(self, data: Any, current: LatencyRegimes) -> LatencyRegimes:
        regimes = LatencyRegimes(
            current.services, current.train_services, current.perf
        )
        for key_data, matrix in data:
            key = REGIME.decode(key_data, None)
            regimes[key] = MATRIX.decode(matrix, regimes.known(key))
        return regimes


REGIMES = _Regimes()


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
        "_latency_matrices": REGIMES,
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
        self.telemetry: Optional["Telemetry"] = telemetry
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
        #: (None before the first decision and after the fallback modes
        #: — safe mode, last_good, fair_share — where no trusted
        #: reconstruction backs the assignment).
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
        self._latency_matrices = LatencyRegimes(
            machine.lc_services, self._train_services, machine.perf
        )
        # Distinct configurations ever measured per (service, bucket,
        # cores) regime: the QoS guard relaxes on accumulated evidence
        # and stays relaxed even after observations expire.
        self._latency_evidence: Dict[Regime, set] = {}

        self._reconstructor = PQReconstructor(config.sgd)
        self._searcher: Searcher
        self._reduced_searcher: Optional[DDSSearch] = None
        if config.explorer == "dds":
            self._searcher = DDSSearch(config.dds)
            # Rung 1 of the degradation ladder (DDS only).
            self._reduced_searcher = DDSSearch(reduced_dds_params(config.dds))
        else:
            self._searcher = GeneticSearch(config.ga)

        # Virtual-time deadline metering (docs/robustness.md): the
        # reconstructor and searchers share this meter, whose budget's
        # exhaustion walks the degradation ladder in decide().
        self.budget = DecisionBudget(config.decision_budget)
        self.meter = PhaseMeter(tracer_of(telemetry), self.budget)
        self._reconstructor.meter = self._searcher.meter = self.meter
        if self._reduced_searcher is not None:
            self._reduced_searcher.meter = self.meter
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
        self.meter.tracer = tracer  # repro: noqa[SNAP701]

    @property
    def tracer(self) -> "Tracer | NullTracer":
        """Where the controller's and its metered phases' spans go."""
        return self.meter.tracer

    def _count(self, name: str, n: int = 1) -> None:
        """Increment a session counter, if a session is attached."""
        if self.telemetry is not None:
            self.telemetry.metrics.counter(name).inc(n)

    # ------------------------------------------------------------------
    # Decision provenance (repro.telemetry.provenance).
    # ------------------------------------------------------------------

    def _provenance_recorder(self) -> Optional[ProvenanceRecorder]:
        """The attached session's flight recorder, if recording."""
        return getattr(self.telemetry, "provenance", None)

    def budget_meter(
        self,
        full_cost: Optional[int] = None,
        reduced_cost: Optional[int] = None,
    ) -> Dict[str, Any]:
        """The deadline meter's readings, plus any search costs quoted.

        The provenance record's ``budget`` section and the server's
        ``ladder`` query both read it.
        """
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

    def safety(self) -> Dict[str, Any]:
        """Safe-mode and quarantine posture (provenance and ``ladder``)."""
        return {
            "safe_mode": self.in_safe_mode,
            "quarantined_jobs": int(np.count_nonzero(self._quarantine > 0)),
        }

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
            "safety": self.safety(),
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
            # Charged once per regime this controller builds: the key's
            # presence in _latency_matrices (snapshot state) decides,
            # and restore rebuilds its regimes without charging, so a
            # resumed run charges exactly what an uninterrupted one does.
            with self.meter.phase(MGK_LATENCY, kind="regime") as charge:
                matrix = self._latency_matrices.known(key)
                charge((matrix.n_rows - 1) * matrix.n_cols)
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

        :meth:`_commit` applies it to every decision: the search
        proposes configurations for vacant slots, and the fallback
        modes' cached assignments may predate a :meth:`remove_job`.
        Gating only ever removes load, so every power/way feasibility
        argument still holds.
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

    def _credible(
        self,
        matrices: Sequence[ObservedMatrix],
        which: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        mad_check: Union[bool, np.ndarray] = True,
    ) -> np.ndarray:
        """Which runtime observations are credible enough to ingest.

        Entry ``k`` is ``values[k]`` at column ``cols[k]`` of
        ``matrices[which[k]]``.  Rejects non-finite and negative values
        outright, then applies a MAD-based outlier test against the
        offline-characterised (known-row) population at the same
        configuration: a sample more than ``outlier_mad_threshold``
        robust standard deviations from the training median — with a
        floor of half the median, so heterogeneous-but-legitimate
        applications are not rejected — is treated as corrupted.

        Entries whose ``mad_check`` is False skip the population test;
        tail-latency samples do, because a saturated service
        legitimately posts p99s tens of times above the historical
        median, and rejecting them would hide exactly the QoS
        violations the reclaim ladder must react to.
        """
        ok = np.isfinite(values) & (values >= 0)
        tested = ok & mad_check
        if not tested.any():
            return ok
        threshold = self.config.outlier_mad_threshold
        for index, matrix in enumerate(matrices):
            test = np.flatnonzero(tested & (which == index))
            if not test.size:
                continue
            population = self._population(matrix)
            if population is None:
                continue
            med, scale = population
            col = cols[test]
            ok[test] = (
                np.abs(values[test] - med[col]) <= threshold * scale[col]
            )
        return ok

    @staticmethod
    def _population(
        matrix: ObservedMatrix,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Median and outlier scale of the known rows, per column; None
        when fewer than four rows are known.  Derived once per version
        of the known rows (:meth:`ObservedMatrix.derived`)."""

        def build() -> Optional[Tuple[np.ndarray, np.ndarray]]:
            known = matrix.values[matrix.known_rows]
            if known.shape[0] < 4:
                return None
            med = np.median(known, axis=0)
            mad_sigma = np.median(np.abs(known - med), axis=0) * 1.4826
            scale = np.maximum(np.maximum(mad_sigma, np.abs(med) * 0.5), 1e-12)
            return med, scale

        return matrix.derived("sanitise.population", build)

    def _sanitise(
        self,
        matrices: Sequence[ObservedMatrix],
        which: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        mad_check: Union[bool, np.ndarray] = True,
    ) -> np.ndarray:
        """Which runtime observations, in arrival order, may enter their
        matrix (entry ``k`` is ``values[k]`` at column ``cols[k]`` of
        ``matrices[which[k]]``).

        Hardened controllers drop what :meth:`_credible` rejects, and
        count it.  Unhardened controllers keep the original behaviour:
        the entries before the first non-finite value, at which
        :meth:`_observe` then raises (the failure mode the fault
        study's unhardened arm exhibits).
        """
        if not self.config.hardened:
            accepted = np.isfinite(values)
            if not accepted.all():
                accepted[np.argmin(accepted):] = False
            return accepted
        accepted = self._credible(matrices, which, cols, values, mad_check)
        if not accepted.all():
            rejected = np.flatnonzero(~accepted)
            self._rejections_this_quantum += int(rejected.size)
            self._count("faults.detected.bad_sample", int(rejected.size))
            for k in rejected:
                log.debug(
                    "rejected observation %.4g at config %d (non-finite "
                    "or outlier)", values[k], cols[k],
                )
        return accepted

    def _observe(
        self,
        matrices: Sequence[ObservedMatrix],
        which: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
        accepted: np.ndarray,
    ) -> None:
        """Write the entries :meth:`_sanitise` accepted, one write per
        matrix; unhardened, then let the first non-finite value's
        matrix raise."""
        for index, matrix in enumerate(matrices):
            take = accepted & (which == index)
            matrix.observe_many(rows[take], cols[take], values[take])
        if not self.config.hardened and not accepted.all():
            bad = int(np.argmin(accepted))
            matrices[which[bad]].observe(rows[bad], cols[bad], values[bad])

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
        # The samples in arrival order: per job its BIPS at the hi and
        # lo configurations, then its power at both; then every LC
        # service's power.
        hi_lo = (sample.hi_joint_index, sample.lo_joint_index)
        per_job = [sample.batch_bips_hi, sample.batch_bips_lo]
        if power_ok:
            per_job += [sample.batch_power_hi, sample.batch_power_lo]
        which = np.tile([0, 0, 1, 1][:len(per_job)], self.n_batch)
        rows = np.repeat(self._batch_row(0) + np.arange(self.n_batch),
                         len(per_job))
        cols = np.resize(hi_lo, which.size)
        values = np.column_stack(per_job).ravel()
        if power_ok:
            lc_power = np.column_stack((
                (sample.lc_power_hi, *sample.extra_lc_power_hi),
                (sample.lc_power_lo, *sample.extra_lc_power_lo),
            ))
            which = np.concatenate((which, np.ones(lc_power.size, int)))
            rows = np.concatenate((rows, np.repeat(
                self._lc_power_row(0) + np.arange(len(lc_power)), 2
            )))
            cols = np.concatenate((cols, np.resize(hi_lo, lc_power.size)))
            values = np.concatenate((values, lc_power.ravel()))
        matrices = (self._bips_matrix, self._power_matrix)
        accepted = self._sanitise(matrices, which, cols, values)
        self._observe(matrices, which, rows, cols, values, accepted)

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
        # The readings in arrival order, as (matrix, row, column,
        # value): per running job its BIPS and its power per core, a
        # non-positive reading skipped; then per LC service its p99 and
        # its core power.
        matrices = [self._bips_matrix, self._power_matrix]
        readings: List[Tuple[int, int, int, float]] = []
        if share > 0:
            for j in active:
                row = self._batch_row(j)
                col = assignment.batch_configs[j].index
                bips = measurement.batch_bips[j] / share
                power = measurement.batch_power[j] / share
                if bips > 0:
                    readings.append((0, row, col, bips))
                if power > 0:
                    readings.append((1, row, col, power))
        # Position of each LC p99 among the readings, with its regime.
        p99_at: Dict[int, Tuple[int, float, int]] = {}
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
            if not self.config.hardened and not all(
                math.isfinite(reading[3]) for reading in readings
            ):
                # Ingest raises at that reading, before this regime.
                break
            bucket = nearest_load_bucket(lc_load)
            matrices.append(self._latency_matrix(bucket, cores, idx))
            p99_at[len(readings)] = (idx, bucket, cores)
            readings.append((len(matrices) - 1, matrices[-1].n_rows - 1,
                             config.index, p99))
            if core_power > 0:
                readings.append(
                    (1, self._lc_power_row(idx), config.index, core_power)
                )
        table = np.array(readings, dtype=float).reshape(-1, 4)
        which, rows, cols = table[:, :3].T.astype(int)
        values = table[:, 3]
        # A saturated service's p99 is no outlier (see _credible).
        mad_check = np.ones(len(readings), dtype=bool)
        mad_check[list(p99_at)] = False
        accepted = self._sanitise(matrices, which, cols, values, mad_check)
        for k, key in p99_at.items():
            if accepted[k]:
                self._latency_evidence.setdefault(key, set()).add(int(cols[k]))
        self._observe(matrices, which, rows, cols, values, accepted)

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
        beyond the first on multi-service machines.  Every mode leaves
        through :meth:`_commit`.
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
                return self._commit(
                    "safe_mode",
                    self._conservative_assignment(CACHE_ALLOCS[0]),
                    (None, None), {},
                )

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
            lcs = self._scan_lc([load, *extra_loads], power_hat)
        record: Dict[str, Any] = {
            "reconstruction": {"bips": bips_diag, "power": power_diag},
            "lc": [lc.provenance() for lc in lcs],
        }

        mode, searcher, costs = self._price_search()
        if searcher is None:
            # Rung 2 re-serves the last assignment known good, else the
            # last one requested; rung 3, with neither, the fair share.
            return self._commit(
                mode,
                self.last_good_assignment
                or self._last_assignment
                or self._conservative_assignment(None),
                costs, record,
            )

        batch_bips = bips_hat[self.n_train:self.n_train + self.n_batch]
        batch_power = power_hat[self.n_train:self.n_train + self.n_batch]
        batch_cores = self.machine.params.n_cores - sum(lc.cores for lc in lcs)
        time_share = min(1.0, batch_cores / self.n_batch)
        reserved_power = (
            sum(lc.power_w * lc.cores for lc in lcs)
            + self.machine.power.llc_power()
        )
        reserved_ways = sum(lc.config.cache_ways for lc in lcs if lc.cores > 0)
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
            on = power_fallback(
                objective.power[np.arange(self.n_batch), x], reserved_power,
                target_power, self.machine.power.gated_core_power(),
            )
            configs = [cfg if keep else None for cfg, keep in zip(configs, on)]
            gated = int(np.count_nonzero(~on))
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
        if recorder is not None:
            chosen_power, chosen_ways, _, _ = classify_candidates(
                objective, x[None, :]
            )
            record.update({
                "power": {
                    "max_power_w": float(max_power),
                    "target_power_w": float(target_power),
                    "headroom_fraction": float(self.config.power_headroom),
                    "reserved_power_w": float(reserved_power),
                },
                "search": {
                    "searcher": (
                        self.config.explorer if mode == "normal" else mode
                    ),
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
        return self._commit(
            mode,
            _assignment([(lc.cores, lc.config) for lc in lcs], configs),
            costs, record,
            predict=lambda ran: self._predict_assignment(
                ran, batch_bips, batch_power, [lc.p99_s for lc in lcs],
                reserved_power, batch_cores, time_share,
            ),
            # Reconstructions are fresh arrays each quantum, so the
            # snapshot can hold views without copying.
            reconstruction=ReconstructionSnapshot(
                batch_bips=batch_bips, batch_power=batch_power, lc=lcs,
            ),
        )

    def _scan_lc(
        self, loads: Sequence[float], power_hat: np.ndarray
    ) -> Tuple[LCRegimeSnapshot, ...]:
        """Choose every LC service's cores and configuration (§VI-A).

        The paper relocates at most one core per timeslice; with
        several services the first to miss QoS in scan order wins it.
        """
        choices: List[LCRegimeSnapshot] = []
        reclaim_available = True
        for idx, load in enumerate(loads):
            previous_cores = self.lc_cores_by_service[idx]
            choice = self._select_lc(
                load,
                power_hat[self._lc_power_row(idx)],
                service_idx=idx,
                allow_reclaim=reclaim_available,
            )
            if choice.reclaimed:
                reclaim_available = False
                self._count("controller.core_reclamations")
                log.info(
                    "service %d reclaims a core (now %d): QoS "
                    "predicted unreachable at load %.2f",
                    idx, choice.cores, load,
                )
            elif choice.cores < previous_cores:
                self._count("controller.core_yields")
                log.info(
                    "service %d yields a core back to batch (now %d)",
                    idx, choice.cores,
                )
            choices.append(choice)
        return tuple(choices)

    def _commit(
        self,
        mode: str,
        assignment: Assignment,
        costs: Tuple[Optional[int], Optional[int]],
        record: Dict[str, Any],
        predict: Optional[Callable[[Assignment], DecisionPrediction]] = None,
        reconstruction: Optional[ReconstructionSnapshot] = None,
    ) -> Assignment:
        """The one exit of :meth:`decide`, whatever the mode.

        Gates vacant slots off, stores the decision state and emits the
        quantum's provenance record: ``mode``, the budget meter with
        the ladder's quoted ``costs``, then ``record``'s sections.
        ``predict`` maps the gated assignment, the one that runs, to
        its prediction.  The fallback modes pass neither it nor a
        ``reconstruction``: no trusted reconstruction backs their
        assignment, so it is paired with no prediction rather than a
        stale one, and the accuracy auditor counts the quantum as
        unaudited.
        """
        assignment = self._apply_job_mask(assignment)
        self.last_prediction = None if predict is None else predict(assignment)
        self.last_reconstruction = reconstruction
        self._last_assignment = assignment
        self.lc_cores_by_service = [
            cores for cores, _ in assignment.lc_allocations()
        ]
        self._emit_provenance(
            {"mode": mode, "budget": self.budget_meter(*costs), **record}
        )
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
        return _assignment(
            [(cores, conservative) for cores in self.lc_cores_by_service],
            configs,
        )

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

    def _price_search(
        self,
    ) -> Tuple[str, Optional[Searcher], Tuple[Optional[int], Optional[int]]]:
        """Pick this quantum's mode on the degradation ladder.

        The reconstructions already charged the budget; the search is
        priced before it runs, and the ladder steps down a rung when it
        does not fit (docs/robustness.md).  Returns the mode, the
        searcher to run — None on ``last_good`` and ``fair_share``,
        which serve without one — and the (full, reduced) search costs
        quoted.  The costs land in the provenance record's budget
        section, so ``repro explain`` can show why a rung was taken.
        """
        reduced = self._reduced_searcher
        if not self.budget.limited or reduced is None:
            return "normal", self._searcher, (None, None)
        warm = self._last_x is not None
        full_cost = dds_search_cost(self.config.dds, warm)
        if self.budget.can_afford(full_cost):
            return "normal", self._searcher, (full_cost, None)
        reduced_cost = dds_search_cost(reduced.params, warm)
        searcher: Optional[Searcher] = None
        if self.budget.can_afford(reduced_cost):
            mode, searcher = "reduced_dds", reduced
        elif (
            self.last_good_assignment is not None
            or self._last_assignment is not None
        ):
            mode = "last_good"
        else:
            mode = "fair_share"
        self._degradation_rung(mode)
        return mode, searcher, (full_cost, reduced_cost)

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
    ) -> LCRegimeSnapshot:
        """Choose one LC service's configuration and core count.

        §VI-A, §VIII-D3; ``allow_reclaim`` arbitrates the
        one-core-per-timeslice relocation budget among multiple
        services.  On the cold-start path the controller runs
        conservative without a prediction: the choice's p99 is NaN and
        its latency row None, so the accuracy auditor skips the regime.
        """
        service = self.machine.lc_services[service_idx]
        bucket = nearest_load_bucket(load)
        qos = service.qos_latency_s
        lc_cores = self.lc_cores_by_service[service_idx]
        conservative = JointConfig(CoreConfig.widest(), CACHE_ALLOCS[-1])

        if not self._latency_observations(bucket, lc_cores, service_idx):
            # Cold start at this (load, core count): run wide with the
            # full cache allocation; predictions become available once
            # one slice has been measured.
            return LCRegimeSnapshot(
                service_idx=service_idx, load=load, bucket=bucket,
                cores=lc_cores, config=conservative,
                power_w=float(lc_power_row[conservative.index]),
                p99_s=math.nan, reclaimed=False, latency_row=None,
            )

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
            if guard is None:
                guard = self._qos_guard(bucket, n_cores, service_idx)
            return self._least_power(
                predict(n_cores), lc_power_row, qos * (1.0 - guard)
            )

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
                predict(lc_cores), lc_power_row, qos
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
        latency_row = predict(lc_cores)
        return LCRegimeSnapshot(
            service_idx=service_idx, load=load, bucket=bucket,
            cores=lc_cores, config=choice,
            power_w=float(lc_power_row[choice.index]),
            p99_s=float(latency_row[choice.index]), reclaimed=reclaimed,
            latency_row=latency_row,
        )

    @staticmethod
    def _least_power(
        latency: np.ndarray, lc_power_row: np.ndarray, target: float
    ) -> Optional[JointConfig]:
        """Least power among configs whose latency is not above
        ``target``; ties break toward fewer cache ways, then the lower
        index.

        A NaN latency is not above the target, so its config competes.
        The powers are finite (a reconstruction).
        """
        meets = np.flatnonzero(~(latency > target))
        if not meets.size:
            return None
        # lexsort is stable and sorts by its last key first.
        order = np.lexsort((_CACHE_WAYS[meets], lc_power_row[meets]))
        return JointConfig.from_index(int(meets[order[0]]))

    @staticmethod
    def _safest_downgrade(
        latency: np.ndarray, lc_power_row: np.ndarray, qos: float
    ) -> Optional[JointConfig]:
        """Lowest-latency config that meets raw QoS and saves power;
        ties break toward less power, then the lower index.

        A config with a NaN latency is never chosen.  The powers are
        finite (a reconstruction).
        """
        wide_power = lc_power_row[_WIDEST_INDEX]
        meets = np.flatnonzero((latency <= qos) & (lc_power_row < wide_power))
        if not meets.size:
            return None
        order = np.lexsort((lc_power_row[meets], latency[meets]))
        return JointConfig.from_index(int(meets[order[0]]))

    def _latency_observations(
        self, bucket: float, n_cores: int, service_idx: int = 0
    ) -> int:
        """Measurements of one running service at this (load, cores)."""
        key = (service_idx, bucket, n_cores)
        if key not in self._latency_matrices:
            return 0
        matrix = self._latency_matrices[key]
        return matrix.observed_count(matrix.n_rows - 1)

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
