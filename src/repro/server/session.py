"""Synchronous request execution behind the asyncio front door.

:class:`CommandExecutor` maps one parsed NDJSON request to one response
dict.  It is deliberately free of sockets and event loops — the daemon
calls it from its async handlers, the tests call it directly — so every
op's behaviour (including all admission-rejection paths) is exercisable
without standing up a server.

Three ops never reach the executor: ``subscribe``/``unsubscribe``
mutate per-connection state and ``shutdown`` stops the event loop, so
the daemon handles them in its connection handler.  ``whatif`` has a
sync entry point here but the daemon runs it on an executor thread to
keep the event loop responsive.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.server.admission import JobSpec
from repro.server.driver import QuantumDriver
from repro.server.protocol import (
    PROTOCOL_VERSION,
    KNOWN_OPS,
    ProtocolError,
    error_response,
    ok_response,
)
from repro.server.whatif import dry_run_admission, run_whatif
from repro.telemetry.accuracy import render_accuracy_report
from repro.telemetry.exporters import render_prometheus

__all__ = ["CommandExecutor"]

#: Ops the daemon intercepts before the executor sees them.
CONNECTION_OPS = frozenset({"subscribe", "unsubscribe", "shutdown"})

#: Upper bound on quanta one ``tick`` request may advance.
MAX_TICK_BATCH = 1000


def _spec_from_request(request: Dict[str, Any]) -> JobSpec:
    kind = request.get("kind")
    name = request.get("name")
    if not isinstance(kind, str) or not isinstance(name, str):
        raise ProtocolError(
            "bad_request", "submit needs string 'kind' and 'name'"
        )
    try:
        return JobSpec(
            kind=kind,
            name=name,
            tenant=str(request.get("tenant", "default")),
            priority=int(request.get("priority", 0)),
            qos_ms=(
                float(request["qos_ms"])
                if request.get("qos_ms") is not None else None
            ),
            rps=(
                float(request["rps"])
                if request.get("rps") is not None else None
            ),
        )
    except (TypeError, ValueError) as exc:
        raise ProtocolError("bad_request", f"malformed job spec: {exc}")


class CommandExecutor:
    """Executes sync ops against one driver/admission/telemetry trio."""

    def __init__(
        self,
        driver: QuantumDriver,
        telemetry: Any = None,
        whatif_pool: Any = None,
    ) -> None:
        self.driver = driver
        self.telemetry = telemetry
        self.whatif_pool = whatif_pool

    def execute(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One request in, one response out; never raises for bad input."""
        op = request["op"]
        handler = getattr(self, f"_op_{op}", None)
        if handler is None:
            return error_response(
                "unsupported_op",
                f"op {op!r} is not served by this endpoint",
                op=op, request=request,
            )
        try:
            return handler(request)
        except ProtocolError as exc:
            return error_response(exc.code, str(exc), op=op, request=request)

    # ------------------------------------------------------------------

    def _op_hello(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(
            "hello", request,
            protocol=PROTOCOL_VERSION,
            server="repro-scheduler",
            mix=self.driver.config.mix,
            seed=self.driver.config.seed,
            real_time=self.driver.config.real_time,
            ops=sorted(KNOWN_OPS),
            services=[s.name for s in self.driver.machine.lc_services],
            batch_slots=len(self.driver.machine.batch_profiles),
        )

    def _op_submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        spec = _spec_from_request(request)
        job = self.driver.admission.submit(spec, self.driver.quantum)
        return ok_response("submit", request, job=job.describe())

    def _op_cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = request.get("job_id")
        if not isinstance(job_id, str):
            raise ProtocolError("bad_request", "cancel needs 'job_id'")
        job = self.driver.cancel_job(job_id)
        if job is None:
            raise ProtocolError("unknown_job", f"no such job {job_id!r}")
        return ok_response("cancel", request, job=job.describe())

    def _op_set_rps(self, request: Dict[str, Any]) -> Dict[str, Any]:
        job_id = request.get("job_id")
        rps = request.get("rps")
        if not isinstance(job_id, str) or rps is None:
            raise ProtocolError(
                "bad_request", "set_rps needs 'job_id' and 'rps'"
            )
        try:
            job = self.driver.set_rps(job_id, float(rps))
        except (TypeError, ValueError) as exc:
            raise ProtocolError("bad_rps", str(exc))
        if job is None:
            raise ProtocolError("unknown_job", f"no such job {job_id!r}")
        return ok_response("set_rps", request, job=job.describe())

    def _op_status(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(
            "status", request,
            driver=self.driver.describe(),
            admission=self.driver.admission.describe(),
        )

    def _op_jobs(self, request: Dict[str, Any]) -> Dict[str, Any]:
        state = request.get("state")
        admission = self.driver.admission
        jobs = [
            job.describe()
            for job in sorted(
                [*admission.jobs.values(), *admission.ended],
                key=lambda job: job.job_id,
            )
            if state is None or job.state == state
        ]
        return ok_response("jobs", request, jobs=jobs)

    def _op_decisions(self, request: Dict[str, Any]) -> Dict[str, Any]:
        since = int(request.get("since", 0))
        limit = int(request.get("limit", 100))
        return ok_response(
            "decisions", request,
            decisions=self.driver.recent_decisions(since, limit),
        )

    def _op_ladder(self, request: Dict[str, Any]) -> Dict[str, Any]:
        return ok_response(
            "ladder", request, ladder=self.driver.ladder_state()
        )

    def _op_audit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.telemetry is None or self.telemetry.auditor is None:
            raise ProtocolError(
                "no_audit", "accuracy auditing is not enabled"
            )
        return ok_response(
            "audit", request,
            report=render_accuracy_report(self.telemetry),
            drifting=list(self.telemetry.auditor.drifting_metrics),
        )

    def _op_metrics(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.telemetry is None:
            raise ProtocolError("no_telemetry", "telemetry is disabled")
        return ok_response(
            "metrics", request,
            prometheus=self.prometheus_text(),
        )

    def prometheus_text(self) -> str:
        """Prometheus exposition text (shared with ``GET /metrics``)."""
        if self.telemetry is None:
            return ""
        return render_prometheus(self.telemetry.metrics)

    def _op_tick(self, request: Dict[str, Any]) -> Dict[str, Any]:
        count = int(request.get("count", 1))
        if not 1 <= count <= MAX_TICK_BATCH:
            raise ProtocolError(
                "bad_request",
                f"tick count must be in [1, {MAX_TICK_BATCH}]",
            )
        records: List[Dict[str, Any]] = []
        for _ in range(count):
            try:
                records.append(self.driver.tick())
            except RuntimeError as exc:
                raise ProtocolError("exhausted", str(exc))
        return ok_response(
            "tick", request,
            quantum=self.driver.quantum,
            decisions=records,
        )

    def _op_snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        if self.driver.config.state_path is None:
            raise ProtocolError(
                "no_state_path", "daemon was started without --state"
            )
        self.driver.write_snapshot()
        return ok_response(
            "snapshot", request,
            path=self.driver.config.state_path,
            quantum=self.driver.quantum,
        )

    def _op_whatif(self, request: Dict[str, Any]) -> Dict[str, Any]:
        # Dry-run admission of a full spec...
        if "kind" in request:
            spec = _spec_from_request(request)
            return ok_response(
                "whatif", request,
                **dry_run_admission(self.driver.admission, spec),
            )
        # ...or a fleet-backed probe of candidate batch apps.
        apps = request.get("apps")
        if not isinstance(apps, list) or not all(
            isinstance(a, str) for a in apps
        ) or not apps:
            raise ProtocolError(
                "bad_request",
                "whatif needs a job spec ('kind'...) or 'apps' list",
            )
        known = set(self.driver.admission.known_batch_apps)
        unknown = sorted(set(apps) - known)
        if unknown:
            raise ProtocolError(
                "unknown_app", f"unknown app(s): {', '.join(unknown)}"
            )
        probes = run_whatif(
            self.whatif_pool,
            self.driver.config.mix,
            self.driver.config.seed,
            apps,
            n_slices=int(request.get("n_slices", 3)),
            telemetry=self.telemetry,
        )
        return ok_response("whatif", request, probes=probes)
