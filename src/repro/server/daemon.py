"""The asyncio scheduler daemon: sockets in front, quanta behind.

:class:`SchedulerDaemon` binds one TCP port that speaks the protocol
of :mod:`repro.server.protocol`: NDJSON request/response with
``subscribe`` push streams, plus a one-shot read-only HTTP/1.1 surface
(``GET /status``, ``GET /metrics``, ``GET /decisions``) sniffed off
the first request line.

Every connection owns one **outbox** queue carrying both its responses
and its subscription events; a single writer task drains it in enqueue
order.  Decision events are published synchronously inside
``driver.tick()`` — before the tick's own response is enqueued — so a
subscriber always sees ``quantum`` and ``decision`` events for tick N
ahead of the reply that reported N.  That fixed interleaving is what
lets the scripted-client tests diff whole session transcripts.

Ticking is **virtual-time** by default: quanta advance only when a
client sends ``tick``, which is the deterministic mode the golden
streams and kill/resume tests run under.  ``--real-time`` starts a
background pacer that ticks every ``quantum_s`` seconds — explicitly
outside the determinism contract.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Set

from repro.fleet.pool import FleetPool, PoolParams
from repro.logs import get_logger
from repro.server.driver import QuantumDriver, ServerConfig
from repro.server.protocol import (
    ProtocolError,
    encode_line,
    error_response,
    http_response,
    looks_like_http,
    ok_response,
    parse_http_request_line,
    parse_request,
)
from repro.server.session import CONNECTION_OPS, CommandExecutor
from repro.telemetry import Telemetry

log = get_logger("server.daemon")

__all__ = ["SchedulerDaemon", "ServerConfig", "run_daemon"]

#: Outbox depth per connection; a full outbox *drops* events (never
#: responses) so one slow subscriber cannot stall the decision loop.
OUTBOX_CAP = 1024

#: Maximum request-line length; longer lines reject the connection.
MAX_LINE = 1 << 20


class _Connection:
    """Per-connection state: the outbox and its subscription flag."""

    def __init__(self, peer: str) -> None:
        self.peer = peer
        self.outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue(
            maxsize=OUTBOX_CAP
        )
        self.subscribed = False
        self.dropped_events = 0


class SchedulerDaemon:
    """One scheduler daemon instance (build, :meth:`serve`, stop)."""

    def __init__(
        self, config: ServerConfig, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.config = config
        if telemetry is None:
            telemetry = Telemetry()
            telemetry.enable_accuracy_audit()
        self.telemetry = telemetry
        self.driver = QuantumDriver(
            config, telemetry=telemetry, on_event=self._publish_event
        )
        if config.resume and config.state_path is not None and (
            Path(config.state_path).exists()
        ):
            self.driver.resume_from()
        #: What-if pool, shared across every FleetRun the daemon's
        #: lifetime sees: its workers start with the first multi-app
        #: probe and persist until shutdown closes it.
        self.whatif_pool = FleetPool(PoolParams(
            jobs=max(1, config.whatif_jobs),
        ))
        self.executor = CommandExecutor(
            self.driver, telemetry=telemetry, whatif_pool=self.whatif_pool
        )
        self._connections: Set[_Connection] = set()
        self._server: Optional[asyncio.AbstractServer] = None
        # asyncio primitives bind the running loop on some supported
        # Pythons, so they are created inside serve(), not here.
        self._stop: Optional["asyncio.Event"] = None
        self._stop_requested = False
        self._tick_lock: Optional["asyncio.Lock"] = None
        self._whatif_lock: Optional["asyncio.Lock"] = None
        self._pacer: Optional["asyncio.Task[None]"] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Event fan-out (called synchronously from inside driver.tick()).
    # ------------------------------------------------------------------

    def _publish_event(self, event: Dict[str, Any]) -> None:
        payload = dict(event)
        payload["event"] = payload.pop("kind", "event")
        line = encode_line(payload)
        for conn in self._connections:
            if not conn.subscribed:
                continue
            try:
                conn.outbox.put_nowait(line)
            except asyncio.QueueFull:
                # Observability, not results: drop rather than stall.
                conn.dropped_events += 1
                self.telemetry.metrics.counter(
                    "server.events_dropped"
                ).inc()

    # ------------------------------------------------------------------
    # Serving.
    # ------------------------------------------------------------------

    async def serve(self) -> None:
        """Bind, serve until ``shutdown`` (or stop()), then clean up."""
        self._stop = asyncio.Event()
        if self._stop_requested:
            self._stop.set()
        self._tick_lock = asyncio.Lock()
        self._whatif_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file is not None:
            self._write_port_file(self.config.port_file, self.port)
        log.info(
            "scheduler daemon listening on %s:%d (mix %d, %s time)",
            self.config.host, self.port, self.config.mix,
            "real" if self.config.real_time else "virtual",
        )
        if self.config.real_time:
            self._pacer = asyncio.ensure_future(self._pace())
        try:
            await self._stop.wait()
        finally:
            if self._pacer is not None:
                self._pacer.cancel()
            self._server.close()
            await self._server.wait_closed()
            for conn in list(self._connections):
                try:
                    conn.outbox.put_nowait(None)
                except asyncio.QueueFull:
                    pass
            self.whatif_pool.close()
            self.driver.write_snapshot()
            log.info("scheduler daemon stopped at quantum %d",
                     self.driver.quantum)

    def stop(self) -> None:
        self._stop_requested = True
        if self._stop is not None:
            self._stop.set()

    def _write_port_file(self, path: str, port: int) -> None:
        # Sync and tiny, but called once from async serve(): routed
        # through Path.write_text via this helper (SRV801).
        Path(path).write_text(f"{port}\n", encoding="utf-8")

    async def _pace(self) -> None:
        """Real-time mode: one quantum per ``quantum_s`` wall seconds."""
        while not self._stop.is_set():
            await asyncio.sleep(self.config.quantum_s)
            if self.driver.stepper.done:
                log.info("pacer: max_quanta reached; stopping")
                self.stop()
                return
            async with self._tick_lock:
                self.driver.tick()

    # ------------------------------------------------------------------
    # Connection handling.
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
    ) -> None:
        peername = writer.get_extra_info("peername")
        conn = _Connection(str(peername))
        self._connections.add(conn)
        self.telemetry.metrics.counter("server.connections").inc()
        sender = asyncio.ensure_future(self._drain_outbox(conn, writer))
        try:
            first = await reader.readline()
            if not first:
                return
            if looks_like_http(first):
                await self._handle_http(first, reader, writer, conn)
                return
            await self._handle_line(first, conn)
            while not self._stop.is_set():
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                await self._handle_line(line, conn)
        finally:
            self._connections.discard(conn)
            try:
                conn.outbox.put_nowait(None)
            except asyncio.QueueFull:
                sender.cancel()
            try:
                await sender
            except asyncio.CancelledError:
                pass
            writer.close()

    async def _drain_outbox(
        self, conn: _Connection, writer: "asyncio.StreamWriter"
    ) -> None:
        """The connection's single writer: strict enqueue order."""
        while True:
            item = await conn.outbox.get()
            if item is None:
                return
            try:
                writer.write(item)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                return

    async def _send(self, conn: _Connection, payload: Dict[str, Any]) -> None:
        await conn.outbox.put(encode_line(payload))

    async def _handle_line(self, raw: bytes, conn: _Connection) -> None:
        if len(raw) > MAX_LINE:
            await self._send(conn, error_response(
                "bad_request", "request line too long"
            ))
            return
        text = raw.decode("utf-8", errors="replace").strip()
        if not text:
            return
        try:
            request = parse_request(text)
        except ProtocolError as exc:
            await self._send(conn, error_response(exc.code, str(exc)))
            return
        self.telemetry.metrics.counter("server.requests").inc()
        op = request["op"]
        if op in CONNECTION_OPS:
            await self._send(conn, self._connection_op(op, request, conn))
            return
        if op == "whatif" and "apps" in request:
            # Fleet-backed probes run off-loop; serialized so the
            # shared pool only ever serves one map at a time.
            async with self._whatif_lock:
                loop = asyncio.get_running_loop()
                response = await loop.run_in_executor(
                    None, self.executor.execute, request
                )
            await self._send(conn, response)
            return
        if op == "tick":
            async with self._tick_lock:
                response = self.executor.execute(request)
            await self._send(conn, response)
            return
        await self._send(conn, self.executor.execute(request))

    def _connection_op(
        self, op: str, request: Dict[str, Any], conn: _Connection
    ) -> Dict[str, Any]:
        if op == "subscribe":
            conn.subscribed = True
            return ok_response("subscribe", request, subscribed=True)
        if op == "unsubscribe":
            conn.subscribed = False
            return ok_response(
                "unsubscribe", request,
                subscribed=False, dropped_events=conn.dropped_events,
            )
        # shutdown
        self.stop()
        return ok_response(
            "shutdown", request, quantum=self.driver.quantum
        )

    # ------------------------------------------------------------------
    # HTTP convenience surface (read-only, one exchange per socket).
    # ------------------------------------------------------------------

    async def _handle_http(
        self,
        first: bytes,
        reader: "asyncio.StreamReader",
        writer: "asyncio.StreamWriter",
        conn: _Connection,
    ) -> None:
        try:
            method, path = parse_http_request_line(first)
        except ProtocolError:
            await conn.outbox.put(http_response(
                "400 Bad Request", "text/plain", b"malformed request\n"
            ))
            return
        # Drain (and ignore) the request headers.
        while True:
            line = await reader.readline()
            if not line or line in (b"\r\n", b"\n"):
                break
        if method not in ("GET", "HEAD"):
            await conn.outbox.put(http_response(
                "405 Method Not Allowed", "text/plain",
                b"read-only surface; use the NDJSON protocol to act\n",
            ))
            return
        body, content_type, status = self._http_get(path.split("?")[0])
        if method == "HEAD":
            body = b""
        await conn.outbox.put(http_response(status, content_type, body))

    def _http_get(self, path: str) -> Any:
        if path == "/status":
            payload = self.executor.execute({"op": "status"})
            body = json.dumps(
                payload, sort_keys=True, indent=2
            ).encode("utf-8") + b"\n"
            return body, "application/json", "200 OK"
        if path == "/metrics":
            text = self.executor.prometheus_text()
            return (
                text.encode("utf-8"),
                "text/plain; version=0.0.4",
                "200 OK",
            )
        if path == "/decisions":
            return (
                self._decision_stream_bytes(),
                "application/x-ndjson",
                "200 OK",
            )
        return (
            b"unknown path; try /status /metrics /decisions\n",
            "text/plain",
            "404 Not Found",
        )

    def _decision_stream_bytes(self) -> bytes:
        path = self.config.decisions_path
        if path is not None and Path(path).exists():
            return Path(path).read_bytes()
        tail = self.driver._decision_tail
        if not tail:
            return b""
        return ("\n".join(tail) + "\n").encode("utf-8")


def run_daemon(config: ServerConfig) -> None:
    """Build a daemon and serve until shutdown (the CLI entry point)."""
    daemon = SchedulerDaemon(config)
    try:
        asyncio.run(daemon.serve())
    except KeyboardInterrupt:
        # ^C is a normal way to stop a foreground daemon; the final
        # snapshot was already written if serve() reached its cleanup.
        log.info("interrupted; daemon exiting")
