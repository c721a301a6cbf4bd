"""The asyncio HTTP shell around the deterministic service core.

:class:`ServiceServer` runs two things on one event loop:

* a **tick task** that advances the journaled
  :class:`~repro.service.checkpoint.ServiceSession` every
  ``tick_interval_s`` *wall* seconds. Simulated time is decoupled from
  wall time: each tick advances the simulation by exactly
  ``config.tick_s`` regardless of how long the wall interval was, so a
  slow host changes pacing, never physics;
* a stdlib HTTP/1.1 listener (``asyncio.start_server`` — no new
  dependencies) serving telemetry, streaming metrics, health probes,
  and operator actions.

Because the event loop is single-threaded and ``ServiceCore.tick()``
is fully synchronous (it never awaits), every HTTP handler naturally
observes the service *between* ticks — operator ops can never land
mid-tick, which is exactly the boundary the write-ahead log records
them against.

Endpoints
---------

``GET /healthz``
    Liveness: 200 while the tick loop is advancing, 503 once it has
    stalled for ``stall_ticks`` intervals (a wedged loop must fail its
    probe, not report vacuous health).
``GET /readyz``
    Readiness: 200 once the session is open and the first tick has
    completed, 503 before that. Reports whether the session
    ``resumed`` from a WAL, the snapshot tick it was ``restored_tick``
    from (0 when it replayed from tick 0) and the WAL
    ``records_read`` to get there.
``GET /telemetry``
    The full :meth:`~repro.service.core.ServiceCore.snapshot` — all
    counters, ladder stages, thermal state — as sorted-key JSON.
``GET /metrics?since=N``
    Tick samples with index > N from the in-memory history (bounded by
    ``config.history_ticks``), for poll-based scrapers.
``GET /stream``
    Server-sent events: one ``data:`` line per completed tick, pushed
    as it happens. ``?ticks=K`` closes the stream after K events.
``POST /ops``
    Apply one operator op (JSON body, see
    :data:`~repro.service.core.OP_KINDS`). The op is validated,
    applied at the next tick boundary, and journaled before the 200
    response is written — an acked op survives a SIGKILL.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Mapping
from urllib.parse import parse_qs, urlsplit

from ..errors import ReproError
from .checkpoint import ServiceSession
from .core import ServiceConfig, TickSample

#: Bound on one HTTP request's wall time (read + handle + write).
REQUEST_TIMEOUT_S = 30.0
#: Largest accepted request body (operator ops are tiny).
MAX_BODY_BYTES = 64 * 1024
#: ``/healthz`` fails after this many tick intervals without a tick.
DEFAULT_STALL_TICKS = 50


def _json_bytes(payload: Any) -> bytes:
    """Sorted-key JSON, so successive snapshots diff cleanly."""
    return (json.dumps(payload, sort_keys=True) + "\n").encode()


def _sample_dict(sample: TickSample) -> dict[str, Any]:
    return dataclasses.asdict(sample)


class _HttpError(Exception):
    """An error with a definite HTTP status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclasses.dataclass
class _Request:
    method: str
    path: str
    query: dict[str, list[str]]
    body: bytes


class ServiceServer:
    """One live service: journaled core + tick loop + HTTP listener.

    ``port=0`` binds an ephemeral port (see :attr:`bound_port` after
    :meth:`start`) — the in-process load test uses this.
    """

    def __init__(
        self,
        cache_dir: str | Path,
        run_id: str,
        seed: int,
        config: ServiceConfig | None = None,
        mode: str = "robust",
        host: str = "127.0.0.1",
        port: int = 8642,
        tick_interval_s: float = 0.25,
        max_ticks: int | None = None,
        stall_ticks: int = DEFAULT_STALL_TICKS,
    ) -> None:
        if not (math.isfinite(tick_interval_s) and tick_interval_s > 0):
            raise ReproError(
                f"tick_interval_s must be positive and finite, got {tick_interval_s}"
            )
        if max_ticks is not None and max_ticks < 1:
            raise ReproError("max_ticks must be at least 1 (or None)")
        self.session = ServiceSession(
            cache_dir, run_id, seed=seed, config=config, mode=mode
        )
        self.host = host
        self.port = port
        self.tick_interval_s = tick_interval_s
        self.max_ticks = max_ticks
        self.stall_ticks = stall_ticks
        self.requests_served = 0
        self._server: asyncio.AbstractServer | None = None
        self._tick_task: asyncio.Task | None = None
        self._last_tick_wall: float | None = None
        self._first_tick_done = False
        self._stopping = False
        #: Replaced each tick; stream subscribers await the current one.
        self._tick_event: asyncio.Event = asyncio.Event()
        self._last_sample: TickSample | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def bound_port(self) -> int:
        """The actual listening port (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            raise ReproError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    @property
    def core(self):
        if self.session.core is None:
            raise ReproError("server is not started")
        return self.session.core

    async def start(self) -> None:
        """Open (or resume) the session, bind the port, start ticking.

        If the port cannot be bound, the session's WAL is closed again
        before the error propagates.
        """
        self.session.open()
        try:
            self._server = await asyncio.start_server(
                self._handle_client, self.host, self.port
            )
        except BaseException:
            self.session.close()
            raise
        self._tick_task = asyncio.ensure_future(self._tick_loop())

    async def stop(self) -> None:
        """Stop ticking, close the listener, close the WAL. Idempotent."""
        if self._stopping:
            return
        self._stopping = True
        # Wake any /stream subscriber blocked on the next tick so it can
        # observe the shutdown instead of pinning the listener open.
        self._tick_event.set()
        if self._tick_task is not None:
            self._tick_task.cancel()
            try:
                await self._tick_task
            except asyncio.CancelledError:
                pass
            self._tick_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.session.close()

    async def serve_forever(self) -> None:
        """Run until cancelled (or ``max_ticks`` is reached)."""
        await self.start()
        assert self._tick_task is not None
        try:
            await self._tick_task
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # The tick loop
    # ------------------------------------------------------------------
    async def _tick_loop(self) -> None:
        loop = asyncio.get_event_loop()
        next_at = loop.time()
        while self.max_ticks is None or self.core.tick_index < self.max_ticks:
            sample = self.session.tick()
            self._first_tick_done = True
            self._last_tick_wall = loop.time()
            self._last_sample = sample
            # Wake every stream subscriber, then arm a fresh event for
            # the next tick.
            event, self._tick_event = self._tick_event, asyncio.Event()
            event.set()
            next_at += self.tick_interval_s
            delay = next_at - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            else:
                # Fell behind wall clock: resynchronize instead of
                # spiraling into a zero-sleep catch-up burst. Simulated
                # time is unaffected — ticks just pace slower.
                next_at = loop.time()
                await asyncio.sleep(0)

    def _healthy(self) -> bool:
        if self._last_tick_wall is None:
            return False
        if self._tick_task is not None and self._tick_task.done():
            # A finished bounded run is still healthy; a crashed loop
            # is not.
            return self._tick_task.exception() is None
        loop = asyncio.get_event_loop()
        budget = self.stall_ticks * self.tick_interval_s
        return loop.time() - self._last_tick_wall < budget

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self._stopping:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader), REQUEST_TIMEOUT_S
                    )
                except asyncio.TimeoutError:
                    break
                if request is None:
                    break
                self.requests_served += 1
                try:
                    keep_alive = await self._dispatch(request, writer)
                except _HttpError as error:
                    keep_alive = await self._respond(
                        writer, error.status, {"error": str(error)}
                    )
                except ReproError as error:
                    keep_alive = await self._respond(
                        writer, 400, {"error": str(error)}
                    )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # Teardown path: the loop may cancel lingering handlers
                # at shutdown; the socket is closed either way.
                pass

    async def _read_request(self, reader: asyncio.StreamReader) -> _Request | None:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("latin-1").split()
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        return _Request(
            method=method.upper(),
            path=split.path,
            query=parse_qs(split.query),
            body=body,
        )

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        keep_alive: bool = True,
    ) -> bool:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
                  405: "Method Not Allowed", 413: "Payload Too Large",
                  503: "Service Unavailable"}.get(status, "OK")
        body = _json_bytes(payload)
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
        return keep_alive

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> bool:
        if request.path == "/healthz":
            if request.method != "GET":
                raise _HttpError(405, "healthz is GET-only")
            healthy = self._healthy()
            return await self._respond(
                writer,
                200 if healthy else 503,
                {
                    "status": "ok" if healthy else "stalled",
                    "tick": self.core.tick_index,
                    "time_s": self.core.now,
                },
            )
        if request.path == "/readyz":
            if request.method != "GET":
                raise _HttpError(405, "readyz is GET-only")
            ready = self._first_tick_done and not self._stopping
            return await self._respond(
                writer,
                200 if ready else 503,
                {
                    "status": "ready" if ready else "warming",
                    "resumed": self.session.resumed,
                    "restored_tick": self.session.restored_tick,
                    "records_read": self.session.records_read,
                },
            )
        if request.path == "/telemetry":
            if request.method != "GET":
                raise _HttpError(405, "telemetry is GET-only")
            snapshot = self.core.snapshot()
            snapshot["requests_served"] = self.requests_served
            return await self._respond(writer, 200, snapshot)
        if request.path == "/metrics":
            if request.method != "GET":
                raise _HttpError(405, "metrics is GET-only")
            since = int(request.query.get("since", ["0"])[0])
            samples = [
                _sample_dict(sample)
                for sample in self.core.history
                if sample.tick > since
            ]
            return await self._respond(
                writer,
                200,
                {"latest": self.core.tick_index, "samples": samples},
            )
        if request.path == "/stream":
            if request.method != "GET":
                raise _HttpError(405, "stream is GET-only")
            limit = int(request.query.get("ticks", ["0"])[0])
            await self._stream(writer, limit)
            return False
        if request.path == "/ops":
            if request.method != "POST":
                raise _HttpError(405, "ops is POST-only")
            try:
                op = json.loads(request.body.decode() or "{}")
            except json.JSONDecodeError as error:
                raise _HttpError(400, f"op body is not JSON: {error}") from None
            if not isinstance(op, Mapping):
                raise _HttpError(400, "op body must be a JSON object")
            try:
                detail = self.session.apply_op(op)
            except (KeyError, TypeError, ValueError) as error:
                raise _HttpError(400, f"malformed op: {error!r}") from None
            return await self._respond(
                writer,
                200,
                {"applied": op.get("op"), "detail": detail, "tick": self.core.tick_index},
            )
        raise _HttpError(404, f"no route for {request.method} {request.path}")

    async def _stream(self, writer: asyncio.StreamWriter, limit: int) -> None:
        """Push one SSE event per tick until the client leaves."""
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()
        sent = 0
        while not self._stopping and (limit <= 0 or sent < limit):
            event = self._tick_event
            await event.wait()
            sample = self._last_sample
            if sample is None:
                continue
            try:
                # _json_bytes ends with one newline; the second blank
                # line terminates the SSE event frame.
                writer.write(b"data: " + _json_bytes(_sample_dict(sample)) + b"\n")
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                return
            sent += 1


async def _run_server(server: ServiceServer) -> None:
    """Drive one server, translating cancellation into clean teardown."""
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        await server.stop()


def serve(
    cache_dir: str | Path,
    run_id: str,
    seed: int,
    config: ServiceConfig | None = None,
    mode: str = "robust",
    host: str = "127.0.0.1",
    port: int = 8642,
    tick_interval_s: float = 0.25,
    max_ticks: int | None = None,
) -> int:
    """Blocking entry point for ``python -m repro serve``."""
    server = ServiceServer(
        cache_dir,
        run_id,
        seed=seed,
        config=config,
        mode=mode,
        host=host,
        port=port,
        tick_interval_s=tick_interval_s,
        max_ticks=max_ticks,
    )
    try:
        asyncio.run(_run_server(server))
    except KeyboardInterrupt:
        pass
    return 0


__all__ = ["ServiceServer", "serve", "REQUEST_TIMEOUT_S", "DEFAULT_STALL_TICKS"]
