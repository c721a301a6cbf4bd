"""In-process HTTP API tests: endpoints, ops, and a sustained load test.

The load test is the acceptance gate for the asyncio shell: a fleet of
concurrent client coroutines drives well over a thousand requests at a
:class:`~repro.service.server.ServiceServer` bound to an ephemeral port
*while the tick loop advances the simulation*, and every request must
complete within a generous wall-clock SLO. Everything runs on one event
loop in one process — no sockets leave localhost, no external client
library is involved — so the test is fast and deterministic enough for
the default suite.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import pytest

from repro.service import ServiceServer, ServiceSession

#: Concurrency x depth of the load test (>= 1k requests total).
LOAD_CLIENTS = 8
LOAD_REQUESTS_PER_CLIENT = 150
#: Per-request wall SLO for the in-process load test. Generous: the
#: handlers are O(snapshot) and the loop is shared with the tick task.
LOAD_SLO_S = 0.25


async def _request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: dict | None = None,
    reader: asyncio.StreamReader | None = None,
    writer: asyncio.StreamWriter | None = None,
) -> tuple[int, dict, bool]:
    """One HTTP exchange; returns (status, payload, connection_alive)."""
    opened_here = writer is None
    if opened_here:
        reader, writer = await asyncio.open_connection(host, port)
    assert reader is not None and writer is not None
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\n"
        f"Host: {host}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        "\r\n"
    ).encode()
    writer.write(head + payload)
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    length = 0
    keep_alive = False
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, _, value = raw.decode().partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
        if name.strip().lower() == "connection":
            keep_alive = value.strip().lower() == "keep-alive"
    data = json.loads(await reader.readexactly(length)) if length else {}
    if opened_here:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass
    return status, data, keep_alive


async def _start_server(tmp_path, **kwargs) -> ServiceServer:
    defaults = dict(
        cache_dir=str(tmp_path),
        run_id="http-test",
        seed=5,
        port=0,
        tick_interval_s=0.02,
    )
    defaults.update(kwargs)
    server = ServiceServer(**defaults)
    await server.start()
    return server


async def _wait_ready(server: ServiceServer) -> None:
    while not server._first_tick_done:
        await asyncio.sleep(0.005)


class TestEndpoints:
    def test_health_ready_telemetry_and_metrics(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                host, port = server.host, server.bound_port
                await _wait_ready(server)
                status, body, _ = await _request(host, port, "GET", "/healthz")
                assert (status, body["status"]) == (200, "ok")
                status, body, _ = await _request(host, port, "GET", "/readyz")
                assert (status, body["status"]) == (200, "ready")
                assert body["resumed"] is False
                assert body["restored_tick"] == 0
                assert body["records_read"] == 0
                status, body, _ = await _request(host, port, "GET", "/telemetry")
                assert status == 200
                assert body["mode"] == "robust"
                assert "admitted" in body["counters"]
                assert "requests_served" in body
                # Metrics cursor: samples strictly after `since`.
                status, body, _ = await _request(
                    host, port, "GET", "/metrics?since=1"
                )
                assert status == 200
                assert all(s["tick"] > 1 for s in body["samples"])
                assert body["latest"] >= max(
                    (s["tick"] for s in body["samples"]), default=0
                )
                status, body, _ = await _request(host, port, "GET", "/nope")
                assert status == 404
                status, body, _ = await _request(host, port, "POST", "/healthz")
                assert status == 405
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_ops_round_trip_and_validation(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                host, port = server.host, server.bound_port
                await _wait_ready(server)
                status, body, _ = await _request(
                    host, port, "POST", "/ops",
                    body={"op": "power-cap", "watts": 90.0},
                )
                assert status == 200
                assert body["applied"] == "power-cap"
                assert body["detail"] == "cap=90W"
                # The op is durable before the ack: it must be visible
                # in the telemetry snapshot's timeline immediately.
                status, body, _ = await _request(host, port, "GET", "/telemetry")
                assert status == 200
                assert body["timeline_events"] >= 1
                status, body, _ = await _request(
                    host, port, "POST", "/ops", body={"op": "bogus"}
                )
                assert status == 400
                assert "known ops" in body["error"]
                status, body, _ = await _request(
                    host, port, "POST", "/ops", body={"op": "demand-surge"}
                )
                assert status == 400
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_non_finite_op_answers_400(self, tmp_path):
        # json.loads accepts NaN and Infinity, so the core must refuse them.
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                host, port = server.host, server.bound_port
                await _wait_ready(server)
                for body in (
                    {"op": "power-cap", "watts": float("nan")},
                    {"op": "demand-surge", "factor": 2.0, "duration_s": float("inf")},
                ):
                    status, payload, _ = await _request(host, port, "POST", "/ops", body=body)
                    assert status == 400
                    assert "finite" in payload["error"]
                assert server.core.timeline.of_kind("op-power-cap") == ()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_non_boolean_flag_and_huge_surge_answer_400(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                host, port = server.host, server.bound_port
                await _wait_ready(server)
                for body in (
                    {"op": "overclock", "enable": "false"},
                    {"op": "rollout", "hold": 0},
                    {"op": "demand-surge", "factor": 1e300, "duration_s": 10.0},
                ):
                    status, _, _ = await _request(host, port, "POST", "/ops", body=body)
                    assert status == 400
                for kind in ("op-overclock", "op-rollout", "op-demand-surge"):
                    assert server.core.timeline.of_kind(kind) == ()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_stream_delivers_per_tick_events(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path)
            try:
                host, port = server.host, server.bound_port
                await _wait_ready(server)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /stream?ticks=3 HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                assert b"200" in status_line
                while (await reader.readline()) not in (b"\r\n", b"\n"):
                    pass
                ticks = []
                for _ in range(3):
                    line = await asyncio.wait_for(reader.readline(), 5.0)
                    assert line.startswith(b"data: ")
                    ticks.append(json.loads(line[len(b"data: "):])["tick"])
                    blank = await reader.readline()
                    assert blank in (b"\n", b"\r\n")
                assert ticks == sorted(ticks)
                assert len(set(ticks)) == 3
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        asyncio.run(scenario())

    def test_bounded_run_finishes_and_stays_healthy(self, tmp_path):
        async def scenario():
            server = await _start_server(tmp_path, max_ticks=5)
            try:
                host, port = server.host, server.bound_port
                assert server._tick_task is not None
                await server._tick_task
                status, body, _ = await _request(host, port, "GET", "/healthz")
                # A finished bounded run is done, not wedged.
                assert (status, body["status"]) == (200, "ok")
                assert body["tick"] == 5
            finally:
                await server.stop()

        asyncio.run(scenario())


#: Raw requests the shell must answer with a status, not a dropped
#: connection: request -> expected status.
MALFORMED_REQUESTS = {
    "bad-request-line": (b"BOGUS\r\n\r\n", 400),
    "oversized-body": (b"POST /ops HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", 413),
    "non-numeric-length": (b"POST /ops HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
    "negative-length": (b"POST /ops HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
    "non-integer-since": (b"GET /metrics?since=abc HTTP/1.1\r\n\r\n", 400),
    "non-integer-ticks": (b"GET /stream?ticks=x HTTP/1.1\r\n\r\n", 400),
    "non-utf8-body": (b"POST /ops HTTP/1.1\r\nContent-Length: 2\r\n\r\n\xff\xfe", 400),
    "unsplittable-target": (b"GET http://[::1/metrics HTTP/1.1\r\n\r\n", 400),
    "body-shorter-than-length": (b"POST /ops HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}", 400),
    "long-request-line": (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414),
    "long-header-line": (
        b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        431,
    ),
}


class TestMalformedRequests:
    @pytest.mark.parametrize("name", sorted(MALFORMED_REQUESTS))
    def test_answered_with_its_status(self, tmp_path, name):
        raw, expected = MALFORMED_REQUESTS[name]

        async def scenario():
            server = await _start_server(tmp_path)
            try:
                host, port = server.host, server.bound_port
                await _wait_ready(server)
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(raw)
                writer.write_eof()
                await writer.drain()
                status_line = await asyncio.wait_for(reader.readline(), 5.0)
                writer.close()
                await writer.wait_closed()
                status, _, _ = await _request(host, port, "GET", "/healthz")
                return status_line, status
            finally:
                await server.stop()

        status_line, health = asyncio.run(scenario())
        assert status_line.split()[:2] == [b"HTTP/1.1", str(expected).encode()]
        assert health == 200


class TestSustainedLoad:
    def test_load_test_within_slo_while_ticking(self, tmp_path):
        """>= 1k requests complete within the SLO while the fleet ticks."""

        async def client(host: str, port: int, n: int, latencies: list[float]):
            reader, writer = await asyncio.open_connection(host, port)
            try:
                for i in range(n):
                    path = "/telemetry" if i % 3 else "/metrics?since=0"
                    begin = time.monotonic()
                    status, body, keep_alive = await _request(
                        host, port, "GET", path, reader=reader, writer=writer
                    )
                    latencies.append(time.monotonic() - begin)
                    assert status == 200
                    assert keep_alive
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass

        async def scenario():
            server = await _start_server(tmp_path, run_id="http-load")
            try:
                host, port = server.host, server.bound_port
                await _wait_ready(server)
                tick_before = server.core.tick_index
                latencies: list[float] = []
                await asyncio.gather(
                    *(
                        client(host, port, LOAD_REQUESTS_PER_CLIENT, latencies)
                        for _ in range(LOAD_CLIENTS)
                    )
                )
                total = LOAD_CLIENTS * LOAD_REQUESTS_PER_CLIENT
                assert len(latencies) == total
                assert total >= 1000
                latencies.sort()
                p99 = latencies[int(0.99 * (len(latencies) - 1))]
                assert p99 < LOAD_SLO_S, f"load-test p99 {p99:.3f}s breaches SLO"
                # The tick loop kept running underneath the load...
                assert server.core.tick_index > tick_before
                # ...and the telemetry endpoint accounts for the traffic.
                status, body, _ = await _request(host, port, "GET", "/telemetry")
                assert status == 200
                assert body["requests_served"] >= total
                for counter in (
                    "offered",
                    "admitted",
                    "rejected_throttled",
                    "rejected_brownout",
                    "shed_low_priority",
                    "completed_ok",
                ):
                    assert counter in body["counters"]
            finally:
                await server.stop()

        asyncio.run(scenario())


class TestServerRestart:
    def test_server_resumes_from_wal(self, tmp_path):
        async def first():
            server = await _start_server(tmp_path, run_id="http-resume")
            try:
                await _wait_ready(server)
                while server.core.tick_index < 3:
                    await asyncio.sleep(0.005)
                return server.core.tick_index, server.core.signature
            finally:
                await server.stop()

        async def second():
            server = await _start_server(tmp_path, run_id="http-resume")
            try:
                host, port = server.host, server.bound_port
                await _wait_ready(server)
                status, body, _ = await _request(host, port, "GET", "/readyz")
                assert status == 200
                assert body["resumed"] is True
                assert body["restored_tick"] == 0  # fewer ticks than one snapshot
                # The header, meta and one sig record per replayed tick.
                assert body["records_read"] == server.session.replayed_ticks + 2
                return server.session.replayed_ticks
            finally:
                await server.stop()

        ticks, signature = asyncio.run(first())
        assert ticks >= 3 and signature
        replayed = asyncio.run(second())
        assert replayed >= 3

    def test_bind_failure_closes_the_wal(self, tmp_path):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            server = ServiceServer(
                cache_dir=str(tmp_path),
                run_id="http-bind",
                seed=5,
                port=taken.getsockname()[1],
            )
            with pytest.raises(OSError):
                asyncio.run(server.serve_forever())
        assert server.session._journal._handle is None
        # The session had opened and journaled its meta record; a fresh
        # one resumes the same WAL.
        session = ServiceSession(str(tmp_path), "http-bind", seed=5)
        try:
            session.open()
            assert session.resumed
        finally:
            session.close()


class TestValidation:
    def test_constructor_rejects_bad_intervals(self, tmp_path):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            ServiceServer(str(tmp_path), "x", seed=1, tick_interval_s=0.0)
        with pytest.raises(ReproError):
            ServiceServer(str(tmp_path), "x", seed=1, max_ticks=0)

    @pytest.mark.parametrize("interval", ["nan", "inf"])
    def test_non_finite_interval_is_rejected(self, tmp_path, capsys, interval):
        """NaN would tick unpaced and inf would stall after one tick."""
        from repro.cli import main
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="finite"):
            ServiceServer(str(tmp_path), "x", seed=1, tick_interval_s=float(interval))
        argv = ["serve", "--tick-interval", interval, "--cache-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "tick_interval_s must be positive and finite" in capsys.readouterr().err
