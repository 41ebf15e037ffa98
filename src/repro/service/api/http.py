"""Minimal asyncio HTTP/1.1 front-end for the bound service.

Stdlib-only by design (the service must run in CI with no new runtime
dependencies): a small hand-rolled HTTP/1.1 handler over
``asyncio.start_server`` — request line, headers, ``Content-Length``
bodies, persistent connections — serving exactly four routes:

========  =================  ==========================================
method    path               handler
========  =================  ==========================================
``POST``  ``/v1/bounds``     :meth:`BoundService.bounds`
``POST``  ``/v1/admissible`` :meth:`BoundService.admissible`
``GET``   ``/v1/healthz``    :meth:`BoundService.healthz`
``GET``   ``/v1/metrics``    :meth:`BoundService.metrics`
========  =================  ==========================================

Every response body is JSON.  Errors are structured, never bare: a
malformed request yields ``{"error": {"code", "message", ...}}`` with
the right 4xx status, and only a genuine service bug produces a 500.
Bound values serialize through :func:`json.dumps`, whose float
round-trip is exact (``repr``-based) — the JSON a client reads back
is bitwise the solver's answer; infeasible bounds appear as the
(non-strict, but ``json.loads``-accepted) ``Infinity``.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any

from repro.service.api.app import BoundService
from repro.service.api.model import QueryError

__all__ = ["HttpServer", "MAX_BODY_BYTES"]

#: Request bodies above this are rejected with 413 (a bound query is a
#: few hundred bytes; anything megabyte-sized is not a query).
MAX_BODY_BYTES = 1 << 20

#: Deadline on reading one whole request, from the wait for its request
#: line to its last body byte (one timer per request, not one per read):
#: a stalled, half-open or idle keep-alive client gets a 408 and its
#: connection closed instead of pinning a handler task forever.
READ_TIMEOUT_S = 30.0

_MAX_HEADER_BYTES = 16 << 10

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    411: "Length Required",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


class _HttpError(Exception):
    """An error response decided during request parsing/routing."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.body = {"error": {"code": code, "message": message}}


async def _readline(
    reader: asyncio.StreamReader, status: int, code: str, message: str
) -> bytes:
    """One line of the request head; a line past the reader's limit
    (64 KiB), which ``readline`` refuses with :class:`ValueError`,
    becomes the error response ``status``/``code``."""
    try:
        return await reader.readline()
    except ValueError:
        raise _HttpError(status, code, message) from None


class HttpServer:
    """Serves one :class:`BoundService` over asyncio sockets.

    ``port=0`` binds an ephemeral port (the test harness relies on
    this); the bound address is available as :attr:`host`/:attr:`port`
    after :meth:`start`.
    """

    def __init__(
        self,
        service: BoundService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None
        self._conn_tasks: set[asyncio.Task[None]] = set()
        self._writers: set[asyncio.StreamWriter] = set()

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=2048
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def aclose(self) -> None:
        """Stop accepting, drop connections, close the service."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close live client transports so their handler tasks see EOF
        # and exit on their own; cancelling them instead would leak
        # noisy CancelledErrors through the stream protocol's done
        # callback at loop teardown.
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(set(self._conn_tasks), timeout=5.0)
        await self.service.aclose()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        await self._server.serve_forever()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as exc:
                    await self._respond(
                        writer, exc.status, exc.body, keep_alive=False
                    )
                    return
                if request is None:  # clean EOF between requests
                    return
                method, path, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                try:
                    status, payload = await self._dispatch(
                        method, path, body
                    )
                except _HttpError as exc:
                    status, payload = exc.status, exc.body
                except QueryError as exc:
                    status, payload = 400, exc.to_json()
                except Exception as exc:  # noqa: BLE001 -- boundary: a handler bug must become a 500, not kill the connection loop
                    self.service.registry.add("service.errors.internal")
                    status, payload = 500, {
                        "error": {
                            "code": "internal",
                            "message": f"{type(exc).__name__}: {exc}",
                        }
                    }
                await self._respond(
                    writer, status, payload, keep_alive=keep_alive
                )
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            self._writers.discard(writer)
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes | None] | None:
        try:
            return await asyncio.wait_for(
                self._read_request_untimed(reader), timeout=READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            raise _HttpError(
                408, "timeout",
                f"request not received within {READ_TIMEOUT_S:g} s",
            )

    @staticmethod
    async def _read_request_untimed(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, dict[str, str], bytes | None] | None:
        # runs under _read_request's one deadline, so no read here is timed
        line = await _readline(
            reader, 400, "bad-request-line", "request line too long"
        )
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split()
        except ValueError:
            raise _HttpError(
                400, "bad-request-line",
                f"malformed request line: {line[:80]!r}",
            )
        headers: dict[str, str] = {}
        header_bytes = 0
        while True:
            line = await _readline(
                reader, 413, "headers-too-large", "header line too long"
            )
            header_bytes += len(line)
            if header_bytes > _MAX_HEADER_BYTES:
                raise _HttpError(413, "headers-too-large", "header block too large")
            if line in (b"\r\n", b"\n", b""):
                break
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        body: bytes | None = None
        if method.upper() in ("POST", "PUT"):
            length_raw = headers.get("content-length")
            if length_raw is None:
                raise _HttpError(
                    411, "length-required",
                    "POST requires a Content-Length header",
                )
            try:
                length = int(length_raw)
            except ValueError:
                raise _HttpError(
                    400, "bad-content-length",
                    f"Content-Length is not an integer: {length_raw!r}",
                )
            if length < 0:
                raise _HttpError(
                    400, "bad-content-length", "Content-Length is negative"
                )
            if length > MAX_BODY_BYTES:
                raise _HttpError(
                    413, "payload-too-large",
                    f"body of {length} bytes exceeds {MAX_BODY_BYTES}",
                )
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise _HttpError(
                    400, "truncated-body",
                    "connection closed before Content-Length bytes",
                )
        return method.upper(), path, headers, body

    async def _dispatch(
        self, method: str, path: str, body: bytes | None
    ) -> tuple[int, dict[str, Any]]:
        path = path.split("?", 1)[0]
        if path == "/v1/bounds":
            self._require_method(method, "POST", path)
            return 200, await self.service.bounds(self._parse_json(body))
        if path == "/v1/admissible":
            self._require_method(method, "POST", path)
            return 200, await self.service.admissible(
                self._parse_json(body)
            )
        if path == "/v1/healthz":
            self._require_method(method, "GET", path)
            return 200, self.service.healthz()
        if path == "/v1/metrics":
            self._require_method(method, "GET", path)
            return 200, self.service.metrics()
        raise _HttpError(404, "not-found", f"no route for {path!r}")

    @staticmethod
    def _require_method(method: str, expected: str, path: str) -> None:
        if method != expected:
            raise _HttpError(
                405, "method-not-allowed",
                f"{path} accepts {expected}, not {method}",
            )

    @staticmethod
    def _parse_json(body: bytes | None) -> Any:
        if body is None or not body.strip():
            raise _HttpError(
                400, "empty-body", "expected a JSON request body"
            )
        try:
            return json.loads(body)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _HttpError(400, "bad-json", f"body is not valid JSON: {exc}")

    @staticmethod
    async def _respond(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict[str, Any],
        *,
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode()
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()
