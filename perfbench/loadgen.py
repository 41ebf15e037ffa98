"""A one-process HTTP/1.1 load generator for the bound service.

Plain asyncio streams over keep-alive connections, one request in
flight per connection.  An open-loop stream sends on a fixed schedule
and records how late each send was after its due time (lag), so a
stall shows in the requests queued behind it.  A closed-loop stream
sends the next request when the previous answer arrives.  Answer times
run from the send.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable

REQUEST_TIMEOUT_S = 30.0


@dataclass
class Sample:
    """One request: what was sent and what came back."""

    path: str
    body: dict
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    payload: Any = None
    error: str | None = None
    #: Server CPU seconds spent while the request was in flight.
    server_cpu_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and 200 <= self.status < 300


@dataclass
class StreamResult:
    samples: list[Sample] = field(default_factory=list)

    def latencies_ms(self) -> list[float]:
        """Answer times from each send, of the requests answered 2xx."""
        return [(s.done - s.sent) * 1e3 for s in self.samples if s.ok]

    def lags_ms(self) -> list[float]:
        return [(s.sent - s.due) * 1e3 for s in self.samples]


class Connection:
    """One keep-alive connection; one request at a time."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def open(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, Any]:
        assert self._reader is not None and self._writer is not None
        data = b"" if body is None else json.dumps(body).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n\r\n"
        ).encode("ascii")
        self._writer.write(head + data)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        payload = json.loads(await self._reader.readexactly(length))
        return status, payload

    async def send(self, sample: Sample) -> None:
        """Send ``sample`` now and fill in its outcome (never raises)."""
        sample.sent = time.perf_counter()
        try:
            sample.status, sample.payload = await asyncio.wait_for(
                self.request("POST", sample.path, sample.body),
                REQUEST_TIMEOUT_S,
            )
        except (
            asyncio.TimeoutError, OSError, EOFError, ValueError, IndexError
        ) as exc:
            sample.error = f"{type(exc).__name__}: {exc}"
        sample.done = time.perf_counter()


async def open_loop(
    conn: Connection,
    requests: list[tuple[str, dict]],
    rate: float,
    start: float,
    stop: asyncio.Event | None = None,
) -> StreamResult:
    """Send ``requests`` due at ``start + i / rate`` until done or ``stop``."""
    result = StreamResult()
    for i, (path, body) in enumerate(requests):
        if stop is not None and stop.is_set():
            break
        due = start + i / rate
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sample = Sample(path, body, due)
        await conn.send(sample)
        result.samples.append(sample)
    return result


async def closed_loop(
    conn: Connection,
    requests: list[tuple[str, dict]],
    think: float = 0.0,
    server_cpu: Callable[[], float] | None = None,
    think_max_s: float = float("inf"),
) -> StreamResult:
    """Send each request when the previous answer has arrived.

    After each answer the client waits ``think`` times as long as the
    answer took (at most ``think_max_s``), so the server is busy with
    this stream about ``1 / (1 + think)`` of the time, and more so
    around answers slower than ``think_max_s / think``.  With
    ``server_cpu`` (a reading of
    the server's CPU seconds) each sample also records the server CPU
    time spent while it was in flight.
    """
    result = StreamResult()
    for path, body in requests:
        sample = Sample(path, body, time.perf_counter())
        cpu0 = server_cpu() if server_cpu else 0.0
        await conn.send(sample)
        if server_cpu:
            sample.server_cpu_s = server_cpu() - cpu0
        result.samples.append(sample)
        if think:
            await asyncio.sleep(
                min(think * (sample.done - sample.sent), think_max_s)
            )
    return result
