"""Concurrency/load gate of the bound-query service.

Three gated rows:

* ``test_service_cold_coalesce`` — a cold burst of distinct concurrent
  queries must fuse into lane batches (mean ``service.batch_occupancy``
  >= 2), i.e. the coalescer actually amortizes solver work under load.
* ``test_service_warm_load`` — >= 1000 concurrent warm queries through
  the real HTTP server (real sockets, one connection each) must all be
  served from the LRU at a sane throughput floor; the regression
  baseline watches the end-to-end wall time.
* ``test_service_hit_request`` — ladder row L7 (warm): one LRU hit of
  ``POST /v1/bounds`` over a keep-alive socket, request bytes to
  response bytes, in requests per second.
"""

import asyncio
import json
import socket
import time

from repro.service.api.app import BoundService, ServiceConfig
from repro.service.api.client import AsyncServiceClient
from repro.service.api.model import BoundQuery

from conftest import record_rates

from tests.service.api.util import CHEAP_QUERY, ServerHarness

#: Load shape: N_WARM concurrent warm queries over N_DISTINCT cells.
N_WARM = 1000
N_DISTINCT = 32

#: Gates.
MIN_MEAN_OCCUPANCY = 2.0
MIN_WARM_QPS = 200.0

#: A wide-enough window that one cold burst lands in few flushes.
WINDOW_S = 0.02


def _distinct_queries() -> list[dict]:
    return [
        {
            "scheduler": "FIFO",
            "hops": 1,
            "n_through": n,
            "n_cross": n,
            "s_grid": 4,
            "gamma_grid": 4,
        }
        for n in range(1, N_DISTINCT + 1)
    ]


def test_service_cold_coalesce(benchmark):
    """A cold concurrent burst fuses: mean batch occupancy >= 2."""
    bodies = _distinct_queries()

    def run_cold():
        async def main():
            service = BoundService(
                ServiceConfig(cache_dir=None, batch_window_s=WINDOW_S)
            )
            rows = await asyncio.gather(
                *(
                    service.answer(BoundQuery.from_json(body))
                    for body in bodies
                )
            )
            snap = service.metrics()
            await service.aclose()
            return rows, snap

        return asyncio.run(main())

    rows, snap = benchmark.pedantic(run_cold, rounds=1, iterations=1)
    assert len(rows) == N_DISTINCT
    assert all(row["feasible"] for row in rows)
    occupancy = snap["series"]["service.batch_occupancy"]
    mean_occupancy = sum(occupancy) / len(occupancy)
    benchmark.extra_info["flushes"] = len(occupancy)
    benchmark.extra_info["mean_occupancy"] = round(mean_occupancy, 2)
    assert mean_occupancy >= MIN_MEAN_OCCUPANCY, (
        f"cold burst of {N_DISTINCT} queries averaged "
        f"{mean_occupancy:.2f} cells/batch (batches: {occupancy}); the "
        f"coalescer must fuse >= {MIN_MEAN_OCCUPANCY}"
    )


def test_service_warm_load(benchmark):
    """>= 1000 concurrent warm queries, all LRU hits, through sockets."""
    cold = _distinct_queries()
    warm = [cold[i % N_DISTINCT] for i in range(N_WARM)]
    config = ServiceConfig(cache_dir=None, batch_window_s=WINDOW_S)

    with ServerHarness(config) as harness:

        async def fan(bodies):
            clients = [
                await AsyncServiceClient.connect(harness.host, harness.port)
                for _ in bodies
            ]
            try:
                start = time.perf_counter()
                rows = await asyncio.gather(
                    *(
                        client.bounds(body)
                        for client, body in zip(clients, bodies)
                    )
                )
                return rows, time.perf_counter() - start
            finally:
                for client in clients:
                    await client.aclose()

        harness.run(fan(cold), timeout=300)  # warm every distinct cell

        elapsed = []

        def run_warm():
            rows, wall = harness.run(fan(warm), timeout=300)
            elapsed.append(wall)
            return rows

        rows = benchmark.pedantic(run_warm, rounds=3, iterations=1)

    assert len(rows) == N_WARM
    assert all(row["cached"] == "lru" for row in rows)
    qps = N_WARM / min(elapsed)
    benchmark.extra_info["concurrent_queries"] = N_WARM
    benchmark.extra_info["warm_qps"] = round(qps)
    assert qps >= MIN_WARM_QPS, (
        f"{N_WARM} concurrent warm queries at {qps:.0f} qps; the LRU "
        f"path must sustain >= {MIN_WARM_QPS:.0f} qps"
    )


def _exchange(sock: socket.socket, request: bytes) -> bytes:
    """Send one request; read back exactly one response's body."""
    sock.sendall(request)
    raw = b""
    while b"\r\n\r\n" not in raw:
        raw += sock.recv(65536)
    head, _, body = raw.partition(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    while len(body) < length:
        body += sock.recv(65536)
    return body


def test_service_hit_request(benchmark):
    """L7 (warm): one ``POST /v1/bounds`` LRU hit over a keep-alive
    socket — HTTP read, parse, LRU probe, JSON reply — in requests per
    second."""
    payload = json.dumps(CHEAP_QUERY).encode()
    request = (
        b"POST /v1/bounds HTTP/1.1\r\nHost: bench\r\n"
        b"Content-Type: application/json\r\nContent-Length: %d\r\n\r\n%s"
        % (len(payload), payload)
    )
    config = ServiceConfig(cache_dir=None, batch_window_s=WINDOW_S)
    with ServerHarness(config) as harness, socket.create_connection(
        (harness.host, harness.port), timeout=60
    ) as sock:
        cold = json.loads(_exchange(sock, request))  # the one miss
        body = benchmark.pedantic(
            _exchange, args=(sock, request), rounds=2000, iterations=1,
            warmup_rounds=50,
        )
    hit = json.loads(body)
    assert hit == {**cold, "cached": "lru"}
    record_rates(benchmark, "requests", 1)
