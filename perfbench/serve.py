"""The service path: ``python -m repro.service.api`` under a two-stream load.

The server runs as a subprocess with a fresh disk-cache directory.  One
load-generator process drives it over exactly two keep-alive
connections:

* **hot stream** (connection 1): open loop at ``HOT_RATE`` requests/s
  (each request timed from its send and from its due time), Zipf-popular ``/v1/admissible``
  and ``/v1/bounds`` queries over a key set that is solved in-process
  into the server's disk cache before it starts and then touched once,
  so every timed request is an LRU hit;
* **cold stream** (connection 2): closed loop of distinct queries across
  FIFO/BMUX/SP at H 1-10, plus a fixed tail of H = 1 EDF queries (a fifth
  of the stream) and two or three backlog queries (backlog is the only
  public route to ``network.backlog``).  The cheap part is drawn from
  the seed; the tail is a fixed table.  ``serve_miss_p50_ms`` lands
  among the cheap queries and ``serve_miss_p90_ms`` among the EDF ones,
  so each is a quantile of tens of solves, not of one.
  Think time keeps the single solver thread from saturating.

Both streams run at once, on one CPU, so a solve holding the CPU or the
interpreter lock shows in the hot stream's tail (``serve_hit_p95_ms``).
A last hot-only phase measures
``serve_max_qps``: both connections send hot queries back to back, in
bursts spread over a few seconds, and the rate is the number answered
per second of server CPU time.  (A search for the highest open-loop rate
under a p99 limit was tried first: on a shared 2-vCPU host its result
moved by a third between runs of the same code, because the completion
rate of a single burst there moves by +-25%.)

Most times are reported at a reference machine speed (see ``measure``).

Checks: every response 2xx and on time; every verdict equals
``feasible and bound <= target``; every hot answer equals the
in-process solve of its key; cold answers are fresh solves, and a seeded
sample of them equals an in-process ``execute_cell`` re-solve to 1e-9.
"""

from __future__ import annotations

import asyncio
import json
import random
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from common import (
    BENCH_DIR,
    BENCH_CPU,
    Clock,
    percentile,
    proc_cpu_s,
    proc_status_kb,
    python_child,
    stop_process,
    time_until_line,
    values_match,
)
from loadgen import Connection, StreamResult, closed_loop, open_loop
from outcome import Outcome

#: Cold mix and max-rate effort per size.  EDF queries (about twice the
#: solve time of a cheap one) are a fifth of the cold stream, so
#: ``serve_miss_p90_ms`` lands among them; the cheap FIFO/BMUX/SP queries
#: set ``serve_miss_p50_ms``.  Backlog queries (~0.5 s each) are the top
#: 3%, above both cold quantiles.
SIZES = {
    "full": {
        "cheap": 80, "edf": 20, "backlog": 3,
        "hot_keys": 48, "bursts": 12, "burst": 600,
    },
    "small": {
        "cheap": 40, "edf": 10, "backlog": 2,
        "hot_keys": 32, "bursts": 16, "burst": 500,
    },
}
HOT_RATE = 300.0
#: Cold-stream think time as a multiple of the last answer's latency:
#: the solver thread is busy with cheap and EDF solves a quarter of the
#: time, so the hot median stays clear of the solves it waits behind.
#: It is capped for the backlog solves, whose stalls delay one hit each
#: (from its send) and set the hot p99 (from due) however long the
#: think time after them.
COLD_THINK = 3.0
COLD_THINK_MAX_S = 0.15
#: Pause between max-rate bursts, so they sample a few seconds.
BURST_GAP_S = 0.1
#: How far the hit median and the max rate follow the sampled speed of
#: their CPU: they are partly wake-ups and cache misses of two processes
#: sharing it, which the sampler's job does not see.  Over two batches
#: of eight runs (separate processes) their log-log slope against the
#: factor was 0.2-0.66; scaled by the full factor the hit median split
#: into two clusters 30% apart, and with this power its spread was 0.05.
SPEED_ELASTICITY = 0.5
ZIPF_S = 1.1
SAMPLE_RESOLVES = 3
LISTENING = "listening on http://"


# -- inputs ----------------------------------------------------------------


def _query(kind, scheduler, hops, n_through, n_cross) -> dict:
    return {
        "kind": kind, "scheduler": scheduler, "hops": hops,
        "n_through": n_through, "n_cross": n_cross,
    }


@dataclass
class Plan:
    """All generated inputs of one session (a function of the seed)."""

    hot_keys: list[dict]
    hot_requests: list[tuple[str, dict]]
    cold_requests: list[tuple[str, dict]]


def _with_target(rng: random.Random, query: dict) -> tuple[str, dict]:
    """Half the requests ask for a verdict against a random target."""
    if rng.random() < 0.5:
        return "/v1/bounds", query
    return "/v1/admissible", {**query, "target": rng.uniform(1.0, 250.0)}


def make_plan(size: str, seed: int, hot_count: int) -> Plan:
    params = SIZES[size]
    rng = random.Random(seed)
    schedulers = ("FIFO", "BMUX", "SP")
    hot: dict[tuple, dict] = {}
    while len(hot) < params["hot_keys"]:
        q = _query(
            "delay", schedulers[len(hot) % 3], rng.randint(1, 10),
            rng.randint(20, 120), rng.randint(50, 250),
        )
        hot.setdefault(tuple(q.values()), q)
    hot_keys = list(hot.values())
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(hot_keys))]
    hot_requests = [
        _with_target(rng, query)
        for query in rng.choices(hot_keys, weights, k=hot_count)
    ]

    cold: dict[tuple, dict] = {}
    cold_schedulers = ("FIFO", "BMUX", "FIFO", "SP")
    while len(cold) < params["cheap"]:
        i = len(cold)
        q = _query(
            "delay", cold_schedulers[i % 4], 1 + i % 10,
            rng.randint(121, 250), rng.randint(50, 250),
        )
        cold.setdefault(tuple(q.values()), q)
    tail = [
        _query("delay", "EDF", 1, 130 + 7 * j, 120 + 5 * j)
        for j in range(params["edf"])
    ] + [
        _query("backlog", "FIFO", 1, 140 + 9 * j, 150 + 3 * j)
        for j in range(params["backlog"])
    ]
    queries = list(cold.values()) + tail
    rng.shuffle(queries)
    cold_requests = [_with_target(rng, q) for q in queries]
    return Plan(hot_keys, hot_requests, cold_requests)


def presolve(hot_keys: list[dict], cache_dir: Path) -> dict[str, dict]:
    """Solve the hot keys in-process into ``cache_dir``; rows by key."""
    from repro.experiments.cache import CellCache
    from repro.experiments.sweep import SweepSpec, run_sweep
    from repro.service.api.model import BoundQuery

    cells = tuple(BoundQuery.from_json(q).cell() for q in hot_keys)
    result = run_sweep(
        SweepSpec.build("hot", cells), cache=CellCache(cache_dir), batch=True
    )
    return {cell.key: dict(cell.rows[0]) for cell in result.cells}


# -- server processes ------------------------------------------------------


class Server:
    """One ``repro.service.api`` subprocess (optionally traced)."""

    def __init__(self, cache_dir: Path, trace_out: Path | None = None):
        args = ["--port", "0", "--cache-dir", str(cache_dir)]
        if trace_out is None:
            argv = ["-m", "repro.service.api", *args]
        else:
            argv = [str(BENCH_DIR / "serve_traced.py"), str(trace_out), *args]
        self.trace_out = trace_out
        start = time.perf_counter()
        self.proc = python_child(argv, stdout=subprocess.PIPE, text=True)
        try:
            self.startup_s, line = time_until_line(
                self.proc, LISTENING, start
            )
        except BaseException:
            stop_process(self.proc)
            raise
        address = line[len(LISTENING):]
        host, _, port = address.rpartition(":")
        self.host, self.port = host, int(port)

    def peak_rss_kb(self) -> int:
        return proc_status_kb(self.proc.pid, "VmHWM")

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def solver_cpu_s(self) -> float:
        """CPU seconds of the threads beside the event loop (the solver)."""
        return proc_cpu_s(self.proc.pid, workers_only=True)

    def stop(self) -> int:
        return stop_process(self.proc)

    def trace(self) -> dict[str, Any]:
        assert self.trace_out is not None
        with open(self.trace_out) as handle:
            return json.load(handle)


def server_startup_s(cache_dir: Path) -> float:
    """Seconds from process start until a fresh server listens."""
    server = Server(cache_dir)
    server.stop()
    return server.startup_s


# -- one load session ------------------------------------------------------


def _strip(payload: dict) -> dict:
    return {k: v for k, v in payload.items() if k not in ("key", "cached")}


def _check_verdict(sample, outcome: Outcome) -> None:
    p = sample.payload
    outcome.check(
        p["admissible"] == (bool(p["feasible"]) and p["bound"] <= p["target"]),
        f"serve: verdict {p['admissible']} for bound {p['bound']} "
        f"target {p['target']}",
    )


def check_hot(stream: StreamResult, expected: dict, outcome: Outcome) -> float:
    """Check hot answers against the in-process solves; the hit share."""
    hits = 0
    for s in stream.samples:
        if not outcome.check(s.ok, f"serve hot: {s.status} {s.error}"):
            continue
        p = s.payload
        hits += p["cached"] == "lru"
        row = expected.get(p["key"])
        if s.path == "/v1/bounds":
            ok = row is not None and values_match(_strip(p), row)
        else:
            _check_verdict(s, outcome)
            ok = row is not None and values_match(
                p["bound"], row["delay"]
            )
        outcome.check(ok, f"serve hot: answer for {p['key']} differs")
    return hits / max(len(stream.samples), 1)


def check_cold(
    stream: StreamResult, rng: random.Random, outcome: Outcome
) -> float:
    """Check cold answers; re-solve a seeded sample in-process."""
    from repro.experiments.sweep import execute_cell
    from repro.service.api.model import BoundQuery

    hits = 0
    rows = []
    for s in stream.samples:
        if not outcome.check(s.ok, f"serve cold: {s.status} {s.error}"):
            continue
        hits += s.payload["cached"] is not None
        if s.path == "/v1/admissible":
            _check_verdict(s, outcome)
        elif s.body["scheduler"] != "EDF" and s.body["kind"] == "delay":
            rows.append(s)
    for s in rng.sample(rows, min(SAMPLE_RESOLVES, len(rows))):
        cell = BoundQuery.from_json(s.body).cell()
        expected = execute_cell(cell)["rows"][0]
        outcome.check(
            values_match(_strip(s.payload), expected),
            f"serve cold: served row of {s.body} != in-process re-solve",
        )
    return hits / max(len(stream.samples), 1)


async def _mixed(conn_hot, conn_cold, plan, server_cpu):
    stop = asyncio.Event()
    start = time.perf_counter() + 0.05
    hot_task = asyncio.ensure_future(
        open_loop(conn_hot, plan.hot_requests, HOT_RATE, start, stop)
    )
    cold = await closed_loop(
        conn_cold, plan.cold_requests, COLD_THINK, server_cpu,
        COLD_THINK_MAX_S,
    )
    stop.set()
    return await hot_task, cold


async def _burst(conns, requests) -> StreamResult:
    """``requests`` with both connections sending back to back."""
    streams = await asyncio.gather(*(
        closed_loop(conn, requests[i::len(conns)])
        for i, conn in enumerate(conns)
    ))
    return StreamResult([s for st in streams for s in st.samples])


async def _max_qps(server, conns, requests, size, expected, outcome):
    """Hot requests answered per second of server CPU, over bursts.

    Each burst sends the next ``burst`` requests of the hot plan with
    both connections back to back, and the bursts are spread over a few
    seconds.  The server answers on one event-loop thread, so this is
    the rate at which it would be busy all the time; it leaves out the
    load generator and the wake-ups between the two processes, which
    on a shared host moved a burst's completion rate by +-25%.  Returns
    the rate and the phase's ``time.monotonic`` window.
    """
    params = SIZES[size]
    n = params["burst"]
    start, cpu_s = time.monotonic(), 0.0
    for b in range(params["bursts"]):
        cpu0 = server.cpu_s()
        stream = await _burst(conns, requests[b * n:(b + 1) * n])
        cpu_s += server.cpu_s() - cpu0
        check_hot(stream, expected, outcome)
        await asyncio.sleep(BURST_GAP_S)
    return n * params["bursts"] / cpu_s, (start, time.monotonic())


async def _connect(server) -> list[Connection]:
    conns = [Connection(server.host, server.port) for _ in range(2)]
    for conn in conns:
        await conn.open()
    return conns


async def _mixed_session(server, plan, outcome) -> dict[str, Any]:
    """Prewarm the hot keys, run both streams, read ``/v1/metrics``."""
    conns = await _connect(server)
    try:
        cpu0, wall0 = server.cpu_s(), time.perf_counter()
        prewarm = await closed_loop(
            conns[0], [("/v1/bounds", q) for q in plan.hot_keys]
        )
        mixed_start = time.monotonic()
        hot, cold = await _mixed(
            conns[0], conns[1], plan, server.solver_cpu_s
        )
        mixed_window = (mixed_start, time.monotonic())
        cpu_s = server.cpu_s() - cpu0
        wall_s = time.perf_counter() - wall0
        status, metrics = await conns[1].request("GET", "/v1/metrics")
        outcome.check(status == 200, f"serve: /v1/metrics answered {status}")
    finally:
        for conn in conns:
            await conn.close()
    return {
        "prewarm": prewarm, "hot": hot, "cold": cold, "cpu_s": cpu_s,
        "wall_s": wall_s, "metrics": metrics, "mixed_window": mixed_window,
    }


async def _max_qps_session(server, plan, size, expected, outcome):
    conns = await _connect(server)
    try:
        return await _max_qps(
            server, conns, plan.hot_requests, size, expected, outcome
        )
    finally:
        for conn in conns:
            await conn.close()


#: /v1/metrics counters that must repeat exactly for one seed.
SERVER_COUNTS = (
    "lanes.mmoo_lanes", "lanes.edf_lanes", "batch.executed", "batch.cells",
    "batch.fallback_cells", "service.disk_miss", "service.disk_hit",
)


def server_counts(metrics: dict) -> dict[str, float]:
    counters = metrics.get("counters", {})
    return {name: counters.get(name, 0) for name in SERVER_COUNTS}


def run_session(
    size: str, seed: int, cache_dir: Path, clock: Clock, outcome: Outcome,
    *, find_max: bool, trace_out: Path | None = None,
) -> dict[str, Any]:
    """Start a server, drive one session, stop it; raw results.

    ``factor`` is the mixed phase's reference-speed factor (the server
    and the load generator share ``BENCH_CPU``).
    """
    plan = make_plan(size, seed, hot_count=int(HOT_RATE * 120))
    expected = presolve(plan.hot_keys, cache_dir)
    server = Server(cache_dir, trace_out)
    try:
        result = asyncio.run(_mixed_session(server, plan, outcome))
        result["factor"] = clock.factor(
            *result["mixed_window"], (BENCH_CPU,)
        )
        if find_max:
            result["max_qps"], result["max_qps_window"] = asyncio.run(
                _max_qps_session(server, plan, size, expected, outcome)
            )
        result["peak_rss_kb"] = server.peak_rss_kb()
    finally:
        rc = server.stop()
    outcome.check(rc == 0, f"serve: server exited with {rc}")
    check_hot(result["prewarm"], expected, outcome)
    result["hot_hit_share"] = check_hot(result["hot"], expected, outcome)
    result["cold_hit_share"] = check_cold(
        result["cold"], random.Random(seed), outcome
    )
    outcome.check(
        result["hot_hit_share"] == 1.0 and result["cold_hit_share"] == 0.0,
        f"serve: hit shares hot {result['hot_hit_share']} cold "
        f"{result['cold_hit_share']} (want 1 and 0)",
    )
    if trace_out is not None:
        result["trace"] = server.trace()
    return result


def measure(
    size: str, seed: int, run_dir: Path, clock: Clock, outcome: Outcome
) -> tuple[dict[str, tuple[float, float]], int]:
    """``(reported, raw)`` metrics of one session; also the server's
    peak RSS in kB.

    Speeds are those of ``BENCH_CPU``, which the server and the load
    generator share.  Hits are timed from the send.  The median is
    scaled by the mixed phase's factor to the power ``SPEED_ELASTICITY``;
    the p95 lands on hits that wait for the solver thread to yield the
    interpreter lock (one switch interval), a time slice that does not
    follow the CPU's speed, so it is reported raw.  The tail is the p95,
    not the p99: the p99 lands on the few hits behind the longest lock
    holds, and its spread over ten seeds reached 0.26 (the p95's stayed
    near 0.02); the traced run reports it as ``loadgen.hit_p99_ms``.
    Timed from the due time instead, the p50 took in the load
    generator's timer wake-ups (up to a millisecond late) and the tail
    the queue that builds behind a backlog solve, which moved it by a
    third between runs.  Misses:
    each cold query's solver CPU time in the server (every thread but
    the event loop's) while it was in flight, scaled by the factor of
    that flight; their wall latencies also hold the time the solver
    waits for the shared CPU, which moved their quantiles by a quarter
    between runs of the same code.  The max rate is scaled like the hit
    median, by its phase's factor.
    """
    result = run_session(
        size, seed, run_dir / "serve-cache", clock, outcome, find_max=True
    )

    def speed(start: float, end: float) -> float:
        return clock.factor(start, end, (BENCH_CPU,))

    hit_ms = result["hot"].latencies_ms()
    hit_p50, hit_p95 = percentile(hit_ms, 50), percentile(hit_ms, 95)
    solves = [s for s in result["cold"].samples if s.ok]
    solve_ms = [s.server_cpu_s * 1e3 for s in solves]
    scaled_ms = [ms * speed(s.sent, s.done) for ms, s in zip(solve_ms, solves)]
    max_qps = result["max_qps"]
    hit_factor = result["factor"] ** SPEED_ELASTICITY
    qps_factor = speed(*result["max_qps_window"]) ** SPEED_ELASTICITY
    metrics = {
        "serve_hit_p50_ms": (hit_p50 * hit_factor, hit_p50),
        "serve_hit_p95_ms": (hit_p95, hit_p95),
        "serve_max_qps": (max_qps / qps_factor, max_qps),
        "serve_miss_p50_ms": (
            percentile(scaled_ms, 50), percentile(solve_ms, 50)
        ),
        "serve_miss_p90_ms": (
            percentile(scaled_ms, 90), percentile(solve_ms, 90)
        ),
    }
    return metrics, result["peak_rss_kb"]


def traced(
    seed: int, run_dir: Path, clock: Clock, outcome: Outcome
) -> dict[str, Any]:
    """An untraced session for reference, then a traced one.

    The traced server is started by ``serve_traced.py``, which installs
    the wrappers before the HTTP server exists and writes the tracer's
    totals when the server shuts down.  The two sessions' solver counts
    (read from ``GET /v1/metrics``) must be identical.
    """
    base = run_session(
        "full", seed, run_dir / "trace-ref", clock, outcome, find_max=False
    )
    result = run_session(
        "full", seed, run_dir / "trace-cache", clock, outcome,
        find_max=False, trace_out=run_dir / "server-trace.json",
    )
    outcome.check(
        server_counts(base["metrics"]) == server_counts(result["metrics"]),
        f"serve exact counts differ: {server_counts(base['metrics'])} vs "
        f"{server_counts(result['metrics'])}",
    )

    def cold_wall(r):
        samples = r["cold"].samples
        return (samples[-1].done - samples[0].sent) * r["factor"]

    streams = (result["prewarm"], result["hot"], result["cold"])
    client_ms = [
        ms for stream in streams for ms in stream.latencies_ms()
    ]
    sent = sum(len(stream.samples) for stream in streams)
    completed = sum(s.ok for stream in streams for s in stream.samples)
    return {
        "trace": result["trace"],
        "overhead_ratio": cold_wall(result) / cold_wall(base) - 1.0,
        "cpu_s": result["cpu_s"],
        "wall_s": result["wall_s"],
        "client_ms_mean": sum(client_ms) / len(client_ms),
        "lag_p99_ms": percentile(result["hot"].lags_ms(), 99),
        "hit_p99_ms": percentile(result["hot"].latencies_ms(), 99),
        "sent": sent,
        "completed": completed,
        "hot_hit_share": result["hot_hit_share"],
        "cold_hit_share": result["cold_hit_share"],
        "exact_counts": server_counts(result["metrics"]),
    }
