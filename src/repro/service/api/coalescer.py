"""Batch coalescer: fuse concurrent bound queries into lane batches.

Queries that miss both caches arrive here as
:class:`~repro.experiments.sweep.Cell` records.  Instead of solving each
one alone, the coalescer holds the first miss for a short window
(default ~2 ms) so the queries arriving concurrently pile up, then
plans the whole set through the cross-cell batch planner of
:mod:`repro.experiments.batch` — compatible queries (same lane family)
fuse into one broadcasted kernel call via
:mod:`repro.network.lanes`, capped at ``max_lanes`` per batch.  The
lane engine mirrors the per-cell searches bitwise, so a coalesced
answer is identical to the single-query one; the win is purely
throughput.

Determinism hooks: the wait is performed by an injectable ``sleep``
coroutine function (default :func:`asyncio.sleep`), so tests drive the
window with a manual gate instead of wall-clock sleeps.  Duplicate
in-flight queries (same cell key) share one solve and each waiter gets
the payload.

Solver work runs on a dedicated **single-worker** thread pool: batches
execute under ``obs.scoped(enabled=True)`` — which swaps the
process-global registry — so at most one scoped extent may be open at
a time.  Each flush's snapshot (planner counters such as
``batch.fallback_cells.*``, lane/solver spans) is merged into the
service registry, and per-batch cell counts land in
``service.batch_occupancy`` — the metrics endpoint shows exactly how
well queries are fusing.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from typing import Awaitable, Callable

from repro import obs
from repro.experiments.batch import MAX_LANES, execute_batch, plan_batches
from repro.experiments.sweep import Cell, SweepSpec, cell_key
from repro.obs import MetricsRegistry

__all__ = ["BatchCoalescer", "solve_spec"]

#: Default coalescing window: long enough that a burst of concurrent
#: requests lands in one flush, short enough to be invisible next to a
#: cold solve (milliseconds) or a warm hit (microseconds, never waits).
DEFAULT_WINDOW_S = 0.002


def solve_spec(
    spec: SweepSpec, max_lanes: int
) -> tuple[list[dict], list[int], dict]:
    """Plan and solve all cells of ``spec`` (runs on the worker thread).

    Returns ``(payloads_in_grid_order, batch_occupancies, snapshot)``.
    Top-level so the executor can name it in tracebacks; runs under a
    scoped metrics registry so the planner's and solver's counters come
    back in the snapshot.
    """
    with obs.scoped(enabled=True) as registry:
        batches = plan_batches(spec, max_lanes=max_lanes)
        payloads: dict[int, dict] = {}
        occupancies: list[int] = []
        for batch in batches:
            for index, payload in zip(batch.indices, execute_batch(batch)):
                payloads[index] = payload
            occupancies.append(len(batch.indices))
        snapshot = registry.snapshot()
    return (
        [payloads[i] for i in range(len(spec.cells))],
        occupancies,
        snapshot,
    )


class BatchCoalescer:
    """Collects concurrent cell queries and solves them as lane batches.

    Single-event-loop object: :meth:`submit` must be awaited from the
    loop the coalescer was created on.  ``sleep`` is awaited once per
    flush with the window length; injecting a manual gate makes the
    window fully controllable in tests.
    """

    def __init__(
        self,
        *,
        window_s: float = DEFAULT_WINDOW_S,
        max_lanes: int = MAX_LANES,
        registry: MetricsRegistry | None = None,
        sleep: Callable[[float], Awaitable[None]] | None = None,
    ):
        if window_s < 0:
            raise ValueError(f"window_s must be >= 0, got {window_s}")
        if max_lanes < 1:
            raise ValueError(f"max_lanes must be >= 1, got {max_lanes}")
        self.window_s = window_s
        self.max_lanes = max_lanes
        self._registry = registry
        self._sleep = sleep if sleep is not None else asyncio.sleep
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="bound-solver"
        )
        # key -> (cell, futures awaiting it), insertion-ordered
        self._pending: dict[str, tuple[Cell, list[asyncio.Future]]] = {}
        self._timer: asyncio.Task | None = None
        self._flushes: set[asyncio.Task] = set()
        self._closed = False

    async def submit(self, cell: Cell) -> dict:
        """Solve ``cell`` (coalesced with concurrent peers); its payload.

        Duplicate submissions of the same cell while one is pending
        share a single solve.  Raises whatever the solver raised for
        the cell's batch.
        """
        if self._closed:
            raise RuntimeError("coalescer is closed")
        key = cell_key(cell)
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        entry = self._pending.get(key)
        if entry is not None:
            entry[1].append(future)
        else:
            self._pending[key] = (cell, [future])
            if len(self._pending) >= self.max_lanes:
                self._flush_now()
            elif self._timer is None:
                self._timer = asyncio.create_task(self._window())
        return await future

    async def _window(self) -> None:
        try:
            await self._sleep(self.window_s)
        except asyncio.CancelledError:
            return
        self._timer = None
        self._flush_now()

    def _flush_now(self) -> None:
        """Move the pending set into a flush task (event-loop thread)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        cells = tuple(cell for cell, _ in pending.values())
        waiters = [futures for _, futures in pending.values()]
        spec = SweepSpec.build("service", cells)
        task = asyncio.create_task(self._run_flush(spec, waiters))
        self._flushes.add(task)
        task.add_done_callback(self._flushes.discard)

    async def _run_flush(
        self, spec: SweepSpec, waiters: list[list[asyncio.Future]]
    ) -> None:
        loop = asyncio.get_running_loop()
        try:
            payloads, occupancies, snapshot = await loop.run_in_executor(
                self._pool, solve_spec, spec, self.max_lanes
            )
        except Exception as exc:
            for futures in waiters:
                for future in futures:
                    if not future.done():
                        future.set_exception(exc)
            return
        if self._registry is not None:
            self._registry.merge(snapshot)
            for occupancy in occupancies:
                self._registry.observe("service.batch_occupancy", occupancy)
        for futures, payload in zip(waiters, payloads):
            for future in futures:
                if not future.done():
                    future.set_result(payload)

    async def flush(self) -> None:
        """Flush any pending queries now and wait for in-flight solves."""
        self._flush_now()
        while self._flushes:
            await asyncio.gather(*list(self._flushes), return_exceptions=True)

    async def aclose(self) -> None:
        """Flush, drain, and release the worker thread."""
        if self._closed:
            return
        self._closed = True
        await self.flush()
        self._pool.shutdown(wait=True)

    @property
    def pending_count(self) -> int:
        """Distinct cells currently waiting for the window (tests)."""
        return len(self._pending)
