"""Pluggable work executors for the sweep pipeline.

An executor turns a list of independent work items into a list of
results, preserving order.  Two implementations, chosen by
:func:`make_executor`:

* :class:`SerialExecutor` — runs the items in-process, in order;
* :class:`WorkStealingExecutor` — per-worker queues with tail stealing
  (``--jobs N`` on the CLI).  Each worker is seeded a contiguous run of
  items and pops its own queue front; an idle worker steals from the
  tail of the longest remaining queue.  With batched sweeps the unit of
  work is a whole :class:`~repro.experiments.batch.Batch`, whose costs
  vary by orders of magnitude (a fused EDF lane group vs. a singleton
  fallback cell), so stealing — not static chunking — is what keeps the
  tail short.

All executors also expose ``map_stream(fn, items, on_result)``, which
delivers each ``(index, result)`` to ``on_result`` as it completes (in
completion order) while still returning the full result list in input
order.  The streaming callback runs in the parent process, so callers
can write artifacts or fill caches incrementally without coordination.

Items are embarrassingly parallel (no shared state between grid
points), so order preservation is the only contract that keeps parallel
rows byte-identical to serial ones.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import traceback
from typing import Callable, Sequence, TypeVar

from repro import obs

T = TypeVar("T")
R = TypeVar("R")

OnResult = Callable[[int, R], None]


def _serial_stream(
    fn: Callable[[T], R],
    items: Sequence[T],
    on_result: OnResult | None,
) -> list[R]:
    results = []
    for index, item in enumerate(items):
        result = fn(item)
        if on_result is not None:
            on_result(index, result)
        results.append(result)
    return results


class SerialExecutor:
    """Run every item in the calling process, in order."""

    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return self.map_stream(fn, items, None)

    def map_stream(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_result: OnResult | None = None,
    ) -> list[R]:
        if obs.enabled():
            obs.add("executor.batches")
            obs.add("executor.items", len(items))
            obs.set_gauge("executor.jobs", 1)
        return _serial_stream(fn, items, on_result)

    def __repr__(self) -> str:
        return "SerialExecutor()"


def _seed_queues(n_items: int, workers: int) -> list[list[int]]:
    """Deal item indices into ``workers`` contiguous runs."""
    base, extra = divmod(n_items, workers)
    out = []
    pos = 0
    for worker in range(workers):
        size = base + (1 if worker < extra else 0)
        out.append(list(range(pos, pos + size)))
        pos += size
    return out


def _steal_worker(
    worker_id: int,
    fn: Callable,
    items: list,
    shared,
    lock,
    results,
) -> None:
    """Work-stealing loop of one worker process.

    Claims the front of its own queue; when empty, steals from the tail
    of the longest other queue (tail stealing keeps the victim's locality
    intact).  All queue state lives in a managed dict guarded by one
    lock, so no claimed item can be lost or run twice.  Every claimed
    index produces exactly one message on ``results``.
    """
    while True:
        with lock:
            queues = shared["queues"]
            index = None
            if queues[worker_id]:
                index = queues[worker_id].pop(0)
            else:
                victim = max(
                    range(len(queues)), key=lambda w: len(queues[w])
                )
                if queues[victim]:
                    index = queues[victim].pop()
                    shared["steals"] = shared["steals"] + 1
            if index is None:
                return
            shared["queues"] = queues
        try:
            results.put((index, fn(items[index]), None))
        except BaseException as exc:  # propagate to the parent, keep going
            results.put(
                (index, None, f"{type(exc).__name__}: {exc}\n"
                 f"{traceback.format_exc()}")
            )


class WorkStealingExecutor:
    """Process executor with per-worker queues and tail stealing.

    Items are seeded contiguously (worker 0 gets the first run, ...);
    each worker drains its own queue front-first and steals from the
    longest queue's tail once idle.  Results stream back to the parent
    in completion order through a queue, so ``map_stream`` callbacks
    fire as work finishes, not when the pool joins.

    ``last_steals`` records the steal count of the most recent ``map``
    (also accumulated into the ``executor.steals`` counter when the
    :mod:`repro.obs` registry is enabled).
    """

    def __init__(self, jobs: int, *, start_method: str | None = None):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.start_method = start_method
        self.last_steals = 0

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        return self.map_stream(fn, items, None)

    def map_stream(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        on_result: OnResult | None = None,
    ) -> list[R]:
        items = list(items)
        if obs.enabled():
            obs.add("executor.batches")
            obs.add("executor.items", len(items))
            obs.set_gauge("executor.jobs", self.jobs)
        if self.jobs == 1 or len(items) <= 1:
            self.last_steals = 0
            return _serial_stream(fn, items, on_result)
        context = multiprocessing.get_context(self.start_method)
        workers = min(self.jobs, len(items))
        results: list = [None] * len(items)
        with context.Manager() as manager:
            lock = manager.Lock()
            shared = manager.dict()
            shared["queues"] = _seed_queues(len(items), workers)
            shared["steals"] = 0
            result_queue = context.Queue()
            procs = [
                context.Process(
                    target=_steal_worker,
                    args=(w, fn, items, shared, lock, result_queue),
                    daemon=True,
                )
                for w in range(workers)
            ]
            with obs.trace("executor.steal_map"):
                for proc in procs:
                    proc.start()
                try:
                    remaining = len(items)
                    while remaining:
                        try:
                            index, result, error = result_queue.get(
                                timeout=1.0
                            )
                        except queue_module.Empty:
                            if not any(p.is_alive() for p in procs):
                                raise RuntimeError(
                                    "work-stealing workers exited without "
                                    "delivering all results"
                                ) from None
                            continue
                        if error is not None:
                            raise RuntimeError(
                                f"work item {index} failed in worker: "
                                f"{error}"
                            )
                        results[index] = result
                        if on_result is not None:
                            on_result(index, result)
                        remaining -= 1
                finally:
                    for proc in procs:
                        if proc.is_alive():
                            proc.terminate()
                    for proc in procs:
                        proc.join()
                self.last_steals = int(shared["steals"])
        if obs.enabled():
            obs.add("executor.steals", self.last_steals)
        return results

    def __repr__(self) -> str:
        return f"WorkStealingExecutor(jobs={self.jobs})"


def make_executor(
    jobs: int = 1,
) -> SerialExecutor | WorkStealingExecutor:
    """``jobs == 1`` -> serial; ``jobs > 1`` -> work stealing."""
    if jobs == 1:
        return SerialExecutor()
    return WorkStealingExecutor(jobs)
