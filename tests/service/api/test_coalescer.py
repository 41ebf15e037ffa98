"""The batch coalescer: windows, fusion, dedup, identity, and errors.

All window behaviour runs against the injectable ``sleep`` gate from
:mod:`tests.service.api.util` — nothing here waits on wall time.
"""

import asyncio
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.sweep import Cell, execute_cell
from repro.obs import MetricsRegistry
from repro.service.api.coalescer import BatchCoalescer
from repro.service.api.model import BoundQuery

from tests.service.api.util import CHEAP_QUERY, ManualSleep

PROBE_FN = "repro.experiments.sweep:probe_cell"


def probe(value: float) -> Cell:
    return Cell.make(PROBE_FN, value=value)


def service_cell(**overrides) -> Cell:
    return BoundQuery.from_json({**CHEAP_QUERY, **overrides}).cell()


def run(coro):
    return asyncio.run(coro)


def test_window_holds_until_released():
    async def main():
        gate = ManualSleep()
        coalescer = BatchCoalescer(sleep=gate)
        tasks = [
            asyncio.create_task(coalescer.submit(probe(float(i))))
            for i in range(3)
        ]
        await gate.wait_parked()  # the window timer is now blocked on us
        assert coalescer.pending_count == 3
        assert gate.calls == [coalescer.window_s]  # one window, not three
        assert not any(task.done() for task in tasks)
        gate.release()
        results = await asyncio.gather(*tasks)
        assert [r["rows"][0]["x"] for r in results] == [0.0, 1.0, 2.0]
        await coalescer.aclose()

    run(main())


def test_max_lanes_flushes_without_window():
    async def main():
        gate = ManualSleep()
        coalescer = BatchCoalescer(sleep=gate, max_lanes=2)
        tasks = [
            asyncio.create_task(coalescer.submit(probe(float(i))))
            for i in range(2)
        ]
        # full house flushes immediately: no window release needed
        results = await asyncio.gather(*tasks)
        assert [r["rows"][0]["x"] for r in results] == [0.0, 1.0]
        await coalescer.aclose()

    run(main())


def test_duplicates_share_one_solve():
    async def main():
        registry = MetricsRegistry(enabled=True)
        gate = ManualSleep()
        coalescer = BatchCoalescer(sleep=gate, registry=registry)
        cell = service_cell()
        tasks = [
            asyncio.create_task(coalescer.submit(cell)) for _ in range(4)
        ]
        await gate.wait_parked()
        assert coalescer.pending_count == 1  # deduped while pending
        gate.release()
        results = await asyncio.gather(*tasks)
        assert all(r == results[0] for r in results)
        snap = registry.snapshot()
        assert snap["counters"]["batch.planned"] == 1.0
        assert snap["series"]["service.batch_occupancy"] == [1.0]
        await coalescer.aclose()

    run(main())


def test_concurrent_distinct_queries_fuse_into_one_batch():
    async def main():
        registry = MetricsRegistry(enabled=True)
        gate = ManualSleep()
        coalescer = BatchCoalescer(sleep=gate, registry=registry)
        cells = [service_cell(hops=h) for h in (1, 2, 3)]
        tasks = [
            asyncio.create_task(coalescer.submit(cell)) for cell in cells
        ]
        await gate.wait_parked()
        gate.release()
        results = await asyncio.gather(*tasks)
        assert [r["rows"][0]["hops"] for r in results] == [1, 2, 3]
        snap = registry.snapshot()
        # same (fn, lane family): one fused batch of 3 lanes
        assert snap["series"]["service.batch_occupancy"] == [3.0]
        assert snap["counters"]["lanes.mmoo_lanes"] == 3.0
        assert snap["counters"].get("batch.fallback_cells", 0.0) == 0.0
        await coalescer.aclose()

    run(main())


def test_coalesced_queries_differing_in_capacity_match_solo():
    """Two concurrent queries that differ only in ``capacity`` fuse into
    one lane batch, and each gets the answer it gets alone."""
    async def main():
        registry = MetricsRegistry(enabled=True)
        gate = ManualSleep()
        coalescer = BatchCoalescer(sleep=gate, registry=registry)
        cells = [
            service_cell(hops=4, n_through=100, n_cross=150, capacity=c)
            for c in (100.0, 150.0)
        ]
        tasks = [
            asyncio.create_task(coalescer.submit(cell)) for cell in cells
        ]
        await gate.wait_parked()
        gate.release()
        together = await asyncio.gather(*tasks)
        snap = registry.snapshot()
        assert snap["series"]["service.batch_occupancy"] == [2.0]
        for cell, payload in zip(cells, together):
            solo = execute_cell(cell)
            assert json.dumps(payload["rows"]) == json.dumps(solo["rows"])
        await coalescer.aclose()

    run(main())


def test_solver_errors_propagate_to_waiters():
    async def main():
        gate = ManualSleep()
        coalescer = BatchCoalescer(sleep=gate)
        task = asyncio.create_task(
            coalescer.submit(Cell.make("repro.no_such_module:f"))
        )
        await gate.wait_parked()
        gate.release()
        with pytest.raises(ModuleNotFoundError):
            await task
        # the coalescer survives a failed flush and keeps serving
        tasks = [asyncio.create_task(coalescer.submit(probe(5.0)))]
        await gate.wait_parked()
        gate.release()
        assert (await tasks[0])["rows"][0]["x"] == 5.0
        await coalescer.aclose()

    run(main())


def test_closed_coalescer_rejects_submits():
    async def main():
        coalescer = BatchCoalescer()
        await coalescer.aclose()
        with pytest.raises(RuntimeError):
            await coalescer.submit(probe(0.0))

    run(main())


def test_invalid_parameters():
    with pytest.raises(ValueError):
        BatchCoalescer(window_s=-1.0)
    with pytest.raises(ValueError):
        BatchCoalescer(max_lanes=0)


@given(
    values=st.lists(
        st.integers(min_value=0, max_value=4), min_size=1, max_size=12
    ),
    releases=st.lists(st.booleans(), max_size=12),
)
def test_identity_under_arbitrary_interleavings(values, releases):
    """Every waiter gets *its own* query's answer, regardless of how
    submissions (with duplicates) interleave with window releases."""

    async def main():
        gate = ManualSleep()
        coalescer = BatchCoalescer(sleep=gate, max_lanes=4)
        tasks = []
        plan = iter(releases)
        for value in values:
            tasks.append(
                (value, asyncio.create_task(coalescer.submit(probe(float(value))))),
            )
            await asyncio.sleep(0)
            if next(plan, False):
                gate.release()
                await asyncio.sleep(0)
        await coalescer.flush()
        gate.release()  # open any still-parked window
        for value, task in tasks:
            payload = await task
            assert payload["rows"][0]["x"] == float(value)
        await coalescer.aclose()

    run(main())
