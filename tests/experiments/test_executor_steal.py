"""The work-stealing executor: ordering, streaming, stealing, errors."""

import time

import pytest

from repro import obs
from repro.experiments.executor import (
    SerialExecutor,
    WorkStealingExecutor,
    make_executor,
)


def _square(x):
    return x * x


def _slow_square(x):
    # first items slow: seeds worker 0 with the heavy run so worker 1
    # must steal to stay busy
    time.sleep(0.05 if x < 4 else 0.0)
    return x * x


def _boom(x):
    if x == 3:
        raise ValueError("item three exploded")
    return x


def test_make_executor_work_stealing():
    assert isinstance(make_executor(1), SerialExecutor)
    executor = make_executor(3)
    assert isinstance(executor, WorkStealingExecutor)
    assert executor.jobs == 3


def test_rejects_bad_jobs():
    with pytest.raises(ValueError):
        WorkStealingExecutor(0)


def test_map_preserves_order():
    executor = WorkStealingExecutor(2)
    items = list(range(12))
    assert executor.map(_square, items) == [x * x for x in items]


def test_map_single_job_runs_in_process():
    executor = WorkStealingExecutor(1)
    assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert executor.last_steals == 0


def test_map_stream_delivers_every_item():
    executor = WorkStealingExecutor(2)
    seen = {}
    results = executor.map_stream(
        _square, list(range(8)), lambda i, r: seen.__setitem__(i, r)
    )
    assert results == [x * x for x in range(8)]
    assert seen == {i: i * i for i in range(8)}


def test_stealing_happens_on_imbalance():
    executor = WorkStealingExecutor(2)
    items = list(range(8))
    with obs.scoped(enabled=True) as registry:
        results = executor.map(_slow_square, items)
        steals = registry.counter("executor.steals")
    assert results == [x * x for x in items]
    assert executor.last_steals == steals
    assert steals >= 1, "imbalanced run finished without a single steal"


def test_worker_error_propagates():
    executor = WorkStealingExecutor(2)
    with pytest.raises(RuntimeError, match="item three exploded"):
        executor.map(_boom, list(range(6)))


def test_serial_executor_streams():
    calls = []
    results = SerialExecutor().map_stream(
        _square, [1, 2, 3], lambda i, r: calls.append((i, r))
    )
    assert results == [1, 4, 9]
    assert calls == [(0, 1), (1, 4), (2, 9)]


def test_parallel_executor_streams():
    calls = []
    results = make_executor(2).map_stream(
        _square, [1, 2, 3, 4], lambda i, r: calls.append((i, r))
    )
    assert results == [1, 4, 9, 16]
    assert sorted(calls) == [(0, 1), (1, 4), (2, 9), (3, 16)]
