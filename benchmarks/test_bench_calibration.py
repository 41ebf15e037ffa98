"""Calibration row: the host's speed, measured on code no change can move.

``check_regression.py`` divides every row by a machine-speed factor
before gating it.  The median ratio over the whole suite is a poor
factor when a change speeds up many rows at once: the median moves with
the change, and the rows it did not touch are then held to a tighter
bound.  This row runs a fixed workload that imports nothing from
``repro`` — interpreter float arithmetic, small-array numpy calls of
the kind the solver makes, and a list sort — so its ratio to the
baseline tracks the host alone.  It runs enough rounds for a median and
quartiles, whose relative spread goes into ``extra_info``.

A second row, ``test_calibration_us``, times a workload of a few
microseconds — the size of one kernel wrapper call: interpreter
dispatch, a small numpy buffer write and copy, a short sort — over
thousands of rounds.  A loaded host slows such a call by another ratio
than a millisecond loop, so the gate scales the rows under a millisecond
by this row's ratio instead.
"""

import math
import random

import numpy as np

ROUNDS = 60
ROUNDS_US = 5000


def _workload() -> float:
    acc = 0.0
    for i in range(1, 20_000):
        acc += math.sqrt(i) / (i + 1.0)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(300):
        a = np.sort(np.exp(-a) * 0.5 + a[::-1] * 0.5)
    rng = random.Random(11)
    values = sorted(rng.random() for _ in range(20_000))
    return acc + float(a.sum()) + values[len(values) // 2]


def test_calibration(benchmark):
    """One fixed workload, ``ROUNDS`` rounds; same result every round."""
    expected = _workload()
    got = benchmark.pedantic(
        _workload, rounds=ROUNDS, iterations=1, warmup_rounds=2
    )
    assert got == expected
    if benchmark.stats is not None:
        stats = benchmark.stats.stats
        benchmark.extra_info["iqr_over_median"] = round(
            (stats.q3 - stats.q1) / stats.median, 4
        )


_BUFFER = np.empty(64)
_VALUES = [0.5 + 0.01 * k for k in range(24)]


def _workload_us() -> float:
    acc = 0.0
    for value in _VALUES:
        acc += math.sqrt(value) / (value + 1.0)
    _BUFFER[:24] = _VALUES
    row = _BUFFER[:24].copy().tolist()
    row.sort(reverse=True)
    return acc + row[0] + min(row)


def test_calibration_us(benchmark):
    """The microsecond workload, ``ROUNDS_US`` rounds; same result
    every round."""
    expected = _workload_us()
    got = benchmark.pedantic(
        _workload_us, rounds=ROUNDS_US, iterations=1, warmup_rounds=50
    )
    assert got == expected
    if benchmark.stats is not None:
        stats = benchmark.stats.stats
        benchmark.extra_info["iqr_over_median"] = round(
            (stats.q3 - stats.q1) / stats.median, 4
        )
