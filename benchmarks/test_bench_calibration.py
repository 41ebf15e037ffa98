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
"""

import math
import random

import numpy as np

ROUNDS = 60


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
