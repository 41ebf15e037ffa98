"""Benchmark: the production bound solver vs. the scalar reference search.

Acceptance gate of the numpy bound backend: representative cells of each
figure's bound grid (the expensive EDF fixed points plus the FIFO/BMUX
closed-form cells, quick grids) must run at least 10x faster end to end
through ``backend="numpy"`` than through the plain nested scalar search,
and every cell's delay must agree to 1e-9 relative (infeasible cells
must agree on ``inf``).  The denominator is the scalar flavour of the
test-only reference search (``tests/network/reference_search.py``),
swapped in for the cell module's solver names: the production scalar
backend now runs on the lane engine's compiled probes and is no longer
the slow reference this gate measures against.  One benchmark per
figure, so the regression gate watches each grid's vectorized runtime
separately.
"""

import math
import sys
import time

from repro.experiments.config import grids, paper_setting, setting_to_params
from repro.experiments.example1 import fig2_cell
from repro.experiments.example2 import fig3_cell
from repro.experiments.example3 import fig4_cell
from tests.network import reference_search

SPEEDUP_FLOOR = 10.0
REL_TOL = 1e-9

FIG2_CELLS = [
    dict(scheduler=s, hops=h, utilization=0.50, n_through=100)
    for s, h in [("BMUX", 5), ("BMUX", 10), ("FIFO", 5), ("FIFO", 10), ("EDF", 10)]
]
FIG3_CELLS = [
    dict(scheduler=s, hops=h, mix=0.5, utilization=0.50)
    for s, h in [
        ("BMUX", 5), ("BMUX", 10), ("FIFO", 5), ("FIFO", 10), ("EDF short", 10)
    ]
]
FIG4_CELLS = [
    dict(scheduler=s, hops=10, utilization=0.50)
    for s in ("BMUX", "FIFO", "EDF", "BMUX additive")
]


def _run_grid(cell_fn, cells, backend):
    shared = {**setting_to_params(paper_setting()), **grids(True)}
    delays = {}
    for kwargs in cells:
        row = cell_fn(backend=backend, **kwargs, **shared)["rows"][0]
        delays[(row["series"], row["x"])] = row["delay"]
    return delays


def _reference_grid(monkeypatch, cell_fn, cells):
    """The grid through the scalar reference search."""
    module = sys.modules[cell_fn.__module__]
    with monkeypatch.context() as patch:
        for name in ("e2e_delay_bound_mmoo", "e2e_delay_bound_edf"):
            patch.setattr(module, name, getattr(reference_search, name))
        return _run_grid(cell_fn, cells, "scalar")


def _gate(benchmark, monkeypatch, cell_fn, cells):
    t0 = time.perf_counter()
    scalar = _reference_grid(monkeypatch, cell_fn, cells)
    scalar_s = time.perf_counter() - t0

    numpy_times = []

    def run_numpy():
        start = time.perf_counter()
        result = _run_grid(cell_fn, cells, "numpy")
        numpy_times.append(time.perf_counter() - start)
        return result

    vectorized = benchmark.pedantic(run_numpy, rounds=1, iterations=1)
    numpy_s = numpy_times[-1]

    assert set(vectorized) == set(scalar)
    for key, expected in scalar.items():
        got = vectorized[key]
        if math.isinf(expected):
            assert math.isinf(got), (key, got, expected)
            continue
        rel = abs(got - expected) / max(1.0, abs(expected))
        assert rel <= REL_TOL, (key, got, expected, rel)

    speedup = scalar_s / numpy_s
    benchmark.extra_info["scalar_s"] = round(scalar_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR, (
        f"numpy backend only {speedup:.2f}x faster than scalar "
        f"({numpy_s:.2f}s vs {scalar_s:.2f}s); need >= {SPEEDUP_FLOOR}x"
    )


def test_fig2_bound_grid_speedup(benchmark, monkeypatch):
    """Fig. 2 representative bound cells: numpy >= 10x scalar."""
    _gate(benchmark, monkeypatch, fig2_cell, FIG2_CELLS)


def test_fig3_bound_grid_speedup(benchmark, monkeypatch):
    """Fig. 3 representative bound cells: numpy >= 10x scalar."""
    _gate(benchmark, monkeypatch, fig3_cell, FIG3_CELLS)


def test_fig4_bound_grid_speedup(benchmark, monkeypatch):
    """Fig. 4 representative cells (incl. additive): numpy >= 10x scalar."""
    _gate(benchmark, monkeypatch, fig4_cell, FIG4_CELLS)
