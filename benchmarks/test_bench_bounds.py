"""Benchmark: the production bound solver vs. the scalar reference search.

Acceptance gate of the production bound solver: representative cells of
each figure's bound grid (the expensive EDF fixed points plus the
FIFO/BMUX closed-form cells, quick grids) must run at least 10x faster
end to end than through the plain nested scalar search, and every
cell's delay must agree to 1e-9 relative (infeasible cells must agree
on ``inf``).  The denominator is the scalar flavour of the test-only
reference search (``tests/network/reference_search.py``), swapped in
for the cell module's solver names; the Fig. 4 additive baseline runs
its own ``backend="scalar"`` search there.  One benchmark per
figure, so the regression gate watches each grid's vectorized runtime
separately.

One rung below (L0 of the benchmark ladder), the exact-solve row times
:func:`~repro.network.vectorized.batched_solve_exact` alone on one
figure-shaped EDF grid — 36 γ rows of a 10-hop path in the ``Delta <= 0``
case of Eq. (38) — on the compiled kernel and on its numpy fallback,
over enough rounds for a median and quartiles, in rows per second; the
scalar-solve row times the same rows one at a time through
:func:`~repro.network.optimization.solve_exact`.  The
grid-row rung beside it times
:func:`~repro.network.vectorized.e2e_delay_grid_rows` on one
figure-shaped FIFO batch — the 12 ``s`` lanes of a Fig. 2 ``H = 10``
cell, 12 γ points each — on the compiled kernel and on its Python
fallback, in rows (lanes) per second.

Above them, L1 times ``cprobe.probe_values`` at 1 request per call (the
wrapper's per-call cost) and at 10k (the kernel's throughput), L2 one
``lanes.gamma_search`` and L3 one cold service query's one-lane solve
at the service's FIFO and EDF H = 1 shapes, each over enough rounds for
a median and quartiles, with rates.
"""

import functools
import math
import sys
import time

import numpy as np
import pytest
from conftest import record_rates

from repro.arrivals.mmoo import MMOOParameters
from repro.experiments.config import grids, paper_setting, setting_to_params
from repro.experiments.example1 import fig2_cell
from repro.experiments.example2 import fig3_cell
from repro.experiments.example3 import fig4_cell
from repro.network import cprobe
from repro.network.e2e import mmoo_ebb_pair
from repro.network.optimization import HopParameters, solve_exact
from repro.network.vectorized import (
    _sigma_raw,
    batched_solve_exact,
    e2e_delay_grid_rows,
)
from repro.utils.numeric import logspace
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
    """The grid through the scalar reference search (the cells no
    longer pass ``backend`` to these solvers, so it is bound here)."""
    module = sys.modules[cell_fn.__module__]
    with monkeypatch.context() as patch:
        for name in ("e2e_delay_bound_mmoo", "e2e_delay_bound_edf"):
            patch.setattr(module, name, functools.partial(
                getattr(reference_search, name), backend="scalar"
            ))
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
        f"production solver only {speedup:.2f}x faster than scalar "
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


SOLVE_HOPS = 10
SOLVE_ROWS = 36


def _edf_solve_grid():
    """The exact-solve input of one Fig. 2 EDF cell's γ grid (H = 10,
    U = 50%): per-hop rates, cross rates, one Delta <= 0, sigmas."""
    through, cross = mmoo_ebb_pair(
        MMOOParameters.paper_defaults(), 100, 233, 0.02
    )
    headroom = 100.0 - cross.rate - through.rate
    gamma_max = headroom / (SOLVE_HOPS + 1)
    g = np.array(
        logspace(gamma_max * 1e-6, gamma_max * (1.0 - 1e-9), SOLVE_ROWS)
    )
    sigma = np.array([
        max(0.0, _sigma_raw(through, cross, SOLVE_HOPS, gamma, 1e-9))
        for gamma in g.tolist()
    ])
    r_svc = 100.0 - np.arange(SOLVE_HOPS)[None, :] * g[:, None]
    r_cross = (cross.rate + g)[:, None]
    return (r_svc, r_cross, -70.0, sigma), {}


@pytest.mark.parametrize("path", ["c", "python"])
def test_solve_exact(benchmark, monkeypatch, path):
    """Eq. (38) exact solve of one EDF γ grid: rows per second, C kernel
    vs. numpy body."""
    if path == "python":
        monkeypatch.setattr(cprobe.KERNEL, "load", lambda: None)
    elif not cprobe.available():
        pytest.skip("no C compiler: the compiled kernel is unavailable")
    delay, _, _ = benchmark.pedantic(
        batched_solve_exact, setup=_edf_solve_grid,
        rounds=2000 if path == "c" else 300, iterations=1, warmup_rounds=1,
    )
    assert np.isfinite(delay).all()
    record_rates(benchmark, "rows", SOLVE_ROWS)


def _scalar_solve_rows():
    """The rows of :func:`_edf_solve_grid` as scalar solves: per γ, the
    ``H = 10`` homogeneous ``Delta <= 0`` hops and their sigma."""
    (r_svc, r_cross, delta, sigma), _ = _edf_solve_grid()
    rows = [
        ([HopParameters(r, cross, delta) for r in rates], s)
        for rates, cross, s in zip(
            r_svc.tolist(), r_cross[:, 0].tolist(), sigma.tolist()
        )
    ]
    return (rows,), {}


def _solve_rows(rows):
    return [solve_exact(hops, sigma).delay for hops, sigma in rows]


def test_scalar_solve_exact(benchmark):
    """Eq. (38) scalar solve (the slope sweep of
    ``optimization.solve_exact``) of the same EDF γ grid, one row per
    call: rows per second.  The delays are the batched solve's bytes."""
    delays = benchmark.pedantic(
        _solve_rows, setup=_scalar_solve_rows,
        rounds=300, iterations=1, warmup_rounds=1,
    )
    args, _ = _edf_solve_grid()
    assert delays == batched_solve_exact(*args)[0].tolist()
    record_rates(benchmark, "rows", SOLVE_ROWS)


GRID_LANES = 12


def _fifo_grid_rows():
    """One engine round of a Fig. 2 FIFO cell (H = 10, U = 50%): its 12
    ``s`` lanes, each with its 12-point log γ grid."""
    traffic = MMOOParameters.paper_defaults()
    throughs, crosses, rows = [], [], []
    for s in np.geomspace(2e-6, 0.02, GRID_LANES).tolist():
        through, cross = mmoo_ebb_pair(traffic, 100, 233, s)
        gamma_max = (100.0 - cross.rate - through.rate) / (SOLVE_HOPS + 1)
        throughs.append(through)
        crosses.append(cross)
        rows.append(
            logspace(gamma_max * 1e-6, gamma_max * (1.0 - 1e-9), 12)
        )
    zeros = [0.0] * GRID_LANES
    return (
        throughs, crosses, SOLVE_HOPS, 100.0, zeros, 1e-9, np.array(rows)
    ), {}


@pytest.mark.parametrize("path", ["c", "python"])
def test_grid_rows(benchmark, monkeypatch, path):
    """FIFO γ-grid rows of one Fig. 2 cell: rows per second, C kernel
    vs. Python body."""
    if path == "python":
        monkeypatch.setattr(cprobe.KERNEL, "load", lambda: None)
    elif not cprobe.available():
        pytest.skip("no C compiler: the compiled kernel is unavailable")
    delays = benchmark.pedantic(
        e2e_delay_grid_rows, setup=_fifo_grid_rows,
        rounds=2000 if path == "c" else 200, iterations=1, warmup_rounds=1,
    )
    assert np.isfinite(delays).all()
    record_rates(benchmark, "rows", GRID_LANES)


def _probe_requests(n):
    """``n`` probe requests over one Fig. 2 EDF context (H = 10,
    Δ = -70: the Eq. (38) path), γ spread over its feasible range."""
    through, cross = mmoo_ebb_pair(
        MMOOParameters.paper_defaults(), 100, 233, 0.02
    )
    table = cprobe.ProbeTable()
    index = table.add(through, cross, SOLVE_HOPS, 100.0, -70.0, 1e-9)
    top = (100.0 - cross.rate - through.rate) / (SOLVE_HOPS + 1)
    gammas = np.linspace(top * 1e-3, top * 0.999, n).tolist()
    return table, [index] * n, gammas


@pytest.mark.parametrize("requests", [1, 10_000])
def test_probe_values(benchmark, requests):
    """L1: ``cprobe.probe_values`` per call — at 1 request the per-call
    cost of the wrapper, at 10k the kernel's throughput — in requests
    per second."""
    args = _probe_requests(requests)
    out = benchmark.pedantic(
        cprobe.probe_values, args=args,
        rounds=5000 if requests == 1 else 100, iterations=1,
        warmup_rounds=1,
    )
    assert np.isfinite(out).all()
    record_rates(benchmark, "requests", requests)


def test_gamma_search(benchmark):
    """L2: one ``lanes.gamma_search`` — grid row, argmin, golden
    refinement, probe — on a Fig. 2 EDF context (H = 10), in searches
    per second."""
    from repro.network.lanes import gamma_search

    through, cross = mmoo_ebb_pair(
        MMOOParameters.paper_defaults(), 100, 233, 0.02
    )
    gamma, delay = benchmark.pedantic(
        gamma_search,
        args=(through, cross, SOLVE_HOPS, 100.0, -70.0, 1e-9, 12),
        rounds=1000, iterations=1, warmup_rounds=1,
    )
    assert gamma > 0.0 and math.isfinite(delay)
    record_rates(benchmark, "searches", 1)


#: Cold service query shapes: a FIFO H = 1 query and one of the EDF H = 1
#: queries of the benchmark's cold stream, on the service defaults.
SERVICE_QUERIES = {
    "fifo": {"scheduler": "FIFO", "hops": 1, "n_through": 180,
             "n_cross": 150},
    "edf": {"scheduler": "EDF", "hops": 1, "n_through": 130,
            "n_cross": 120},
}


@pytest.mark.parametrize("shape", sorted(SERVICE_QUERIES))
def test_one_lane_solve(benchmark, shape):
    """L3: one cold service query's lane solve — ``mmoo_bound_lanes``
    (FIFO) or ``edf_bound_lanes`` (EDF) on one lane — in solves per
    second."""
    from repro.experiments.batch import plan_cell
    from repro.network.lanes import edf_bound_lanes, mmoo_bound_lanes
    from repro.service.api.model import BoundQuery

    plan = plan_cell(BoundQuery.from_json(SERVICE_QUERIES[shape]).cell())
    solve = edf_bound_lanes if plan.kind == "edf" else mmoo_bound_lanes
    (result,) = benchmark.pedantic(
        solve, args=([plan.spec],), rounds=60, iterations=1,
        warmup_rounds=1,
    )
    assert plan.build(result)["rows"][0]["feasible"]
    record_rates(benchmark, "solves", 1)
