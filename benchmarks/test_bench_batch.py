"""Acceptance gate of the cross-cell batching PR: >= 3x on Fig. 3 EDF.

The gate grid is the Fig. 3 EDF H=10 slice — both deadline-weight
variants over the full mix range, the most expensive cells of the
figure (each pays a full deadline fixed point).  The batched path must
run the grid at least 3x faster end to end than the plain per-cell
search on the same machine, with bitwise-identical rows.  The per-cell
denominator is the numpy flavour of the test-only reference search
(``tests/network/reference_search.py``), swapped in for the cell
module's solver names: the production per-cell entry points are
one-lane calls into the same engine the batched path fuses, so timing
them would measure lane fusion alone.  A second benchmark times the
batched full Fig. 3 sweep so the regression baseline watches the
batched pipeline itself.
"""

import time

from repro.experiments import example2
from repro.experiments.batch import execute_batch, plan_batches
from repro.experiments.example2 import fig3_spec
from repro.experiments.sweep import execute_cell, run_sweep
from tests.network import reference_search

SPEEDUP_FLOOR = 3.0

#: The gate grid: every Fig. 3 EDF cell at H = 10 (2 variants x 5 mixes).
GATE_SPEC = fig3_spec(
    mixes=(0.1, 0.3, 0.5, 0.7, 0.9),
    hops=(10,),
    schedulers=("EDF short", "EDF long"),
    quick=True,
)


def test_batched_fig3_edf_gate(benchmark, monkeypatch):
    """Batched >= 3x per-cell on the Fig. 3 EDF H=10 grid, bitwise-equal."""
    with monkeypatch.context() as patch:
        for name in ("e2e_delay_bound_mmoo", "e2e_delay_bound_edf"):
            patch.setattr(example2, name, getattr(reference_search, name))
        t0 = time.perf_counter()
        per_cell = [execute_cell(cell) for cell in GATE_SPEC.cells]
        per_cell_s = time.perf_counter() - t0

    batched_times = []

    def run_batched():
        start = time.perf_counter()
        batches = plan_batches(GATE_SPEC)
        payloads = [None] * len(GATE_SPEC.cells)
        for batch in batches:
            for index, payload in zip(batch.indices, execute_batch(batch)):
                payloads[index] = payload
        batched_times.append(time.perf_counter() - start)
        return payloads

    batched = benchmark.pedantic(run_batched, rounds=1, iterations=1)
    batched_s = batched_times[-1]

    for want, got in zip(per_cell, batched):
        assert got["rows"] == want["rows"]
        assert got["diagnostics"] == want["diagnostics"]

    speedup = per_cell_s / batched_s
    benchmark.extra_info["per_cell_s"] = round(per_cell_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched execution only {speedup:.2f}x faster than per-cell "
        f"({batched_s:.2f}s vs {per_cell_s:.2f}s); need >= "
        f"{SPEEDUP_FLOOR}x"
    )


def test_fig3_full_sweep_batched(benchmark):
    """The whole Fig. 3 grid through ``run_sweep(batch=True)``."""
    spec = fig3_spec(quick=True)

    def compute():
        return run_sweep(spec, batch=True)

    result = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert len(result.rows) == len(spec.cells)
    benchmark.extra_info["cells"] = len(spec.cells)
