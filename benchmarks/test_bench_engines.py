"""Benchmark: the vectorized engine vs. the chunk simulator.

Acceptance gate of the Monte Carlo harness: the quick validation grid
with ``--trials 10`` must run at least 5x faster on the vectorized
engine than on the chunk engine.  The engine-agnostic bound cells are
primed into a shared cache first, so both timings measure exactly the
60 trial cells (3 schedulers x 2 path lengths x 10 trials).

One rung below, the slot-kernel row times the EDF link service alone
(one hop, 20 000 slots at 90% load) on the compiled kernel and on its
Python fallback, over enough rounds for a median and quartiles.  The
sampler row does the same for one MMOO aggregate of a validation trial
(300 paper flows, 20 000 slots): the compiled sampler against its numpy
body, in geometric sojourn draws per second.
"""

import time

import numpy as np
import pytest
from conftest import emit, record_rates

from repro.arrivals import csampler, processes
from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.processes import mmoo_aggregate_arrivals
from repro.experiments.cache import CellCache
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.experiments.validation import (
    BOUND_CELL_FN,
    format_validation,
    rows_to_validation,
    validation_spec,
)
from repro.simulation import ckernels
from repro.simulation.vectorized import _serve_edf

SPEEDUP_FLOOR = 5.0


def test_vectorized_engine_speedup(benchmark, output_dir, tmp_path):
    """Quick validation grid, --trials 10: vectorized >= 5x chunk."""
    cache = CellCache(str(tmp_path / "cache"))
    spec_vec = validation_spec(n_trials=10, engine="vectorized")
    spec_chunk = validation_spec(n_trials=10, engine="chunk")
    bound_cells = [c for c in spec_vec.cells if c.fn == BOUND_CELL_FN]
    run_sweep(
        SweepSpec.build("validation", bound_cells, settings=spec_vec.settings),
        cache=cache,
    )

    t0 = time.perf_counter()
    chunk_result = run_sweep(spec_chunk, cache=cache)
    chunk_s = time.perf_counter() - t0

    vec_times = []

    def run_vectorized():
        start = time.perf_counter()
        result = run_sweep(spec_vec, cache=cache)
        vec_times.append(time.perf_counter() - start)
        return result

    vec_result = benchmark.pedantic(run_vectorized, rounds=1, iterations=1)
    vec_s = vec_times[-1]

    rows = rows_to_validation(vec_result.rows)
    table = format_validation(rows)
    emit(output_dir, "validation_engine_speedup", table)
    for row in rows:
        assert row.sound, table
        assert row.n_trials == 10
    for row in rows_to_validation(chunk_result.rows):
        assert row.sound

    speedup = chunk_s / vec_s
    benchmark.extra_info["chunk_s"] = round(chunk_s, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized engine only {speedup:.2f}x faster than chunk "
        f"({vec_s:.2f}s vs {chunk_s:.2f}s); need >= {SPEEDUP_FLOOR}x"
    )


SLOT_KERNEL_SLOTS = 20_000


@pytest.mark.parametrize("path", ["c", "python"])
def test_edf_slot_kernel(benchmark, monkeypatch, path):
    """EDF service of one hop: slots per second, C kernel vs. fallback."""
    if path == "python":
        monkeypatch.setattr(ckernels.KERNEL, "load", lambda: None)
    elif not ckernels.KERNEL.available():
        pytest.skip("no C compiler: the compiled kernel is unavailable")
    rng = np.random.default_rng(0)
    # 90% load on a unit-rate link, half through, half cross
    through = rng.exponential(0.45, size=SLOT_KERNEL_SLOTS)
    cross = rng.exponential(0.45, size=SLOT_KERNEL_SLOTS)
    benchmark.pedantic(
        _serve_edf, args=(through, cross, 1.0, 1, 10),
        rounds=30 if path == "python" else 200, iterations=1,
        warmup_rounds=1,
    )
    record_rates(benchmark, "slots", SLOT_KERNEL_SLOTS)


SAMPLER_FLOWS = 300
SAMPLER_SLOTS = 20_000
PAPER = MMOOParameters.paper_defaults()


def _sampler_args():
    return (PAPER, SAMPLER_FLOWS, SAMPLER_SLOTS, np.random.default_rng(0)), {}


def _sojourn_draws(monkeypatch) -> int:
    """Geometric draws of one benchmark call, counted on the numpy body
    (the compiled sampler makes exactly the same draws)."""
    draws = 0
    geometric = processes._geometric

    def counting(rng, p, size, horizon):
        nonlocal draws
        if p > 0.0:
            draws += size[0] * size[1]
        return geometric(rng, p, size, horizon)

    with monkeypatch.context() as patch:
        patch.setattr(processes, "_geometric", counting)
        patch.setattr(csampler.KERNEL, "load", lambda: None)
        args, _ = _sampler_args()
        mmoo_aggregate_arrivals(*args)
    return draws


@pytest.mark.parametrize("path", ["c", "python"])
def test_mmoo_sampler(benchmark, monkeypatch, path):
    """One 300-flow x 20 000-slot MMOO aggregate: draws per second,
    compiled sampler vs. numpy body."""
    draws = _sojourn_draws(monkeypatch)
    if path == "python":
        monkeypatch.setattr(csampler.KERNEL, "load", lambda: None)
    elif not csampler.KERNEL.available():
        pytest.skip("no C compiler: the compiled sampler is unavailable")
    benchmark.pedantic(
        mmoo_aggregate_arrivals, setup=_sampler_args,
        rounds=60 if path == "c" else 30, iterations=1, warmup_rounds=1,
    )
    benchmark.extra_info["draws"] = draws
    record_rates(benchmark, "draws", draws)
