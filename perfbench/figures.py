"""The figure-sweep path: Figs. 2-4 through ``run_sweep`` on the batched path.

Full size is the CLI-default quick grids of Figs. 2, 3 and 4 (54 + 60 +
72 = 186 cells); the small size is Fig. 2 at H = 2 plus Fig. 4 at H = 1
(30 cells, every lane family and the additive fallback).  The grids are
the paper's, so the seed does not enter this path.

Phases: cold at ``jobs=1`` into a fresh cache directory, a warm re-read
of that directory repeated until its time share is spent, and cold at
``jobs=2`` into another fresh directory.  Every pass's rows are checked
against ``reference/figures.json`` (recorded by ``record_reference.py``)
to within 1e-9 relative.
"""

from __future__ import annotations

import time
import warnings
from pathlib import Path

from common import (
    BENCH_CPU,
    WORK_CPUS,
    Clock,
    load_reference,
    median_pair,
    on_cpus,
    values_match,
)
from outcome import Outcome
from tracer import Tracer

#: Warm passes timed together between two calibrations.
WARM_GROUP = 10


def specs(size: str) -> list:
    from repro.experiments.example1 import fig2_spec
    from repro.experiments.example2 import fig3_spec
    from repro.experiments.example3 import fig4_spec

    if size == "full":
        return [fig2_spec(), fig3_spec(), fig4_spec()]
    return [fig2_spec(hops=(2,)), fig4_spec(hops=(1,))]


def sweep(spec, executor, cache):
    """The benchmark's one call of the batched sweep path."""
    from repro.experiments.sweep import run_sweep

    return run_sweep(spec, executor=executor, cache=cache, batch=True)


def sweep_pass(
    spec_list: list, cache_dir: Path, jobs: int, clock: Clock | None = None
) -> tuple[float, float, list]:
    """One pass over ``spec_list``: ``(scaled s, raw s, results)``.

    With a ``clock``, each figure is timed as its own chunk; without
    one, the scaled time is the raw time.
    """
    from repro.experiments.cache import CellCache
    from repro.experiments.executor import make_executor

    # pool workers inherit the CPUs of this process when they start
    with on_cpus(WORK_CPUS if jobs > 1 else (BENCH_CPU,)):
        executor = make_executor(jobs)
        cache = CellCache(cache_dir)
        scaled = raw = 0.0
        results = []
        for spec in spec_list:
            chunk, took, result = Clock.optional_run(
                clock, sweep, spec, executor, cache
            )
            scaled += chunk
            raw += took
            results.append(result)
    return scaled, raw, results


def check(results: list, outcome: Outcome, phase: str, warm: bool) -> None:
    """Rows of every cell equal the reference; warm passes are all hits."""
    reference = load_reference("figures.json")
    for result in results:
        for cell in result.cells:
            expected = reference.get(cell.key)
            outcome.check(
                expected is not None
                and values_match([dict(r) for r in cell.rows], expected),
                f"figures {phase}: cell {cell.cell.fn} {cell.cell.params} "
                "differs from the reference",
            )
            if warm:
                outcome.check(
                    cell.cached, f"figures {phase}: warm pass recomputed"
                )


def _warm_group(spec_list, cache_dir) -> list:
    return [sweep_pass(spec_list, cache_dir, 1)[2] for _ in range(WARM_GROUP)]


def measure(
    size: str, run_dir: Path, budget_s: float, clock: Clock, outcome: Outcome
) -> dict[str, tuple[float, float]]:
    """End-to-end metrics as ``(reference-speed, raw)`` medians.

    Cold passes at ``jobs=1`` (once at full size) and ``jobs=2`` (twice
    at full size, where two workers and the samplers share two CPUs),
    both five times at small size; warm passes repeated for ``budget_s``.
    """
    spec_list = specs(size)
    repeats, repeats2 = (1, 2) if size == "full" else (5, 5)
    cold, warm, cold2 = [], [], []
    for i in range(repeats):
        warm_dir = run_dir / f"figures-cold1-{i}"
        scaled, raw, results = sweep_pass(spec_list, warm_dir, 1, clock)
        check(results, outcome, "cold jobs=1", warm=False)
        cold.append((scaled, raw))
    deadline = time.perf_counter() + budget_s
    while len(warm) < 3 or time.perf_counter() < deadline:
        scaled, raw, groups = clock.run(_warm_group, spec_list, warm_dir)
        warm.append((scaled / WARM_GROUP, raw / WARM_GROUP))
        for results in groups:
            check(results, outcome, "warm", warm=True)
    for i in range(repeats2):
        # the work runs in pool workers on both CPUs
        factor, (_, raw, results) = clock.remote(
            sweep_pass, spec_list, run_dir / f"figures-cold2-{i}", 2,
            cpus=WORK_CPUS,
        )
        check(results, outcome, "cold jobs=2", warm=False)
        cold2.append((raw * factor, raw))
    return {
        "sweep_cold_s": median_pair(cold),
        "sweep_warm_s": median_pair(warm),
        "sweep_cold_jobs2_s": median_pair(cold2),
    }


def traced(
    run_dir: Path, tracer: Tracer, clock: Clock, outcome: Outcome
) -> dict[str, float]:
    """Per-layer run of the full path; returns wall-clock bookkeeping.

    One untraced cold pass gives the reference time for the tracing
    overhead (both at reference speed); two traced cold passes must give
    identical exact counts (including the EDF non-convergence warnings,
    counted with the "always" filter so repeats are not hidden); then
    traced warm passes and a traced cold ``jobs=2`` pass, with the
    sweep's own registry on to read the executor's queue waits.
    """
    from repro import obs

    spec_list = specs("full")
    untraced_s, _, results = sweep_pass(
        spec_list, run_dir / "trace-ref", 1, clock
    )
    check(results, outcome, "untraced cold", warm=False)

    tracer.install()
    walls, counts, warned = [], [], []
    traced_s = 0.0
    for name in ("trace-a", "trace-b"):
        before = tracer.counts()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scaled, raw, results = sweep_pass(
                spec_list, run_dir / name, 1, clock
            )
        after = tracer.counts()
        check(results, outcome, "traced cold", warm=False)
        traced_s = traced_s or scaled
        walls.append(raw)
        counts.append({k: after[k] - before[k] for k in after})
        warned.append(
            sum("did not converge" in str(w.message) for w in caught)
        )
    outcome.check(
        counts[0] == counts[1] and warned[0] == warned[1],
        f"figures exact counts differ between two cold passes: {counts} "
        f"warnings {warned}",
    )
    outcome.check(
        warned[0] == counts[0]["network.lanes.edf.nonconverged"],
        f"EDF warnings {warned[0]} != non-converged lanes "
        f"{counts[0]['network.lanes.edf.nonconverged']}",
    )
    for _ in range(20):
        _, raw, results = sweep_pass(spec_list, run_dir / "trace-a", 1)
        check(results, outcome, "traced warm", warm=True)
        walls.append(raw)

    obs.reset()
    obs.enable()
    try:
        _, raw, results = sweep_pass(spec_list, run_dir / "trace-jobs2", 2)
        snapshot = obs.snapshot()
    finally:
        obs.disable()
        obs.reset()
    check(results, outcome, "traced cold jobs=2", warm=False)
    walls.append(raw)
    queue_wait = sum(snapshot["series"].get("sweep.cell_queue_wait_s", []))
    tracer.add("experiments.executor.map_stream", "queue_wait_s", queue_wait)
    return {
        "traced_wall_s": sum(walls),
        "overhead_ratio": traced_s / untraced_s - 1.0,
        "exact_counts": counts[0],
    }
