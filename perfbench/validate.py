"""The validation path: bounds against naive and importance-sampled simulation.

Naive: FIFO/BMUX/EDF at several H, U = 0.9, eps = 1e-3, several trials
per point on the vectorized engine, with trial seeds spawned from the
workload seed.  Rare: importance sampling at eps = 1e-6, H = 1, a fixed
number of trial batches (the CI target is set to 0 so the adaptive loop
always runs ``max_batches``, making the work independent of the seed).
Each grid runs one chunk per H (naive) or per scheduler (rare), so a
chunk is a few seconds at most; the cells are the same as one grid's.

Each grid runs several times with the same seed into fresh cache
directories (``REPEATS``; the time is the median): the row sets must be
identical, every row sound, and every bound equal to
``reference/validate.json``.
"""

from __future__ import annotations

from pathlib import Path

from common import (
    Clock,
    load_reference,
    median,
    median_pair,
    values_match,
)
from outcome import Outcome
from tracer import Tracer

SIZES = {
    "full": {
        "hops": (1, 2, 4, 8), "trials": 4,
        "rare_schedulers": ("FIFO", "BMUX", "EDF"), "rare_batches": 3,
    },
    "small": {
        "hops": (1, 2), "trials": 3,
        "rare_schedulers": ("FIFO",), "rare_batches": 4,
    },
}
#: Runs of each grid per size: a small grid takes half a second, which
#: one burst of a shared host can double.
REPEATS = {"full": 2, "small": 4}
SLOTS = 20_000
RARE_BATCH_TRIALS = 50


def _naive_chunk(size: str, hops: int, seed: int, cache_dir: Path) -> list:
    from repro.experiments.cache import CellCache
    from repro.experiments.sweep import run_sweep
    from repro.experiments.validation import (
        rows_to_validation,
        validation_spec,
    )

    spec = validation_spec(
        hops=(hops,), n_trials=SIZES[size]["trials"], slots=SLOTS,
        seed=seed, engine="vectorized",
    )
    result = run_sweep(spec, cache=CellCache(cache_dir), batch=True)
    return rows_to_validation(result.rows)


def _rare_chunk(size: str, scheduler: str, seed: int, cache_dir: Path) -> list:
    from repro.experiments.cache import CellCache
    from repro.experiments.validation import run_rare_validation

    return run_rare_validation(
        schedulers=(scheduler,), hops=(1,), epsilon=1e-6, seed=seed,
        batch_trials=RARE_BATCH_TRIALS, ci_target=0.0,
        max_batches=SIZES[size]["rare_batches"], cache=CellCache(cache_dir),
    ).rows


#: grid name -> (chunk function, the size parameter it is chunked over)
GRIDS = {
    "naive": (_naive_chunk, "hops"),
    "rare": (_rare_chunk, "rare_schedulers"),
}


def run_grid(
    name: str, size: str, seed: int, cache_dir: Path,
    clock: Clock | None = None,
) -> tuple[float, float, list]:
    """One grid, chunk by chunk: ``(scaled s, raw s, rows)``."""
    fn, axis = GRIDS[name]
    scaled = raw = 0.0
    rows = []
    for value in SIZES[size][axis]:
        chunk, took, chunk_rows = Clock.optional_run(
            clock, fn, size, value, seed, cache_dir
        )
        scaled += chunk
        raw += took
        rows.extend(chunk_rows)
    return scaled, raw, rows


def _check_rows(rows: list, name: str, outcome: Outcome) -> None:
    reference = load_reference("validate.json")[name]
    for row in rows:
        expected = reference.get(f"{row.scheduler}/{row.hops}")
        outcome.check(
            row.sound, f"validate {name}: {row.scheduler} H={row.hops} "
            "is unsound"
        )
        outcome.check(
            expected is not None and values_match(row.bound, expected),
            f"validate {name}: bound of {row.scheduler} H={row.hops} "
            f"{row.bound!r} != reference {expected!r}",
        )


def _repeat(name, size, seed, run_dir, clock, outcome) -> tuple[float, float]:
    """Run a grid ``REPEATS`` times with one seed; median ``(scaled,
    raw)`` times."""
    times, row_sets = [], []
    for i in range(REPEATS[size]):
        scaled, raw, rows = run_grid(
            name, size, seed, run_dir / f"{name}-{i}", clock
        )
        times.append((scaled, raw))
        _check_rows(rows, name, outcome)
        row_sets.append([row.__dict__ for row in rows])
    outcome.check(
        all(values_match(row_sets[0], rows, rel=0.0) for rows in row_sets),
        f"validate {name}: runs with seed {seed} gave different rows",
    )
    return median_pair(times)


def measure(
    size: str, seed: int, run_dir: Path, clock: Clock, outcome: Outcome
) -> dict[str, tuple[float, float]]:
    """End-to-end metrics as ``(reference-speed, raw)`` medians."""
    return {
        "validate_naive_s": _repeat(
            "naive", size, seed, run_dir, clock, outcome
        ),
        "validate_rare_s": _repeat(
            "rare", size, seed, run_dir, clock, outcome
        ),
    }


def traced(
    seed: int, run_dir: Path, tracer: Tracer, clock: Clock, outcome: Outcome
) -> dict[str, float]:
    """Untraced naive grid for reference, then the naive grid traced
    twice (exact counts must agree) and the rare grid traced once."""
    untraced_s, _, _ = run_grid(
        "naive", "full", seed, run_dir / "trace-ref", clock
    )

    tracer.install()
    walls, counts = [], []
    traced_s = 0.0
    for i in range(2):
        before = tracer.counts()
        scaled, raw, rows = run_grid(
            "naive", "full", seed, run_dir / f"trace-naive-{i}", clock
        )
        after = tracer.counts()
        _check_rows(rows, "naive", outcome)
        traced_s = traced_s or scaled
        walls.append(raw)
        counts.append({k: after[k] - before[k] for k in after})
    outcome.check(
        counts[0] == counts[1],
        f"validate exact counts differ between two runs: {counts}",
    )
    _, raw, rare_rows = run_grid("rare", "full", seed, run_dir / "trace-rare")
    walls.append(raw)
    _check_rows(rare_rows, "rare", outcome)
    tracer.add(
        "simulation.rare", "variance_reduction",
        median([row.variance_reduction for row in rare_rows]),
    )
    return {
        "traced_wall_s": sum(walls),
        "overhead_ratio": traced_s / untraced_s - 1.0,
        "exact_counts": counts[0],
    }
