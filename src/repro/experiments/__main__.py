"""Command-line entry point for the experiment harness.

Usage::

    python -m repro.experiments fig2 [--full] [--jobs 4] [--csv out.csv]
    python -m repro.experiments fig3 --hops 2 5 --json fig3.json
    python -m repro.experiments fig4 --utilizations 0.5 --no-cache
    python -m repro.experiments validation --slots 30000 --seed 7
    python -m repro.experiments topology --topology parking-lot --size 4

Each command declares one of the paper's figures (or the added
validation experiment) as a sweep spec and runs it through the sweep
engine: ``--jobs N`` fans the cells out over a process pool, and a
content-keyed cell cache under ``--cache-dir`` (default
``.repro_cache/``) makes warm re-runs only recompute changed cells
(``--no-cache`` disables it).  The series print as a table; ``--csv``
writes the rows and ``--json`` writes a structured artifact with the
full grid metadata, per-cell wall-clock, and diagnostics.

``--trace`` turns on the structured observability layer
(:mod:`repro.obs`) for the run: hierarchical span timers, optimizer and
cache counters, and per-cell runtime/queue-wait series are collected —
including inside pool workers, whose snapshots are merged after the
join — and embedded in the JSON artifact under ``"metrics"``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from typing import Sequence

from repro import obs
from repro.experiments.cache import DEFAULT_CACHE_DIR, CellCache
from repro.experiments.config import BACKENDS, DEFAULT_BACKEND
from repro.experiments.example1 import fig2_spec
from repro.experiments.example2 import fig3_spec
from repro.experiments.example3 import fig4_spec
from repro.experiments.executor import make_executor
from repro.experiments.runner import (
    dict_rows_to_csv,
    format_table,
    rows_to_csv,
    write_json_artifact,
)
from repro.experiments.stream import StreamingArtifactWriter
from repro.experiments.sweep import run_sweep
from repro.experiments.topology import (
    format_topology,
    rows_to_topology,
    topology_spec,
    topology_summary,
)
from repro.experiments.validation import (
    format_rare_validation,
    format_validation,
    rare_validation_summary,
    rows_to_validation,
    run_rare_validation,
    validation_spec,
    validation_summary,
)
from repro.simulation.engine import ENGINES
from repro.topology import ANALYZABLE_SCHEDULERS
from repro.topology.scenarios import SCENARIOS


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the full optimization grids (slower, <1%% tighter)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="compute cells on N worker processes (default: 1, serial)",
    )
    parser.add_argument(
        "--batch", action="store_true",
        help="fuse compatible cells into vectorized mega-batches (see "
        "repro.experiments.batch); results are bitwise identical to "
        "per-cell execution",
    )
    parser.add_argument(
        "--csv", metavar="PATH", help="also write the rows as CSV"
    )
    parser.add_argument(
        "--json", metavar="PATH",
        help="also write a structured JSON artifact (rows + grid metadata "
        "+ per-cell diagnostics and wall-clock)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="recompute every cell, bypassing the on-disk cell cache",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="collect structured metrics (span timers, optimizer/cache "
        "counters, per-cell runtimes) and embed the tree in the JSON "
        "artifact under 'metrics'",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR",
        help=f"cell cache directory (default: {DEFAULT_CACHE_DIR})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the figures of 'Does Link Scheduling "
        "Matter on Long Paths?' (ICDCS 2010).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p2 = sub.add_parser("fig2", help="Example 1: bounds vs. utilization")
    p2.add_argument("--hops", type=int, nargs="+", default=[2, 5, 10])
    p2.add_argument(
        "--utilizations", type=float, nargs="+",
        default=[0.20, 0.35, 0.50, 0.65, 0.80, 0.95],
    )
    _add_common(p2)

    p3 = sub.add_parser("fig3", help="Example 2: bounds vs. traffic mix")
    p3.add_argument("--hops", type=int, nargs="+", default=[2, 5, 10])
    p3.add_argument(
        "--mixes", type=float, nargs="+", default=[0.1, 0.3, 0.5, 0.7, 0.9]
    )
    _add_common(p3)

    p4 = sub.add_parser("fig4", help="Example 3: bounds vs. path length")
    p4.add_argument("--hops", type=int, nargs="+", default=[1, 2, 4, 6, 8, 10])
    p4.add_argument(
        "--utilizations", type=float, nargs="+", default=[0.10, 0.50, 0.90]
    )
    p4.add_argument(
        "--backend", choices=BACKENDS, default=DEFAULT_BACKEND,
        help="gamma search of the additive baseline: batched numpy grid "
        "(default) or the scalar reference path",
    )
    _add_common(p4)

    pv = sub.add_parser("validation", help="bounds vs. simulated quantiles")
    pv.add_argument("--hops", type=int, nargs="+", default=[1, 2])
    pv.add_argument("--slots", type=int, default=20_000)
    pv.add_argument("--utilization", type=float, default=0.90)
    pv.add_argument("--epsilon", type=float, default=1e-3)
    pv.add_argument(
        "--seed", type=int, default=5,
        help="root seed; per-trial seeds are spawned from it and "
        "recorded in the artifact for reproducibility",
    )
    pv.add_argument(
        "--trials", type=int, default=1, metavar="N",
        help="independent Monte Carlo trials per grid point (default: 1); "
        "the summary reports the median quantile with a 95%% "
        "order-statistics CI and a bound-violation count",
    )
    pv.add_argument(
        "--engine", choices=ENGINES, default="vectorized",
        help="simulation engine: the vectorized fluid fast path "
        "(default) or the exact chunk-level simulator",
    )
    pv.add_argument(
        "--method", choices=("naive", "importance"), default="naive",
        help="trial estimator: 'naive' compares the simulated "
        "(1-eps)-quantile against the bound (default); 'importance' "
        "estimates P(delay > bound) directly by exponential tilting "
        "(see repro.simulation.rare) — the only way to reach "
        "production epsilons like 1e-6",
    )
    pv.add_argument(
        "--ci-target", type=float, default=0.25, metavar="R",
        help="importance method only: keep adding trial batches per "
        "grid point until the 95%% relative CI half-width of the tail "
        "estimate reaches R (default: 0.25); replaces the fixed "
        "--trials count",
    )
    pv.add_argument(
        "--batch-trials", type=int, default=100, metavar="N",
        help="importance method only: trials per adaptive batch "
        "(default: 100); batches are prefix-stable slices of the "
        "per-seed sequence, so cached batch cells survive target "
        "changes",
    )
    pv.add_argument(
        "--max-batches", type=int, default=25, metavar="N",
        help="importance method only: per-point batch cap for the "
        "adaptive loop (default: 25)",
    )
    _add_common(pv)

    pt = sub.add_parser(
        "topology",
        help="per-route bounds vs. simulation on a feed-forward scenario",
    )
    pt.add_argument(
        "--topology", choices=SCENARIOS, default="sink-tree",
        help="scenario shape (default: sink-tree)",
    )
    pt.add_argument(
        "--size", type=int, default=2,
        help="scenario size knob: hops (line/parking-lot), depth "
        "(sink-tree), pods (fat-tree), or node count (random)",
    )
    pt.add_argument(
        "--scheduler", choices=ANALYZABLE_SCHEDULERS, default="fifo",
        help="scheduler at every node (default: fifo)",
    )
    pt.add_argument(
        "--n-flows", type=int, default=20,
        help="flows per route / per cross aggregate (default: 20)",
    )
    pt.add_argument(
        "--utilization", type=float, default=0.7,
        help="target link utilization the capacities are sized for",
    )
    pt.add_argument(
        "--scenario-seed", type=int, default=0,
        help="seed of the random scenario generator (random only)",
    )
    pt.add_argument("--slots", type=int, default=20_000)
    pt.add_argument("--epsilon", type=float, default=1e-3)
    pt.add_argument(
        "--seed", type=int, default=5,
        help="root seed; per-trial seeds are spawned from it and "
        "recorded in the artifact for reproducibility",
    )
    pt.add_argument(
        "--trials", type=int, default=1, metavar="N",
        help="independent Monte Carlo trials of the whole topology "
        "(default: 1)",
    )
    pt.add_argument(
        "--engine", choices=("auto",) + ENGINES, default="auto",
        help="simulation engine: 'auto' picks the vectorized fast path "
        "whenever the topology supports it (default)",
    )
    _add_common(pt)

    return parser


def _build_spec(args: argparse.Namespace):
    if args.command == "fig2":
        return fig2_spec(
            utilizations=tuple(args.utilizations),
            hops=tuple(args.hops),
            quick=not args.full,
        )
    if args.command == "fig3":
        return fig3_spec(
            mixes=tuple(args.mixes),
            hops=tuple(args.hops),
            quick=not args.full,
        )
    if args.command == "fig4":
        return fig4_spec(
            hops=tuple(args.hops),
            utilizations=tuple(args.utilizations),
            quick=not args.full,
            backend=args.backend,
        )
    if args.command == "topology":
        return topology_spec(
            args.topology,
            args.size,
            scheduler=args.scheduler,
            n_flows=args.n_flows,
            utilization=args.utilization,
            scenario_seed=args.scenario_seed,
            epsilon=args.epsilon,
            slots=args.slots,
            seed=args.seed,
            n_trials=args.trials,
            engine=args.engine,
            quick=not args.full,
        )
    return validation_spec(
        hops=tuple(args.hops),
        utilization=args.utilization,
        epsilon=args.epsilon,
        slots=args.slots,
        seed=args.seed,
        n_trials=args.trials,
        engine=args.engine,
        quick=not args.full,
    )


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.trace:
        obs.reset()
        obs.enable()
    try:
        return _run(args)
    finally:
        if args.trace:
            obs.disable()


def _run(args) -> int:
    executor = make_executor(args.jobs)
    cache = None if args.no_cache else CellCache(args.cache_dir)

    if args.command == "validation" and args.method == "importance":
        return _run_rare(args, executor, cache)

    spec = _build_spec(args)
    writer = None
    if args.json or args.csv:
        writer = StreamingArtifactWriter(
            spec, args.json, csv_path=args.csv, csv_rows=dict_rows_to_csv,
            meta={"command": args.command, "jobs": args.jobs},
        )
    with obs.trace(f"cli.{args.command}"):
        result = run_sweep(
            spec, executor=executor, cache=cache, batch=args.batch,
            on_cell=writer.on_cell if writer is not None else None,
        )

    if args.command == "validation":
        validation_rows = rows_to_validation(result.rows)
        print(format_validation(validation_rows))
        csv_text = dict_rows_to_csv(result.rows)
        rc = 0 if all(row.sound for row in validation_rows) else 1
    elif args.command == "topology":
        topology_rows = rows_to_topology(result.rows)
        print(format_topology(topology_rows))
        csv_text = dict_rows_to_csv(result.rows)
        rc = 0 if all(row.sound for row in topology_rows) else 1
    else:
        rows = result.experiment_rows()
        print(format_table(rows, x_label=spec.x_label))
        csv_text = rows_to_csv(rows)
        rc = 0

    print(
        f"[{spec.name}] {len(result.cells)} cells "
        f"({result.cached_cells} cached), "
        f"{result.computed_wall_time_s:.2f}s cell compute time, "
        f"jobs={args.jobs}"
    )

    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(csv_text)
        print(f"wrote {args.csv}")
    if args.trace:
        registry = obs.active()
        hits = registry.counter("cache.hits")
        misses = registry.counter("cache.misses")
        corrupt = registry.counter("cache.corrupt")
        edf_iterations = registry.counter("e2e.edf_iterations")
        nonconverged = registry.counter("e2e.edf_nonconverged")
        print(
            f"[trace] cache hits={hits:.0f} misses={misses:.0f} "
            f"corrupt={corrupt:.0f}, "
            f"edf fixed-point iterations={edf_iterations:.0f} "
            f"(non-converged lanes={nonconverged:.0f})"
        )
        print(_format_kernel_trace(registry))
        if args.batch:
            print(_format_batch_trace(registry))
    if args.json:
        meta = {
            "command": args.command,
            "jobs": args.jobs,
            "full": args.full,
            "trace": args.trace,
        }
        if args.command == "validation":
            meta["seed"] = args.seed
            meta["trials"] = args.trials
            meta["engine"] = args.engine
            meta["summary"] = validation_summary(validation_rows)
        elif args.command == "topology":
            meta["topology"] = args.topology
            meta["size"] = args.size
            meta["scheduler"] = args.scheduler
            meta["seed"] = args.seed
            meta["trials"] = args.trials
            meta["engine"] = args.engine
            meta["summary"] = topology_summary(topology_rows)
        artifact = result.to_artifact(meta=meta)
        if args.trace:
            artifact["metrics"] = obs.snapshot()
        write_json_artifact(args.json, artifact)
        print(f"wrote {args.json}")
    return rc


def _format_kernel_trace(registry) -> str:
    """Which path each compiled kernel ran: C, Python, or unused."""

    def path(gauge: str) -> str:
        value = registry.gauge(gauge)
        return "unused" if value is None else ("C" if value else "Python")

    cprobe_fallbacks = registry.counter("cprobe.fallbacks")
    fallbacks = registry.counter("simulation.kernel_fallbacks")
    sampler_fallbacks = registry.counter("simulation.sampler_fallbacks")
    return (
        f"[trace] kernels: cprobe={path('cprobe.available')} "
        f"simulation={path('simulation.kernel_available')} "
        f"sampler={path('simulation.sampler_available')} "
        f"(cprobe fallback requests={cprobe_fallbacks:.0f}, "
        f"simulation fallback calls={fallbacks:.0f}, "
        f"sampler fallback calls={sampler_fallbacks:.0f})"
    )


def _format_batch_trace(registry) -> str:
    """One-line summary of the batched run's planner/executor metrics."""
    occupancy = registry.series("batch.occupancy")
    mean_occupancy = (
        sum(occupancy) / len(occupancy) if occupancy else 0.0
    )
    lane_iterations = registry.series("lanes.edf_lane_iterations")
    histogram = Counter(int(i) for i in lane_iterations)
    histogram_text = (
        " ".join(f"{k}:{v}" for k, v in sorted(histogram.items())) or "-"
    )
    return (
        f"[trace] batches={registry.counter('batch.executed'):.0f}"
        f"/{registry.counter('batch.planned'):.0f} planned "
        f"(fallback cells={registry.counter('batch.fallback_cells'):.0f}), "
        f"mean occupancy={mean_occupancy:.1f}, "
        f"steals={registry.counter('executor.steals'):.0f}, "
        f"edf lane-iteration histogram: {histogram_text}"
    )


def _run_rare(args, executor, cache) -> int:
    """The ``validation --method importance`` path.

    Two-phase and adaptive (see
    :func:`repro.experiments.validation.run_rare_validation`), so it
    does not fit the single-sweep flow of :func:`_run`; the JSON
    artifact carries the raw batch rows plus the aggregated summary
    under ``meta.summary`` like the naive validation artifact.
    """
    with obs.trace("cli.validation.rare"):
        result = run_rare_validation(
            hops=tuple(args.hops),
            utilization=args.utilization,
            epsilon=args.epsilon,
            seed=args.seed,
            batch_trials=args.batch_trials,
            ci_target=args.ci_target,
            max_batches=args.max_batches,
            engine=args.engine,
            quick=not args.full,
            executor=executor,
            cache=cache,
        )
    print(format_rare_validation(result.rows))
    print(
        f"[validation-rare] {result.cells} cells "
        f"({result.cached_cells} cached), "
        f"{result.computed_wall_time_s:.2f}s cell compute time, "
        f"jobs={args.jobs}"
    )
    if args.trace:
        print(_format_kernel_trace(obs.active()))
    summary = rare_validation_summary(result.rows)
    rc = 0 if all(row.sound for row in result.rows) else 1

    if args.csv:
        with open(args.csv, "w") as handle:
            handle.write(dict_rows_to_csv(summary))
        print(f"wrote {args.csv}")
    if args.json:
        artifact = {
            "name": "validation-rare",
            "settings": {
                "hops": list(args.hops),
                "utilization": args.utilization,
                "epsilon": args.epsilon,
                "ci_target": args.ci_target,
                "batch_trials": args.batch_trials,
                "max_batches": args.max_batches,
                "quick": not args.full,
            },
            "n_cells": result.cells,
            "cached_cells": result.cached_cells,
            "computed_wall_time_s": result.computed_wall_time_s,
            "rows": result.raw_rows,
            "meta": {
                "command": args.command,
                "method": args.method,
                "jobs": args.jobs,
                "seed": args.seed,
                "engine": args.engine,
                "trace": args.trace,
                "summary": summary,
            },
        }
        if args.trace:
            artifact["metrics"] = obs.snapshot()
        write_json_artifact(args.json, artifact)
        print(f"wrote {args.json}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
