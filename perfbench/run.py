"""One benchmark for the three paths: figure sweeps, validation, bound service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Each workload puts one path at full size and, because every run reports
every end-to-end metric of ``BENCHMARK.json``, the other two paths at a
small size:

========  ===========================  =================================
workload  full size                    small size of the other two paths
========  ===========================  =================================
figures   Figs. 2-4, 186 cells         validation H 1-2; 52 cold queries
validate  H 1,2,4,8 x 4 trials         Figs. 2 (H=2) + 4 (H=1); 52 cold
serve     103 cold queries, 7200 hot   Figs. 2 (H=2) + 4 (H=1); H 1-2
========  ===========================  =================================

``--trace 0`` measures end-to-end metrics with nothing wrapped.  Times
are reported at a reference machine speed (see ``speed.py``), because
the vCPUs of shared virtual hosts change speed by up to 1.8x within a
second; the raw values are printed on the line before the result.  The
benchmark pins its processes to two CPUs for this (``common.BENCH_CPU``).
``--trace 1`` runs only the workload's own path, once untraced and then
with a wrapper around each layer's public functions (see ``tracer.py``),
and reports the per-layer metrics named in ``BENCHMARK.json`` (the
line before the result holds the exact counts).  The last line of
standard output is the JSON result; the first records the machine
(nproc, Python, numpy, whether ``cc`` exists).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_CPU,
    ROOT,
    SRC,
    WORK_CPUS,
    Clock,
    configure_environment,
    environment_record,
    median_pair,
    new_run_dir,
    peak_rss_mb,
    pin,
    python_child,
    remove_tree,
    time_until_line,
)
from outcome import Outcome
from speed import SpeedSampler

WORKLOADS = ("figures", "validate", "serve")
#: Size of each path on each workload.
SIZES = {
    "figures": {"figures": "full", "validate": "small", "serve": "small"},
    "validate": {"figures": "small", "validate": "full", "serve": "small"},
    "serve": {"figures": "small", "validate": "small", "serve": "full"},
}
SETUP_LAUNCHES = 4
#: Share of ``--seconds`` spent repeating the warm sweep pass.
WARM_SHARE = {"full": 0.05, "small": 0.02}


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _ready(path: str) -> float:
    """Seconds from start to the "ready" line of ``ready.py <path>``."""
    start = time.perf_counter()
    proc = python_child(
        [str(Path(__file__).with_name("ready.py")), path],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        elapsed, _ = time_until_line(proc, "ready", start)
    finally:
        proc.wait()
        proc.stdout.close()
    return elapsed


def run_untraced(
    workload: str, seed: int, seconds: int, run_dir: Path, sampler,
    outcome: Outcome,
) -> dict[str, float]:
    """End-to-end metrics at reference speed; prints the raw values."""
    import figures
    import serve
    import validate

    sizes = SIZES[workload]
    clock = Clock(sampler)
    times = []
    for i in range(SETUP_LAUNCHES):
        if workload == "serve":
            factor, raw = clock.remote(
                serve.server_startup_s, run_dir / f"setup-{i}",
                cpus=(BENCH_CPU,),
            )
        else:
            factor, raw = clock.remote(_ready, workload, cpus=(BENCH_CPU,))
        times.append((raw * factor, raw))
    metrics = {"setup_s": median_pair(times)}
    metrics.update(figures.measure(
        sizes["figures"], run_dir, WARM_SHARE[sizes["figures"]] * seconds,
        clock, outcome,
    ))
    metrics.update(
        validate.measure(sizes["validate"], seed, run_dir, clock, outcome)
    )
    serve_metrics, server_rss_kb = serve.measure(
        sizes["serve"], seed, run_dir, clock, outcome
    )
    metrics.update(serve_metrics)
    print(json.dumps({"raw": {k: v[1] for k, v in metrics.items()}}))
    values = {name: scaled for name, (scaled, _) in metrics.items()}
    values["peak_rss_mb"] = peak_rss_mb([server_rss_kb])
    return values


def run_traced(
    workload: str, seed: int, run_dir: Path, sampler, outcome: Outcome
) -> dict[str, float]:
    import layers
    from tracer import Tracer

    tracer = Tracer()
    clock = Clock(sampler)
    if workload == "serve":
        import serve

        info = serve.traced(seed, run_dir, clock, outcome)
        tracer.merge_json(info["trace"])
        unattributed = info["cpu_s"] - info["trace"]["self_total_s"]
    else:
        module = __import__(workload)
        if workload == "figures":
            info = module.traced(run_dir, tracer, clock, outcome)
        else:
            info = module.traced(seed, run_dir, tracer, clock, outcome)
        tracer.uninstall()
        unattributed = info["traced_wall_s"] - tracer.self_total_s
    layers.check_expectations(workload, tracer, outcome)
    print(json.dumps({"exact_counts": info["exact_counts"]}))
    values = layers.layer_values(tracer, info)
    values.update({
        "workload.unattributed_s": unattributed,
        "workload.trace_overhead_ratio": info["overhead_ratio"],
    })
    return values


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    from repro.network import cprobe

    spec = _benchmark_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    outcome = Outcome()
    outcome.check(
        cprobe.available(),
        "the compiled probe kernel is unavailable (this would measure the "
        "Python fallback, a different program)",
    )
    run_dir = new_run_dir()
    sampler = SpeedSampler(run_dir, WORK_CPUS)
    pin((BENCH_CPU,))
    try:
        if trace:
            values = run_traced(workload, seed, run_dir, sampler, outcome)
            values["failed_ratio"] = outcome.failed_ratio
            values["network.cprobe.available"] = float(cprobe.available())
        else:
            values = run_untraced(
                workload, seed, seconds, run_dir, sampler, outcome
            )
    finally:
        sampler.close()
        remove_tree(run_dir)
    metrics = {}
    for entry in declared:
        value = values.get(entry["name"])
        if value is None and not trace:
            raise RuntimeError(f"end-to-end metric {entry['name']} missing")
        metrics[entry["name"]] = {
            "value": float(value or 0.0), "unit": entry["unit"],
        }
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=WORKLOADS + ("all",), required=True
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(
            f"no program to benchmark: {SRC / 'repro'} is missing",
            file=sys.stderr,
        )
        return 2
    configure_environment()
    print(json.dumps({"environment": environment_record()}))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return 0
    for workload in WORKLOADS:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        print(json.dumps({workload: result}))
        print(
            f"# {workload}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}"
        )
        for name, metric in result["metrics"].items():
            print(f"#   {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
