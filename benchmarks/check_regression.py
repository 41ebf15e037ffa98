#!/usr/bin/env python3
"""Benchmark-regression gate: compare a run against the committed baseline.

Usage::

    python benchmarks/check_regression.py BENCH_PR.json            # gate
    python benchmarks/check_regression.py BENCH_PR.json --update   # re-baseline

Reads a ``pytest-benchmark --benchmark-json`` file, extracts the mean
wall-clock of every benchmark, and compares it against
``benchmarks/BENCH_BASELINE.json``.  Because absolute timings shift with
the host (a CI runner is not the machine the baseline was recorded on),
the comparison is *normalized* by default: a machine-speed factor
scales every baseline row, and a benchmark regresses only if it is
slower than ``baseline * machine_factor * (1 + tolerance)``.  The factor
is the current/baseline ratio of the calibration row
(``benchmarks/test_bench_calibration.py``, a fixed workload that imports
nothing from the package, so no change to the program can move it) when
both files carry it; otherwise the median ratio over all shared
benchmarks, which a change that speeds up many rows drags down with it.
``--raw`` compares absolute means instead.  Exit status 1 on any
regression (the CI gate), 0 otherwise.
Benchmarks present only on one side also fail the gate: a baseline row
without a current run is ``missing``, and a current benchmark without a
baseline row is ``UNBASELINED`` (re-baseline with ``--update`` so new
benchmarks are gated from their first commit).

Stdlib only — runs before/without the project's dependencies.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BASELINE_PATH = Path(__file__).parent / "BENCH_BASELINE.json"
BASELINE_SCHEMA = "repro.bench-baseline/1"
#: The row whose current/baseline ratio is the machine-speed factor.
CALIBRATION = "benchmarks/test_bench_calibration.py::test_calibration"


def load_means(path: Path) -> dict[str, float]:
    """Benchmark name -> mean seconds, from either file format."""
    data = json.loads(path.read_text())
    if data.get("schema") == BASELINE_SCHEMA:
        return {str(k): float(v) for k, v in data["benchmarks"].items()}
    return {
        bench["fullname"]: float(bench["stats"]["mean"])
        for bench in data["benchmarks"]
    }


def write_baseline(means: dict[str, float], path: Path) -> None:
    payload = {
        "schema": BASELINE_SCHEMA,
        "note": (
            "mean seconds per benchmark; regenerate with "
            "`pytest benchmarks/ --benchmark-json=BENCH_PR.json && "
            "python benchmarks/check_regression.py BENCH_PR.json --update`"
        ),
        "benchmarks": {name: round(mean, 6) for name, mean in sorted(means.items())},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def machine_factor(
    current: dict[str, float], baseline: dict[str, float], shared: list[str]
) -> tuple[float, str]:
    """``(factor, where it came from)``: the calibration row's ratio when
    both sides carry it, else the median ratio over ``shared``."""
    if CALIBRATION in current and CALIBRATION in baseline:
        return current[CALIBRATION] / baseline[CALIBRATION], "calibration row"
    return (
        statistics.median(current[n] / baseline[n] for n in shared),
        "median current/baseline ratio",
    )


def compare(
    current: dict[str, float],
    baseline: dict[str, float],
    *,
    tolerance: float,
    normalize: bool,
) -> tuple[list[str], list[str]]:
    """Returns (report lines, regression names)."""
    shared = sorted(set(current) & set(baseline))
    if not shared:
        return (["no shared benchmarks between current run and baseline"], [])
    factor, source = 1.0, "raw comparison"
    if normalize:
        factor, source = machine_factor(current, baseline, shared)
    lines = [
        f"machine-speed factor: {factor:.3f} ({source})",
        f"tolerance: +{tolerance:.0%} on the normalized baseline",
        "",
        f"{'benchmark':<60} {'base(s)':>9} {'cur(s)':>9} {'ratio':>7} {'status':>10}",
    ]
    regressions = []
    for name in shared:
        allowed = baseline[name] * factor * (1.0 + tolerance)
        ratio = current[name] / (baseline[name] * factor)
        status = "ok"
        if current[name] > allowed:
            status = "REGRESSED"
            regressions.append(name)
        lines.append(
            f"{name[-60:]:<60} {baseline[name]:>9.4f} {current[name]:>9.4f} "
            f"{ratio:>7.2f} {status:>10}"
        )
    for name in sorted(set(current) - set(baseline)):
        # a benchmark without a baseline row is ungated — fail so the
        # author re-baselines (--update) instead of shipping it unwatched
        lines.append(f"{name[-60:]:<60} {'--':>9} {current[name]:>9.4f} "
                     f"{'--':>7} {'UNBASELINED':>11}")
        regressions.append(name)
    for name in sorted(set(baseline) - set(current)):
        lines.append(f"{name[-60:]:<60} {baseline[name]:>9.4f} {'--':>9} "
                     f"{'--':>7} {'missing':>10}")
        regressions.append(name)
    return lines, regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "current", type=Path,
        help="pytest-benchmark JSON of the run under test",
    )
    parser.add_argument(
        "--baseline", type=Path, default=BASELINE_PATH,
        help=f"baseline file (default: {BASELINE_PATH})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.30,
        help="allowed slowdown over the normalized baseline (default: 0.30)",
    )
    parser.add_argument(
        "--raw", action="store_true",
        help="compare absolute means without machine-speed normalization",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite the baseline from the current run instead of gating",
    )
    args = parser.parse_args(argv)

    current = load_means(args.current)
    if not current:
        print("no benchmarks in the current run", file=sys.stderr)
        return 1
    if args.update:
        write_baseline(current, args.baseline)
        print(f"baseline updated: {args.baseline} ({len(current)} benchmarks)")
        return 0

    if not args.baseline.exists():
        print(f"baseline {args.baseline} missing; run with --update", file=sys.stderr)
        return 1
    baseline = load_means(args.baseline)
    lines, regressions = compare(
        current, baseline, tolerance=args.tolerance, normalize=not args.raw
    )
    print("\n".join(lines))
    if regressions:
        print(f"\n{len(regressions)} benchmark(s) failed the gate: "
              + ", ".join(regressions), file=sys.stderr)
        unbaselined = sorted(set(current) - set(baseline))
        if unbaselined:
            print(
                f"{len(unbaselined)} benchmark(s) have no baseline row "
                f"({', '.join(unbaselined)}); regenerate the baseline with:\n"
                "  pytest benchmarks/ --benchmark-json=BENCH_PR.json && "
                "python benchmarks/check_regression.py BENCH_PR.json --update",
                file=sys.stderr,
            )
        return 1
    print("\nno regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
