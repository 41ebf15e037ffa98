"""Shared helpers for the figure-regeneration benchmarks.

Each benchmark regenerates one of the paper's figures through the
experiment harness, prints the series (the rows the figure plots), and
writes the table to ``benchmarks/output/`` for inspection.
"""

from __future__ import annotations

from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def emit(output_dir: Path, name: str, table: str) -> None:
    """Print a regenerated series and persist it."""
    header = f"\n===== {name} =====\n"
    print(header + table)
    (output_dir / f"{name}.txt").write_text(table)


def record_rates(benchmark, unit: str, count: float) -> None:
    """Put ``count`` per second in ``extra_info``: the median rate and
    the rates at the time quartiles.

    Under ``--benchmark-disable`` the function runs once and no timing
    statistics exist, so nothing is recorded.
    """
    if benchmark.stats is None:
        return
    stats = benchmark.stats.stats
    benchmark.extra_info[f"{unit}_per_s_median"] = round(count / stats.median)
    benchmark.extra_info[f"{unit}_per_s_iqr"] = [
        round(count / stats.q3),
        round(count / stats.q1),
    ]
