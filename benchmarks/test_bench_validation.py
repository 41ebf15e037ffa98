"""Added experiment V1: analytic bounds vs. simulated delay quantiles.

The paper has no testbed; this benchmark supplies the empirical check: at
90% utilization (where queueing is visible) the simulated
(1 - eps)-quantile of the through delay must stay below the analytic
bound for every scheduler, and the table quantifies the bounds'
conservatism.
"""

from conftest import emit

from repro.experiments.validation import format_validation, run_validation


def test_validation_series(benchmark, output_dir):
    """Bound vs. simulation across schedulers and path lengths."""

    def compute():
        return run_validation(
            schedulers=("FIFO", "BMUX", "EDF"),
            hops=(1, 2, 3),
            utilization=0.90,
            epsilon=1e-3,
            slots=20_000,
            quick=True,
        )

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    table = format_validation(rows)
    emit(output_dir, "validation_bounds_vs_sim", table)

    for row in rows:
        assert row.sound, table
        # sanity in the other direction: the bound is within two orders of
        # magnitude of the worst simulated delay (not vacuous)
        assert row.bound <= 200 * max(row.simulated_max, 1.0)
    benchmark.extra_info["cells"] = len(rows)


def test_validation_single_simulation(benchmark):
    """Timing of one 10k-slot tandem simulation."""
    from repro.experiments.config import paper_setting
    from repro.simulation.engine import SimulationConfig, simulate_tandem_mmoo

    setting = paper_setting()

    def compute():
        config = SimulationConfig(
            traffic=setting.traffic, n_through=300, n_cross=300, hops=2,
            capacity=100.0, slots=10_000, scheduler="fifo", seed=1,
        )
        return simulate_tandem_mmoo(config)

    result = benchmark.pedantic(compute, rounds=1, iterations=1)
    assert result.route_delays["through"].total_mass > 0
