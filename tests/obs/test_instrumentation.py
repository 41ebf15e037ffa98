"""Integration tests: the obs layer threaded through the pipelines.

These exercise the instrumented call sites end to end — bound
computations, sweeps over both executors, the cell cache, and the CLI's
``--trace`` artifact embedding — against a scoped registry, so the
process-global default stays disabled for every other test.
"""

import json

import pytest

from repro import obs
from repro.arrivals.mmoo import MMOOParameters
from repro.experiments.cache import CellCache
from repro.experiments.executor import SerialExecutor, make_executor
from repro.experiments.sweep import Cell, SweepSpec, run_sweep
from repro.network.e2e import e2e_delay_bound_edf
from repro.simulation.engine import SimulationConfig, simulate_tandem_mmoo

TRAFFIC = MMOOParameters(peak=1.5, p11=0.989, p22=0.9)


@pytest.fixture
def traced():
    with obs.scoped(enabled=True) as registry:
        yield registry


def small_spec(**extra):
    cells = tuple(
        Cell.make(
            "repro.experiments.sweep:probe_cell",
            series="s",
            value=float(i),
            **extra,
        )
        for i in range(3)
    )
    return SweepSpec.build("obs-test", cells, settings={"grid": 1})


class TestEDFFixedPointTrace:
    def test_iterations_and_residuals_recorded(self, traced):
        bound = e2e_delay_bound_edf(
            TRAFFIC, 100, 100, 1, 1500.0, 1e-6, s_grid=6, gamma_grid=6
        )
        iters = traced.counter("e2e.edf_iterations")
        assert iters == bound.diagnostics.iterations
        assert iters >= 1
        residuals = traced.series("e2e.edf_residual")
        assert len(residuals) == iters
        assert residuals[-1] == pytest.approx(bound.diagnostics.residual)

    def test_span_tree_runs_fixed_point_as_one_edf_batch(self, traced):
        bound = e2e_delay_bound_edf(
            TRAFFIC, 100, 100, 1, 1500.0, 1e-6, s_grid=6, gamma_grid=6
        )
        spans = traced.snapshot()["spans"]
        # the per-cell entry point is one lane through the engine
        assert spans["lanes.edf_batch"]["count"] == 1
        assert traced.counter("lanes.edf_lanes") == 1
        # one engine round per fixed-point iteration
        assert traced.counter("lanes.edf_rounds") == (
            bound.diagnostics.iterations
        )

    def test_optimizer_counters_accumulate(self, traced):
        e2e_delay_bound_edf(
            TRAFFIC, 100, 100, 1, 1500.0, 1e-6, s_grid=6, gamma_grid=6
        )
        assert traced.counter("lanes.engine_rounds") > 0
        assert traced.counter("lanes.engine_probes") > 0
        assert traced.counter("vectorized.grid_points") > 0
        assert traced.counter("vectorized.solve_lanes") > 0

    def test_scalar_backend_counts_solver_calls(self, traced):
        e2e_delay_bound_edf(
            TRAFFIC, 100, 100, 1, 1500.0, 1e-6,
            s_grid=6, gamma_grid=6,
        )
        assert traced.counter("optimization.solve_exact_calls") > 0


class TestSweepTracing:
    def test_serial_sweep_merges_cell_metrics(self, traced):
        result = run_sweep(small_spec(), executor=SerialExecutor())
        assert all(cell.metrics is not None for cell in result.cells)
        for cell in result.cells:
            assert cell.metrics["schema"] == obs.SNAPSHOT_SCHEMA
            assert cell.metrics["gauges"]["cell.queue_wait_s"] >= 0.0
        assert len(traced.series("sweep.cell_wall_time_s")) == 3
        assert len(traced.series("sweep.cell_queue_wait_s")) == 3
        spans = traced.snapshot()["spans"]
        assert "sweep.obs-test" in spans

    def test_parallel_sweep_merges_worker_snapshots(self, traced):
        result = run_sweep(small_spec(), executor=make_executor(2))
        assert all(cell.metrics is not None for cell in result.cells)
        snap = traced.snapshot()
        worker_counters = {
            name: value
            for name, value in snap["counters"].items()
            if name.startswith("sweep.worker.")
        }
        assert sum(worker_counters.values()) == 3
        assert len(worker_counters) >= 1  # >= one worker pid observed

    def test_untraced_sweep_attaches_no_metrics(self):
        result = run_sweep(small_spec(), executor=SerialExecutor())
        assert all(cell.metrics is None for cell in result.cells)
        artifact = result.to_artifact()
        assert all("metrics" not in cell for cell in artifact["cells"])

    def test_rows_identical_with_and_without_trace(self):
        untraced = run_sweep(small_spec(), executor=SerialExecutor())
        with obs.scoped(enabled=True):
            traced_result = run_sweep(small_spec(), executor=SerialExecutor())
        assert traced_result.rows == untraced.rows

    def test_cache_hits_and_misses_counted(self, traced, tmp_path):
        cache = CellCache(tmp_path / "cache")
        run_sweep(small_spec(), executor=SerialExecutor(), cache=cache)
        assert traced.counter("cache.misses") == 3
        assert traced.counter("cache.puts") == 3
        assert traced.counter("cache.hits") == 0
        run_sweep(small_spec(), executor=SerialExecutor(), cache=cache)
        assert traced.counter("cache.hits") == 3
        assert traced.counter("cache.misses") == 3

    def test_cached_payload_keeps_original_metrics_as_provenance(
        self, traced, tmp_path
    ):
        cache = CellCache(tmp_path / "cache")
        first = run_sweep(small_spec(), executor=SerialExecutor(), cache=cache)
        again = run_sweep(small_spec(), executor=SerialExecutor(), cache=cache)
        assert all(cell.cached for cell in again.cells)
        for before, after in zip(first.cells, again.cells):
            assert after.metrics == before.metrics


class TestSimulationTracing:
    @pytest.mark.parametrize("engine", ["vectorized", "chunk"])
    def test_engine_throughput_recorded(self, traced, engine):
        config = SimulationConfig(
            traffic=TRAFFIC, n_through=5, n_cross=5, hops=1,
            capacity=15.0, slots=500, scheduler="fifo", engine=engine,
        )
        simulate_tandem_mmoo(config)
        assert traced.counter(f"simulation.{engine}.runs") == 1
        assert traced.counter(f"simulation.{engine}.slots") == 500
        rates = traced.series(f"simulation.{engine}.slots_per_s")
        assert len(rates) == 1 and rates[0] > 0.0
        assert f"simulation.run.{engine}" in traced.snapshot()["spans"]

    def test_vectorized_scheduler_counters(self, traced):
        config = SimulationConfig(
            traffic=TRAFFIC, n_through=5, n_cross=5, hops=2,
            capacity=15.0, slots=500, scheduler="edf", engine="vectorized",
        )
        simulate_tandem_mmoo(config)
        assert traced.counter("simulation.vectorized.edf_calls") == 1
        assert traced.counter("simulation.vectorized.hop_slots") == 1000


class TestCLITrace:
    def test_fig2_artifact_embeds_metrics_tree(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        json_path = tmp_path / "fig2.json"
        rc = main(
            [
                "fig2", "--hops", "2", "--utilizations", "0.4",
                "--json", str(json_path), "--no-cache", "--trace",
            ]
        )
        assert rc == 0
        assert "[trace]" in capsys.readouterr().out
        artifact = json.loads(json_path.read_text())
        metrics = artifact["metrics"]
        assert metrics["schema"] == obs.SNAPSHOT_SCHEMA
        assert artifact["meta"]["trace"] is True
        # per-cell runtimes, one per computed cell
        assert len(metrics["series"]["sweep.cell_wall_time_s"]) == 3
        # the EDF cell resolved its deadline fixed point under trace
        assert metrics["counters"]["e2e.edf_iterations"] >= 1
        assert len(metrics["series"]["e2e.edf_residual"]) >= 1
        # cache counters present (all misses: --no-cache records nothing,
        # but the cells themselves carry snapshots)
        assert all("metrics" in cell for cell in artifact["cells"])
        assert "cli.fig2" in metrics["spans"]

    def test_validation_artifact_embeds_cache_and_runtime_metrics(
        self, capsys, tmp_path
    ):
        from repro.experiments.__main__ import main

        json_path = tmp_path / "validation.json"
        cache_dir = tmp_path / "cache"
        args = [
            "validation", "--hops", "1", "--slots", "4000",
            "--json", str(json_path), "--cache-dir", str(cache_dir),
            "--trace",
        ]
        assert main(args) == 0
        artifact = json.loads(json_path.read_text())
        metrics = artifact["metrics"]
        assert metrics["counters"]["cache.misses"] > 0
        assert metrics["counters"]["cache.puts"] > 0
        assert len(metrics["series"]["sweep.cell_wall_time_s"]) == len(
            artifact["cells"]
        )
        assert metrics["counters"]["simulation.vectorized.runs"] >= 1
        # warm re-run: hits recorded, no recomputation series
        assert main(args) == 0
        warm = json.loads(json_path.read_text())["metrics"]
        assert warm["counters"]["cache.hits"] == len(artifact["cells"])
        assert "sweep.cell_wall_time_s" not in warm["series"]

    def test_trace_flag_leaves_global_registry_disabled(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        rc = main(
            ["fig4", "--hops", "1", "--utilizations", "0.5", "--no-cache",
             "--trace"]
        )
        assert rc == 0
        assert not obs.enabled()

    def test_untraced_artifact_has_no_metrics(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        json_path = tmp_path / "fig4.json"
        rc = main(
            [
                "fig4", "--hops", "1", "--utilizations", "0.5",
                "--json", str(json_path), "--no-cache",
            ]
        )
        assert rc == 0
        artifact = json.loads(json_path.read_text())
        assert "metrics" not in artifact
        assert artifact["meta"]["trace"] is False
