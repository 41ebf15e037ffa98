"""Tests for the declarative sweep pipeline (Cell / SweepSpec / executors)."""

import pytest

from repro.experiments.example1 import fig2_spec
from repro.experiments.example3 import fig4_spec
from repro.experiments.executor import (
    SerialExecutor,
    WorkStealingExecutor,
    make_executor,
)
from repro.experiments.sweep import (
    Cell,
    SweepSpec,
    cell_key,
    execute_cell,
    freeze,
    run_sweep,
)

PROBE = "repro.experiments.sweep:probe_cell"


class TestCell:
    def test_params_sorted_and_hashable(self):
        a = Cell.make(PROBE, b=2, a=1)
        b = Cell.make(PROBE, a=1, b=2)
        assert a == b
        assert hash(a) == hash(b)
        assert a.params == (("a", 1), ("b", 2))

    def test_kwargs_round_trip(self):
        cell = Cell.make(PROBE, value=3.5, series="s")
        assert cell.kwargs == {"value": 3.5, "series": "s"}

    def test_nested_values_frozen(self):
        cell = Cell.make(PROBE, traffic=[1.5, 0.989, 0.9])
        assert cell.kwargs["traffic"] == (1.5, 0.989, 0.9)
        hash(cell)  # must not raise

    def test_freeze_mapping(self):
        assert freeze({"b": [1, 2], "a": {"y": 1}}) == (
            ("a", (("y", 1),)),
            ("b", (1, 2)),
        )

    def test_resolve_and_execute(self):
        payload = execute_cell(Cell.make(PROBE, value=2.0))
        assert payload["rows"][0]["delay"] == 2.0
        assert payload["wall_time_s"] >= 0.0

    def test_resolve_rejects_bad_path(self):
        with pytest.raises(ValueError):
            Cell(fn="no.colon.here").resolve()


class TestCellKey:
    def test_stable(self):
        cell = Cell.make(PROBE, value=1.0)
        assert cell_key(cell) == cell_key(Cell.make(PROBE, value=1.0))

    def test_param_changes_key(self):
        assert cell_key(Cell.make(PROBE, value=1.0)) != cell_key(
            Cell.make(PROBE, value=2.0)
        )

    def test_settings_change_key(self):
        cell = Cell.make(PROBE, value=1.0)
        assert cell_key(cell, freeze({"s_grid": 12})) != cell_key(
            cell, freeze({"s_grid": 24})
        )

    def test_fn_changes_key(self):
        # A real cell qualname: registering the runner itself as a cell
        # would (rightly) trip lint rule RPR001.
        assert cell_key(Cell.make(PROBE, value=1.0)) != cell_key(
            Cell.make("repro.experiments.example3:fig4_cell", value=1.0)
        )


class TestExecutors:
    def test_make_executor(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), WorkStealingExecutor)
        with pytest.raises(ValueError):
            WorkStealingExecutor(0)

    def test_serial_preserves_order(self):
        out = SerialExecutor().map(lambda x: x * 2, [3, 1, 2])
        assert out == [6, 2, 4]

    def test_parallel_preserves_order(self):
        cells = [Cell.make(PROBE, value=float(i)) for i in range(5)]
        payloads = make_executor(2).map(execute_cell, cells)
        assert [p["rows"][0]["x"] for p in payloads] == [
            0.0, 1.0, 2.0, 3.0, 4.0,
        ]


class TestRunSweep:
    def spec(self, n=4):
        cells = [Cell.make(PROBE, value=float(i)) for i in range(n)]
        return SweepSpec.build("probe", cells, settings={"k": 1})

    def test_rows_in_grid_order(self):
        result = run_sweep(self.spec())
        assert [row["x"] for row in result.rows] == [0.0, 1.0, 2.0, 3.0]
        assert result.cached_cells == 0

    def test_experiment_rows(self):
        rows = run_sweep(self.spec(2)).experiment_rows()
        assert rows[0].series == "probe"
        assert rows[1].delay == 1.0

    def test_artifact_shape(self):
        artifact = run_sweep(self.spec(2)).to_artifact(meta={"seed": 7})
        assert artifact["name"] == "probe"
        assert artifact["settings"] == {"k": 1}
        assert artifact["meta"] == {"seed": 7}
        assert len(artifact["rows"]) == 2
        assert len(artifact["cells"]) == 2
        cell = artifact["cells"][0]
        assert cell["fn"] == PROBE
        assert "wall_time_s" in cell and "key" in cell
        assert cell["diagnostics"] == {"probe": True}

    def test_parallel_rows_identical_to_serial(self):
        spec = self.spec(6)
        serial = run_sweep(spec, executor=SerialExecutor()).rows
        parallel = run_sweep(spec, executor=make_executor(2)).rows
        assert serial == parallel


class TestFigureSpecs:
    """The declared grids mirror the historical loop order."""

    def test_fig2_spec_grid(self):
        spec = fig2_spec(utilizations=(0.4, 0.8), hops=(2, 5))
        assert spec.name == "fig2"
        assert len(spec.cells) == 2 * 2 * 3
        first = spec.cells[0].kwargs
        assert first["scheduler"] == "BMUX"
        assert first["hops"] == 2
        assert first["utilization"] == 0.4
        assert first["s_grid"] == 12  # quick grids by default
        # hops is the outer loop, utilization next, scheduler innermost
        assert [c.kwargs["hops"] for c in spec.cells[:6]] == [2] * 6

    def test_fig4_parallel_identical_to_serial(self):
        spec = fig4_spec(hops=(1, 2), utilizations=(0.5,))
        serial = run_sweep(spec, executor=SerialExecutor())
        parallel = run_sweep(spec, executor=make_executor(2))
        assert serial.rows == parallel.rows

    def test_quick_flag_changes_keys(self):
        quick = fig2_spec(utilizations=(0.4,), hops=(2,), quick=True)
        full = fig2_spec(utilizations=(0.4,), hops=(2,), quick=False)
        assert quick.keys() != full.keys()
