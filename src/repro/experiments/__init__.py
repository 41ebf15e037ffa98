"""Reproductions of the paper's numerical examples (Section V).

One module per figure, each *declaring* its grid as a
:class:`~repro.experiments.sweep.SweepSpec` over a top-level cell
function:

* :mod:`repro.experiments.example1` — Fig. 2: end-to-end delay bounds vs.
  total utilization, H in {2, 5, 10}, schedulers BMUX / FIFO / EDF;
* :mod:`repro.experiments.example2` — Fig. 3: bounds vs. traffic mix
  ``U_c / U`` at constant U = 50%, EDF with short and long through
  deadlines;
* :mod:`repro.experiments.example3` — Fig. 4: bounds vs. path length at
  U in {10, 50, 90}%, including the additive per-node BMUX baseline;
* :mod:`repro.experiments.validation` — added experiment: simulated delay
  quantiles against the analytic bounds;
* :mod:`repro.experiments.topology` — added experiment: per-route bounds
  vs. simulation on feed-forward scenarios (sink tree, parking lot,
  fat-tree slice, random DAGs).

The specs execute through the sweep engine
(:func:`~repro.experiments.sweep.run_sweep`): cells run on a pluggable
executor (serial or a work-stealing process pool) and can be served from a
content-keyed on-disk cache, so warm re-runs only recompute changed
cells.  ``run_example1/2/3`` and ``run_validation`` keep the historical
row-list interface; the benchmark harness under ``benchmarks/`` and the
CLI (``python -m repro.experiments``) regenerate every figure through
the same pipeline.
"""

from repro.experiments.cache import DEFAULT_CACHE_DIR, CellCache
from repro.experiments.config import PaperSetting, paper_setting
from repro.experiments.example1 import fig2_spec, run_example1
from repro.experiments.example2 import fig3_spec, run_example2
from repro.experiments.example3 import fig4_spec, run_example3
from repro.experiments.executor import (
    SerialExecutor,
    WorkStealingExecutor,
    make_executor,
)
from repro.experiments.runner import (
    ExperimentRow,
    dict_rows_to_csv,
    format_table,
    rows_to_csv,
    write_json_artifact,
)
from repro.experiments.sweep import (
    Cell,
    CellResult,
    SweepResult,
    SweepSpec,
    cell_key,
    run_sweep,
)
from repro.experiments.topology import run_topology, topology_spec
from repro.experiments.validation import run_validation, validation_spec

__all__ = [
    "PaperSetting",
    "paper_setting",
    "run_example1",
    "run_example2",
    "run_example3",
    "run_validation",
    "run_topology",
    "fig2_spec",
    "fig3_spec",
    "fig4_spec",
    "validation_spec",
    "topology_spec",
    "Cell",
    "CellResult",
    "SweepResult",
    "SweepSpec",
    "cell_key",
    "run_sweep",
    "CellCache",
    "DEFAULT_CACHE_DIR",
    "SerialExecutor",
    "WorkStealingExecutor",
    "make_executor",
    "ExperimentRow",
    "format_table",
    "rows_to_csv",
    "dict_rows_to_csv",
    "write_json_artifact",
]
