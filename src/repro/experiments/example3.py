"""Example 3 (paper Fig. 4): delay bounds vs. path length.

Setting: equal through and cross aggregates (``N_0 = N_c``), total
utilization ``U in {10, 50, 90}%`` (the figure caption; the body's "100%"
is a typo — a saturated link has no finite bounds); path length sweeps
``H``.  Series: BMUX, FIFO, EDF (``d*_0 = d_e2e/H``,
``d*_c = 10 d_e2e/H``) computed with the network service curve, plus the
**additive** BMUX baseline that sums per-node bounds.

Expected shape (paper's reading of Fig. 4): the network-service-curve
bounds grow essentially linearly in ``H`` (the predicted
``Theta(H log H)``); the additive baseline is far looser and grows like
``O(H^3 log H)``; FIFO and BMUX appear identical across the whole range
while EDF stays noticeably lower at higher utilizations.

Declared as :func:`fig4_spec` over the top-level :func:`fig4_cell`;
:func:`run_example3` executes it through the sweep engine.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.experiments.config import (
    DEFAULT_BACKEND,
    PaperSetting,
    grids,
    paper_setting,
    setting_from_params,
    setting_to_params,
)
from repro.experiments.batch import CellPlan, edf_diagnostics
from repro.experiments.runner import ExperimentRow
from repro.experiments.sweep import Cell, SweepSpec, run_sweep
from repro.network.e2e import e2e_delay_bound_edf, e2e_delay_bound_mmoo
from repro.network.lanes import EDFLaneSpec, LaneSpec
from repro.network.pernode import additive_pernode_delay_bound_mmoo

DEFAULT_HOPS = (1, 2, 4, 6, 8, 10)
DEFAULT_UTILIZATIONS = (0.10, 0.50, 0.90)
SCHEDULERS = ("BMUX", "FIFO", "EDF", "BMUX additive")

CELL_FN = "repro.experiments.example3:fig4_cell"


def fig4_cell(
    *,
    scheduler: str,
    hops: int,
    utilization: float,
    traffic: tuple,
    capacity: float,
    epsilon: float,
    s_grid: int,
    gamma_grid: int,
    backend: str = DEFAULT_BACKEND,
) -> dict:
    """One (scheduler, U, H) point of Fig. 4 — pure and picklable.

    ``backend`` selects the additive baseline's ``gamma`` search (see
    :func:`~repro.network.pernode.additive_pernode_delay_bound`); the
    other schedulers have one search path.
    """
    setting = setting_from_params(traffic, capacity, epsilon)
    grid = {"s_grid": s_grid, "gamma_grid": gamma_grid}
    n_half = max(setting.flows_for_utilization(utilization) // 2, 1)
    if scheduler == "EDF":
        bound = e2e_delay_bound_edf(
            setting.traffic, n_half, n_half, hops,
            setting.capacity, setting.epsilon,
            deadline_weight_through=1.0,
            deadline_weight_cross=10.0,
            **grid,
        )
        return _fig4_payload(
            scheduler, hops, utilization, bound.result.delay,
            bound.result.gamma, edf_diagnostics(bound),
        )
    if scheduler == "BMUX additive":
        additive = additive_pernode_delay_bound_mmoo(
            setting.traffic, n_half, n_half, hops,
            setting.capacity, setting.epsilon,
            backend=backend, **grid,
        )
        return _fig4_payload(
            scheduler, hops, utilization, additive.delay, additive.gamma, {}
        )
    delta = math.inf if scheduler == "BMUX" else 0.0
    result = e2e_delay_bound_mmoo(
        setting.traffic, n_half, n_half, hops,
        setting.capacity, delta, setting.epsilon,
        **grid,
    )
    return _fig4_payload(
        scheduler, hops, utilization, result.delay, result.gamma, {}
    )


def _fig4_payload(
    scheduler: str, hops: int, utilization: float, delay: float,
    gamma: float, diagnostics: dict,
) -> dict:
    """The cell payload; shared by the per-cell and the batched path."""
    return {
        "rows": [
            {
                "series": f"{scheduler} U={utilization * 100:.0f}%",
                "x": float(hops),
                "delay": delay,
                "extra": {"gamma": gamma},
            }
        ],
        "diagnostics": diagnostics,
    }


def fig4_plan(params: dict) -> CellPlan | None:
    """Batch plan of one Fig. 4 cell (see :mod:`repro.experiments.batch`).

    The additive BMUX baseline runs a different solver
    (:func:`additive_pernode_delay_bound_mmoo`), so it declines batching
    and stays on the per-cell path.
    """
    scheduler = params["scheduler"]
    if scheduler == "BMUX additive":
        return None
    hops, utilization = params["hops"], params["utilization"]
    setting = setting_from_params(
        params["traffic"], params["capacity"], params["epsilon"]
    )
    n_half = max(setting.flows_for_utilization(utilization) // 2, 1)
    grid = {"s_grid": params["s_grid"], "gamma_grid": params["gamma_grid"]}
    if scheduler == "EDF":
        return CellPlan(
            kind="edf",
            spec=EDFLaneSpec(
                setting.traffic, n_half, n_half, hops,
                setting.capacity, setting.epsilon,
                deadline_weight_through=1.0,
                deadline_weight_cross=10.0,
                **grid,
            ),
            build=lambda bound: _fig4_payload(
                scheduler, hops, utilization, bound.result.delay,
                bound.result.gamma, edf_diagnostics(bound),
            ),
        )
    delta = math.inf if scheduler == "BMUX" else 0.0
    return CellPlan(
        kind="mmoo",
        spec=LaneSpec(
            setting.traffic, n_half, n_half, hops,
            setting.capacity, delta, setting.epsilon, **grid,
        ),
        build=lambda result: _fig4_payload(
            scheduler, hops, utilization, result.delay, result.gamma, {}
        ),
    )


def fig4_spec(
    *,
    hops: Sequence[int] = DEFAULT_HOPS,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    schedulers: Sequence[str] = SCHEDULERS,
    setting: PaperSetting | None = None,
    quick: bool = True,
    backend: str = DEFAULT_BACKEND,
) -> SweepSpec:
    """Declare the Fig. 4 grid (one cell per (scheduler, U, H) point)."""
    setting = setting or paper_setting()
    shared = {
        **setting_to_params(setting), **grids(quick), "backend": backend
    }
    cells = [
        Cell.make(
            CELL_FN,
            scheduler=scheduler,
            hops=h,
            utilization=utilization,
            **shared,
        )
        for utilization in utilizations
        for h in hops
        for scheduler in schedulers
    ]
    return SweepSpec.build(
        "fig4",
        cells,
        settings={"quick": quick, **shared},
        x_label="H",
    )


def run_example3(
    *,
    hops: Sequence[int] = DEFAULT_HOPS,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    schedulers: Sequence[str] = SCHEDULERS,
    setting: PaperSetting | None = None,
    quick: bool = True,
    executor=None,
    cache=None,
) -> list[ExperimentRow]:
    """Compute the Fig. 4 series through the sweep engine.

    ``x`` is the path length ``H``; the series label is
    ``"<scheduler> U=<U>%"``.
    """
    spec = fig4_spec(
        hops=hops, utilizations=utilizations, schedulers=schedulers,
        setting=setting, quick=quick,
    )
    return run_sweep(spec, executor=executor, cache=cache).experiment_rows()
