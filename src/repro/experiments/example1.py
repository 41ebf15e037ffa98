"""Example 1 (paper Fig. 2): delay bounds vs. total utilization.

Setting: the through aggregate is fixed at ``N_0 = 100`` flows
(``U_0 = 15%``); the per-node cross aggregate grows so the total
utilization sweeps ``20% <= U <= 95%``; path lengths ``H in {2, 5, 10}``;
``eps = 1e-9``.  Schedulers: BMUX (reference), FIFO, and EDF with
``d*_0 = d_e2e/H`` and ``d*_c = 10 d_e2e/H`` (through traffic favored;
the deadlines are a fixed point of the resulting bound).

Expected shape (paper's reading of Fig. 2): bounds grow with ``U`` and
blow up toward saturation; FIFO is indistinguishable from BMUX as early
as ``H = 5``; EDF is noticeably lower, with the gap growing in ``H``.

The experiment is *declared* as a :class:`~repro.experiments.sweep.SweepSpec`
(:func:`fig2_spec`) whose cells all point at the top-level
:func:`fig2_cell`; :func:`run_example1` executes it through the sweep
engine and keeps the historical row-list interface.
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

#: The through-aggregate size of Example 1 (U_0 = 15%).
N_THROUGH = 100

DEFAULT_UTILIZATIONS = (0.20, 0.35, 0.50, 0.65, 0.80, 0.95)
DEFAULT_HOPS = (2, 5, 10)
SCHEDULERS = ("BMUX", "FIFO", "EDF")

CELL_FN = "repro.experiments.example1:fig2_cell"


def _fig2_payload(
    scheduler: str, hops: int, utilization: float, result, delta: float,
    diagnostics: dict,
) -> dict:
    """The cell payload; shared by the per-cell and the batched path."""
    return {
        "rows": [
            {
                "series": f"{scheduler} H={hops}",
                "x": utilization * 100.0,
                "delay": result.delay,
                "extra": {
                    "delta": delta,
                    "gamma": result.gamma,
                    "alpha": result.alpha,
                    "sigma": result.sigma,
                },
            }
        ],
        "diagnostics": diagnostics,
    }


def fig2_cell(
    *,
    scheduler: str,
    hops: int,
    utilization: float,
    n_through: int,
    traffic: tuple,
    capacity: float,
    epsilon: float,
    s_grid: int,
    gamma_grid: int,
    backend: str = DEFAULT_BACKEND,
) -> dict:
    """One (scheduler, H, U) point of Fig. 2 — pure and picklable.

    ``backend`` is unread: it stays a cell parameter only so the cells'
    cache keys keep their ``"backend"`` field.
    """
    setting = setting_from_params(traffic, capacity, epsilon)
    grid = {"s_grid": s_grid, "gamma_grid": gamma_grid}
    n_total = setting.flows_for_utilization(utilization)
    n_cross = max(n_total - n_through, 0)
    if scheduler == "EDF":
        bound = e2e_delay_bound_edf(
            setting.traffic, n_through, n_cross, hops,
            setting.capacity, setting.epsilon,
            deadline_weight_through=1.0,
            deadline_weight_cross=10.0,
            **grid,
        )
        return _fig2_payload(
            scheduler, hops, utilization, bound.result, bound.delta,
            edf_diagnostics(bound),
        )
    delta = math.inf if scheduler == "BMUX" else 0.0
    result = e2e_delay_bound_mmoo(
        setting.traffic, n_through, n_cross, hops,
        setting.capacity, delta, setting.epsilon,
        **grid,
    )
    return _fig2_payload(scheduler, hops, utilization, result, delta, {})


def fig2_plan(params: dict) -> CellPlan:
    """Batch plan of one Fig. 2 cell (see :mod:`repro.experiments.batch`)."""
    scheduler = params["scheduler"]
    hops, utilization = params["hops"], params["utilization"]
    setting = setting_from_params(
        params["traffic"], params["capacity"], params["epsilon"]
    )
    n_total = setting.flows_for_utilization(utilization)
    n_cross = max(n_total - params["n_through"], 0)
    grid = {"s_grid": params["s_grid"], "gamma_grid": params["gamma_grid"]}
    if scheduler == "EDF":
        return CellPlan(
            kind="edf",
            spec=EDFLaneSpec(
                setting.traffic, params["n_through"], n_cross, hops,
                setting.capacity, setting.epsilon,
                deadline_weight_through=1.0,
                deadline_weight_cross=10.0,
                **grid,
            ),
            build=lambda bound: _fig2_payload(
                scheduler, hops, utilization, bound.result, bound.delta,
                edf_diagnostics(bound),
            ),
        )
    delta = math.inf if scheduler == "BMUX" else 0.0
    return CellPlan(
        kind="mmoo",
        spec=LaneSpec(
            setting.traffic, params["n_through"], n_cross, hops,
            setting.capacity, delta, setting.epsilon, **grid,
        ),
        build=lambda result: _fig2_payload(
            scheduler, hops, utilization, result, delta, {}
        ),
    )


def fig2_spec(
    *,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    hops: Sequence[int] = DEFAULT_HOPS,
    schedulers: Sequence[str] = SCHEDULERS,
    setting: PaperSetting | None = None,
    quick: bool = True,
) -> SweepSpec:
    """Declare the Fig. 2 grid (one cell per (scheduler, H, U) point)."""
    setting = setting or paper_setting()
    shared = {
        **setting_to_params(setting),
        **grids(quick),
        "n_through": N_THROUGH,
        "backend": DEFAULT_BACKEND,
    }
    cells = [
        Cell.make(
            CELL_FN,
            scheduler=scheduler,
            hops=h,
            utilization=utilization,
            **shared,
        )
        for h in hops
        for utilization in utilizations
        for scheduler in schedulers
    ]
    return SweepSpec.build(
        "fig2",
        cells,
        settings={"quick": quick, **shared},
        x_label="U [%]",
    )


def run_example1(
    *,
    utilizations: Sequence[float] = DEFAULT_UTILIZATIONS,
    hops: Sequence[int] = DEFAULT_HOPS,
    schedulers: Sequence[str] = SCHEDULERS,
    setting: PaperSetting | None = None,
    quick: bool = True,
    executor=None,
    cache=None,
) -> list[ExperimentRow]:
    """Compute the Fig. 2 series through the sweep engine.

    Returns one row per (scheduler, H, U) cell; the series label is
    ``"<scheduler> H=<H>"`` and ``x`` is the total utilization in percent.
    """
    spec = fig2_spec(
        utilizations=utilizations, hops=hops, schedulers=schedulers,
        setting=setting, quick=quick,
    )
    return run_sweep(spec, executor=executor, cache=cache).experiment_rows()
