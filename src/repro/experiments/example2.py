"""Example 2 (paper Fig. 3): delay bounds vs. traffic mix at constant U.

Setting: total utilization fixed at ``U = 50%``; the mix ``U_c / U``
(fraction contributed by cross traffic) sweeps across (0, 1); path
lengths ``H in {2, 5, 10}``.  Schedulers: BMUX, FIFO, and EDF in two
variants — *short* through deadlines (``d*_0 = d*_c / 2``, through
favored) and *long* through deadlines (``d*_0 = 2 d*_c``, through
penalized).

Expected shape (paper's reading of Fig. 3): although U is constant, the
bounds depend on the mix; EDF-short is almost insensitive to the mix at
``H = 2`` (and can even *decrease* with more cross traffic); a larger
``d*_0/d*_c`` ratio makes the bound more sensitive to cross traffic; as
``H`` grows all Delta-schedulers drift toward BMUX-like behaviour.

Declared as :func:`fig3_spec` over the top-level :func:`fig3_cell`;
:func:`run_example2` executes it through the sweep engine.
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

DEFAULT_MIXES = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_HOPS = (2, 5, 10)
SCHEDULERS = ("BMUX", "FIFO", "EDF short", "EDF long")

#: Deadline-weight pairs (w_through, w_cross) of the two EDF variants:
#: "short" means the through deadline is half the cross deadline.
EDF_WEIGHTS = {"EDF short": (1.0, 2.0), "EDF long": (2.0, 1.0)}

TOTAL_UTILIZATION = 0.50

CELL_FN = "repro.experiments.example2:fig3_cell"


def _fig3_payload(
    scheduler: str, hops: int, mix: float, result, delta: float,
    diagnostics: dict,
) -> dict:
    """The cell payload; shared by the per-cell and the batched path."""
    return {
        "rows": [
            {
                "series": f"{scheduler} H={hops}",
                "x": mix,
                "delay": result.delay,
                "extra": {"delta": delta, "gamma": result.gamma},
            }
        ],
        "diagnostics": diagnostics,
    }


def fig3_cell(
    *,
    scheduler: str,
    hops: int,
    mix: float,
    utilization: float,
    traffic: tuple,
    capacity: float,
    epsilon: float,
    s_grid: int,
    gamma_grid: int,
    backend: str = DEFAULT_BACKEND,
) -> dict:
    """One (scheduler, H, mix) point of Fig. 3 — pure and picklable.

    ``backend`` is unread: it stays a cell parameter only so the cells'
    cache keys keep their ``"backend"`` field.
    """
    setting = setting_from_params(traffic, capacity, epsilon)
    grid = {"s_grid": s_grid, "gamma_grid": gamma_grid}
    n_total = setting.flows_for_utilization(utilization)
    n_cross = round(mix * n_total)
    n_through = max(n_total - n_cross, 1)
    if scheduler in EDF_WEIGHTS:
        w_through, w_cross = EDF_WEIGHTS[scheduler]
        bound = e2e_delay_bound_edf(
            setting.traffic, n_through, n_cross, hops,
            setting.capacity, setting.epsilon,
            deadline_weight_through=w_through,
            deadline_weight_cross=w_cross,
            **grid,
        )
        return _fig3_payload(
            scheduler, hops, mix, bound.result, bound.delta,
            edf_diagnostics(bound),
        )
    delta = math.inf if scheduler == "BMUX" else 0.0
    result = e2e_delay_bound_mmoo(
        setting.traffic, n_through, n_cross, hops,
        setting.capacity, delta, setting.epsilon,
        **grid,
    )
    return _fig3_payload(scheduler, hops, mix, result, delta, {})


def fig3_plan(params: dict) -> CellPlan:
    """Batch plan of one Fig. 3 cell (see :mod:`repro.experiments.batch`)."""
    scheduler = params["scheduler"]
    hops, mix = params["hops"], params["mix"]
    setting = setting_from_params(
        params["traffic"], params["capacity"], params["epsilon"]
    )
    n_total = setting.flows_for_utilization(params["utilization"])
    n_cross = round(mix * n_total)
    n_through = max(n_total - n_cross, 1)
    grid = {"s_grid": params["s_grid"], "gamma_grid": params["gamma_grid"]}
    if scheduler in EDF_WEIGHTS:
        w_through, w_cross = EDF_WEIGHTS[scheduler]
        return CellPlan(
            kind="edf",
            spec=EDFLaneSpec(
                setting.traffic, n_through, n_cross, hops,
                setting.capacity, setting.epsilon,
                deadline_weight_through=w_through,
                deadline_weight_cross=w_cross,
                **grid,
            ),
            build=lambda bound: _fig3_payload(
                scheduler, hops, mix, bound.result, bound.delta,
                edf_diagnostics(bound),
            ),
        )
    delta = math.inf if scheduler == "BMUX" else 0.0
    return CellPlan(
        kind="mmoo",
        spec=LaneSpec(
            setting.traffic, n_through, n_cross, hops,
            setting.capacity, delta, setting.epsilon, **grid,
        ),
        build=lambda result: _fig3_payload(
            scheduler, hops, mix, result, delta, {}
        ),
    )


def fig3_spec(
    *,
    mixes: Sequence[float] = DEFAULT_MIXES,
    hops: Sequence[int] = DEFAULT_HOPS,
    schedulers: Sequence[str] = SCHEDULERS,
    setting: PaperSetting | None = None,
    quick: bool = True,
) -> SweepSpec:
    """Declare the Fig. 3 grid (one cell per (scheduler, H, mix) point)."""
    setting = setting or paper_setting()
    shared = {
        **setting_to_params(setting),
        **grids(quick),
        "utilization": TOTAL_UTILIZATION,
        "backend": DEFAULT_BACKEND,
    }
    cells = [
        Cell.make(CELL_FN, scheduler=scheduler, hops=h, mix=mix, **shared)
        for h in hops
        for mix in mixes
        for scheduler in schedulers
    ]
    return SweepSpec.build(
        "fig3",
        cells,
        settings={"quick": quick, **shared},
        x_label="Uc/U",
    )


def run_example2(
    *,
    mixes: Sequence[float] = DEFAULT_MIXES,
    hops: Sequence[int] = DEFAULT_HOPS,
    schedulers: Sequence[str] = SCHEDULERS,
    setting: PaperSetting | None = None,
    quick: bool = True,
    executor=None,
    cache=None,
) -> list[ExperimentRow]:
    """Compute the Fig. 3 series through the sweep engine.

    ``x`` is the cross-traffic share ``U_c / U``; the series label is
    ``"<scheduler> H=<H>"``.
    """
    spec = fig3_spec(
        mixes=mixes, hops=hops, schedulers=schedulers,
        setting=setting, quick=quick,
    )
    return run_sweep(spec, executor=executor, cache=cache).experiment_rows()
