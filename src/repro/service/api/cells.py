"""The service's sweep cell: one bound query as a pure, cacheable cell.

Every service query is normalized into a
:class:`~repro.experiments.sweep.Cell` naming :func:`bound_query_cell`,
so a query's canonical identity — and with it the key of the in-memory
LRU *and* of the on-disk content-keyed cell cache — is exactly
:func:`repro.experiments.sweep.cell_key` of its parameters.  A bound
computed by the service warms the same cache entries a sweep run would
read, and vice versa.

:func:`bound_query_plan` is the cell's batch planner (registered in
:mod:`repro.experiments.batch`): delay queries plan onto the
:mod:`repro.network.lanes` engine (``"mmoo"`` for FIFO/BMUX/SP,
``"edf"`` for the deadline fixed point), so concurrent queries fuse
into one broadcasted kernel sweep; backlog queries have no lane family
yet and decline, falling back to singleton execution — the planner
counts these under ``batch.fallback_cells.planner_declined``.

Both the cell function and the planner produce answers through the very
same solver as a direct call into :mod:`repro.network.e2e` /
:mod:`repro.network.backlog` — the per-cell delay entry points are
one-lane calls into the lane engine the planner batches into — so a
served answer is bitwise-identical to the corresponding direct
computation.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.batch import CellPlan, edf_diagnostics
from repro.experiments.config import SCHEDULER_MAP
from repro.network.backlog import BacklogResult, e2e_backlog_bound_mmoo
from repro.network.e2e import (
    E2EResult,
    EDFBound,
    e2e_delay_bound_edf,
    e2e_delay_bound_mmoo,
)
from repro.network.lanes import EDFLaneSpec, LaneSpec
from repro.arrivals.mmoo import MMOOParameters

__all__ = [
    "SERVICE_CELL_FN",
    "bound_query_cell",
    "bound_query_plan",
]

#: The registered cell function of every service query.
SERVICE_CELL_FN = "repro.service.api.cells:bound_query_cell"


def _delay_row(
    scheduler: str, hops: int, result: E2EResult, delta: float
) -> dict:
    return {
        "kind": "delay",
        "scheduler": scheduler,
        "hops": hops,
        "delta": delta,
        "delay": result.delay,
        "sigma": result.sigma,
        "gamma": result.gamma,
        "alpha": result.alpha,
        "x": result.x,
        "thetas": list(result.thetas),
        "feasible": result.feasible,
        "method": result.method,
    }


def _edf_payload(scheduler: str, hops: int, bound: EDFBound) -> dict:
    """The EDF answer payload; shared by the cell and the batched path."""
    row = _delay_row(scheduler, hops, bound.result, bound.delta)
    row["edf"] = edf_diagnostics(bound)
    return {"rows": [row], "diagnostics": dict(row["edf"])}


def _mmoo_payload(
    scheduler: str, hops: int, delta: float, result: E2EResult
) -> dict:
    """The FIFO/BMUX/SP answer payload; shared with the batched path."""
    return {"rows": [_delay_row(scheduler, hops, result, delta)], "diagnostics": {}}


def _backlog_payload(
    scheduler: str, hops: int, delta: float, result: BacklogResult
) -> dict:
    return {
        "rows": [
            {
                "kind": "backlog",
                "scheduler": scheduler,
                "hops": hops,
                "delta": delta,
                "backlog": result.backlog,
                "sigma": result.sigma,
                "gamma": result.gamma,
                "alpha": result.alpha,
                "feasible": result.feasible,
            }
        ],
        "diagnostics": {},
    }


def bound_query_cell(
    *,
    kind: str,
    scheduler: str,
    hops: int,
    n_through: int,
    n_cross: int,
    epsilon: float,
    traffic: tuple,
    capacity: float,
    deadline_weight_through: float,
    deadline_weight_cross: float,
    s_grid: int,
    gamma_grid: int,
) -> dict:
    """One bound query — pure in its params, hence cacheable and batchable.

    ``kind`` selects the bound (``"delay"`` or ``"backlog"``);
    ``scheduler`` is a :data:`~repro.experiments.config.SCHEDULER_MAP`
    name (FIFO/BMUX/EDF/SP).  The deadline weights only enter for EDF
    (queries normalize them to the paper defaults otherwise, keeping
    the cache key canonical).
    """
    peak, p11, p22 = traffic
    mmoo = MMOOParameters(peak, p11, p22)
    _, delta, _ = SCHEDULER_MAP[scheduler]
    if kind == "backlog":
        backlog = e2e_backlog_bound_mmoo(
            mmoo, n_through, n_cross, hops, capacity, delta, epsilon,
            s_grid=s_grid, gamma_grid=gamma_grid,
        )
        return _backlog_payload(scheduler, hops, delta, backlog)
    grid = {"s_grid": s_grid, "gamma_grid": gamma_grid}
    if scheduler == "EDF":
        bound = e2e_delay_bound_edf(
            mmoo, n_through, n_cross, hops, capacity, epsilon,
            deadline_weight_through=deadline_weight_through,
            deadline_weight_cross=deadline_weight_cross,
            **grid,
        )
        return _edf_payload(scheduler, hops, bound)
    result = e2e_delay_bound_mmoo(
        mmoo, n_through, n_cross, hops, capacity, delta, epsilon, **grid
    )
    return _mmoo_payload(scheduler, hops, delta, result)


def bound_query_plan(params: dict) -> CellPlan | None:
    """Batch plan of one service query (see :mod:`repro.experiments.batch`).

    Returns ``None`` for backlog queries — there is no backlog lane
    family yet, so they run as singleton fallback batches (counted by
    the planner under ``batch.fallback_cells.planner_declined``).
    """
    if params["kind"] != "delay":
        return None
    scheduler = params["scheduler"]
    hops = params["hops"]
    peak, p11, p22 = params["traffic"]
    mmoo = MMOOParameters(peak, p11, p22)
    _, delta, _ = SCHEDULER_MAP[scheduler]
    grid: dict[str, Any] = {
        "s_grid": params["s_grid"], "gamma_grid": params["gamma_grid"],
    }
    if scheduler == "EDF":
        return CellPlan(
            kind="edf",
            spec=EDFLaneSpec(
                mmoo, params["n_through"], params["n_cross"], hops,
                params["capacity"], params["epsilon"],
                deadline_weight_through=params["deadline_weight_through"],
                deadline_weight_cross=params["deadline_weight_cross"],
                **grid,
            ),
            build=lambda bound: _edf_payload(scheduler, hops, bound),
        )
    return CellPlan(
        kind="mmoo",
        spec=LaneSpec(
            mmoo, params["n_through"], params["n_cross"], hops,
            params["capacity"], delta, params["epsilon"], **grid,
        ),
        build=lambda result: _mmoo_payload(scheduler, hops, delta, result),
    )
