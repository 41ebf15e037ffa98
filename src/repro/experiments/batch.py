"""Cross-cell batch planner: fuse compatible sweep cells into lane groups.

The sweep engine of :mod:`repro.experiments.sweep` executes one
:class:`~repro.experiments.sweep.Cell` at a time; each figure cell pays
a full nested (s, gamma) — and for EDF, fixed-point — search on its
own.  This module groups compatible cells of a
:class:`~repro.experiments.sweep.SweepSpec` (same cell function, same
solver family and backend, varying only numeric parameters — e.g. both
EDF deadline-weight variants of Fig. 3 land in one group) and executes
each group as one batched call into :mod:`repro.network.lanes`, where
all the lanes' searches advance in lockstep through shared vectorized
and generated-C kernels.

A cell function opts in by registering a *planner* — a sibling function
that maps the cell's keyword parameters to a :class:`CellPlan`: which
lane family solves it (``"mmoo"`` or ``"edf"``), the lane spec, and a
payload builder that turns the lane result into the exact payload the
cell function would have returned.  Cells without a planner (or whose
planner declines, e.g. the additive BMUX baseline of Fig. 4) fall back
to per-cell execution as singleton batches.

Guarantees:

* **Bitwise equality** — a batched run produces row-for-row identical
  payloads to the per-cell path (same bounds, same EDF iteration counts
  and convergence flags): the per-cell solver entry points are
  one-lane calls into the same lane engine, and a lane's results do
  not depend on the batch it runs in.
* **Cache compatibility** — the unit of caching stays the cell: a
  batched run populates the same content-keyed entries a per-cell run
  would read, and vice versa.
"""

from __future__ import annotations

import importlib
import math
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Literal, Sequence

from repro import obs
from repro.experiments.sweep import Cell, SweepSpec, execute_cell
from repro.network.e2e import EDFBound
from repro.network.lanes import (
    EDFLaneSpec,
    LaneSpec,
    edf_bound_lanes,
    mmoo_bound_lanes,
)

__all__ = [
    "CellPlan",
    "Batch",
    "plan_batches",
    "plan_cell",
    "execute_batch",
    "execute_batch_traced",
    "register_planner",
    "edf_diagnostics",
]

#: Default cap on lanes per batch (see ``plan_batches``): large enough
#: that every figure grid fuses into a handful of mega-batches, small
#: enough that a multi-process run still has units to distribute.
MAX_LANES = 64

#: Cell function -> planner function, both as ``"module:function"``
#: dotted paths (resolved lazily, so registering costs no imports).
_PLANNERS: dict[str, str] = {
    "repro.experiments.example1:fig2_cell": (
        "repro.experiments.example1:fig2_plan"
    ),
    "repro.experiments.example2:fig3_cell": (
        "repro.experiments.example2:fig3_plan"
    ),
    "repro.experiments.example3:fig4_cell": (
        "repro.experiments.example3:fig4_plan"
    ),
    "repro.experiments.validation:validation_bound_cell": (
        "repro.experiments.validation:validation_bound_plan"
    ),
    "repro.service.api.cells:bound_query_cell": (
        "repro.service.api.cells:bound_query_plan"
    ),
}


def register_planner(cell_fn: str, planner: str) -> None:
    """Register ``planner`` ("module:function") for cells naming ``cell_fn``."""
    _PLANNERS[cell_fn] = planner


@dataclass(frozen=True)
class CellPlan:
    """How one cell executes inside a lane batch.

    ``kind`` selects the lane family (:func:`mmoo_bound_lanes` or
    :func:`edf_bound_lanes`); ``spec`` is the lane; ``build`` maps the
    lane's result (:class:`~repro.network.e2e.E2EResult` or
    :class:`~repro.network.e2e.EDFBound`) to the payload dict the cell
    function would have returned.
    """

    kind: Literal["mmoo", "edf"]
    spec: LaneSpec | EDFLaneSpec
    build: Callable[[Any], dict]


@dataclass(frozen=True)
class Batch:
    """One executor work unit: a group of cells solved together.

    ``indices`` are the cells' positions in the originating grid (used
    to scatter results back); ``kind`` is ``"mmoo"``/``"edf"`` for lane
    groups and ``"cells"`` for the per-cell fallback.  Only plain data,
    so batches pickle into worker processes; plans are re-derived
    inside the worker.
    """

    kind: str
    indices: tuple[int, ...]
    cells: tuple[Cell, ...]


def edf_diagnostics(bound: EDFBound) -> dict:
    """The per-cell EDF fixed-point diagnostics dict of the figure cells."""
    return {
        "edf_iterations": bound.diagnostics.iterations,
        "edf_residual": bound.diagnostics.residual,
        "edf_converged": bound.diagnostics.converged,
    }


def _resolve(path: str) -> Callable[..., Any]:
    module_name, _, func_name = path.partition(":")
    if not func_name:
        raise ValueError(f"planner must be 'module:function', got {path!r}")
    return getattr(importlib.import_module(module_name), func_name)


def plan_cell(cell: Cell) -> CellPlan | None:
    """The cell's lane plan, or ``None`` when it must run per-cell."""
    planner_path = _PLANNERS.get(cell.fn)
    if planner_path is None:
        return None
    return _resolve(planner_path)(cell.kwargs)


def _chunk(
    items: list[int], n_chunks: int
) -> list[list[int]]:
    """Split ``items`` into ``n_chunks`` contiguous, nearly equal runs."""
    n_chunks = max(1, min(n_chunks, len(items)))
    base, extra = divmod(len(items), n_chunks)
    out = []
    pos = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        out.append(items[pos:pos + size])
        pos += size
    return out


def plan_batches(
    spec: SweepSpec,
    indices: Sequence[int] | None = None,
    *,
    jobs: int = 1,
    max_lanes: int | None = None,
) -> list[Batch]:
    """Group the spec's cells (or the subset ``indices``) into batches.

    Cells sharing a cell function, lane family, and backend fuse into
    one lane group; a group larger than ``max_lanes`` — or any group
    when ``jobs > 1``, so a pool has units to balance — splits into
    contiguous chunks.  Unplannable cells become singleton fallback
    batches.  The plan depends only on the spec, so it is deterministic.
    """
    max_lanes = MAX_LANES if max_lanes is None else max_lanes
    if indices is None:
        indices = range(len(spec.cells))
    groups: dict[tuple, list[int]] = {}
    fallback: list[int] = []
    fallback_reasons: dict[str, int] = {}
    for index in indices:
        cell = spec.cells[index]
        if cell.fn not in _PLANNERS:
            plan, reason = None, "no_planner"
        else:
            plan, reason = plan_cell(cell), "planner_declined"
        if plan is None:
            fallback.append(index)
            fallback_reasons[reason] = fallback_reasons.get(reason, 0) + 1
            continue
        key = (cell.fn, plan.kind, plan.spec.backend)
        groups.setdefault(key, []).append(index)

    batches: list[Batch] = []
    for (fn, kind, _backend), members in groups.items():
        n_chunks = max(1, math.ceil(len(members) / max_lanes))
        if jobs > 1:
            n_chunks = max(n_chunks, min(len(members), 2 * jobs))
        for chunk in _chunk(members, n_chunks):
            batches.append(
                Batch(
                    kind=kind,
                    indices=tuple(chunk),
                    cells=tuple(spec.cells[i] for i in chunk),
                )
            )
    for index in fallback:
        batches.append(
            Batch(
                kind="cells",
                indices=(index,),
                cells=(spec.cells[index],),
            )
        )
    if obs.enabled():
        obs.add("batch.planned", len(batches))
        obs.add("batch.fallback_cells", len(fallback))
        # reason-labelled fallback counters: "no_planner" (cell function
        # never registered) vs "planner_declined" (planner returned None
        # for these parameters) — so fallbacks are diagnosable from any
        # metrics surface (e.g. the bound service's /v1/metrics).
        for reason, count in sorted(fallback_reasons.items()):
            obs.add(f"batch.fallback_cells.{reason}", count)
        for batch in batches:
            obs.observe("batch.occupancy", len(batch.cells))
    return batches


def execute_batch(batch: Batch) -> list[dict]:
    """Run one batch; returns per-cell payloads in ``batch.indices`` order.

    Lane batches solve every cell in one :mod:`repro.network.lanes`
    group call; each payload's ``wall_time_s`` is the batch's wall
    clock amortized over its cells (so sweep-level totals still add up).
    """
    start = time.perf_counter()
    if batch.kind == "cells":
        return [execute_cell(cell) for cell in batch.cells]
    plans = [plan_cell(cell) for cell in batch.cells]
    if any(plan is None or plan.kind != batch.kind for plan in plans):
        raise ValueError(
            f"batch of kind {batch.kind!r} contains cells that do not "
            "plan to it (planner registration changed between planning "
            "and execution?)"
        )
    specs = [plan.spec for plan in plans]
    with obs.trace(f"batch.{batch.kind}"):
        if batch.kind == "edf":
            results: Iterable[Any] = edf_bound_lanes(specs)
        else:
            results = mmoo_bound_lanes(specs)
    share = (time.perf_counter() - start) / len(batch.cells)
    payloads = []
    for plan, result in zip(plans, results):
        payload = dict(plan.build(result))
        payload.setdefault("diagnostics", {})
        payload["wall_time_s"] = share
        payloads.append(payload)
    if obs.enabled():
        obs.add("batch.executed")
        obs.add("batch.cells", len(batch.cells))
    return payloads


def execute_batch_traced(item: tuple[Batch, float]) -> dict:
    """:func:`execute_batch` under a scoped metrics registry.

    Returns ``{"payloads": [...], "metrics": snapshot}``; the parent
    merges the snapshot once per batch (cells of one batch share their
    solver work, so per-cell attribution would double-count).
    """
    batch, submitted_at = item
    started_at = time.time()
    with obs.scoped(enabled=True) as registry:
        payloads = execute_batch(batch)
        registry.set_gauge(
            "cell.queue_wait_s", max(0.0, started_at - submitted_at)
        )
        registry.set_gauge("cell.worker_pid", os.getpid())
        snapshot = registry.snapshot()
    return {"payloads": payloads, "metrics": snapshot}
