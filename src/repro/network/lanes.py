"""The MMOO (s, gamma) bound search and the EDF deadline fixed point.

This module is the one implementation of the paper's nested bound
optimization: the EDF deadline fixed point iterates ``bound_at(delta)``,
each of which runs a grid-then-golden search over ``s``, each point of
which runs a grid-then-golden search over ``gamma``, each probe of which
solves the Eq. (38) theta optimization.  The per-cell entry points
:func:`repro.network.e2e.e2e_delay_bound_mmoo` and
:func:`repro.network.e2e.e2e_delay_bound_edf` are one-lane calls into
:func:`mmoo_bound_lanes` and :func:`edf_bound_lanes`, and the exact
``gamma`` search of :func:`repro.network.e2e.e2e_delay_bound` is one
``gamma`` search stage (:func:`gamma_search`).  Across a sweep grid the
cells are independent, so the searches of many cells advance in
lockstep, pooling the pending ``gamma`` searches of every cell into a
few batched kernel calls per engine round.

The engine drives the searches of :mod:`repro.utils.numeric` rather
than copies of them:

* each lane's ``s`` search is the generator body of
  :func:`~repro.utils.numeric.grid_then_golden` over
  :func:`~repro.network.e2e._s_interval`: it yields the ``s`` values of
  one level (the log grid, then each golden-section step) and is sent
  their delays;
* the engine turns each ``s`` into a ``gamma`` search context, or into
  ``inf`` at once when it leaves no headroom (a level of such ``s``
  steps its lane again at once), and runs every pending context as one
  stage per round (:func:`_gamma_searches`): the ``gamma`` grids,
  row-stacked :func:`repro.network.vectorized.e2e_delay_grid_rows`
  calls, each row's :func:`~repro.utils.numeric.grid_bracket`, one
  golden-section refinement call and one probe call into the
  generated-C kernel of :mod:`repro.network.cprobe`.  A round is thus
  one level of every live ``s`` search.  Between rounds the engine
  yields the CPU, so a thread waiting on the interpreter lock (the
  bound service's event loop) runs within a round;
* the engine records the ``gamma`` found at each ``s``; the optimum is
  materialized by one :func:`repro.network.e2e.e2e_delay_bound_at_gamma`
  call at the best ``s`` and its recorded ``gamma``;
* :func:`edf_bound_lanes` drives the whole grid's EDF deadline vector
  through one such engine pass per fixed-point iteration, with
  per-lane convergence masking: a converged lane stops searching (its
  diagnostics freeze at its own iteration count) while stragglers
  keep iterating.

Batching contract
-----------------
Every kernel the engine calls is elementwise per request, so a lane's
results — bounds, gammas, iteration counts, residuals, convergence
flags — do not depend on which other lanes share its batch: a cell
computes the same doubles alone (the per-cell entry points) as inside a
64-lane group.  A grid-row call shares hops, capacity and epsilon
across its rows, so the stage groups contexts by all three (plus grid
length and Eq. (38) case): lanes differing only in capacity or epsilon
get separate calls, each with its own grid.  A reference implementation
of the plain nested search lives in ``tests/network/reference_search.py``;
the equivalence suite pins the engine to its grid-row search bitwise and
to its exact scalar objective (whose values differ from the C probes in
the last bits) within 1e-9 relative.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from collections import namedtuple
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from repro import obs
from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network import cprobe
from repro.network.e2e import (
    _INFEASIBLE,
    _gamma_interval,
    _max_feasible_s,
    _s_interval,
    E2EResult,
    EDFBound,
    FixedPointDiagnostics,
    FixedPointError,
    e2e_delay_bound_at_gamma,
    mmoo_ebb_pair,
)
from repro.network.vectorized import _delta_case, e2e_delay_grid_rows
from repro.utils.numeric import grid_bracket, grid_then_golden_search, logspace
from repro.utils.validation import check_int, check_positive, check_probability

__all__ = [
    "LaneSpec",
    "EDFLaneSpec",
    "mmoo_bound_lanes",
    "edf_bound_lanes",
    "gamma_search",
]

@dataclass(frozen=True)
class LaneSpec:
    """One mmoo bound computation (one sweep cell) in a batched group."""

    traffic: MMOOParameters
    n_through: int
    n_cross: int
    hops: int
    capacity: float
    delta: float
    epsilon: float
    s_grid: int = 24
    gamma_grid: int = 24


@dataclass(frozen=True)
class EDFLaneSpec:
    """One EDF fixed-point computation in a batched group."""

    traffic: MMOOParameters
    n_through: int
    n_cross: int
    hops: int
    capacity: float
    epsilon: float
    deadline_weight_through: float = 1.0
    deadline_weight_cross: float = 10.0
    tol: float = 1e-4
    max_iter: int = 40
    s_grid: int = 24
    gamma_grid: int = 24
    on_nonconvergence: Literal["warn", "raise", "ignore"] = "warn"


#: One registered (lane, s) probe context.
_Ctx = namedtuple(
    "_Ctx",
    "index through cross hops capacity delta epsilon gamma_grid",
)


class _Lane:
    """Mutable per-lane state of one bound's ``s`` search."""

    __slots__ = ("spec", "delta", "table", "gammas", "_s_max")

    def __init__(self, spec: LaneSpec | EDFLaneSpec, delta: float,
                 table: cprobe.ProbeTable, s_max: float | None = None):
        self.spec = spec
        self.delta = delta
        self.table = table
        # the gamma optimum found at each probed s (absent: no headroom)
        self.gammas: dict[float, float] = {}
        self._s_max = s_max

    def s_max(self) -> float:
        # delta-independent: edf_bound_lanes hands the bootstrap lane's
        # value to every fixed-point iteration of its lanes
        if self._s_max is None:
            spec = self.spec
            self._s_max = _max_feasible_s(
                spec.traffic,
                spec.n_through + max(spec.n_cross, 1),
                spec.capacity,
            )
        return self._s_max

    def context(self, s: float) -> _Ctx | None:
        """The ``gamma`` search context at ``s``; ``None`` when ``s``
        leaves no headroom (the delay there is ``inf``)."""
        spec = self.spec
        through, cross = mmoo_ebb_pair(
            spec.traffic, spec.n_through, spec.n_cross, s
        )
        if spec.capacity - cross.rate - through.rate <= 0:
            return None
        index = self.table.add(
            through, cross, spec.hops, spec.capacity, self.delta,
            spec.epsilon,
        )
        return _Ctx(
            index, through, cross, spec.hops, spec.capacity, self.delta,
            spec.epsilon, spec.gamma_grid,
        )

    def at_s(self, s: float) -> E2EResult:
        """Materialize the optimum at ``s`` and the gamma found there."""
        gamma = self.gammas.get(s)
        if gamma is None:
            return _INFEASIBLE
        spec = self.spec
        through, cross = mmoo_ebb_pair(
            spec.traffic, spec.n_through, spec.n_cross, s
        )
        return e2e_delay_bound_at_gamma(
            through, cross, spec.hops, spec.capacity, self.delta,
            spec.epsilon, gamma,
        )


def _gamma_searches(
    table: cprobe.ProbeTable, ctxs: list[_Ctx]
) -> tuple[list[tuple[float, float]], int]:
    """One engine round: the grid-then-golden ``gamma`` search at fixed
    ``s`` of every pending context, in a few batched kernel calls.

    In order: the log-spaced grid of every context over its
    :func:`~repro.network.e2e._gamma_interval`; its values, as
    row-stacked :func:`~repro.network.vectorized.e2e_delay_grid_rows`
    calls (one per group of contexts sharing hops, grid length,
    Eq. (38) case, ``Delta == 0``, capacity and epsilon); each row's
    :func:`~repro.utils.numeric.grid_bracket`; one
    :func:`repro.network.cprobe.golden_values` call refining the
    finite rows; one :func:`repro.network.cprobe.probe_values` call at
    each row's grid argmin.  The refined point wins when its value is
    no worse than the grid minimum.

    Returns ``(gamma_best, delay)`` per context, where ``delay`` is the
    probe at ``gamma_best`` (the golden refinement's ``f`` is the probe
    at its ``x``), and the number of probe and refinement requests
    made.
    """
    grids = []
    rows: list = [None] * len(ctxs)
    groups: dict = {}
    for i, ctx in enumerate(ctxs):
        headroom = ctx.capacity - ctx.cross.rate - ctx.through.rate
        grids.append(logspace(
            *_gamma_interval(headroom, ctx.hops), ctx.gamma_grid
        ))
        key = (
            ctx.hops, ctx.gamma_grid, _delta_case(ctx.delta),
            ctx.delta == 0.0, ctx.capacity, ctx.epsilon,
        )
        groups.setdefault(key, []).append(i)
    for (hops, _, _, _, capacity, epsilon), members in groups.items():
        out = e2e_delay_grid_rows(
            [ctxs[i].through for i in members],
            [ctxs[i].cross for i in members],
            hops,
            capacity,
            [ctxs[i].delta for i in members],
            epsilon,
            np.array([grids[i] for i in members]),
        )
        for i, row in zip(members, out.tolist()):
            rows[i] = row

    found = []
    refine, los, his = [], [], []
    for i, (xs, row) in enumerate(zip(grids, rows)):
        best, bracket = grid_bracket(xs, row)
        found.append((xs[best], row[best]))
        if bracket is not None:
            refine.append(i)
            los.append(bracket[0])
            his.append(bracket[1])
    refined = []
    if refine:
        ref_x, ref_f = cprobe.golden_values(
            table, [ctxs[i].index for i in refine], los, his
        )
        refined = [
            (i, (x, f))
            for i, x, f in zip(refine, ref_x.tolist(), ref_f.tolist())
            if f <= found[i][1]
        ]
    # a row's value at its grid argmin is the probe's there
    values = cprobe.probe_values(
        table, [ctx.index for ctx in ctxs], [x for x, _ in found]
    ).tolist()
    found = [(x, value) for (x, _), value in zip(found, values)]
    for i, best in refined:
        found[i] = best
    return found, len(refine) + len(ctxs)


# --------------------------------------------------------------------- #
# the engine: every lane's s search, one gamma search stage per round
# --------------------------------------------------------------------- #


def _s_search(lane: _Lane):
    """The ``s`` search of one lane: numeric's grid-then-golden body."""
    return grid_then_golden_search(
        *_s_interval(lane.s_max()), grid_points=lane.spec.s_grid,
        log_spaced=True,
    )


def _run_lanes(
    table: cprobe.ProbeTable, lanes: list[_Lane]
) -> list[E2EResult]:
    """Run the ``s`` search of every lane together; each lane's optimum.

    A lane's search (:func:`_s_search`) yields the ``s`` values of one
    level and is sent their delays.  Each ``s`` becomes a ``gamma``
    search context (:meth:`_Lane.context`), or ``inf`` at once when it
    leaves no headroom; a level with no context steps its lane again
    at once.  Each engine round runs every pending context as one
    :func:`_gamma_searches` stage and records the ``gamma`` found at
    each ``s``, so a round is one level of every live ``s`` search.
    """
    results: list[E2EResult] = [_INFEASIBLE] * len(lanes)
    # (slot, lane, search, level s values, their delays, (position, ctx))
    waiting: list = []
    rounds = 0
    n_probes = 0

    def advance(slot, lane, search, values):
        while True:
            try:
                level = search.send(values)
            except StopIteration as stop:
                results[slot] = lane.at_s(stop.value[0])
                return
            values = [math.inf] * len(level)
            ctxs = []
            for k, s in enumerate(level):
                ctx = lane.context(s)
                if ctx is not None:
                    ctxs.append((k, ctx))
            if ctxs:
                waiting.append((slot, lane, search, level, values, ctxs))
                return

    for slot, lane in enumerate(lanes):
        spec = lane.spec
        load = (spec.n_through + spec.n_cross) * spec.traffic.mean_rate
        if load < spec.capacity:
            advance(slot, lane, _s_search(lane), None)

    while waiting:
        rounds += 1
        # a round holds the interpreter lock for well under a millisecond;
        # yielding the CPU between rounds lets a thread waiting on the
        # lock (the bound service's event loop, answering cache hits
        # beside its solver thread) run now rather than after a whole
        # switch interval
        os.sched_yield()
        batch, waiting = waiting, []
        found, requests = _gamma_searches(
            table, [ctx for *_, ctxs in batch for _, ctx in ctxs]
        )
        n_probes += requests
        position = 0
        for slot, lane, search, level, values, ctxs in batch:
            for k, _ in ctxs:
                lane.gammas[level[k]], values[k] = found[position]
                position += 1
            advance(slot, lane, search, values)

    if obs.enabled():
        obs.add("lanes.engine_rounds", rounds)
        obs.add("lanes.engine_probes", n_probes)
        if rounds:
            obs.observe("lanes.round_occupancy", n_probes / rounds)
    return results


# --------------------------------------------------------------------- #
# public entry points
# --------------------------------------------------------------------- #


def _check_lane(spec: LaneSpec | EDFLaneSpec) -> None:
    check_int(spec.n_through, "n_through", minimum=1)
    check_int(spec.n_cross, "n_cross", minimum=0)
    check_int(spec.hops, "hops", minimum=1)
    check_positive(spec.capacity, "capacity")
    check_probability(spec.epsilon, "epsilon")
    # grid_then_golden_search needs 3 grid points
    check_int(spec.s_grid, "s_grid", minimum=3)
    check_int(spec.gamma_grid, "gamma_grid", minimum=3)


def gamma_search(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    gamma_grid: int,
) -> tuple[float, float]:
    """One ``gamma`` search: ``(gamma_best, delay_at_gamma_best)``,
    the delay being the probe's.

    The search behind :func:`~repro.network.e2e.e2e_delay_bound` with
    ``method="exact"``: one :func:`_gamma_searches` stage of one
    context.  The caller guarantees positive headroom.
    """
    table = cprobe.ProbeTable()
    index = table.add(through, cross, hops, capacity, delta, epsilon)
    ctx = _Ctx(index, through, cross, hops, capacity, delta, epsilon,
               gamma_grid)
    (best,), _ = _gamma_searches(table, [ctx])
    return best


def mmoo_bound_lanes(specs: Iterable[LaneSpec]) -> list[E2EResult]:
    """The mmoo (s, gamma) search of every lane, run concurrently.

    :func:`~repro.network.e2e.e2e_delay_bound_mmoo` is the one-lane
    call; a lane's result does not depend on its batch.
    """
    specs = list(specs)
    for spec in specs:
        _check_lane(spec)
    table = cprobe.ProbeTable()
    lanes = [_Lane(spec, spec.delta, table) for spec in specs]
    with obs.trace("lanes.mmoo_batch"):
        results = _run_lanes(table, lanes)
    if obs.enabled():
        obs.add("lanes.mmoo_lanes", len(specs))
    return results


def edf_bound_lanes(specs: Iterable[EDFLaneSpec]) -> list[EDFBound]:
    """The EDF deadline fixed point of every lane, iterated together.

    :func:`~repro.network.e2e.e2e_delay_bound_edf` is the one-lane
    call.  Each lane is resolved by damped iteration from its FIFO
    bound: the examples set per-node deadlines proportional to the
    end-to-end bound, so ``Delta_{0,c} = (w_0 - w_c) d_e2e / H`` is a
    fixed point in ``d_e2e``.  One engine pass per fixed-point
    iteration iterates the whole group's deadline vector together;
    per-lane convergence masking freezes finished lanes while
    stragglers keep iterating, so each lane sees its own iteration
    sequence whatever its batch.  The shared FIFO bootstrap
    (``delta = 0``) is computed once per distinct lane geometry —
    deadline weights do not enter it — and reused.

    Telemetry, when :mod:`repro.obs` is enabled: the
    ``e2e.edf_iterations`` counter and the ``e2e.edf_residual`` series
    get one entry per lane per iteration (so for one lane they match
    its :class:`~repro.network.e2e.FixedPointDiagnostics`), and
    ``e2e.edf_nonconverged`` counts lanes that exhaust ``max_iter``.
    """
    specs = list(specs)
    for spec in specs:
        _check_lane(spec)
        check_positive(
            spec.deadline_weight_through, "deadline_weight_through"
        )
        check_positive(spec.deadline_weight_cross, "deadline_weight_cross")
        if spec.on_nonconvergence not in ("warn", "raise", "ignore"):
            raise ValueError(
                "on_nonconvergence must be 'warn', 'raise', or 'ignore', "
                f"got {spec.on_nonconvergence!r}"
            )
    n = len(specs)
    start = time.perf_counter()
    table = cprobe.ProbeTable()

    def bootstrap_key(spec: EDFLaneSpec):
        return (
            spec.traffic, spec.n_through, spec.n_cross, spec.hops,
            spec.capacity, spec.epsilon, spec.s_grid, spec.gamma_grid,
        )

    bounds: list[EDFBound | None] = [None] * n
    deltas = [0.0] * n
    residuals = [math.inf] * n
    results: list[E2EResult | None] = [None] * n
    active = list(range(n))

    def finish(i, result, delta, iterations, residual, converged):
        bounds[i] = EDFBound(
            result=result,
            delta=delta,
            diagnostics=FixedPointDiagnostics(
                iterations=iterations,
                residual=residual,
                converged=converged,
                wall_time_s=time.perf_counter() - start,
            ),
        )

    with obs.trace("lanes.edf_batch"):
        # FIFO bootstrap, deduplicated across lanes sharing a geometry
        # (EDF variants differing only in deadline weights)
        unique: dict = {}
        for i in active:
            unique.setdefault(bootstrap_key(specs[i]), []).append(i)
        lane_groups = list(unique.values())
        boot_lanes = [
            _Lane(specs[group[0]], 0.0, table) for group in lane_groups
        ]
        boot = _run_lanes(table, boot_lanes)
        if obs.enabled() and n:
            obs.add("lanes.bootstrap_dedup", n - len(lane_groups))
        # s_max depends only on the bootstrap key: one bisection per group
        s_maxes = [0.0] * n
        still = []
        for group, lane, current in zip(lane_groups, boot_lanes, boot):
            for i in group:
                s_maxes[i] = lane.s_max()
                if not current.feasible:
                    finish(i, current, 0.0, 0, 0.0, True)
                else:
                    spec = specs[i]
                    weight_gap = (
                        spec.deadline_weight_through
                        - spec.deadline_weight_cross
                    )
                    deltas[i] = weight_gap * current.delay / spec.hops
                    still.append(i)
        active = still

        iteration = 0
        while active:
            iteration += 1
            over = [i for i in active if iteration > specs[i].max_iter]
            if over and obs.enabled():
                obs.add("e2e.edf_nonconverged", len(over))
            for i in over:
                _nonconvergence(specs[i], residuals[i])
                finish(
                    i, results[i], deltas[i], specs[i].max_iter,
                    residuals[i], False,
                )
            active = [i for i in active if iteration <= specs[i].max_iter]
            if not active:
                break
            step_lanes = [
                _Lane(specs[i], deltas[i], table, s_maxes[i]) for i in active
            ]
            traced = obs.enabled()
            if traced:
                obs.add("lanes.edf_rounds")
                obs.observe("lanes.edf_round_lanes", len(active))
                obs.add("e2e.edf_iterations", len(active))
            step_results = _run_lanes(table, step_lanes)
            still = []
            for i, result in zip(active, step_results):
                results[i] = result
                spec = specs[i]
                if not result.feasible:
                    # an infinite bound cannot move: at rest
                    finish(i, result, deltas[i], iteration, 0.0, True)
                    continue
                weight_gap = (
                    spec.deadline_weight_through - spec.deadline_weight_cross
                )
                new_delta = weight_gap * result.delay / spec.hops
                step = abs(new_delta - deltas[i])
                scale = max(1.0, abs(deltas[i]))
                residuals[i] = step / scale
                if traced:
                    obs.observe("e2e.edf_residual", residuals[i])
                if step <= spec.tol * scale:
                    finish(i, result, new_delta, iteration, residuals[i], True)
                    continue
                deltas[i] = 0.5 * (deltas[i] + new_delta)  # damping
                still.append(i)
            active = still

    if obs.enabled():
        obs.add("lanes.edf_lanes", n)
        for bound in bounds:
            obs.observe(
                "lanes.edf_lane_iterations", bound.diagnostics.iterations
            )
    return [bound for bound in bounds]


def _nonconvergence(spec: EDFLaneSpec, residual: float) -> None:
    message = (
        f"EDF deadline fixed point did not converge in {spec.max_iter} "
        f"iterations: relative residual {residual:.3g} > tol {spec.tol:g}"
    )
    if spec.on_nonconvergence == "raise":
        raise FixedPointError(message)
    if spec.on_nonconvergence == "warn":
        warnings.warn(message, RuntimeWarning, stacklevel=2)
