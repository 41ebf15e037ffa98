"""The MMOO (s, gamma) bound search and the EDF deadline fixed point.

This module is the one implementation of the paper's nested bound
optimization: the EDF deadline fixed point iterates ``bound_at(delta)``,
each of which runs a golden-section search over ``s``, each step of
which runs a grid-then-golden search over ``gamma``, each probe of which
solves the Eq. (38) theta optimization.  The per-cell entry points
:func:`repro.network.e2e.e2e_delay_bound_mmoo` and
:func:`repro.network.e2e.e2e_delay_bound_edf` are one-lane calls into
:func:`mmoo_bound_lanes` and :func:`edf_bound_lanes`, and the numpy
``gamma`` search of :func:`repro.network.e2e.e2e_delay_bound` is one
``gamma`` chain (:func:`gamma_search`).  Across a sweep grid the cells
are independent, so the searches of many cells advance in lockstep,
pooling every pending probe of every cell into one batched kernel call
per engine round.

The engine is a tiny cooperative scheduler over *search chains*:

* a chain is a Python generator that runs one search
  (``golden_section_min``, ``refine_grid_minimum``,
  ``grid_then_golden``, the ``s``-objective, the mmoo bound) with the
  same brackets and comparisons as :mod:`repro.utils.numeric`, but
  *yields* its probe requests instead of evaluating them;
* the engine gathers the pending requests of all live chains each
  round and executes them together: scalar objective probes go through
  the generated-C kernel of :mod:`repro.network.cprobe` (one C call for
  the whole round), gamma-grid evaluations go through the row-stacked
  :func:`repro.network.vectorized.e2e_delay_grid_rows`;
* the ``s``-objective chain records the ``gamma`` it found at each
  ``s``; the optimum is materialized by one
  :func:`repro.network.e2e.e2e_delay_bound_at_gamma` call at the best
  ``s`` and its recorded ``gamma``;
* :func:`edf_bound_lanes` drives the whole grid's EDF deadline vector
  through one such engine pass per fixed-point iteration, with
  per-lane convergence masking: a converged lane stops spawning
  chains (its diagnostics freeze at its own iteration count) while
  stragglers keep iterating.

Batching contract
-----------------
Every kernel the engine calls is elementwise per request, so a lane's
results — bounds, gammas, iteration counts, residuals, convergence
flags — do not depend on which other lanes share its batch: a cell
computes the same doubles alone (the per-cell entry points) as inside a
64-lane group.  A reference implementation of the plain nested search
lives in ``tests/network/reference_search.py``; the equivalence suite
pins the engine to it bitwise on the numpy backend and to 1e-9 relative
on the scalar one, whose C probes differ from the exact scalar
objective in the last bits.
"""

from __future__ import annotations

import math
import time
import warnings
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from repro import obs
from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network import cprobe
from repro.network.e2e import (
    _INFEASIBLE,
    _max_feasible_s,
    E2EResult,
    EDFBound,
    FixedPointDiagnostics,
    FixedPointError,
    check_backend,
    e2e_delay_bound_at_gamma,
    mmoo_ebb_pair,
)
from repro.network.vectorized import _delta_case, _log_grid, e2e_delay_grid_rows
from repro.utils.validation import check_int, check_positive, check_probability

__all__ = [
    "LaneSpec",
    "EDFLaneSpec",
    "mmoo_bound_lanes",
    "edf_bound_lanes",
    "gamma_search",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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
    backend: str = "numpy"


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
    backend: str = "numpy"
    on_nonconvergence: Literal["warn", "raise", "ignore"] = "warn"


class _Ctx:
    """One registered (lane, s) probe context."""

    __slots__ = ("index", "through", "cross", "hops", "capacity", "delta",
                 "epsilon", "gamma_grid", "backend")

    def __init__(self, index, through, cross, hops, capacity, delta,
                 epsilon, gamma_grid, backend):
        self.index = index
        self.through = through
        self.cross = cross
        self.hops = hops
        self.capacity = capacity
        self.delta = delta
        self.epsilon = epsilon
        self.gamma_grid = gamma_grid
        self.backend = backend


class _Lane:
    """Mutable per-lane state shared by the chains of one bound."""

    __slots__ = ("spec", "delta", "table", "gammas", "_s_max")

    def __init__(self, spec: LaneSpec | EDFLaneSpec, delta: float,
                 table: cprobe.ProbeTable):
        self.spec = spec
        self.delta = delta
        self.table = table
        # the gamma optimum found at each probed s (absent: no headroom)
        self.gammas: dict[float, float] = {}
        self._s_max: float | None = None

    def s_max(self) -> float:
        # delta-independent, so cached across EDF fixed-point iterations
        if self._s_max is None:
            spec = self.spec
            self._s_max = _max_feasible_s(
                spec.traffic,
                spec.n_through + max(spec.n_cross, 1),
                spec.capacity,
            )
        return self._s_max

    def register(self, through: EBB, cross: EBB) -> _Ctx:
        spec = self.spec
        index = self.table.add(
            through, cross, spec.hops, spec.capacity, self.delta,
            spec.epsilon,
        )
        return _Ctx(
            index, through, cross, spec.hops, spec.capacity, self.delta,
            spec.epsilon, spec.gamma_grid, spec.backend,
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


# --------------------------------------------------------------------- #
# search chains: the searches of repro.utils.numeric as generators
# --------------------------------------------------------------------- #


def _golden_chain(req, low, high, *, tol=1e-9, max_iter=200):
    """Mirror of :func:`repro.utils.numeric.golden_section_min`."""
    a, b = low, high
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = yield [req(x1), req(x2)]
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            (f1,) = yield [req(x1)]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            (f2,) = yield [req(x2)]
    if f1 <= f2:
        return x1, f1
    return x2, f2


def _refine_chain(req, xs, fs, *, tol=1e-9):
    """Mirror of :func:`repro.utils.numeric.refine_grid_minimum`."""
    best = min(range(len(xs)), key=lambda i: fs[i])
    if not math.isfinite(fs[best]):
        return xs[best], fs[best]
    lo = xs[max(0, best - 1)]
    hi = xs[min(len(xs) - 1, best + 1)]
    x_ref, f_ref = yield from _golden_chain(req, lo, hi, tol=tol)
    if f_ref <= fs[best]:
        return x_ref, f_ref
    return xs[best], fs[best]


def _gamma_chain(ctx: _Ctx):
    """The grid-then-golden ``gamma`` search at one fixed ``s``.

    The log-spaced grid is one row of
    :func:`~repro.network.vectorized.e2e_delay_grid_rows` (numpy
    backend) or one C probe per point (scalar backend); the
    golden-section refinement of the argmin bracket runs over the probe.
    Returns ``(gamma_best, delay_at_gamma_best)``.
    """
    headroom = ctx.capacity - ctx.cross.rate - ctx.through.rate
    gamma_max = headroom / (ctx.hops + 1)
    xs = _log_grid(gamma_max * 1e-6, gamma_max * (1.0 - 1e-9), ctx.gamma_grid)
    if ctx.backend == "numpy":
        (fs,) = yield [("g", ctx, xs)]
    else:
        fs = yield [("p", ctx.index, x) for x in xs]
    # refine_grid_minimum, with the golden-section refinement executed
    # as one batched in-kernel request ("go") per search
    fs = list(fs)
    best = min(range(len(xs)), key=lambda i: fs[i])
    if not math.isfinite(fs[best]):
        return xs[best], fs[best]
    lo = xs[max(0, best - 1)]
    hi = xs[min(len(xs) - 1, best + 1)]
    ((x_ref, f_ref),) = yield [("go", ctx.index, lo, hi)]
    if f_ref <= fs[best]:
        return x_ref, f_ref
    return xs[best], fs[best]


def _s_objective_chain(lane: _Lane, s: float):
    """The ``s``-search objective: the delay at ``s`` and its best gamma.

    Records the gamma optimum in ``lane.gammas`` so the final ``s``
    materializes without a second gamma search.
    """
    spec = lane.spec
    through, cross = mmoo_ebb_pair(
        spec.traffic, spec.n_through, spec.n_cross, s
    )
    if spec.capacity - cross.rate - through.rate <= 0:
        return math.inf
    ctx = lane.register(through, cross)
    g_best, f_best = yield from _gamma_chain(ctx)
    lane.gammas[s] = g_best
    if spec.backend == "numpy":
        # the objective is the probe at the optimum; when the grid
        # point wins, its grid-row value can differ in the last bits
        (value,) = yield [("p", ctx.index, g_best)]
        return value
    return f_best


def _mmoo_chain(lane: _Lane):
    """The joint (s, gamma) search of one mmoo bound."""
    spec = lane.spec
    if (spec.n_through + spec.n_cross) * spec.traffic.mean_rate >= spec.capacity:
        return _INFEASIBLE
    s_max = lane.s_max()
    low = s_max * 1e-4
    high = s_max * (1.0 - 1e-9)
    # grid_then_golden(objective, low, high, s_grid, log_spaced=True)
    ratio = (high / low) ** (1.0 / (spec.s_grid - 1))
    xs = [low * ratio**i for i in range(spec.s_grid)]
    fs = yield [("c", _s_objective_chain(lane, x)) for x in xs]
    s_best, _ = yield from _refine_chain(
        lambda s: ("c", _s_objective_chain(lane, s)), xs, list(fs)
    )
    return lane.at_s(s_best)


# --------------------------------------------------------------------- #
# the engine: run chains to completion, batching their probe requests
# --------------------------------------------------------------------- #


class _Task:
    __slots__ = ("gen", "values", "pending", "parent", "slot")

    def __init__(self, gen, parent, slot):
        self.gen = gen
        self.values = None
        self.pending = 0
        self.parent = parent
        self.slot = slot


def _run_chains(table: cprobe.ProbeTable, chains: list) -> list:
    """Run top-level chains concurrently; returns their results in order.

    Each engine round flushes every pending scalar probe as one batched
    :func:`repro.network.cprobe.probe_values` call and every pending
    grid request as row-stacked :func:`e2e_delay_grid_rows` calls
    (grouped by path length and Eq. (38) case).
    """
    results = [None] * len(chains)
    probe_reqs: list = []  # (task, slot, ctx_index, gamma)
    golden_reqs: list = []  # (task, slot, ctx_index, lo, hi)
    grid_reqs: list = []  # (task, slot, ctx, xs)
    ready: deque = deque()
    rounds = 0
    n_probes = 0

    def deliver(task, value):
        parent = task.parent
        if parent is None:
            results[task.slot] = value
        else:
            fulfill(parent, task.slot, value)

    def fulfill(task, slot, value):
        task.values[slot] = value
        task.pending -= 1
        if task.pending == 0:
            ready.append(task)

    def start(gen, parent, slot):
        step(_Task(gen, parent, slot), None)

    def step(task, send_values):
        try:
            requests = task.gen.send(send_values)
        except StopIteration as stop:
            deliver(task, stop.value)
            return
        task.values = [None] * len(requests)
        task.pending = len(requests)
        for slot, request in enumerate(requests):
            kind = request[0]
            if kind == "p":
                probe_reqs.append((task, slot, request[1], request[2]))
            elif kind == "go":
                golden_reqs.append(
                    (task, slot, request[1], request[2], request[3])
                )
            elif kind == "g":
                grid_reqs.append((task, slot, request[1], request[2]))
            else:  # "c": sub-chain
                start(request[1], task, slot)

    for slot, gen in enumerate(chains):
        start(gen, None, slot)

    while True:
        while ready:
            task = ready.popleft()
            values, task.values = task.values, None
            step(task, values)
        if not probe_reqs and not golden_reqs and not grid_reqs:
            break
        rounds += 1
        if probe_reqs:
            batch, probe_reqs = probe_reqs, []
            out = cprobe.probe_values(
                table,
                [b[2] for b in batch],
                [b[3] for b in batch],
            )
            n_probes += len(batch)
            for (task, slot, _, _), value in zip(batch, out):
                fulfill(task, slot, float(value))
        if golden_reqs:
            batch, golden_reqs = golden_reqs, []
            out_x, out_f = cprobe.golden_values(
                table,
                [b[2] for b in batch],
                [b[3] for b in batch],
                [b[4] for b in batch],
            )
            n_probes += len(batch)
            for (task, slot, _, _, _), x, f in zip(batch, out_x, out_f):
                fulfill(task, slot, (float(x), float(f)))
        if grid_reqs:
            batch, grid_reqs = grid_reqs, []
            groups: dict = {}
            for item in batch:
                ctx = item[2]
                key = (
                    ctx.hops,
                    len(item[3]),
                    _delta_case(ctx.delta),
                    ctx.delta == 0.0,
                )
                groups.setdefault(key, []).append(item)
            for (hops, _, _, _), items in groups.items():
                ctxs = [item[2] for item in items]
                rows = e2e_delay_grid_rows(
                    [c.through for c in ctxs],
                    [c.cross for c in ctxs],
                    hops,
                    ctxs[0].capacity,
                    [c.delta for c in ctxs],
                    ctxs[0].epsilon,
                    np.asarray([item[3] for item in items]),
                )
                for (task, slot, _, _), row in zip(items, rows):
                    fulfill(task, slot, row.tolist())

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
    check_backend(spec.backend)


def gamma_search(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    gamma_grid: int,
) -> tuple[float, float]:
    """One numpy ``gamma`` chain: ``(gamma_best, delay_at_gamma_best)``.

    The search behind :func:`~repro.network.e2e.e2e_delay_bound`'s
    numpy backend; the caller guarantees positive headroom.
    """
    table = cprobe.ProbeTable()
    index = table.add(through, cross, hops, capacity, delta, epsilon)
    ctx = _Ctx(index, through, cross, hops, capacity, delta, epsilon,
               gamma_grid, "numpy")
    (best,) = _run_chains(table, [_gamma_chain(ctx)])
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
        results = _run_chains(table, [_mmoo_chain(lane) for lane in lanes])
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
            spec.capacity, spec.epsilon, spec.s_grid,
            spec.gamma_grid, spec.backend,
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
        chains = []
        for group in lane_groups:
            lane = _Lane(specs[group[0]], 0.0, table)
            chains.append(_mmoo_chain(lane))
        boot = _run_chains(table, chains)
        if obs.enabled() and n:
            obs.add("lanes.bootstrap_dedup", n - len(lane_groups))
        still = []
        for group, current in zip(lane_groups, boot):
            for i in group:
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
            chains = [
                _mmoo_chain(_Lane(specs[i], deltas[i], table))
                for i in active
            ]
            traced = obs.enabled()
            if traced:
                obs.add("lanes.edf_rounds")
                obs.observe("lanes.edf_round_lanes", len(active))
                obs.add("e2e.edf_iterations", len(active))
            step_results = _run_chains(table, chains)
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
