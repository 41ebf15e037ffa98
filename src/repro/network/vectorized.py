"""Vectorized (numpy) kernels for the Section IV analytic bounds.

The scalar analysis stack evaluates the free-parameter search of the
end-to-end bounds one probe at a time: for every candidate ``gamma`` (and
``s`` for MMOO workloads) it recomputes ``sigma`` from the combined
bounding functions and solves the theta-optimization of Eq. (38) —
thousands of interpreter-level evaluations per curve point.  This module
evaluates the same mathematics as array operations or in generated C:

* :func:`batched_solve_exact` — the Eq. (38) exact solve of many lanes
  of one ``Delta`` case, so one call solves the theta-optimization for a
  whole ``gamma`` grid at once.  The lanes run in generated C
  (:func:`repro.network.cprobe.solve_exact`: the slope sweep of
  :func:`~repro.network.optimization.solve_exact`, once per lane); the
  numpy body, a breakpoint enumeration over a ``(lanes, candidates,
  hops)`` broadcast, is its fallback without a C compiler and its
  oracle, with the same delay bytes;
* :func:`e2e_delay_grid_rows` / :func:`e2e_delay_grid` — the end-to-end
  objective over the ``gamma`` grids of many lanes (or one), each a
  context registered with its grid in a
  :class:`~repro.network.cprobe.ProbeTable`: per point, the probe's own
  ``sigma`` and its closed forms for BMUX (Eq. (43)) and FIFO
  (Eq. (44)), in generated C (:func:`repro.network.cprobe.grid_rows`) or
  in Python; other ``Delta`` rows hand ``sigma``, the hop rates and
  ``Delta``, already shaped as the solve reads them, to
  :func:`batched_solve_exact`;
* :func:`additive_delay_grid` — whole-grid evaluation of the
  node-by-node objective;
* :func:`optimize_gamma_additive` — the grid-then-refine search of the
  additive bound: one batched grid sweep, then golden-section
  refinement of the argmin bracket over the scalar probe, in generated
  C when the kernel loads (:func:`repro.network.cprobe.additive_golden`;
  the end-to-end ``gamma`` search runs in :mod:`repro.network.lanes`);
* ``_e2e_probe`` — the end-to-end objective at one ``gamma``, the
  Python body of :mod:`repro.network.cprobe`'s probe: ``sigma``, then
  Eq. (43), Eq. (44) (:func:`~repro.network.optimization.fifo_delay`) or
  the O(H log H) slope sweep of
  :func:`~repro.network.optimization.solve_exact` on the hop triples.

Equivalence contract with the scalar path
-----------------------------------------
Every kernel mirrors the scalar code's floating-point expression trees
(same operations, same association order, sequential hop sums), so grid
values agree with the scalar objective to the last few ulps and the
grid-then-refine search follows the same trajectory as
:func:`repro.utils.numeric.grid_then_golden` except at exact
floating-point ties.  The end-to-end ``gamma`` grid evaluates ``sigma``
with libm (C) or ``math`` (Python), bitwise like the probe, not with
numpy: numpy's AVX-512 ``log``/``exp``/``expm1`` differ from libm in the
last bits, and a grid value only steers the search (its argmin and the
comparison with the refined point) — the value a search returns is
always the probe's.  The optimized ``gamma``/``s`` is then re-evaluated
through the *scalar* ``..._at_gamma`` functions, so the bounds the
grid-row searches return match the scalar objective's searches to well
within 1e-9 relative (the randomized cross-validation suite pins
this).  Two deliberate semantic differences: where the scalar
constructors *raise* (a saturated hop, ``sigma`` underflow) the kernels
return ``inf`` for the affected lanes, matching the infeasible-result
convention of the callers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro import obs
from repro.arrivals.ebb import EBB
from repro.network import cprobe
from repro.network.e2e import _gamma_interval
from repro.network.optimization import _EPS, _sweep_solve, fifo_delay
from repro.utils.numeric import logspace, refine_grid_minimum, safe_exp

__all__ = [
    "batched_solve_exact",
    "e2e_delay_grid",
    "additive_delay_grid",
    "optimize_gamma_additive",
]

# --------------------------------------------------------------------- #
# theta_for_x / solve_exact on arrays
# --------------------------------------------------------------------- #


def _delta_case(delta: float) -> str:
    """Classify a scalar ``Delta`` into its Eq. (38) case."""
    if math.isinf(delta):
        return "pinf" if delta > 0 else "ninf"
    return "le0" if delta <= 0 else "mid"


def _theta_case_kernel(case, r_svc, r_cross, delta, sigma, x):
    """:func:`~repro.network.optimization.theta_for_x` elementwise, for
    one known ``Delta`` case (same floating-point expressions)."""
    if case == "ninf":
        return np.maximum(0.0, sigma / r_svc - x)
    if case == "pinf":
        return np.maximum(0.0, sigma / (r_svc - r_cross) - x)
    if case == "le0":
        clipped = np.maximum(0.0, x + delta)
        return np.maximum(0.0, (sigma + r_cross * clipped) / r_svc - x)
    denom = r_svc - r_cross
    theta_low = (sigma - denom * x) / denom
    theta_high = (sigma + r_cross * (x + delta)) / r_svc - x
    return np.where(
        theta_low <= delta,
        np.maximum(0.0, theta_low),
        np.maximum(theta_high, delta),
    )


def batched_solve_exact(service_rates, cross_rates, deltas, sigmas, *, case=None):
    """Vectorized :func:`~repro.network.optimization.solve_exact`.

    Parameters
    ----------
    service_rates:
        ``(..., H)`` per-hop degraded link rates ``R_h``.
    cross_rates, deltas:
        Broadcastable to the shape of ``service_rates``.
    sigmas:
        ``(...)`` slack per batch lane.

    Returns ``(delay, x, thetas)`` with shapes ``(...)``, ``(...)`` and
    ``(..., H)``: on every lane the scalar solver's value and first
    minimizer, and the thetas at it.  Lanes with a saturated hop or a
    negative cross rate (where the scalar :class:`HopParameters`
    constructor raises) or a negative or non-finite ``sigma`` come back
    with ``delay = inf``; their ``x`` and thetas are unspecified.

    Every lane must fall in one Eq. (38) case of ``Delta``: ``case``
    names it, else it is read off ``deltas``, and deltas of mixed cases
    raise :class:`ValueError`, as does an empty hop axis.  With at most
    :data:`repro.network.cprobe.MAX_HOPS` hops the lanes are solved by
    the compiled :func:`repro.network.cprobe.solve_exact`, the slope
    sweep of :func:`~repro.network.optimization.solve_exact`; otherwise,
    or without a C compiler, the numpy body enumerates every breakpoint.
    Both give the same delay bytes on every lane, and the same ``x`` and
    thetas on every lane not masked to ``inf``.
    """
    r_svc = np.asarray(service_rates, dtype=float)
    shape = r_svc.shape
    if not shape:
        raise ValueError("service_rates must have a trailing hop axis")
    if shape[-1] == 0:
        raise ValueError("need at least one hop")
    delta_in = np.asarray(deltas, dtype=float)
    if case is None:
        cases = {_delta_case(d) for d in np.unique(delta_in).tolist()}
        if len(cases) != 1:
            raise ValueError("all deltas must share one Eq. (38) case")
        (case,) = cases
    lanes = math.prod(shape[:-1])
    r_svc = r_svc.reshape(lanes, shape[-1])
    r_cross = _lane_rows(cross_rates, shape, lanes)
    delta = _lane_rows(delta_in, shape, lanes)
    sig = np.asarray(sigmas, dtype=float)
    if sig.shape != shape[:-1]:
        sig = np.broadcast_to(sig, shape[:-1])
    sig = sig.reshape(lanes)

    solved = cprobe.solve_exact(r_svc, r_cross, delta, sig, case)
    if solved is None:
        solved = _solve_exact_numpy(r_svc, r_cross, delta, sig, case)
    delay, x_best, thetas, n_bad = solved

    if obs.enabled():
        obs.record(
            {
                "vectorized.solve_batches": 1,
                "vectorized.solve_lanes": lanes,
                "vectorized.solve_saturated_lanes": n_bad,
            },
            {"vectorized.solve_batch_shape": list(shape)},
        )
    return (
        delay.reshape(shape[:-1]),
        x_best.reshape(shape[:-1]),
        thetas.reshape(shape),
    )


def _lane_rows(values, shape, lanes):
    """``values`` broadcast against ``shape`` ``(..., hops)`` as a
    ``(lanes, hops)`` array, or as a ``(lanes, 1)`` column when its hop
    axis has length one: the solve reads a column through a zero hop
    stride, so a per-lane value is never widened to every hop."""
    a = np.asarray(values, dtype=float)
    width = 1 if a.ndim == 0 or a.shape[-1] == 1 else shape[-1]
    target = shape[:-1] + (width,)
    if a.shape != target:
        a = np.broadcast_to(a, target)
    return a.reshape(lanes, width)


def _solve_exact_numpy(r_svc, r_cross, delta, sig, case):
    """The numpy body of :func:`batched_solve_exact` on ``(lanes, hops)``
    arrays (``r_cross`` and ``delta`` may be ``(lanes, 1)`` columns): the
    fallback of the C kernel and its oracle.

    Each lane evaluates ``d`` at every candidate ({0, every positive
    finite breakpoint, max + 1}) in ascending order and takes the first
    minimum.  Returns ``(delay, x, thetas, saturated
    lanes)``.
    """
    lanes, hops = r_svc.shape
    r_cross = np.broadcast_to(r_cross, r_svc.shape)
    delta = np.broadcast_to(delta, r_svc.shape)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sig1 = sig[:, None]
        denom = r_svc - r_cross
        if case == "ninf":
            bp = (sig1 / r_svc)[:, :, None]
        elif case == "pinf":
            bp = (sig1 / denom)[:, :, None]
        elif case == "le0":
            bp = np.stack(
                [-delta, sig1 / r_svc, (sig1 + r_cross * delta) / denom],
                axis=-1,
            )
        else:
            bp = np.stack(
                [
                    sig1 / denom,
                    sig1 / denom - delta,
                    (sig1 + r_cross * (0.0 + delta)) / r_svc,
                ],
                axis=-1,
            )
        n_bp = bp.shape[-1]
        valid = np.isfinite(bp) & (bp > 0.0)
        flat = np.where(valid, bp, 0.0).reshape(lanes, n_bp * hops)
        upper = flat.max(axis=1) + 1.0
        cand = np.concatenate(
            [np.zeros((lanes, 1)), upper[:, None], flat], axis=1
        )
        cand.sort(axis=1)

        theta = _theta_case_kernel(
            case,
            r_svc[:, None, :],
            r_cross[:, None, :],
            delta[:, None, :],
            sig[:, None, None],
            cand[:, :, None],
        )
        # accumulate hops sequentially to mirror the scalar sum() order
        total = theta[:, :, 0].copy()
        for h in range(1, hops):
            total += theta[:, :, h]
        dvals = cand + total
        idx = np.argmin(np.where(np.isnan(dvals), np.inf, dvals), axis=1)
        take = idx[:, None]
        delay = np.take_along_axis(dvals, take, axis=1)[:, 0]
        x_best = np.take_along_axis(cand, take, axis=1)[:, 0]
        thetas = np.take_along_axis(theta, take[:, :, None], axis=1)[:, 0, :]

        # the hops HopParameters rejects: saturated, or a cross rate
        # below zero (or NaN)
        is_ninf = np.isneginf(delta)
        saturated = ((r_svc <= r_cross + _EPS) & ~is_ninf) | (r_svc <= 0.0)
        saturated |= ~(r_cross >= 0.0)
        bad = saturated.any(axis=1) | ~np.isfinite(sig) | (sig < 0.0)
        delay = np.where(bad, np.inf, delay)
    return delay, x_best, thetas, int(bad.sum())


def _sigma_raw(
    through: EBB, cross: EBB, hops: int, gamma: float, epsilon: float
) -> float:
    """``sigma`` of the homogeneous Eq. (33) chain before its clamp at
    zero (``inf`` when a geometric factor underflows).

    The same Eq. (33) combination as
    :func:`~repro.network.e2e.sigma_for_epsilon`, but inverted as
    ``log(M / epsilon) / alpha`` where ``ExponentialBound.inverse`` takes
    ``(log M - log epsilon) / alpha``: ``max(0, _sigma_raw)`` agrees with
    ``sigma_for_epsilon`` to within about 1e-15 relative, not bitwise.
    The C probe computes these very doubles.  Callers clamp it themselves: the probe turns a NaN into 0,
    the γ grid marks that point dead.
    """
    geo_t = -math.expm1(-through.decay * gamma)
    geo_c = -math.expm1(-cross.decay * gamma)
    if geo_t <= 0.0 or geo_c <= 0.0:
        return math.inf
    w = 1.0 / through.decay
    for _ in range(hops):
        w += 1.0 / cross.decay
    log_m = math.log(w)
    log_m += math.log(
        (through.prefactor / geo_t) * through.decay
    ) / (through.decay * w)
    last = cross.prefactor / geo_c
    inflated = last / geo_c
    term_inflated = math.log(inflated * cross.decay) / (cross.decay * w)
    for _ in range(hops - 1):
        log_m += term_inflated
    log_m += math.log(last * cross.decay) / (cross.decay * w)
    prefactor = safe_exp(log_m)
    alpha = 1.0 / w
    return math.log(prefactor / epsilon) / alpha


# --------------------------------------------------------------------- #
# end-to-end delay: whole-grid evaluation + fast probes
# --------------------------------------------------------------------- #


def e2e_delay_grid(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    gammas,
) -> np.ndarray:
    """The :func:`~repro.network.e2e.e2e_delay_bound_at_gamma` objective
    over a whole ``gamma`` grid: one row of :func:`e2e_delay_grid_rows`.

    Infeasible points (Eq. (32) violated, ``sigma`` underflow) are
    ``inf``, matching the scalar ``_INFEASIBLE`` convention.  BMUX and
    FIFO take the closed forms Eq. (43)/(44); other ``Delta`` go through
    :func:`batched_solve_exact`.
    """
    g = np.asarray(gammas, dtype=float)
    table = cprobe.ProbeTable()
    index = table.add(
        through, cross, hops, capacity, delta, epsilon, g.ravel().tolist()
    )
    return e2e_delay_grid_rows([index], table).reshape(g.shape)


def e2e_delay_grid_rows(
    indices: Sequence[int], table: cprobe.ProbeTable
) -> np.ndarray:
    """Row-stacked :func:`e2e_delay_grid`: many lanes, one kernel call.

    Row ``i`` of the ``(lanes, grid)`` result is the γ grid of context
    ``indices[i]`` of ``table``, over the grid registered with it
    (:meth:`repro.network.cprobe.ProbeTable.add`); every point is
    computed alone, so a row's bytes do not depend on the rows stacked
    with it.  A point is ``inf`` when Eq. (32) fails or its ``sigma``
    (the probe's :func:`_sigma_raw`) is NaN or ``+inf``; otherwise
    ``sigma`` is clamped at zero as in the probe.  BMUX and FIFO rows
    then take the probe's closed forms (Eqs. 43-44); other ``Delta``
    rows go through :func:`batched_solve_exact`.  The points run in
    :func:`repro.network.cprobe.grid_rows` when the kernel loads, else
    in :func:`_grid_rows_python`, with the same bytes.  All contexts
    must share their hop count and grid length, and their ``Delta`` one
    Eq. (38) case (the lane engine groups contexts accordingly);
    capacity and epsilon are each row's own.
    """
    cases, zeros, sizes = set(), set(), set()
    for delta, hops, grid in table.row_shapes(indices):
        cases.add(_delta_case(delta))
        zeros.add(delta == 0.0)
        sizes.add((hops, grid))
    if len(cases) != 1:
        raise ValueError("all deltas must share one Eq. (38) case")
    if len(zeros) != 1:
        # the scalar path dispatches delta == 0 to the Eq. (44) closed
        # form; mixing it with the exact solve would break the bitwise
        # contract for the zero rows
        raise ValueError("cannot mix delta == 0 with other deltas")
    if len(sizes) != 1:
        raise ValueError("grid rows must share hops and grid length")
    ((hops, grid),) = sizes
    if grid < 0:
        raise ValueError("a context has no gamma grid")
    (case,) = cases
    (any_zero,) = zeros
    form = "bmux" if case == "pinf" else "fifo" if any_zero else "exact"
    lanes = len(indices)
    args = (indices, table, hops, grid, form)
    points = cprobe.grid_rows(*args)
    if points is None:
        points = _grid_rows_python(*args)
    delays, r_svc, r_cross, deltas = points
    if form == "exact":
        # per-point cross rate and delta as (points, 1) columns
        solved, _, _ = batched_solve_exact(
            r_svc, r_cross, deltas, delays, case=case
        )
        # a dead point's sigma is inf, which the solve turns into inf
        delays = solved.reshape(lanes, grid)
    else:
        delays = delays.copy()
    if obs.enabled():
        obs.record({
            "vectorized.grid_row_calls": 1,
            "vectorized.grid_row_lanes": lanes,
            "vectorized.grid_points": lanes * grid,
        })
    return delays


def _grid_rows_python(
    indices: Sequence[int],
    table: cprobe.ProbeTable,
    hops: int,
    grid: int,
    form: str,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None,
           np.ndarray | None]:
    """The Python body of :func:`repro.network.cprobe.grid_rows` (its
    fallback and oracle): ``(out, r_svc, r_cross, delta)``, point by
    point."""
    lanes = len(indices)
    out = np.empty((lanes, grid))
    for i, index in enumerate(indices):
        through, cross, _, capacity, _, epsilon = table.context(index)
        headroom = capacity - cross.rate - through.rate
        for j, gamma in enumerate(table.grid(index)):
            sigma = math.inf
            if (hops + 1) * gamma < headroom:
                v = _sigma_raw(through, cross, hops, gamma, epsilon)
                if v == v and v != math.inf:
                    sigma = max(0.0, v)
            if form == "exact" or sigma == math.inf:
                out[i, j] = sigma
            elif form == "bmux":
                denom = (capacity - (hops - 1) * gamma) - (cross.rate + gamma)
                out[i, j] = sigma / denom if denom > 0.0 else math.inf
            else:
                out[i, j] = fifo_delay(hops, capacity, gamma, cross.rate, sigma)
    if form != "exact":
        return out, None, None, None
    out = out.reshape(lanes * grid)
    contexts = [table.context(index) for index in indices]
    g_flat = np.array([table.grid(index) for index in indices]).ravel()

    def per_point(values):
        return np.repeat(np.array(values, dtype=float), grid)[:, None]

    r_svc = per_point([c[3] for c in contexts]) - (
        np.arange(hops, dtype=float)[None, :] * g_flat[:, None]
    )
    r_cross = per_point([c[1].rate for c in contexts]) + g_flat[:, None]
    return out, r_svc, r_cross, per_point([c[4] for c in contexts])


def _e2e_probe(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    gamma: float,
) -> float:
    """Fast scalar mirror of the ``e2e_delay_bound_at_gamma`` objective."""
    if (hops + 1) * gamma >= capacity - cross.rate - through.rate:
        return math.inf
    sigma = max(0.0, _sigma_raw(through, cross, hops, gamma, epsilon))
    if not math.isfinite(sigma):
        return math.inf
    if delta == math.inf:
        denom = (capacity - (hops - 1) * gamma) - (cross.rate + gamma)
        return sigma / denom if denom > 0.0 else math.inf
    if delta == 0.0:
        return fifo_delay(hops, capacity, gamma, cross.rate, sigma)
    r = cross.rate + gamma
    return _sweep_solve(
        [(capacity - k * gamma, r, delta) for k in range(hops)], sigma
    )[0]


# --------------------------------------------------------------------- #
# additive per-node bound: whole-grid evaluation + fast probe
# --------------------------------------------------------------------- #


def additive_delay_grid(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    epsilon: float,
    gammas,
) -> np.ndarray:
    """The node-by-node additive objective
    (:func:`~repro.network.pernode.additive_pernode_delay_bound_at_gamma`)
    over a whole ``gamma`` grid.

    The per-hop decay recursion is gamma-independent (harmonic updates of
    scalar decays), so only the prefactors are carried as arrays.
    """
    g = np.asarray(gammas, dtype=float)
    n = len(g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        service_rate = capacity - cross.rate - g
        ok = service_rate > 0.0
        ok &= np.minimum(through.decay, cross.decay) * g >= 1e-15
        geo_c = -np.expm1(-cross.decay * g)
        cross_m = cross.prefactor / geo_c  # cross sample-path prefactor

        prefactor = np.full(n, through.prefactor)
        decay = through.decay  # scalar: identical across lanes
        rate = through.rate + 0.0 * g
        node_ms: list[np.ndarray] = []
        node_as: list[float] = []
        for _ in range(hops):
            ok &= rate + g <= service_rate
            geo_t = -np.expm1(-decay * g)
            through_m = prefactor / geo_t
            # combine_bounds([through_sp, cross_sp]), Eq. (33) order
            w = 1.0 / decay + 1.0 / cross.decay
            log_m = math.log(w)
            log_m = log_m + np.log(through_m * decay) / (decay * w)
            log_m = log_m + np.log(cross_m * cross.decay) / (cross.decay * w)
            node_m = np.exp(log_m)
            node_a = 1.0 / w
            node_ms.append(node_m)
            node_as.append(node_a)
            prefactor = np.maximum(1.0, node_m)
            decay = node_a
            rate = rate + g

        if hops == 1:  # combine_bounds single-member shortcut
            comb_m, comb_a = node_ms[0], node_as[0]
        else:
            w = 0.0
            for a in node_as:
                w += 1.0 / a
            log_m = math.log(w)
            for m, a in zip(node_ms, node_as):
                log_m = log_m + np.log(m * a) / (a * w)
            comb_m, comb_a = np.exp(log_m), 1.0 / w
        sigma_total = np.maximum(0.0, np.log(comb_m / epsilon) / comb_a)
        delays = np.where(ok, sigma_total / service_rate, np.inf)
    return delays


def _additive_probe(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    epsilon: float,
    gamma: float,
) -> float:
    """Fast scalar mirror of ``additive_pernode_delay_bound_at_gamma``."""
    service_rate = capacity - cross.rate - gamma
    if service_rate <= 0:
        return math.inf
    if min(through.decay, cross.decay) * gamma < 1e-15:
        return math.inf
    geo_c = -math.expm1(-cross.decay * gamma)
    cross_m = cross.prefactor / geo_c

    prefactor, decay, rate = through.prefactor, through.decay, through.rate
    node_ms: list[float] = []
    node_as: list[float] = []
    for _ in range(hops):
        if rate + gamma > service_rate:
            return math.inf
        geo_t = -math.expm1(-decay * gamma)
        through_m = prefactor / geo_t
        w = 1.0 / decay + 1.0 / cross.decay
        log_m = math.log(w)
        log_m += math.log(through_m * decay) / (decay * w)
        log_m += math.log(cross_m * cross.decay) / (cross.decay * w)
        node_m = safe_exp(log_m)
        node_a = 1.0 / w
        node_ms.append(node_m)
        node_as.append(node_a)
        prefactor, decay = max(1.0, node_m), node_a
        rate += gamma

    if hops == 1:
        comb_m, comb_a = node_ms[0], node_as[0]
    else:
        w = 0.0
        for a in node_as:
            w += 1.0 / a
        log_m = math.log(w)
        for m, a in zip(node_ms, node_as):
            log_m += math.log(m * a) / (a * w)
        comb_m, comb_a = safe_exp(log_m), 1.0 / w
    sigma_total = max(0.0, math.log(comb_m / epsilon) / comb_a)
    return sigma_total / service_rate


def optimize_gamma_additive(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    epsilon: float,
    *,
    gamma_grid: int = 48,
) -> tuple[float, float]:
    """Grid-then-refine search for the additive bound's ``gamma``.

    Returns ``(gamma, delay)``.
    """
    with obs.trace("vectorized.optimize_gamma_additive"):
        headroom = capacity - cross.rate - through.rate
        xs = logspace(*_gamma_interval(headroom, hops), gamma_grid)
        fs = additive_delay_grid(
            through, cross, hops, capacity, epsilon, np.asarray(xs)
        )
        return refine_grid_minimum(
            lambda lo, hi: cprobe.additive_golden(
                through, cross, hops, capacity, epsilon, lo, hi
            ),
            xs,
            fs.tolist(),
        )
