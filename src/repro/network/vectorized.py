"""Vectorized (numpy) kernels for the Section IV analytic bounds.

The scalar analysis stack evaluates the free-parameter search of the
end-to-end bounds one probe at a time: for every candidate ``gamma`` (and
``s`` for MMOO workloads) it recomputes ``sigma`` from the combined
bounding functions and solves the theta-optimization of Eq. (38) by
enumerating O(H) breakpoints with O(H) work each — thousands of
interpreter-level evaluations per curve point.  This module evaluates the
same mathematics as array operations:

* :func:`batched_theta_for_x` / :func:`batched_solve_exact` — the Eq. (38)
  case analysis and exact breakpoint minimization over a
  ``(batch, candidates, hops)`` broadcast, so one call solves the
  theta-optimization for a whole ``gamma`` grid at once;
* :func:`batched_sigma_for_epsilon` — the Eq. (33) combination and its
  inversion at ``epsilon`` over a ``gamma`` grid;
* :func:`e2e_delay_grid` / :func:`additive_delay_grid` — whole-grid
  evaluation of the end-to-end and node-by-node objectives, with
  closed-form fast paths for BMUX (Eq. (43)) and FIFO (Eq. (44));
* :func:`optimize_gamma_additive` — the grid-then-refine search of the
  additive bound: one batched grid sweep, then golden-section
  refinement of the argmin bracket driven by cheap scalar probes (the
  end-to-end ``gamma`` search runs in :mod:`repro.network.lanes`);
* :func:`solve_exact_fast` — a drop-in O(H log H) replacement for
  :func:`~repro.network.optimization.solve_exact` built on a slope-sweep
  over the sorted breakpoints (used by the backlog probes, where the
  objective cannot be batched across ``gamma``).

Equivalence contract with the scalar path
-----------------------------------------
Every kernel mirrors the scalar code's floating-point expression trees
(same operations, same association order, sequential hop sums), so grid
values agree with the scalar objective to the last few ulps and the
grid-then-refine search follows the same trajectory as
:func:`repro.utils.numeric.grid_then_golden` except at exact
floating-point ties.  The optimized ``gamma``/``s`` is then re-evaluated
through the *scalar* ``..._at_gamma`` functions, so the numpy backend's
returned bounds match the scalar backend's to well within 1e-9 relative
(the randomized cross-validation suite pins this).  Two deliberate
semantic differences: where the scalar constructors *raise* (a saturated
hop, ``sigma`` underflow) the kernels return ``inf`` for the affected
lanes, matching the infeasible-result convention of the callers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro import obs
from repro.arrivals.ebb import EBB
from repro.network.optimization import (
    _EPS,
    HopParameters,
    ThetaSolution,
    theta_for_x,
)
from repro.utils.numeric import safe_exp
from repro.utils.validation import check_non_negative

__all__ = [
    "batched_theta_for_x",
    "batched_sigma_for_epsilon",
    "batched_solve_exact",
    "e2e_delay_grid",
    "additive_delay_grid",
    "optimize_gamma_additive",
    "solve_exact_fast",
]

#: Relative half-width of the window of near-minimal sweep candidates that
#: are re-evaluated exactly.  Must exceed the slope-sweep's accumulation
#: drift (~H ulps) by a wide margin so the exact re-evaluation always sees
#: the scalar argmin among its candidates.
_SWEEP_WINDOW = 1e-9


# --------------------------------------------------------------------- #
# theta_for_x / solve_exact on arrays
# --------------------------------------------------------------------- #


def batched_theta_for_x(service_rates, cross_rates, deltas, sigmas, xs):
    """Vectorized :func:`~repro.network.optimization.theta_for_x`.

    All arguments broadcast together; the result has the broadcast shape.
    Mirrors the scalar case analysis on ``Delta`` exactly (same
    floating-point expressions), so matching cells agree bitwise up to
    numpy/libm ulp differences.  Saturated cells (``R <= r`` with
    ``Delta > -inf``) are *not* rejected here — callers mask them.
    """
    r_svc = np.asarray(service_rates, dtype=float)
    r_cross = np.asarray(cross_rates, dtype=float)
    delta = np.asarray(deltas, dtype=float)
    sigma = np.asarray(sigmas, dtype=float)
    x = np.asarray(xs, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _theta_kernel(r_svc, r_cross, delta, sigma, x)


def _theta_kernel(r_svc, r_cross, delta, sigma, x):
    """The Eq. (38) per-hop theta, elementwise (no errstate guard)."""
    denom = r_svc - r_cross
    is_ninf = np.isneginf(delta)
    is_pinf = np.isposinf(delta)
    is_le0 = (delta <= 0) & ~is_ninf
    # delta <= 0: min(Delta, theta) = Delta, bracket clipped at zero
    clipped = np.maximum(0.0, x + delta)
    t_le0 = np.maximum(0.0, (sigma + r_cross * clipped) / r_svc - x)
    # 0 < delta < inf: two branches, switch at theta = Delta
    theta_low = (sigma - denom * x) / denom
    theta_high = (sigma + r_cross * (x + delta)) / r_svc - x
    t_mid = np.where(
        theta_low <= delta,
        np.maximum(0.0, theta_low),
        np.maximum(theta_high, delta),
    )
    return np.select(
        [is_ninf, is_pinf, is_le0],
        [
            np.maximum(0.0, sigma / r_svc - x),
            np.maximum(0.0, sigma / denom - x),
            t_le0,
        ],
        t_mid,
    )


def _delta_case(delta: float) -> str:
    """Classify a scalar ``Delta`` into its Eq. (38) case."""
    if math.isinf(delta):
        return "pinf" if delta > 0 else "ninf"
    return "le0" if delta <= 0 else "mid"


def _theta_case_kernel(case, r_svc, r_cross, delta, sigma, x):
    """`_theta_kernel` restricted to one known ``Delta`` case.

    Same floating-point expressions as the matching `np.select` branch of
    :func:`_theta_kernel`; skipping the other branches only avoids work.
    ``case=None`` falls back to the general kernel.
    """
    if case is None:
        return _theta_kernel(r_svc, r_cross, delta, sigma, x)
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
    ``(..., H)``.  Each lane enumerates the same breakpoint candidate set
    as the scalar solver ({0, every positive finite breakpoint, max+1})
    in ascending order and takes the first minimum, so ``x`` matches the
    scalar tie-breaking.  Lanes with a saturated hop (where the scalar
    :class:`HopParameters` constructor raises) or non-finite ``sigma``
    come back with ``delay = inf``.
    """
    r_svc = np.asarray(service_rates, dtype=float)
    shape = r_svc.shape
    if not shape:
        raise ValueError("service_rates must have a trailing hop axis")
    delta_in = np.asarray(deltas, dtype=float)
    # scalar delta fixes the Eq. (38) case for every cell: skip the other
    # branches entirely (the expressions are the same, so results match
    # the general path bitwise).  Callers batching many lanes of a shared
    # case but varying delta (the cross-cell EDF fixed point) pass `case`
    # explicitly.
    if case is None:
        case = _delta_case(float(delta_in)) if delta_in.ndim == 0 else None
    r_cross = np.broadcast_to(np.asarray(cross_rates, dtype=float), shape)
    delta = np.broadcast_to(delta_in, shape)
    sigma = np.broadcast_to(
        np.asarray(sigmas, dtype=float), shape[:-1]
    ).astype(float, copy=False)
    lanes = int(np.prod(shape[:-1], dtype=int)) if shape[:-1] else 1
    hops = shape[-1]
    r_svc = r_svc.reshape(lanes, hops)
    r_cross = r_cross.reshape(lanes, hops)
    delta = delta.reshape(lanes, hops)
    sig = sigma.reshape(lanes)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        sig1 = sig[:, None]
        denom = r_svc - r_cross
        is_ninf = np.isneginf(delta)
        if case == "ninf":
            bp = (sig1 / r_svc)[:, :, None]
        elif case == "pinf":
            bp = (sig1 / denom)[:, :, None]
        elif case == "le0":
            bp = np.stack(
                [-delta, sig1 / r_svc, (sig1 + r_cross * delta) / denom],
                axis=-1,
            )
        elif case == "mid":
            bp = np.stack(
                [
                    sig1 / denom,
                    sig1 / denom - delta,
                    (sig1 + r_cross * (0.0 + delta)) / r_svc,
                ],
                axis=-1,
            )
        else:
            is_pinf = np.isposinf(delta)
            is_le0 = (delta <= 0) & ~is_ninf
            is_mid = (delta > 0) & ~is_pinf
            # the scalar _breakpoints_for_hop set, (lanes, hops, 3)
            bp = np.full((lanes, hops, 3), np.nan)
            bp[..., 0] = np.select(
                [is_ninf, is_pinf, is_le0, is_mid],
                [sig1 / r_svc, sig1 / denom, -delta, sig1 / denom],
                np.nan,
            )
            bp[..., 1] = np.select(
                [is_le0, is_mid], [sig1 / r_svc, sig1 / denom - delta], np.nan
            )
            bp[..., 2] = np.select(
                [is_le0, is_mid],
                [
                    (sig1 + r_cross * delta) / denom,
                    (sig1 + r_cross * (0.0 + delta)) / r_svc,
                ],
                np.nan,
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

        saturated = ((r_svc <= r_cross + _EPS) & ~is_ninf) | (r_svc <= 0.0)
        bad = saturated.any(axis=1) | ~np.isfinite(sig) | (sig < 0.0)
        delay = np.where(bad, np.inf, delay)

    if obs.enabled():
        obs.add("vectorized.solve_batches")
        obs.add("vectorized.solve_lanes", lanes)
        obs.add("vectorized.solve_saturated_lanes", int(bad.sum()))
        obs.set_gauge("vectorized.solve_batch_shape", list(shape))
    return (
        delay.reshape(shape[:-1]),
        x_best.reshape(shape[:-1]),
        thetas.reshape(shape),
    )


# --------------------------------------------------------------------- #
# sigma over a gamma grid
# --------------------------------------------------------------------- #


def batched_sigma_for_epsilon(
    through: EBB, cross: EBB, hops: int, gammas, epsilon: float
) -> np.ndarray:
    """Vectorized :func:`~repro.network.e2e.sigma_for_epsilon` for the
    homogeneous case (``cross`` applies at every one of ``hops`` nodes).

    Lanes whose geometric factor underflows (where the scalar
    ``sample_path_bound`` raises) come back as ``inf``.
    """
    g = np.asarray(gammas, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        geo_t = -np.expm1(-through.decay * g)
        geo_c = -np.expm1(-cross.decay * g)
        # Eq. (33): w accumulated in the scalar bound-list order
        w = 1.0 / through.decay
        for _ in range(hops):
            w += 1.0 / cross.decay
        log_m = math.log(w) + np.log(
            (through.prefactor / geo_t) * through.decay
        ) / (through.decay * w)
        last = cross.prefactor / geo_c
        inflated = last / geo_c
        term_inflated = np.log(inflated * cross.decay) / (cross.decay * w)
        for _ in range(hops - 1):
            log_m = log_m + term_inflated
        log_m = log_m + np.log(last * cross.decay) / (cross.decay * w)
        prefactor = np.exp(log_m)
        alpha = 1.0 / w
        sigma = np.maximum(0.0, np.log(prefactor / epsilon) / alpha)
        sigma = np.where((geo_t <= 0.0) | (geo_c <= 0.0), np.inf, sigma)
    return sigma


def _sigma_fast(
    through: EBB, cross: EBB, hops: int, gamma: float, epsilon: float
) -> float:
    """Scalar mirror of :func:`batched_sigma_for_epsilon` (``inf`` on
    underflow), bitwise-equal to the scalar ``sigma_for_epsilon`` chain."""
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
    return max(0.0, math.log(prefactor / epsilon) / alpha)


# --------------------------------------------------------------------- #
# slope-sweep exact solve (scalar fast path)
# --------------------------------------------------------------------- #


def _hop_objective(hops_rrd, sigma: float, x: float) -> float:
    """``d(X) = X + sum_h theta_h(X)`` — bitwise mirror of the scalar
    ``solve_exact`` objective (sequential sum, same per-hop formulas)."""
    total = 0.0
    for r_svc, r_cross, delta in hops_rrd:
        if delta == -math.inf:
            total += max(0.0, sigma / r_svc - x)
        elif delta == math.inf:
            total += max(0.0, sigma / (r_svc - r_cross) - x)
        elif delta <= 0:
            clipped = max(0.0, x + delta)
            total += max(0.0, (sigma + r_cross * clipped) / r_svc - x)
        else:
            denom = r_svc - r_cross
            theta_low = (sigma - denom * x) / denom
            if theta_low <= delta:
                total += max(0.0, theta_low)
            else:
                total += max((sigma + r_cross * (x + delta)) / r_svc - x, delta)
    return x + total


def _sweep_solve(hops_rrd, sigma: float) -> tuple[float, float]:
    """Exact min of the piecewise-linear ``d(X)`` in O(H log H).

    Builds the slope-change events of every hop, sweeps the sorted
    breakpoints accumulating ``d``, then re-evaluates the near-minimal
    candidates exactly (ascending, strict ``<``) so the returned
    ``(delay, x)`` reproduces the scalar solver's value *and* argmin
    tie-breaking.  Returns ``(inf, 0.0)`` for a saturated hop, where the
    scalar path raises instead.
    """
    events: list[tuple[float, float]] = []
    d0 = 0.0
    slope = 1.0
    for r_svc, r_cross, delta in hops_rrd:
        if delta == -math.inf:
            k1 = sigma / r_svc
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
        elif delta == math.inf:
            denom = r_svc - r_cross
            if denom <= 0.0:
                return math.inf, 0.0
            k1 = sigma / denom
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
        elif delta <= 0:
            a = -delta
            k1 = sigma / r_svc
            denom = r_svc - r_cross
            if k1 <= 0.0:
                continue
            if k1 < a:
                # theta dies before the cross bracket activates
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
                # non-kink scalar candidates, kept for tie parity
                events.append((a, 0.0))
                if denom > 0.0:
                    k2 = (sigma + r_cross * delta) / denom
                    if k2 > 0.0 and math.isfinite(k2):
                        events.append((k2, 0.0))
            else:
                if denom <= 0.0:
                    return math.inf, 0.0
                ratio = r_cross / r_svc
                k2 = (sigma + r_cross * delta) / denom
                d0 += k1
                if a > 0.0:
                    slope -= 1.0
                    events.append((a, ratio))
                    events.append((k2, 1.0 - ratio))
                else:
                    slope += ratio - 1.0
                    if k2 > 0.0:
                        events.append((k2, 1.0 - ratio))
                events.append((k1, 0.0))  # non-kink scalar candidate
        else:
            denom = r_svc - r_cross
            if denom <= 0.0:
                return math.inf, 0.0
            z = sigma / denom
            if z <= 0.0:
                continue
            ratio = r_cross / r_svc
            bp = z - delta
            aux = (sigma + r_cross * (0.0 + delta)) / r_svc
            if bp <= 0.0:
                d0 += z
                slope -= 1.0
                events.append((z, 1.0))
            else:
                d0 += (sigma + r_cross * delta) / r_svc
                slope += ratio - 1.0
                events.append((bp, -ratio))
                events.append((z, 1.0))
            if aux > 0.0 and math.isfinite(aux):
                events.append((aux, 0.0))  # non-kink scalar candidate

    events.sort()
    candidates: list[tuple[float, float]] = [(0.0, d0)]
    acc = d0
    acc_min = d0
    cur = slope
    prev = 0.0
    for x, change in events:
        acc += cur * (x - prev)
        prev = x
        candidates.append((x, acc))
        if acc < acc_min:
            acc_min = acc
        cur += change

    window = acc_min + _SWEEP_WINDOW * max(1.0, abs(acc_min))
    best_d = math.inf
    best_x = 0.0
    for x, acc in candidates:
        if acc <= window:
            d = _hop_objective(hops_rrd, sigma, x)
            if d < best_d:
                best_d, best_x = d, x
    return best_d, best_x


def _objective_homogeneous(
    capacity: float,
    r: float,
    delta: float,
    sigma: float,
    hops: int,
    gamma: float,
    x: float,
) -> float:
    """:func:`_hop_objective` on a homogeneous path (same expressions,
    case dispatch hoisted out of the hop loop)."""
    total = 0.0
    if delta == -math.inf:
        for k in range(hops):
            t = sigma / (capacity - k * gamma) - x
            if t > 0.0:
                total += t
    elif delta == math.inf:
        for k in range(hops):
            t = sigma / ((capacity - k * gamma) - r) - x
            if t > 0.0:
                total += t
    elif delta <= 0:
        clipped = x + delta
        if clipped < 0.0:
            clipped = 0.0
        numerator = sigma + r * clipped
        for k in range(hops):
            t = numerator / (capacity - k * gamma) - x
            if t > 0.0:
                total += t
    else:
        for k in range(hops):
            r_svc = capacity - k * gamma
            denom = r_svc - r
            theta_low = (sigma - denom * x) / denom
            if theta_low <= delta:
                if theta_low > 0.0:
                    total += theta_low
            else:
                t = (sigma + r * (x + delta)) / r_svc - x
                total += t if t > delta else delta
    return x + total


def _sweep_homogeneous(
    capacity: float,
    r: float,
    delta: float,
    sigma: float,
    hops: int,
    gamma: float,
) -> tuple[float, float]:
    """:func:`_sweep_solve` on a homogeneous path.

    Generates the identical event multiset (``r_svc = capacity - k gamma``,
    shared ``r``/``delta``), so the candidate accumulation, window and
    re-evaluation reproduce the general sweep bitwise — the per-hop case
    dispatch and triple construction are just hoisted out of the hot
    per-probe loop.
    """
    events: list[tuple[float, float]] = []
    d0 = 0.0
    slope = 1.0
    if delta == -math.inf:
        for k in range(hops):
            k1 = sigma / (capacity - k * gamma)
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
    elif delta == math.inf:
        for k in range(hops):
            denom = (capacity - k * gamma) - r
            if denom <= 0.0:
                return math.inf, 0.0
            k1 = sigma / denom
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
    elif delta <= 0:
        a = -delta
        for k in range(hops):
            r_svc = capacity - k * gamma
            k1 = sigma / r_svc
            denom = r_svc - r
            if k1 <= 0.0:
                continue
            if k1 < a:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
                events.append((a, 0.0))
                if denom > 0.0:
                    k2 = (sigma + r * delta) / denom
                    if k2 > 0.0 and math.isfinite(k2):
                        events.append((k2, 0.0))
            else:
                if denom <= 0.0:
                    return math.inf, 0.0
                ratio = r / r_svc
                k2 = (sigma + r * delta) / denom
                d0 += k1
                if a > 0.0:
                    slope -= 1.0
                    events.append((a, ratio))
                    events.append((k2, 1.0 - ratio))
                else:
                    slope += ratio - 1.0
                    if k2 > 0.0:
                        events.append((k2, 1.0 - ratio))
                events.append((k1, 0.0))
    else:
        for k in range(hops):
            r_svc = capacity - k * gamma
            denom = r_svc - r
            if denom <= 0.0:
                return math.inf, 0.0
            z = sigma / denom
            if z <= 0.0:
                continue
            ratio = r / r_svc
            bp = z - delta
            aux = (sigma + r * (0.0 + delta)) / r_svc
            if bp <= 0.0:
                d0 += z
                slope -= 1.0
                events.append((z, 1.0))
            else:
                d0 += (sigma + r * delta) / r_svc
                slope += ratio - 1.0
                events.append((bp, -ratio))
                events.append((z, 1.0))
            if aux > 0.0 and math.isfinite(aux):
                events.append((aux, 0.0))

    events.sort()
    acc = d0
    acc_min = d0
    cur = slope
    prev = 0.0
    candidates: list[tuple[float, float]] = [(0.0, d0)]
    for x, change in events:
        acc += cur * (x - prev)
        prev = x
        candidates.append((x, acc))
        if acc < acc_min:
            acc_min = acc
        cur += change

    window = acc_min + _SWEEP_WINDOW * max(1.0, abs(acc_min))
    best_d = math.inf
    best_x = 0.0
    for x, acc in candidates:
        if acc <= window:
            d = _objective_homogeneous(capacity, r, delta, sigma, hops, gamma, x)
            if d < best_d:
                best_d, best_x = d, x
    return best_d, best_x


def solve_exact_fast(
    hop_params: Sequence[HopParameters], sigma: float
) -> ThetaSolution:
    """O(H log H) drop-in for :func:`~repro.network.optimization.solve_exact`.

    Same candidate set, same objective arithmetic, same first-minimum
    tie-breaking — validated value- and argmin-equal in the test suite —
    but via a slope sweep instead of the O(H^2) candidate enumeration.
    """
    check_non_negative(sigma, "sigma")
    hops = list(hop_params)
    if not hops:
        raise ValueError("need at least one hop")
    triples = [(h.service_rate, h.cross_rate, h.delta) for h in hops]
    delay, x_best = _sweep_solve(triples, sigma)
    thetas = tuple(theta_for_x(hop, sigma, x_best) for hop in hops)
    return ThetaSolution(delay, x_best, thetas)


# --------------------------------------------------------------------- #
# end-to-end delay: whole-grid evaluation + fast probes
# --------------------------------------------------------------------- #


def _fifo_closed_form(
    hops: int, capacity: float, rho_cross: float, gamma: float, sigma: float
) -> float:
    """Scalar Eq. (44) mirror of :func:`~repro.network.optimization.fifo_delay`."""
    r = rho_cross + gamma
    tails = [0.0] * (hops + 1)
    for k in range(hops - 1, -1, -1):
        r_svc = capacity - k * gamma
        tails[k] = tails[k + 1] + (r_svc - r) / r_svc
    k = next((kk for kk in range(hops + 1) if tails[kk] < 1.0), hops)
    if k == 0:
        return sum(
            sigma / (capacity - (h - 1) * gamma) for h in range(1, hops + 1)
        )
    denom = capacity - rho_cross - k * gamma
    if denom <= 0:
        return math.inf
    x = sigma / denom
    total = x
    for h in range(k + 1, hops + 1):
        total += (h - k) * gamma * x / (capacity - (h - 1) * gamma)
    return total


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
    over a whole ``gamma`` grid, as one batch of array operations.

    Infeasible lanes (Eq. (32) violated, ``sigma`` underflow) are ``inf``,
    matching the scalar ``_INFEASIBLE`` convention.  BMUX and FIFO take
    the closed forms Eq. (43)/(44); other ``Delta`` go through
    :func:`batched_solve_exact`.
    """
    g = np.asarray(gammas, dtype=float)
    feasible = (hops + 1) * g < capacity - cross.rate - through.rate
    sigma = batched_sigma_for_epsilon(through, cross, hops, g, epsilon)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if delta == math.inf:
            # Eq. (43): d = sigma / (R_H - r), flat-segment value of the
            # exact breakpoint minimum
            denom = (capacity - (hops - 1) * g) - (cross.rate + g)
            delays = np.where(denom > 0.0, sigma / denom, np.inf)
        elif delta == 0.0:
            delays = _fifo_grid(hops, capacity, cross.rate, g, sigma)
        else:
            h_index = np.arange(hops, dtype=float)
            r_svc = capacity - h_index[None, :] * g[..., None]
            r_cross = (cross.rate + g)[..., None]
            delays, _, _ = batched_solve_exact(r_svc, r_cross, delta, sigma)
        delays = np.where(feasible & np.isfinite(sigma), delays, np.inf)
    if obs.enabled():
        obs.add("vectorized.grid_points", int(g.size))
        obs.add("vectorized.grid_infeasible", int(np.isinf(delays).sum()))
    return delays


def _fifo_grid(
    hops: int, capacity: float, rho_cross: float, g: np.ndarray, sigma
) -> np.ndarray:
    """Eq. (44) over a gamma grid (vector mirror of ``fifo_delay``)."""
    h = np.arange(1, hops + 1, dtype=float)  # (H,)
    r_svc = capacity - (h - 1.0) * g[:, None]  # (G, H)
    r = (rho_cross + g)[:, None]
    terms = (r_svc - r) / r_svc
    tails = np.zeros((len(g), hops + 1))
    tails[:, :-1] = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]
    k = np.argmax(tails < 1.0, axis=1)  # first K with tail < 1
    denom = capacity - rho_cross - k * g
    x = sigma / denom
    beyond = h[None, :] > k[:, None]
    contrib = np.where(
        beyond, (h[None, :] - k[:, None]) * g[:, None] * x[:, None] / r_svc, 0.0
    )
    total = x + contrib.sum(axis=1)
    total_k0 = (sigma[:, None] / r_svc).sum(axis=1)
    delays = np.where(k == 0, total_k0, total)
    return np.where(denom > 0.0, delays, np.inf)


def e2e_delay_grid_rows(
    throughs: Sequence[EBB],
    crosses: Sequence[EBB],
    hops: int,
    capacity: float,
    deltas: Sequence[float],
    epsilon: float,
    gammas,
) -> np.ndarray:
    """Row-stacked :func:`e2e_delay_grid`: many lanes, one array program.

    Row ``i`` of the ``(lanes, grid)`` result equals
    ``e2e_delay_grid(throughs[i], crosses[i], hops, capacity, deltas[i],
    epsilon, gammas[i])`` bitwise: every kernel expression is elementwise
    (or row-local, for the candidate solves), so stacking lanes into
    taller arrays evaluates the identical IEEE sequence per row.  All
    ``deltas`` must fall in the same Eq. (38) case (the batch planner
    groups lanes accordingly); ``hops``, ``capacity`` and ``epsilon`` are
    shared across the stack.
    """
    g = np.asarray(gammas, dtype=float)
    if g.ndim != 2:
        raise ValueError("gammas must be (lanes, grid)")
    lanes, grid = g.shape
    delta_row = np.asarray(deltas, dtype=float)
    case = _delta_case(float(delta_row[0]))
    if any(_delta_case(float(d)) != case for d in delta_row[1:]):
        raise ValueError("all deltas must share one Eq. (38) case")
    tp = np.array([t.prefactor for t in throughs])[:, None]
    td = np.array([t.decay for t in throughs])[:, None]
    tr = np.array([t.rate for t in throughs])[:, None]
    cp = np.array([c.prefactor for c in crosses])[:, None]
    cd = np.array([c.decay for c in crosses])[:, None]
    cr = np.array([c.rate for c in crosses])[:, None]

    feasible = (hops + 1) * g < (capacity - cr) - tr
    # sigma: batched_sigma_for_epsilon with per-row EBB constants.  The
    # scalar `w` accumulation stays a scalar loop per row (same floats).
    w_rows = np.empty((lanes, 1))
    for i, (t, c) in enumerate(zip(throughs, crosses)):
        w = 1.0 / t.decay
        for _ in range(hops):
            w += 1.0 / c.decay
        w_rows[i, 0] = w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        geo_t = -np.expm1(-td * g)
        geo_c = -np.expm1(-cd * g)
        log_m = np.log(w_rows) + np.log((tp / geo_t) * td) / (td * w_rows)
        last = cp / geo_c
        inflated = last / geo_c
        term_inflated = np.log(inflated * cd) / (cd * w_rows)
        for _ in range(hops - 1):
            log_m = log_m + term_inflated
        log_m = log_m + np.log(last * cd) / (cd * w_rows)
        prefactor = np.exp(log_m)
        alpha = 1.0 / w_rows
        sigma = np.maximum(0.0, np.log(prefactor / epsilon) / alpha)
        sigma = np.where((geo_t <= 0.0) | (geo_c <= 0.0), np.inf, sigma)

        any_zero = bool(np.any(delta_row == 0.0))
        if any_zero and not np.all(delta_row == 0.0):
            # the scalar path dispatches delta == 0 to the Eq. (44)
            # closed form; mixing it with the exact solve would break
            # the bitwise contract for the zero rows
            raise ValueError("cannot mix delta == 0 with other deltas")
        if case == "pinf":
            denom = (capacity - (hops - 1) * g) - (cr + g)
            delays = np.where(denom > 0.0, sigma / denom, np.inf)
        elif any_zero:
            delays = _fifo_grid(
                hops,
                capacity,
                np.repeat(cr[:, 0], grid),
                g.reshape(lanes * grid),
                sigma.reshape(lanes * grid),
            ).reshape(lanes, grid)
        else:
            h_index = np.arange(hops, dtype=float)
            g_flat = g.reshape(lanes * grid)
            r_svc = capacity - h_index[None, :] * g_flat[:, None]
            r_cross = (cr + g).reshape(lanes * grid)[:, None]
            d_flat = np.repeat(delta_row, grid)[:, None]
            delays, _, _ = batched_solve_exact(
                r_svc,
                r_cross,
                np.broadcast_to(d_flat, r_svc.shape),
                sigma.reshape(lanes * grid),
                case=case,
            )
            delays = delays.reshape(lanes, grid)
        delays = np.where(feasible & np.isfinite(sigma), delays, np.inf)
    if obs.enabled():
        obs.add("vectorized.grid_row_calls")
        obs.add("vectorized.grid_row_lanes", lanes)
        obs.add("vectorized.grid_points", int(g.size))
    return delays


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
    sigma = _sigma_fast(through, cross, hops, gamma, epsilon)
    if not math.isfinite(sigma):
        return math.inf
    if delta == math.inf:
        denom = (capacity - (hops - 1) * gamma) - (cross.rate + gamma)
        return sigma / denom if denom > 0.0 else math.inf
    if delta == 0.0:
        return _fifo_closed_form(hops, capacity, cross.rate, gamma, sigma)
    r = cross.rate + gamma
    return _sweep_homogeneous(capacity, r, delta, sigma, hops, gamma)[0]


def _log_grid(low: float, high: float, points: int) -> list[float]:
    """The log-spaced grid of ``grid_then_golden``, same floats."""
    ratio = (high / low) ** (1.0 / (points - 1))
    return [low * ratio**i for i in range(points)]


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
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Grid-then-refine search for the additive bound's ``gamma``.

    Returns ``(gamma, delay)``.
    """
    from repro.utils.numeric import refine_grid_minimum

    with obs.trace("vectorized.optimize_gamma_additive"):
        headroom = capacity - cross.rate - through.rate
        gamma_max = headroom / (hops + 1)
        xs = _log_grid(gamma_max * 1e-6, gamma_max * (1.0 - 1e-9), gamma_grid)
        fs = additive_delay_grid(
            through, cross, hops, capacity, epsilon, np.asarray(xs)
        )
        return refine_grid_minimum(
            lambda g: _additive_probe(
                through, cross, hops, capacity, epsilon, g
            ),
            xs,
            fs.tolist(),
            tol=tol,
        )
