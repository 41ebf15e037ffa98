"""Reference per-cell (s, gamma) search: a test-only oracle.

The production bound solver runs every MMOO search through the lane
engine of :mod:`repro.network.lanes`; the per-cell entry points of
:mod:`repro.network.e2e` are one-lane calls into it.  This module keeps
the straightforward nested search the engine replaced — golden-section
``s`` search over a grid-then-golden ``gamma`` search, and the damped EDF
deadline loop around it — so tests and the speedup benchmarks have an
independent reference:

* ``backend="numpy"``: the ``gamma`` grid through
  :func:`~repro.network.vectorized.e2e_delay_grid`, refined by golden
  section over :func:`~repro.network.vectorized._e2e_probe`; the engine
  must reproduce these results bitwise;
* ``backend="scalar"``: every ``gamma`` probe through the exact scalar
  objective :func:`~repro.network.e2e.e2e_delay_bound_at_gamma`; the
  engine's compiled probes differ from it in the last bits, so results
  agree to 1e-9 relative.

It also keeps the breakpoint enumeration that the O(H log H) slope
sweep of :func:`repro.network.optimization.solve_exact` replaced,
:func:`solve_exact_enumerated`, as that solver's bitwise oracle.

Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

import math
import time
import warnings
from typing import Literal

import numpy as np

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network.e2e import (
    _INFEASIBLE,
    E2EResult,
    EDFBound,
    FixedPointDiagnostics,
    FixedPointError,
    _max_feasible_s,
    check_backend,
    e2e_delay_bound_at_gamma,
    mmoo_ebb_pair,
)
from repro.network.optimization import (
    HopParameters,
    ThetaSolution,
    theta_for_x,
)
from repro.network.vectorized import _e2e_probe, e2e_delay_grid
from repro.utils.numeric import (
    golden_section_min,
    grid_then_golden,
    logspace,
    refine_grid_minimum,
)
from repro.utils.validation import (
    check_int,
    check_non_negative,
    check_positive,
    check_probability,
)

Method = Literal["exact", "paper"]


def optimize_gamma_e2e(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    *,
    gamma_grid: int = 48,
    tol: float = 1e-9,
) -> tuple[float, float]:
    """Grid-then-refine ``gamma`` search: one batched grid sweep, then a
    golden-section refinement of the argmin bracket over the probe."""
    headroom = capacity - cross.rate - through.rate
    gamma_max = headroom / (hops + 1)
    xs = logspace(gamma_max * 1e-6, gamma_max * (1.0 - 1e-9), gamma_grid)
    fs = e2e_delay_grid(
        through, cross, hops, capacity, delta, epsilon, np.asarray(xs)
    )
    return refine_grid_minimum(
        lambda lo, hi: golden_section_min(
            lambda g: _e2e_probe(
                through, cross, hops, capacity, delta, epsilon, g
            ),
            lo,
            hi,
            tol=tol,
        ),
        xs,
        fs.tolist(),
    )


def e2e_delay_bound(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    *,
    method: Method = "exact",
    gamma_grid: int = 48,
    backend: str = "numpy",
) -> E2EResult:
    """The ``gamma``-optimized EBB bound (numpy or scalar search)."""
    check_backend(backend)
    hops = check_int(hops, "hops", minimum=1)
    check_positive(capacity, "capacity")
    headroom = capacity - cross.rate - through.rate
    if headroom <= 0:
        return _INFEASIBLE

    if backend == "numpy" and method == "exact":
        g_best, _ = optimize_gamma_e2e(
            through, cross, hops, capacity, delta, epsilon,
            gamma_grid=gamma_grid,
        )
        return e2e_delay_bound_at_gamma(
            through, cross, hops, capacity, delta, epsilon, g_best,
            method=method,
        )

    gamma_max = headroom / (hops + 1)

    def objective(g: float) -> float:
        return e2e_delay_bound_at_gamma(
            through, cross, hops, capacity, delta, epsilon, g, method=method
        ).delay

    g_best, _ = grid_then_golden(
        objective, gamma_max * 1e-6, gamma_max * (1.0 - 1e-9),
        grid_points=gamma_grid, log_spaced=True,
    )
    return e2e_delay_bound_at_gamma(
        through, cross, hops, capacity, delta, epsilon, g_best, method=method
    )


def e2e_delay_bound_mmoo(
    traffic: MMOOParameters,
    n_through: int,
    n_cross: int,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    *,
    method: Method = "exact",
    s_grid: int = 24,
    gamma_grid: int = 24,
    backend: str = "numpy",
) -> E2EResult:
    """The joint (s, gamma) search: grid-then-golden over ``s``, a full
    ``gamma`` search per ``s`` probe."""
    check_backend(backend)
    n_through = check_int(n_through, "n_through", minimum=1)
    n_cross = check_int(n_cross, "n_cross", minimum=0)
    check_positive(capacity, "capacity")
    if (n_through + n_cross) * traffic.mean_rate >= capacity:
        return _INFEASIBLE
    s_max = _max_feasible_s(traffic, n_through + max(n_cross, 1), capacity)

    def at_s(s: float) -> E2EResult:
        through, cross = mmoo_ebb_pair(traffic, n_through, n_cross, s)
        return e2e_delay_bound(
            through, cross, hops, capacity, delta, epsilon,
            method=method, gamma_grid=gamma_grid, backend=backend,
        )

    if backend == "numpy" and method == "exact":
        # delay-only objective: the gamma search plus one probe at its
        # optimum; only the final s is materialized through at_s
        def objective(s: float) -> float:
            through, cross = mmoo_ebb_pair(traffic, n_through, n_cross, s)
            if capacity - cross.rate - through.rate <= 0:
                return math.inf
            hops_int = check_int(hops, "hops", minimum=1)
            g_best, _ = optimize_gamma_e2e(
                through, cross, hops_int, capacity, delta, epsilon,
                gamma_grid=gamma_grid,
            )
            return _e2e_probe(
                through, cross, hops_int, capacity, delta, epsilon, g_best
            )

    else:

        def objective(s: float) -> float:
            return at_s(s).delay

    s_best, _ = grid_then_golden(
        objective, s_max * 1e-4, s_max * (1.0 - 1e-9),
        grid_points=s_grid, log_spaced=True,
    )
    return at_s(s_best)


def e2e_delay_bound_edf(
    traffic: MMOOParameters,
    n_through: int,
    n_cross: int,
    hops: int,
    capacity: float,
    epsilon: float,
    *,
    deadline_weight_through: float = 1.0,
    deadline_weight_cross: float = 10.0,
    method: Method = "exact",
    tol: float = 1e-4,
    max_iter: int = 40,
    s_grid: int = 24,
    gamma_grid: int = 24,
    backend: str = "numpy",
    on_nonconvergence: Literal["warn", "raise", "ignore"] = "warn",
) -> EDFBound:
    """EDF bound by damped fixed-point iteration from the FIFO bound."""
    check_probability(epsilon, "epsilon")
    check_positive(deadline_weight_through, "deadline_weight_through")
    check_positive(deadline_weight_cross, "deadline_weight_cross")
    if on_nonconvergence not in ("warn", "raise", "ignore"):
        raise ValueError(f"bad on_nonconvergence {on_nonconvergence!r}")
    start = time.perf_counter()

    def bound_at(delta: float) -> E2EResult:
        return e2e_delay_bound_mmoo(
            traffic, n_through, n_cross, hops, capacity, delta, epsilon,
            method=method, s_grid=s_grid, gamma_grid=gamma_grid,
            backend=backend,
        )

    def done(result, delta, iterations, residual, converged) -> EDFBound:
        return EDFBound(
            result=result,
            delta=delta,
            diagnostics=FixedPointDiagnostics(
                iterations=iterations,
                residual=residual,
                converged=converged,
                wall_time_s=time.perf_counter() - start,
            ),
        )

    weight_gap = deadline_weight_through - deadline_weight_cross
    current = bound_at(0.0)  # FIFO start
    if not current.feasible:
        return done(current, 0.0, 0, 0.0, True)
    delta = weight_gap * current.delay / hops
    residual = math.inf
    for iteration in range(1, max_iter + 1):
        result = bound_at(delta)
        if not result.feasible:
            return done(result, delta, iteration, 0.0, True)
        new_delta = weight_gap * result.delay / hops
        step = abs(new_delta - delta)
        scale = max(1.0, abs(delta))
        residual = step / scale
        if step <= tol * scale:
            return done(result, new_delta, iteration, residual, True)
        delta = 0.5 * (delta + new_delta)  # damping
    message = (
        f"EDF deadline fixed point did not converge in {max_iter} "
        f"iterations: relative residual {residual:.3g} > tol {tol:g}"
    )
    if on_nonconvergence == "raise":
        raise FixedPointError(message)
    if on_nonconvergence == "warn":
        warnings.warn(message, RuntimeWarning, stacklevel=2)
    return done(result, delta, max_iter, residual, False)


# --------------------------------------------------------------------- #
# Eq. (38) by breakpoint enumeration
# --------------------------------------------------------------------- #


def _breakpoints_for_hop(hop: HopParameters, sigma: float) -> list[float]:
    """X-values where ``theta_h(X)`` changes slope (region boundaries)."""
    r_svc, r_cross, delta = hop.service_rate, hop.cross_rate, hop.delta
    points: list[float] = []
    if delta == -math.inf:
        points.append(sigma / r_svc)
    elif delta == math.inf:
        points.append(sigma / (r_svc - r_cross))
    elif delta <= 0:
        points.append(-delta)  # [X + Delta]_+ kink
        points.append(sigma / r_svc)  # theta -> 0 in the clipped region
        denom = r_svc - r_cross
        points.append((sigma + r_cross * delta) / denom)  # theta -> 0, unclipped
    else:
        denom = r_svc - r_cross
        points.append(sigma / denom)  # theta -> 0
        points.append(sigma / denom - delta)  # branch switch at theta = Delta
        points.append((sigma + r_cross * (0.0 + delta)) / r_svc)  # aux
    return [p for p in points if p > 0 and math.isfinite(p)]


def _minimize_piecewise_linear(
    func, breakpoints, *, lower: float = 0.0, upper: float | None = None
) -> tuple[float, float]:
    """Exactly minimize a piecewise-linear ``func`` given its breakpoints:
    evaluate every candidate in ``[lower, upper]`` ascending, keep the
    first minimum."""
    candidates = {lower}
    if upper is not None:
        candidates.add(upper)
    for point in breakpoints:
        if not math.isfinite(point):
            continue
        if point < lower:
            continue
        if upper is not None and point > upper:
            continue
        candidates.add(point)
    best_x = lower
    best_f = math.inf
    for x in sorted(candidates):
        f = func(x)
        if f < best_f:
            best_x, best_f = x, f
    return best_x, best_f


def solve_exact_enumerated(
    hop_params: list[HopParameters], sigma: float
) -> ThetaSolution:
    """Eq. (38)-(39) by enumeration: ``d(X) = X + sum_h theta_h(X)`` at
    every region breakpoint, O(H) candidates of O(H) work each.

    The hops are summed in order, as ``sum()`` did through Python 3.11;
    from 3.12 on ``sum()`` compensates, which would move the last bits.
    """
    check_non_negative(sigma, "sigma")
    hops = list(hop_params)
    if not hops:
        raise ValueError("need at least one hop")

    def objective(x: float) -> float:
        total = 0.0
        for hop in hops:
            total += theta_for_x(hop, sigma, x)
        return x + total

    # sort + dedupe: hops sharing rates produce identical breakpoints, and
    # each duplicate would cost a redundant O(H) objective evaluation
    breakpoints: set[float] = set()
    for hop in hops:
        breakpoints.update(_breakpoints_for_hop(hop, sigma))
    ordered = sorted(breakpoints)
    upper = (ordered[-1] if ordered else 0.0) + 1.0
    x_best, d_best = _minimize_piecewise_linear(
        objective, ordered, lower=0.0, upper=upper
    )
    thetas = tuple(theta_for_x(hop, sigma, x_best) for hop in hops)
    return ThetaSolution(d_best, x_best, thetas)
