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
from repro.network.vectorized import _e2e_probe, _log_grid, e2e_delay_grid
from repro.utils.numeric import grid_then_golden, refine_grid_minimum
from repro.utils.validation import check_int, check_positive, check_probability

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
    xs = _log_grid(gamma_max * 1e-6, gamma_max * (1.0 - 1e-9), gamma_grid)
    fs = e2e_delay_grid(
        through, cross, hops, capacity, delta, epsilon, np.asarray(xs)
    )
    return refine_grid_minimum(
        lambda g: _e2e_probe(through, cross, hops, capacity, delta, epsilon, g),
        xs,
        fs.tolist(),
        tol=tol,
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
