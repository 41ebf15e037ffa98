"""Scalar numeric optimization helpers.

The end-to-end delay bound of Section IV is minimized numerically over the
per-hop rate degradation ``gamma`` and the EBB envelope parameter ``alpha``
(the paper: "Since there is no explicit term for gamma, we optimize
numerically over gamma").  The objective is smooth but expensive, and we do
not need high-order methods: a coarse grid scan followed by golden-section
refinement around the best grid cell is robust and derivative-free.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Sequence

from repro import obs

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # ~0.618

#: Largest exponent ``math.exp`` accepts without overflowing a double
#: (``log(sys.float_info.max)`` ~ 709.78).
EXP_OVERFLOW = math.log(sys.float_info.max)


def safe_exp(exponent: float) -> float:
    """Overflow-safe ``math.exp``: saturates to ``inf`` instead of raising.

    Below the overflow knee this is exactly ``math.exp`` (bitwise —
    underflow to 0.0 included); at ``exponent > EXP_OVERFLOW`` it
    returns ``inf`` where ``math.exp`` would raise :class:`OverflowError`.
    A saturated exponent means the bound (or likelihood ratio) being
    computed is vacuous, and ``inf`` propagates that honestly through
    the surrounding min/argmin searches.  Hot kernels must route every
    unbounded exponent through this helper — enforced by lint rule
    RPR006 (``python -m repro.lint --explain RPR006``).
    """
    if exponent > EXP_OVERFLOW:
        return math.inf
    return math.exp(exponent)


def bisect_increasing(
    func: Callable[[float], float],
    target: float,
    low: float,
    high: float,
    *,
    tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Solve ``func(x) == target`` for a nondecreasing ``func`` on [low, high].

    Returns the smallest ``x`` with ``func(x) >= target`` up to ``tol``.
    Raises :class:`ValueError` if the target is not bracketed.
    """
    f_low = func(low)
    f_high = func(high)
    if f_low >= target:
        return low
    if f_high < target:
        raise ValueError(
            f"target {target} not reached on [{low}, {high}]: "
            f"f(high) = {f_high}"
        )
    steps = 0
    for _ in range(max_iter):
        mid = 0.5 * (low + high)
        if high - low <= tol * max(1.0, abs(mid)):
            break
        steps += 1
        if func(mid) >= target:
            high = mid
        else:
            low = mid
    if obs.enabled():
        obs.add("numeric.bisect_calls")
        obs.add("numeric.bisect_steps", steps)
    return high


def golden_section_min(
    func: Callable[[float], float],
    low: float,
    high: float,
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[float, float]:
    """Minimize a unimodal ``func`` on [low, high] by golden-section search.

    Returns ``(x_min, f_min)``.  If ``func`` is not unimodal the result is a
    local minimum inside the bracket, which is acceptable for the refinement
    step after a grid scan.
    """
    if high < low:
        raise ValueError(f"empty bracket [{low}, {high}]")
    a, b = low, high
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = func(x1), func(x2)
    iterations = 0
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        iterations += 1
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = func(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = func(x2)
    if obs.enabled():
        obs.add("numeric.golden_calls")
        obs.add("numeric.golden_iterations", iterations)
    if f1 <= f2:
        return x1, f1
    return x2, f2


def refine_grid_minimum(
    refine: Callable[[float, float], tuple[float, float]],
    xs: Sequence[float],
    fs: Sequence[float],
) -> tuple[float, float]:
    """Refinement around the argmin of a pre-evaluated grid.

    ``refine(lo, hi)`` minimizes the grid's function on ``[lo, hi]`` and
    returns ``(x, f)`` — a :func:`golden_section_min` over it, or a
    compiled mirror of one.  Picks the first grid minimum, refines within
    its bracketing cells, and keeps the grid point when refinement does
    not improve on it — exactly the tail of :func:`grid_then_golden`,
    shared so the batched (numpy) grid sweeps reuse the scalar refinement
    verbatim.
    """
    if len(xs) != len(fs):
        raise ValueError("xs and fs must have equal length")
    if not xs:
        raise ValueError("need at least one grid point")
    if obs.enabled():
        obs.add("numeric.refine_calls")
    best = min(range(len(xs)), key=lambda i: fs[i])
    if not math.isfinite(fs[best]):
        return xs[best], fs[best]
    lo = xs[max(0, best - 1)]
    hi = xs[min(len(xs) - 1, best + 1)]
    x_ref, f_ref = refine(lo, hi)
    if f_ref <= fs[best]:
        return x_ref, f_ref
    return xs[best], fs[best]


def grid_then_golden(
    func: Callable[[float], float],
    low: float,
    high: float,
    *,
    grid_points: int = 32,
    tol: float = 1e-9,
    log_spaced: bool = False,
) -> tuple[float, float]:
    """Minimize ``func`` on [low, high]: coarse grid scan, then refine.

    The grid scan makes the search robust to multiple local minima; the
    golden-section pass refines within the bracketing cells of the best grid
    point (see :func:`refine_grid_minimum`).  ``func`` may return
    ``math.inf`` for infeasible points.
    """
    if high < low:
        raise ValueError(f"empty bracket [{low}, {high}]")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    if log_spaced:
        if low <= 0:
            raise ValueError("log-spaced grid requires low > 0")
        ratio = (high / low) ** (1.0 / (grid_points - 1))
        xs = [low * ratio**i for i in range(grid_points)]
    else:
        step = (high - low) / (grid_points - 1)
        xs = [low + i * step for i in range(grid_points)]
    fs = [func(x) for x in xs]
    if obs.enabled():
        obs.add("numeric.grid_evals", len(xs))
    return refine_grid_minimum(
        lambda lo, hi: golden_section_min(func, lo, hi, tol=tol), xs, fs
    )


def logspace(low: float, high: float, count: int) -> list[float]:
    """Return ``count`` log-spaced points on [low, high] (both > 0)."""
    if low <= 0 or high <= 0:
        raise ValueError("logspace requires positive endpoints")
    if count < 2:
        return [low]
    ratio = (high / low) ** (1.0 / (count - 1))
    return [low * ratio**i for i in range(count)]


def weighted_union_bound_constant(
    prefactors: Sequence[float], rates: Sequence[float]
) -> tuple[float, float]:
    """Optimal combination of exponential bounding functions (paper Eq. (33)).

    Given bounding functions ``eps_j(sigma) = M_j * exp(-alpha_j * sigma)``,
    the infimum of ``sum_j eps_j(sigma_j)`` over all splits
    ``sum_j sigma_j = sigma`` is again exponential::

        inf = w * prod_j (M_j * alpha_j)^(1 / (alpha_j * w)) * exp(-sigma / w)

    with ``w = sum_j 1 / alpha_j``.  (The formula as printed in the paper's
    Eq. (33) is garbled by typesetting; this is the correct statement from
    Ciucu, Burchard, Liebeherr, IEEE Trans. IT 2006, and it reproduces the
    paper's Eq. (34) exactly — verified in the test suite.)

    Returns ``(M_combined, alpha_combined)`` with
    ``inf = M_combined * exp(-alpha_combined * sigma)``.
    """
    if len(prefactors) != len(rates):
        raise ValueError("prefactors and rates must have equal length")
    if not prefactors:
        raise ValueError("need at least one bounding function")
    w = 0.0
    for rate in rates:
        if rate <= 0:
            raise ValueError(f"exponential decay rates must be > 0, got {rate}")
        w += 1.0 / rate
    log_m = math.log(w)
    for m, rate in zip(prefactors, rates):
        if m <= 0:
            raise ValueError(f"prefactors must be > 0, got {m}")
        log_m += math.log(m * rate) / (rate * w)
    return math.exp(log_m), 1.0 / w
