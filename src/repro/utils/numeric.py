"""Scalar numeric optimization helpers.

The end-to-end delay bound of Section IV is minimized numerically over the
per-hop rate degradation ``gamma`` and the EBB envelope parameter ``alpha``
(the paper: "Since there is no explicit term for gamma, we optimize
numerically over gamma").  The objective is smooth but expensive, and we do
not need high-order methods: a coarse grid scan followed by golden-section
refinement around the best grid cell is robust and derivative-free.
Each search is one generator body that yields the points it needs and
is sent their values; :func:`golden_section_min` and
:func:`grid_then_golden` drive it over a scalar function, the lane
engine of :mod:`repro.network.lanes` over many bounds at once.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Generator, Sequence

from repro import obs

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # ~0.618

#: A search written once as a generator: it yields lists of points to
#: evaluate, is sent their values, and returns ``(x_min, f_min)``.
SearchBody = Generator[list, list, tuple]

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


def golden_section_search(
    low: float,
    high: float,
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> SearchBody:
    """Golden-section search on [low, high], as a generator body.

    Yields the points to evaluate (both interior points, then one new
    point per iteration), is sent their values and returns
    ``(x_min, f_min)``.
    """
    if high < low:
        raise ValueError(f"empty bracket [{low}, {high}]")
    a, b = low, high
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = yield [x1, x2]
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            (f1,) = yield [x1]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            (f2,) = yield [x2]
    if f1 <= f2:
        return x1, f1
    return x2, f2


def grid_bracket(
    xs: Sequence[float], fs: Sequence[float]
) -> tuple[int, tuple[float, float] | None]:
    """The first minimum of a pre-evaluated grid and the cells around it.

    Returns ``(best, bracket)``: the index of the first minimum of ``fs``
    and ``(xs[best - 1], xs[best + 1])``, clipped to the grid, or
    ``None`` when that minimum is not finite (nothing to refine).
    """
    best = fs.index(min(fs))
    if not math.isfinite(fs[best]):
        return best, None
    return best, (xs[max(0, best - 1)], xs[min(len(xs) - 1, best + 1)])


def grid_then_golden_search(
    low: float,
    high: float,
    *,
    grid_points: int = 32,
    tol: float = 1e-9,
    log_spaced: bool = False,
) -> SearchBody:
    """Grid scan, then golden-section refinement, as a generator body.

    Yields the whole grid (:func:`logspace` or linear), then the points
    of :func:`golden_section_search` over the :func:`grid_bracket`; the
    refined point wins unless the grid minimum is lower.
    """
    if high < low:
        raise ValueError(f"empty bracket [{low}, {high}]")
    if grid_points < 3:
        raise ValueError("grid_points must be >= 3")
    if log_spaced:
        if low <= 0:
            raise ValueError("log-spaced grid requires low > 0")
        xs = logspace(low, high, grid_points)
    else:
        step = (high - low) / (grid_points - 1)
        xs = [low + i * step for i in range(grid_points)]
    fs = yield xs
    best, bracket = grid_bracket(xs, fs)
    if bracket is not None:
        x_ref, f_ref = yield from golden_section_search(*bracket, tol=tol)
        if f_ref <= fs[best]:
            return x_ref, f_ref
    return xs[best], fs[best]


def _drive(
    search: SearchBody, func: Callable[[float], float]
) -> tuple[tuple[float, float], int]:
    """Run a search body over ``func``: its result and its batch count."""
    batches = 0
    values = None
    while True:
        try:
            points = search.send(values)
        except StopIteration as stop:
            return stop.value, batches
        batches += 1
        values = [func(x) for x in points]


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
    best, batches = _drive(
        golden_section_search(low, high, tol=tol, max_iter=max_iter), func
    )
    if obs.enabled():
        obs.add("numeric.golden_calls")
        obs.add("numeric.golden_iterations", batches - 1)
    return best


def refine_grid_minimum(
    refine: Callable[[float, float], tuple[float, float]],
    xs: Sequence[float],
    fs: Sequence[float],
) -> tuple[float, float]:
    """Refinement around the argmin of a pre-evaluated grid.

    ``refine(lo, hi)`` minimizes the grid's function on ``[lo, hi]`` and
    returns ``(x, f)`` — a :func:`golden_section_min` over it, or a
    compiled mirror of one.  Refines within the :func:`grid_bracket`
    and keeps the grid point when refinement does not improve on it, as
    :func:`grid_then_golden_search` does.
    """
    if len(xs) != len(fs):
        raise ValueError("xs and fs must have equal length")
    if not xs:
        raise ValueError("need at least one grid point")
    if obs.enabled():
        obs.add("numeric.refine_calls")
    best, bracket = grid_bracket(xs, fs)
    if bracket is not None:
        x_ref, f_ref = refine(*bracket)
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
    point (see :func:`grid_then_golden_search`).  ``func`` may return
    ``math.inf`` for infeasible points.
    """
    best, batches = _drive(
        grid_then_golden_search(
            low, high, grid_points=grid_points, tol=tol,
            log_spaced=log_spaced,
        ),
        func,
    )
    if obs.enabled():
        obs.add("numeric.grid_evals", grid_points)
        obs.add("numeric.refine_calls")
        if batches > 1:  # the grid, then the golden section's batches
            obs.add("numeric.golden_calls")
            obs.add("numeric.golden_iterations", batches - 2)
    return best


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
