"""Sensitivity sweeps around the end-to-end delay bound.

Diagnostic helpers a user of the library reaches for right after
computing a bound:

* :func:`delay_vs_epsilon` — how expensive is a stricter violation
  probability?  (For EBB traffic: affine in ``log(1/eps)``.)
* :func:`delay_vs_gamma` — the shape of the inner free-parameter
  objective, exposing how sharp the numeric optimum is;
* :func:`delay_vs_utilization` — the figure-2-style load curve for one
  scheduler;
* :func:`scheduler_gap_vs_hops` — the paper's question in one series:
  the relative FIFO-vs-BMUX and EDF-vs-BMUX gaps as the path grows.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network.e2e import (
    e2e_delay_bound,
    e2e_delay_bound_at_gamma,
    e2e_delay_bound_mmoo,
)
from repro.utils.numeric import logspace
from repro.utils.validation import check_int, check_positive


def delay_vs_epsilon(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilons: Sequence[float],
    **kwargs,
) -> list[tuple[float, float]]:
    """Delay bound for each violation probability in ``epsilons``."""
    results = []
    for epsilon in epsilons:
        bound = e2e_delay_bound(
            through, cross, hops, capacity, delta, epsilon, **kwargs
        )
        results.append((epsilon, bound.delay))
    return results


def delay_vs_gamma(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    *,
    points: int = 25,
) -> list[tuple[float, float]]:
    """The inner objective ``d(gamma)`` on a log-spaced grid.

    Useful for inspecting how flat the optimum is (and hence how much
    grid resolution the numeric optimization needs).
    """
    check_int(points, "points", minimum=2)
    headroom = capacity - cross.rate - through.rate
    if headroom <= 0:
        return []
    gamma_max = headroom / (hops + 1)
    lo, hi = gamma_max * 1e-5, gamma_max * (1.0 - 1e-9)
    results = []
    for gamma in logspace(lo, hi, points):
        bound = e2e_delay_bound_at_gamma(
            through, cross, hops, capacity, delta, epsilon, gamma
        )
        results.append((gamma, bound.delay))
    return results


def delay_vs_utilization(
    traffic: MMOOParameters,
    n_through: int,
    utilizations: Sequence[float],
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    *,
    nominal_flow_rate: float = 0.15,
    s_grid: int = 12,
    gamma_grid: int = 12,
) -> list[tuple[float, float]]:
    """Delay bound as the cross load grows (through aggregate fixed)."""
    check_positive(nominal_flow_rate, "nominal_flow_rate")
    results = []
    for utilization in utilizations:
        n_total = round(utilization * capacity / nominal_flow_rate)
        n_cross = max(n_total - n_through, 0)
        bound = e2e_delay_bound_mmoo(
            traffic, n_through, n_cross, hops, capacity, delta, epsilon,
            s_grid=s_grid, gamma_grid=gamma_grid,
        )
        results.append((utilization, bound.delay))
    return results


def scheduler_gap_vs_hops(
    through: EBB,
    cross: EBB,
    hops_list: Sequence[int],
    capacity: float,
    epsilon: float,
    *,
    edf_delta: float = -10.0,
    **kwargs,
) -> list[tuple[int, float, float]]:
    """Per path length: relative gaps ``(H, fifo_gap, edf_gap)``.

    ``fifo_gap = 1 - d_FIFO / d_BMUX`` (shrinks toward 0 on long paths —
    the paper's FIFO-degenerates-to-BMUX finding); ``edf_gap`` likewise
    for EDF with the given ``Delta < 0`` (persists).
    """
    results = []
    for hops in hops_list:
        bmux = e2e_delay_bound(
            through, cross, hops, capacity, math.inf, epsilon, **kwargs
        ).delay
        fifo = e2e_delay_bound(
            through, cross, hops, capacity, 0.0, epsilon, **kwargs
        ).delay
        edf = e2e_delay_bound(
            through, cross, hops, capacity, edf_delta, epsilon, **kwargs
        ).delay
        if not math.isfinite(bmux) or bmux <= 0:
            results.append((hops, math.nan, math.nan))
            continue
        results.append((hops, 1.0 - fifo / bmux, 1.0 - edf / bmux))
    return results
