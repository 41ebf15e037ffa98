"""End-to-end backlog bounds through the network service curve.

A natural companion of the Section IV delay analysis: with the network
service curve ``S_net`` and the through envelope ``G = (rho + gamma) t``,

    ``b(sigma) = sup_t [ G(t) + sigma - S_net(t) ]``

bounds the total traffic of the through flow inside the network with the
same combined violation probability as the delay bound.  We construct
``S_net`` explicitly (Theorem 1 leftover curves at the delay-optimal
thetas, convolved per Eq. (30)) and take the exact vertical deviation.
Any theta choice yields a valid bound; reusing the delay-optimal thetas
is a good heuristic and the gamma/alpha parameters are re-optimized
numerically for the backlog objective.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network.convolution import network_service_curve
from repro.network.e2e import (
    _gamma_interval,
    _max_feasible_s,
    _s_interval,
    mmoo_ebb_pair,
    sigma_for_epsilon,
)
from repro.network.optimization import homogeneous_hops, solve_exact
from repro.scheduling.delta import CustomDelta
from repro.service.leftover import leftover_service_curve
from repro.singlenode.backlog import backlog_bound_at_sigma
from repro.utils.numeric import grid_then_golden
from repro.utils.validation import check_int, check_positive, check_probability


@dataclass(frozen=True)
class BacklogResult:
    """Outcome of an end-to-end backlog-bound computation."""

    backlog: float
    sigma: float
    gamma: float
    alpha: float

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.backlog)


_INFEASIBLE = BacklogResult(math.inf, math.inf, 0.0, 0.0)


def e2e_backlog_bound_at_gamma(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    gamma: float,
) -> BacklogResult:
    """End-to-end backlog bound for a fixed rate degradation ``gamma``."""
    # one evaluation is ~0.2 ms of Python min-plus algebra and a backlog
    # search makes thousands: yield the CPU before each, so that a thread
    # waiting on the interpreter lock (the bound service's event loop,
    # answering cache hits beside its solver thread) runs within one
    # evaluation rather than after a whole switch interval
    os.sched_yield()
    hops = check_int(hops, "hops", minimum=1)
    check_positive(capacity, "capacity")
    check_probability(epsilon, "epsilon")
    if (hops + 1) * gamma >= capacity - cross.rate - through.rate:
        return _INFEASIBLE
    try:
        sigma = sigma_for_epsilon(through, [cross] * hops, gamma, epsilon)
    except ValueError:
        return _INFEASIBLE

    # thetas: reuse the delay-optimal point (any choice is valid)
    solution = solve_exact(
        homogeneous_hops(hops, capacity, gamma, cross.rate, delta), sigma
    )
    scheduler = CustomDelta({("through", "cross"): delta})
    cross_env = cross.sample_path_envelope(gamma)
    curves = [
        leftover_service_curve(
            scheduler, "through", capacity, {"cross": cross_env}, theta
        )
        for theta in solution.thetas
    ]
    net = network_service_curve(curves, gamma)
    through_env = through.sample_path_envelope(gamma)
    backlog, _ = backlog_bound_at_sigma(through_env, net, sigma)
    return BacklogResult(backlog, sigma, gamma, through.decay)


def e2e_backlog_bound(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    *,
    gamma: float | None = None,
    gamma_grid: int = 24,
) -> BacklogResult:
    """End-to-end backlog bound, optimizing ``gamma`` numerically."""
    if gamma is not None:
        return e2e_backlog_bound_at_gamma(
            through, cross, hops, capacity, delta, epsilon, gamma
        )
    headroom = capacity - cross.rate - through.rate
    if headroom <= 0:
        return _INFEASIBLE
    g_best, _ = grid_then_golden(
        lambda g: e2e_backlog_bound_at_gamma(
            through, cross, hops, capacity, delta, epsilon, g
        ).backlog,
        *_gamma_interval(headroom, hops),
        grid_points=gamma_grid,
        log_spaced=True,
    )
    return e2e_backlog_bound_at_gamma(
        through, cross, hops, capacity, delta, epsilon, g_best
    )


def e2e_backlog_bound_mmoo(
    traffic: MMOOParameters,
    n_through: int,
    n_cross: int,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    *,
    s_grid: int = 16,
    gamma_grid: int = 16,
) -> BacklogResult:
    """Backlog bound for MMOO aggregates, optimizing ``(s, gamma)``."""
    n_through = check_int(n_through, "n_through", minimum=1)
    n_cross = check_int(n_cross, "n_cross", minimum=0)
    if (n_through + n_cross) * traffic.mean_rate >= capacity:
        return _INFEASIBLE
    s_max = _max_feasible_s(traffic, n_through + max(n_cross, 1), capacity)

    def at_s(s: float) -> BacklogResult:
        through, cross = mmoo_ebb_pair(traffic, n_through, n_cross, s)
        return e2e_backlog_bound(
            through, cross, hops, capacity, delta, epsilon,
            gamma_grid=gamma_grid,
        )

    s_best, _ = grid_then_golden(
        lambda s: at_s(s).backlog,
        *_s_interval(s_max),
        grid_points=s_grid,
        log_spaced=True,
    )
    return at_s(s_best)
