"""Node-by-node additive delay analysis (the Example 3 baseline).

This is the analysis sketched in the paper's first paragraph and evaluated
in Fig. 4: instead of convolving service curves into a network service
curve, bound the delay at each node separately — propagating the through
traffic's (degrading) EBB characterization from node to node — and add the
per-node bounds.  In discrete time the delays computed this way grow like
``O(H^3 log H)`` (paper Sec. V-C), far worse than the ``Theta(H log H)``
of the network-service-curve bound.

Recursion (blind multiplexing, following the discrete-time version of the
node-by-node analysis in [6]):

* at node ``h`` the through traffic is EBB ``(M_h, rho_h, alpha_h)`` with
  ``rho_h = rho + (h-1) gamma`` (each hop's sample-path envelope costs a
  rate slack ``gamma``);
* the node's leftover service is the constant rate ``C - rho_c - gamma``
  with the cross sample-path bound;
* the node delay bound is ``d_h(sigma_h) = sigma_h / (C - rho_c - gamma)``
  with the combined bound ``eps_h = (through sample-path) (+) (cross
  sample-path)``;
* the departures are EBB with rate ``rho_h + gamma`` and the same combined
  bound (output theorem), so ``alpha_{h+1} = (1/alpha_h + 1/alpha_c)^{-1}``
  — the decay degrades harmonically, and the prefactors pick up a
  ``1/(1 - e^{-alpha_h gamma})`` at every hop, which is what drives the
  cubic growth.

Because every ``d_h`` has the same coefficient ``1/(C - rho_c - gamma)``,
the optimal split of the total violation probability over nodes reduces to
a single application of Eq. (33): ``d_total = sigma_total / (C - rho_c -
gamma)`` with ``sigma_total`` from the combined per-node bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.statistical import ExponentialBound, combine_bounds
from repro.network.e2e import (
    _gamma_interval,
    _max_feasible_s,
    _s_interval,
    check_backend,
    mmoo_ebb_pair,
)
from repro.utils.numeric import grid_then_golden
from repro.utils.validation import check_int, check_positive, check_probability


@dataclass(frozen=True)
class AdditiveResult:
    """Outcome of the node-by-node analysis."""

    delay: float
    gamma: float
    alpha: float
    sigma_total: float
    per_node_decays: tuple[float, ...]

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.delay)


_INFEASIBLE = AdditiveResult(math.inf, 0.0, 0.0, math.inf, ())


def additive_pernode_delay_bound_at_gamma(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    epsilon: float,
    gamma: float,
) -> AdditiveResult:
    """Additive bound for a fixed ``gamma`` (blind multiplexing nodes)."""
    hops = check_int(hops, "hops", minimum=1)
    check_positive(capacity, "capacity")
    check_positive(gamma, "gamma")
    check_probability(epsilon, "epsilon")
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")

    service_rate = capacity - cross.rate - gamma
    if service_rate <= 0:
        return _INFEASIBLE
    if min(through.decay, cross.decay) * gamma < 1e-15:
        return _INFEASIBLE  # geometric sums underflow at this gamma

    node_bounds: list[ExponentialBound] = []
    decays: list[float] = []
    prefactor, decay, rate = through.prefactor, through.decay, through.rate
    cross_sp = cross.sample_path_bound(gamma)
    for _ in range(hops):
        if rate + gamma > service_rate:
            return _INFEASIBLE
        geometric = -math.expm1(-decay * gamma)
        through_sp = ExponentialBound(prefactor / geometric, decay)
        node = combine_bounds([through_sp, cross_sp])
        node_bounds.append(node)
        decays.append(node.decay)
        # output EBB feeding the next node (stochastic output theorem)
        prefactor, decay = max(1.0, node.prefactor), node.decay
        rate += gamma

    combined = combine_bounds(node_bounds)
    sigma_total = combined.inverse(epsilon)
    return AdditiveResult(
        sigma_total / service_rate, gamma, through.decay, sigma_total, tuple(decays)
    )


def additive_pernode_delay_bound(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    epsilon: float,
    *,
    gamma: float | None = None,
    gamma_grid: int = 48,
    backend: str = "numpy",
) -> AdditiveResult:
    """Node-by-node additive delay bound, optimizing ``gamma`` numerically.

    Feasibility requires ``rho + H gamma + gamma <= C - rho_c`` for the
    last node, so ``gamma`` ranges over
    ``(0, (C - rho_c - rho) / (H + 1))``.  ``backend="numpy"`` (default)
    evaluates the ``gamma`` grid through one batched kernel call; the
    optimum is re-evaluated through the scalar path either way.
    """
    check_backend(backend)
    if gamma is not None:
        return additive_pernode_delay_bound_at_gamma(
            through, cross, hops, capacity, epsilon, gamma
        )
    headroom = capacity - cross.rate - through.rate
    if headroom <= 0:
        return _INFEASIBLE

    if backend == "numpy":
        from repro.network.vectorized import optimize_gamma_additive

        g_best, _ = optimize_gamma_additive(
            through, cross, hops, capacity, epsilon, gamma_grid=gamma_grid
        )
        return additive_pernode_delay_bound_at_gamma(
            through, cross, hops, capacity, epsilon, g_best
        )

    def objective(g: float) -> float:
        return additive_pernode_delay_bound_at_gamma(
            through, cross, hops, capacity, epsilon, g
        ).delay

    g_best, _ = grid_then_golden(
        objective,
        *_gamma_interval(headroom, hops),
        grid_points=gamma_grid,
        log_spaced=True,
    )
    return additive_pernode_delay_bound_at_gamma(
        through, cross, hops, capacity, epsilon, g_best
    )


def additive_pernode_delay_bound_mmoo(
    traffic: MMOOParameters,
    n_through: int,
    n_cross: int,
    hops: int,
    capacity: float,
    epsilon: float,
    *,
    s_grid: int = 24,
    gamma_grid: int = 24,
    backend: str = "numpy",
) -> AdditiveResult:
    """Additive baseline for MMOO aggregates, optimizing ``(s, gamma)``."""
    n_through = check_int(n_through, "n_through", minimum=1)
    n_cross = check_int(n_cross, "n_cross", minimum=0)
    if (n_through + n_cross) * traffic.mean_rate >= capacity:
        return _INFEASIBLE

    s_max = _max_feasible_s(traffic, n_through + max(n_cross, 1), capacity)

    def at_s(s: float) -> AdditiveResult:
        through, cross = mmoo_ebb_pair(traffic, n_through, n_cross, s)
        return additive_pernode_delay_bound(
            through, cross, hops, capacity, epsilon,
            gamma_grid=gamma_grid, backend=backend,
        )

    s_best, _ = grid_then_golden(
        lambda s: at_s(s).delay,
        *_s_interval(s_max),
        grid_points=s_grid,
        log_spaced=True,
    )
    return at_s(s_best)
