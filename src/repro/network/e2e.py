"""End-to-end probabilistic delay bounds for Delta-schedulers (Sec. IV).

The top of the analysis stack.  For a flow traversing ``H`` nodes of
capacity ``C``, each carrying EBB cross traffic and running the same
Delta-scheduler (constant ``Delta_{0,c}``), the end-to-end delay bound at
violation probability ``epsilon`` is computed in three steps:

1. the required slack ``sigma`` from the combined bounding function of the
   network service curve and the through envelope (Eqs. (31), (33), (34));
2. ``d(sigma)`` from the theta-optimization (Eqs. (38)-(44)), solved
   exactly or by the paper's explicit procedure;
3. numeric minimization over the free parameters: the per-hop rate
   degradation ``gamma`` (always) and, for MMOO workloads, the
   effective-bandwidth parameter ``s = alpha``.

The EDF deadline convention of the numerical examples — per-node deadlines
proportional to the resulting end-to-end bound — makes the bound
self-referential; :func:`e2e_delay_bound_edf` resolves it by damped
fixed-point iteration.

The MMOO (s, gamma) search and the EDF fixed point live in one place, the
lane engine of :mod:`repro.network.lanes`: :func:`e2e_delay_bound_mmoo`
and :func:`e2e_delay_bound_edf` are one-lane calls into it, and the numpy
``gamma`` search of :func:`e2e_delay_bound` is one of its ``gamma``
chains.  The engine builds on this module's result types, so those
functions import it at call time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.statistical import ExponentialBound, combine_bounds
from repro.network.optimization import (
    HopParameters,
    ThetaSolution,
    homogeneous_hops,
    solve_exact,
    solve_paper,
)
from repro.utils.numeric import bisect_increasing, grid_then_golden
from repro.utils.validation import (
    check_int,
    check_positive,
    check_probability,
)

Method = Literal["exact", "paper"]
Backend = Literal["scalar", "numpy"]


def check_backend(backend: str) -> None:
    """Validate a ``backend`` selector (raises :class:`ValueError`)."""
    if backend not in ("scalar", "numpy"):
        raise ValueError(
            f"unknown backend {backend!r}; use 'scalar' or 'numpy'"
        )


@dataclass(frozen=True)
class E2EResult:
    """Outcome of an end-to-end delay-bound computation.

    Attributes
    ----------
    delay:
        The certified end-to-end delay bound (``math.inf`` if infeasible).
    sigma:
        The slack consumed by the bounding functions at the target
        ``epsilon``.
    gamma:
        The (optimized or supplied) per-hop rate degradation.
    alpha:
        The EBB decay used (the effective-bandwidth parameter ``s`` for
        MMOO workloads).
    x, thetas:
        The optimizer's free variables (``d = x + sum(thetas)``).
    method:
        ``"exact"`` or ``"paper"``.
    """

    delay: float
    sigma: float
    gamma: float
    alpha: float
    x: float
    thetas: tuple[float, ...]
    method: str

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.delay)


_INFEASIBLE = E2EResult(math.inf, math.inf, 0.0, 0.0, 0.0, (), "exact")


class FixedPointError(RuntimeError):
    """The EDF deadline fixed point did not reach its tolerance."""


@dataclass(frozen=True)
class FixedPointDiagnostics:
    """Convergence record of the EDF deadline fixed point.

    Attributes
    ----------
    iterations:
        Number of damped iterations performed (excluding the FIFO
        bootstrap evaluation).
    residual:
        The final relative residual ``|delta_new - delta| /
        max(1, |delta|)`` — compare against the tolerance.
    converged:
        Whether the residual met the tolerance (always ``True`` when the
        iteration exits early because the bound went infeasible: an
        infinite bound has nothing left to iterate on).
    wall_time_s:
        Wall-clock time of the whole fixed-point resolution.
    """

    iterations: int
    residual: float
    converged: bool
    wall_time_s: float


@dataclass(frozen=True)
class EDFBound:
    """Result of :func:`e2e_delay_bound_edf` plus its diagnostics.

    Iterates as ``(result, delta)`` so existing call sites can keep
    unpacking ``result, delta = e2e_delay_bound_edf(...)``.
    """

    result: E2EResult
    delta: float
    diagnostics: FixedPointDiagnostics

    def __iter__(self) -> Iterator:
        return iter((self.result, self.delta))


def sigma_for_epsilon(
    through: EBB,
    cross_nodes: Sequence[EBB],
    gamma: float,
    epsilon: float,
) -> float:
    """Slack ``sigma`` with end-to-end violation probability ``epsilon``.

    Combines, per Eqs. (31)+(21) in discrete time:

    * the through flow's sample-path bound ``M/(1 - e^{-alpha gamma})``;
    * the last node's service bound ``M_c/(1 - e^{-alpha_c gamma})``;
    * for every earlier node, the geometric-sum-inflated bound
      ``M_c/(1 - e^{-alpha_c gamma})^2``;

    into a single exponential (Eq. (33)) and inverts it at ``epsilon``.
    For homogeneous nodes this reproduces the paper's closed form
    ``M (H+1) / (1 - e^{-alpha gamma})^{2H/(H+1)} e^{-alpha sigma/(H+1)}``.
    """
    check_positive(gamma, "gamma")
    check_probability(epsilon, "epsilon")
    if epsilon <= 0.0:
        raise ValueError("epsilon must be > 0 for a probabilistic bound")
    bounds: list[ExponentialBound] = [through.sample_path_bound(gamma)]
    n = len(cross_nodes)
    for index, cross in enumerate(cross_nodes):
        node_bound = cross.sample_path_bound(gamma)
        if index < n - 1:
            geometric = -math.expm1(-node_bound.decay * gamma)
            node_bound = ExponentialBound(
                node_bound.prefactor / geometric, node_bound.decay
            )
        bounds.append(node_bound)
    return combine_bounds(bounds).inverse(epsilon)


def _solve(
    hop_params: Sequence[HopParameters], sigma: float, method: Method
) -> ThetaSolution:
    if method == "exact":
        return solve_exact(hop_params, sigma)
    if method == "paper":
        return solve_paper(hop_params, sigma)
    raise ValueError(f"unknown method {method!r}; use 'exact' or 'paper'")


def e2e_delay_bound_at_gamma(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    gamma: float,
    *,
    method: Method = "exact",
) -> E2EResult:
    """End-to-end bound for a *fixed* ``gamma`` (no outer optimization)."""
    hops = check_int(hops, "hops", minimum=1)
    check_positive(capacity, "capacity")
    # Eq. (32): (H+1) gamma < C - rho_c - rho
    if (hops + 1) * gamma >= capacity - cross.rate - through.rate:
        return _INFEASIBLE
    try:
        sigma = sigma_for_epsilon(through, [cross] * hops, gamma, epsilon)
    except ValueError:
        # decay * gamma underflow at an extreme grid point
        return _INFEASIBLE
    params = homogeneous_hops(hops, capacity, gamma, cross.rate, delta)
    solution = _solve(params, sigma, method)
    return E2EResult(
        solution.delay,
        sigma,
        gamma,
        through.decay,
        solution.x,
        solution.thetas,
        method,
    )


def e2e_delay_bound(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    *,
    gamma: float | None = None,
    method: Method = "exact",
    gamma_grid: int = 48,
    backend: Backend = "numpy",
) -> E2EResult:
    """End-to-end delay bound for EBB traffic over a homogeneous path.

    Parameters
    ----------
    through, cross:
        EBB triples of the through flow and of the per-node cross
        aggregate (``cross`` applies at every node, as in Fig. 1).
    hops:
        Path length ``H``.
    capacity:
        Per-node link rate ``C``.
    delta:
        The scheduler constant ``Delta_{0,c}``: ``+inf`` for BMUX, ``0``
        for FIFO, ``d*_0 - d*_c`` for EDF.
    epsilon:
        Target violation probability (e.g. ``1e-9``).
    gamma:
        Fix the per-hop rate degradation; by default it is optimized
        numerically over ``(0, (C - rho_c - rho)/(H+1))`` (Eq. (32)).
    method:
        ``"exact"`` (breakpoint enumeration) or ``"paper"`` (Eqs. 40-42).
    backend:
        ``"numpy"`` (default) runs the ``gamma`` search as one ``gamma``
        chain of the lane engine (:func:`repro.network.lanes.gamma_search`:
        a batched grid row, then golden-section refinement over the
        probe); ``"scalar"`` probes :func:`e2e_delay_bound_at_gamma`
        point by point.  Both re-evaluate the optimum through the scalar
        path, so the returned bounds agree to well within 1e-9 relative.
        ``method="paper"`` always uses the scalar search.
    """
    check_backend(backend)
    if gamma is not None:
        return e2e_delay_bound_at_gamma(
            through, cross, hops, capacity, delta, epsilon, gamma, method=method
        )
    hops = check_int(hops, "hops", minimum=1)
    check_positive(capacity, "capacity")
    headroom = capacity - cross.rate - through.rate
    if headroom <= 0:
        return _INFEASIBLE

    if backend == "numpy" and method == "exact":
        from repro.network.lanes import gamma_search

        g_best, _ = gamma_search(
            through, cross, hops, capacity, delta, epsilon, gamma_grid
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

    lo = gamma_max * 1e-6
    hi = gamma_max * (1.0 - 1e-9)
    g_best, _ = grid_then_golden(
        objective, lo, hi, grid_points=gamma_grid, log_spaced=True
    )
    return e2e_delay_bound_at_gamma(
        through, cross, hops, capacity, delta, epsilon, g_best, method=method
    )


# --------------------------------------------------------------------- #
# MMOO workloads: joint optimization over (s, gamma)
# --------------------------------------------------------------------- #


def _max_feasible_s(
    traffic: MMOOParameters, n_total: int, capacity: float
) -> float:
    """Largest effective-bandwidth parameter keeping the load below C.

    The effective bandwidth is nondecreasing in ``s``, so the boundary is
    found by :func:`repro.utils.numeric.bisect_increasing` at an explicit
    relative tolerance (callers back off by a further ``1 - 1e-9`` factor
    before using it as a search endpoint).
    """
    hi = 50.0 / traffic.peak
    if n_total * traffic.peak_rate < capacity:
        return hi  # effectively unconstrained
    if n_total * traffic.effective_bandwidth(hi) < capacity:
        return hi  # capacity never reached on the search interval
    return bisect_increasing(
        lambda s: n_total * traffic.effective_bandwidth(s),
        capacity,
        1e-6,
        hi,
        tol=1e-12,
    )


def mmoo_ebb_pair(
    traffic: MMOOParameters, n_through: int, n_cross: int, s: float
) -> tuple[EBB, EBB]:
    """The (through, cross) EBB pair of MMOO aggregates at parameter ``s``.

    ``n_cross = 0`` yields an epsilon-rate placeholder (rate ``1e-12``,
    prefactor ``1``) so the downstream formulas stay well defined; every
    MMOO entry point shares this one construction so bounds computed
    through different layers agree bitwise.
    """
    through = traffic.ebb(n_through, s)
    if n_cross > 0:
        cross = traffic.ebb(n_cross, s)
    else:
        cross = EBB(1.0, 1e-12, s)
    return through, cross


def e2e_delay_bound_mmoo(
    traffic: MMOOParameters,
    n_through: int,
    n_cross: int,
    hops: int,
    capacity: float,
    delta: float,
    epsilon: float,
    *,
    s_grid: int = 24,
    gamma_grid: int = 24,
    backend: Backend = "numpy",
) -> E2EResult:
    """End-to-end delay bound for aggregated MMOO traffic (paper Sec. V).

    ``n_through`` flows form the through aggregate; ``n_cross`` flows the
    per-node cross aggregate (``n_cross = 0`` means no cross traffic).
    Optimizes jointly over the effective-bandwidth parameter ``s`` (the
    EBB decay ``alpha``) and the rate degradation ``gamma``, as a
    one-lane call into :func:`repro.network.lanes.mmoo_bound_lanes`.
    """
    from repro.network.lanes import LaneSpec, mmoo_bound_lanes

    spec = LaneSpec(
        traffic,
        check_int(n_through, "n_through", minimum=1),
        check_int(n_cross, "n_cross", minimum=0),
        check_int(hops, "hops", minimum=1),
        capacity, delta, epsilon,
        s_grid=s_grid, gamma_grid=gamma_grid, backend=backend,
    )
    return mmoo_bound_lanes([spec])[0]


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
    tol: float = 1e-4,
    max_iter: int = 40,
    s_grid: int = 24,
    gamma_grid: int = 24,
    backend: Backend = "numpy",
    on_nonconvergence: Literal["warn", "raise", "ignore"] = "warn",
) -> EDFBound:
    """EDF bound with self-referential deadlines (paper Examples 1-3).

    The examples set the per-node a priori deadlines proportional to the
    resulting end-to-end bound: ``d*_0 = w_0 d_e2e / H`` and
    ``d*_c = w_c d_e2e / H`` (the paper uses ``w_0 = 1, w_c = 10``), hence
    ``Delta_{0,c} = (w_0 - w_c) d_e2e / H`` — a fixed point in ``d_e2e``.
    Resolved by damped iteration from the FIFO bound, as a one-lane call
    into :func:`repro.network.lanes.edf_bound_lanes`.

    Returns an :class:`EDFBound` — unpackable as ``(result, delta)`` —
    whose ``diagnostics`` record the iteration count, the final relative
    residual, and convergence.  If the residual does not meet ``tol``
    within ``max_iter`` iterations, ``on_nonconvergence`` selects the
    policy: ``"warn"`` (default) emits a :class:`RuntimeWarning` and
    flags ``converged=False``; ``"raise"`` raises
    :class:`FixedPointError`; ``"ignore"`` only flags the result.
    """
    from repro.network.lanes import EDFLaneSpec, edf_bound_lanes

    spec = EDFLaneSpec(
        traffic,
        check_int(n_through, "n_through", minimum=1),
        check_int(n_cross, "n_cross", minimum=0),
        check_int(hops, "hops", minimum=1),
        capacity, epsilon,
        deadline_weight_through=deadline_weight_through,
        deadline_weight_cross=deadline_weight_cross,
        tol=tol, max_iter=max_iter, s_grid=s_grid, gamma_grid=gamma_grid,
        backend=backend, on_nonconvergence=on_nonconvergence,
    )
    return edf_bound_lanes([spec])[0]
