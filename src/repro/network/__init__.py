"""End-to-end analysis for Delta-schedulers over multi-node paths (Sec. IV).

Public surface:

* :func:`e2e_delay_bound` / :func:`e2e_delay_bound_mmoo` /
  :func:`e2e_delay_bound_edf` — the paper's probabilistic end-to-end delay
  bounds (network service curve + theta-optimization + numeric
  optimization over the free parameters);
* :class:`HomogeneousPath` / :class:`HeterogeneousPath` — path
  descriptions with ``delay_bound`` methods;
* :func:`additive_pernode_delay_bound` — the node-by-node additive
  baseline of Example 3;
* :func:`network_service_curve` — the generic Eq. (30)/(31) construction
  on explicit service curves (used for cross-validation);
* :mod:`repro.network.optimization` — the Eq. (38) solvers (exact and the
  paper's procedure) and the FIFO/BMUX closed forms;
* :mod:`repro.network.scaling` — growth-exponent utilities.
"""

from repro.network.backlog import (
    BacklogResult,
    e2e_backlog_bound,
    e2e_backlog_bound_at_gamma,
    e2e_backlog_bound_mmoo,
)
from repro.network.convolution import degrade_rate, network_service_curve
from repro.network.deterministic import (
    DeterministicE2EResult,
    deterministic_e2e_delay_at_theta,
    deterministic_e2e_delay_bound,
    pay_bursts_only_once,
)
from repro.network.e2e import (
    E2EResult,
    EDFBound,
    FixedPointDiagnostics,
    FixedPointError,
    check_backend,
    e2e_delay_bound,
    e2e_delay_bound_at_gamma,
    e2e_delay_bound_edf,
    e2e_delay_bound_mmoo,
    sigma_for_epsilon,
)
from repro.network.optimization import (
    HopParameters,
    ThetaSolution,
    bmux_delay,
    fifo_delay,
    homogeneous_hops,
    solve_exact,
    solve_paper,
    theta_for_x,
)
from repro.network.path import HeterogeneousPath, HomogeneousPath, HopSpec
from repro.network.pernode import (
    AdditiveResult,
    additive_pernode_delay_bound,
    additive_pernode_delay_bound_at_gamma,
    additive_pernode_delay_bound_mmoo,
)
from repro.network.scaling import (
    fit_growth_exponent,
    h_log_h_reference,
    is_superlinear,
)
from repro.network.sensitivity import (
    delay_vs_epsilon,
    delay_vs_gamma,
    delay_vs_utilization,
    scheduler_gap_vs_hops,
)
from repro.network.vectorized import (
    additive_delay_grid,
    batched_solve_exact,
    e2e_delay_grid,
    optimize_gamma_additive,
)


class EndToEndAnalysis:
    """Convenience facade bundling the Section-IV analysis for one setting.

    Wraps a :class:`HomogeneousPath` together with the through/cross EBB
    triples so repeated queries (different epsilons, methods, schedulers)
    don't repeat boilerplate.
    """

    def __init__(self, path: HomogeneousPath, through, cross) -> None:
        self.path = path
        self.through = through
        self.cross = cross

    def delay_bound(self, epsilon: float, **kwargs) -> E2EResult:
        """End-to-end delay bound at violation probability ``epsilon``."""
        return self.path.delay_bound(self.through, self.cross, epsilon, **kwargs)

    def additive_delay_bound(self, epsilon: float, **kwargs) -> AdditiveResult:
        """The node-by-node additive baseline on the same setting."""
        return additive_pernode_delay_bound(
            self.through, self.cross, self.path.hops, self.path.capacity,
            epsilon, **kwargs,
        )


__all__ = [
    "E2EResult",
    "BacklogResult",
    "e2e_backlog_bound",
    "e2e_backlog_bound_at_gamma",
    "e2e_backlog_bound_mmoo",
    "DeterministicE2EResult",
    "deterministic_e2e_delay_at_theta",
    "deterministic_e2e_delay_bound",
    "pay_bursts_only_once",
    "delay_vs_epsilon",
    "delay_vs_gamma",
    "delay_vs_utilization",
    "scheduler_gap_vs_hops",
    "EndToEndAnalysis",
    "e2e_delay_bound",
    "e2e_delay_bound_at_gamma",
    "e2e_delay_bound_mmoo",
    "e2e_delay_bound_edf",
    "EDFBound",
    "FixedPointDiagnostics",
    "FixedPointError",
    "sigma_for_epsilon",
    "HopParameters",
    "ThetaSolution",
    "homogeneous_hops",
    "solve_exact",
    "solve_paper",
    "theta_for_x",
    "bmux_delay",
    "fifo_delay",
    "HomogeneousPath",
    "HeterogeneousPath",
    "HopSpec",
    "AdditiveResult",
    "additive_pernode_delay_bound",
    "additive_pernode_delay_bound_at_gamma",
    "additive_pernode_delay_bound_mmoo",
    "network_service_curve",
    "degrade_rate",
    "fit_growth_exponent",
    "h_log_h_reference",
    "is_superlinear",
    "check_backend",
    "additive_delay_grid",
    "batched_solve_exact",
    "e2e_delay_grid",
    "optimize_gamma_additive",
]
