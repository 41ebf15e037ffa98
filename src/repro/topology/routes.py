"""Route extraction: reduce a topology route to a per-hop analysis path.

The Section IV analysis bounds one through flow against the aggregate of
*everything else* it shares each node with.  For a route through a
feed-forward topology that aggregate is, per hop, the node-local cross
traffic (:attr:`NodeSpec.n_cross`) plus every *other* route crossing the
node — each an independent MMOO aggregate, so their flow counts add.
:func:`extract_route` performs exactly this reduction; the bound
functions then dispatch:

* a **homogeneous** route (uniform capacity, scheduler constant, and
  interfering flow count along the path) is the paper's Fig. 1 setting
  and goes straight to :func:`repro.network.e2e.e2e_delay_bound_mmoo` —
  bitwise-identical to calling the tandem analysis directly;
* a **heterogeneous** route runs the Section IV non-homogeneous
  extension: an effective-bandwidth ``s``-search over a
  :class:`repro.network.path.HeterogeneousPath` built from the per-hop
  EBB characterizations.

The reduction treats interfering routes as fresh at every shared node
(their EBB characterization is applied per hop, as the homogeneous
analysis does for its per-node cross aggregates); correlations that
shaping at upstream nodes would introduce are ignored, which keeps the
bound on the conservative side of the independent-aggregate model the
paper analyzes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro import obs
from repro.arrivals.mmoo import MMOOParameters
from repro.network.backlog import BacklogResult, e2e_backlog_bound_mmoo
from repro.network.e2e import (
    E2EResult,
    Method,
    _max_feasible_s,
    _s_interval,
    e2e_delay_bound_mmoo,
    mmoo_ebb_pair,
)
from repro.network.path import HeterogeneousPath, HopSpec
from repro.topology.model import NodeSpec, Topology
from repro.utils.numeric import grid_then_golden
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class RouteHop:
    """One hop of an extracted route: the node and its interference.

    ``n_interfering`` counts the MMOO flows competing with the route at
    this node — the node-local cross flows plus the flows of every other
    route traversing the node.
    """

    node: NodeSpec
    n_interfering: int


def extract_route(topology: Topology, route_name: str) -> tuple[RouteHop, ...]:
    """The per-hop analysis view of one route.

    Returns one :class:`RouteHop` per node on the route's path, in path
    order, with the aggregated interfering flow count at each.
    """
    route = topology.route(route_name)
    hops = []
    for name in route.path:
        node = topology.node(name)
        interfering = node.n_cross + sum(
            other.n_flows
            for other in topology.routes
            if other.name != route.name and name in other.path
        )
        hops.append(RouteHop(node=node, n_interfering=interfering))
    return tuple(hops)


def route_is_homogeneous(hops: tuple[RouteHop, ...]) -> bool:
    """Is this extracted route the paper's homogeneous Fig. 1 setting?

    True when capacity, scheduler constant ``Delta``, and interfering
    flow count agree at every hop — the precondition for the (faster,
    closed-form-assisted) homogeneous analysis.
    """
    first = hops[0]
    delta0 = first.node.delta
    return all(
        hop.node.capacity == first.node.capacity
        and hop.node.delta == delta0
        and hop.n_interfering == first.n_interfering
        for hop in hops
    )


def _check_load(
    hops: tuple[RouteHop, ...], n_through: int, traffic: MMOOParameters
) -> bool:
    """Every hop must have mean-rate headroom, else the bound is infinite."""
    return all(
        (n_through + hop.n_interfering) * traffic.mean_rate < hop.node.capacity
        for hop in hops
    )


def route_delay_bound_mmoo(
    topology: Topology,
    route_name: str,
    traffic: MMOOParameters,
    epsilon: float,
    *,
    method: Method = "exact",
    s_grid: int = 24,
    gamma_grid: int = 24,
) -> E2EResult:
    """End-to-end delay bound of one route through a topology.

    Homogeneous routes reduce to the tandem analysis
    (:func:`e2e_delay_bound_mmoo`) with identical results; it solves
    Eq. (38) exactly, so ``method="paper"`` is rejected there with a
    :class:`ValueError`.  Heterogeneous routes run the non-homogeneous
    ``s``-search over a :class:`HeterogeneousPath` with either
    ``method``.  Nodes whose scheduler has no Delta analysis
    (``sp``/``gps``) raise :class:`ValueError` via
    :attr:`NodeSpec.delta`.
    """
    check_probability(epsilon, "epsilon")
    route = topology.route(route_name)
    hops = extract_route(topology, route_name)
    with obs.trace(f"topology.route_bound.{route_name}"):
        if route_is_homogeneous(hops):
            if method != "exact":
                raise ValueError(
                    "homogeneous routes support method='exact' only, got "
                    f"{method!r}"
                )
            return e2e_delay_bound_mmoo(
                traffic, route.n_flows, hops[0].n_interfering, len(hops),
                hops[0].node.capacity, hops[0].node.delta, epsilon,
                s_grid=s_grid, gamma_grid=gamma_grid,
            )
        return _heterogeneous_delay_bound(
            hops, route.n_flows, traffic, epsilon,
            method=method, s_grid=s_grid, gamma_grid=gamma_grid,
        )


def _heterogeneous_delay_bound(
    hops: tuple[RouteHop, ...],
    n_through: int,
    traffic: MMOOParameters,
    epsilon: float,
    *,
    method: Method,
    s_grid: int,
    gamma_grid: int,
) -> E2EResult:
    """The (s, gamma) search over a heterogeneous per-hop path."""
    deltas = [hop.node.delta for hop in hops]  # fail fast on sp/gps
    if not _check_load(hops, n_through, traffic):
        return E2EResult(math.inf, math.inf, 0.0, 0.0, 0.0, (), method)
    # the tightest hop caps the usable effective-bandwidth parameter
    s_max = min(
        _max_feasible_s(
            traffic, n_through + max(hop.n_interfering, 1), hop.node.capacity
        )
        for hop in hops
    )

    def path_at(s: float) -> tuple:
        through = traffic.ebb(n_through, s)
        cross = [
            mmoo_ebb_pair(traffic, n_through, hop.n_interfering, s)[1]
            for hop in hops
        ]
        path = HeterogeneousPath(
            nodes=tuple(
                HopSpec(capacity=hop.node.capacity, cross=x, delta=d)
                for hop, x, d in zip(hops, cross, deltas)
            )
        )
        return through, path

    def at_s(s: float) -> E2EResult:
        try:
            through, path = path_at(s)
        except ValueError:
            # an extreme grid point can push a hop's cross rate into its
            # capacity; treat it as infeasible rather than aborting the
            # search
            return E2EResult(math.inf, math.inf, 0.0, s, 0.0, (), method)
        return path.delay_bound(
            through, epsilon, method=method, gamma_grid=gamma_grid
        )

    s_best, _ = grid_then_golden(
        lambda s: at_s(s).delay,
        *_s_interval(s_max), grid_points=s_grid, log_spaced=True,
    )
    return at_s(s_best)


def route_backlog_bound_mmoo(
    topology: Topology,
    route_name: str,
    traffic: MMOOParameters,
    epsilon: float,
    *,
    s_grid: int = 16,
    gamma_grid: int = 16,
) -> BacklogResult:
    """End-to-end backlog bound of one route (homogeneous routes only).

    The network-service-curve backlog construction
    (:mod:`repro.network.backlog`) is implemented for the homogeneous
    setting; heterogeneous routes raise a clear :class:`ValueError`
    rather than returning an unsound number.
    """
    check_probability(epsilon, "epsilon")
    route = topology.route(route_name)
    hops = extract_route(topology, route_name)
    if not route_is_homogeneous(hops):
        raise ValueError(
            f"route {route_name!r} is heterogeneous (per-hop capacity, "
            f"Delta, or interference varies); the backlog bound is only "
            f"implemented for homogeneous routes"
        )
    with obs.trace(f"topology.route_backlog.{route_name}"):
        return e2e_backlog_bound_mmoo(
            traffic, route.n_flows, hops[0].n_interfering, len(hops),
            hops[0].node.capacity, hops[0].node.delta, epsilon,
            s_grid=s_grid, gamma_grid=gamma_grid,
        )
