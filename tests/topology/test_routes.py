"""Tests for route extraction and per-route bounds."""

import math

import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.network.e2e import e2e_delay_bound_mmoo
from repro.network.backlog import e2e_backlog_bound_mmoo
from repro.topology import (
    NodeSpec,
    Route,
    Topology,
    extract_route,
    route_backlog_bound_mmoo,
    route_delay_bound_mmoo,
    route_is_homogeneous,
)

TRAFFIC = MMOOParameters.paper_defaults()
EPSILON = 1e-6


def shared_core() -> Topology:
    """Two routes sharing a core node that also has local cross flows."""
    nodes = (
        NodeSpec("a", 100.0),
        NodeSpec("b", 100.0),
        NodeSpec("core", 100.0, n_cross=7),
    )
    routes = (
        Route("left", ("a", "core"), n_flows=10),
        Route("right", ("b", "core"), n_flows=20),
    )
    return Topology(nodes=nodes, routes=routes)


class TestExtractRoute:
    def test_interference_aggregates_cross_and_routes(self):
        hops = extract_route(shared_core(), "left")
        assert [hop.node.name for hop in hops] == ["a", "core"]
        # at "a": nothing else; at "core": 7 local cross + 20 from "right"
        assert [hop.n_interfering for hop in hops] == [0, 27]

    def test_own_flows_not_counted(self):
        hops = extract_route(shared_core(), "right")
        assert [hop.n_interfering for hop in hops] == [0, 17]

    def test_line_matches_tandem_setting(self):
        topo = Topology.line(4, capacity=100.0, n_through=8, n_cross=5)
        hops = extract_route(topo, "through")
        assert len(hops) == 4
        assert all(hop.n_interfering == 5 for hop in hops)
        assert route_is_homogeneous(hops)

    def test_shared_core_route_is_heterogeneous(self):
        assert not route_is_homogeneous(extract_route(shared_core(), "left"))


class TestRouteDelayBound:
    def test_homogeneous_bitwise_equals_tandem_analysis(self):
        topo = Topology.line(3, capacity=100.0, n_through=150, n_cross=150)
        via_route = route_delay_bound_mmoo(
            topo, "through", TRAFFIC, EPSILON, s_grid=8, gamma_grid=8
        )
        direct = e2e_delay_bound_mmoo(
            TRAFFIC, 150, 150, 3, 100.0, 0.0, EPSILON,
            s_grid=8, gamma_grid=8,
        )
        assert via_route.delay == direct.delay  # bitwise, not approx
        assert via_route.gamma == direct.gamma
        assert via_route.alpha == direct.alpha

    def test_paper_method_rejected_on_homogeneous_route(self):
        topo = Topology.line(2, capacity=100.0, n_through=50, n_cross=50)
        with pytest.raises(ValueError, match="method='exact' only"):
            route_delay_bound_mmoo(
                topo, "through", TRAFFIC, EPSILON, method="paper"
            )

    def test_heterogeneous_route_accepts_paper_method(self):
        exact = route_delay_bound_mmoo(
            shared_core(), "left", TRAFFIC, EPSILON, s_grid=6, gamma_grid=6
        )
        paper = route_delay_bound_mmoo(
            shared_core(), "left", TRAFFIC, EPSILON, s_grid=6, gamma_grid=6,
            method="paper",
        )
        assert paper.method == "paper"
        assert paper.delay >= exact.delay * (1 - 1e-9)

    def test_heterogeneous_is_finite_and_dominates_uniform(self):
        bound = route_delay_bound_mmoo(
            shared_core(), "left", TRAFFIC, EPSILON, s_grid=8, gamma_grid=8
        )
        assert math.isfinite(bound.delay)
        assert bound.delay > 0.0

    def test_overload_returns_infinite(self):
        # 800 flows at ~0.1486 each exceed capacity 100
        topo = Topology(
            nodes=(NodeSpec("a", 100.0), NodeSpec("b", 1.0)),
            routes=(Route("r", ("a", "b"), n_flows=800),),
        )
        bound = route_delay_bound_mmoo(topo, "r", TRAFFIC, EPSILON,
                                       s_grid=4, gamma_grid=4)
        assert bound.delay == math.inf

    def test_unanalyzable_scheduler_raises(self):
        topo = Topology(
            nodes=(NodeSpec("a", 100.0, scheduler="gps"),),
            routes=(Route("r", ("a",), n_flows=10),),
        )
        with pytest.raises(ValueError, match="no.*Delta-scheduler"):
            route_delay_bound_mmoo(topo, "r", TRAFFIC, EPSILON)

    def test_unknown_route_raises(self):
        with pytest.raises(KeyError):
            route_delay_bound_mmoo(shared_core(), "ghost", TRAFFIC, EPSILON)


class TestRouteBacklogBound:
    def test_homogeneous_bitwise_equals_tandem_analysis(self):
        topo = Topology.line(2, capacity=100.0, n_through=150, n_cross=150)
        via_route = route_backlog_bound_mmoo(
            topo, "through", TRAFFIC, EPSILON, s_grid=6, gamma_grid=6
        )
        direct = e2e_backlog_bound_mmoo(
            TRAFFIC, 150, 150, 2, 100.0, 0.0, EPSILON,
            s_grid=6, gamma_grid=6,
        )
        assert via_route.backlog == direct.backlog

    def test_heterogeneous_raises_clearly(self):
        with pytest.raises(ValueError, match="heterogeneous"):
            route_backlog_bound_mmoo(shared_core(), "left", TRAFFIC, EPSILON)
