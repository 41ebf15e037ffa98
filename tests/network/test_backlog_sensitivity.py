"""Tests for end-to-end backlog bounds and sensitivity sweeps."""

import math

import numpy as np
import pytest

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network.backlog import (
    e2e_backlog_bound,
    e2e_backlog_bound_at_gamma,
    e2e_backlog_bound_mmoo,
)
from repro.network.e2e import e2e_delay_bound
from repro.network.sensitivity import (
    delay_vs_epsilon,
    delay_vs_gamma,
    delay_vs_utilization,
    scheduler_gap_vs_hops,
)

THROUGH = EBB(1.0, 10.0, 0.7)
CROSS = EBB(1.0, 40.0, 0.7)
C = 100.0


class TestE2EBacklog:
    def test_basic_feasible(self):
        r = e2e_backlog_bound(THROUGH, CROSS, 3, C, 0.0, 1e-6)
        assert r.feasible
        assert r.backlog > 0

    def test_backlog_vs_delay_consistency(self):
        # rough physics: backlog <= arrival-rate * delay-scale * slack;
        # at least check the two bounds live on compatible scales
        b = e2e_backlog_bound(THROUGH, CROSS, 3, C, 0.0, 1e-6)
        d = e2e_delay_bound(THROUGH, CROSS, 3, C, 0.0, 1e-6)
        # the backlog of the through flow cannot certify less than
        # rate * (delay it certifies) ... compare within a factor
        assert b.backlog >= THROUGH.rate * d.delay * 0.1
        assert b.backlog <= C * d.delay * 10

    def test_monotone_in_epsilon(self):
        b3 = e2e_backlog_bound(THROUGH, CROSS, 3, C, 0.0, 1e-3)
        b9 = e2e_backlog_bound(THROUGH, CROSS, 3, C, 0.0, 1e-9)
        assert b9.backlog > b3.backlog

    def test_monotone_in_hops(self):
        values = [
            e2e_backlog_bound(THROUGH, CROSS, h, C, 0.0, 1e-6).backlog
            for h in (1, 3, 6)
        ]
        assert values == sorted(values)

    def test_bmux_at_least_fifo(self):
        f = e2e_backlog_bound(THROUGH, CROSS, 3, C, 0.0, 1e-6)
        b = e2e_backlog_bound(THROUGH, CROSS, 3, C, math.inf, 1e-6)
        assert b.backlog >= f.backlog - 1e-9

    def test_infeasible(self):
        heavy = EBB(1.0, 95.0, 0.7)
        assert not e2e_backlog_bound(THROUGH, heavy, 2, C, 0.0, 1e-6).feasible
        assert not e2e_backlog_bound_at_gamma(
            THROUGH, CROSS, 2, C, 0.0, 1e-6, 100.0
        ).feasible

    def test_optimized_gamma_no_worse(self):
        opt = e2e_backlog_bound(THROUGH, CROSS, 3, C, 0.0, 1e-6)
        for gamma in (0.1, 0.5, 2.0):
            fixed = e2e_backlog_bound_at_gamma(
                THROUGH, CROSS, 3, C, 0.0, 1e-6, gamma
            )
            assert opt.backlog <= fixed.backlog * (1 + 1e-6)

    def test_mmoo_variant(self):
        traffic = MMOOParameters.paper_defaults()
        r = e2e_backlog_bound_mmoo(
            traffic, 100, 200, 2, C, 0.0, 1e-6, s_grid=8, gamma_grid=8
        )
        assert r.feasible
        assert r.backlog > 0

    def test_backlog_bound_holds_in_simulation(self):
        """Simulated network backlog stays below the analytic bound.

        The recorded per-node backlogs include cross traffic too (strictly
        more than the through backlog the bound certifies), so the check
        is conservative against the bound — it must still win.
        """
        from repro.arrivals.processes import mmoo_aggregate_arrivals
        from repro.simulation.network import DagNetwork
        from repro.topology import Topology

        traffic = MMOOParameters.paper_defaults()
        n = 300
        epsilon = 1e-3
        bound = e2e_backlog_bound_mmoo(
            traffic, n, n, 2, C, 0.0, epsilon, s_grid=8, gamma_grid=8
        )
        rng = np.random.default_rng(3)
        through = mmoo_aggregate_arrivals(traffic, n, 10_000, rng)
        cross = [
            mmoo_aggregate_arrivals(traffic, n, 10_000, rng) for _ in range(2)
        ]
        net = DagNetwork(Topology.line(2, capacity=C, n_through=n))
        res = net.run(
            {"through": through},
            {str(h): row for h, row in enumerate(cross)},
            record_backlog=True,
        )
        net_backlog = sum(
            rec.quantile(1 - epsilon) for rec in res.node_backlogs.values()
        )
        assert net_backlog <= bound.backlog


class TestSensitivity:
    def test_delay_vs_epsilon_monotone(self):
        sweep = delay_vs_epsilon(
            THROUGH, CROSS, 3, C, 0.0, (1e-3, 1e-6, 1e-9), gamma=0.3
        )
        delays = [d for _, d in sweep]
        assert delays == sorted(delays)

    def test_delay_vs_epsilon_log_affine(self):
        # for EBB traffic at fixed gamma, d is affine in log(1/eps)
        sweep = delay_vs_epsilon(
            THROUGH, CROSS, 3, C, 0.0, (1e-3, 1e-6, 1e-9), gamma=0.3
        )
        d1, d2, d3 = (d for _, d in sweep)
        assert d3 - d2 == pytest.approx(d2 - d1, rel=1e-6)

    def test_delay_vs_gamma_has_interior_minimum(self):
        sweep = delay_vs_gamma(THROUGH, CROSS, 3, C, 0.0, 1e-9, points=21)
        delays = [d for _, d in sweep if math.isfinite(d)]
        assert len(delays) >= 10
        assert min(delays) < delays[0]
        assert min(delays) < delays[-1]

    def test_delay_vs_gamma_overload_empty(self):
        heavy = EBB(1.0, 95.0, 0.7)
        assert delay_vs_gamma(THROUGH, heavy, 2, C, 0.0, 1e-9) == []

    def test_delay_vs_utilization(self):
        traffic = MMOOParameters.paper_defaults()
        sweep = delay_vs_utilization(
            traffic, 100, (0.3, 0.6, 0.9), 2, C, 0.0, 1e-9,
            s_grid=8, gamma_grid=8,
        )
        delays = [d for _, d in sweep]
        assert delays == sorted(delays)

    def test_scheduler_gap_vs_hops(self):
        gaps = scheduler_gap_vs_hops(
            THROUGH, CROSS, (2, 6, 10), C, 1e-9, edf_delta=-10.0,
            gamma_grid=16,
        )
        fifo_gaps = [fg for _, fg, _ in gaps]
        edf_gaps = [eg for _, _, eg in gaps]
        # the paper's finding: FIFO gap shrinks with H, EDF gap persists
        assert fifo_gaps[0] > fifo_gaps[-1] >= -1e-12
        assert edf_gaps[-1] > fifo_gaps[-1]
        assert edf_gaps[-1] > 0.05
