"""Tests for the MGF (independence-based) single-node delay bounds."""

import math

import numpy as np
import pytest

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.scheduling.delta import BMUX
from repro.service.leftover import leftover_service_curve
from repro.singlenode.delay import delay_bound
from repro.singlenode.mgf import mgf_delay_bound, mgf_violation_probability

TRAFFIC = MMOOParameters.paper_defaults()
CAPACITY = 100.0


def rho(n_flows):
    return lambda s: n_flows * TRAFFIC.effective_bandwidth(s)


class TestViolationProbability:
    def test_decreasing_in_delay(self):
        probs = [
            mgf_violation_probability(d, 0.0, CAPACITY, rho(300), rho(300))
            for d in (10.0, 20.0, 40.0)
        ]
        assert probs[0] > probs[1] > probs[2]

    def test_scheduler_ordering(self):
        d = 5.0
        p_edf = mgf_violation_probability(d, -9.0, CAPACITY, rho(300), rho(300))
        p_fifo = mgf_violation_probability(d, 0.0, CAPACITY, rho(300), rho(300))
        p_bmux = mgf_violation_probability(
            d, math.inf, CAPACITY, rho(300), rho(300)
        )
        assert p_edf <= p_fifo <= p_bmux

    def test_no_cross_traffic(self):
        p = mgf_violation_probability(5.0, -math.inf, CAPACITY, rho(300), rho(300))
        p_with = mgf_violation_probability(5.0, 0.0, CAPACITY, rho(300), rho(300))
        assert p <= p_with

    def test_unstable_returns_one(self):
        # 700 flows * 0.1486 > 100: unstable at every s
        p = mgf_violation_probability(50.0, 0.0, CAPACITY, rho(400), rho(300))
        assert p == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            mgf_violation_probability(-1.0, 0.0, CAPACITY, rho(1), rho(1))
        with pytest.raises(ValueError):
            mgf_violation_probability(1.0, 0.0, 0.0, rho(1), rho(1))


class TestDelayBound:
    def test_roundtrip(self):
        d = mgf_delay_bound(1e-6, 0.0, CAPACITY, rho(300), rho(300))
        p = mgf_violation_probability(d, 0.0, CAPACITY, rho(300), rho(300))
        assert p <= 1e-6 * (1 + 1e-6)

    def test_monotone_in_epsilon(self):
        d3 = mgf_delay_bound(1e-3, 0.0, CAPACITY, rho(300), rho(300))
        d9 = mgf_delay_bound(1e-9, 0.0, CAPACITY, rho(300), rho(300))
        assert d9 > d3

    def test_unstable_infinite(self):
        assert mgf_delay_bound(
            1e-6, 0.0, CAPACITY, rho(400), rho(300)
        ) == math.inf

    def test_tighter_than_ebb_union_bound(self):
        """With independent aggregates the MGF bound should not exceed the
        paper's EBB/union-bound single-node result (it avoids both the
        sigma split and the sample-path gamma slack)."""
        n0 = nc = 300
        epsilon = 1e-6
        d_mgf = mgf_delay_bound(epsilon, math.inf, CAPACITY, rho(n0), rho(nc))

        # the paper's route: EBB envelopes + Theorem 1 + Eq. (20),
        # optimized over s, gamma and theta
        best = math.inf
        for s in (0.02, 0.05, 0.1, 0.2):
            through = TRAFFIC.ebb(n0, s)
            cross = TRAFFIC.ebb(nc, s)
            headroom = CAPACITY - through.rate - cross.rate
            if headroom <= 0:
                continue
            for frac in (0.1, 0.3, 0.6):
                gamma = headroom * frac / 2.0
                env = through.sample_path_envelope(gamma)
                cross_env = cross.sample_path_envelope(gamma)
                for theta in (0.0, 5.0, 15.0, 40.0):
                    service = leftover_service_curve(
                        BMUX("j"), "j", CAPACITY, {"c": cross_env}, theta
                    )
                    best = min(best, delay_bound(env, service, epsilon))
        assert d_mgf <= best * (1 + 1e-9)

    def test_bound_holds_in_simulation(self):
        """Empirical check at a single node with genuinely independent
        through and cross aggregates."""
        from repro.arrivals.processes import mmoo_aggregate_arrivals
        from repro.simulation.network import DagNetwork
        from repro.topology import Topology

        n = 300
        epsilon = 1e-3
        d_bound = mgf_delay_bound(epsilon, 0.0, CAPACITY, rho(n), rho(n))
        rng = np.random.default_rng(21)
        through = mmoo_aggregate_arrivals(TRAFFIC, n, 25_000, rng)
        cross = mmoo_aggregate_arrivals(TRAFFIC, n, 25_000, rng)
        net = DagNetwork(Topology.line(1, capacity=CAPACITY, n_through=n))
        result = net.run({"through": through}, {"0": cross})
        assert result.route_delays["through"].quantile(1 - epsilon) <= d_bound


class TestAgainstEBBModel:
    def test_ebb_parameters_feed_in(self):
        # EBB triples can drive the MGF bound directly via their rate
        ebb = EBB(1.0, 45.0, 0.05)
        d = mgf_delay_bound(
            1e-6, 0.0, CAPACITY, lambda s: ebb.rate, lambda s: ebb.rate
        )
        assert math.isfinite(d)
        assert d > 0
