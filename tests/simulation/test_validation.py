"""Integration: simulated delays validate the analytic bounds.

The central soundness check of the whole library: the empirical delay
quantile at level ``1 - epsilon`` must stay below the analytic end-to-end
bound computed at violation probability ``epsilon`` (plus the simulator's
store-and-forward slack of one slot per extra hop).
"""

import math

import numpy as np
import pytest

from repro.arrivals.envelopes import leaky_bucket
from repro.arrivals.mmoo import MMOOParameters
from repro.network.e2e import e2e_delay_bound_mmoo
from repro.scheduling.delta import FIFO
from repro.scheduling.schedulability import adversarial_arrivals, min_feasible_delay
from repro.simulation.engine import SimulationConfig, simulate_tandem_mmoo
from repro.simulation.network import DagNetwork
from repro.topology import Topology

TRAFFIC = MMOOParameters.paper_defaults()
CAPACITY = 100.0


def run_sim(scheduler, n_through, n_cross, hops, slots=20_000, seed=5, **kw):
    config = SimulationConfig(
        traffic=TRAFFIC, n_through=n_through, n_cross=n_cross, hops=hops,
        capacity=CAPACITY, slots=slots, scheduler=scheduler, seed=seed, **kw,
    )
    return simulate_tandem_mmoo(config).route_delays["through"]


class TestBoundsHoldEmpirically:
    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_fifo_bound_dominates_simulation(self, hops):
        n0 = nc = 300  # ~90% utilization: real queueing
        epsilon = 1e-3
        bound = e2e_delay_bound_mmoo(
            TRAFFIC, n0, nc, hops, CAPACITY, 0.0, epsilon,
            s_grid=10, gamma_grid=10,
        )
        delays = run_sim("fifo", n0, nc, hops)
        quantile = delays.quantile(1.0 - epsilon)
        # +(hops-1) slack: store-and-forward vs the analysis' cut-through
        assert quantile <= bound.delay + (hops - 1) + 1e-9

    def test_bmux_bound_dominates_priority_simulation(self):
        n0 = nc = 300
        epsilon = 1e-3
        bound = e2e_delay_bound_mmoo(
            TRAFFIC, n0, nc, 2, CAPACITY, math.inf, epsilon,
            s_grid=10, gamma_grid=10,
        )
        delays = run_sim("bmux", n0, nc, 2)
        assert delays.quantile(1.0 - epsilon) <= bound.delay + 1.0

    def test_edf_bound_dominates_simulation(self):
        n0 = nc = 300
        epsilon = 1e-3
        hops = 2
        # fixed per-node deadlines; Delta = d0 - dc = -9 slots
        d0, dc = 1.0, 10.0
        bound = e2e_delay_bound_mmoo(
            TRAFFIC, n0, nc, hops, CAPACITY, d0 - dc, epsilon,
            s_grid=10, gamma_grid=10,
        )
        delays = run_sim(
            "edf", n0, nc, hops,
            edf_deadline_through=d0, edf_deadline_cross=dc,
        )
        assert delays.quantile(1.0 - epsilon) <= bound.delay + (hops - 1)

    def test_bound_is_not_absurdly_loose_at_max(self):
        """Sanity on the other side: the simulated *maximum* should not be
        orders of magnitude above the 1e-3 bound (the bound would then be
        meaningless as a predictor)."""
        n0 = nc = 300
        bound = e2e_delay_bound_mmoo(
            TRAFFIC, n0, nc, 2, CAPACITY, 0.0, 1e-3, s_grid=10, gamma_grid=10
        )
        delays = run_sim("fifo", n0, nc, 2)
        assert bound.delay <= 100 * max(delays.max(), 1.0)


class TestTheorem2Necessity:
    """The greedy arrival pattern drives a FIFO link to its exact bound."""

    def test_greedy_pattern_attains_fifo_bound(self):
        envs = {
            "through": leaky_bucket(20.0, 120.0),
            "cross0": leaky_bucket(30.0, 180.0),
        }
        d_exact = min_feasible_delay(FIFO(), envs, CAPACITY, "through")
        n_slots = 60
        net = DagNetwork(Topology.line(1, capacity=CAPACITY, n_through=1))
        through = adversarial_arrivals(envs["through"], n_slots)
        cross = adversarial_arrivals(envs["cross0"], n_slots)
        result = net.run({"through": through}, {"0": cross})
        worst = result.route_delays["through"].max()
        # slot granularity: the fluid bound (300/100 = 3) is achieved
        assert worst <= math.ceil(d_exact + 1e-9)
        assert worst >= math.floor(d_exact - 1e-9)

    def test_scaled_down_envelopes_stay_within_bound(self):
        envs = {
            "through": leaky_bucket(20.0, 120.0),
            "cross0": leaky_bucket(30.0, 180.0),
        }
        d_exact = min_feasible_delay(FIFO(), envs, CAPACITY, "through")
        rng = np.random.default_rng(2)
        n_slots = 200
        net = DagNetwork(Topology.line(1, capacity=CAPACITY, n_through=1))
        # random sub-envelope traffic: never exceeds the bound
        through = np.minimum(
            rng.uniform(0, 40, n_slots), adversarial_arrivals(envs["through"], n_slots)
        )
        cross = np.minimum(
            rng.uniform(0, 60, n_slots), adversarial_arrivals(envs["cross0"], n_slots)
        )
        result = net.run({"through": through}, {"0": cross})
        assert result.route_delays["through"].max() <= math.ceil(d_exact + 1e-9)
