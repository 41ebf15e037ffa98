"""Tests for the non-preemptive packet model and the packetized service
curves (the paper's fluid-assumption relaxation)."""

import pytest

from repro.algebra.functions import PiecewiseLinear
from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.statistical import ExponentialBound
from repro.service.curves import StatisticalServiceCurve, rate_latency_service
from repro.service.packetizer import (
    packetization_delay,
    packetize_service,
    packetized_delay_penalty,
)
from repro.simulation.chunk import Chunk
from repro.simulation.engine import SimulationConfig, simulate_tandem_mmoo
from repro.simulation.node import Link
from repro.simulation.schedulers import GPSPolicy, StaticPriorityPolicy


class TestPacketizeService:
    def test_subtracts_one_packet(self):
        s = rate_latency_service(10.0, 2.0)
        p = packetize_service(s, 5.0)
        # [10 (t-2) - 5]_+ : zero until t = 2.5
        assert p(2.5) == pytest.approx(0.0)
        assert p(4.0) == pytest.approx(15.0)

    def test_zero_packet_identity(self):
        s = rate_latency_service(10.0, 2.0)
        assert packetize_service(s, 0.0) is s

    def test_preserves_shift_and_bound(self):
        bound = ExponentialBound(2.0, 1.0)
        s = StatisticalServiceCurve(
            PiecewiseLinear.constant_rate(10.0), 3.0, bound
        )
        p = packetize_service(s, 5.0)
        assert p.shift == 3.0
        assert p.bound == bound
        assert p(3.0) == 0.0
        assert p(4.0) == pytest.approx(5.0)

    def test_delay_helpers(self):
        assert packetization_delay(1.5, 100.0) == pytest.approx(0.015)
        assert packetized_delay_penalty(5, 1.5, 100.0, 50.0) == pytest.approx(
            5 * (1.5 / 50.0 + 1.5 / 100.0)
        )
        with pytest.raises(ValueError):
            packetized_delay_penalty(0, 1.5, 100.0, 50.0)


class TestNonPreemptiveLink:
    def test_started_chunk_blocks_higher_priority(self):
        link = Link(
            1.0, StaticPriorityPolicy({"hi": 1, "lo": 0}), preemptive=False
        )
        link.offer(Chunk("lo", 3.0, 0), 0)
        # slot 0: lo starts service (serves 1 of 3, departs nothing)
        assert link.advance(0) == []
        link.offer(Chunk("hi", 1.0, 1), 1)
        # slot 1: lo still pinned (2 left, serves 1)
        assert link.advance(1) == []
        # slot 2: lo completes and departs whole; hi still waits
        departed = link.advance(2)
        assert [c.flow for c in departed] == ["lo"]
        assert departed[0].size == 3.0
        # slot 3: hi finally served
        assert [c.flow for c in link.advance(3)] == ["hi"]

    def test_preemptive_link_lets_priority_overtake(self):
        link = Link(1.0, StaticPriorityPolicy({"hi": 1, "lo": 0}))
        link.offer(Chunk("lo", 3.0, 0), 0)
        link.advance(0)  # fluid: 1 unit of lo departs immediately
        link.offer(Chunk("hi", 1.0, 1), 1)
        assert [c.flow for c in link.advance(1)] == ["hi"]

    def test_departs_whole_on_completion(self):
        link = Link(2.0, StaticPriorityPolicy({"a": 1}), preemptive=False)
        link.offer(Chunk("a", 5.0, 0), 0)
        assert link.advance(0) == []
        assert link.advance(1) == []
        departed = link.advance(2)
        assert len(departed) == 1
        assert departed[0].size == 5.0
        assert link.backlog() == pytest.approx(0.0)

    def test_backlog_counts_pinned_remainder(self):
        link = Link(2.0, StaticPriorityPolicy({"a": 1}), preemptive=False)
        link.offer(Chunk("a", 5.0, 0), 0)
        link.advance(0)
        assert link.backlog() == pytest.approx(3.0)

    def test_gps_rejects_nonpreemptive(self):
        with pytest.raises(ValueError):
            Link(1.0, GPSPolicy({"a": 1.0}), preemptive=False)


class TestPacketizedTandem:
    TRAFFIC = MMOOParameters.paper_defaults()

    def _delays(self, **kwargs):
        config = SimulationConfig(
            traffic=self.TRAFFIC, n_through=300, n_cross=300, hops=2,
            capacity=100.0, slots=8_000, scheduler="sp", seed=13, **kwargs,
        )
        return simulate_tandem_mmoo(config).route_delays["through"]

    def test_conservation_in_packet_mode(self):
        fluid = self._delays()
        packet = self._delays(preemptive=False, packet_size=1.5)
        assert packet.total_mass == pytest.approx(fluid.total_mass, rel=1e-9)

    def test_packet_blocking_increases_priority_delay(self):
        """With the through aggregate at high priority, non-preemptive
        1.5-kbit cross packets add (bounded) blocking delay."""
        fluid = self._delays()
        packet = self._delays(preemptive=False, packet_size=1.5)
        assert packet.mean() >= fluid.mean() - 1e-9
        # the one-packet-per-hop correction bounds the extra delay: each
        # hop blocks at most one 1.5-kbit packet at rate 100/slot, plus
        # the whole-packet departure rounding (~1 slot per hop here)
        assert packet.quantile(0.999) <= fluid.quantile(0.999) + 2 * (
            1.5 / 100.0
        ) + 2.0 + 1e-9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                traffic=self.TRAFFIC, n_through=1, n_cross=1, hops=1,
                capacity=1.0, slots=10, scheduler="gps", preemptive=False,
            )
        with pytest.raises(ValueError):
            SimulationConfig(
                traffic=self.TRAFFIC, n_through=1, n_cross=1, hops=1,
                capacity=1.0, slots=10, packet_size=0.0,
            )
