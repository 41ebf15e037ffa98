"""Tests for the vectorized fluid fast path.

The heart of the file is the cross-validation matrix: for every
vectorized scheduler and H in {1, 2, 5}, the vectorized engine must
reproduce the chunk simulator's through-delay distribution within one
slot on the same sampled arrival paths.  Around it sit deterministic
kernel cases, unit and fuzz tests of the cumulative-curve delay
extraction, and the engine-selection plumbing in ``SimulationConfig``.
"""

import numpy as np
import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.simulation.engine import (
    SimulationConfig,
    resolve_topology_engine,
    simulate_tandem_mmoo,
)
from repro.simulation.vectorized import (
    VECTORIZED_SCHEDULERS,
    aggregate_service,
    delays_between,
    run_tandem_vectorized,
)
from repro.topology import NodeSpec, Route, Topology

TRAFFIC = MMOOParameters.paper_defaults()
CAPACITY = 20.0
N_HALF = 60  # 120 flows * 0.15 / 20 = 90% utilization


def line(hops, scheduler="fifo", capacity=1.0, **deadlines):
    """A line topology for driving :func:`run_tandem_vectorized`."""
    return Topology.line(
        hops, capacity=capacity, n_through=1, scheduler=scheduler, **deadlines
    )


def run_engine(engine, scheduler, hops, slots=2_000, seed=11):
    config = SimulationConfig(
        traffic=TRAFFIC, n_through=N_HALF, n_cross=N_HALF, hops=hops,
        capacity=CAPACITY, slots=slots, scheduler=scheduler, seed=seed,
        engine=engine,
    )
    return simulate_tandem_mmoo(config)


class TestCrossValidation:
    """Vectorized vs. chunk on identical sample paths, within one slot."""

    @pytest.mark.parametrize("scheduler", VECTORIZED_SCHEDULERS)
    @pytest.mark.parametrize("hops", [1, 2, 5])
    def test_through_delays_match(self, scheduler, hops):
        chunk = run_engine("chunk", scheduler, hops).route_delays["through"]
        vec = run_engine("vectorized", scheduler, hops).route_delays["through"]
        assert vec.total_mass == pytest.approx(chunk.total_mass, rel=1e-6)
        assert abs(vec.max() - chunk.max()) <= 1.0
        assert abs(vec.mean() - chunk.mean()) <= 1.0
        for p in (0.5, 0.9, 0.99, 0.999):
            assert abs(vec.quantile(p) - chunk.quantile(p)) <= 1.0, (
                scheduler, hops, p,
            )

    @pytest.mark.parametrize("scheduler", ["fifo", "edf"])
    def test_cross_delays_match(self, scheduler):
        chunk = run_engine("chunk", scheduler, 2)
        vec = run_engine("vectorized", scheduler, 2)
        assert list(chunk.cross_delays) == list(vec.cross_delays)
        for node, c_rec in chunk.cross_delays.items():
            v_rec = vec.cross_delays[node]
            # the chunk engine stops draining once the through traffic is
            # out, stranding a sliver of terminal cross backlog, so the
            # masses agree only approximately
            assert v_rec.total_mass == pytest.approx(
                c_rec.total_mass, rel=5e-3
            )
            assert abs(v_rec.quantile(0.999) - c_rec.quantile(0.999)) <= 1.0


class TestDeterministicKernels:
    def test_aggregate_service_lindley(self):
        arrivals = np.array([3.0, 0.0, 0.0, 2.0])
        departed, backlog = aggregate_service(arrivals, 1.0)
        assert np.allclose(backlog, [2.0, 1.0, 0.0, 1.0])
        assert np.allclose(departed, [1.0, 1.0, 1.0, 1.0])

    def test_aggregate_service_matches_slot_loop_fuzz(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            arrivals = rng.uniform(0.0, 3.0, size=50)
            capacity = rng.uniform(0.5, 2.5)
            departed, backlog = aggregate_service(arrivals, capacity)
            q = 0.0
            for t in range(50):
                q += arrivals[t]
                served = min(q, capacity)
                q -= served
                assert departed[t] == pytest.approx(served)
                assert backlog[t] == pytest.approx(q)

    def test_fifo_burst_drains_in_order(self):
        # 2 units arrive at slot 0 on a unit-rate link: the first unit
        # departs in slot 0 (delay 0), the second in slot 1 (delay 1)
        result = run_tandem_vectorized(
            np.array([2.0, 0.0, 0.0]), [np.zeros(3)], line(1)
        )
        delays = result.route_delays["through"]
        assert delays.total_mass == pytest.approx(2.0)
        assert delays.quantile(0.5) == 0.0
        assert delays.max() == 1.0

    def test_sp_through_unaffected_by_cross(self):
        through = np.array([1.0, 1.0, 1.0, 0.0])
        cross = np.array([5.0, 0.0, 0.0, 0.0])
        result = run_tandem_vectorized(through, [cross], line(1, "sp"))
        # through has strict priority and never exceeds capacity alone
        assert result.route_delays["through"].max() == 0.0

    def test_bmux_cross_unaffected_by_through(self):
        through = np.array([5.0, 0.0, 0.0, 0.0, 0.0])
        cross = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        result = run_tandem_vectorized(through, [cross], line(1, "bmux"))
        (cross_rec,) = result.cross_delays.values()
        assert cross_rec.max() == 0.0
        # through waits behind all cross traffic
        assert result.route_delays["through"].max() >= 4.0

    def test_edf_equal_deadlines_is_fifo(self):
        rng = np.random.default_rng(9)
        through = rng.uniform(0.0, 2.0, size=300)
        cross = rng.uniform(0.0, 2.0, size=300)
        fifo = run_tandem_vectorized(
            through, [cross], line(1, capacity=2.5)
        ).route_delays["through"]
        edf = run_tandem_vectorized(
            through, [cross], line(
                1, "edf", capacity=2.5,
                edf_deadline_through=3.0, edf_deadline_cross=3.0,
            ),
        ).route_delays["through"]
        for p in (0.5, 0.9, 0.999):
            assert edf.quantile(p) == pytest.approx(fifo.quantile(p))
        assert edf.total_mass == pytest.approx(fifo.total_mass)

    def test_edf_prefers_tighter_deadline(self):
        through = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        cross = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        tight = run_tandem_vectorized(
            through, [cross],
            line(1, "edf", edf_deadline_through=0.0, edf_deadline_cross=10.0),
        ).route_delays["through"]
        loose = run_tandem_vectorized(
            through, [cross],
            line(1, "edf", edf_deadline_through=10.0, edf_deadline_cross=0.0),
        ).route_delays["through"]
        assert tight.max() < loose.max()

    def test_mass_conserved_with_drain(self):
        # everything offered eventually departs, even past the horizon
        through = np.full(10, 2.0)
        cross = np.full(10, 2.0)
        result = run_tandem_vectorized(through, [cross, cross], line(2))
        assert result.route_delays["through"].total_mass == pytest.approx(20.0)
        for rec in result.cross_delays.values():
            assert rec.total_mass == pytest.approx(20.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            run_tandem_vectorized(np.ones(3), [np.ones(3)], line(1, "gps"))
        with pytest.raises(ValueError):
            run_tandem_vectorized(np.ones(3), [], line(1))
        with pytest.raises(ValueError):
            run_tandem_vectorized(np.ones(3), [np.ones(4)], line(1))
        with pytest.raises(ValueError):
            run_tandem_vectorized(
                np.ones(3), [np.ones(3)],
                line(1, "edf", edf_deadline_through=0.5),
            )
        two_routes = Topology(
            nodes=(NodeSpec("a", 1.0),),
            routes=(Route("r1", ("a",)), Route("r2", ("a",))),
        )
        with pytest.raises(ValueError, match="line topology"):
            run_tandem_vectorized(np.ones(3), [np.ones(3)], two_routes)


class TestDelaysBetween:
    def test_no_queueing_zero_delay(self):
        entry = np.array([1.0, 2.0, 0.5])
        delays, weights = delays_between(entry, entry)
        assert np.all(delays == 0)
        assert weights.sum() == pytest.approx(3.5)

    @staticmethod
    def merged(delays, weights):
        out = {}
        for d, w in zip(delays.tolist(), weights.tolist()):
            out[d] = out.get(d, 0.0) + w
        return out

    def test_constant_shift(self):
        entry = np.array([1.0, 1.0, 0.0, 0.0])
        exit = np.array([0.0, 0.0, 1.0, 1.0])
        assert self.merged(*delays_between(entry, exit)) == {2: 2.0}

    def test_burst_spread(self):
        entry = np.array([3.0, 0.0, 0.0])
        exit = np.array([1.0, 1.0, 1.0])
        assert self.merged(*delays_between(entry, exit)) == {
            0: 1.0, 1: 1.0, 2: 1.0,
        }

    def test_truncated_exit_only_counts_departed_mass(self):
        entry = np.array([4.0, 0.0])
        exit = np.array([1.0, 1.0])
        delays, weights = delays_between(entry, exit)
        assert weights.sum() == pytest.approx(2.0)

    def test_fuzz_against_reference(self):
        def reference(entry, exit):
            entry_cum = np.cumsum(entry)
            exit_cum = np.cumsum(exit)
            total = min(entry_cum[-1], exit_cum[-1])
            marks = np.unique(np.concatenate([entry_cum, exit_cum]))
            marks = marks[(marks > 1e-9) & (marks <= total + 1e-9)]
            out = {}
            prev = 0.0
            for mark in marks:
                entered = int(np.searchsorted(entry_cum, mark - 1e-12, side="right"))
                exited = int(np.searchsorted(exit_cum, mark - 1e-12, side="right"))
                weight = mark - prev
                if weight > 1e-9:
                    delay = max(exited - entered, 0)
                    out[delay] = out.get(delay, 0.0) + weight
                prev = mark
            return out

        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            entry = rng.uniform(0.0, 2.0, size=n)
            entry[rng.random(n) < 0.4] = 0.0
            capacity = rng.uniform(0.5, 1.5)
            exit, _ = aggregate_service(entry, capacity)
            delays, weights = delays_between(entry, exit)
            got = {}
            for d, w in zip(delays.tolist(), weights.tolist()):
                got[d] = got.get(d, 0.0) + w
            want = reference(entry, exit)
            assert set(got) == set(want)
            for d in want:
                assert got[d] == pytest.approx(want[d]), (entry, exit)


class TestEngineSelection:
    def base(self, **kw):
        defaults = dict(
            traffic=TRAFFIC, n_through=4, n_cross=4, hops=1,
            capacity=10.0, slots=100, scheduler="fifo",
        )
        defaults.update(kw)
        return SimulationConfig(**defaults)

    def test_default_engine_is_chunk(self):
        assert self.base().engine == "chunk"

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            self.base(engine="warp")

    def test_vectorized_rejects_gps(self):
        with pytest.raises(ValueError, match="vectorized"):
            self.base(engine="vectorized", scheduler="gps")

    def test_vectorized_rejects_nonpreemptive(self):
        with pytest.raises(ValueError, match="preemptive"):
            self.base(engine="vectorized", preemptive=False)

    def test_vectorized_rejects_packet_size(self):
        with pytest.raises(ValueError, match="packet"):
            self.base(engine="vectorized", packet_size=1.5)

    def test_same_seed_same_sample_path(self):
        # both engines draw identical arrivals for a given seed: total
        # offered through mass must agree exactly
        chunk = simulate_tandem_mmoo(self.base(seed=3))
        vec = simulate_tandem_mmoo(self.base(seed=3, engine="vectorized"))
        assert vec.route_delays["through"].total_mass == pytest.approx(
            chunk.route_delays["through"].total_mass
        )

    @pytest.mark.parametrize(
        "bad",
        [
            {"scheduler": "wfq"},
            {"scheduler": "gps", "preemptive": False},
            {"engine": "vectorized", "scheduler": "gps"},
            {"engine": "vectorized", "packet_size": 1.5},
            {"engine": "vectorized", "preemptive": False},
        ],
        ids=[
            "unknown-scheduler", "nonpreemptive-gps", "vectorized-gps",
            "vectorized-packets", "vectorized-nonpreemptive",
        ],
    )
    def test_bad_config_fails_at_construction(self, bad):
        with pytest.raises(ValueError) as raised:
            self.base(**bad)
        if bad.get("scheduler") == "wfq":
            return  # the line topology itself cannot be built
        # the config's verdict is the topology engine resolver's
        topology = Topology.line(
            1, capacity=10.0, n_through=4, n_cross=4,
            scheduler=bad.get("scheduler", "fifo"),
        )
        with pytest.raises(ValueError) as resolved:
            resolve_topology_engine(
                topology, bad.get("engine", "chunk"),
                preemptive=bad.get("preemptive", True),
                packet_size=bad.get("packet_size"),
            )
        assert str(raised.value) == str(resolved.value)
