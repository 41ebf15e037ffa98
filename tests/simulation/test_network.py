"""Tests for the tandem (a line topology on the chunk engine) and metrics."""

import numpy as np
import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.simulation.engine import SimulationConfig, simulate_tandem_mmoo
from repro.simulation.metrics import BacklogRecorder, DelayRecorder
from repro.simulation.network import DagNetwork
from repro.topology import Topology


def fifo_line(capacity, hops):
    """The Fig. 1 tandem of FIFO links as a line topology."""
    return Topology.line(hops, capacity=capacity, n_through=1, n_cross=1)


def run_line(capacity, through, cross, **kwargs):
    """Run a FIFO line with one cross row per hop on the chunk engine."""
    network = DagNetwork(fifo_line(capacity, len(cross)))
    return network.run(
        {"through": through},
        {str(h): row for h, row in enumerate(cross)},
        **kwargs,
    )


class TestDelayRecorder:
    def test_quantiles_weighted(self):
        rec = DelayRecorder()
        rec.record(1.0, 9.0)
        rec.record(10.0, 1.0)
        assert rec.quantile(0.5) == 1.0
        assert rec.quantile(0.95) == 10.0
        assert rec.mean() == pytest.approx(1.9)
        assert rec.max() == 10.0
        assert rec.total_mass == 10.0

    def test_exceed_fraction(self):
        rec = DelayRecorder()
        rec.record(1.0, 3.0)
        rec.record(5.0, 1.0)
        assert rec.exceed_fraction(1.0) == pytest.approx(0.25)
        assert rec.exceed_fraction(5.0) == 0.0

    def test_empty(self):
        rec = DelayRecorder()
        assert rec.quantile(0.9) == 0.0
        assert rec.mean() == 0.0
        assert rec.exceed_fraction(1.0) == 0.0

    def test_validation(self):
        rec = DelayRecorder()
        with pytest.raises(ValueError):
            rec.record(-1.0, 1.0)
        rec.record(1.0, 0.0)  # zero-size ignored
        assert rec.count() == 0


class TestBacklogRecorder:
    def test_stats(self):
        rec = BacklogRecorder()
        for value in (0.0, 2.0, 4.0):
            rec.record(value)
        assert rec.max() == 4.0
        assert rec.mean() == pytest.approx(2.0)
        assert rec.quantile(0.5) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BacklogRecorder().record(-1.0)


class TestTandemDeterministic:
    def test_pipeline_delay_under_light_load(self):
        # 1 unit/slot through a capacity-10 pipeline: the only delay is the
        # store-and-forward +1 per extra hop
        through = np.ones(50)
        cross = [np.zeros(50) for _ in range(3)]
        result = run_line(10.0, through, cross)
        assert result.route_delays["through"].max() == 2.0
        assert result.route_delays["through"].total_mass == pytest.approx(50.0)

    def test_conservation_with_cross_traffic(self):
        rng = np.random.default_rng(0)
        through = rng.uniform(0.0, 2.0, 100)
        cross = [rng.uniform(0.0, 2.0, 100) for _ in range(2)]
        result = run_line(5.0, through, cross)
        assert result.route_delays["through"].total_mass == pytest.approx(
            through.sum()
        )
        for h in range(2):
            assert result.cross_delays[str(h)].total_mass == pytest.approx(
                cross[h].sum()
            )

    def test_single_node_queue_buildup(self):
        # 3 units/slot into capacity 2: backlog grows by 1/slot for 10
        # slots, then drains; worst delay = ceil(10/2) = 5
        through = np.concatenate([np.full(10, 3.0), np.zeros(20)])
        cross = [np.zeros(30)]
        result = run_line(2.0, through, cross)
        assert result.route_delays["through"].max() == pytest.approx(5.0)

    def test_backlog_recording(self):
        through = np.concatenate([np.full(5, 4.0), np.zeros(10)])
        result = run_line(2.0, through, [np.zeros(15)], record_backlog=True)
        backlog = result.node_backlogs["0"]
        # after slot 4 (sampled post-service): 5*4 arrived, 5*2 served
        assert backlog.max() == pytest.approx(10.0)

    def test_row_count_validation(self):
        net = DagNetwork(fifo_line(2.0, 2))
        with pytest.raises(ValueError):  # a cross row for a third node
            net.run(
                {"through": np.ones(5)},
                {"0": np.zeros(5), "1": np.zeros(5), "2": np.zeros(5)},
            )
        with pytest.raises(ValueError):  # no through row
            net.run({}, {"0": np.zeros(5), "1": np.zeros(5)})
        with pytest.raises(ValueError):
            net.run(
                {"through": np.ones(5)}, {"0": np.zeros(5), "1": np.zeros(4)}
            )


class TestSimulateTandemMMOO:
    TRAFFIC = MMOOParameters.paper_defaults()

    def test_reproducible(self):
        cfg = SimulationConfig(
            traffic=self.TRAFFIC, n_through=50, n_cross=50, hops=2,
            capacity=100.0, slots=2000, scheduler="fifo", seed=11,
        )
        a = simulate_tandem_mmoo(cfg)
        b = simulate_tandem_mmoo(cfg)
        assert (
            a.route_delays["through"].mean() == b.route_delays["through"].mean()
        )
        assert a.route_delays["through"].max() == b.route_delays["through"].max()

    def test_zero_cross_traffic(self):
        cfg = SimulationConfig(
            traffic=self.TRAFFIC, n_through=50, n_cross=0, hops=2,
            capacity=100.0, slots=2000, scheduler="fifo", seed=3,
        )
        result = simulate_tandem_mmoo(cfg)
        assert result.route_delays["through"].total_mass > 0

    def test_scheduler_ordering_at_high_load(self):
        """SP (through favored) <= EDF-favored <= FIFO <= BMUX."""
        delays = {}
        for scheduler in ("sp", "edf", "fifo", "bmux"):
            cfg = SimulationConfig(
                traffic=self.TRAFFIC, n_through=300, n_cross=300, hops=2,
                capacity=100.0, slots=12_000, scheduler=scheduler, seed=7,
                edf_deadline_through=1.0, edf_deadline_cross=10.0,
            )
            delays[scheduler] = simulate_tandem_mmoo(cfg).route_delays[
                "through"
            ].quantile(0.999)
        assert delays["sp"] <= delays["edf"] + 1e-9
        assert delays["edf"] <= delays["fifo"] + 1e-9
        assert delays["fifo"] <= delays["bmux"] + 1e-9
        # at this load the differentiation is strict between extremes
        assert delays["sp"] < delays["bmux"]

    def test_gps_weights_shift_delay(self):
        results = {}
        for w in (0.2, 5.0):
            cfg = SimulationConfig(
                traffic=self.TRAFFIC, n_through=300, n_cross=300, hops=1,
                capacity=100.0, slots=12_000, scheduler="gps", seed=9,
                gps_weight_through=w, gps_weight_cross=1.0,
            )
            results[w] = simulate_tandem_mmoo(cfg).route_delays[
                "through"
            ].quantile(0.999)
        assert results[5.0] <= results[0.2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(
                traffic=self.TRAFFIC, n_through=0, n_cross=1, hops=1,
                capacity=1.0, slots=10,
            )
        with pytest.raises(ValueError):
            SimulationConfig(
                traffic=self.TRAFFIC, n_through=1, n_cross=1, hops=1,
                capacity=1.0, slots=10, scheduler="wfq",
            )


class TestStoreAndForwardConvention:
    """Regression-pin the +1-slot-per-hop store-and-forward timing.

    Fluid served at a node in slot ``t`` reaches the next node at slot
    ``t + 1``, so under light load an ``H``-hop path sees exactly
    ``H - 1`` slots of end-to-end delay.  The validation experiments'
    ``slack_allowed = H - 1`` encodes this convention; if either engine
    ever changes it, these tests fail before the validation suite does.
    """

    def _impulse(self, hops):
        through = np.zeros(6)
        through[0] = 1.0
        cross = [np.zeros(6) for _ in range(hops)]
        return through, cross

    @pytest.mark.parametrize("hops", [1, 2, 5])
    def test_chunk_engine_impulse_delay(self, hops):
        through, cross = self._impulse(hops)
        rec = run_line(100.0, through, cross).route_delays["through"]
        assert rec.count() == 1
        assert rec.max() == float(hops - 1)

    @pytest.mark.parametrize("hops", [1, 2, 5])
    def test_vectorized_engine_impulse_delay(self, hops):
        from repro.simulation.vectorized import run_tandem_vectorized

        through, cross = self._impulse(hops)
        rec = run_tandem_vectorized(
            through, cross, fifo_line(100.0, hops)
        ).route_delays["through"]
        assert rec.max() == float(hops - 1)
