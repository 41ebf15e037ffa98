"""Tests for the importance-sampling rare-event estimator."""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.processes import mmoo_aggregate_arrivals, mmoo_on_intervals
from repro.simulation.engine import SimulationConfig, simulate_tandem_mmoo
from repro.simulation.rare import (
    RareEstimate,
    TiltedMMOO,
    default_margin,
    estimate_tail,
    estimate_tail_from_arrays,
    simulate_tandem_mmoo_rare,
    solve_lundberg_tilt,
    states_at,
    suggest_rare_slots,
    window_log_likelihood_ratio,
    window_transition_counts,
)

PAPER = MMOOParameters.paper_defaults()

# Small two-aggregate tandem whose delay tail is deep enough for the
# tilted sampler yet still reachable by naive Monte Carlo — the
# unbiasedness cross-check configuration.
SMALL_N = 10
SMALL_UTIL = 0.75
SMALL_CAPACITY = 2 * SMALL_N * PAPER.mean_rate / SMALL_UTIL


class TestTiltedMMOO:
    def test_tilted_chain_matches_twisted_kernel_eigenvalue(self):
        # the h-transform probabilities come from the Perron eigenvalue
        # of T_s(i, j) = T(i, j) e^{s r_j}; verify against numpy's eig
        s = 0.05
        tilted = TiltedMMOO.from_tilt(PAPER, s)
        kernel = np.array(
            [
                [PAPER.p11, PAPER.p12 * math.exp(s * PAPER.peak)],
                [PAPER.p21, PAPER.p22 * math.exp(s * PAPER.peak)],
            ]
        )
        lam = max(np.linalg.eigvals(kernel).real)
        assert math.exp(tilted.log_radius) == pytest.approx(lam, rel=1e-9)
        assert tilted.params.p11 == pytest.approx(PAPER.p11 / lam)
        assert tilted.params.p22 == pytest.approx(
            PAPER.p22 * math.exp(s * PAPER.peak) / lam
        )

    def test_tilting_raises_the_mean_rate(self):
        tilted = TiltedMMOO.from_tilt(PAPER, 0.01)
        assert tilted.params.mean_rate > PAPER.mean_rate
        assert tilted.params.peak == PAPER.peak

    def test_rejects_nonpositive_tilt(self):
        with pytest.raises(ValueError):
            TiltedMMOO.from_tilt(PAPER, 0.0)
        with pytest.raises(ValueError):
            TiltedMMOO.from_tilt(PAPER, -0.1)

    @pytest.mark.parametrize("p11,p22", [(0.5, 0.5), (0.9, 0.6), (0.989, 0.9)])
    @pytest.mark.parametrize("tilt", [0.01, 0.5, 3.0])
    def test_tilting_preserves_burstiness(self, p11, p22, tilt):
        # det(T~) = det(T) e^{sP} / lam^2 keeps the sign of det(T), so a
        # bursty base chain always tilts to a valid MMOO chain; the
        # ValueError branch in from_tilt only guards float drift at the
        # p12 + p21 = 1 boundary
        base = MMOOParameters(peak=1.0, p11=p11, p22=p22)
        tilted = TiltedMMOO.from_tilt(base, tilt)
        assert 0.0 <= tilted.params.p11 <= 1.0
        assert 0.0 <= tilted.params.p22 <= 1.0
        assert tilted.params.p12 + tilted.params.p21 <= 1.0 + 1e-9

    def test_transition_log_ratios_sign(self):
        tilted = TiltedMMOO.from_tilt(PAPER, 0.02)
        r11, r12, r21, r22 = tilted.transition_log_ratios
        # the tilted chain favors entering and staying ON
        assert r12 < 0 and r22 < 0
        assert r11 > 0 and r21 > 0


class TestSolveLundbergTilt:
    def test_tilt_solves_effective_bandwidth_equation(self):
        n_flows, capacity = 600, 100.0
        s_star = solve_lundberg_tilt(PAPER, n_flows, capacity)
        assert n_flows * PAPER.effective_bandwidth(s_star) == pytest.approx(
            capacity, abs=1e-6
        )

    def test_tilted_drift_is_positive(self):
        s_star = solve_lundberg_tilt(PAPER, 600, 100.0)
        tilted = TiltedMMOO.from_tilt(PAPER, s_star)
        assert 600 * tilted.params.mean_rate > 100.0

    def test_peak_below_capacity_raises(self):
        with pytest.raises(ValueError, match="tail probability is zero"):
            solve_lundberg_tilt(PAPER, 10, 10 * PAPER.peak + 1.0)

    def test_unstable_system_raises(self):
        with pytest.raises(ValueError, match="unstable"):
            solve_lundberg_tilt(PAPER, 100, 100 * PAPER.mean_rate * 0.5)


class TestWindowTransitionCounts:
    @pytest.mark.parametrize("upto", [1, 7, 40])
    def test_counts_match_per_slot_reconstruction(self, upto):
        n_flows, n_slots = 8, 40
        rng = np.random.default_rng(3)
        flows, starts, ends = mmoo_on_intervals(PAPER, n_flows, n_slots, rng)
        # reconstruct the per-slot state matrix and count directly
        states = np.zeros((n_flows, n_slots), dtype=bool)
        for f, s, e in zip(flows, starts, ends):
            states[f, s:e] = True
        prev = states[:, : upto - 1]
        new = states[:, 1:upto]
        expected = (
            int(np.sum(~prev & ~new)),
            int(np.sum(~prev & new)),
            int(np.sum(prev & ~new)),
            int(np.sum(prev & new)),
        )
        assert window_transition_counts(starts, ends, n_flows, upto) == expected

    def test_full_horizon_counts_sum_to_pairs(self):
        n_flows, n_slots = 5, 30
        rng = np.random.default_rng(11)
        _, starts, ends = mmoo_on_intervals(PAPER, n_flows, n_slots, rng)
        counts = window_transition_counts(starts, ends, n_flows, n_slots)
        assert sum(counts) == n_flows * (n_slots - 1)


class TestLogLikelihoodRatio:
    def test_mean_weight_is_one(self):
        # E_Q[dP/dQ] = 1: sample under the tilted chain, weight back
        tilted = TiltedMMOO.from_tilt(PAPER, 0.05)
        n_flows, n_slots, n_paths = 5, 40, 4000
        rng = np.random.default_rng(7)
        weights = np.empty(n_paths)
        for k in range(n_paths):
            initial = rng.random(n_flows) < PAPER.on_probability
            _, starts, ends = mmoo_on_intervals(
                tilted.params, n_flows, n_slots, rng, initial_on=initial
            )
            weights[k] = math.exp(
                window_log_likelihood_ratio(
                    tilted, starts, ends, n_flows, n_slots
                )
            )
        standard_error = weights.std() / math.sqrt(n_paths)
        assert weights.mean() == pytest.approx(1.0, abs=4 * standard_error)

    def test_untilted_window_has_zero_llr(self):
        tilted = TiltedMMOO.from_tilt(PAPER, 0.05)
        empty = np.empty(0, dtype=np.int64)
        assert window_log_likelihood_ratio(tilted, empty, empty, 4, 1) == 0.0


class TestInitialOnSampling:
    def test_all_on_start_covers_slot_zero(self):
        rng = np.random.default_rng(0)
        n_flows = 6
        flows, starts, ends = mmoo_on_intervals(
            PAPER, n_flows, 20, rng, initial_on=np.ones(n_flows, dtype=bool)
        )
        on0 = states_at(flows, starts, ends, 0, n_flows)
        assert on0.all()

    def test_all_off_start_has_no_slot_zero_interval(self):
        rng = np.random.default_rng(0)
        n_flows = 6
        flows, starts, ends = mmoo_on_intervals(
            PAPER, n_flows, 20, rng, initial_on=np.zeros(n_flows, dtype=bool)
        )
        assert not states_at(flows, starts, ends, 0, n_flows).any()

    def test_wrong_shape_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="initial_on"):
            mmoo_on_intervals(
                PAPER, 4, 20, rng, initial_on=np.ones(3, dtype=bool)
            )


def _small_config(seed: int, slots: int = 400) -> SimulationConfig:
    return SimulationConfig(
        traffic=PAPER,
        n_through=SMALL_N,
        n_cross=SMALL_N,
        hops=1,
        capacity=SMALL_CAPACITY,
        slots=slots,
        scheduler="fifo",
        seed=seed,
        engine="vectorized",
    )


class TestSimulateTandemMmooRare:
    def test_deterministic_in_seed(self):
        first = simulate_tandem_mmoo_rare(_small_config(42), threshold=30.0)
        second = simulate_tandem_mmoo_rare(_small_config(42), threshold=30.0)
        assert first.log_weight == second.log_weight
        assert first.tau == second.tau
        assert (
            first.result.route_delays["through"].total_mass
            == second.result.route_delays["through"].total_mass
        )

    def test_both_engines_run(self):
        for engine in ("vectorized", "chunk"):
            config = replace(_small_config(1, slots=150), engine=engine)
            trial = simulate_tandem_mmoo_rare(config, threshold=10.0)
            assert math.isfinite(trial.log_weight)
            assert 0 <= trial.tau < config.slots

    def test_estimate_tail_matches_array_entry_point(self):
        trials = [
            simulate_tandem_mmoo_rare(_small_config(seed), threshold=25.0)
            for seed in range(5)
        ]
        whole = estimate_tail(trials, 25.0)
        parts = estimate_tail_from_arrays(
            [t.log_weight for t in trials],
            [
                t.result.route_delays["through"].exceed_fraction(25.0)
                for t in trials
            ],
        )
        assert whole == parts

    def test_default_margin_grows_with_hops(self):
        assert default_margin(1) == 2.0
        assert default_margin(4) == 5.0

    def test_suggest_rare_slots_scales_with_threshold(self):
        tilted = TiltedMMOO.from_tilt(
            PAPER, solve_lundberg_tilt(PAPER, 2 * SMALL_N, SMALL_CAPACITY)
        )
        short = suggest_rare_slots(tilted, 2 * SMALL_N, SMALL_CAPACITY, 10.0)
        long = suggest_rare_slots(tilted, 2 * SMALL_N, SMALL_CAPACITY, 60.0)
        assert long > short > 0


class TestUnbiasedness:
    """The acceptance-criterion cross-check: the weighted estimator
    agrees with naive Monte Carlo on a tail naive sampling can reach."""

    THRESHOLD = 40.0
    SLOTS = 400

    def test_importance_and_naive_confidence_intervals_overlap(self):
        naive_trials = 2500
        fractions = np.empty(naive_trials)
        for k in range(naive_trials):
            config = _small_config(900_000 + k, slots=self.SLOTS)
            delays = simulate_tandem_mmoo(config).route_delays["through"]
            fractions[k] = delays.exceed_fraction(self.THRESHOLD)
        p_naive = fractions.mean()
        se_naive = fractions.std() / math.sqrt(naive_trials)

        is_trials = 600
        trials = [
            simulate_tandem_mmoo_rare(
                _small_config(500_000 + k, slots=self.SLOTS),
                threshold=self.THRESHOLD,
            )
            for k in range(is_trials)
        ]
        estimate = estimate_tail(trials, self.THRESHOLD)

        assert p_naive > 0, "naive run saw no exceedances; deepen the seed"
        assert estimate.probability > 0
        # 95% intervals of the two estimators must overlap
        assert estimate.ci_low <= p_naive + 1.96 * se_naive
        assert estimate.ci_high >= p_naive - 1.96 * se_naive


class TestEstimateTailFromArrays:
    def test_plain_average_recovered(self):
        estimate = estimate_tail_from_arrays([0.0, 0.0], [0.2, 0.4])
        assert estimate.probability == pytest.approx(0.3)
        assert estimate.hit_rate == 1.0
        assert estimate.n_trials == 2

    def test_weights_scale_contributions(self):
        estimate = estimate_tail_from_arrays([math.log(0.5)], [0.4])
        assert estimate.probability == pytest.approx(0.2)

    def test_zero_fraction_ignores_weight_overflow(self):
        # a never-hit trial with a huge positive log weight must not
        # overflow: its contribution is exactly zero
        estimate = estimate_tail_from_arrays([800.0, 0.0], [0.0, 0.1])
        assert estimate.probability == pytest.approx(0.05)
        assert estimate.hit_rate == 0.5

    def test_degenerate_and_empty_inputs(self):
        with pytest.raises(ValueError):
            estimate_tail_from_arrays([], [])
        with pytest.raises(ValueError):
            estimate_tail_from_arrays([0.0], [0.1, 0.2])
        constant = estimate_tail_from_arrays([0.0, 0.0], [0.5, 0.5])
        assert constant.variance_reduction == math.inf

    def test_bootstrap_interval_brackets_estimate(self):
        rng = np.random.default_rng(5)
        log_weights = rng.normal(-2.0, 0.5, size=200)
        fractions = rng.random(200) * 0.1
        estimate = estimate_tail_from_arrays(log_weights, fractions)
        assert estimate.boot_ci_low <= estimate.probability
        assert estimate.boot_ci_high >= estimate.probability
        assert isinstance(estimate, RareEstimate)
        assert estimate.rel_half_width > 0


class TestRareEstimateProperties:
    def test_rel_half_width_infinite_at_zero(self):
        estimate = estimate_tail_from_arrays([0.0, 0.0], [0.0, 0.0])
        assert estimate.probability == 0.0
        assert estimate.rel_half_width == math.inf
        assert estimate.hit_rate == 0.0


class TestAggregateHelpers:
    def test_intervals_to_aggregate_matches_direct_sampler(self):
        # same rng stream, same path: the refactored scatter is identical
        rng1 = np.random.default_rng(9)
        rng2 = np.random.default_rng(9)
        direct = mmoo_aggregate_arrivals(PAPER, 7, 60, rng1)
        from repro.arrivals.processes import intervals_to_aggregate

        _, starts, ends = mmoo_on_intervals(PAPER, 7, 60, rng2)
        rebuilt = intervals_to_aggregate(starts, ends, 60, PAPER.peak)
        np.testing.assert_array_equal(direct, rebuilt)
