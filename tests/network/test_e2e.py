"""Tests for the end-to-end delay-bound API (Section IV)."""

import math
import warnings

import pytest

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network.e2e import (
    FixedPointError,
    e2e_delay_bound,
    e2e_delay_bound_at_gamma,
    e2e_delay_bound_edf,
    e2e_delay_bound_mmoo,
    mmoo_ebb_pair,
    sigma_for_epsilon,
)

THROUGH = EBB(1.0, 10.0, 0.7)
CROSS = EBB(1.0, 40.0, 0.7)
C = 100.0


class TestSigmaForEpsilon:
    def test_matches_paper_closed_form(self):
        # Pr{W >= d} = M(H+1)/(1-q)^{2H/(H+1)} e^{-alpha sigma/(H+1)}
        for h in (1, 2, 5, 10):
            gamma, eps = 0.3, 1e-9
            sigma = sigma_for_epsilon(THROUGH, [CROSS] * h, gamma, eps)
            q = math.exp(-0.7 * gamma)
            prefactor = (h + 1) / (1.0 - q) ** (2 * h / (h + 1))
            closed = (h + 1) / 0.7 * math.log(prefactor / eps)
            assert sigma == pytest.approx(closed, rel=1e-12)

    def test_monotone_in_epsilon_and_hops(self):
        gamma = 0.3
        s1 = sigma_for_epsilon(THROUGH, [CROSS] * 3, gamma, 1e-6)
        s2 = sigma_for_epsilon(THROUGH, [CROSS] * 3, gamma, 1e-9)
        s3 = sigma_for_epsilon(THROUGH, [CROSS] * 6, gamma, 1e-9)
        assert s1 < s2 < s3

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ValueError):
            sigma_for_epsilon(THROUGH, [CROSS], 0.3, 0.0)


class TestFixedGamma:
    def test_infeasible_gamma(self):
        # Eq. (32) violated: gamma too large
        r = e2e_delay_bound_at_gamma(THROUGH, CROSS, 5, C, 0.0, 1e-9, 10.0)
        assert not r.feasible

    def test_scheduler_ordering(self):
        gamma = 0.3
        d_edf = e2e_delay_bound_at_gamma(THROUGH, CROSS, 5, C, -5.0, 1e-9, gamma)
        d_fifo = e2e_delay_bound_at_gamma(THROUGH, CROSS, 5, C, 0.0, 1e-9, gamma)
        d_bmux = e2e_delay_bound_at_gamma(
            THROUGH, CROSS, 5, C, math.inf, 1e-9, gamma
        )
        assert d_edf.delay <= d_fifo.delay <= d_bmux.delay

    def test_result_consistency(self):
        r = e2e_delay_bound_at_gamma(THROUGH, CROSS, 4, C, 0.0, 1e-9, 0.3)
        assert r.delay == pytest.approx(r.x + sum(r.thetas))
        assert r.gamma == 0.3
        assert r.alpha == THROUGH.decay


class TestGammaOptimization:
    def test_optimized_no_worse_than_fixed(self):
        opt = e2e_delay_bound(THROUGH, CROSS, 5, C, 0.0, 1e-9)
        for gamma in (0.05, 0.3, 1.0, 3.0):
            fixed = e2e_delay_bound_at_gamma(
                THROUGH, CROSS, 5, C, 0.0, 1e-9, gamma
            )
            assert opt.delay <= fixed.delay * (1 + 1e-6)

    def test_overloaded_is_infeasible(self):
        heavy = EBB(1.0, 95.0, 0.7)
        r = e2e_delay_bound(THROUGH, heavy, 3, C, 0.0, 1e-9)
        assert not r.feasible

    def test_monotone_in_hops(self):
        delays = [
            e2e_delay_bound(THROUGH, CROSS, h, C, 0.0, 1e-9).delay
            for h in (1, 3, 6, 10)
        ]
        assert all(b > a for a, b in zip(delays, delays[1:]))

    def test_paper_method_close_to_exact(self):
        exact = e2e_delay_bound(THROUGH, CROSS, 6, C, 0.0, 1e-9, method="exact")
        paper = e2e_delay_bound(THROUGH, CROSS, 6, C, 0.0, 1e-9, method="paper")
        assert paper.delay >= exact.delay - 1e-9
        assert paper.delay <= exact.delay * 1.02

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            e2e_delay_bound(THROUGH, CROSS, 2, C, 0.0, 1e-9, method="bogus")


class TestMMOO:
    TRAFFIC = MMOOParameters.paper_defaults()

    def test_headline_finding_fifo_approaches_bmux(self):
        """The paper's central observation: FIFO ~ BMUX on long paths."""
        n0, nc = 100, 236  # U = 50% at U0 = 15%
        gap = []
        for hops in (2, 10):
            bm = e2e_delay_bound_mmoo(
                self.TRAFFIC, n0, nc, hops, C, math.inf, 1e-9,
                s_grid=12, gamma_grid=12,
            )
            ff = e2e_delay_bound_mmoo(
                self.TRAFFIC, n0, nc, hops, C, 0.0, 1e-9,
                s_grid=12, gamma_grid=12,
            )
            assert ff.delay <= bm.delay * (1 + 1e-9)
            gap.append((bm.delay - ff.delay) / bm.delay)
        # relative FIFO-vs-BMUX gap shrinks with path length
        assert gap[1] < gap[0]
        assert gap[1] < 0.02  # indistinguishable at H = 10

    def test_monotone_in_utilization(self):
        n0 = 100
        delays = []
        for nc in (100, 236, 420):
            r = e2e_delay_bound_mmoo(
                self.TRAFFIC, n0, nc, 3, C, 0.0, 1e-9, s_grid=10, gamma_grid=10
            )
            delays.append(r.delay)
        assert all(b > a for a, b in zip(delays, delays[1:]))

    def test_no_cross_traffic(self):
        r = e2e_delay_bound_mmoo(
            self.TRAFFIC, 100, 0, 3, C, 0.0, 1e-9, s_grid=10, gamma_grid=10
        )
        assert r.feasible
        assert r.delay > 0

    def test_saturated_is_infeasible(self):
        # (N0 + Nc) * 0.1486 >= 100
        r = e2e_delay_bound_mmoo(self.TRAFFIC, 400, 300, 2, C, 0.0, 1e-9)
        assert not r.feasible

    def test_grids_below_three_points_rejected(self):
        """The lane engine takes the grids its ``grid_then_golden``
        oracle takes: at least three points."""
        for grids in ({"s_grid": 2}, {"gamma_grid": 2}):
            (name,) = grids
            with pytest.raises(ValueError, match=name):
                e2e_delay_bound_mmoo(
                    self.TRAFFIC, 100, 236, 2, C, 0.0, 1e-9, **grids
                )
            with pytest.raises(ValueError, match=name):
                e2e_delay_bound_edf(
                    self.TRAFFIC, 100, 236, 2, C, 1e-9, **grids
                )

    def test_ebb_pair_computes_eb_once(self, monkeypatch):
        """The pair equals two `MMOOParameters.ebb` calls, built from one
        effective-bandwidth evaluation."""
        s = 0.013
        expected = (self.TRAFFIC.ebb(100, s), self.TRAFFIC.ebb(236, s))
        calls = []
        real = MMOOParameters.effective_bandwidth
        monkeypatch.setattr(
            MMOOParameters, "effective_bandwidth",
            lambda traffic, x: calls.append(x) or real(traffic, x),
        )
        assert mmoo_ebb_pair(self.TRAFFIC, 100, 236, s) == expected
        assert calls == [s]
        assert mmoo_ebb_pair(self.TRAFFIC, 100, 0, s)[1] == EBB(1.0, 1e-12, s)
        with pytest.raises(ValueError, match="n_flows"):
            mmoo_ebb_pair(self.TRAFFIC, 0, 236, s)


class TestEDFFixedPoint:
    TRAFFIC = MMOOParameters.paper_defaults()

    def test_favored_edf_beats_fifo(self):
        n0, nc, hops = 100, 236, 5
        fifo = e2e_delay_bound_mmoo(
            self.TRAFFIC, n0, nc, hops, C, 0.0, 1e-9, s_grid=10, gamma_grid=10
        )
        edf, delta = e2e_delay_bound_edf(
            self.TRAFFIC, n0, nc, hops, C, 1e-9,
            s_grid=10, gamma_grid=10,
        )
        assert edf.feasible
        assert delta < 0  # through deadlines are tighter
        assert edf.delay < fifo.delay
        # fixed-point consistency: delta = (w0 - wc) d / H = -9 d / H
        assert delta == pytest.approx(-9.0 * edf.delay / hops, rel=2e-2)

    def test_penalizing_weights_exceed_fifo(self):
        n0, nc, hops = 100, 236, 3
        fifo = e2e_delay_bound_mmoo(
            self.TRAFFIC, n0, nc, hops, C, 0.0, 1e-9, s_grid=10, gamma_grid=10
        )
        edf, delta = e2e_delay_bound_edf(
            self.TRAFFIC, n0, nc, hops, C, 1e-9,
            deadline_weight_through=2.0, deadline_weight_cross=1.0,
            s_grid=10, gamma_grid=10,
        )
        assert delta > 0
        assert edf.delay >= fifo.delay * (1 - 1e-6)

    def test_diagnostics_on_convergence(self):
        bound = e2e_delay_bound_edf(
            self.TRAFFIC, 100, 236, 5, C, 1e-9, s_grid=10, gamma_grid=10,
        )
        diag = bound.diagnostics
        assert diag.converged
        assert diag.iterations >= 1
        assert diag.residual <= 1e-4  # met the default tolerance
        assert diag.wall_time_s > 0.0
        # the named fields match tuple unpacking
        result, delta = bound
        assert result is bound.result
        assert delta == bound.delta

    def test_nonconvergence_warns_and_flags(self):
        with pytest.warns(RuntimeWarning, match="did not converge"):
            bound = e2e_delay_bound_edf(
                self.TRAFFIC, 100, 236, 5, C, 1e-9,
                s_grid=8, gamma_grid=8, max_iter=1,
            )
        assert not bound.diagnostics.converged
        assert bound.diagnostics.iterations == 1
        assert bound.diagnostics.residual > 1e-4

    def test_nonconvergence_raise_policy(self):
        with pytest.raises(FixedPointError, match="residual"):
            e2e_delay_bound_edf(
                self.TRAFFIC, 100, 236, 5, C, 1e-9,
                s_grid=8, gamma_grid=8, max_iter=1,
                on_nonconvergence="raise",
            )

    def test_nonconvergence_ignore_policy(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = e2e_delay_bound_edf(
                self.TRAFFIC, 100, 236, 5, C, 1e-9,
                s_grid=8, gamma_grid=8, max_iter=1,
                on_nonconvergence="ignore",
            )
        assert not bound.diagnostics.converged

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            e2e_delay_bound_edf(
                self.TRAFFIC, 100, 236, 5, C, 1e-9,
                on_nonconvergence="explode",
            )
