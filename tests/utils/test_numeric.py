"""Tests for the scalar optimization helpers."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.numeric import (
    bisect_increasing,
    golden_section_min,
    grid_then_golden,
    logspace,
    refine_grid_minimum,
    weighted_union_bound_constant,
)


class TestBisect:
    def test_linear(self):
        assert bisect_increasing(lambda x: 2 * x, 6.0, 0.0, 10.0) == pytest.approx(3.0)

    def test_target_at_low(self):
        assert bisect_increasing(lambda x: x, -1.0, 0.0, 10.0) == 0.0

    def test_unbracketed_raises(self):
        with pytest.raises(ValueError):
            bisect_increasing(lambda x: x, 100.0, 0.0, 10.0)

    @given(st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, target):
        f = lambda x: x**3
        x = bisect_increasing(f, target, 0.0, 4.0)
        assert f(x) == pytest.approx(target, rel=1e-6)


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section_min(lambda x: (x - 2.5) ** 2 + 1.0, 0.0, 10.0)
        assert x == pytest.approx(2.5, abs=1e-6)
        assert fx == pytest.approx(1.0, abs=1e-9)

    def test_boundary_minimum(self):
        x, _ = golden_section_min(lambda x: x, 1.0, 5.0)
        assert x == pytest.approx(1.0, abs=1e-5)

    def test_empty_bracket_raises(self):
        with pytest.raises(ValueError):
            golden_section_min(lambda x: x, 5.0, 1.0)


class TestGridThenGolden:
    def test_multimodal_finds_global(self):
        # two local minima; grid scan must land in the right basin
        f = lambda x: min((x - 1.0) ** 2 + 0.5, (x - 8.0) ** 2)
        x, fx = grid_then_golden(f, 0.0, 10.0, grid_points=41)
        assert x == pytest.approx(8.0, abs=1e-5)
        assert fx == pytest.approx(0.0, abs=1e-8)

    def test_handles_infeasible_regions(self):
        f = lambda x: (x - 3.0) ** 2 if x > 1.0 else math.inf
        x, fx = grid_then_golden(f, 0.0, 10.0, grid_points=21)
        assert x == pytest.approx(3.0, abs=1e-5)

    def test_log_spaced(self):
        f = lambda x: (math.log10(x) + 2.0) ** 2  # min at x = 0.01
        x, _ = grid_then_golden(f, 1e-4, 1.0, grid_points=33, log_spaced=True)
        assert x == pytest.approx(0.01, rel=1e-3)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            grid_then_golden(lambda x: x, 0.0, 1.0, grid_points=2)
        with pytest.raises(ValueError):
            grid_then_golden(lambda x: x, 0.0, 1.0, log_spaced=True)


def _golden(f):
    """The refinement ``grid_then_golden`` hands to ``refine_grid_minimum``."""
    return lambda lo, hi: golden_section_min(f, lo, hi)


class TestRefineGridMinimum:
    def test_refines_within_bracketing_cells(self):
        f = lambda x: (x - 2.6) ** 2
        xs = [0.0, 1.0, 2.0, 3.0, 4.0]
        x, fx = refine_grid_minimum(_golden(f), xs, [f(x) for x in xs])
        assert x == pytest.approx(2.6, abs=1e-6)
        assert fx == pytest.approx(0.0, abs=1e-9)

    def test_matches_grid_then_golden_tail(self):
        f = lambda x: min((x - 1.0) ** 2 + 0.5, (x - 8.0) ** 2)
        xs = [10.0 * i / 40.0 for i in range(41)]
        expected = grid_then_golden(f, 0.0, 10.0, grid_points=41)
        assert refine_grid_minimum(_golden(f), xs, [f(x) for x in xs]) == expected

    def test_nonfinite_best_returned_unrefined(self):
        # an all-infeasible grid must pass inf through, not call golden
        xs = [1.0, 2.0, 3.0]
        x, fx = refine_grid_minimum(_golden(lambda x: math.inf), xs, [math.inf] * 3)
        assert x == 1.0
        assert math.isinf(fx)

    def test_keeps_grid_point_when_refinement_no_better(self):
        # fs deliberately below func: refinement cannot improve on fs[best]
        xs = [0.0, 1.0, 2.0]
        x, fx = refine_grid_minimum(_golden(lambda x: 5.0), xs, [3.0, 1.0, 3.0])
        assert (x, fx) == (1.0, 1.0)

    def test_boundary_minimum_brackets_one_sided(self):
        f = lambda x: x
        xs = [0.0, 1.0, 2.0]
        x, fx = refine_grid_minimum(_golden(f), xs, [f(x) for x in xs])
        assert x == pytest.approx(0.0, abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            refine_grid_minimum(_golden(lambda x: x), [1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            refine_grid_minimum(_golden(lambda x: x), [], [])


class TestUnionBoundConstant:
    def test_single_term_identity(self):
        m, a = weighted_union_bound_constant([2.0], [3.0])
        # inf over a single sigma_1 = sigma is just M e^{-alpha sigma}
        assert a == pytest.approx(3.0)
        assert m == pytest.approx(2.0)

    def test_matches_brute_force_two_terms(self):
        # the infimum is over *unconstrained* splits sigma_1 + sigma_2 =
        # sigma (exponential bounding functions stay valid for negative
        # arguments, where they exceed 1)
        m1, a1, m2, a2 = 2.0, 1.0, 5.0, 3.0
        m, a = weighted_union_bound_constant([m1, m2], [a1, a2])
        for sigma in (0.5, 1.0, 4.0, 10.0):
            lo, hi = -10.0, sigma + 10.0
            brute = min(
                m1 * math.exp(-a1 * s1) + m2 * math.exp(-a2 * (sigma - s1))
                for s1 in [lo + (hi - lo) * j / 20000.0 for j in range(20001)]
            )
            assert m * math.exp(-a * sigma) == pytest.approx(brute, rel=1e-5)

    def test_recovers_paper_eq_34(self):
        # combining one envelope with prefactor M/(1-q) and H-1 convolved
        # terms with prefactor M/(1-q)^2, all with rate alpha, must give the
        # paper's Eq. (34): M H / (1-q)^((2H-1)/H) * exp(-alpha sigma / H)
        alpha, gamma, big_m, h = 0.7, 0.3, 1.0, 5
        q = math.exp(-alpha * gamma)
        prefactors = [big_m / (1 - q)] + [big_m / (1 - q) ** 2] * (h - 1)
        rates = [alpha] * h
        m, a = weighted_union_bound_constant(prefactors, rates)
        assert a == pytest.approx(alpha / h)
        assert m == pytest.approx(big_m * h / (1 - q) ** ((2 * h - 1) / h))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            weighted_union_bound_constant([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            weighted_union_bound_constant([], [])
        with pytest.raises(ValueError):
            weighted_union_bound_constant([1.0], [-1.0])
        with pytest.raises(ValueError):
            weighted_union_bound_constant([0.0], [1.0])

    @given(
        st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=4),
        st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=4),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_is_a_lower_bound_on_any_split(self, ms, rates, sigma):
        n = min(len(ms), len(rates))
        ms, rates = ms[:n], rates[:n]
        m, a = weighted_union_bound_constant(ms, rates)
        combined = m * math.exp(-a * sigma)
        # the even split is one admissible split; the infimum cannot exceed it
        even = sum(
            mj * math.exp(-rj * sigma / n) for mj, rj in zip(ms, rates)
        )
        assert combined <= even * (1 + 1e-9)


class TestLogspace:
    def test_endpoints(self):
        pts = logspace(0.1, 10.0, 5)
        assert pts[0] == pytest.approx(0.1)
        assert pts[-1] == pytest.approx(10.0)
        assert len(pts) == 5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            logspace(0.0, 1.0, 3)
