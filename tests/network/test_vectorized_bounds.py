"""Randomized cross-validation of the vectorized bound kernels.

Every kernel in :mod:`repro.network.vectorized` mirrors the scalar
implementation's floating-point expression trees; these tests pin that
equivalence on seeded randomized grids covering every ``Delta`` case
(``-inf``, ``< 0``, ``0``, ``> 0``, ``+inf``), path lengths up to 32,
and mixed rates — plus the infeasible edges, where the kernels return
``inf`` for lanes on which the scalar constructors raise.
"""

import math
import random

import numpy as np
import pytest

from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network.backlog import e2e_backlog_bound, e2e_backlog_bound_mmoo
from repro.network.e2e import (
    check_backend,
    e2e_delay_bound,
    e2e_delay_bound_at_gamma,
    e2e_delay_bound_mmoo,
    sigma_for_epsilon,
)
from repro.network.optimization import (
    HopParameters,
    solve_exact,
    theta_for_x,
)
from repro.network.pernode import (
    additive_pernode_delay_bound,
    additive_pernode_delay_bound_mmoo,
)
from repro.network.vectorized import (
    batched_sigma_for_epsilon,
    batched_solve_exact,
    batched_theta_for_x,
    e2e_delay_grid,
    solve_exact_fast,
)
from tests.network import reference_search

REL_TOL = 1e-9
DELTA_CASES = (-math.inf, -2.5, 0.0, 0.7, math.inf)


def rel_diff(a: float, b: float) -> float:
    if math.isinf(a) and math.isinf(b):
        return 0.0
    return abs(a - b) / max(1.0, abs(b))


def random_hops(
    rng: random.Random, hops: int, delta: float
) -> list[HopParameters]:
    """Well-posed heterogeneous hop parameters (no saturation)."""
    return [
        HopParameters(
            service_rate=(r := rng.uniform(0.5, 20.0)) + rng.uniform(0.5, 50.0),
            cross_rate=r,
            delta=delta,
        )
        for _ in range(hops)
    ]


class TestBatchedThetaForX:
    def test_matches_scalar_on_all_cases(self):
        rng = random.Random(101)
        for delta in DELTA_CASES:
            hops = [random_hops(rng, 8, delta) for _ in range(16)]
            sigmas = [rng.choice([0.0, rng.uniform(0.01, 40.0)]) for _ in hops]
            xs = [rng.choice([0.0, rng.uniform(0.0, 10.0)]) for _ in hops]
            batched = batched_theta_for_x(
                np.array([[h.service_rate for h in lane] for lane in hops]),
                np.array([[h.cross_rate for h in lane] for lane in hops]),
                delta,
                np.array(sigmas)[:, None],
                np.array(xs)[:, None],
            )
            for i, lane in enumerate(hops):
                for j, hop in enumerate(lane):
                    expected = theta_for_x(hop, sigmas[i], xs[i])
                    assert batched[i, j] == expected, (delta, i, j)

    def test_broadcasts(self):
        out = batched_theta_for_x(10.0, 2.0, 0.0, [[1.0], [2.0]], [0.0, 1.0])
        assert out.shape == (2, 2)


class TestBatchedSolveExact:
    def test_matches_scalar_over_random_grid(self):
        rng = random.Random(202)
        for delta in DELTA_CASES:
            for _ in range(25):
                h = rng.randint(1, 32)
                lane = random_hops(rng, h, delta)
                sigma = rng.choice([0.0, rng.uniform(0.01, 60.0)])
                delay, x, thetas = batched_solve_exact(
                    np.array([h.service_rate for h in lane]),
                    np.array([h.cross_rate for h in lane]),
                    delta,
                    sigma,
                )
                expected = solve_exact(lane, sigma)
                assert rel_diff(float(delay), expected.delay) <= REL_TOL
                assert rel_diff(float(x), expected.x) <= REL_TOL

    def test_saturated_lane_is_inf(self):
        # scalar HopParameters raises on R <= r; the kernel masks to inf
        delay, _, _ = batched_solve_exact(
            np.array([[10.0, 5.0]]), np.array([[2.0, 5.0]]), 0.0, [1.0]
        )
        assert math.isinf(float(delay[0]))
        with pytest.raises(ValueError):
            HopParameters(service_rate=5.0, cross_rate=5.0, delta=0.0)

    def test_negative_sigma_lane_is_inf(self):
        delay, _, _ = batched_solve_exact(
            np.array([[10.0]]), np.array([[2.0]]), 0.0, [-1.0]
        )
        assert math.isinf(float(delay[0]))


class TestSolveExactFast:
    def test_bitwise_equal_to_solve_exact(self):
        rng = random.Random(7)
        for _ in range(300):
            delta = rng.choice(DELTA_CASES)
            lane = random_hops(rng, rng.randint(1, 32), delta)
            sigma = rng.choice([0.0, rng.uniform(0.01, 60.0)])
            fast = solve_exact_fast(lane, sigma)
            exact = solve_exact(lane, sigma)
            assert fast.delay == exact.delay
            assert fast.x == exact.x
            assert fast.thetas == exact.thetas


class TestBatchedSigma:
    def test_matches_scalar_chain(self):
        rng = random.Random(303)
        for hops in (1, 2, 5, 17):
            through = EBB(rng.uniform(1.0, 40.0), rng.uniform(0.5, 4.0),
                          rng.uniform(0.2, 3.0))
            cross = EBB(rng.uniform(1.0, 40.0), rng.uniform(0.5, 4.0),
                        rng.uniform(0.2, 3.0))
            gammas = np.array([rng.uniform(1e-4, 2.0) for _ in range(12)])
            batch = batched_sigma_for_epsilon(
                through, cross, hops, gammas, 1e-9
            )
            for g, got in zip(gammas, batch):
                expected = sigma_for_epsilon(
                    through, [cross] * hops, float(g), 1e-9
                )
                assert rel_diff(float(got), expected) <= REL_TOL

    def test_underflow_lane_is_inf(self):
        # decay * gamma underflows to 0: scalar sample_path_bound raises,
        # the batched kernel returns inf for the affected lane only
        through = EBB(2.0, 1.0, 1e-200)
        cross = EBB(2.0, 1.0, 1e-200)
        batch = batched_sigma_for_epsilon(
            through, cross, 3, np.array([1e-200, 1.0]), 1e-9
        )
        assert math.isinf(float(batch[0]))
        with pytest.raises(ValueError):
            sigma_for_epsilon(through, [cross] * 3, 1e-200, 1e-9)
        # the second lane does not underflow — the scalar chain returns
        # inf (vanishing decay) rather than raising, and the lane matches
        assert math.isinf(float(batch[1]))
        assert math.isinf(sigma_for_epsilon(through, [cross] * 3, 1.0, 1e-9))


class TestE2EGridAgainstScalar:
    def test_grid_matches_at_gamma_objective(self):
        rng = random.Random(404)
        for delta in DELTA_CASES:
            through = EBB(3.0, 2.0, 1.1)
            cross = EBB(4.0, 5.0, 0.9)
            capacity = 40.0
            hops = rng.randint(1, 12)
            gmax = (capacity - cross.rate - through.rate) / (hops + 1)
            gammas = np.array(
                [rng.uniform(gmax * 1e-5, gmax * 0.999) for _ in range(20)]
            )
            grid = e2e_delay_grid(
                through, cross, hops, capacity, delta, 1e-9, gammas
            )
            for g, got in zip(gammas, grid):
                expected = e2e_delay_bound_at_gamma(
                    through, cross, hops, capacity, delta, 1e-9, float(g)
                ).delay
                assert rel_diff(float(got), expected) <= REL_TOL, (delta, g)

    def test_infeasible_cells_are_inf_on_both_paths(self):
        through = EBB(3.0, 2.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        # gamma beyond the Eq. (32) headroom: scalar returns _INFEASIBLE
        grid = e2e_delay_grid(
            through, cross, 4, 10.0, 0.0, 1e-9, np.array([5.0])
        )
        assert math.isinf(float(grid[0]))
        scalar = e2e_delay_bound_at_gamma(
            through, cross, 4, 10.0, 0.0, 1e-9, 5.0
        )
        assert math.isinf(scalar.delay)


class TestBackendsAgree:
    def test_e2e_delay_bound_sweep(self):
        for hops in (1, 2, 4, 8, 16, 32):
            for delta in DELTA_CASES:
                through = EBB(3.0, 2.0, 1.1)
                cross = EBB(4.0, 5.0, 0.9)
                scalar = e2e_delay_bound(
                    through, cross, hops, 60.0, delta, 1e-9,
                    gamma_grid=16, backend="scalar",
                )
                vec = e2e_delay_bound(
                    through, cross, hops, 60.0, delta, 1e-9,
                    gamma_grid=16, backend="numpy",
                )
                assert rel_diff(vec.delay, scalar.delay) <= REL_TOL
                # at a flat minimum the two searches may settle on gammas
                # a few ulps apart; the bound agrees to 1e-9, sigma looser
                assert rel_diff(vec.sigma, scalar.sigma) <= 1e-6

    def test_e2e_overloaded_is_infeasible_on_both(self):
        through = EBB(3.0, 8.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        for backend in ("scalar", "numpy"):
            result = e2e_delay_bound(
                through, cross, 3, 10.0, 0.0, 1e-9, backend=backend
            )
            assert not result.feasible

    def test_mmoo_cells(self):
        traffic = MMOOParameters(peak=1.5, p11=0.989, p22=0.9)
        for delta in (0.0, math.inf, -2.5):
            scalar = e2e_delay_bound_mmoo(
                traffic, 20, 40, 3, 20.0, delta, 1e-6,
                s_grid=8, gamma_grid=8, backend="scalar",
            )
            vec = e2e_delay_bound_mmoo(
                traffic, 20, 40, 3, 20.0, delta, 1e-6,
                s_grid=8, gamma_grid=8, backend="numpy",
            )
            assert rel_diff(vec.delay, scalar.delay) <= REL_TOL, delta

    def test_additive(self):
        through = EBB(3.0, 2.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        for hops in (1, 3, 8):
            scalar = additive_pernode_delay_bound(
                through, cross, hops, 60.0, 1e-9, backend="scalar"
            )
            vec = additive_pernode_delay_bound(
                through, cross, hops, 60.0, 1e-9, backend="numpy"
            )
            assert rel_diff(vec.delay, scalar.delay) <= REL_TOL

    def test_additive_mmoo(self):
        traffic = MMOOParameters(peak=1.5, p11=0.989, p22=0.9)
        scalar = additive_pernode_delay_bound_mmoo(
            traffic, 20, 20, 3, 20.0, 1e-6,
            s_grid=6, gamma_grid=6, backend="scalar",
        )
        vec = additive_pernode_delay_bound_mmoo(
            traffic, 20, 20, 3, 20.0, 1e-6,
            s_grid=6, gamma_grid=6, backend="numpy",
        )
        assert rel_diff(vec.delay, scalar.delay) <= REL_TOL

    def test_backlog(self):
        through = EBB(3.0, 2.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        for delta in (0.0, math.inf):
            scalar = e2e_backlog_bound(
                through, cross, 3, 60.0, delta, 1e-9,
                gamma_grid=8, backend="scalar",
            )
            vec = e2e_backlog_bound(
                through, cross, 3, 60.0, delta, 1e-9,
                gamma_grid=8, backend="numpy",
            )
            assert rel_diff(vec.backlog, scalar.backlog) <= REL_TOL

    def test_backlog_mmoo(self):
        traffic = MMOOParameters(peak=1.5, p11=0.989, p22=0.9)
        scalar = e2e_backlog_bound_mmoo(
            traffic, 20, 40, 2, 20.0, 0.0, 1e-6,
            s_grid=4, gamma_grid=4, backend="scalar",
        )
        vec = e2e_backlog_bound_mmoo(
            traffic, 20, 40, 2, 20.0, 0.0, 1e-6,
            s_grid=4, gamma_grid=4, backend="numpy",
        )
        assert rel_diff(vec.backlog, scalar.backlog) <= REL_TOL


class TestGammaSearchMatchesReference:
    def test_numpy_search_bitwise_equals_reference(self):
        """The numpy gamma search runs as one lane-engine gamma chain;
        it must return the reference grid-then-probe search's result
        bitwise."""
        rng = random.Random(11)
        for _ in range(60):
            through = EBB(
                rng.uniform(1.0, 5.0), rng.uniform(0.1, 2.0),
                rng.uniform(0.01, 2.0),
            )
            cross = EBB(
                rng.uniform(1.0, 5.0), rng.uniform(0.1, 5.0),
                rng.uniform(0.01, 3.0),
            )
            args = (
                through, cross, rng.choice((1, 2, 5, 10, 30)), 10.0,
                rng.choice(DELTA_CASES), rng.choice((1e-3, 1e-6, 1e-9)),
            )
            got = e2e_delay_bound(*args, gamma_grid=16)
            want = reference_search.e2e_delay_bound(*args, gamma_grid=16)
            assert got == want, args


class TestBackendValidation:
    def test_check_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            check_backend("cupy")

    def test_entry_points_reject_unknown_backend(self):
        through = EBB(3.0, 2.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        with pytest.raises(ValueError, match="unknown backend"):
            e2e_delay_bound(
                through, cross, 2, 60.0, 0.0, 1e-9, backend="bogus"
            )
        with pytest.raises(ValueError, match="unknown backend"):
            additive_pernode_delay_bound(
                through, cross, 2, 60.0, 1e-9, backend="bogus"
            )
        with pytest.raises(ValueError, match="unknown backend"):
            e2e_backlog_bound(
                through, cross, 2, 60.0, 0.0, 1e-9, backend="bogus"
            )
