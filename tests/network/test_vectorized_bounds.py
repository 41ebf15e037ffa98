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
from repro.network.e2e import (
    check_backend,
    e2e_delay_bound,
    e2e_delay_bound_at_gamma,
    e2e_delay_bound_mmoo,
    sigma_for_epsilon,
)
from repro.network.optimization import (
    HopParameters,
    homogeneous_hops,
    solve_exact,
    theta_for_x,
)
from repro.network.pernode import (
    additive_pernode_delay_bound,
    additive_pernode_delay_bound_mmoo,
)
from repro.network.vectorized import (
    _delta_case,
    _e2e_probe,
    _sigma_raw,
    _theta_case_kernel,
    batched_solve_exact,
    e2e_delay_grid,
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
        """The numpy Eq. (38) theta of each case is ``theta_for_x``
        bitwise, hop by hop."""
        rng = random.Random(101)
        for delta in DELTA_CASES:
            hops = [random_hops(rng, 8, delta) for _ in range(16)]
            sigmas = [rng.choice([0.0, rng.uniform(0.01, 40.0)]) for _ in hops]
            xs = [rng.choice([0.0, rng.uniform(0.0, 10.0)]) for _ in hops]
            batched = _theta_case_kernel(
                _delta_case(delta),
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

    def test_mixed_delta_cases_raise(self):
        # one solve runs one Eq. (38) case; le0 and mid lanes must not mix
        with pytest.raises(ValueError, match="one Eq. \\(38\\) case"):
            batched_solve_exact(
                np.full((2, 3), 10.0), 2.0, np.array([[-1.0], [1.0]]),
                [1.0, 1.0],
            )

    def test_negative_cross_rate_lane_is_inf(self):
        # HopParameters rejects a negative cross rate; on both paths the
        # lane is masked (slopes of 1e17 would swamp the sweep's window)
        args = (
            np.array([[3.0e-16, 6.5e-16, 2.6e-16, 10.96]]),
            np.array([[-22.4]]), 2.0, [62.3],
        )
        delay, _, _ = batched_solve_exact(*args)
        assert math.isinf(float(delay[0]))
        with pytest.raises(ValueError):
            HopParameters(service_rate=10.0, cross_rate=-1.0, delta=2.0)

    def test_negative_sigma_lane_is_inf(self):
        delay, _, _ = batched_solve_exact(
            np.array([[10.0]]), np.array([[2.0]]), 0.0, [-1.0]
        )
        assert math.isinf(float(delay[0]))


def _lane(rng: random.Random, hops: int) -> list[HopParameters]:
    """One Eq. (38) input of a drawn shape: per-hop rates with one Delta,
    the homogeneous triples of the probe, per-hop Delta of mixed cases
    (a heterogeneous route), or hops within 1e-3 of saturation."""
    delta = rng.choice(DELTA_CASES)
    shape = rng.choice(["rates", "homogeneous", "mixed", "near-saturated"])
    if shape == "rates":
        return random_hops(rng, hops, delta)
    if shape == "homogeneous":
        # the probe's triples (C - k gamma, rho + gamma, Delta)
        capacity = rng.uniform(10.0, 100.0)
        rho = rng.uniform(0.0, capacity / 2)
        gamma = rng.uniform(1e-6, 1.0) * (capacity - rho) / (hops + 1)
        return homogeneous_hops(hops, capacity, gamma, rho, delta)
    lane = []
    for hop in random_hops(rng, hops, delta):
        r_svc = hop.service_rate
        if shape == "near-saturated":
            slack = rng.choice([1e-9, 1e-6, 1e-3])
            r_svc = hop.cross_rate * (1.0 + slack) + 1e-11
        else:
            delta = rng.choice(DELTA_CASES + (-0.0, -40.0, 1e-3, 55.0))
        lane.append(HopParameters(r_svc, hop.cross_rate, delta))
    return lane


def _solution_bytes(solution) -> bytes:
    return np.array([solution.delay, solution.x, *solution.thetas]).tobytes()


class TestSolveExactFast:
    """The O(H log H) slope sweep of ``solve_exact`` against the
    breakpoint enumeration it replaced, bitwise in delay, x and thetas."""

    SIGMAS = (0.0, 1e-8, 1e8)

    def _check(self, lane, sigma):
        got = solve_exact(lane, sigma)
        want = reference_search.solve_exact_enumerated(lane, sigma)
        assert _solution_bytes(got) == _solution_bytes(want), (lane, sigma)

    def test_bitwise_equal_to_enumeration(self):
        rng = random.Random(7)
        for _ in range(600):
            lane = _lane(rng, rng.randint(1, 64))
            sigma = rng.choice(
                self.SIGMAS
                + (rng.uniform(0.01, 60.0), 10.0 ** rng.uniform(-8.0, 8.0))
            )
            self._check(lane, sigma)

    def test_long_paths(self):
        rng = random.Random(8)
        for _ in range(6):
            lane = _lane(rng, rng.randint(100, 256))
            self._check(lane, rng.choice(self.SIGMAS[1:]))

    def test_probe_takes_the_same_sweep(self):
        """``_e2e_probe`` returns the scalar solve's delay at its sigma."""
        through, cross = EBB(3.0, 2.0, 1.1), EBB(4.0, 5.0, 0.9)
        for delta in (-math.inf, -2.5, 0.7):
            for gamma in (1e-3, 0.1, 0.5):
                sigma = max(0.0, _sigma_raw(through, cross, 6, gamma, 1e-9))
                lane = homogeneous_hops(6, 40.0, gamma, cross.rate, delta)
                assert _e2e_probe(
                    through, cross, 6, 40.0, delta, 1e-9, gamma
                ) == solve_exact(lane, sigma).delay


class TestBatchedSigma:
    """The probe's ``sigma`` against the scalar ``sigma_for_epsilon``.

    ``_sigma_raw`` inverts at ``epsilon`` as ``log(M / eps) / alpha``,
    the scalar chain as ``(log M - log eps) / alpha``, so they may differ
    in the last bits; they are held to 1e-15 relative.
    """

    def test_matches_scalar_chain(self):
        rng = random.Random(303)
        for hops in (1, 2, 5, 17):
            through = EBB(rng.uniform(1.0, 40.0), rng.uniform(0.5, 4.0),
                          rng.uniform(0.2, 3.0))
            cross = EBB(rng.uniform(1.0, 40.0), rng.uniform(0.5, 4.0),
                        rng.uniform(0.2, 3.0))
            for _ in range(12):
                g = rng.uniform(1e-4, 2.0)
                eps = rng.choice([1e-3, 1e-6, 1e-9])
                got = max(0.0, _sigma_raw(through, cross, hops, g, eps))
                expected = sigma_for_epsilon(through, [cross] * hops, g, eps)
                assert abs(got - expected) <= 1e-15 * abs(expected)

    def test_underflow_lane_is_inf(self):
        # decay * gamma underflows to 0: scalar sample_path_bound raises,
        # the probe's sigma is inf
        through = EBB(2.0, 1.0, 1e-200)
        cross = EBB(2.0, 1.0, 1e-200)
        assert math.isinf(_sigma_raw(through, cross, 3, 1e-200, 1e-9))
        with pytest.raises(ValueError):
            sigma_for_epsilon(through, [cross] * 3, 1e-200, 1e-9)
        # at gamma = 1 nothing underflows — the scalar chain returns inf
        # (vanishing decay) rather than raising, and so does the probe's
        assert math.isinf(_sigma_raw(through, cross, 3, 1.0, 1e-9))
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
                # every gamma probe through the exact scalar objective
                scalar = reference_search.e2e_delay_bound(
                    through, cross, hops, 60.0, delta, 1e-9,
                    gamma_grid=16, backend="scalar",
                )
                vec = e2e_delay_bound(
                    through, cross, hops, 60.0, delta, 1e-9, gamma_grid=16
                )
                assert rel_diff(vec.delay, scalar.delay) <= REL_TOL
                # at a flat minimum the two searches may settle on gammas
                # a few ulps apart; the bound agrees to 1e-9, sigma looser
                assert rel_diff(vec.sigma, scalar.sigma) <= 1e-6

    def test_e2e_overloaded_is_infeasible_on_both(self):
        through = EBB(3.0, 8.0, 1.1)
        cross = EBB(4.0, 5.0, 0.9)
        for method in ("exact", "paper"):
            result = e2e_delay_bound(
                through, cross, 3, 10.0, 0.0, 1e-9, method=method
            )
            assert not result.feasible

    def test_mmoo_cells(self):
        traffic = MMOOParameters(peak=1.5, p11=0.989, p22=0.9)
        for delta in (0.0, math.inf, -2.5):
            # every gamma probe through the exact scalar objective
            scalar = reference_search.e2e_delay_bound_mmoo(
                traffic, 20, 40, 3, 20.0, delta, 1e-6,
                s_grid=8, gamma_grid=8, backend="scalar",
            )
            vec = e2e_delay_bound_mmoo(
                traffic, 20, 40, 3, 20.0, delta, 1e-6,
                s_grid=8, gamma_grid=8,
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
            additive_pernode_delay_bound(
                through, cross, 2, 60.0, 1e-9, backend="bogus"
            )
