"""The compiled Eq. (38) solve, probe and additive refinement match
their oracles.

:func:`repro.network.vectorized.batched_solve_exact` runs its lanes in
:func:`repro.network.cprobe.solve_exact` (the slope sweep of
:func:`repro.network.optimization.solve_exact`, in C) whenever the
kernel loads and the path has at most
:data:`~repro.network.cprobe.MAX_HOPS` hops; the numpy body, which
enumerates every breakpoint, stays as the fallback.  These properties
compare the two byte for byte (``tobytes()``) on the awkward inputs:
NaN, infinite, negative and zero ``sigma``, saturated hops, ``Delta`` of
``+0.0`` and ``-0.0``, and homogeneous paths whose hops share their
breakpoints.  ``delay`` must match on every lane; ``x`` and ``thetas``
on every lane the saturation mask keeps (no saturated hop, no negative
cross rate, finite ``sigma >= 0``), since a masked lane's ``x`` is
whatever its algorithm stopped at.  The compiled probe is held to
:func:`repro.network.vectorized._e2e_probe` at drawn points, and
:func:`repro.network.cprobe.additive_golden` to
:func:`repro.utils.numeric.golden_section_min` over
:func:`repro.network.vectorized._additive_probe`, raised exceptions
included.  Without a C compiler both sides run the Python bodies and
the properties hold trivially.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import obs
from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network import cprobe
from repro.network.e2e import mmoo_ebb_pair
from repro.network.optimization import _EPS
from repro.network.vectorized import (
    _additive_probe,
    _e2e_probe,
    batched_solve_exact,
    optimize_gamma_additive,
)
from repro.utils.numeric import golden_section_min

CASES = ("ninf", "pinf", "le0", "mid")

finite_rates = st.floats(min_value=-5.0, max_value=200.0, allow_nan=False)
sigmas = st.one_of(
    st.floats(min_value=0.0, max_value=1e4),
    st.sampled_from(
        [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300]
    ),
)


def _deltas(case):
    if case == "ninf":
        return st.just(-math.inf)
    if case == "pinf":
        return st.just(math.inf)
    if case == "le0":
        return st.one_of(
            st.sampled_from([0.0, -0.0]),
            st.floats(min_value=-100.0, max_value=0.0),
        )
    return st.floats(min_value=1e-6, max_value=100.0)


@st.composite
def solve_inputs(draw, max_hops=64):
    """One ``batched_solve_exact`` call in one of its calling shapes."""
    case = draw(st.sampled_from(CASES))
    hops = draw(st.integers(min_value=1, max_value=max_hops))
    lanes = draw(st.integers(min_value=1, max_value=4))
    layout = draw(st.sampled_from(["grid", "random", "homogeneous"]))
    if layout == "grid":
        # the figures' rows: R_h = C - h * gamma, one r per lane
        capacity = draw(st.floats(min_value=1.0, max_value=200.0))
        gamma = draw(st.lists(
            st.floats(min_value=0.0, max_value=5.0), min_size=lanes,
            max_size=lanes,
        ))
        r_svc = capacity - np.arange(hops)[None, :] * np.array(gamma)[:, None]
    else:
        r_svc = np.array(draw(st.lists(
            finite_rates, min_size=lanes * hops, max_size=lanes * hops,
        ))).reshape(lanes, hops)
        if layout == "homogeneous":
            # equal breakpoints on every hop of a lane
            r_svc = np.repeat(r_svc[:, :1], hops, axis=1)
    r_cross = np.array(draw(st.lists(
        finite_rates, min_size=lanes, max_size=lanes,
    )))[:, None]
    sigma = np.array(draw(st.lists(sigmas, min_size=lanes, max_size=lanes)))
    if draw(st.booleans()):
        delta = draw(_deltas(case))  # a scalar fixes the case itself
        return r_svc, r_cross, delta, sigma, None
    delta_rows = np.array(draw(st.lists(
        _deltas(case), min_size=lanes, max_size=lanes,
    )))[:, None]
    return (
        r_svc, r_cross, np.broadcast_to(delta_rows, r_svc.shape), sigma, case,
    )


def _bytes(result):
    return tuple(np.asarray(part).tobytes() for part in result)


def _numpy_path():
    return mock.patch.object(cprobe.KERNEL, "load", lambda: None)


def _kept(r_svc, r_cross, delta, sigma):
    """Lanes the saturation mask keeps: no saturated hop (``R <= r``
    outside ``Delta = -inf``, or ``R <= 0``), no negative cross rate and
    a finite ``sigma >= 0``."""
    r_svc, r_cross, delta = np.broadcast_arrays(
        np.asarray(r_svc, dtype=float), r_cross, delta
    )
    saturated = ((r_svc <= r_cross + _EPS) & ~np.isneginf(delta)) | (
        r_svc <= 0.0
    ) | (r_cross < 0.0)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=float), r_svc.shape[:-1])
    return ~saturated.any(axis=-1) & np.isfinite(sigma) & (sigma >= 0.0)


def _assert_solves_match(args, case):
    """C lanes against the numpy body: delay bytes on every lane, ``x``
    and thetas on the kept ones."""
    got = batched_solve_exact(*args, case=case)
    with _numpy_path():
        want = batched_solve_exact(*args, case=case)
    assert [np.shape(p) for p in got] == [np.shape(p) for p in want]
    assert got[0].tobytes() == want[0].tobytes()
    kept = _kept(*args)
    assert got[1][kept].tobytes() == want[1][kept].tobytes()
    assert got[2][kept].tobytes() == want[2][kept].tobytes()
    return got


@given(solve_inputs())
def test_solve_exact_bytes_match_numpy(inputs):
    r_svc, r_cross, delta, sigma, case = inputs
    _assert_solves_match((r_svc, r_cross, delta, sigma), case)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("hops", [1, 2, 10, 64])
def test_solve_exact_every_case_and_zero_delta(case, hops):
    """Seeded corner grid: ±0 Delta, zero sigma, saturated last hop."""
    deltas = {
        "ninf": [-math.inf], "pinf": [math.inf], "le0": [0.0, -0.0, -3.0],
        "mid": [0.5, 40.0],
    }[case]
    g = np.linspace(0.0, 0.3, 5)
    r_svc = 20.0 - np.arange(hops)[None, :] * g[:, None]
    r_svc[-1, -1] = 1.0  # saturated: R <= r
    r_cross = (2.0 + g)[:, None]
    sigma = np.array([0.0, -0.0, 3.5, 1e3, math.nan])
    for delta in deltas:
        rows = np.broadcast_to(np.full((5, 1), delta), r_svc.shape)
        for args in ((delta, None), (rows, case)):
            got = _assert_solves_match(
                (r_svc, r_cross, args[0], sigma), args[1]
            )
            assert math.isinf(got[0][-1])


def test_solve_exact_above_max_hops_takes_numpy_path():
    hops = cprobe.MAX_HOPS + 1
    r_svc = 50.0 - 0.01 * np.arange(hops)[None, :]
    # Delta = -inf: one breakpoint per hop keeps the numpy arrays small
    args = (r_svc, 3.0, -math.inf, np.array([10.0]))
    with obs.scoped() as registry:
        got = batched_solve_exact(*args)
    assert registry.counter("cprobe.fallbacks") == 1
    with _numpy_path():
        want = batched_solve_exact(*args)
    assert _bytes(got) == _bytes(want)


def test_solve_exact_empty_hop_axis_raises():
    """No hop: the scalar solver's error, before any kernel is asked."""
    with obs.scoped() as registry:
        with pytest.raises(ValueError, match="need at least one hop"):
            batched_solve_exact(np.ones((3, 0)), 1.0, -1.0, np.ones(3))
    assert registry.counter("cprobe.fallbacks") == 0


def test_solve_exact_rejects_mismatched_arrays():
    r_svc = np.full((3, 4), 10.0)
    good = (r_svc, np.ones((3, 4)), np.full((3, 4), -1.0), np.ones(3))
    for pos, bad in [
        (1, np.ones((3, 5))),
        (2, np.full((2, 4), -1.0)),
        (3, np.ones(4)),
        (3, np.ones(3, dtype=np.float32)),
    ]:
        args = list(good)
        args[pos] = bad
        with pytest.raises(ValueError):
            cprobe.solve_exact(*args, "le0")


def test_solve_exact_fallbacks_counted():
    r_svc = np.full((3, 4), 10.0)
    with obs.scoped() as compiled:
        batched_solve_exact(r_svc, 1.0, -1.0, np.ones(3))
    with _numpy_path(), obs.scoped() as fallback:
        batched_solve_exact(r_svc, 1.0, -1.0, np.ones(3))
    with obs.scoped() as inferred:
        # an array Delta without a case: its one case is read off it
        batched_solve_exact(r_svc, 1.0, np.full((3, 4), -1.0), np.ones(3))
    assert fallback.counter("cprobe.fallbacks") == 3
    if cprobe.available():
        assert compiled.counter("cprobe.fallbacks") == 0
        assert inferred.counter("cprobe.fallbacks") == 0


@st.composite
def probe_inputs(draw):
    """A probe context and a few γ, some beyond the Eq. (32) headroom."""
    through, cross = mmoo_ebb_pair(
        MMOOParameters.paper_defaults(),
        draw(st.integers(min_value=1, max_value=200)),
        draw(st.integers(min_value=0, max_value=200)),
        draw(st.floats(min_value=1e-4, max_value=0.5)),
    )
    hops = draw(st.integers(min_value=1, max_value=64))
    delta = draw(st.one_of(
        st.sampled_from([-math.inf, -0.0, 0.0, math.inf]),
        st.floats(min_value=-200.0, max_value=200.0),
    ))
    epsilon = draw(st.sampled_from([1e-3, 1e-9, 1e-12]))
    gamma_max = max(100.0 - cross.rate - through.rate, 1e-3) / (hops + 1)
    gammas = draw(st.lists(
        st.floats(min_value=1e-7, max_value=1.2), min_size=1, max_size=4,
    ))
    context = (through, cross, hops, 100.0, delta, epsilon)
    return context, [f * gamma_max for f in gammas]


@given(probe_inputs())
def test_probe_matches_python(inputs):
    context, gammas = inputs
    table = cprobe.ProbeTable()
    index = table.add(*context)
    got = cprobe.probe_values(table, [index] * len(gammas), gammas)
    want = np.array([_e2e_probe(*context, g) for g in gammas])
    assert got.tobytes() == want.tobytes()


# --------------------------------------------------------------------- #
# additive golden refinement
# --------------------------------------------------------------------- #


def _ebbs():
    return st.builds(
        EBB,
        prefactor=st.floats(min_value=1.0, max_value=1e6),
        rate=st.floats(min_value=1e-3, max_value=60.0),
        decay=st.floats(min_value=1e-4, max_value=5.0),
    )


@st.composite
def additive_inputs(draw):
    through, cross = draw(_ebbs()), draw(_ebbs())
    hops = draw(st.integers(min_value=1, max_value=64))
    headroom = draw(st.floats(min_value=-1.0, max_value=100.0))
    capacity = cross.rate + through.rate + headroom
    # epsilon = 0 makes the Python probe raise ZeroDivisionError
    epsilon = draw(st.sampled_from([1e-3, 1e-9, 1e-300, 1.0, 10.0, 0.0]))
    # mostly inside the feasible range (0, headroom / (hops + 1)),
    # sometimes past it or reversed (golden_section_min raises)
    top = max(headroom, 1e-3) / (hops + 1)
    lo = draw(st.floats(min_value=-0.1, max_value=1.0)) * top
    hi = lo + draw(st.floats(min_value=-0.1, max_value=1.5)) * top
    return through, cross, hops, capacity, epsilon, lo, hi


def _python_golden(through, cross, hops, capacity, epsilon, lo, hi):
    try:
        return golden_section_min(
            lambda g: _additive_probe(
                through, cross, hops, capacity, epsilon, g
            ),
            lo, hi, tol=1e-9,
        )
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@given(additive_inputs())
def test_additive_golden_matches_python(inputs):
    want = _python_golden(*inputs)
    try:
        got = cprobe.additive_golden(*inputs)
    except (ArithmeticError, ValueError) as exc:
        got = type(exc)
    if isinstance(want, type):
        assert got is want
    else:
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("hops", [1, 2, 10, 64])
@pytest.mark.parametrize("flows", [4, 18, 33])
def test_optimize_gamma_additive_matches_python(hops, flows):
    """Fig. 4-shaped refinements, C against the Python loop."""
    through, cross = mmoo_ebb_pair(
        MMOOParameters.paper_defaults(), flows, flows, 0.05
    )
    args = (through, cross, hops, 100.0, 1e-9)
    with obs.scoped() as compiled:
        got = optimize_gamma_additive(*args, gamma_grid=12)
    with _numpy_path(), obs.scoped() as registry:
        want = optimize_gamma_additive(*args, gamma_grid=12)
    assert np.array(got).tobytes() == np.array(want).tobytes()
    assert registry.counter("cprobe.fallbacks") == 1
    # the C refinement keeps golden_section_min's counters
    for name in ("numeric.golden_calls", "numeric.golden_iterations"):
        assert compiled.counter(name) == registry.counter(name)
    assert compiled.counter("numeric.golden_calls") == 1
    assert compiled.counter("numeric.golden_iterations") > 0


def test_additive_golden_above_max_hops_takes_python_path():
    through = cross = EBB(prefactor=10.0, rate=5.0, decay=0.5)
    hops = cprobe.MAX_HOPS + 1
    args = (through, cross, hops, 100.0, 1e-6, 1e-4, 0.05)
    with obs.scoped() as registry:
        got = cprobe.additive_golden(*args)
    assert registry.counter("cprobe.fallbacks") == 1
    assert got == _python_golden(*args)
