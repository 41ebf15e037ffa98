"""The compiled γ grid matches its Python body byte for byte.

:func:`repro.network.vectorized.e2e_delay_grid_rows` evaluates its
points in :func:`repro.network.cprobe.grid_rows` whenever the kernel
loads and the path has at most :data:`~repro.network.cprobe.MAX_HOPS`
hops; :func:`repro.network.vectorized._grid_rows_python` is the
fallback.  Both use the probe's own σ
(:func:`~repro.network.vectorized._sigma_raw`, libm in C and ``math`` in
Python) and closed forms, so the properties here compare them by
``tobytes()``: the kernel's raw outputs (delays, or σ and the Eq. (38)
rates) and the finished rows, in every Δ case, on paths of 1-64 hops,
with γ up to and past the Eq. (32) headroom, for MMOO pairs (the
``n_cross = 0`` placeholder included) and free EBBs, and with ε values
that drive σ negative or NaN.  The same draws check the compiled probe
(its event sort included) against
:func:`~repro.network.vectorized._e2e_probe`.  On the grids the lane
engine builds (MMOO pairs, the log grid inside the Eq. (32) headroom,
ε < 1) every grid point is also the probe at its γ, byte for byte, in C
and in Python.  Without a C compiler both sides of the C-versus-Python
properties run the Python bodies and hold trivially.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro import obs
from repro.arrivals.ebb import EBB
from repro.arrivals.mmoo import MMOOParameters
from repro.network import cprobe
from repro.network.e2e import mmoo_ebb_pair
from repro.network.vectorized import (
    _e2e_probe,
    _grid_rows_python,
    e2e_delay_grid,
    e2e_delay_grid_rows,
)
from repro.utils.numeric import logspace

#: Eq. (38) case -> per-row Δ; "fifo" is Δ = ±0, which takes Eq. (44).
DELTAS = {
    "pinf": st.just(math.inf),
    "fifo": st.sampled_from([0.0, -0.0]),
    "le0": st.floats(min_value=-100.0, max_value=-1e-9),
    "mid": st.floats(min_value=1e-6, max_value=100.0),
    "ninf": st.just(-math.inf),
}


def _python_path():
    return mock.patch.object(cprobe.KERNEL, "load", lambda: None)


@st.composite
def _pair(draw):
    """A (through, cross) pair: MMOO aggregates or free EBBs."""
    if draw(st.booleans()):
        return mmoo_ebb_pair(
            MMOOParameters.paper_defaults(),
            draw(st.integers(min_value=1, max_value=300)),
            draw(st.integers(min_value=0, max_value=400)),  # 0: placeholder
            draw(st.floats(min_value=1e-4, max_value=0.5)),
        )
    ebbs = st.builds(
        EBB,
        prefactor=st.floats(min_value=1.0, max_value=1e6),
        rate=st.floats(min_value=1e-3, max_value=60.0),
        decay=st.floats(min_value=1e-4, max_value=5.0),
    )
    return draw(ebbs), draw(ebbs)


@st.composite
def grid_inputs(draw):
    """One ``e2e_delay_grid_rows`` call: lanes of one case, their γ rows
    spread up to and past each lane's Eq. (32) headroom."""
    case = draw(st.sampled_from(sorted(DELTAS)))
    hops = draw(st.integers(min_value=1, max_value=64))
    lanes = draw(st.integers(min_value=1, max_value=4))
    grid = draw(st.integers(min_value=1, max_value=12))
    capacity = draw(st.floats(min_value=1.0, max_value=200.0))
    # past the valid range too: epsilon > 1 makes sigma negative before
    # its clamp, NaN makes it NaN (a dead point on the grid, 0 in the probe)
    epsilon = draw(st.sampled_from([1e-3, 1e-6, 1e-9, 10.0, 1e12, math.nan]))
    throughs, crosses, deltas, rows = [], [], [], []
    for _ in range(lanes):
        through, cross = draw(_pair())
        throughs.append(through)
        crosses.append(cross)
        deltas.append(draw(DELTAS[case]))
        headroom = capacity - cross.rate - through.rate
        top = max(headroom, 1e-3) / (hops + 1)
        fraction = st.one_of(
            st.floats(min_value=0.0, max_value=1.5),
            st.sampled_from([0.0, 1e-300, 1.0]),  # 1.0: at the headroom
        )
        rows.append([
            draw(fraction) * top for _ in range(grid)
        ])
    return throughs, crosses, hops, capacity, deltas, epsilon, np.array(rows)


@given(grid_inputs())
def test_grid_rows_bytes_match_python(inputs):
    throughs, crosses, hops, capacity, deltas, epsilon, gammas = inputs
    got = e2e_delay_grid_rows(*inputs)
    with _python_path():
        want = e2e_delay_grid_rows(*inputs)
    assert got.tobytes() == want.tobytes()
    assert got.shape == want.shape == gammas.shape

    # the kernel's own outputs: delays, or sigma and the Eq. (38) rates
    form = {math.inf: "bmux", 0.0: "fifo"}.get(deltas[0], "exact")
    args = (throughs, crosses, hops, capacity, epsilon, gammas, form)
    raw = cprobe.grid_rows(*args)
    if raw is not None:
        for part, oracle in zip(raw, _grid_rows_python(*args)):
            assert np.asarray(part).tobytes() == np.asarray(oracle).tobytes()

    # one row alone is the same row
    for i, row in enumerate(got):
        alone = e2e_delay_grid(
            throughs[i], crosses[i], hops, capacity, deltas[i], epsilon,
            gammas[i],
        )
        assert alone.tobytes() == row.tobytes()

    # the compiled probe at the same points (the event sort included)
    table = cprobe.ProbeTable()
    indices, points, expected = [], [], []
    for i, (through, cross) in enumerate(zip(throughs, crosses)):
        index = table.add(through, cross, hops, capacity, deltas[i], epsilon)
        for gamma in gammas[i].tolist():
            indices.append(index)
            points.append(gamma)
            expected.append(_e2e_probe(
                through, cross, hops, capacity, deltas[i], epsilon, gamma
            ))
    probed = cprobe.probe_values(table, indices, points)
    assert probed.tobytes() == np.array(expected).tobytes()


def _fig2_lanes(delta, lanes=3, grid=12, hops=10):
    """Fig. 2-shaped lanes: 100 through flows, rising cross load."""
    traffic = MMOOParameters.paper_defaults()
    pairs = [mmoo_ebb_pair(traffic, 100, 100 + 80 * i, 0.02)
             for i in range(lanes)]
    rows = []
    for through, cross in pairs:
        top = (100.0 - cross.rate - through.rate) / (hops + 1)
        rows.append(np.geomspace(top * 1e-6, top * (1.0 - 1e-9), grid))
    return (
        [p[0] for p in pairs], [p[1] for p in pairs], hops, 100.0,
        [delta] * lanes, 1e-9, np.array(rows),
    )


@pytest.mark.parametrize(
    "delta, fallbacks",
    [(0.0, 3), (math.inf, 3), (-20.0, 3 + 3 * 12), (5.0, 3 + 3 * 12)],
)
def test_fallback_rows_counted(delta, fallbacks):
    """One per row the Python grid serves; the exact rows' numpy solve
    adds one per point."""
    args = _fig2_lanes(delta)
    with obs.scoped() as compiled:
        got = e2e_delay_grid_rows(*args)
    with _python_path(), obs.scoped() as registry:
        want = e2e_delay_grid_rows(*args)
    assert got.tobytes() == want.tobytes()
    assert np.isfinite(got).all()
    assert registry.counter("cprobe.fallbacks") == fallbacks
    if cprobe.available():
        assert compiled.counter("cprobe.fallbacks") == 0


def test_above_max_hops_takes_python_path():
    through, cross = mmoo_ebb_pair(
        MMOOParameters.paper_defaults(), 10, 10, 0.05
    )
    hops = cprobe.MAX_HOPS + 1
    args = (
        [through], [cross], hops, 100.0, [0.0], 1e-9,
        np.array([[1e-4, 1e-3, 0.02]]),
    )
    with obs.scoped() as registry:
        got = e2e_delay_grid_rows(*args)
    assert registry.counter("cprobe.fallbacks") == 1
    with _python_path():
        want = e2e_delay_grid_rows(*args)
    assert got.tobytes() == want.tobytes()


def test_mixed_cases_rejected():
    args = list(_fig2_lanes(0.0, lanes=2))
    args[4] = [0.0, -3.0]  # FIFO beside an exact-solve row
    with pytest.raises(ValueError, match="delta == 0"):
        e2e_delay_grid_rows(*args)
    args[4] = [math.inf, -3.0]
    with pytest.raises(ValueError, match="one Eq. \\(38\\) case"):
        e2e_delay_grid_rows(*args)


@st.composite
def engine_grids(draw):
    """γ grid rows as the lane engine builds them: MMOO pairs of one
    case's lanes, each over its ``grid_then_golden`` log grid."""
    case = draw(st.sampled_from(sorted(DELTAS)))
    hops = draw(st.integers(min_value=1, max_value=64))
    grid = draw(st.integers(min_value=3, max_value=24))
    capacity = draw(st.floats(min_value=50.0, max_value=200.0))
    epsilon = draw(st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12]))
    traffic = MMOOParameters(
        peak=draw(st.floats(min_value=1.0, max_value=2.0)),
        p11=draw(st.floats(min_value=0.95, max_value=0.995)),
        p22=draw(st.floats(min_value=0.85, max_value=0.95)),
    )
    throughs, crosses, deltas, rows = [], [], [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        through, cross = mmoo_ebb_pair(
            traffic,
            draw(st.integers(min_value=1, max_value=200)),
            draw(st.integers(min_value=0, max_value=200)),
            draw(st.floats(min_value=1e-4, max_value=0.5)),
        )
        headroom = capacity - cross.rate - through.rate
        assume(headroom > 0.0)
        top = headroom / (hops + 1)
        throughs.append(through)
        crosses.append(cross)
        deltas.append(draw(DELTAS[case]))
        rows.append(logspace(top * 1e-6, top * (1.0 - 1e-9), grid))
    return throughs, crosses, hops, capacity, deltas, epsilon, np.array(rows)


@given(engine_grids())
def test_engine_grid_points_equal_probe_bytes(inputs):
    """Every point of an engine γ grid row holds the probe's bytes at
    that γ, in C and in the Python bodies: the value a search takes from
    the grid is the probe's."""
    throughs, crosses, hops, capacity, deltas, epsilon, gammas = inputs
    table = cprobe.ProbeTable()
    indices = [
        table.add(through, cross, hops, capacity, delta, epsilon)
        for through, cross, delta in zip(throughs, crosses, deltas)
    ]
    lanes, grid = gammas.shape
    points = [index for index in indices for _ in range(grid)]
    for path in (contextlib.nullcontext, _python_path):
        with path():
            rows = e2e_delay_grid_rows(*inputs)
            probed = cprobe.probe_values(table, points, gammas.ravel())
        assert rows.tobytes() == probed.tobytes()
