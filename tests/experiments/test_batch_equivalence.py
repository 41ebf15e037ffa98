"""The lane engine against the reference search, and batched sweeps
against per-cell ones.

Randomized grids over the schedulers (FIFO / BMUX / EDF / SP) and path
lengths ``H in {1, 2, 10, 30}``.  Checked at two levels:

* the lane API (:mod:`repro.network.lanes`) against the plain nested
  search of ``tests/network/reference_search.py`` — bitwise against its
  numpy search (same delay/gamma/alpha/sigma doubles, and for EDF the
  same fixed-point iteration counts, residuals and convergence flags),
  1e-9 relative against its scalar search, whose exact scalar objective
  differs from the engine's compiled probes in the last bits;
* the full sweep pipeline (``run_sweep(batch=True)`` vs. the per-cell
  path, including cache interchangeability), bitwise.
"""

import math
import random

import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.experiments.config import SCHEDULER_MAP
from repro.experiments.example1 import fig2_spec
from repro.experiments.example2 import fig3_spec
from repro.experiments.example3 import fig4_spec
from repro.experiments.sweep import run_sweep
from repro.experiments.validation import validation_spec
from repro.network.lanes import (
    EDFLaneSpec,
    LaneSpec,
    edf_bound_lanes,
    mmoo_bound_lanes,
)
from tests.network.reference_search import (
    e2e_delay_bound_edf,
    e2e_delay_bound_mmoo,
)

HOPS = (1, 2, 10, 30)
#: The reference search's two ``gamma`` searches.
BACKENDS = ("numpy", "scalar")

#: Analysis Delta per scheduler (FIFO=0, BMUX=+inf, SP=-inf; EDF runs
#: through its own fixed-point driver below).
DELTA_SCHEDULERS = {
    name: delta
    for name, (_, delta, _) in SCHEDULER_MAP.items()
    if name != "EDF"
}


def _random_case(rng):
    traffic = MMOOParameters(
        peak=rng.uniform(1.2, 1.8),
        p11=rng.uniform(0.97, 0.995),
        p22=rng.uniform(0.85, 0.95),
    )
    n_through = rng.randint(1, 300)
    n_cross = rng.randint(0, 300)
    epsilon = rng.choice((1e-3, 1e-6, 1e-9))
    return traffic, n_through, n_cross, epsilon


#: Agreement with the reference search: exact against its numpy search;
#: against its scalar one, the bound to 1e-9 relative and the
#: optimizer's coordinates (gamma, sigma, x, thetas) to 1e-6, since
#: last-bit noise in a flat objective moves its argmin by ~sqrt(ulp).
REL_TOL = {"numpy": (0.0, 0.0), "scalar": (1e-9, 1e-6)}


def _close(got, want, rel):
    if rel == 0.0 or not (math.isfinite(got) and math.isfinite(want)):
        return got == want
    return abs(got - want) <= rel * max(1.0, abs(want))


def _assert_results_equal(got, want, context, tols=(0.0, 0.0)):
    rel, coord_rel = tols
    assert _close(got.delay, want.delay, rel), context
    assert _close(got.alpha, want.alpha, coord_rel), context
    assert _close(got.gamma, want.gamma, coord_rel), context
    assert _close(got.sigma, want.sigma, coord_rel), context
    assert _close(got.x, want.x, coord_rel), context
    assert len(got.thetas) == len(want.thetas), context
    for a, b in zip(got.thetas, want.thetas):
        assert _close(a, b, coord_rel), context
    assert got.method == want.method, context


@pytest.mark.parametrize("backend", BACKENDS)
def test_mmoo_lanes_match_scalar_randomized(backend):
    rng = random.Random(42 if backend == "numpy" else 43)
    specs, wants, contexts = [], [], []
    for scheduler, delta in DELTA_SCHEDULERS.items():
        for hops in HOPS:
            traffic, n_through, n_cross, epsilon = _random_case(rng)
            specs.append(
                LaneSpec(
                    traffic, n_through, n_cross, hops, 100.0, delta,
                    epsilon, s_grid=8, gamma_grid=8,
                )
            )
            wants.append(
                e2e_delay_bound_mmoo(
                    traffic, n_through, n_cross, hops, 100.0, delta,
                    epsilon, s_grid=8, gamma_grid=8, backend=backend,
                )
            )
            contexts.append((scheduler, hops, n_through, n_cross))
    results = mmoo_bound_lanes(specs)
    assert len(results) == len(wants)
    for got, want, context in zip(results, wants, contexts):
        _assert_results_equal(got, want, context, REL_TOL[backend])


@pytest.mark.parametrize("backend", BACKENDS)
def test_edf_lanes_match_scalar_randomized(backend):
    rng = random.Random(1 if backend == "numpy" else 2)
    specs, wants, contexts = [], [], []
    for hops in HOPS:
        traffic, n_through, n_cross, epsilon = _random_case(rng)
        w_through = rng.choice((1.0, 2.0))
        w_cross = rng.choice((1.0, 10.0))
        kwargs = dict(
            deadline_weight_through=w_through,
            deadline_weight_cross=w_cross,
            s_grid=8, gamma_grid=8, on_nonconvergence="ignore",
        )
        specs.append(
            EDFLaneSpec(
                traffic, n_through, n_cross, hops, 100.0, epsilon,
                **kwargs,
            )
        )
        wants.append(
            e2e_delay_bound_edf(
                traffic, n_through, n_cross, hops, 100.0, epsilon,
                backend=backend, **kwargs,
            )
        )
        contexts.append((hops, w_through, w_cross))
    results = edf_bound_lanes(specs)
    rel, _ = tols = REL_TOL[backend]
    for got, want, context in zip(results, wants, contexts):
        _assert_results_equal(got.result, want.result, context, tols)
        assert _close(got.delta, want.delta, rel), context
        assert got.diagnostics.iterations == want.diagnostics.iterations, (
            context
        )
        assert got.diagnostics.converged == want.diagnostics.converged, (
            context
        )
        # the residual is a relative step: an ulp in the bound moves it
        # by ~1e-16 absolute
        assert _close(
            got.diagnostics.residual, want.diagnostics.residual,
            rel if rel == 0.0 else 1e-12,
        ), context


def test_edf_lanes_bisect_s_max_once_per_geometry(monkeypatch):
    """The s_max bisection runs once per bootstrap group, not once per
    lane per fixed-point iteration, and the bounds do not move."""
    from repro.network import lanes

    traffic = MMOOParameters.paper_defaults()
    specs = [
        EDFLaneSpec(
            traffic, 300, 300, hops, 100.0, 1e-9,
            deadline_weight_cross=w_cross, s_grid=8, gamma_grid=8,
        )
        for hops in (2, 5)
        for w_cross in (5.0, 10.0)
    ]
    want = edf_bound_lanes(specs)
    calls = []
    original = lanes._max_feasible_s

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lanes, "_max_feasible_s", counting)
    got = edf_bound_lanes(specs)
    assert len(calls) == 2  # one per hop count; weights share a group
    assert sum(b.diagnostics.iterations for b in got) > len(specs)
    for g, w in zip(got, want):
        assert g.result.delay == w.result.delay
        assert g.delta == w.delta
        assert g.diagnostics.iterations == w.diagnostics.iterations


def test_mmoo_lanes_infeasible_lane():
    """An overloaded lane returns the infeasible sentinel, like scalar."""
    traffic = MMOOParameters.paper_defaults()
    spec = LaneSpec(traffic, 400, 400, 2, 100.0, 0.0, 1e-9,
                    s_grid=8, gamma_grid=8)
    (got,) = mmoo_bound_lanes([spec])
    want = e2e_delay_bound_mmoo(
        traffic, 400, 400, 2, 100.0, 0.0, 1e-9, s_grid=8, gamma_grid=8
    )
    assert math.isinf(got.delay) and math.isinf(want.delay)
    assert not got.feasible


def _strip(payload):
    out = dict(payload)
    out.pop("wall_time_s", None)
    out.pop("metrics", None)
    return out


@pytest.mark.parametrize(
    "spec",
    [
        fig2_spec(utilizations=(0.35, 0.80), hops=(2,)),
        fig3_spec(mixes=(0.3,), hops=(5,)),
        fig4_spec(utilizations=(0.5,), hops=(2,), backend="scalar"),
        validation_spec(
            schedulers=("FIFO", "BMUX", "EDF", "SP"), hops=(1,), slots=500
        ),
    ],
    ids=["fig2", "fig3", "fig4-scalar", "validation-sp"],
)
def test_run_sweep_batched_matches_per_cell(spec):
    plain = run_sweep(spec)
    batched = run_sweep(spec, batch=True)
    assert plain.rows == batched.rows
    for a, b in zip(plain.cells, batched.cells):
        assert a.rows == b.rows
        assert dict(a.diagnostics) == dict(b.diagnostics)


def test_batched_run_populates_per_cell_cache(tmp_path):
    """Cache entries stay content-keyed per cell across both paths."""
    from repro.experiments.cache import CellCache

    spec = fig3_spec(mixes=(0.1,), hops=(2,))
    cache = CellCache(tmp_path / "cache")
    batched = run_sweep(spec, cache=cache, batch=True)
    assert batched.cached_cells == 0
    # the per-cell path must now be fully served from the batched run
    plain = run_sweep(spec, cache=cache)
    assert plain.cached_cells == len(spec.cells)
    assert plain.rows == batched.rows
