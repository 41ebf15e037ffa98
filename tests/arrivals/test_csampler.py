"""The compiled MMOO sampler returns the numpy body's bytes and stream.

:mod:`repro.arrivals.csampler` draws every sojourn from numpy's own
``random_geometric`` on the caller's generator, so each sampler entry
point must return exactly the numpy body's arrays *and* leave the
generator in exactly the state the numpy body leaves.  The numpy body
is the oracle: each case runs once with the kernel and once with
``KERNEL.load`` patched to ``None``.  Without a C compiler both runs
take the numpy body, so the checks still hold; a dedicated test asserts
the kernel compiled wherever ``cc`` exists.
"""

import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.arrivals import csampler, processes
from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.processes import (
    mmoo_aggregate_arrivals,
    mmoo_on_intervals,
    mmoo_on_intervals_and_arrivals,
    mmoo_per_flow_arrivals,
)
from repro.experiments.__main__ import _format_kernel_trace
from repro.utils.ckernel import CKernel, LinkInput

PAPER = MMOOParameters.paper_defaults()

#: numpy draws p < 1/3 by inversion and p >= 1/3 by sequential search.
THIRD = 0.333333333333333333333333
probability = st.one_of(
    st.sampled_from(
        [
            0.0, 2.0**-53, 1e-9, 1e-4, 0.011, 0.1,
            np.nextafter(THIRD, 0.0), THIRD, np.nextafter(THIRD, 1.0),
            0.5, 1.0,
        ]
    ),
    st.floats(0.0, 1.0),
)
bit_generators = st.sampled_from(
    [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
     np.random.Philox, np.random.SFC64]
)


@st.composite
def chains(draw):
    p11 = 1.0 - draw(probability)
    p22 = 1.0 - draw(probability)
    p12, p21 = 1.0 - p11, 1.0 - p22
    if p12 + p21 > 1.0:
        p22 = p12  # p12 + p21 == 1, up to rounding
    elif p12 + p21 <= 0.0:
        p22 = 0.0
    peak = draw(st.sampled_from([1.0, 1.5, 0.3]))
    return MMOOParameters(peak=peak, p11=p11, p22=p22)


def _state(rng):
    # MT19937 keeps its key as an array
    return json.dumps(
        rng.bit_generator.state, sort_keys=True, default=np.ndarray.tolist
    )


def _run(fn, seed, bit_generator, *, numpy_body, monkeypatch):
    """``(output arrays, generator state)`` of ``fn(rng)``."""
    rng = np.random.Generator(bit_generator(seed))
    with monkeypatch.context() as patch:
        if numpy_body:
            patch.setattr(csampler.KERNEL, "load", lambda: None)
        out = fn(rng)
    arrays = out if isinstance(out, tuple) else (out,)
    return arrays, _state(rng)


def assert_same(fn, seed, bit_generator, monkeypatch):
    got, got_state = _run(fn, seed, bit_generator, numpy_body=False,
                          monkeypatch=monkeypatch)
    want, want_state = _run(fn, seed, bit_generator, numpy_body=True,
                            monkeypatch=monkeypatch)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
    assert got_state == want_state


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiled_kernel_available():
    """With ``cc`` and numpy's archive present the sampler must compile,
    or validation runs silently drop to the slower numpy body."""
    assert csampler.KERNEL.available()


common = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])


@common
@given(
    params=chains(),
    n_flows=st.integers(1, 400),
    n_slots=st.integers(1, 5_000),
    seed=st.integers(0, 2**32 - 1),
    bit_generator=bit_generators,
    stationary=st.booleans(),
)
@example(params=PAPER, n_flows=300, n_slots=5_000, seed=0,
         bit_generator=np.random.PCG64, stationary=True)
def test_aggregate_and_intervals_match_numpy_body(
    monkeypatch, params, n_flows, n_slots, seed, bit_generator, stationary
):
    def sample(rng):
        agg = mmoo_aggregate_arrivals(
            params, n_flows, n_slots, rng, stationary_start=stationary
        )
        found = mmoo_on_intervals(
            params, n_flows, n_slots, rng, stationary_start=stationary
        )
        return (agg, *found)

    assert_same(sample, seed, bit_generator, monkeypatch)


@common
@given(
    params=chains(),
    n_flows=st.integers(1, 400),
    n_slots=st.integers(1, 5_000),
    seed=st.integers(0, 2**32 - 1),
    on_share=st.floats(0.0, 1.0),
)
def test_explicit_initial_states_match_numpy_body(
    monkeypatch, params, n_flows, n_slots, seed, on_share
):
    initial_on = np.random.default_rng(seed).random(n_flows) < on_share

    def sample(rng):
        return mmoo_on_intervals_and_arrivals(
            params, n_flows, n_slots, rng, initial_on=initial_on
        )

    assert_same(sample, seed, np.random.PCG64, monkeypatch)


@common
@given(
    params=chains(),
    n_flows=st.integers(1, 60),
    n_slots=st.integers(1, 800),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_flow_arrivals_match_numpy_body(
    monkeypatch, params, n_flows, n_slots, seed
):
    def sample(rng):
        return mmoo_per_flow_arrivals(params, n_flows, n_slots, rng)

    assert_same(sample, seed, np.random.PCG64, monkeypatch)


@given(
    params=chains(),
    n_flows=st.integers(1, 200),
    n_slots=st.integers(1, 3_000),
    seed=st.integers(0, 2**32 - 1),
    capacity=st.integers(0, 40),
    intervals=st.booleans(),
)
def test_buffer_growth_resumes_exactly(
    params, n_flows, n_slots, seed, capacity, intervals
):
    """A tiny first buffer forces the kernel to stop before rounds that
    do not fit; the wrapper grows it and resumes from the saved state,
    dropping and redrawing nothing."""
    if not csampler.KERNEL.available():
        pytest.skip("no C compiler: the compiled sampler is unavailable")
    first_pairs = processes._first_batch_pairs(params, n_slots)
    state_on = np.random.default_rng(seed).random(n_flows) < 0.5

    rng = np.random.default_rng(seed)
    found, delta = csampler.sample(
        params.p12, params.p21, n_slots, state_on, rng, first_pairs,
        processes._SOJOURN_BATCH // 2, intervals=intervals, aggregate=True,
        capacity=capacity,
    )
    oracle_rng = np.random.default_rng(seed)
    want = processes._on_intervals_numpy(
        params, n_slots, oracle_rng, state_on, first_pairs
    )
    if intervals:
        for g, w in zip(found, want):
            assert g.tobytes() == w.tobytes()
    else:
        assert found is None
    agg = params.peak * np.cumsum(delta[:n_slots])
    oracle_agg = processes.intervals_to_aggregate(
        want[1], want[2], n_slots, params.peak
    )
    assert agg.tobytes() == oracle_agg.tobytes()
    assert _state(rng) == _state(oracle_rng)


# -- fallbacks ------------------------------------------------------------


def _paths(rng):
    return (
        mmoo_aggregate_arrivals(PAPER, 20, 500, rng),
        *mmoo_on_intervals(PAPER, 20, 500, rng),
    )


def _traced(rng):
    with obs.scoped() as registry:
        out = _paths(rng)
    return out, registry


def test_fallback_without_kernel_is_identical_and_counted(monkeypatch):
    want, compiled = _traced(np.random.default_rng(3))
    monkeypatch.setattr(csampler.KERNEL, "load", lambda: None)
    got, fallback = _traced(np.random.default_rng(3))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    assert fallback.counter("simulation.sampler_fallbacks") == 2
    if csampler.KERNEL.available():
        assert compiled.counter("simulation.sampler_fallbacks") == 0
        assert compiled.gauge("simulation.sampler_available") is True


def test_fallback_without_archive_warns_and_is_identical(
    monkeypatch, tmp_path
):
    monkeypatch.setenv("REPRO_CPROBE_DIR", str(tmp_path))
    missing = LinkInput(str(tmp_path / "libnpyrandom.a"), "numpy 0")
    kernel = CKernel(
        "sampler", csampler.KERNEL.source, csampler.KERNEL.signatures,
        link_inputs=(missing,),
    )
    monkeypatch.setattr(csampler, "KERNEL", kernel)
    with pytest.warns(RuntimeWarning, match="'sampler'.*link input"):
        got, fallback = _traced(np.random.default_rng(4))
    assert fallback.counter("simulation.sampler_fallbacks") == 2
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(kernel, "load", lambda: None)
    want, _ = _traced(np.random.default_rng(4))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_non_generator_rng_runs_numpy_body(monkeypatch):
    """A legacy ``RandomState`` has no lock-guarded ``bitgen_t`` contract
    the kernel relies on: it takes the numpy body."""
    got, registry = _traced(np.random.RandomState(5))
    assert registry.counter("simulation.sampler_fallbacks") == 2
    monkeypatch.setattr(csampler.KERNEL, "load", lambda: None)
    want, _ = _traced(np.random.RandomState(5))
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_invalid_probability_still_raises_numpy_error():
    """Inputs outside the kernel's contract keep the numpy body's
    behaviour, errors included."""
    params = SimpleNamespace(
        peak=1.0, p12=float("nan"), p21=0.5, on_probability=0.5
    )
    with pytest.raises(ValueError, match="NaN"):
        mmoo_aggregate_arrivals(params, 3, 10, np.random.default_rng(0))


def test_kernel_trace_line_names_sampler_path():
    with obs.scoped() as unused:
        pass
    assert "sampler=unused" in _format_kernel_trace(unused)
    with obs.scoped() as python:
        obs.set_gauge("simulation.sampler_available", False)
        obs.add("simulation.sampler_fallbacks", 3)
    line = _format_kernel_trace(python)
    assert "sampler=Python" in line
    assert "sampler fallback calls=3" in line
    with obs.scoped() as compiled:
        mmoo_aggregate_arrivals(PAPER, 4, 50, np.random.default_rng(0))
    expected = "C" if csampler.KERNEL.available() else "Python"
    assert f"sampler={expected}" in _format_kernel_trace(compiled)
