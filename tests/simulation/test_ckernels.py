"""The compiled slot kernels return the Python/numpy bodies' bytes.

:func:`repro.simulation.vectorized._serve_edf` and
:func:`repro.simulation.vectorized.delays_between` dispatch to the C
kernels of :mod:`repro.simulation.ckernels` when they are loaded; their
Python/numpy bodies (``_serve_edf_python``, ``_delays_between_numpy``)
are the oracle.  Every returned array must match the oracle byte for
byte (``tobytes()`` and dtype), over Hypothesis-drawn inputs that cover
each branch of the EDF sweep and of the merge.  Without a C compiler
the dispatchers run the oracle itself, so these checks still hold; a
dedicated test asserts the kernel compiled wherever ``cc`` exists.
"""

import shutil

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro import obs
from repro.simulation import ckernels
from repro.simulation.vectorized import (
    _delays_between_numpy,
    _serve_edf,
    _serve_edf_python,
    aggregate_service,
    delays_between,
    run_tandem_vectorized,
)


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
def test_compiled_kernel_available():
    """With ``cc`` present the kernel must compile, or validation runs
    silently drop to the slow Python bodies."""
    assert ckernels.KERNEL.available()


#: Per-slot arrivals mixing the cases the EDF sweep branches on: idle
#: slots, epsilon dust, ordinary amounts and bursts above capacity.
slot_amount = st.one_of(
    st.just(0.0),
    st.floats(1e-13, 2e-9),
    st.floats(0.0, 1.0),
    st.floats(1.0, 12.0),
)


@st.composite
def edf_inputs(draw):
    n = draw(st.integers(1, 80))
    through = np.array(draw(st.lists(slot_amount, min_size=n, max_size=n)))
    cross = np.array(draw(st.lists(slot_amount, min_size=n, max_size=n)))
    capacity = draw(st.floats(0.5, 4.0))
    deadline_through = draw(st.integers(0, 8))
    deadline_cross = draw(st.integers(0, 8))
    return through, cross, capacity, deadline_through, deadline_cross


class TestServeEDF:
    @given(edf_inputs(), st.booleans())
    @example(  # n = 1, zero deadlines, a burst above capacity
        (np.array([5.0]), np.array([0.5]), 1.0, 0, 0), True
    )
    @example(  # epsilon dust only
        (np.array([1e-10, 0.0, 5e-10]), np.array([0.0, 3e-10, 0.0]),
         1.0, 2, 1),
        False,
    )
    def test_bytes_match_python(self, inputs, record_backlog):
        through, cross, capacity, d_through, d_cross = inputs
        assert_same_bytes(
            _serve_edf(
                through, cross, capacity, d_through, d_cross,
                record_backlog=record_backlog,
            ),
            _serve_edf_python(
                through, cross, capacity, d_through, d_cross,
                record_backlog=record_backlog,
            ),
        )

    @pytest.mark.parametrize(
        "d_through,d_cross", [(1, 10), (4, 4), (10, 1), (0, 0)]
    )
    def test_deadline_orders_on_a_long_path(self, d_through, d_cross):
        rng = np.random.default_rng(d_through * 100 + d_cross)
        through = rng.uniform(0.0, 2.0, size=2000)
        cross = rng.uniform(0.0, 2.0, size=2000)
        for record_backlog in (False, True):
            assert_same_bytes(
                _serve_edf(
                    through, cross, 2.1, d_through, d_cross, record_backlog
                ),
                _serve_edf_python(
                    through, cross, 2.1, d_through, d_cross, record_backlog
                ),
            )


#: Hand cases of ``test_vectorized.TestDelaysBetween``.
HAND_CASES = [
    ([1.0, 2.0, 0.5], [1.0, 2.0, 0.5]),
    ([1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]),
    ([3.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
    ([4.0, 0.0], [1.0, 1.0]),
]


@st.composite
def curves(draw, max_len=60):
    n = draw(st.integers(1, max_len))
    # integer-valued amounts make cumulative marks coincide exactly, so
    # runs of equal marks across both curves are common
    amount = st.one_of(
        st.just(0.0), st.integers(1, 4).map(float), st.floats(0.0, 3.0)
    )
    return np.array(draw(st.lists(amount, min_size=n, max_size=n)))


class TestDelaysBetween:
    @pytest.mark.parametrize("entry,exit", HAND_CASES)
    def test_hand_cases(self, entry, exit):
        entry, exit = np.array(entry), np.array(exit)
        assert_same_bytes(
            delays_between(entry, exit), _delays_between_numpy(entry, exit)
        )

    @given(curves(), st.floats(0.3, 3.0))
    def test_service_curves(self, entry, capacity):
        exit, _ = aggregate_service(entry, capacity)
        assert_same_bytes(
            delays_between(entry, exit), _delays_between_numpy(entry, exit)
        )

    @given(curves(), st.floats(0.3, 3.0), st.integers(1, 20))
    def test_truncated_exit(self, entry, capacity, cut):
        exit, _ = aggregate_service(entry, capacity)
        exit = exit[: max(1, len(exit) - cut)]
        assert_same_bytes(
            delays_between(entry, exit), _delays_between_numpy(entry, exit)
        )

    @given(curves(), curves())
    def test_unrelated_curves(self, entry, exit):
        assert_same_bytes(
            delays_between(entry, exit), _delays_between_numpy(entry, exit)
        )

    @given(
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30),
        st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=30),
    )
    def test_decreasing_curves(self, entry, exit):
        """Negative amounts make the curves non-monotone: the kernel
        must match numpy's search, or decline where exit marks collide
        and let the numpy body raise."""
        entry, exit = np.array(entry), np.array(exit)
        try:
            want = _delays_between_numpy(entry, exit)
        except ValueError:
            with pytest.raises(ValueError):
                delays_between(entry, exit)
            return
        assert_same_bytes(delays_between(entry, exit), want)

    def test_empty_input_raises_like_numpy(self):
        with pytest.raises(IndexError):
            delays_between(np.zeros(0), np.ones(3))


def _tandem(scheduler):
    rng = np.random.default_rng(5)
    through = rng.exponential(0.9, size=2_000)
    cross = [rng.exponential(0.9, size=2_000) for _ in range(3)]
    return run_tandem_vectorized(
        through, cross, capacity=2.0, scheduler=scheduler,
        edf_deadline_through=1.0, edf_deadline_cross=10.0,
        record_backlog=True,
    )


def _recorders(result):
    return (
        vars(result.through_delays),
        [vars(r) for r in result.cross_delays],
        [list(r.samples()) for r in result.node_backlogs],
    )


@pytest.mark.parametrize("scheduler", ["edf", "fifo"])
def test_python_fallback_is_identical_and_counted(monkeypatch, scheduler):
    with obs.scoped() as compiled:
        want = _recorders(_tandem(scheduler))
    monkeypatch.setattr(ckernels.KERNEL, "load", lambda: None)
    with obs.scoped() as fallback:
        got = _recorders(_tandem(scheduler))
    assert got == want
    # a cross merge per hop, one end-to-end merge, an EDF service per hop
    calls = 3 + 1 + (3 if scheduler == "edf" else 0)
    assert fallback.counter("simulation.kernel_fallbacks") == calls
    if ckernels.KERNEL.available():
        assert compiled.counter("simulation.kernel_fallbacks") == 0
        assert compiled.gauge("simulation.kernel_available") is True

