"""Pinned sample paths: sha256 digests of seeded MMOO sampler output.

The other reproducibility suites compare runs of the same code with
each other, so a change to the random stream — a different draw order,
a different number of draws, a different sojourn construction — would
pass them unnoticed.  These digests were recorded from the numpy
sampler and pin the exact bytes of every sampler entry point, the
generator state each call leaves behind, one naive validation trial row
and one importance-sampled trial's stitched arrivals.  Each digest is
asserted on the compiled sampler and on a forced numpy fallback.  A
deliberate stream change must update them and say so.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.arrivals import csampler
from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.processes import (
    mmoo_aggregate_arrivals,
    mmoo_on_intervals,
    mmoo_per_flow_arrivals,
)
from repro.experiments.validation import validation_trial_cell
from repro.simulation import rare
from repro.simulation.engine import SimulationConfig

PAPER = MMOOParameters.paper_defaults()
#: ON sojourns drawn by numpy's search branch (p21 >= 1/3).
SHORT_ON = MMOOParameters(peak=1.0, p11=0.8, p22=0.4)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode())
            h.update(np.ascontiguousarray(part).tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _state(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True)


def _aggregate_stationary():
    rng = np.random.default_rng(2024)
    out = mmoo_aggregate_arrivals(PAPER, 300, 20_000, rng)
    return _digest(out, _state(rng))


def _aggregate_cold():
    rng = np.random.default_rng(7)
    out = mmoo_aggregate_arrivals(PAPER, 50, 5_000, rng, stationary_start=False)
    return _digest(out, _state(rng))


def _aggregate_search_branch():
    rng = np.random.default_rng(11)
    out = mmoo_aggregate_arrivals(SHORT_ON, 40, 3_000, rng)
    return _digest(out, _state(rng))


def _intervals_stationary():
    rng = np.random.default_rng(5)
    out = mmoo_on_intervals(PAPER, 120, 8_000, rng)
    return _digest(*out, _state(rng))


def _intervals_cold():
    rng = np.random.default_rng(6)
    out = mmoo_on_intervals(PAPER, 80, 4_000, rng, stationary_start=False)
    return _digest(*out, _state(rng))


def _intervals_initial_on():
    rng = np.random.default_rng(8)
    initial = np.arange(60) % 3 == 0
    out = mmoo_on_intervals(SHORT_ON, 60, 2_500, rng, initial_on=initial)
    return _digest(*out, _state(rng))


def _per_flow():
    rng = np.random.default_rng(9)
    out = mmoo_per_flow_arrivals(PAPER, 12, 1_500, rng)
    return _digest(out, _state(rng))


def _naive_trial_row():
    out = validation_trial_cell(
        scheduler="EDF", hops=2, utilization=0.95, epsilon=1e-3,
        slots=10_000, seed=1234, trial=0, engine="vectorized",
        traffic=(PAPER.peak, PAPER.p11, PAPER.p22), capacity=100.0,
    )
    return _digest(json.dumps(out, sort_keys=True))


def _rare_trial_arrays(monkeypatch):
    stitched = []
    run = rare.run_tandem_vectorized

    def spy(through, cross, *args, **kwargs):
        stitched.append((through, *cross))
        return run(through, cross, *args, **kwargs)

    monkeypatch.setattr(rare, "run_tandem_vectorized", spy)
    config = SimulationConfig(
        traffic=PAPER, n_through=10, n_cross=10, hops=1,
        capacity=2 * 10 * PAPER.mean_rate / 0.75, slots=400,
        scheduler="fifo", seed=42, engine="vectorized",
    )
    trial = rare.simulate_tandem_mmoo_rare(config, threshold=30.0)
    (arrays,) = stitched
    return _digest(trial.log_weight, trial.tau, *arrays)


CASES = {
    "aggregate_stationary": (
        _aggregate_stationary,
        "8b5b8453d9a3e40fe2d7a6f56f2c2202dfffe75745b2c9b634ea13b848d81144",
    ),
    "aggregate_cold": (
        _aggregate_cold,
        "98e2809830fcc64a56a1f71439a78720f4da1f872e5bd9a1d31ede1e7fe579a3",
    ),
    "aggregate_search_branch": (
        _aggregate_search_branch,
        "85b07ac2ef05b1c2c72d6b071ffafeb4990c454ef75bdf79d353810e41436cbe",
    ),
    "intervals_stationary": (
        _intervals_stationary,
        "144e217e93a755f48dd246224a3cd26fc4a3d25ddec5e65bc2543680339625a1",
    ),
    "intervals_cold": (
        _intervals_cold,
        "ae823bb75d4ee0817279a32d7bd3d5d499cbb20d085cf6f49841c4c719a7042e",
    ),
    "intervals_initial_on": (
        _intervals_initial_on,
        "0dcd7db57eee01dbe45d330302011abe7e5bbba139e2311aa1d368c4138db052",
    ),
    "per_flow": (
        _per_flow,
        "337247002065d01825fa811e40f742d282b7e1543a71be1bf2c31d2b8d411687",
    ),
    "naive_trial_row": (
        _naive_trial_row,
        "1136fb46009e0282255255601589eea81a12ffba00accfb3fa9a0ed771da418b",
    ),
}


@pytest.fixture(params=["c", "python"])
def sampler_path(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setattr(csampler.KERNEL, "load", lambda: None)
    elif not csampler.KERNEL.available():
        pytest.skip("no C compiler: the compiled sampler is unavailable")
    return request.param


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_digest(sampler_path, case):
    fn, expected = CASES[case]
    assert fn() == expected


def test_pinned_rare_trial(sampler_path, monkeypatch):
    assert _rare_trial_arrays(monkeypatch) == (
        "f4fbbe0df9166913b1ba288ce023a6d0907b1ccfb2183199db5dcb9eac8fa05b"
    )
