"""Pinned bound rows: sha256 digests of Fig. 2 EDF and Fig. 4 additive cells.

The equivalence suites compare one solver path with another, so a change
that moved both paths at once — the generated-C Eq. (38) solve and its
numpy oracle, or the compiled additive golden refinement and the Python
``golden_section_min`` — would pass them unnoticed.  These digests were
recorded from the numpy solve and the Python refinement and pin the
exact payload bytes (every float through ``repr``) of:

* the Fig. 2 EDF ``H = 10`` cells, whose deadline fixed point runs the
  ``le0`` exact solve on every γ grid row (one converged, one
  non-converged utilization);
* every Fig. 4 additive BMUX cell of the quick grid.

Each digest is asserted on the compiled kernel and on a forced Python
fallback.  A deliberate change to the bounds must update them and say
so.
"""

import hashlib
import json
import warnings

import pytest

from repro.experiments.config import grids, paper_setting, setting_to_params
from repro.experiments.example1 import fig2_cell
from repro.experiments.example3 import fig4_cell
from repro.network import cprobe

SHARED = {**setting_to_params(paper_setting()), **grids(True)}


def _digest(payloads) -> str:
    return hashlib.sha256(
        json.dumps(payloads, sort_keys=True).encode()
    ).hexdigest()


def _fig2_edf_h10():
    with warnings.catch_warnings():
        # the U = 95% fixed point does not converge in 40 iterations
        warnings.simplefilter("ignore", RuntimeWarning)
        return _digest([
            fig2_cell(
                scheduler="EDF", hops=10, utilization=u, n_through=100,
                **SHARED,
            )
            for u in (0.20, 0.95)
        ])


def _fig4_additive():
    return _digest([
        fig4_cell(scheduler="BMUX additive", hops=h, utilization=u, **SHARED)
        for u in (0.10, 0.50, 0.90)
        for h in (1, 2, 4, 6, 8, 10)
    ])


CASES = {
    "fig2_edf_h10": (
        _fig2_edf_h10,
        "db3c1a0a94e9f86ed74fadb7f79a39c50e6d94aa616b9760ff40186656e63f32",
    ),
    "fig4_additive": (
        _fig4_additive,
        "9ea97de440aee83623e79fc3b2cd7e8fc1d614755fbedfb119ec09ba8b26963a",
    ),
}


@pytest.fixture(params=["c", "python"])
def kernel_path(request, monkeypatch):
    if request.param == "python":
        monkeypatch.setattr(cprobe.KERNEL, "load", lambda: None)
    elif not cprobe.available():
        pytest.skip("no C compiler: the compiled kernel is unavailable")
    return request.param


@pytest.mark.parametrize("case", sorted(CASES))
def test_pinned_digest(kernel_path, case):
    fn, expected = CASES[case]
    assert fn() == expected
