"""Backend parity: every ``backend=`` API agrees across all backends.

This is the evidence base for lint rule RPR003 (`python -m repro.lint
--explain RPR003`): each public function exposing a ``backend=``
selector is called here with every registered backend and the results
are asserted equal.  The selector picks one of the additive per-node
baseline's two ``gamma`` searches (Fig. 4's "BMUX additive"); the
numpy one is a vectorized twin of the scalar one, so agreement is
near-bitwise — tolerances below exist only for refinement-order
floating-point noise.  ``fig2_cell`` and ``fig3_cell`` keep an unread
``backend`` keyword so their cache keys keep the field.
"""

import pytest

from repro.experiments.config import (
    BACKENDS,
    paper_setting,
    setting_to_params,
)
from repro.experiments.example1 import fig2_cell
from repro.experiments.example2 import fig3_cell
from repro.experiments.example3 import fig4_cell, fig4_spec

#: Shared cell params: the paper setting with grids small enough that
#: the whole module stays fast.
SHARED = {**setting_to_params(paper_setting()), "s_grid": 4, "gamma_grid": 4}


# Evidence for RPR003 is collected statically from the test AST, so
# every parity check below calls its target *by name* with an explicit
# ``backend=`` keyword inside a ``for backend in BACKENDS`` loop — the
# canonical idiom the rule documents.


def assert_payload_parity(results):
    rows = {backend: payload["rows"] for backend, payload in results.items()}
    reference = rows[BACKENDS[0]]
    for backend in BACKENDS[1:]:
        assert len(rows[backend]) == len(reference)
        for got, want in zip(rows[backend], reference):
            for key in ("delay", "bound"):
                if key in want:
                    assert got[key] == pytest.approx(
                        want[key], rel=1e-9, abs=1e-12
                    ), f"{key} differs between backends"


class TestCellParity:
    @pytest.mark.parametrize(
        "scheduler", ["FIFO", "BMUX", "BMUX additive", "EDF"]
    )
    def test_fig4_cell(self, scheduler):
        assert_payload_parity(
            {
                backend: fig4_cell(
                    scheduler=scheduler, hops=2, utilization=0.6,
                    backend=backend, **SHARED,
                )
                for backend in BACKENDS
            }
        )

    def test_fig2_cell(self):
        assert_payload_parity(
            {
                backend: fig2_cell(
                    scheduler="FIFO", hops=2, utilization=0.6,
                    n_through=30, backend=backend, **SHARED,
                )
                for backend in BACKENDS
            }
        )

    def test_fig3_cell(self):
        assert_payload_parity(
            {
                backend: fig3_cell(
                    scheduler="FIFO", hops=2, mix=0.5, utilization=0.6,
                    backend=backend, **SHARED,
                )
                for backend in BACKENDS
            }
        )


class TestSpecParity:
    def test_specs_thread_backend_into_every_cell(self):
        for backend in BACKENDS:
            spec = fig4_spec(quick=True, backend=backend)
            stamped = {cell.kwargs["backend"] for cell in spec.cells}
            assert stamped == {backend}
