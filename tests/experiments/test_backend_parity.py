"""Backend parity: every ``backend=`` API agrees across all backends.

This is the evidence base for lint rule RPR003 (`python -m repro.lint
--explain RPR003`): each public function exposing a ``backend=``
selector is called here with every registered backend and the results
are asserted equal.  The numpy backend is a vectorized twin of the
scalar analysis, so agreement is near-bitwise — tolerances below exist
only for refinement-order floating-point noise.
"""

import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.experiments.config import (
    BACKENDS,
    paper_setting,
    setting_to_params,
)
from repro.experiments.example1 import fig2_cell, fig2_spec
from repro.experiments.example2 import fig3_cell, fig3_spec
from repro.experiments.example3 import fig4_cell, fig4_spec
from repro.experiments.executor import SerialExecutor
from repro.experiments.topology import topology_bound_cell, topology_spec
from repro.experiments.validation import (
    run_rare_validation,
    validation_bound_cell,
    validation_spec,
)
from repro.network.e2e import e2e_delay_bound_edf
from repro.topology import Topology

#: Shared cell params: the paper setting with grids small enough that
#: the whole module stays fast.
SHARED = {**setting_to_params(paper_setting()), "s_grid": 4, "gamma_grid": 4}

TRAFFIC = MMOOParameters.paper_defaults()
CAPACITY = 100.0


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

    def test_validation_bound_cell(self):
        assert_payload_parity(
            {
                backend: validation_bound_cell(
                    scheduler="FIFO", hops=1, utilization=0.9,
                    backend=backend, **SHARED,
                )
                for backend in BACKENDS
            }
        )

    def test_topology_bound_cell(self):
        topo = Topology.line(
            2, capacity=CAPACITY, n_through=150, n_cross=150,
            scheduler="fifo",
        )
        results = {
            backend: topology_bound_cell(
                topology=topo.to_params(),
                route="through",
                epsilon=1e-4,
                traffic=(TRAFFIC.peak, TRAFFIC.p11, TRAFFIC.p22),
                s_grid=4,
                gamma_grid=4,
                backend=backend,
            )
            for backend in BACKENDS
        }
        assert_payload_parity(results)


class TestKernelParity:
    def test_e2e_delay_bound_edf(self):
        results = {
            backend: e2e_delay_bound_edf(
                TRAFFIC, 30, 30, 2, CAPACITY, 1e-4,
                s_grid=4, gamma_grid=4, backend=backend,
            )
            for backend in BACKENDS
        }
        reference = results[BACKENDS[0]]
        for backend in BACKENDS[1:]:
            assert results[backend].result.delay == pytest.approx(
                reference.result.delay, rel=1e-9
            )


class TestSpecParity:
    def test_specs_thread_backend_into_every_cell(self):
        for backend in BACKENDS:
            specs = [
                fig2_spec(quick=True, backend=backend),
                fig3_spec(quick=True, backend=backend),
                fig4_spec(quick=True, backend=backend),
                validation_spec(quick=True, backend=backend),
                topology_spec("line", 2, quick=True, backend=backend),
            ]
            for spec in specs:
                stamped = {
                    cell.kwargs["backend"]
                    for cell in spec.cells
                    if "backend" in cell.kwargs
                }
                assert stamped == {backend}, spec.name


class TestRareValidationParity:
    def test_run_rare_validation_bounds_agree(self):
        results = {
            backend: run_rare_validation(
                schedulers=("FIFO",),
                hops=(1,),
                epsilon=1e-6,
                batch_trials=5,
                ci_target=5.0,
                max_batches=1,
                executor=SerialExecutor(),
                backend=backend,
            )
            for backend in BACKENDS
        }
        reference = results[BACKENDS[0]]
        for backend in BACKENDS[1:]:
            got = results[backend]
            assert len(got.rows) == len(reference.rows)
            for row_got, row_want in zip(got.rows, reference.rows):
                assert row_got.bound == pytest.approx(
                    row_want.bound, rel=1e-9
                )
                # The simulation phase is backend-independent.
                assert row_got.probability == row_want.probability
