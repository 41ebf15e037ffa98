"""Bitwise equivalence: served answers == direct solver == sweep cell.

The service's whole pipeline — JSON parsing, canonicalization, the
coalescer's lane batches, HTTP serialization — must not move a single
bit of the answer: every ``/v1/bounds`` row is compared ``==`` (no
tolerance) against the direct :mod:`repro.network.e2e` /
:mod:`repro.network.backlog` call and against the sweep cell's payload,
across all four schedulers.  The queries are fanned concurrently
through real sockets, so the answers come out of coalesced lane
batches, not per-query solves.

Each query is sent once with ``"backend": "numpy"`` and once with
``"backend": "scalar"``: the model reads no such field, so both
spellings are one query and must get the direct answer.
"""

import asyncio

import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.experiments.config import SCHEDULER_MAP
from repro.experiments.sweep import execute_cell
from repro.experiments.validation import validation_bound_cell
from repro.network.backlog import e2e_backlog_bound_mmoo
from repro.network.e2e import e2e_delay_bound_edf, e2e_delay_bound_mmoo
from repro.service.api.client import AsyncServiceClient
from repro.service.api.model import PAPER_TRAFFIC, BoundQuery

GRID = {"s_grid": 5, "gamma_grid": 5}
PATH = {"hops": 3, "n_through": 20, "n_cross": 10}
SCHEDULERS = tuple(SCHEDULER_MAP)
#: Values of an ignored body field (the old engine selector's settings).
BACKENDS = ("numpy", "scalar")


def _query(scheduler: str, backend: str, **overrides) -> dict:
    return {
        "scheduler": scheduler, "backend": backend, **PATH, **GRID,
        **overrides,
    }


@pytest.fixture(scope="module")
def served_rows(shared_harness):
    """All (scheduler, backend) bound rows, fetched *concurrently* so
    they flow through coalesced lane batches."""
    bodies = [_query(s, b) for s in SCHEDULERS for b in BACKENDS]

    async def fan():
        clients = [
            await AsyncServiceClient.connect(
                shared_harness.host, shared_harness.port
            )
            for _ in bodies
        ]
        try:
            return await asyncio.gather(
                *(
                    client.bounds(body)
                    for client, body in zip(clients, bodies)
                )
            )
        finally:
            for client in clients:
                await client.aclose()

    rows = shared_harness.run(fan())
    return {
        (body["scheduler"], body["backend"]): row
        for body, row in zip(bodies, rows)
    }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_served_equals_direct_solver(served_rows, scheduler, backend):
    row = served_rows[(scheduler, backend)]
    mmoo = MMOOParameters(*PAPER_TRAFFIC)
    hops, n_through, n_cross = PATH["hops"], PATH["n_through"], PATH["n_cross"]
    if scheduler == "EDF":
        bound = e2e_delay_bound_edf(
            mmoo, n_through, n_cross, hops, 100.0, 1e-9, **GRID,
        )
        result, delta = bound.result, bound.delta
        assert row["edf"]["edf_iterations"] == bound.diagnostics.iterations
        assert row["edf"]["edf_residual"] == bound.diagnostics.residual
        assert row["edf"]["edf_converged"] == bound.diagnostics.converged
    else:
        _, delta, _ = SCHEDULER_MAP[scheduler]
        result = e2e_delay_bound_mmoo(
            mmoo, n_through, n_cross, hops, 100.0, delta, 1e-9, **GRID,
        )
    assert row["feasible"] is True
    assert row["delay"] == result.delay  # bitwise, no tolerance
    assert row["delta"] == delta
    assert row["sigma"] == result.sigma
    assert row["gamma"] == result.gamma
    assert row["alpha"] == result.alpha
    assert row["x"] == result.x
    assert row["thetas"] == list(result.thetas)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_served_equals_sweep_cell(served_rows, scheduler, backend):
    """The served row is exactly the sweep cell's row — the service and
    the sweep CLI share one cacheable unit of computation."""
    query = BoundQuery.from_json(_query(scheduler, backend))
    expected = execute_cell(query.cell())["rows"][0]
    row = dict(served_rows[(scheduler, backend)])
    assert row.pop("key") == query.key()
    row.pop("cached")
    assert row == expected


def test_both_backends_agree_on_the_bound(served_rows):
    for scheduler in SCHEDULERS:
        numpy_row = dict(served_rows[(scheduler, "numpy")])
        scalar_row = dict(served_rows[(scheduler, "scalar")])
        numpy_row.pop("cached")
        scalar_row.pop("cached")
        assert numpy_row == scalar_row


@pytest.mark.parametrize("backend", BACKENDS)
def test_backlog_served_equals_direct(shared_harness, backend):
    body = _query("SP", backend, kind="backlog")
    with shared_harness.client() as client:
        row = client.bounds(body)
    mmoo = MMOOParameters(*PAPER_TRAFFIC)
    direct = e2e_backlog_bound_mmoo(
        mmoo, PATH["n_through"], PATH["n_cross"], PATH["hops"], 100.0,
        SCHEDULER_MAP["SP"][1], 1e-9, **GRID,
    )
    assert row["kind"] == "backlog"
    assert row["backlog"] == direct.backlog
    assert row["sigma"] == direct.sigma
    assert row["gamma"] == direct.gamma
    assert row["alpha"] == direct.alpha


def test_served_matches_sweep_cli_validation_cell(shared_harness):
    """Cross-experiment: the validation sweep's bound cell and the
    service compute the same FIFO bound for the same flow mix."""
    payload = validation_bound_cell(
        scheduler="FIFO", hops=2, utilization=0.3, epsilon=1e-6,
        traffic=PAPER_TRAFFIC, capacity=100.0, **GRID,
    )
    n_half = payload["diagnostics"]["n_through"]
    with shared_harness.client() as client:
        row = client.bounds(
            {
                "scheduler": "FIFO", "hops": 2, "n_through": n_half,
                "n_cross": n_half, "epsilon": 1e-6, **GRID,
            }
        )
    assert row["delay"] == payload["rows"][0]["bound"]
