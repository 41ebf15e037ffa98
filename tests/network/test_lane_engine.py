"""The lane engine's round structure and its batch independence.

One engine round runs the whole ``gamma`` search of every pending
(lane, s) context — grid rows, argmin, golden-section refinement and
the probe at the grid argmin — so a round is one step of every live
``s`` search.  These tests pin that structure (rounds per ``s`` level,
kernel request counts per fixed spec) and that a lane's answer does not
depend on the lanes batched beside it, including lanes that differ from
it only in capacity or epsilon.  One test runs an ``s`` search past
its lane's headroom, where the engine answers ``inf`` without a
``gamma`` search.  The last tests pin the solver's yield points: one
CPU yield per engine round and per backlog evaluation.
"""

import math

import pytest

from repro import obs
from repro.arrivals.mmoo import MMOOParameters
from repro.network import cprobe, lanes
from repro.network.e2e import _max_feasible_s
from repro.network.lanes import (
    EDFLaneSpec,
    LaneSpec,
    edf_bound_lanes,
    mmoo_bound_lanes,
)
from tests.network import reference_search

TRAFFIC = MMOOParameters.paper_defaults()


def _fields(result):
    return (
        result.delay, result.alpha, result.gamma, result.sigma, result.x,
        tuple(result.thetas), result.method,
    )


def _bytes_equal(got, want):
    """Equal doubles, ``repr`` for ``repr``: ±0 told apart, NaN equal
    to NaN."""
    return repr(_fields(got)) == repr(_fields(want))


# -- batch independence ---------------------------------------------------


@pytest.mark.parametrize("hops, delta", [(4, 0.0), (3, math.inf), (2, -20.0)])
def test_mmoo_lane_independent_of_capacity_and_epsilon_neighbours(
    hops, delta
):
    """Lanes that share hops, grid and Δ case but not capacity or ε
    each get their own γ grid: batched, every lane is its solo self."""
    specs = [
        LaneSpec(TRAFFIC, 100, 150, hops, capacity, delta, epsilon,
                 s_grid=8, gamma_grid=8)
        for capacity, epsilon in [
            (100.0, 1e-9), (150.0, 1e-9), (100.0, 1e-12), (130.0, 1e-6),
        ]
    ]
    batched = mmoo_bound_lanes(specs)
    for spec, got in zip(specs, batched):
        (alone,) = mmoo_bound_lanes([spec])
        assert _bytes_equal(got, alone), spec


def test_edf_lane_independent_of_capacity_and_epsilon_neighbours():
    specs = [
        EDFLaneSpec(TRAFFIC, 130, 120, 2, capacity, epsilon,
                    s_grid=6, gamma_grid=6, on_nonconvergence="ignore")
        for capacity, epsilon in [(100.0, 1e-9), (140.0, 1e-9), (100.0, 1e-6)]
    ]
    batched = edf_bound_lanes(specs)
    for spec, got in zip(specs, batched):
        (alone,) = edf_bound_lanes([spec])
        assert _bytes_equal(got.result, alone.result), spec
        assert repr(got.delta) == repr(alone.delta)
        assert got.diagnostics.iterations == alone.diagnostics.iterations
        assert repr(got.diagnostics.residual) == repr(
            alone.diagnostics.residual
        )
        assert got.diagnostics.converged == alone.diagnostics.converged


# -- engine structure -----------------------------------------------------


def _count_levels(monkeypatch):
    """Wrap each lane's ``s`` search so every yield — one ``s`` level:
    the grid, then each golden-section step — is counted."""
    levels = [0]
    search = lanes._s_search

    def counted(lane):
        gen = search(lane)
        value = None
        while True:
            try:
                level = gen.send(value)
            except StopIteration as stop:
                return stop.value
            levels[0] += 1
            value = yield level

    monkeypatch.setattr(lanes, "_s_search", counted)
    return levels


def _count_requests(monkeypatch):
    """Kernel request counts, read as the benchmark's tracer reads them:
    rows of ``e2e_delay_grid_rows`` (through the lanes global), requests
    of ``probe_values`` and ``golden_values``."""
    counts = {"grid_rows": 0, "probe": 0, "golden": 0}

    def counting(owner, name, key, arg):
        raw = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += len(args[arg])
            return raw(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(lanes, "e2e_delay_grid_rows", "grid_rows", 0)
    counting(cprobe, "probe_values", "probe", 1)
    counting(cprobe, "golden_values", "golden", 1)
    return counts


FIFO = LaneSpec(TRAFFIC, 100, 300, 1, 100.0, 0.0, 1e-9, s_grid=12,
                gamma_grid=12)
EDF = EDFLaneSpec(TRAFFIC, 130, 120, 1, 100.0, 1e-9, s_grid=12,
                  gamma_grid=12)
SP = LaneSpec(TRAFFIC, 100, 300, 3, 100.0, -math.inf, 1e-6, s_grid=8,
              gamma_grid=8)

#: Kernel request counts of one solve of each spec, recorded when an
#: ``s`` step took three engine rounds (grid, refinement, probe): folding
#: the step into one round must not change them.
REQUESTS = {
    "fifo": {"grid_rows": 50, "probe": 50, "golden": 50},
    "edf": {"grid_rows": 102, "probe": 102, "golden": 102},
    "sp": {"grid_rows": 46, "probe": 46, "golden": 46},
}
SOLVES = {
    "fifo": lambda: mmoo_bound_lanes([FIFO]),
    "edf": lambda: edf_bound_lanes([EDF]),
    "sp": lambda: mmoo_bound_lanes([SP]),
}


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_one_engine_round_per_s_level(monkeypatch, name):
    levels = _count_levels(monkeypatch)
    with obs.scoped() as registry:
        SOLVES[name]()
    assert levels[0] > 0
    assert registry.counter("lanes.engine_rounds") == levels[0]


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_kernel_request_counts_pinned(monkeypatch, name):
    counts = _count_requests(monkeypatch)
    with obs.scoped() as registry:
        SOLVES[name]()
    assert counts == REQUESTS[name]
    assert registry.counter("lanes.engine_probes") == (
        counts["probe"] + counts["golden"]
    )


# -- s levels past the headroom --------------------------------------------

#: An ``s`` search whose top is 5x the lane's ``_max_feasible_s``: the
#: upper grid points and some golden-section steps leave no headroom.
PAST = LaneSpec(TRAFFIC, 100, 300, 1, 100.0, 0.0, 1e-9, s_grid=8,
                gamma_grid=8)
#: A lane with one more ``s`` level than ``PAST``.
BESIDE = LaneSpec(TRAFFIC, 100, 150, 3, 100.0, math.inf, 1e-9, s_grid=4,
                  gamma_grid=8)


def _past_s_max():
    return 5.0 * _max_feasible_s(TRAFFIC, 100 + 300, 100.0)


def _run(specs_and_tops):
    table = cprobe.ProbeTable()
    return lanes._run_lanes(table, [
        lanes._Lane(spec, spec.delta, table, s_max)
        for spec, s_max in specs_and_tops
    ])


def test_s_levels_without_headroom(monkeypatch):
    """An ``s`` without headroom is ``inf`` at once, and a level of
    such ``s`` steps its lane again in the same round: batched beside a
    normal lane, each lane is its solo self, the past lane matches the
    reference search, and the rounds are the larger lane's levels."""
    levels = _count_levels(monkeypatch)
    with obs.scoped() as registry:
        (past_alone,) = _run([(PAST, _past_s_max())])
    past_levels = levels[0]
    # some level had no gamma search to run
    assert registry.counter("lanes.engine_rounds") < past_levels
    levels[0] = 0
    (beside_alone,) = _run([(BESIDE, None)])
    beside_levels = levels[0]
    assert beside_levels > past_levels

    with obs.scoped() as registry:
        past, beside = _run([(PAST, _past_s_max()), (BESIDE, None)])
    assert _bytes_equal(past, past_alone)
    assert _bytes_equal(beside, beside_alone)
    assert _bytes_equal(beside, mmoo_bound_lanes([BESIDE])[0])
    assert registry.counter("lanes.engine_rounds") == beside_levels

    monkeypatch.setattr(
        reference_search, "_max_feasible_s", lambda *args: _past_s_max()
    )
    reference = reference_search.e2e_delay_bound_mmoo(
        TRAFFIC, PAST.n_through, PAST.n_cross, PAST.hops, PAST.capacity,
        PAST.delta, PAST.epsilon, s_grid=PAST.s_grid,
        gamma_grid=PAST.gamma_grid,
    )
    assert _bytes_equal(past, reference)


# -- yield points ---------------------------------------------------------


def _count_yields(monkeypatch, module):
    calls = [0]

    def counted():
        calls[0] += 1

    monkeypatch.setattr(module.os, "sched_yield", counted)
    return calls


def test_engine_yields_the_cpu_once_per_round(monkeypatch):
    """A solver thread lets a thread waiting on the interpreter lock in
    between rounds (the bound service answers cache hits beside it)."""
    calls = _count_yields(monkeypatch, lanes)
    with obs.scoped() as registry:
        edf_bound_lanes([EDF])
    assert calls[0] == registry.counter("lanes.engine_rounds") > 0


def test_backlog_search_yields_the_cpu_per_evaluation(monkeypatch):
    from repro.network import backlog

    calls = _count_yields(monkeypatch, backlog)
    evaluations = [0]
    at_gamma = backlog.e2e_backlog_bound_at_gamma

    def counted(*args):
        evaluations[0] += 1
        return at_gamma(*args)

    monkeypatch.setattr(backlog, "e2e_backlog_bound_at_gamma", counted)
    backlog.e2e_backlog_bound_mmoo(
        TRAFFIC, 100, 150, 1, 100.0, 0.0, 1e-9, s_grid=3, gamma_grid=3
    )
    assert calls[0] == evaluations[0] > 0
