"""The benchmark's per-layer tracer still sees the solver's call sites.

``perfbench/tracer.py`` times each layer by wrapping a function at the
module global its caller looks up, and reads counts off the wrapped
calls' arguments: the grid rows off the first positional argument of
``e2e_delay_grid_rows`` (one entry per row), the requests off the second
of ``cprobe.golden_values`` and ``cprobe.probe_values`` (the request
indices).  A solver refactor that calls a kernel by another name, or
moves those arguments, would silence a layer or corrupt its counts
without failing anything but the benchmark's traced run.  This test
installs the tracer, loaded by path and left unchanged, over the paths
of the benchmark's figures and serve workloads — a batched Fig. 2
(H = 2) and Fig. 4 (H = 1) sweep, then the service's solve of one FIFO,
one SP and one EDF query — and checks every layer those paths reach
against the solver's own :mod:`repro.obs` counters.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.experiments.cache import CellCache
from repro.experiments.example1 import fig2_spec
from repro.experiments.example3 import fig4_spec
from repro.experiments.sweep import SweepSpec, run_sweep
from repro.service.api import coalescer
from repro.service.api.model import BoundQuery

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"

#: ``FIRES`` layers of the figures and serve workloads that these paths
#: cannot reach: the backlog bound (no backlog query here) and the
#: service's request path around the solve (no HTTP server here).
UNREACHED = {
    "network.backlog",
    "service.api.lru.get",
    "service.api.coalescer.submit",
    "service.api.app.answer",
}

QUERIES = [
    {"kind": "delay", "scheduler": scheduler, "hops": 2,
     "n_through": 130, "n_cross": 120}
    for scheduler in ("FIFO", "SP", "EDF")
]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def perfbench_tracing():
    """The perfbench ``tracer`` and ``layers`` modules, with a fresh
    tracer installed for the test and removed after it."""
    saved = {name: sys.modules.get(name) for name in ("tracer", "layers")}
    try:
        tracer_module = _load("tracer")
        layers = _load("layers")
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            yield tracer, layers
        finally:
            tracer.uninstall()
    finally:
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module


@pytest.mark.filterwarnings("ignore:EDF deadline fixed point did not converge")
def test_traced_layers_match_solver_counters(perfbench_tracing, tmp_path):
    tracer, layers = perfbench_tracing
    with obs.scoped() as registry:
        cache = CellCache(tmp_path / "cells")
        for spec in (fig2_spec(hops=(2,)), fig4_spec(hops=(1,))):
            run_sweep(spec, cache=cache, batch=True)
        queries = [BoundQuery.from_json(query) for query in QUERIES]
        assert len({query.key() for query in queries}) == len(queries)
        spec = SweepSpec.build("service", tuple(q.cell() for q in queries))
        _, _, snapshot = coalescer.solve_spec(spec, 64)
        registry.merge(snapshot)

    reached = (set(layers.FIRES["figures"]) | set(layers.FIRES["serve"]))
    silent = [
        layer for layer in sorted(reached - UNREACHED)
        if tracer.get(layer, "calls") == 0
    ]
    assert silent == []
    assert UNREACHED <= reached

    rows = tracer.get("network.vectorized.grid_rows", "rows")
    assert rows > 0
    assert rows == registry.counter("vectorized.grid_row_lanes")
    requests = tracer.get("network.cprobe.golden", "requests") + tracer.get(
        "network.cprobe.probe", "requests"
    )
    assert requests > 0
    assert requests == registry.counter("lanes.engine_probes")
    # the traced solve of the service's three queries: one lane each
    assert tracer.get("service.api.coalescer.solve", "cells") == len(QUERIES)
