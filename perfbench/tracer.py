"""Per-layer tracing from outside the program: wrappers at call sites.

The traced run replaces each layer's public function with a timing
wrapper *at the name its caller looks up* — e.g. the lane engine calls
``e2e_delay_grid_rows`` through its own module global, so the wrapper is
installed as ``repro.network.lanes.e2e_delay_grid_rows``; patching only
the defining module would miss every ``from ... import`` binding.  No
span is added inside ``src/``.

Each wrapper records calls, inclusive (busy) time and self time (busy
time minus the time of wrapped calls nested inside it, per thread), plus
layer-specific counts such as lanes or slot-hops.  The sum of all self
times is the attributed time; a workload's wall time minus it is the
unattributed remainder.  Coroutine wrappers (the service's ``answer`` and
``submit``) record inclusive time only: their awaits interleave on the
event loop, so they cannot own a stack frame.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable

Extra = Callable[[tuple, dict, Any], dict[str, float]]


def _rows(args, kwargs, result):
    return {"rows": float(len(args[0]))}


def _requests(args, kwargs, result):
    return {"requests": float(len(args[1]))}


def _lanes(args, kwargs, result):
    return {"lanes": float(len(result))}


def _edf_lanes(args, kwargs, result):
    return {
        "lanes": float(len(result)),
        "nonconverged": float(
            sum(not bound.diagnostics.converged for bound in result)
        ),
    }


def _plan(args, kwargs, result):
    return {
        "batches": float(len(result)),
        "fallback_cells": float(
            sum(len(b.cells) for b in result if b.kind == "cells")
        ),
    }


def _batch_cells(args, kwargs, result):
    return {"cells": float(len(args[0].cells))}


def _hits(args, kwargs, result):
    return {"hits": float(result is not None)}


def _put_bytes(args, kwargs, result):
    cache, key = args[0], args[1]
    try:
        return {"bytes": float(os.path.getsize(cache.path_for(key)))}
    except OSError:
        return {"bytes": 0.0}


def _steals(args, kwargs, result):
    return {"steals": float(getattr(args[0], "last_steals", 0))}


def _slots(args, kwargs, result):
    return {"slots": float(args[2])}


def _slot_hops(args, kwargs, result):
    return {"slot_hops": float(len(args[0]) * len(args[1]))}


def _spec_cells(args, kwargs, result):
    return {"cells": float(len(args[0].cells))}


#: (layer, call sites as "module:attr" or "module:Class.attr", extra).
SITES: list[tuple[str, tuple[str, ...], Extra | None]] = [
    ("network.vectorized.solve_exact",
     ("repro.network.vectorized:batched_solve_exact",), None),
    ("network.vectorized.grid_rows",
     ("repro.network.lanes:e2e_delay_grid_rows",), _rows),
    ("network.vectorized.additive_grid",
     ("repro.network.vectorized:additive_delay_grid",), None),
    ("network.cprobe.golden",
     ("repro.network.cprobe:golden_values",), _requests),
    ("network.cprobe.probe",
     ("repro.network.cprobe:probe_values",), _requests),
    ("network.lanes.mmoo",
     ("repro.experiments.batch:mmoo_bound_lanes",), _lanes),
    ("network.lanes.edf",
     ("repro.experiments.batch:edf_bound_lanes",), _edf_lanes),
    ("network.e2e.per_cell", (
        "repro.experiments.example1:e2e_delay_bound_mmoo",
        "repro.experiments.example1:e2e_delay_bound_edf",
        "repro.experiments.example2:e2e_delay_bound_mmoo",
        "repro.experiments.example2:e2e_delay_bound_edf",
        "repro.experiments.example3:e2e_delay_bound_mmoo",
        "repro.experiments.example3:e2e_delay_bound_edf",
        "repro.experiments.validation:e2e_delay_bound_mmoo",
        "repro.service.api.cells:e2e_delay_bound_mmoo",
        "repro.service.api.cells:e2e_delay_bound_edf",
    ), None),
    ("network.pernode",
     ("repro.experiments.example3:additive_pernode_delay_bound_mmoo",),
     None),
    ("network.backlog",
     ("repro.service.api.cells:e2e_backlog_bound_mmoo",), None),
    ("experiments.batch.plan", (
        "repro.experiments.batch:plan_batches",
        "repro.service.api.coalescer:plan_batches",
    ), _plan),
    ("experiments.batch.execute", (
        "repro.experiments.batch:execute_batch",
        "repro.service.api.coalescer:execute_batch",
    ), _batch_cells),
    ("experiments.sweep.cell_key", (
        "repro.experiments.sweep:cell_key",
        "repro.service.api.coalescer:cell_key",
    ), None),
    ("experiments.cache.get",
     ("repro.experiments.cache:CellCache.get",), _hits),
    ("experiments.cache.put",
     ("repro.experiments.cache:CellCache.put",), _put_bytes),
    ("experiments.executor.map_stream", (
        "repro.experiments.executor:SerialExecutor.map_stream",
        "repro.experiments.executor:WorkStealingExecutor.map_stream",
    ), _steals),
    ("arrivals.processes.mmoo_aggregate",
     ("repro.simulation.engine:mmoo_aggregate_arrivals",), _slots),
    ("simulation.engine.trial",
     ("repro.experiments.validation:simulate_tandem_mmoo",), None),
    ("simulation.vectorized.tandem", (
        "repro.simulation.engine:run_tandem_vectorized",
        "repro.simulation.rare:run_tandem_vectorized",
    ), _slot_hops),
    ("simulation.rare.trial",
     ("repro.simulation.rare:simulate_tandem_mmoo_rare",), None),
    ("simulation.rare.estimate",
     ("repro.simulation.rare:estimate_tail_from_arrays",), None),
    ("service.api.model.parse",
     ("repro.service.api.model:BoundQuery.from_json",), None),
    ("service.api.model.key",
     ("repro.service.api.model:cell_key",), None),
    ("service.api.lru.get",
     ("repro.service.api.lru:LRUCache.get",), _hits),
    ("service.api.coalescer.submit",
     ("repro.service.api.coalescer:BatchCoalescer.submit",), None),
    ("service.api.coalescer.solve",
     ("repro.service.api.coalescer:solve_spec",), _spec_cells),
    ("service.api.app.answer",
     ("repro.service.api.app:BoundService.answer",), None),
]

#: Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    ("network.lanes.mmoo", "calls"),
    ("network.lanes.mmoo", "lanes"),
    ("network.lanes.edf", "calls"),
    ("network.lanes.edf", "lanes"),
    ("network.lanes.edf", "nonconverged"),
    ("experiments.batch.execute", "calls"),
    ("network.cprobe.golden", "requests"),
    ("network.cprobe.probe", "requests"),
    ("network.vectorized.grid_rows", "rows"),
    ("simulation.vectorized.tandem", "slot_hops"),
    ("arrivals.processes.mmoo_aggregate", "slots"),
)


class Tracer:
    """Thread-safe per-layer accumulator with per-thread span stacks."""

    def __init__(self) -> None:
        self.stats: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.self_total_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, layer: str, busy: float, self_s: float | None) -> None:
        with self._lock:
            entry = self.stats[layer]
            entry["calls"] += 1
            entry["busy_s"] += busy
            if self_s is not None:
                entry["self_s"] += self_s
                self.self_total_s += self_s

    def add(self, layer: str, field: str, value: float) -> None:
        with self._lock:
            self.stats[layer][field] += value

    def get(self, layer: str, field: str) -> float:
        with self._lock:
            return float(self.stats.get(layer, {}).get(field, 0.0))

    def counts(self) -> dict[str, float]:
        """The exact counts, for comparing two runs of the same input."""
        return {
            f"{layer}.{field}": self.get(layer, field)
            for layer, field in EXACT_COUNTS
        }

    def to_json(self) -> dict[str, Any]:
        with self._lock:
            return {
                "stats": {k: dict(v) for k, v in self.stats.items()},
                "self_total_s": self.self_total_s,
            }

    def merge_json(self, data: dict[str, Any]) -> None:
        with self._lock:
            for layer, fields in data["stats"].items():
                for field, value in fields.items():
                    self.stats[layer][field] += value

    # -- wrappers -----------------------------------------------------------

    def _wrap_sync(self, layer: str, fn: Callable, extra: Extra | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                busy = time.perf_counter() - frame[0]
                if stack:
                    stack[-1][1] += busy
                tracer.record(layer, busy, busy - frame[1])
            if extra is not None:
                for field, value in extra(args, kwargs, result).items():
                    tracer.add(layer, field, value)
            return result

        return wrapper

    def _wrap_async(self, layer: str, fn: Callable):
        tracer = self

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.record(layer, time.perf_counter() - start, None)

        return wrapper

    def install(self) -> None:
        """Install every wrapper of :data:`SITES` (idempotent per tracer)."""
        if self._patches:
            return
        for layer, sites, extra in SITES:
            for site in sites:
                module_name, _, path = site.partition(":")
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                raw = (
                    owner.__dict__[attr]
                    if isinstance(owner, type)
                    else getattr(owner, attr)
                )
                if isinstance(raw, classmethod):
                    wrapped: Any = classmethod(
                        self._wrap_sync(layer, raw.__func__, extra)
                    )
                elif inspect.iscoroutinefunction(raw):
                    wrapped = self._wrap_async(layer, raw)
                else:
                    wrapped = self._wrap_sync(layer, raw, extra)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
