"""Per-layer metrics of the traced run, and what each should move.

``MAP`` is the layer -> metrics -> workload record: which end-to-end
metric a change in the layer should move, on which workload, and where
the prediction is *no change*.  ``FIRES`` and ``SILENT`` turn the
load-bearing part of it into a self-check of every traced run: a layer
listed under a workload must show calls there, and one listed as silent
must show none.
"""

from __future__ import annotations

from typing import Any

from tracer import Tracer

#: (layer, per-layer metrics, should move, no change on)
MAP = [
    ("network.vectorized",
     "solve_exact.{calls,busy_s} grid_rows.{calls,rows,busy_s} "
     "additive_grid.{calls,busy_s}",
     "sweep_cold_s on figures", "validate_* on validate"),
    ("network.cprobe",
     "golden.{calls,requests,busy_s} probe.{calls,requests,busy_s} available",
     "sweep_cold_s on figures; serve_miss_p50_ms on serve",
     "validate_* on validate; serve_hit_* (hot stream)"),
    ("network.lanes",
     "mmoo.{calls,lanes,self_s} edf.{calls,lanes,self_s} edf_nonconverged",
     "sweep_cold_s on figures (64-lane batches); serve_miss_p50_ms (MMOO) "
     "and serve_miss_p90_ms (EDF) on serve (one lane at a time)",
     "validate_* on validate"),
    ("network.e2e, network.pernode, network.backlog",
     "e2e.per_cell.{calls,busy_s} pernode.{calls,busy_s} "
     "backlog.{calls,busy_s}",
     "serve_hit_p95_ms on serve (lock hold-ups of backlog solves); "
     "sweep_cold_s on figures (Fig. 4 additive)",
     "serve_miss_* (cold quantiles land below the backlog queries)"),
    ("experiments.batch",
     "plan.{calls,busy_s} execute.{calls,cells,busy_s} occupancy "
     "fallback_cells",
     "sweep_cold_s on figures", "serve_hit_* (hot stream)"),
    ("experiments.sweep, experiments.cache",
     "sweep.cell_key.{calls,busy_s} cache.get.{calls,hits,busy_s} "
     "cache.put.{calls,bytes,busy_s}",
     "sweep_warm_s (get, key) and sweep_cold_s (put) on figures; "
     "serve_hit_p50_ms on serve (key)", "validate_naive_s on validate"),
    ("experiments.executor",
     "map_stream.{busy_s,steals,queue_wait_s}",
     "sweep_cold_jobs2_s on figures", "serve_* on serve"),
    ("arrivals.processes", "mmoo_aggregate.{calls,slots,busy_s}",
     "validate_naive_s on validate", "sweep_* on figures; serve_* on serve"),
    ("simulation.engine, simulation.vectorized",
     "engine.trial.{calls,busy_s} "
     "vectorized.tandem.{calls,slot_hops,busy_s,slot_hops_per_s}",
     "validate_naive_s on validate", "sweep_* on figures; serve_* on serve"),
    ("simulation.rare",
     "trial.{calls,busy_s} estimate.busy_s variance_reduction",
     "validate_rare_s on validate", "sweep_* on figures; serve_* on serve"),
    ("service.api.model", "parse.{calls,busy_s} key.busy_s",
     "serve_hit_p50_ms, serve_max_qps on serve",
     "sweep_* on figures; validate_* on validate"),
    ("service.api.lru", "get.{calls,busy_s} hit_ratio",
     "serve_hit_p50_ms on serve", "sweep_* on figures"),
    ("service.api.coalescer",
     "submit.{calls,wait_s} flushes occupancy solve.busy_s",
     "serve_miss_p50_ms on serve", "serve_hit_* (hot stream)"),
    ("service.api.app, service.api.http",
     "app.answer.{calls,busy_s} http.hop_ms service.server_cpu_util",
     "serve_hit_p50_ms, serve_max_qps on serve", "-"),
    ("load generator, whole run",
     "loadgen.{lag_p99_ms,hit_p99_ms,sent,completed,hot_hit_share,"
     "cold_hit_share} "
     "workload.{unattributed_s,trace_overhead_ratio} failed_ratio",
     "validity of the other metrics", "-"),
]

#: Layers (tracer names) that must show calls on each workload's trace.
FIRES = {
    "figures": (
        "network.vectorized.solve_exact", "network.vectorized.grid_rows",
        "network.vectorized.additive_grid", "network.cprobe.golden",
        "network.cprobe.probe", "network.lanes.mmoo", "network.lanes.edf",
        "network.pernode", "experiments.batch.plan",
        "experiments.batch.execute", "experiments.sweep.cell_key",
        "experiments.cache.get", "experiments.cache.put",
        "experiments.executor.map_stream",
    ),
    "validate": (
        "network.lanes.mmoo", "network.e2e.per_cell",
        "arrivals.processes.mmoo_aggregate", "simulation.engine.trial",
        "simulation.vectorized.tandem", "simulation.rare.trial",
        "simulation.rare.estimate",
    ),
    "serve": (
        "network.cprobe.golden", "network.cprobe.probe",
        "network.lanes.mmoo", "network.lanes.edf", "network.backlog",
        "experiments.batch.plan", "experiments.batch.execute",
        "experiments.sweep.cell_key", "experiments.cache.get",
        "experiments.cache.put", "service.api.model.parse",
        "service.api.model.key", "service.api.lru.get",
        "service.api.coalescer.submit", "service.api.coalescer.solve",
        "service.api.app.answer",
    ),
}

_SIMULATION = (
    "arrivals.processes.mmoo_aggregate", "simulation.engine.trial",
    "simulation.vectorized.tandem", "simulation.rare.trial",
)
_SERVICE = (
    "service.api.model.parse", "service.api.lru.get",
    "service.api.coalescer.submit", "service.api.app.answer",
)
#: Layers that must show no calls on a workload's trace.
SILENT = {
    "figures": _SIMULATION + _SERVICE + ("network.backlog",),
    "validate": _SERVICE + ("network.pernode", "network.backlog"),
    "serve": _SIMULATION + ("network.pernode",),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def check_expectations(
    workload: str, tracer: Tracer, outcome: Any
) -> None:
    """Count a failure for each ``FIRES``/``SILENT`` expectation missed."""
    for layer in FIRES[workload]:
        outcome.check(
            tracer.get(layer, "calls") > 0,
            f"trace self-check: {layer} never called on {workload}",
        )
    for layer in SILENT[workload]:
        outcome.check(
            tracer.get(layer, "calls") == 0,
            f"trace self-check: {layer} called on {workload}",
        )


def layer_values(tracer: Tracer, info: dict[str, Any]) -> dict[str, float]:
    """Every per-layer value this run measured, by metric name."""
    values = {
        f"{layer}.{field}": value
        for layer, fields in tracer.to_json()["stats"].items()
        for field, value in fields.items()
    }
    get = tracer.get
    values.update({
        "network.lanes.edf_nonconverged": get(
            "network.lanes.edf", "nonconverged"
        ),
        "experiments.batch.occupancy": _ratio(
            get("experiments.batch.execute", "cells"),
            get("experiments.batch.execute", "calls"),
        ),
        "experiments.batch.fallback_cells": get(
            "experiments.batch.plan", "fallback_cells"
        ),
        "simulation.vectorized.tandem.slot_hops_per_s": _ratio(
            get("simulation.vectorized.tandem", "slot_hops"),
            get("simulation.vectorized.tandem", "busy_s"),
        ),
        "service.api.lru.hit_ratio": _ratio(
            get("service.api.lru.get", "hits"),
            get("service.api.lru.get", "calls"),
        ),
        "service.api.coalescer.submit.wait_s": get(
            "service.api.coalescer.submit", "busy_s"
        ),
        "service.api.coalescer.flushes": get(
            "service.api.coalescer.solve", "calls"
        ),
        "service.api.coalescer.occupancy": _ratio(
            get("service.api.coalescer.solve", "cells"),
            get("service.api.coalescer.solve", "calls"),
        ),
    })
    if "client_ms_mean" in info:
        answer_ms = 1e3 * _ratio(
            get("service.api.app.answer", "busy_s"),
            get("service.api.app.answer", "calls"),
        )
        values.update({
            "service.api.http.hop_ms": info["client_ms_mean"] - answer_ms,
            "service.server_cpu_util": info["cpu_s"] / info["wall_s"],
            "loadgen.lag_p99_ms": info["lag_p99_ms"],
            "loadgen.hit_p99_ms": info["hit_p99_ms"],
            "loadgen.sent": info["sent"],
            "loadgen.completed": info["completed"],
            "loadgen.hot_hit_share": info["hot_hit_share"],
            "loadgen.cold_hit_share": info["cold_hit_share"],
        })
    return values
