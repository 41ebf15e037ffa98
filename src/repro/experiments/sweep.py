"""Declarative sweep pipeline: cells, specs, and the run engine.

Every figure of the paper is a sweep over (scheduler, H, U-or-mix)
cells, each paying a nested free-parameter optimization.  Instead of
hand-rolling the triple loop per figure, an experiment *declares* its
grid:

* :class:`Cell` — one grid point: a frozen, hashable record naming a
  top-level cell function (``"pkg.module:function"``) plus its keyword
  parameters.  Being plain data, cells pickle across process boundaries
  and hash into stable cache keys.
* :class:`SweepSpec` — the ordered cell grid of one experiment plus the
  sweep-level settings (optimization grid sizes, traffic constants)
  that enter every cell's cache key.
* :func:`run_sweep` — executes a spec through a pluggable executor
  (serial or ``multiprocessing``; see
  :mod:`repro.experiments.executor`), consulting an optional on-disk
  :class:`~repro.experiments.cache.CellCache` so warm re-runs only
  recompute changed cells.

A cell function receives the cell parameters as keyword arguments and
returns a JSON-serializable payload ``{"rows": [...], "diagnostics":
{...}}`` where each row is ``{"series", "x", "delay", "extra"}`` (or any
flat mapping, for non-figure sweeps such as validation).  Results come
back in grid order regardless of executor, so parallel rows are
identical to serial ones.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro import obs
from repro.experiments.cache import CellCache
from repro.experiments.executor import SerialExecutor
from repro.experiments.runner import ExperimentRow

Pairs = tuple[tuple[str, Any], ...]


def _freeze_value(value: Any) -> Any:
    """Recursively convert lists/dicts to tuples so cells stay hashable."""
    if isinstance(value, dict):
        return tuple(
            (str(k), _freeze_value(v)) for k, v in sorted(value.items())
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    return value


def freeze(params: Mapping[str, Any] | Pairs) -> Pairs:
    """Normalize a parameter mapping into sorted, hashable pairs."""
    items = params.items() if isinstance(params, Mapping) else params
    return tuple(
        (str(k), _freeze_value(v)) for k, v in sorted(items, key=lambda kv: str(kv[0]))
    )


@dataclass(frozen=True)
class Cell:
    """One grid point of a sweep: a cell function plus its parameters.

    ``fn`` is a dotted path ``"package.module:function"`` naming a
    top-level (hence picklable) function; ``params`` are its keyword
    arguments as sorted ``(name, value)`` pairs of plain values.
    """

    fn: str
    params: Pairs = ()

    @classmethod
    def make(cls, fn: str, **params: Any) -> "Cell":
        return cls(fn=fn, params=freeze(params))

    @property
    def kwargs(self) -> dict[str, Any]:
        """The parameters as a keyword-argument dict."""
        return dict(self.params)

    def resolve(self) -> Callable[..., Mapping[str, Any]]:
        """Import and return the cell function."""
        module_name, _, func_name = self.fn.partition(":")
        if not func_name:
            raise ValueError(
                f"cell fn must be 'module:function', got {self.fn!r}"
            )
        module = importlib.import_module(module_name)
        return getattr(module, func_name)


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)


def cell_key(cell: Cell, settings: Pairs = ()) -> str:
    """Stable content hash of a cell's function, parameters, and settings.

    Any change to the cell parameters or the sweep-level settings (grid
    sizes, traffic constants, ...) changes the key, which is what makes
    the on-disk cache safely content-keyed.
    """
    digest = hashlib.sha256(
        _canonical_json(
            {"fn": cell.fn, "params": cell.params, "settings": settings}
        ).encode()
    )
    return digest.hexdigest()


def execute_cell(cell: Cell) -> dict[str, Any]:
    """Run one cell and time it (the unit mapped by the executors).

    Top-level so that
    :class:`~repro.experiments.executor.WorkStealingExecutor` can pickle
    it into worker processes.
    """
    start = time.perf_counter()
    payload = dict(cell.resolve()(**cell.kwargs))
    payload.setdefault("diagnostics", {})
    payload["wall_time_s"] = time.perf_counter() - start
    return payload


def execute_cell_traced(item: tuple[Cell, float]) -> dict[str, Any]:
    """:func:`execute_cell` with a per-cell metrics snapshot attached.

    ``item`` is ``(cell, submitted_at)`` where ``submitted_at`` is the
    parent's ``time.time()`` at fan-out, so the cell's queue wait (time
    spent before a worker picked it up) can be measured across process
    boundaries without a shared clock source beyond the wall clock.

    The cell runs against a fresh scoped registry — in a pool worker the
    process registry is disabled, and under the serial executor this
    keeps the cell's metrics separable from the parent's — and the
    registry's snapshot is embedded in the payload as ``"metrics"``.
    The parent merges these snapshots after the executor joins.
    """
    cell, submitted_at = item
    started_at = time.time()
    with obs.scoped(enabled=True) as registry:
        payload = execute_cell(cell)
        registry.set_gauge(
            "cell.queue_wait_s", max(0.0, started_at - submitted_at)
        )
        registry.set_gauge("cell.worker_pid", os.getpid())
        payload["metrics"] = registry.snapshot()
    return payload


def probe_cell(**params: Any) -> dict[str, Any]:  # repro: noqa=RPR002 -- diagnostic cell: accepts arbitrary probe params by design, never cached for results
    """A trivial cell used by the test suite to observe executions.

    If ``record`` names a file, one line is appended per execution (so
    tests can count cache hits vs. recomputations without timing); a
    ``sleep_ms`` parameter stretches the cell's runtime (so interruption
    tests can kill a sweep mid-flight deterministically).
    """
    record = params.get("record")
    if record:
        with open(record, "a") as handle:  # repro: noqa=RPR001 -- deliberate I/O: tests count executions via this side channel
            handle.write("run\n")
    sleep_ms = float(params.get("sleep_ms", 0.0))
    if sleep_ms > 0.0:
        time.sleep(sleep_ms / 1000.0)  # repro: noqa=RPR001 -- deliberate delay: interruption tests stretch cell runtime
    value = float(params.get("value", 0.0))
    return {
        "rows": [
            {
                "series": str(params.get("series", "probe")),
                "x": value,
                "delay": value,
                "extra": {},
            }
        ],
        "diagnostics": {"probe": True},
    }


@dataclass(frozen=True)
class SweepSpec:
    """The ordered cell grid of one experiment.

    ``settings`` are sweep-level inputs shared by every cell (grid
    sizes, traffic constants); they are folded into every cell's cache
    key but not passed to the cell function — anything the function
    needs must be a cell parameter.
    """

    name: str
    cells: tuple[Cell, ...]
    settings: Pairs = ()
    x_label: str = "x"

    @classmethod
    def build(
        cls,
        name: str,
        cells: Iterable[Cell],
        *,
        settings: Mapping[str, Any] | Pairs = (),
        x_label: str = "x",
    ) -> "SweepSpec":
        return cls(
            name=name,
            cells=tuple(cells),
            settings=freeze(settings),
            x_label=x_label,
        )

    def keys(self) -> list[str]:
        return [cell_key(cell, self.settings) for cell in self.cells]


@dataclass(frozen=True)
class CellResult:
    """Outcome of one cell: its rows, diagnostics, and provenance.

    ``metrics`` is the cell's own observability snapshot (see
    :mod:`repro.obs`) when the sweep ran with tracing enabled — for
    cached cells it is whatever snapshot the original traced run stored,
    which makes it provenance like ``wall_time_s``, not a record of this
    run.  ``None`` when the cell was computed untraced.
    """

    cell: Cell
    key: str
    rows: tuple[Mapping[str, Any], ...]
    diagnostics: Mapping[str, Any] = field(default_factory=dict)
    wall_time_s: float = 0.0
    cached: bool = False
    metrics: Mapping[str, Any] | None = None


@dataclass(frozen=True)
class SweepResult:
    """All cell results of one sweep, in grid order."""

    spec: SweepSpec
    cells: tuple[CellResult, ...]

    @property
    def rows(self) -> list[dict[str, Any]]:
        """Every cell's rows, flattened in grid order, as plain dicts."""
        return [dict(row) for cell in self.cells for row in cell.rows]

    def experiment_rows(self) -> list[ExperimentRow]:
        """The rows as :class:`ExperimentRow` records (figure sweeps)."""
        return [
            ExperimentRow(
                series=row["series"],
                x=row["x"],
                delay=row["delay"],
                extra=dict(row.get("extra", {})),
            )
            for row in self.rows
        ]

    @property
    def total_wall_time_s(self) -> float:
        """Recorded compute time of all cells (cached ones report the
        wall-clock of the run that originally produced them)."""
        return sum(cell.wall_time_s for cell in self.cells)

    @property
    def computed_wall_time_s(self) -> float:
        """Compute time actually spent in this run (cache hits excluded)."""
        return sum(
            cell.wall_time_s for cell in self.cells if not cell.cached
        )

    @property
    def cached_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.cached)

    def to_artifact(
        self, *, meta: Mapping[str, Any] | None = None
    ) -> dict[str, Any]:
        """A JSON-serializable artifact: rows + per-cell diagnostics.

        Contains everything needed to reproduce the sweep: the grid
        (every cell's function and parameters), the sweep settings, the
        rows, and per-cell wall-clock / diagnostics / cache provenance.
        """
        return {
            "schema": "repro.sweep/1",
            "name": self.spec.name,
            "x_label": self.spec.x_label,
            "settings": {k: v for k, v in self.spec.settings},
            "meta": dict(meta or {}),
            "total_wall_time_s": self.total_wall_time_s,
            "cached_cells": self.cached_cells,
            "rows": self.rows,
            "cells": [
                {
                    "fn": cell.cell.fn,
                    "params": {k: v for k, v in cell.cell.params},
                    "key": cell.key,
                    "cached": cell.cached,
                    "wall_time_s": cell.wall_time_s,
                    "diagnostics": dict(cell.diagnostics),
                    "rows": [dict(row) for row in cell.rows],
                    **(
                        {"metrics": dict(cell.metrics)}
                        if cell.metrics is not None
                        else {}
                    ),
                }
                for cell in self.cells
            ],
        }


OnCell = Callable[[int, Mapping[str, Any], bool], None]


def run_sweep(
    spec: SweepSpec,
    *,
    executor: Any = None,
    cache: CellCache | None = None,
    batch: bool = False,
    on_cell: OnCell | None = None,
) -> SweepResult:
    """Execute a sweep spec: cache lookups, then fan-out, then assembly.

    Cells whose key is present in ``cache`` are served from disk;
    the misses go through ``executor`` (serial by default), and their
    payloads are written back.  Results always come back in grid order,
    so executor choice cannot change the rows.

    ``batch=True`` routes the misses through the cross-cell batch
    planner (:mod:`repro.experiments.batch`): compatible cells fuse into
    lane groups solved in one vectorized call each, and the executor's
    unit of work becomes the batch.  Payloads — and therefore rows,
    cache entries, and artifacts — are bitwise identical to the
    per-cell path.

    ``on_cell(index, payload, cached)`` streams completions: it fires
    once per cell, for cache hits during lookup and for computed cells
    as their work unit finishes (in completion order when the executor
    supports streaming).  Callbacks run in the parent process.

    When the active :mod:`repro.obs` registry is enabled, misses run
    traced: every computed work unit's metrics snapshot is merged into
    the sweep-level registry, together with per-cell wall-time /
    queue-wait series and a per-worker cell count.  Per-cell runs embed
    the snapshot in the cell payload; batched runs merge one snapshot
    per batch (the batch shares its solver work, so per-cell
    attribution would double-count) and cells carry no ``"metrics"``.
    """
    executor = executor or SerialExecutor()
    keys = spec.keys()
    payloads: list[dict[str, Any] | None] = [None] * len(spec.cells)
    cached = [False] * len(spec.cells)

    with obs.trace(f"sweep.{spec.name}"):
        if cache is not None:
            with obs.trace("sweep.cache_lookup"):
                for index, key in enumerate(keys):
                    hit = cache.get(key)
                    if hit is not None:
                        payloads[index] = hit
                        cached[index] = True
                        if on_cell is not None:
                            on_cell(index, hit, True)

        missing = [i for i, payload in enumerate(payloads) if payload is None]
        traced = obs.enabled()

        def complete(index: int, payload: dict[str, Any]) -> None:
            payloads[index] = payload
            if cache is not None:
                cache.put(keys[index], payload)
            if on_cell is not None:
                on_cell(index, payload, False)

        if missing and batch:
            _run_batched(spec, missing, executor, traced, complete)
        elif missing:
            if traced:
                submitted_at = time.time()
                fn: Any = execute_cell_traced
                items: list[Any] = [
                    (spec.cells[i], submitted_at) for i in missing
                ]
            else:
                fn = execute_cell
                items = [spec.cells[i] for i in missing]

            def deliver(position: int, payload: dict[str, Any]) -> None:
                if traced:
                    _merge_metrics(payload.get("metrics"), [payload])
                complete(missing[position], payload)

            _map_stream(executor, fn, items, deliver)

    results = tuple(
        CellResult(
            cell=spec.cells[index],
            key=keys[index],
            rows=tuple(payload.get("rows", ())),
            diagnostics=payload.get("diagnostics", {}),
            wall_time_s=float(payload.get("wall_time_s", 0.0)),
            cached=cached[index],
            metrics=payload.get("metrics"),
        )
        for index, payload in enumerate(payloads)
    )
    return SweepResult(spec=spec, cells=results)


def _map_stream(
    executor: Any,
    fn: Callable[[Any], Any],
    items: list[Any],
    deliver: Callable[[int, Any], None],
) -> None:
    """Stream ``fn`` over ``items``, tolerating map-only executors."""
    stream = getattr(executor, "map_stream", None)
    if stream is not None:
        stream(fn, items, deliver)
        return
    for position, result in enumerate(executor.map(fn, items)):
        deliver(position, result)


def _run_batched(
    spec: SweepSpec,
    missing: list[int],
    executor: Any,
    traced: bool,
    complete: Callable[[int, dict[str, Any]], None],
) -> None:
    """Plan the missing cells into batches and fan the batches out."""
    # Imported here: the batch planner imports this module.
    from repro.experiments.batch import (
        execute_batch,
        execute_batch_traced,
        plan_batches,
    )

    batches = plan_batches(
        spec, missing, jobs=int(getattr(executor, "jobs", 1))
    )
    if traced:
        submitted_at = time.time()
        fn: Any = execute_batch_traced
        items: list[Any] = [(b, submitted_at) for b in batches]
    else:
        fn = execute_batch
        items = list(batches)

    def deliver(position: int, result: Any) -> None:
        if traced:
            cell_payloads = result["payloads"]
            _merge_metrics(result["metrics"], cell_payloads)
        else:
            cell_payloads = result
        for index, payload in zip(batches[position].indices, cell_payloads):
            complete(index, payload)

    _map_stream(executor, fn, items, deliver)


def _merge_metrics(
    snap: Any, payloads: Sequence[Mapping[str, Any]]
) -> None:
    """Fold one computed work unit's snapshot into the sweep-level
    registry: a cell (``payloads`` is its one payload) or a batch.

    The snapshot is merged once per unit — a batch's cells share the
    fused solver work, so per-cell merging would double-count — while
    the wall-time series still gets one (amortized) observation per
    cell.
    """
    if not isinstance(snap, Mapping):
        return
    obs.merge(snap)
    for payload in payloads:
        obs.observe(
            "sweep.cell_wall_time_s", float(payload.get("wall_time_s", 0.0))
        )
    gauges = snap.get("gauges", {})
    queue_wait = gauges.get("cell.queue_wait_s")
    if queue_wait is not None:
        obs.observe("sweep.cell_queue_wait_s", float(queue_wait))
    pid = gauges.get("cell.worker_pid")
    if pid is not None:
        obs.add(f"sweep.worker.{int(pid)}.cells", len(payloads))
