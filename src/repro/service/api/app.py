"""The bound service core: query -> caches -> coalescer -> answer.

:class:`BoundService` is transport-agnostic (the HTTP layer in
:mod:`repro.service.api.http` is a thin adapter over it) and owns the
full answer path of one query:

1. parse/validate into a canonical :class:`~repro.service.api.model.BoundQuery`;
2. probe the in-memory LRU, then the on-disk
   :class:`~repro.experiments.cache.CellCache` — both keyed by the same
   :func:`~repro.experiments.sweep.cell_key` hash, so the service shares
   warm entries with the sweep pipeline;
3. on a full miss, submit the cell to the
   :class:`~repro.service.api.coalescer.BatchCoalescer` and write the
   answer back through both cache layers.

The service keeps its own always-on :class:`~repro.obs.MetricsRegistry`
(separate from the process-global default-off one): request latency,
in-flight gauge, cache-layer counters, and the merged planner/solver
snapshots of every flush.  Its snapshot is the ``/v1/metrics`` body.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Awaitable, Callable

from repro.experiments.batch import MAX_LANES
from repro.experiments.cache import DEFAULT_CACHE_DIR, CellCache
from repro.obs import MetricsRegistry
from repro.service.api.coalescer import DEFAULT_WINDOW_S, BatchCoalescer
from repro.service.api.lru import LRUCache
from repro.service.api.model import BoundQuery, QueryError

__all__ = ["ServiceConfig", "BoundService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance (CLI flags map 1:1 onto these)."""

    batch_window_s: float = DEFAULT_WINDOW_S
    max_lanes: int = MAX_LANES
    lru_size: int = 4096
    lru_ttl_s: float | None = None
    cache_dir: str | None = DEFAULT_CACHE_DIR


class BoundService:
    """Answers bound/admission queries through the cache + batch stack.

    ``clock``/``sleep`` are the determinism hooks: ``clock`` feeds the
    LRU's TTL expiry, ``sleep`` the coalescer's batch window.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], Awaitable[None]] | None = None,
    ):
        self.config = config or ServiceConfig()
        self.registry = MetricsRegistry(enabled=True)
        self.lru = LRUCache(
            self.config.lru_size,
            ttl_s=self.config.lru_ttl_s,
            clock=clock,
            registry=self.registry,
        )
        self.disk_cache = (
            CellCache(self.config.cache_dir)
            if self.config.cache_dir is not None
            else None
        )
        self.coalescer = BatchCoalescer(
            window_s=self.config.batch_window_s,
            max_lanes=self.config.max_lanes,
            registry=self.registry,
            sleep=sleep,
        )
        self._inflight = 0
        self._started_at = time.time()

    async def aclose(self) -> None:
        await self.coalescer.aclose()

    def parse(self, body: Any) -> BoundQuery:
        """Validate a JSON body (raises :class:`QueryError` -> HTTP 400)."""
        return BoundQuery.from_json(body)

    async def answer(self, query: BoundQuery) -> dict[str, Any]:
        """The full bound answer of one query: row + provenance.

        The returned dict is the query's result row (bitwise-identical
        to a direct solver call) plus ``key`` (the canonical cell hash)
        and ``cached`` (``"lru"``, ``"disk"``, or ``None`` for a fresh
        solve).
        """
        start = time.perf_counter()
        self._inflight += 1
        self.registry.set_gauge("service.inflight", self._inflight)
        try:
            key = query.key()
            payload = self.lru.get(key)
            cached: str | None = "lru"
            if payload is None and self.disk_cache is not None:
                payload = self.disk_cache.get(key)
                if payload is not None:
                    cached = "disk"
                    self.registry.add("service.disk_hit")
                    self.lru.put(key, payload)
            if payload is None:
                cached = None
                self.registry.add("service.disk_miss")
                payload = await self.coalescer.submit(query.cell())
                self.lru.put(key, payload)
                if self.disk_cache is not None:
                    self.disk_cache.put(key, payload)
            row = dict(payload["rows"][0])
            row["key"] = key
            row["cached"] = cached
            return row
        finally:
            self._inflight -= 1
            self.registry.set_gauge("service.inflight", self._inflight)
            self.registry.observe(
                "service.request_latency", time.perf_counter() - start
            )

    async def bounds(self, body: Any) -> dict[str, Any]:
        """``POST /v1/bounds``: the bound row of one query."""
        self.registry.add("service.requests.bounds")
        return await self.answer(self.parse(body))

    async def admissible(self, body: Any) -> dict[str, Any]:
        """``POST /v1/admissible``: schedulability verdict of one query.

        The body is a bound query plus a ``target`` (max tolerable
        delay in ms, or backlog in kbit for ``kind="backlog"``).  The
        verdict is sound with respect to the paper's bounds: admissible
        only when the bound is feasible (finite), within target, and —
        for EDF — its deadline fixed point converged.  An unconverged
        EDF answer bounds a different deadline assignment than the one
        queried, so the verdict says ``"converged": false`` and rejects.
        """
        self.registry.add("service.requests.admissible")
        if not isinstance(body, dict):
            raise QueryError("request body must be a JSON object")
        target_raw = body.get("target")
        if not isinstance(target_raw, (int, float)) or isinstance(
            target_raw, bool
        ):
            raise QueryError(
                "target must be a number (max delay in ms, or backlog in "
                "kbit for kind='backlog')",
                field="target",
            )
        target = float(target_raw)
        query = self.parse({k: v for k, v in body.items() if k != "target"})
        row = await self.answer(query)
        bound = row["delay"] if query.kind == "delay" else row["backlog"]
        converged = bool(row.get("edf", {}).get("edf_converged", True))
        admissible = converged and bool(row["feasible"]) and bound <= target
        self.registry.add(
            "service.verdicts.admitted"
            if admissible
            else "service.verdicts.rejected"
        )
        return {
            "admissible": admissible,
            "kind": query.kind,
            "bound": bound,
            "target": target,
            "feasible": bool(row["feasible"]),
            "converged": converged,
            "key": row["key"],
            "cached": row["cached"],
        }

    def healthz(self) -> dict[str, Any]:
        """``GET /v1/healthz``: liveness + a little identity."""
        return {
            "status": "ok",
            "uptime_s": time.time() - self._started_at,
            "lru_entries": len(self.lru),
            "inflight": self._inflight,
        }

    def metrics(self) -> dict[str, Any]:
        """``GET /v1/metrics``: the service registry snapshot."""
        return self.registry.snapshot()
