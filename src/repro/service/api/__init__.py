"""Bound-query service: async batched admission control over HTTP/JSON.

The operational face of the paper's analysis: a long-running process
that answers "does this flow fit on this path at this epsilon?" on
demand.  The ROADMAP's "millions of users" direction needs tens of
thousands of bound queries per second from one process; three layers
make that possible without touching the solver mathematics:

* a shared in-memory **LRU front-cache** (:mod:`repro.service.api.lru`)
  keyed by the validated query, in front of the on-disk
  :class:`~repro.experiments.cache.CellCache` keyed by the canonical
  cell-params hash, so warm queries never reach the solver and cold
  answers are shared with the sweep pipeline;
* a **batch coalescer** (:mod:`repro.service.api.coalescer`) that
  collects the queries arriving inside a short window (default ~2 ms)
  or up to a lane cap, plans them through the cross-cell batch planner
  of :mod:`repro.experiments.batch`, and solves whole groups as one
  broadcasted kernel call via :mod:`repro.network.lanes` — answers are
  bitwise-identical to single-query solver calls;
* a **zero-heavy-dependency asyncio HTTP/1.1 server**
  (:mod:`repro.service.api.http`) exposing ``POST /v1/bounds``,
  ``POST /v1/admissible``, ``GET /v1/healthz``, and ``GET /v1/metrics``
  (a :mod:`repro.obs` snapshot, so the metrics endpoint doubles as the
  service's telemetry).

Run it with ``python -m repro.service.api --port 8080``; the matching
client helper lives in :mod:`repro.service.api.client`.
"""

from repro.service.api.app import BoundService, ServiceConfig
from repro.service.api.cells import (
    SERVICE_CELL_FN,
    bound_query_cell,
    bound_query_plan,
)
from repro.service.api.coalescer import BatchCoalescer
from repro.service.api.http import HttpServer
from repro.service.api.lru import LRUCache
from repro.service.api.model import BoundQuery, QueryError

__all__ = [
    "BoundService",
    "ServiceConfig",
    "BatchCoalescer",
    "HttpServer",
    "LRUCache",
    "BoundQuery",
    "QueryError",
    "SERVICE_CELL_FN",
    "bound_query_cell",
    "bound_query_plan",
]
