"""Query parsing and canonicalization for the bound-query service.

A :class:`BoundQuery` is the validated, normalized form of one JSON
request body.  Normalization makes the query's identity *canonical*:
defaults are filled in (the Section V traffic/capacity, quick
optimization grids), EDF deadline weights are forced to the paper
defaults for schedulers they cannot affect, and every number is stored
in one type (``float`` or ``int``).  Two requests that must produce the
same answer therefore parse to equal, equally hashing queries, which is
what keys the service's in-memory LRU.  The query also freezes into a
:class:`~repro.experiments.sweep.Cell` whose
:func:`~repro.experiments.sweep.cell_key` sha256 hash keys the on-disk
cell cache and is the response's ``"key"``; two queries are equal
exactly when their hashes are (property-tested in
``tests/service/api/test_model.py``).  Body fields the model does not
read (a ``backend``, say) are ignored and enter neither.

Validation failures raise :class:`QueryError`, which the HTTP layer
renders as a structured 400 (code, message, offending field) — a
malformed body is a client error, never a 500.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.experiments.config import (
    CAPACITY,
    EPSILON,
    QUICK_GRIDS,
    SCHEDULER_MAP,
)
from repro.experiments.sweep import Cell, cell_key
from repro.service.api.cells import SERVICE_CELL_FN

__all__ = ["BoundQuery", "QueryError", "PAPER_TRAFFIC"]

#: The Section V MMOO flow, as canonical (peak, p11, p22) cell params.
PAPER_TRAFFIC = (1.5, 0.989, 0.9)

#: Paper Section V EDF deadlines d*_0 = 1, d*_c = 10 as weights.
_DEFAULT_WEIGHTS = (1.0, 10.0)

#: Hard caps keeping a single query's work bounded (the generated-C
#: probe kernel is specialized up to 1024 hops; larger grids than 512
#: points buy nothing below double precision).
_MAX_HOPS = 1024
_MAX_FLOWS = 1_000_000
_MAX_GRID = 512

KINDS = ("delay", "backlog")


class QueryError(ValueError):
    """A malformed or unsupported query (rendered as HTTP 400)."""

    def __init__(self, message: str, *, field: str | None = None):
        super().__init__(message)
        self.field = field

    def to_json(self) -> dict[str, Any]:
        error: dict[str, Any] = {
            "code": "bad-request",
            "message": str(self),
        }
        if self.field is not None:
            error["field"] = self.field
        return {"error": error}


def _require(
    body: Mapping[str, Any], field: str, default: Any = None
) -> Any:
    value = body.get(field, default)
    if value is None:
        raise QueryError(f"missing required field {field!r}", field=field)
    return value


def _as_int(value: Any, field: str, *, lo: int, hi: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise QueryError(
            f"{field} must be an integer, got {value!r}", field=field
        )
    if not lo <= value <= hi:
        raise QueryError(
            f"{field} must be in [{lo}, {hi}], got {value}", field=field
        )
    return value


def _as_float(
    value: Any, field: str, *, lo: float, hi: float = math.inf,
    open_lo: bool = False, open_hi: bool = False,
) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise QueryError(
            f"{field} must be a number, got {value!r}", field=field
        )
    value = float(value)
    if not math.isfinite(value):
        raise QueryError(f"{field} must be finite", field=field)
    if (value < lo or (open_lo and value == lo)) or (
        value > hi or (open_hi and value == hi)
    ):
        bounds = f"{'(' if open_lo else '['}{lo}, {hi}{')' if open_hi else ']'}"
        raise QueryError(
            f"{field} must be in {bounds}, got {value}", field=field
        )
    return value


@dataclass(frozen=True)
class BoundQuery:
    """One validated, canonical bound query."""

    kind: str
    scheduler: str
    hops: int
    n_through: int
    n_cross: int
    epsilon: float
    traffic: tuple
    capacity: float
    deadline_weight_through: float
    deadline_weight_cross: float
    s_grid: int
    gamma_grid: int

    @classmethod
    def from_json(cls, body: Any) -> "BoundQuery":
        """Parse and validate a JSON request body (raises QueryError)."""
        if not isinstance(body, Mapping):
            raise QueryError(
                "request body must be a JSON object, got "
                f"{type(body).__name__}"
            )
        kind = _require(body, "kind", "delay")
        if kind not in KINDS:
            raise QueryError(
                f"kind must be one of {list(KINDS)}, got {kind!r}",
                field="kind",
            )
        scheduler = _require(body, "scheduler")
        if scheduler not in SCHEDULER_MAP:
            raise QueryError(
                f"scheduler must be one of {sorted(SCHEDULER_MAP)}, got "
                f"{scheduler!r}",
                field="scheduler",
            )
        if kind == "backlog" and scheduler == "EDF":
            raise QueryError(
                "backlog bounds are not available for EDF (the deadline "
                "fixed point is defined on the delay bound)",
                field="scheduler",
            )
        hops = _as_int(_require(body, "hops"), "hops", lo=1, hi=_MAX_HOPS)
        n_through = _as_int(
            _require(body, "n_through"), "n_through", lo=1, hi=_MAX_FLOWS
        )
        n_cross = _as_int(
            body.get("n_cross", 0), "n_cross", lo=0, hi=_MAX_FLOWS
        )
        epsilon = _as_float(
            body.get("epsilon", EPSILON), "epsilon",
            lo=0.0, hi=1.0, open_lo=True, open_hi=True,
        )
        traffic_raw = body.get("traffic", PAPER_TRAFFIC)
        if (
            not isinstance(traffic_raw, (list, tuple))
            or len(traffic_raw) != 3
        ):
            raise QueryError(
                "traffic must be a [peak, p11, p22] triple",
                field="traffic",
            )
        traffic = (
            _as_float(traffic_raw[0], "traffic.peak", lo=0.0, open_lo=True),
            _as_float(
                traffic_raw[1], "traffic.p11",
                lo=0.0, hi=1.0, open_lo=True, open_hi=True,
            ),
            _as_float(
                traffic_raw[2], "traffic.p22",
                lo=0.0, hi=1.0, open_lo=True, open_hi=True,
            ),
        )
        capacity = _as_float(
            body.get("capacity", CAPACITY), "capacity", lo=0.0, open_lo=True
        )
        if scheduler == "EDF":
            weight_through = _as_float(
                body.get("deadline_weight_through", _DEFAULT_WEIGHTS[0]),
                "deadline_weight_through", lo=0.0, open_lo=True,
            )
            weight_cross = _as_float(
                body.get("deadline_weight_cross", _DEFAULT_WEIGHTS[1]),
                "deadline_weight_cross", lo=0.0, open_lo=True,
            )
        else:
            # canonicalize: weights cannot affect non-EDF answers, so
            # pinning them keeps the cache key independent of them
            weight_through, weight_cross = _DEFAULT_WEIGHTS
        s_grid = _as_int(
            body.get("s_grid", QUICK_GRIDS["s_grid"]), "s_grid",
            lo=3, hi=_MAX_GRID,
        )
        gamma_grid = _as_int(
            body.get("gamma_grid", QUICK_GRIDS["gamma_grid"]), "gamma_grid",
            lo=3, hi=_MAX_GRID,
        )
        return cls(
            kind=kind,
            scheduler=scheduler,
            hops=hops,
            n_through=n_through,
            n_cross=n_cross,
            epsilon=epsilon,
            traffic=traffic,
            capacity=capacity,
            deadline_weight_through=weight_through,
            deadline_weight_cross=weight_cross,
            s_grid=s_grid,
            gamma_grid=gamma_grid,
        )

    def params(self) -> dict[str, Any]:
        """The canonical cell parameters of this query."""
        return {
            "kind": self.kind,
            "scheduler": self.scheduler,
            "hops": self.hops,
            "n_through": self.n_through,
            "n_cross": self.n_cross,
            "epsilon": self.epsilon,
            "traffic": self.traffic,
            "capacity": self.capacity,
            "deadline_weight_through": self.deadline_weight_through,
            "deadline_weight_cross": self.deadline_weight_cross,
            "s_grid": self.s_grid,
            "gamma_grid": self.gamma_grid,
        }

    def cell(self) -> Cell:
        """This query as a sweep cell (the unit of caching and batching)."""
        return Cell.make(SERVICE_CELL_FN, **self.params())

    def key(self) -> str:
        """The canonical content hash of the disk cache and the response."""
        return cell_key(self.cell())
