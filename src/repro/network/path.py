"""Network path descriptions (Fig. 1) — homogeneous and heterogeneous.

Thin, validated containers around the functional analysis API: a
:class:`HomogeneousPath` is the paper's setting (same capacity, identically
distributed cross traffic, same scheduler at every node);
:class:`HeterogeneousPath` implements the non-homogeneous extension
sketched at the end of Section IV (per-node capacities, cross rates,
scheduler constants, and bounding functions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.arrivals.ebb import EBB
from repro.network.e2e import (
    E2EResult,
    Method,
    _gamma_interval,
    _solve,
    e2e_delay_bound,
    sigma_for_epsilon,
)
from repro.network.optimization import HopParameters
from repro.utils.numeric import grid_then_golden
from repro.utils.validation import check_int, check_positive, check_probability


@dataclass(frozen=True)
class HomogeneousPath:
    """A path of ``hops`` identical nodes with a common scheduler constant.

    ``delta`` is ``Delta_{0,c}``: ``math.inf`` for blind multiplexing,
    ``0.0`` for FIFO, ``d*_0 - d*_c`` for EDF.
    """

    hops: int
    capacity: float
    delta: float

    def __post_init__(self) -> None:
        check_int(self.hops, "hops", minimum=1)
        check_positive(self.capacity, "capacity")
        if math.isnan(self.delta):
            raise ValueError("delta must not be NaN")

    def delay_bound(
        self,
        through: EBB,
        cross: EBB,
        epsilon: float,
        *,
        gamma: float | None = None,
        method: Method = "exact",
    ) -> E2EResult:
        """End-to-end bound for EBB through/cross traffic on this path."""
        return e2e_delay_bound(
            through,
            cross,
            self.hops,
            self.capacity,
            self.delta,
            epsilon,
            gamma=gamma,
            method=method,
        )


@dataclass(frozen=True)
class HopSpec:
    """One node of a heterogeneous path."""

    capacity: float
    cross: EBB
    delta: float

    def __post_init__(self) -> None:
        check_positive(self.capacity, "capacity")
        if math.isnan(self.delta):
            raise ValueError("delta must not be NaN")
        if self.cross.rate >= self.capacity:
            raise ValueError(
                f"cross rate {self.cross.rate:g} saturates capacity "
                f"{self.capacity:g}"
            )


@dataclass(frozen=True)
class HeterogeneousPath:
    """Per-node capacities, cross traffic, and scheduler constants.

    Implements the remark at the end of Section IV: the optimization
    decomposes hop-wise exactly as in the homogeneous case with per-hop
    parameters, and the bounding functions combine through Eq. (33) even
    with distinct decays.
    """

    nodes: tuple[HopSpec, ...]

    def __post_init__(self) -> None:
        if not self.nodes:
            raise ValueError("a path needs at least one node")

    @property
    def hops(self) -> int:
        return len(self.nodes)

    @classmethod
    def from_sequences(
        cls,
        capacities: Sequence[float],
        cross: Sequence[EBB],
        deltas: Sequence[float],
    ) -> "HeterogeneousPath":
        """Build a path from parallel per-node sequences.

        The three sequences must have one entry per node.  A length
        mismatch raises a :class:`ValueError` naming the offending
        field(s) immediately, instead of failing deep inside the solver
        with an index error.
        """
        lengths = {
            "capacities": len(capacities),
            "cross": len(cross),
            "deltas": len(deltas),
        }
        hops = max(lengths.values(), default=0)
        if hops == 0:
            raise ValueError("a path needs at least one node")
        short = [name for name, n in lengths.items() if n != hops]
        if short:
            detail = ", ".join(f"{name}={lengths[name]}" for name in short)
            raise ValueError(
                f"per-node sequences disagree in length: {detail} "
                f"(expected one entry per node, longest has {hops})"
            )
        return cls(
            nodes=tuple(
                HopSpec(capacity=float(c), cross=x, delta=float(d))
                for c, x, d in zip(capacities, cross, deltas)
            )
        )

    def _hop_parameters(self, gamma: float) -> list[HopParameters]:
        return [
            HopParameters(
                node.capacity - index * gamma,
                node.cross.rate + gamma,
                node.delta,
            )
            for index, node in enumerate(self.nodes)
        ]

    def delay_bound_at_gamma(
        self,
        through: EBB,
        epsilon: float,
        gamma: float,
        *,
        method: Method = "exact",
    ) -> E2EResult:
        """End-to-end bound at a fixed rate degradation ``gamma``."""
        check_probability(epsilon, "epsilon")
        headroom = min(
            node.capacity - node.cross.rate - through.rate for node in self.nodes
        )
        if (self.hops + 1) * gamma >= headroom:
            return E2EResult(
                math.inf, math.inf, gamma, through.decay, 0.0, (), method
            )
        try:
            sigma = sigma_for_epsilon(
                through, [node.cross for node in self.nodes], gamma, epsilon
            )
        except ValueError:  # decay * gamma underflow, gamma <= 0, eps = 0
            return E2EResult(
                math.inf, math.inf, gamma, through.decay, 0.0, (), method
            )
        solution = _solve(self._hop_parameters(gamma), sigma, method)
        return E2EResult(
            solution.delay, sigma, gamma, through.decay,
            solution.x, solution.thetas, method,
        )

    def delay_bound(
        self,
        through: EBB,
        epsilon: float,
        *,
        method: Method = "exact",
        gamma_grid: int = 48,
    ) -> E2EResult:
        """End-to-end bound with ``gamma`` optimized numerically."""
        headroom = min(
            node.capacity - node.cross.rate - through.rate for node in self.nodes
        )
        if headroom <= 0:
            return E2EResult(
                math.inf, math.inf, 0.0, through.decay, 0.0, (), method
            )

        def objective(g: float) -> float:
            return self.delay_bound_at_gamma(
                through, epsilon, g, method=method
            ).delay

        g_best, _ = grid_then_golden(
            objective,
            *_gamma_interval(headroom, self.hops),
            grid_points=gamma_grid,
            log_spaced=True,
        )
        return self.delay_bound_at_gamma(through, epsilon, g_best, method=method)
