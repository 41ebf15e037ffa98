"""The end-to-end theta-optimization of Section IV (paper Eqs. (38)-(44)).

After the change of variables ``X = d(sigma) - sum_h theta^h``, the
end-to-end delay bound is the value of

    minimize    d(sigma) = X + sum_{h=1}^H theta^h
    subject to  (C_h - (h-1) gamma) (X + theta^h)
                  - (r_h) [ X + Delta_h(theta^h) ]_+  >=  sigma   for all h
                theta^h, X >= 0

with ``r_h = rho_c^h + gamma`` and ``Delta_h(y) = min(Delta_h, y)``.  For a
homogeneous path ``C_h = C``, ``r_h = rho_c + gamma``, ``Delta_h =
Delta_{0,c}`` for all ``h``; the module equally supports the paper's
non-homogeneous extension (per-hop parameters).

Two solvers are provided:

* :func:`solve_exact` — for fixed ``X`` the constraints decouple and the
  smallest feasible ``theta^h(X)`` is explicit and piecewise linear in
  ``X``; hence ``d(X) = X + sum_h theta^h(X)`` is piecewise linear and its
  exact minimum is found by enumerating all region breakpoints.
* :func:`solve_paper` — the paper's explicit procedure: pick the smallest
  index ``K`` satisfying Eq. (40), set ``X`` by Eq. (41) (``Delta >= 0``)
  or Eq. (42) (``Delta <= 0``), read off ``d`` from Eq. (39).  The paper
  itself notes these choices are near-optimal rather than optimal; the
  test-suite and the ablation benchmark quantify the (tiny) gap.

Closed forms used for cross-validation:

* blind multiplexing (``Delta = +inf``): ``d = sigma / (C - rho_c - H gamma)``
  (Eq. (43));
* FIFO (``Delta = 0``): Eq. (44).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.utils.numeric import minimize_piecewise_linear
from repro.utils.validation import check_non_negative, check_positive

_EPS = 1e-12


@dataclass(frozen=True)
class HopParameters:
    """Per-hop constraint parameters of the optimization problem.

    Attributes
    ----------
    service_rate:
        ``C_h - (h-1) gamma`` — the degraded link rate at this hop.
    cross_rate:
        ``r_h = rho_c^h + gamma`` — the cross-traffic envelope rate.
    delta:
        The scheduler constant ``Delta_{0,c}`` at this hop
        (``-inf``..``+inf``; ``+inf`` = BMUX, ``0`` = FIFO, negative =
        through traffic favored by EDF).
    """

    service_rate: float
    cross_rate: float
    delta: float

    def __post_init__(self) -> None:
        check_positive(self.service_rate, "service_rate")
        check_non_negative(self.cross_rate, "cross_rate")
        if math.isnan(self.delta):
            raise ValueError("delta must not be NaN")
        if self.service_rate <= self.cross_rate + _EPS and self.delta > -math.inf:
            raise ValueError(
                f"hop is saturated: service_rate {self.service_rate:g} <= "
                f"cross_rate {self.cross_rate:g}"
            )


@dataclass(frozen=True)
class ThetaSolution:
    """Result of the theta-optimization.

    ``delay = x + sum(thetas)`` is the end-to-end ``d(sigma)``.
    """

    delay: float
    x: float
    thetas: tuple[float, ...]

    @property
    def hops(self) -> int:
        return len(self.thetas)


def homogeneous_hops(
    hops: int,
    capacity: float,
    gamma: float,
    rho_cross: float,
    delta: float,
) -> list[HopParameters]:
    """Per-hop parameters of a homogeneous path (paper Sec. IV).

    Hop ``h`` (1-based) receives the degraded service rate
    ``C - (h-1) gamma`` from the network-service-curve construction of
    Eq. (30) and cross rate ``rho_c + gamma``.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    check_positive(capacity, "capacity")
    check_non_negative(gamma, "gamma")
    check_non_negative(rho_cross, "rho_cross")
    return [
        HopParameters(capacity - (h - 1) * gamma, rho_cross + gamma, delta)
        for h in range(1, hops + 1)
    ]


def theta_for_x(hop: HopParameters, sigma: float, x: float) -> float:
    """Smallest ``theta >= 0`` satisfying hop's constraint at a given ``X``.

    The constraint is ``R (X + theta) - r [X + min(Delta, theta)]_+ >= sigma``
    with ``R = hop.service_rate``, ``r = hop.cross_rate``; its left side is
    nondecreasing in ``theta`` (``R > r`` in the sloped region), so the
    smallest solution is explicit by case analysis on ``Delta``.
    """
    r_svc, r_cross, delta = hop.service_rate, hop.cross_rate, hop.delta
    if delta == -math.inf:
        # cross traffic never interferes
        return max(0.0, sigma / r_svc - x)
    if delta == math.inf:
        # BMUX: min(Delta, theta) = theta for all theta >= 0
        return max(0.0, sigma / (r_svc - r_cross) - x)
    if delta <= 0:
        # min(Delta, theta) = Delta; the bracket [X + Delta]_+ is a constant
        clipped = max(0.0, x + delta)
        return max(0.0, (sigma + r_cross * clipped) / r_svc - x)
    # 0 < Delta < inf: two branches
    theta_low = (sigma - (r_svc - r_cross) * x) / (r_svc - r_cross)
    if theta_low <= delta:
        return max(0.0, theta_low)
    # theta > Delta: R (X + theta) - r (X + Delta) >= sigma
    theta_high = (sigma + r_cross * (x + delta)) / r_svc - x
    return max(theta_high, delta)


def _breakpoints_for_hop(hop: HopParameters, sigma: float) -> list[float]:
    """X-values where ``theta_h(X)`` changes slope (region boundaries)."""
    r_svc, r_cross, delta = hop.service_rate, hop.cross_rate, hop.delta
    points: list[float] = []
    if delta == -math.inf:
        points.append(sigma / r_svc)
    elif delta == math.inf:
        points.append(sigma / (r_svc - r_cross))
    elif delta <= 0:
        points.append(-delta)  # [X + Delta]_+ kink
        points.append(sigma / r_svc)  # theta -> 0 in the clipped region
        denom = r_svc - r_cross
        points.append((sigma + r_cross * delta) / denom)  # theta -> 0, unclipped
    else:
        denom = r_svc - r_cross
        points.append(sigma / denom)  # theta -> 0
        points.append(sigma / denom - delta)  # branch switch at theta = Delta
        points.append((sigma + r_cross * (0.0 + delta)) / r_svc)  # aux
    return [p for p in points if p > 0 and math.isfinite(p)]


def solve_exact(
    hop_params: Sequence[HopParameters], sigma: float
) -> ThetaSolution:
    """Exact solution of the optimization problem (38)-(39).

    ``d(X) = X + sum_h theta_h(X)`` is piecewise linear; the minimum over
    ``X >= 0`` is attained at a region breakpoint, all of which are known
    in closed form.
    """
    check_non_negative(sigma, "sigma")
    hops = list(hop_params)
    if not hops:
        raise ValueError("need at least one hop")

    def objective(x: float) -> float:
        return x + sum(theta_for_x(hop, sigma, x) for hop in hops)

    # sort + dedupe: hops sharing rates produce identical breakpoints, and
    # each duplicate would cost a redundant O(H) objective evaluation
    breakpoints: set[float] = set()
    for hop in hops:
        breakpoints.update(_breakpoints_for_hop(hop, sigma))
    ordered = sorted(breakpoints)
    if obs.enabled():
        obs.add("optimization.solve_exact_calls")
        obs.add("optimization.solve_exact_breakpoints", len(ordered))
    upper = (ordered[-1] if ordered else 0.0) + 1.0
    x_best, d_best = minimize_piecewise_linear(
        objective, ordered, lower=0.0, upper=upper
    )
    thetas = tuple(theta_for_x(hop, sigma, x_best) for hop in hops)
    return ThetaSolution(d_best, x_best, thetas)


def _paper_k(
    hops: Sequence[HopParameters],
) -> list[float]:
    """The Eq. (40) partial sums ``sum_{h>K} (R_h - r_h) / R_h`` per ``K``."""
    n = len(hops)
    sums = [0.0] * (n + 1)
    for k in range(n - 1, -1, -1):
        hop = hops[k]  # 1-based hop k+1
        term = (hop.service_rate - hop.cross_rate) / hop.service_rate
        sums[k] = sums[k + 1] + term
    return sums


def solve_paper(
    hop_params: Sequence[HopParameters], sigma: float
) -> ThetaSolution:
    """The paper's explicit near-optimal procedure (Eqs. (40)-(42)).

    Homogeneous in ``Delta`` (all hops must share the scheduler constant,
    as in the paper's setting); per-hop rates may differ.  For ``Delta``
    with mixed sign across hops use :func:`solve_exact`.
    """
    check_non_negative(sigma, "sigma")
    hops = list(hop_params)
    if not hops:
        raise ValueError("need at least one hop")
    deltas = {hop.delta for hop in hops}
    if len(deltas) != 1:
        raise ValueError("solve_paper requires a single Delta across hops")
    if obs.enabled():
        obs.add("optimization.solve_paper_calls")
    delta = deltas.pop()
    n = len(hops)
    tail_sums = _paper_k(hops)

    # The paper takes the *smallest* K with the Eq. (40) sum below 1 whose
    # Eq. (41) choice is valid; tail_sums[n] = 0 < 1 and K = n is always
    # valid, so the loop returns — no best-tracking across K is needed.
    for k in range(n + 1):
        if tail_sums[k] >= 1.0:
            continue
        if delta >= 0:
            if k == 0:
                x = 0.0
            else:
                hop_k = hops[k - 1]
                x = sigma / (hop_k.service_rate - hop_k.cross_rate)
            thetas = tuple(theta_for_x(hop, sigma, x) for hop in hops)
            # Eq. (41)'s validity condition: theta_h > Delta for h > K.
            # For Delta = +inf (BMUX) no finite theta qualifies, so the
            # only valid choice is K = H — which recovers Eq. (43).
            if any(thetas[h] <= delta + _EPS for h in range(k, n)):
                continue
        else:
            if k == 0:
                x = -delta
            else:
                # Eq. (42): X = max( sigma / (C - (K-1) gamma),
                #                    (sigma + (rho_c + gamma) Delta)
                #                      / (C - rho_c - K gamma) )
                hop_k = hops[k - 1]  # 1-based hop K: rate C - (K-1) gamma
                x = max(
                    sigma / hop_k.service_rate,
                    (sigma + hop_k.cross_rate * delta)
                    / (hop_k.service_rate - hop_k.cross_rate),
                )
            thetas = tuple(theta_for_x(hop, sigma, x) for hop in hops)
        return ThetaSolution(x + sum(thetas), x, thetas)
    raise AssertionError("unreachable: K = H is always valid")  # pragma: no cover


def bmux_delay(
    hops: int, capacity: float, gamma: float, rho_cross: float, sigma: float
) -> float:
    """Closed form Eq. (43): ``d = sigma / (C - rho_c - H gamma)``."""
    denom = capacity - rho_cross - hops * gamma
    if denom <= 0:
        return math.inf
    return sigma / denom


def fifo_delay(
    hops: int, capacity: float, gamma: float, rho_cross: float, sigma: float
) -> float:
    """Closed form Eq. (44) for FIFO (``Delta = 0``).

    ``K`` is the smallest index satisfying Eq. (40); then
    ``d = sigma/(C - rho_c - K gamma) * (1 + sum_{h>K} (h-K) gamma /
    (C - (h-1) gamma))``.  A saturated path (``C - rho_c - H gamma <=
    0``) has no finite bound and returns ``inf``, as in
    :func:`bmux_delay`.
    """
    if hops < 1:
        raise ValueError("hops must be >= 1")
    check_positive(capacity, "capacity")
    check_non_negative(gamma, "gamma")
    check_non_negative(rho_cross, "rho_cross")
    if capacity - rho_cross - hops * gamma <= 0:
        return math.inf
    # the Eq. (40) tail sums of _paper_k over the homogeneous hops
    r = rho_cross + gamma
    tails = [0.0] * (hops + 1)
    for k in range(hops - 1, -1, -1):
        r_svc = capacity - k * gamma
        tails[k] = tails[k + 1] + (r_svc - r) / r_svc
    k = next((kk for kk in range(hops + 1) if tails[kk] < 1.0), hops)
    if k == 0:
        # Eq. (41) sets X = 0; every theta_h = sigma / (C - (h-1) gamma)
        return sum(
            sigma / (capacity - (h - 1) * gamma) for h in range(1, hops + 1)
        )
    x = sigma / (capacity - rho_cross - k * gamma)
    total = x
    for h in range(k + 1, hops + 1):
        total += (h - k) * gamma * x / (capacity - (h - 1) * gamma)
    return total
