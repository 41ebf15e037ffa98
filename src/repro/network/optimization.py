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
  ``X``; hence ``d(X) = X + sum_h theta^h(X)`` is piecewise linear.  An
  O(H log H) slope sweep over the sorted region breakpoints finds its
  exact minimum; the near-minimal breakpoints are re-evaluated through
  :func:`theta_for_x`, so the value and argmin are those of evaluating
  ``d`` at every breakpoint and keeping the first minimum.
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
from repro.utils.validation import check_non_negative, check_positive

_EPS = 1e-12

#: Relative half-width of the window of near-minimal sweep candidates that
#: are re-evaluated exactly.  Must exceed the slope sweep's accumulation
#: drift (~H ulps) by a wide margin so the exact re-evaluation always sees
#: the minimizing breakpoint among its candidates.
_SWEEP_WINDOW = 1e-9


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
    return _theta(hop.service_rate, hop.cross_rate, hop.delta, sigma, x)


def _theta(
    r_svc: float, r_cross: float, delta: float, sigma: float, x: float
) -> float:
    """:func:`theta_for_x` on a bare ``(R, r, Delta)`` triple."""
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


def solve_exact(
    hop_params: Sequence[HopParameters], sigma: float
) -> ThetaSolution:
    """Exact solution of the optimization problem (38)-(39).

    ``d(X) = X + sum_h theta_h(X)`` is piecewise linear; its minimum over
    ``X >= 0`` is attained at a region breakpoint, all of which are known
    in closed form.  :func:`_sweep_solve` finds it in O(H log H); the
    thetas are :func:`theta_for_x` at the minimizing ``X``.
    """
    check_non_negative(sigma, "sigma")
    hops = list(hop_params)
    if not hops:
        raise ValueError("need at least one hop")
    if obs.enabled():
        obs.add("optimization.solve_exact_calls")
    delay, x = _sweep_solve(
        [(hop.service_rate, hop.cross_rate, hop.delta) for hop in hops], sigma
    )
    thetas = tuple(theta_for_x(hop, sigma, x) for hop in hops)
    return ThetaSolution(delay, x, thetas)


def _sweep_solve(
    hops_rrd: Sequence[tuple[float, float, float]], sigma: float
) -> tuple[float, float]:
    """Exact min of the piecewise-linear ``d(X)`` over ``(R, r, Delta)``
    hop triples in O(H log H): ``(delay, x)``.

    Builds the slope-change events of every hop, sweeps the sorted
    breakpoints accumulating ``d``, then re-evaluates the near-minimal
    candidates exactly (ascending, strict ``<``), so ``(delay, x)`` is
    the value and the first minimizer of ``d`` over the breakpoints that
    evaluating every one would give: events that do not change the slope
    are kept as candidates for that.  Returns ``(inf, 0.0)`` for a
    saturated hop, which :class:`HopParameters` rejects.  The probe
    (``vectorized._e2e_probe``) calls it on unvalidated triples, and the
    C kernel of :mod:`repro.network.cprobe` mirrors it.
    """
    events: list[tuple[float, float]] = []
    d0 = 0.0
    slope = 1.0
    for r_svc, r_cross, delta in hops_rrd:
        if delta == -math.inf:
            k1 = sigma / r_svc
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
        elif delta == math.inf:
            denom = r_svc - r_cross
            if denom <= 0.0:
                return math.inf, 0.0
            k1 = sigma / denom
            if k1 > 0.0:
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
        elif delta <= 0:
            a = -delta
            k1 = sigma / r_svc
            denom = r_svc - r_cross
            if k1 <= 0.0:
                continue
            if k1 < a:
                # theta dies before the cross bracket activates
                d0 += k1
                slope -= 1.0
                events.append((k1, 1.0))
                # non-kink scalar candidates, kept for tie parity
                events.append((a, 0.0))
                if denom > 0.0:
                    k2 = (sigma + r_cross * delta) / denom
                    if k2 > 0.0 and math.isfinite(k2):
                        events.append((k2, 0.0))
            else:
                if denom <= 0.0:
                    return math.inf, 0.0
                ratio = r_cross / r_svc
                k2 = (sigma + r_cross * delta) / denom
                d0 += k1
                if a > 0.0:
                    slope -= 1.0
                    events.append((a, ratio))
                    events.append((k2, 1.0 - ratio))
                else:
                    slope += ratio - 1.0
                    if k2 > 0.0:
                        events.append((k2, 1.0 - ratio))
                events.append((k1, 0.0))  # non-kink scalar candidate
        else:
            denom = r_svc - r_cross
            if denom <= 0.0:
                return math.inf, 0.0
            z = sigma / denom
            if z <= 0.0:
                continue
            ratio = r_cross / r_svc
            bp = z - delta
            aux = (sigma + r_cross * (0.0 + delta)) / r_svc
            if bp <= 0.0:
                d0 += z
                slope -= 1.0
                events.append((z, 1.0))
            else:
                d0 += (sigma + r_cross * delta) / r_svc
                slope += ratio - 1.0
                events.append((bp, -ratio))
                events.append((z, 1.0))
            if aux > 0.0 and math.isfinite(aux):
                events.append((aux, 0.0))  # non-kink scalar candidate

    events.sort()
    candidates: list[tuple[float, float]] = [(0.0, d0)]
    acc = d0
    acc_min = d0
    cur = slope
    prev = 0.0
    for x, change in events:
        acc += cur * (x - prev)
        prev = x
        candidates.append((x, acc))
        if acc < acc_min:
            acc_min = acc
        cur += change

    window = acc_min + _SWEEP_WINDOW * max(1.0, abs(acc_min))
    best_d = math.inf
    best_x = 0.0
    for x, acc in candidates:
        if acc <= window:
            # d(X) exactly, the hops summed in order (not with sum(),
            # which compensates from Python 3.12 on)
            total = 0.0
            for r_svc, r_cross, delta in hops_rrd:
                total += _theta(r_svc, r_cross, delta, sigma, x)
            d = x + total
            if d < best_d:
                best_d, best_x = d, x
    return best_d, best_x


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
