"""Importance sampling for rare delay events via exponential tilting.

The validation figures compare analytic bounds against simulated delay
quantiles, which caps the reachable violation probability at roughly
``1/slots`` per trial — epsilon ~ 1e-3 with the defaults.  Real
admission-control SLOs live at 1e-6..1e-9, where naive Monte Carlo needs
billions of sample paths.  This module estimates ``P(delay > bound)``
directly with a change of measure on the MMOO modulating chains:

1.  **Tilted chain** (:class:`TiltedMMOO`).  Exponentially twisting the
    two-state kernel ``T`` with the emission vector gives
    ``T_s(i, j) = T(i, j) e^{s r_j}`` whose spectral radius is
    ``exp(s * eb(s))`` — ``eb`` is exactly
    :meth:`repro.arrivals.mmoo.MMOOParameters.effective_bandwidth`.  The
    Doob h-transform of the twisted kernel is again an MMOO chain with
    ``p11~ = p11 / lam`` and ``p22~ = p22 e^{s P} / lam``, so the
    event-driven interval sampler applies unchanged.  At the Lundberg
    tilt ``s*`` (:func:`solve_lundberg_tilt`) the tilted aggregate rate
    crosses the link capacity and backlog drifts *up*.

2.  **Tilt until hit** (Siegmund's algorithm).  Statically tilting the
    whole horizon makes the likelihood-ratio variance exponential in the
    horizon.  Instead each trial samples tilted chains only until the
    stopping time ``tau`` — the first slot where a FIFO-proxy total
    system backlog reaches ``L = capacity * (threshold - margin)`` — and
    re-samples the rest of the horizon from the *base* chains given the
    per-flow states at ``tau``.  Because ``tau`` is a stopping time of
    the arrival filtration, the log likelihood ratio over ``[0, tau]``
    alone makes the weighted estimator unbiased for any margin; the
    margin only has to be large enough that every path with
    ``delay > threshold`` crosses ``L`` first (one slot of backlog per
    hop covers the fluid discretization, hence the ``hops + 1``
    default).

3.  **Weighted estimator** (:func:`estimate_tail`).  Each trial yields
    the exceedance fraction of the through-traffic delay mass and a
    weight ``w = exp(llr)``; the tail estimate is ``mean(w * f)`` with
    an asymptotic and a bootstrap-percentile 95% CI, plus the
    variance-reduction factor versus a Bernoulli naive trial of the same
    probability.

Both simulation engines consume the stitched aggregate arrival arrays,
so the estimator works for every scheduler the engines support.  The
scheme shines when the threshold is *deep* (several slots beyond the
bulk of the delay distribution); in the bulk the weights are
heavy-tailed and naive sampling is the right tool — the validation
layer picks the method per epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import obs
from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.processes import mmoo_on_intervals_and_arrivals
from repro.simulation.engine import SimulationConfig, _policy_factory
from repro.simulation.network import TandemNetwork, TandemResult
from repro.simulation.vectorized import _serve_fifo, run_tandem_vectorized
from repro.utils.numeric import bisect_increasing, safe_exp
from repro.utils.validation import check_int, check_positive

#: Extra slots beyond the expected hitting time in :func:`suggest_rare_slots`,
#: so the post-hit episode fully plays out at the base measure.
_HORIZON_PADDING = 200


@dataclass(frozen=True)
class TiltedMMOO:
    """An exponentially tilted MMOO chain and its change-of-measure data.

    Attributes
    ----------
    base:
        The original (sampling-target) chain.
    tilt:
        The tilt parameter ``s > 0``.
    params:
        The tilted chain — again a valid :class:`MMOOParameters`, so the
        event-driven sampler runs on it unchanged.
    log_radius:
        ``log lam(s) = s * eb(s)``, the log spectral radius of the
        twisted kernel.
    """

    base: MMOOParameters
    tilt: float
    params: MMOOParameters
    log_radius: float

    @classmethod
    def from_tilt(cls, base: MMOOParameters, tilt: float) -> "TiltedMMOO":
        """Construct the tilted chain for tilt ``s`` from the MGF machinery.

        The twisted kernel's Perron eigenvalue is
        ``lam = exp(s * eb(s))`` with ``eb`` the effective bandwidth; the
        h-transformed transition probabilities are ``p11 / lam`` and
        ``p22 * e^{s P} / lam``.  The result is a stochastic matrix
        whenever the base chain is bursty (``p12 + p21 <= 1``), which
        holds for every utilization the paper considers.
        """
        check_positive(tilt, "tilt")
        log_radius = tilt * base.effective_bandwidth(tilt)
        lam = safe_exp(log_radius)
        p11 = base.p11 / lam
        p22 = base.p22 * safe_exp(tilt * base.peak) / lam
        try:
            params = MMOOParameters(peak=base.peak, p11=p11, p22=p22)
        except ValueError as exc:
            raise ValueError(
                f"tilt {tilt:g} does not yield a valid MMOO chain for "
                f"{base!r} (needs a bursty base chain): {exc}"
            ) from exc
        return cls(base=base, tilt=tilt, params=params, log_radius=log_radius)

    @property
    def transition_log_ratios(self) -> tuple[float, float, float, float]:
        """``log(p_ij / p~_ij)`` for (11, 12, 21, 22) — the LLR atoms."""
        b, t = self.base, self.params
        return (
            math.log(b.p11 / t.p11),
            math.log(b.p12 / t.p12),
            math.log(b.p21 / t.p21),
            math.log(b.p22 / t.p22),
        )


def solve_lundberg_tilt(
    traffic: MMOOParameters,
    n_flows: int,
    capacity: float,
    *,
    tol: float = 1e-10,
) -> float:
    """The Lundberg tilt ``s*``: ``n_flows * eb(s*) = capacity``.

    At ``s*`` the tilted aggregate mean rate exceeds the link capacity,
    so backlog drifts upward and hitting a deep level takes linear
    instead of exponential time.  ``n_flows`` is the *total* flow count
    feeding one link (through + cross).
    """
    check_int(n_flows, "n_flows", minimum=1)
    check_positive(capacity, "capacity")
    if n_flows * traffic.peak <= capacity:
        raise ValueError(
            f"aggregate peak rate {n_flows * traffic.peak:g} never exceeds "
            f"capacity {capacity:g}; backlog cannot build and the delay "
            "tail probability is zero"
        )
    if n_flows * traffic.mean_rate >= capacity:
        raise ValueError(
            f"aggregate mean rate {n_flows * traffic.mean_rate:g} meets or "
            f"exceeds capacity {capacity:g}; the system is unstable and "
            "has no Lundberg tilt"
        )
    high = 1.0
    while n_flows * traffic.effective_bandwidth(high) < capacity:
        high *= 2.0
    return bisect_increasing(
        lambda s: n_flows * traffic.effective_bandwidth(s),
        capacity,
        1e-12,
        high,
        tol=tol,
    )


def window_transition_counts(
    starts: np.ndarray, ends: np.ndarray, n_flows: int, upto: int
) -> tuple[int, int, int, int]:
    """Aggregate transition counts ``(n11, n12, n21, n22)`` over ``[0, upto)``.

    Computed from the interval representation of ``n_flows`` chains: an
    interval starting at ``t >= 1`` is one OFF→ON transition, an interval
    ending before the window edge is one ON→OFF transition, and every
    interior ON slot pair is one ON→ON transition; the OFF→OFF count is
    the remainder of the ``n_flows * (upto - 1)`` transition pairs.
    """
    keep = starts < upto
    clipped_starts = starts[keep]
    clipped_ends = np.minimum(ends[keep], upto)
    n12 = int(np.count_nonzero(clipped_starts >= 1))
    n21 = int(np.count_nonzero(clipped_ends < upto))
    n22 = int(np.sum(clipped_ends - clipped_starts - 1))
    n11 = n_flows * (upto - 1) - n12 - n21 - n22
    return n11, n12, n21, n22


def window_log_likelihood_ratio(
    tilted: TiltedMMOO,
    starts: np.ndarray,
    ends: np.ndarray,
    n_flows: int,
    upto: int,
) -> float:
    """``log dP/dQ`` of ``n_flows`` chain paths over slots ``[0, upto)``.

    Transitions only: the initial slot-0 states are drawn from the base
    law under both measures, so they cancel.
    """
    n11, n12, n21, n22 = window_transition_counts(starts, ends, n_flows, upto)
    r11, r12, r21, r22 = tilted.transition_log_ratios
    return n11 * r11 + n12 * r12 + n21 * r21 + n22 * r22


def states_at(
    flows: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
    slot: int,
    n_flows: int,
) -> np.ndarray:
    """Per-flow ON/OFF states at ``slot``, recovered from the intervals."""
    on = np.zeros(n_flows, dtype=bool)
    inside = (starts <= slot) & (slot < ends)
    on[flows[inside]] = True
    return on


def suggest_rare_slots(
    tilted: TiltedMMOO,
    n_flows: int,
    capacity: float,
    threshold: float,
) -> int:
    """Horizon long enough to hit ``capacity * threshold`` and drain.

    Expected hitting time under the tilted drift, plus the threshold
    itself (the exceeding bits still need to traverse) and fixed padding
    for the base-measure epilogue.
    """
    drift = n_flows * tilted.params.mean_rate - capacity
    if drift <= 0:
        raise ValueError(
            f"tilted aggregate rate {n_flows * tilted.params.mean_rate:g} "
            f"does not exceed capacity {capacity:g}; raise the tilt"
        )
    return int(capacity * threshold / drift + threshold + _HORIZON_PADDING)


@dataclass(frozen=True)
class RareTrialResult:
    """One importance-sampled trial.

    Attributes
    ----------
    seed:
        The trial's RNG seed.
    log_weight:
        ``log dP/dQ`` of the sampled prefix ``[0, tau]``.
    tau:
        The stopping slot (``slots - 1`` when the proxy never crossed).
    result:
        The scheduler simulation on the stitched sample path.
    """

    seed: int
    log_weight: float
    tau: int
    result: TandemResult

    def weighted_exceed_fraction(self, threshold: float) -> float:
        """``w * f``: the trial's contribution to ``P(delay > threshold)``."""
        fraction = self.result.through_delays.exceed_fraction(threshold)
        if fraction == 0.0:
            return 0.0
        return safe_exp(self.log_weight) * fraction


def default_margin(hops: int) -> float:
    """Stopping-level safety margin in delay slots: one per hop plus one.

    Every path with end-to-end delay beyond ``threshold`` must carry at
    least ``capacity * (threshold - hops - 1)`` of total backlog at some
    slot, so stopping that far below the event boundary keeps the
    estimator's weights bounded while staying out of the bulk.
    """
    return float(hops + 1)


def simulate_tandem_mmoo_rare(
    config: SimulationConfig,
    threshold: float,
    *,
    tilted: TiltedMMOO | None = None,
    margin: float | None = None,
) -> RareTrialResult:
    """Run one tilt-until-hit trial of ``config`` for level ``threshold``.

    Mirrors :func:`repro.simulation.engine.simulate_tandem_mmoo` — same
    topology, same schedulers, same engines — but samples the through
    and cross aggregates from the tilted chain until the stopping time
    and returns the trial's log likelihood-ratio weight alongside the
    simulation result.  ``threshold`` is the delay level (in slots) the
    estimator targets; ``config.slots`` should come from
    :func:`suggest_rare_slots` unless a specific horizon is wanted.
    """
    check_positive(threshold, "threshold")
    n_flows_link = config.n_through + config.n_cross
    if tilted is None:
        tilted = TiltedMMOO.from_tilt(
            config.traffic,
            solve_lundberg_tilt(config.traffic, n_flows_link, config.capacity),
        )
    if margin is None:
        margin = default_margin(config.hops)
    level = config.capacity * max(threshold - margin, 1.0)
    n_slots = config.slots

    rng = np.random.default_rng(config.seed)
    counts = [config.n_through] + [config.n_cross] * config.hops
    sampled = []
    with obs.trace("rare.sample_tilted"):
        for n_flows in counts:
            if n_flows == 0:
                sampled.append(None)
                continue
            initial = rng.random(n_flows) < config.traffic.on_probability
            # the tilted chain keeps the base chain's peak
            sampled.append(
                mmoo_on_intervals_and_arrivals(
                    tilted.params, n_flows, n_slots, rng, initial_on=initial
                )
            )

    tau = _stopping_slot(sampled, config, level)

    log_weight = 0.0
    stitched: list[np.ndarray] = []
    tail_slots = n_slots - tau - 1
    with obs.trace("rare.stitch_base_tail"):
        for n_flows, agg in zip(counts, sampled):
            if agg is None:
                stitched.append(np.zeros(n_slots))
                continue
            flows, starts, ends, arrivals = agg
            log_weight += window_log_likelihood_ratio(
                tilted, starts, ends, n_flows, tau + 1
            )
            if tail_slots > 0:
                on_tau = states_at(flows, starts, ends, tau, n_flows)
                # one base-kernel step into slot tau+1, then the
                # event-driven sampler resumes from those states
                step = rng.random(n_flows)
                on_next = np.where(
                    on_tau,
                    step < config.traffic.p22,
                    step < config.traffic.p12,
                )
                *_, tail = mmoo_on_intervals_and_arrivals(
                    config.traffic, n_flows, tail_slots, rng,
                    initial_on=on_next,
                )
                arrivals = np.concatenate([arrivals[: tau + 1], tail])
            stitched.append(arrivals)

    with obs.trace(f"rare.run.{config.engine}"):
        if config.engine == "vectorized":
            result = run_tandem_vectorized(
                stitched[0],
                stitched[1:],
                capacity=config.capacity,
                scheduler=config.scheduler,
                edf_deadline_through=config.edf_deadline_through,
                edf_deadline_cross=config.edf_deadline_cross,
            )
        else:
            network = TandemNetwork(
                config.capacity,
                config.hops,
                _policy_factory(config),
                preemptive=config.preemptive,
                packet_size=config.packet_size,
            )
            result = network.run(stitched[0], stitched[1:])
    if obs.enabled():
        obs.add("rare.trials")
        obs.observe("rare.tau", float(tau))
    return RareTrialResult(
        seed=config.seed, log_weight=log_weight, tau=tau, result=result
    )


def _stopping_slot(
    sampled: list[tuple | None], config: SimulationConfig, level: float
) -> int:
    """First slot where the FIFO-proxy total system backlog reaches
    ``level`` (the last slot when it never does).

    The proxy chains the closed-form FIFO node recursion over the hops;
    per-slot backlog at slot ``t`` depends only on arrivals up to ``t``,
    so the crossing slot is a stopping time of the arrival filtration —
    the property the likelihood-ratio clipping relies on.  For non-FIFO
    schedulers the proxy still bounds where total backlog can build
    (work-conserving links serve identical aggregate fluid), it only
    stops being the exact per-bit delay map.
    """
    n_slots = config.slots
    through = sampled[0][3] if sampled[0] is not None else np.zeros(n_slots)
    total_backlog = np.zeros(n_slots)
    node_in = through
    for hop in range(config.hops):
        cross_agg = sampled[1 + hop]
        cross = (
            cross_agg[3] if cross_agg is not None else np.zeros(n_slots)
        )
        through_dep, _, backlog = _serve_fifo(
            node_in[:n_slots], cross, config.capacity
        )
        total_backlog += backlog[:n_slots]
        node_in = np.concatenate([[0.0], through_dep])
    crossed = np.nonzero(total_backlog >= level)[0]
    return int(crossed[0]) if len(crossed) else n_slots - 1


@dataclass(frozen=True)
class RareEstimate:
    """Weighted tail estimate with 95% confidence intervals.

    Attributes
    ----------
    probability:
        ``mean(w_i * f_i)`` — unbiased for ``P(delay > threshold)``.
    std_error:
        Asymptotic standard error ``std(w * f) / sqrt(n)``.
    ci_low, ci_high:
        Asymptotic 95% normal interval, clipped below at 0.
    boot_ci_low, boot_ci_high:
        Bootstrap percentile 95% interval (robust to the skewed weight
        distribution of importance sampling).
    n_trials:
        Trials aggregated.
    hit_rate:
        Fraction of trials with a nonzero exceedance.
    variance_reduction:
        ``p(1-p) / var(w * f)`` — how many naive Bernoulli trials one
        weighted trial is worth.  ``inf`` when every trial agrees.
    log_weight_std:
        Spread of the log weights; values beyond ~3 signal an
        over-tilted or bulk-threshold run whose estimate is unreliable.
    """

    probability: float
    std_error: float
    ci_low: float
    ci_high: float
    boot_ci_low: float
    boot_ci_high: float
    n_trials: int
    hit_rate: float
    variance_reduction: float
    log_weight_std: float

    @property
    def rel_half_width(self) -> float:
        """95% CI half-width relative to the estimate (``inf`` at 0)."""
        if self.probability <= 0.0:
            return math.inf
        return 1.96 * self.std_error / self.probability


def estimate_tail(
    trials: Sequence[RareTrialResult],
    threshold: float,
    *,
    bootstrap_resamples: int = 1000,
    bootstrap_seed: int = 0,
) -> RareEstimate:
    """Aggregate weighted trials into a tail-probability estimate.

    The bootstrap is seeded for reproducibility; the artifact records
    both interval flavors so consumers can prefer the percentile one
    when the weight distribution is visibly skewed.
    """
    if not trials:
        raise ValueError("estimate_tail needs at least one trial")
    return estimate_tail_from_arrays(
        [t.log_weight for t in trials],
        [t.result.through_delays.exceed_fraction(threshold) for t in trials],
        bootstrap_resamples=bootstrap_resamples,
        bootstrap_seed=bootstrap_seed,
    )


def estimate_tail_from_arrays(
    log_weights: Sequence[float],
    exceed_fractions: Sequence[float],
    *,
    bootstrap_resamples: int = 1000,
    bootstrap_seed: int = 0,
) -> RareEstimate:
    """:func:`estimate_tail` on pre-extracted per-trial arrays.

    The experiments layer stores trials as JSON rows (log weight and
    exceedance fraction per trial) so cached sweep cells stay cheap;
    this entry point re-aggregates them without the simulation objects.
    """
    log_weights = np.asarray(log_weights, dtype=float)
    fractions = np.asarray(exceed_fractions, dtype=float)
    if log_weights.size == 0 or log_weights.shape != fractions.shape:
        raise ValueError(
            "log_weights and exceed_fractions must be equal-length and "
            "non-empty"
        )
    values = np.zeros_like(fractions)
    hits = fractions > 0.0
    values[hits] = np.exp(log_weights[hits]) * fractions[hits]
    n = len(values)
    probability = float(values.mean())
    std_error = float(values.std() / math.sqrt(n))
    variance = float(values.var())
    if variance > 0.0 and 0.0 < probability < 1.0:
        variance_reduction = probability * (1.0 - probability) / variance
    else:
        variance_reduction = math.inf
    rng = np.random.default_rng(bootstrap_seed)
    resample_means = values[
        rng.integers(0, n, size=(bootstrap_resamples, n))
    ].mean(axis=1)
    boot_low, boot_high = np.percentile(resample_means, [2.5, 97.5])
    if obs.enabled():
        obs.add("rare.trials_spent", float(n))
        if math.isfinite(variance_reduction):
            obs.set_gauge("rare.variance_reduction", variance_reduction)
    return RareEstimate(
        probability=probability,
        std_error=std_error,
        ci_low=max(0.0, probability - 1.96 * std_error),
        ci_high=probability + 1.96 * std_error,
        boot_ci_low=float(boot_low),
        boot_ci_high=float(boot_high),
        n_trials=n,
        hit_rate=float(np.mean(values > 0.0)),
        variance_reduction=variance_reduction,
        log_weight_std=float(log_weights.std()),
    )
