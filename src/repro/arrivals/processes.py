"""Sample-path generators for discrete-time arrival processes.

These feed the simulator (:mod:`repro.simulation`) and the statistical
tests that verify envelope conformance empirically.  All generators are
vectorized with numpy and driven by an explicit :class:`numpy.random.Generator`
for reproducibility.

The MMOO generators are *event-driven*: instead of advancing every
flow's two-state chain slot by slot (``O(slots * flows)`` uniforms),
they draw each flow's alternating ON/OFF sojourn lengths directly —
geometric by the Markov property — and scatter the resulting ON
intervals into a per-slot difference array (``O(transitions)`` work,
roughly two orders of magnitude less for the paper's bursty sources).
The construction is exact: a two-state chain is precisely an
alternating sequence of independent ``Geometric(p21)`` ON and
``Geometric(p12)`` OFF sojourns, and a stationary start leaves the
residual first sojourn geometric by memorylessness.

The sojourn rounds run in the compiled sampler of
:mod:`repro.arrivals.csampler` when it loads: a C mirror of
:func:`_phase_intervals` that draws every sojourn from numpy's own
``random_geometric`` on the caller's generator, so its output and the
generator state it leaves are byte-identical to the numpy body's.  The
numpy body stays as the fallback (no ``cc``, no numpy distribution
archive, or an ``rng`` that is not a :class:`numpy.random.Generator`)
and as the test oracle; each fallback call adds 1 to the
``simulation.sampler_fallbacks`` counter while :mod:`repro.obs` is
enabled.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.arrivals import csampler
from repro.arrivals.mmoo import MMOOParameters
from repro.utils.validation import check_int, check_non_negative, check_positive

#: Sojourns drawn per flow per follow-up batch round (even, so each round
#: leaves every flow's ON/OFF phase parity unchanged).
_SOJOURN_BATCH = 16


def _geometric(
    rng: np.random.Generator, p: float, size: tuple[int, ...], horizon: int
) -> np.ndarray:
    """Geometric sojourn lengths; a zero-probability exit pins the state
    for the whole horizon (the sojourn never ends within it)."""
    if p <= 0.0:
        return np.full(size, horizon + 1, dtype=np.int64)
    return rng.geometric(p, size=size)


def _first_batch_pairs(params: MMOOParameters, n_slots: int) -> int:
    """ON/OFF sojourn pairs of the first batch round: enough that most
    flows cover the horizon in one round (mean cycle + a ~30% margin),
    capped to keep the draw matrices bounded."""
    mean_on = 1.0 / params.p21 if params.p21 > 0 else float(n_slots + 1)
    mean_off = 1.0 / params.p12 if params.p12 > 0 else float(n_slots + 1)
    est = 1.3 * n_slots / (mean_on + mean_off)
    return int(min(max(est + 3.0, _SOJOURN_BATCH / 2.0), 2048.0))


def _phase_intervals(
    flows: np.ndarray,
    start_on: bool,
    p12: float,
    p21: float,
    n_slots: int,
    rng: np.random.Generator,
    first_pairs: int,
    out_flows: list[np.ndarray],
    out_starts: list[np.ndarray],
    out_ends: list[np.ndarray],
) -> None:
    """Append the ON intervals of all ``flows`` sharing one initial phase.

    Because every flow in the group has the same phase, sojourns alternate
    in lockstep: each round draws one ON and one OFF length matrix (no
    discarded draws) and the k-th ON interval's bounds follow in closed
    form from the two running sums — no interleaved length matrix needed.
    With the phase ON, the k-th ON sojourn is preceded by k ON and k OFF
    sojourns; with the phase OFF, by k ON and k+1 OFF sojourns.
    """
    clock = np.zeros(flows.size, dtype=np.int64)
    pairs = first_pairs
    while flows.size:
        n_active = flows.size
        on = _geometric(rng, p21, (n_active, pairs), n_slots)
        off = _geometric(rng, p12, (n_active, pairs), n_slots)
        cum_on = np.cumsum(on, axis=1)
        cum_off = np.cumsum(off, axis=1)
        ends = clock[:, None] + cum_on + cum_off
        if start_on:
            ends -= off
        starts = ends - on
        keep = starts < n_slots
        if np.any(keep):
            out_flows.append(np.broadcast_to(flows[:, None], starts.shape)[keep])
            out_starts.append(starts[keep])
            out_ends.append(np.minimum(ends[keep], n_slots))
        # each round is a whole number of ON/OFF pairs, so the phase is
        # unchanged when the next round starts
        clock = clock + cum_on[:, -1] + cum_off[:, -1]
        alive = clock < n_slots
        if not np.all(alive):
            flows = flows[alive]
            clock = clock[alive]
        pairs = _SOJOURN_BATCH // 2


def _initial_states(
    params: MMOOParameters,
    n_flows: int,
    rng: np.random.Generator,
    stationary_start: bool,
    initial_on: np.ndarray | None,
) -> np.ndarray:
    """Every flow's slot-0 phase (``True`` = ON)."""
    if initial_on is not None:
        if initial_on.shape != (n_flows,):
            raise ValueError(
                f"initial_on must have shape ({n_flows},), got {initial_on.shape}"
            )
        return initial_on.astype(bool)
    if stationary_start:
        return rng.random(n_flows) < params.on_probability
    return np.zeros(n_flows, dtype=bool)


def _on_intervals_numpy(
    params: MMOOParameters,
    n_slots: int,
    rng: np.random.Generator,
    state_on: np.ndarray,
    first_pairs: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The numpy sampler body: fallback and oracle of the C kernel."""
    flow_ids = np.arange(state_on.size, dtype=np.int64)
    out_flows: list[np.ndarray] = []
    out_starts: list[np.ndarray] = []
    out_ends: list[np.ndarray] = []
    for start_on in (True, False):
        group = flow_ids[state_on] if start_on else flow_ids[~state_on]
        if group.size:
            _phase_intervals(
                group, start_on, params.p12, params.p21, n_slots, rng,
                first_pairs, out_flows, out_starts, out_ends,
            )

    if not out_flows:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    return (
        np.concatenate(out_flows),
        np.concatenate(out_starts),
        np.concatenate(out_ends),
    )


def _sample(
    params: MMOOParameters,
    n_flows: int,
    n_slots: int,
    rng: np.random.Generator,
    stationary_start: bool,
    initial_on: np.ndarray | None,
    *,
    intervals: bool,
    aggregate: bool,
) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray] | None, np.ndarray | None]:
    """``(intervals | None, aggregate | None)`` of one sample path, from
    the compiled sampler when it loads, else from the numpy body."""
    n_flows = check_int(n_flows, "n_flows", minimum=1)
    n_slots = check_int(n_slots, "n_slots", minimum=1)
    state_on = _initial_states(params, n_flows, rng, stationary_start, initial_on)
    first_pairs = _first_batch_pairs(params, n_slots)
    out = csampler.sample(
        params.p12, params.p21, n_slots, state_on, rng, first_pairs,
        _SOJOURN_BATCH // 2, intervals=intervals, aggregate=aggregate,
    )
    if out is not None:
        found, delta = out
        if delta is None:
            return found, None
        return found, params.peak * np.cumsum(delta[:n_slots])
    if obs.enabled():
        obs.add("simulation.sampler_fallbacks")
    flows, starts, ends = _on_intervals_numpy(
        params, n_slots, rng, state_on, first_pairs
    )
    arrivals = (
        intervals_to_aggregate(starts, ends, n_slots, params.peak)
        if aggregate else None
    )
    return ((flows, starts, ends) if intervals else None), arrivals


def mmoo_on_intervals(
    params: MMOOParameters,
    n_flows: int,
    n_slots: int,
    rng: np.random.Generator,
    *,
    stationary_start: bool = True,
    initial_on: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ON intervals of ``n_flows`` independent MMOO chains.

    Returns ``(flows, starts, ends)``: flow index, first ON slot, and
    one-past-last ON slot of every ON sojourn intersecting
    ``[0, n_slots)``, with ends clipped to ``n_slots``.  A flow emits
    ``params.peak`` in every slot of each of its intervals.

    ``initial_on`` pins every flow's slot-0 state explicitly (a boolean
    array of length ``n_flows``), overriding ``stationary_start``.  By
    memorylessness the residual first sojourn is geometric given the
    slot-0 state, so conditioning on explicit initial states composes
    exactly with the event-driven sampler — the importance sampler uses
    this to resume a chain mid-path from known per-flow states.
    """
    found, _ = _sample(
        params, n_flows, n_slots, rng, stationary_start, initial_on,
        intervals=True, aggregate=False,
    )
    assert found is not None
    return found


def mmoo_on_intervals_and_arrivals(
    params: MMOOParameters,
    n_flows: int,
    n_slots: int,
    rng: np.random.Generator,
    *,
    stationary_start: bool = True,
    initial_on: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(flows, starts, ends, arrivals)`` of one sample path.

    The intervals of :func:`mmoo_on_intervals` together with their
    per-slot aggregate (``intervals_to_aggregate(starts, ends, n_slots,
    params.peak)``), built in the same pass — the importance sampler
    needs both.
    """
    found, arrivals = _sample(
        params, n_flows, n_slots, rng, stationary_start, initial_on,
        intervals=True, aggregate=True,
    )
    assert found is not None and arrivals is not None
    return (*found, arrivals)


def mmoo_aggregate_arrivals(
    params: MMOOParameters,
    n_flows: int,
    n_slots: int,
    rng: np.random.Generator,
    *,
    stationary_start: bool = True,
) -> np.ndarray:
    """Per-slot arrivals of an aggregate of independent MMOO sources.

    Simulates ``n_flows`` independent two-state chains for ``n_slots``
    slots and returns the aggregate arrivals per slot (shape
    ``(n_slots,)``), built by scattering every flow's ON sojourns into a
    difference array (see :func:`mmoo_on_intervals`).

    Parameters
    ----------
    stationary_start:
        Draw initial states from the stationary distribution (True, the
        default — matches the stationarity assumption of the analysis) or
        start all flows OFF (False).
    """
    _, arrivals = _sample(
        params, n_flows, n_slots, rng, stationary_start, None,
        intervals=False, aggregate=True,
    )
    assert arrivals is not None
    return arrivals


def intervals_to_aggregate(
    starts: np.ndarray, ends: np.ndarray, n_slots: int, peak: float
) -> np.ndarray:
    """Scatter ON intervals into a per-slot aggregate arrival array.

    Inverse of nothing in particular — the shared scatter step of
    :func:`mmoo_aggregate_arrivals` and the importance sampler, which
    needs the intervals *and* the aggregate of the same sample path.
    """
    delta = np.zeros(n_slots + 1)
    np.add.at(delta, starts, 1.0)
    np.add.at(delta, np.minimum(ends, n_slots), -1.0)
    return peak * np.cumsum(delta[:n_slots])


def mmoo_per_flow_arrivals(
    params: MMOOParameters,
    n_flows: int,
    n_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-flow, per-slot arrivals (shape ``(n_flows, n_slots)``).

    Heavier than :func:`mmoo_aggregate_arrivals`; used when individual flow
    delays matter (e.g. per-flow EDF deadlines in the simulator).
    """
    flows, starts, ends = mmoo_on_intervals(
        params, n_flows, n_slots, rng, stationary_start=True
    )
    delta = np.zeros(n_flows * (n_slots + 1))
    stride = n_slots + 1
    np.add.at(delta, flows * stride + starts, 1.0)
    np.add.at(delta, flows * stride + ends, -1.0)
    states = np.cumsum(delta.reshape(n_flows, stride), axis=1)[:, :n_slots]
    return params.peak * states


def cbr_arrivals(rate: float, n_slots: int) -> np.ndarray:
    """Constant-bit-rate arrivals: ``rate`` per slot, deterministic."""
    check_non_negative(rate, "rate")
    n_slots = check_int(n_slots, "n_slots", minimum=1)
    return np.full(n_slots, float(rate))


def poisson_arrivals(
    mean_per_slot: float,
    unit: float,
    n_slots: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Compound-Poisson arrivals: ``Poisson(mean_per_slot) * unit`` per slot.

    A memoryless reference workload for the simulator; not used by the
    paper's examples but handy for wider validation.
    """
    check_positive(mean_per_slot, "mean_per_slot")
    check_positive(unit, "unit")
    n_slots = check_int(n_slots, "n_slots", minimum=1)
    return rng.poisson(mean_per_slot, size=n_slots).astype(float) * unit
