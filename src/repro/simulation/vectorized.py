"""Vectorized fluid fast path for the tandem simulator.

The chunk simulator (:mod:`repro.simulation.network`) moves Python
``Chunk`` objects through per-node heaps — exact, but far too slow for
multi-trial Monte Carlo validation.  This module evolves the same
store-and-forward tandem dynamics on whole ``(slots,)`` numpy arrays:

* the aggregate service of a work-conserving link comes from the
  Lindley/Reich recursion in closed form (a running minimum over the
  cumulative-arrival deficit), vectorized with ``np.minimum.accumulate``;
* per-flow service splits follow from the scheduler: strict priority
  (SP/BMUX) isolates the high-priority flow behind its own Lindley
  recursion, FIFO attributes the served prefix of the arrival-ordered
  fluid stream with a vectorized ``searchsorted``, and EDF drains
  slot-granularity deadline buckets (one amortized-O(1) pointer sweep);
* end-to-end delays fall out of comparing the cumulative entry and exit
  curves of the through flow — within a flow every scheduler here is
  locally FIFO, so the k-th unit of fluid to enter is the k-th to leave.

Tie-breaking matches the chunk simulator exactly: within a slot, cross
traffic is offered before through traffic, and an EDF bucket serves the
flow with the earlier node arrival first.  Cross-validation tests check
both engines agree within one slot on every scheduler and path length.

The two sequential kernels — the EDF bucket sweep and the entry/exit
delay merge — run in generated C (:mod:`repro.simulation.ckernels`)
when a C compiler is available; their Python/numpy bodies stay here as
the fallback and the test oracle, and both paths return the same bytes.

GPS is not representable: its service split depends on the random set of
backlogged flows (it is not a Delta-scheduler), so GPS stays on the
chunk engine.
"""

from __future__ import annotations

import math

import numpy as np

from repro import obs
from repro.simulation import ckernels
from repro.simulation.metrics import BacklogRecorder, DelayRecorder
from repro.simulation.network import DagResult, TandemResult
from repro.topology.model import Topology

#: Fluid smaller than this is treated as zero (matches the chunk engine).
_MASS_EPS = 1e-9

#: Schedulers the vectorized engine implements.
VECTORIZED_SCHEDULERS = ("fifo", "bmux", "sp", "edf")


def aggregate_service(arrivals: np.ndarray, capacity: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot aggregate departures and backlog of a work-conserving link.

    Arrivals land at the beginning of each slot; up to ``capacity`` fluid
    is served within it.  The backlog after slot ``t`` is the Lindley
    recursion ``q_t = max(0, q_{t-1} + a_t - c)``, evaluated in closed
    form as the deficit ``A_t - c (t+1)`` minus its running minimum
    (clipped at zero) — one vectorized scan instead of a Python loop.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    n = len(arrivals)
    cum = np.cumsum(arrivals)
    deficit = cum - capacity * np.arange(1, n + 1)
    backlog = deficit - np.minimum(np.minimum.accumulate(deficit), 0.0)
    backlog = np.maximum(backlog, 0.0)
    departed_cum = np.maximum.accumulate(np.minimum(cum - backlog, cum))
    departures = np.diff(departed_cum, prepend=0.0)
    return departures, backlog


def _split_fifo(
    through: np.ndarray, cross: np.ndarray, departed_cum: np.ndarray
) -> np.ndarray:
    """Cumulative through-flow departures of a FIFO link.

    FIFO serves fluid in arrival-slot order with cross before through
    within a slot (the chunk engine's offer order), so the fluid served
    by the end of slot ``t`` is exactly the first ``D_t`` units of that
    ordered stream; the through share of any prefix is read off the
    cumulative arrival curves with one ``searchsorted``.
    """
    total_cum = np.cumsum(through + cross)
    through_cum = np.cumsum(through)
    prefix = np.minimum(departed_cum, total_cum)
    slot = np.searchsorted(total_cum, prefix, side="left")
    slot = np.minimum(slot, len(total_cum) - 1)
    before_total = np.where(slot > 0, total_cum[slot - 1], 0.0)
    before_through = np.where(slot > 0, through_cum[slot - 1], 0.0)
    within = np.clip(prefix - before_total - cross[slot], 0.0, through[slot])
    return np.maximum.accumulate(before_through + within)


def _split_fifo_multi(
    flows: list[np.ndarray], departed_cum: np.ndarray
) -> list[np.ndarray]:
    """Cumulative per-flow departures of a FIFO link with ``k`` inputs.

    Generalizes :func:`_split_fifo` to any number of flows: ``flows``
    lists the per-slot arrival arrays in within-slot precedence order
    (offered earlier = served earlier within a slot), and each flow's
    share of the served prefix subtracts the boundary-slot arrivals of
    every flow ahead of it.  For ``flows = [cross, through]`` the second
    entry reproduces :func:`_split_fifo` exactly.
    """
    total_cum = np.cumsum(np.sum(flows, axis=0))
    prefix = np.minimum(departed_cum, total_cum)
    slot = np.searchsorted(total_cum, prefix, side="left")
    slot = np.minimum(slot, len(total_cum) - 1)
    before_total = np.where(slot > 0, total_cum[slot - 1], 0.0)
    offset = np.zeros(len(departed_cum))
    out = []
    for flow in flows:
        flow_cum = np.cumsum(flow)
        before_flow = np.where(slot > 0, flow_cum[slot - 1], 0.0)
        within = np.clip(
            prefix - before_total - offset, 0.0, flow[slot]
        )
        out.append(np.maximum.accumulate(before_flow + within))
        offset = offset + flow[slot]
    return out


def _serve_priority(
    through: np.ndarray,
    cross: np.ndarray,
    capacity: float,
    *,
    through_high: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Strict preemptive priority: SP (through high) or BMUX (through low).

    The high-priority flow never sees the other, so its departures are
    its own Lindley recursion at full capacity; the low-priority flow
    gets the remainder of the work-conserving aggregate.
    """
    total_dep, backlog = aggregate_service(through + cross, capacity)
    high = through if through_high else cross
    high_dep, _ = aggregate_service(high, capacity)
    low_dep = np.maximum(total_dep - high_dep, 0.0)
    if through_high:
        return high_dep, low_dep, backlog
    return low_dep, high_dep, backlog


def _serve_fifo(
    through: np.ndarray, cross: np.ndarray, capacity: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FIFO service split of one link."""
    total_dep, backlog = aggregate_service(through + cross, capacity)
    through_dep_cum = _split_fifo(through, cross, np.cumsum(total_dep))
    through_dep = np.diff(through_dep_cum, prepend=0.0)
    cross_dep = np.maximum(total_dep - through_dep, 0.0)
    return through_dep, cross_dep, backlog


def _kernel_fallback() -> None:
    if obs.enabled():
        obs.add("simulation.kernel_fallbacks")


def _serve_edf(
    through: np.ndarray,
    cross: np.ndarray,
    capacity: float,
    deadline_through: int,
    deadline_cross: int,
    record_backlog: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """EDF service via slot-granularity deadline buckets.

    Fluid arriving at slot ``t`` carries the integer tag ``t + d`` of its
    flow; each slot drains the lowest-tagged backlog first.  Buckets are
    per (tag, flow); within a tag the flow that arrived earlier — the one
    with the *larger* deadline offset — is served first, with cross ahead
    of through on exact ties, matching the chunk engine's heap order.
    The head pointer only moves forward between arrivals, so the sweep is
    amortized O(slots + buckets).

    Runs in the compiled kernel of :mod:`repro.simulation.ckernels` when
    it is loaded, else in :func:`_serve_edf_python`; the results are
    byte-identical.
    """
    out = ckernels.serve_edf(
        through, cross, capacity, deadline_through, deadline_cross,
        record_backlog, _MASS_EPS,
    )
    if out is not None:
        return out
    _kernel_fallback()
    return _serve_edf_python(
        through, cross, capacity, deadline_through, deadline_cross,
        record_backlog,
    )


def _serve_edf_python(
    through: np.ndarray,
    cross: np.ndarray,
    capacity: float,
    deadline_through: int,
    deadline_cross: int,
    record_backlog: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Python body of :func:`_serve_edf`: fallback and test oracle."""
    n = len(through)
    max_off = max(deadline_through, deadline_cross)
    horizon = n + max_off + 1
    eps = _MASS_EPS
    # Plain Python lists/floats: the per-slot sweep does scalar work only,
    # where list indexing is several times faster than numpy item access.
    # Flows are relabeled (first, second) by within-tag service order once,
    # so the hot loop carries no per-iteration tie-break branching.
    if deadline_cross >= deadline_through:  # cross served first on tag ties
        f_in, f_off = cross.tolist(), deadline_cross
        s_in, s_off = through.tolist(), deadline_through
    else:
        f_in, f_off = through.tolist(), deadline_through
        s_in, s_off = cross.tolist(), deadline_cross
    f_bucket = [0.0] * horizon
    s_bucket = [0.0] * horizon
    f_dep = [0.0] * n
    s_dep = [0.0] * n
    backlog = [0.0] * n
    head = horizon
    f_q = 0.0
    s_q = 0.0
    for t in range(n):
        a = f_in[t]
        b = s_in[t]
        if f_q + s_q <= eps and a + b <= capacity:
            # empty queue, arrivals fit in one slot: serve them directly
            # without touching the bucket arrays at all
            if a > 0.0:
                f_dep[t] = a
            if b > 0.0:
                s_dep[t] = b
            continue  # backlog[t] stays 0
        if a > 0.0:
            tag = t + f_off
            f_bucket[tag] += a
            f_q += a
            if tag < head:
                head = tag
        if b > 0.0:
            tag = t + s_off
            s_bucket[tag] += b
            s_q += b
            if tag < head:
                head = tag
        total = f_q + s_q
        if total <= eps:
            continue  # backlog[t] stays 0
        budget = capacity
        if total <= budget:
            # full drain: everything departs this slot; dirty buckets all
            # lie in [head, t + max_off], cleared by slice assignment
            f_dep[t] = f_q
            s_dep[t] = s_q
            end = t + max_off + 1
            zeros = [0.0] * (end - head)
            f_bucket[head:end] = zeros
            s_bucket[head:end] = zeros
            f_q = s_q = 0.0
            head = horizon
            continue
        while True:
            while head < horizon and f_bucket[head] <= eps and s_bucket[head] <= eps:
                head += 1
            if head >= horizon:  # only epsilon dust left anywhere
                f_q = s_q = 0.0
                break
            served = f_bucket[head]
            if served > 0.0:
                if served > budget:
                    f_bucket[head] = served - budget
                    f_dep[t] += budget
                    f_q -= budget
                    break
                f_bucket[head] = 0.0
                f_dep[t] += served
                f_q -= served
                budget -= served
                if budget <= eps:
                    break
            served = s_bucket[head]
            if served > 0.0:
                if served > budget:
                    s_bucket[head] = served - budget
                    s_dep[t] += budget
                    s_q -= budget
                    break
                s_bucket[head] = 0.0
                s_dep[t] += served
                s_q -= served
                budget -= served
                if budget <= eps:
                    break
        if record_backlog:
            backlog[t] = (f_q if f_q > 0.0 else 0.0) + (
                s_q if s_q > 0.0 else 0.0
            )
    if deadline_cross >= deadline_through:
        return np.asarray(s_dep), np.asarray(f_dep), np.asarray(backlog)
    return np.asarray(f_dep), np.asarray(s_dep), np.asarray(backlog)


def delays_between(entry: np.ndarray, exit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Size-weighted delays between a cumulative entry and exit curve.

    ``entry[s]`` is the fluid entering at slot ``s`` and ``exit[t]`` the
    fluid leaving at slot ``t`` of the *same* locally-FIFO flow, so the
    k-th unit in equals the k-th unit out.  Merging the two cumulative
    step curves yields constant-delay mass segments; returns integer
    delays and their masses.

    The merge is a single ``searchsorted`` scatter, and each mark's entry
    and exit slot fall out of the merge bookkeeping itself: the slot where
    a curve reaches a mark equals the number of that curve's points
    strictly below it, read off the running counts at the start of the
    mark's run of equal values.

    Runs in the compiled kernel of :mod:`repro.simulation.ckernels` when
    it is loaded, else in :func:`_delays_between_numpy`; the results are
    byte-identical.
    """
    out = ckernels.delays_between(entry, exit, _MASS_EPS)
    if out is not None:
        return out
    _kernel_fallback()
    return _delays_between_numpy(entry, exit)


def _delays_between_numpy(
    entry: np.ndarray, exit: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The numpy body of :func:`delays_between`: fallback and test oracle."""
    entry_cum = np.cumsum(entry)
    exit_cum = np.cumsum(exit)
    total = min(entry_cum[-1], exit_cum[-1])
    n_entry = len(entry_cum)
    n_exit = len(exit_cum)
    m = n_entry + n_exit
    marks = np.empty(m)
    is_exit = np.zeros(m, dtype=bool)
    # side="right" puts exit points after equal entry points, so within a
    # run of equal values all entry points come first
    pos = np.searchsorted(entry_cum, exit_cum, side="right") + np.arange(n_exit)
    is_exit[pos] = True
    marks[pos] = exit_cum
    marks[~is_exit] = entry_cum
    index = np.arange(m)
    new_run = np.empty(m, dtype=bool)
    new_run[0] = True
    new_run[1:] = marks[1:] > marks[:-1]
    run_start = np.maximum.accumulate(np.where(new_run, index, 0))
    exit_below = np.cumsum(is_exit)  # exit points among marks[0..k]
    entry_below = index + 1 - exit_below
    before = np.maximum(run_start - 1, 0)
    entered = np.where(run_start > 0, entry_below[before], 0)
    exited = np.where(run_start > 0, exit_below[before], 0)
    entered = np.minimum(entered, n_entry - 1)
    exited = np.minimum(exited, n_exit - 1)
    weights = np.diff(marks, prepend=0.0)
    keep = (
        (weights > _MASS_EPS)
        & (marks > _MASS_EPS)
        & (marks <= total + _MASS_EPS)
    )
    if not np.any(keep):
        return np.zeros(0, dtype=np.int64), np.zeros(0)
    delays = np.maximum(exited[keep] - entered[keep], 0)
    return delays, weights[keep]


def _delay_recorder(entry: np.ndarray, exit: np.ndarray) -> DelayRecorder:
    delays, weights = delays_between(entry, exit)
    return DelayRecorder.from_arrays(delays, weights)


def _drain_padding(arrivals: np.ndarray, capacity: float) -> int:
    """Zero slots to append so a link fully drains within the horizon."""
    _, backlog = aggregate_service(arrivals, capacity)
    if backlog[-1] <= _MASS_EPS:
        return 0
    return int(math.ceil(backlog[-1] / capacity)) + 1


def _check_edf_deadline(value: float, name: str) -> int:
    if value < 0 or not float(value).is_integer():
        raise ValueError(
            f"the vectorized EDF engine uses slot-granularity deadline "
            f"buckets; {name} must be a non-negative integer, got {value!r}"
        )
    return int(value)


def run_tandem_vectorized(
    through_arrivals: np.ndarray,
    cross_arrivals: list[np.ndarray],
    *,
    capacity: float,
    scheduler: str,
    edf_deadline_through: float = 1.0,
    edf_deadline_cross: float = 10.0,
    record_backlog: bool = False,
) -> TandemResult:
    """Simulate the Fig. 1 tandem on arrival arrays, fully vectorized.

    Same topology and timing as :meth:`TandemNetwork.run` with ``drain``
    on: ``hops = len(cross_arrivals)`` store-and-forward links of rate
    ``capacity``, fresh cross traffic at every node, and every bit of
    through (and cross) traffic followed to departure.  Returns a
    :class:`TandemResult` whose recorders match the chunk engine's
    within one slot.
    """
    if scheduler not in VECTORIZED_SCHEDULERS:
        raise ValueError(
            f"the vectorized engine supports {VECTORIZED_SCHEDULERS}, "
            f"got {scheduler!r} (use the chunk engine instead)"
        )
    if capacity <= 0:
        raise ValueError("capacity must be > 0")
    through = np.asarray(through_arrivals, dtype=float)
    cross = [np.asarray(row, dtype=float) for row in cross_arrivals]
    hops = len(cross)
    if hops < 1:
        raise ValueError("need at least one cross arrival row (one hop)")
    n_slots = len(through)
    if any(len(row) != n_slots for row in cross):
        raise ValueError("all arrival arrays must have equal length")
    if scheduler == "edf":
        d_through = _check_edf_deadline(edf_deadline_through, "edf_deadline_through")
        d_cross = _check_edf_deadline(edf_deadline_cross, "edf_deadline_cross")

    if obs.enabled():
        obs.add("simulation.vectorized.calls")
        obs.add(f"simulation.vectorized.{scheduler}_calls")
        obs.add("simulation.vectorized.hop_slots", hops * n_slots)
    cross_recorders = []
    backlog_recorders = []
    node_input = through
    for h in range(hops):
        length = len(node_input)
        cross_row = np.zeros(length)
        cross_row[:n_slots] = cross[h]
        pad = _drain_padding(node_input + cross_row, capacity)
        if pad:
            node_input = np.concatenate([node_input, np.zeros(pad)])
            cross_row = np.concatenate([cross_row, np.zeros(pad)])
        if scheduler == "fifo":
            through_dep, cross_dep, backlog = _serve_fifo(
                node_input, cross_row, capacity
            )
        elif scheduler in ("sp", "bmux"):
            through_dep, cross_dep, backlog = _serve_priority(
                node_input, cross_row, capacity, through_high=(scheduler == "sp")
            )
        else:
            through_dep, cross_dep, backlog = _serve_edf(
                node_input, cross_row, capacity, d_through, d_cross,
                record_backlog=record_backlog,
            )
        cross_recorders.append(_delay_recorder(cross_row, cross_dep))
        if record_backlog:
            backlog_recorders.append(BacklogRecorder.from_samples(backlog))
        else:
            backlog_recorders.append(BacklogRecorder())
        # store-and-forward: fluid served in slot t reaches the next node
        # at slot t + 1
        node_input = np.concatenate([[0.0], through_dep])

    exit_curve = node_input  # final departures, already shifted by one slot
    # undo the trailing shift so exit slots are the actual service slots
    through_delays = _delay_recorder(through, exit_curve[1:])
    return TandemResult(
        through_delays=through_delays,
        node_backlogs=tuple(backlog_recorders),
        cross_delays=tuple(cross_recorders),
        slots=n_slots,
        hops=hops,
    )


def run_topology_vectorized(
    topology: Topology,
    route_arrivals: dict[str, np.ndarray],
    cross_arrivals: dict[str, np.ndarray] | None = None,
    *,
    record_backlog: bool = False,
) -> DagResult:
    """Simulate an all-FIFO feed-forward topology, fully vectorized.

    Nodes are processed in topological order; each link's aggregate
    service comes from the Lindley closed form and the per-flow split
    from :func:`_split_fifo_multi`, with the chunk engine's within-slot
    precedence (node-local cross first, then route arrivals entering
    here in declaration order, then forwarded streams by upstream
    topological position).  Departure order *within* one upstream slot
    is attributed by that precedence rather than by the chunk heap's
    exact interleaving, so the two engines agree within one slot (the
    same cross-engine convention the tandem fast path documents); a
    line topology run through :func:`run_tandem_vectorized` instead is
    byte-identical to the chunk engine's tandem.

    Only FIFO nodes are supported: multi-class priority or EDF splits
    across many routes have no closed-form attribution here — use the
    chunk engine (:class:`repro.simulation.network.DagNetwork`) for
    those topologies.
    """
    not_fifo = [n.name for n in topology.nodes if n.scheduler != "fifo"]
    if not_fifo:
        raise ValueError(
            f"run_topology_vectorized supports FIFO nodes only; node(s) "
            f"{not_fifo} use other schedulers (use the chunk engine)"
        )
    routes = {
        r.name: np.asarray(route_arrivals[r.name], dtype=float)
        for r in topology.routes
        if r.name in route_arrivals
    }
    missing = [r.name for r in topology.routes if r.name not in routes]
    if missing:
        raise ValueError(f"missing arrival rows for route(s) {missing}")
    cross = {
        name: np.asarray(row, dtype=float)
        for name, row in (cross_arrivals or {}).items()
    }
    unknown = set(cross) - {n.name for n in topology.nodes}
    if unknown:
        raise ValueError(
            f"cross arrivals reference unknown node(s) {sorted(unknown)}"
        )
    lengths = {len(row) for row in routes.values()}
    lengths |= {len(row) for row in cross.values()}
    if len(lengths) != 1:
        raise ValueError("all arrival arrays must have equal length")
    n_slots = lengths.pop()

    order = topology.topological_order()
    topo_index = {name: i for i, name in enumerate(order)}
    route_index = {r.name: i for i, r in enumerate(topology.routes)}
    prev_hop: dict[tuple[str, str], str] = {}
    next_hop: dict[tuple[str, str], str | None] = {}
    for route in topology.routes:
        for here, nxt in zip(route.path, route.path[1:]):
            prev_hop[(nxt, route.name)] = here
            next_hop[(here, route.name)] = nxt
        next_hop[(route.path[-1], route.name)] = None

    if obs.enabled():
        obs.add("simulation.vectorized.topology_calls")
        obs.add(
            "simulation.vectorized.hop_slots", len(topology.nodes) * n_slots
        )

    route_recs: dict[str, DelayRecorder] = {}
    cross_recs = {n.name: DelayRecorder() for n in topology.nodes}
    backlog_recs = {n.name: BacklogRecorder() for n in topology.nodes}
    # each route's current input stream (in the receiving node's local
    # slot time, already shifted when forwarded)
    stream: dict[str, np.ndarray] = {}

    for name in order:
        node = topology.node(name)
        # (precedence-ordered) input parts of this node
        parts: list[tuple[str, str, np.ndarray]] = []
        if name in cross:
            parts.append(("cross", name, cross[name]))
        external = [
            r for r in topology.routes
            if r.path[0] == name and r.name in routes
        ]
        for route in external:
            stream[route.name] = routes[route.name]
            parts.append(("route", route.name, routes[route.name]))
        arriving = sorted(
            (
                r.name
                for r in topology.routes
                if (name, r.name) in prev_hop
            ),
            key=lambda rn: (topo_index[prev_hop[(name, rn)]], route_index[rn]),
        )
        for route_name in arriving:
            parts.append(("route", route_name, stream[route_name]))
        if not parts:
            continue  # node carries no traffic at all
        length = max(len(arr) for _, _, arr in parts)
        padded = [
            np.concatenate([arr, np.zeros(length - len(arr))])
            if len(arr) < length
            else arr
            for _, _, arr in parts
        ]
        total = np.sum(padded, axis=0)
        pad = _drain_padding(total, node.capacity)
        if pad:
            padded = [np.concatenate([arr, np.zeros(pad)]) for arr in padded]
            total = np.concatenate([total, np.zeros(pad)])
        total_dep, backlog = aggregate_service(total, node.capacity)
        dep_cums = _split_fifo_multi(padded, np.cumsum(total_dep))
        if record_backlog:
            backlog_recs[name] = BacklogRecorder.from_samples(backlog)
        for (kind, flow_name, _), dep_cum in zip(parts, dep_cums):
            dep = np.diff(dep_cum, prepend=0.0)
            if kind == "cross":
                cross_recs[name] = _delay_recorder(cross[name], dep)
            elif next_hop[(name, flow_name)] is not None:
                # store-and-forward: served fluid reaches the next node
                # one slot later
                stream[flow_name] = np.concatenate([[0.0], dep])
            else:
                route_recs[flow_name] = _delay_recorder(
                    routes[flow_name], dep
                )
    for route in topology.routes:
        route_recs.setdefault(route.name, DelayRecorder())
    return DagResult(
        route_delays=route_recs,
        cross_delays=cross_recs,
        node_backlogs=backlog_recs,
        slots=n_slots,
        topology=topology,
    )
