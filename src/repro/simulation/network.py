"""Feed-forward networks of store-and-forward links (chunk engine).

The general simulator is :class:`DagNetwork`: a slot loop in topological
order over any validated :class:`repro.topology.Topology` — routes
traverse their node sequences, node-local cross traffic joins at each
node and leaves right after it.  The paper's Fig. 1 tandem is the
degenerate line case, :meth:`repro.topology.Topology.line`.

Store-and-forward timing: fluid served at a node in slot ``t`` arrives
at the next node of its route in slot ``t + 1`` — a conservative
``+1``-slot-per-hop with respect to the analysis' fluid cut-through
convention, so under light load an ``H``-hop route sees exactly
``H - 1`` slots of end-to-end delay (validation comparisons allow this
slack).

Within one slot the offer order is fixed: first every node's local
cross traffic (in topological order), then each route's external
arrivals at its first node (in route declaration order), then the
chunks forwarded from the previous slot (per node, in topological
order).  Cross traffic before through traffic is the adversarial
convention under which greedy envelope patterns attain the worst-case
bounds (Theorem 2), and a conservative one for validating
probabilistic bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Sequence

import numpy as np

from repro.simulation.chunk import Chunk
from repro.simulation.metrics import BacklogRecorder, DelayRecorder
from repro.simulation.node import Link
from repro.simulation.schedulers import (
    EDFPolicy,
    FIFOPolicy,
    GPSPolicy,
    SchedulerPolicy,
    StaticPriorityPolicy,
)
from repro.topology.model import NodeSpec, Topology
from repro.utils.validation import check_int

FlowId = Hashable

#: Fluid below this threshold counts as drained.
_DRAIN_EPS = 1e-6


def dag_cross_flow_id(node_name: str) -> str:
    """Flow identifier of the cross aggregate local to a DAG node."""
    return f"cross:{node_name}"


#: Signature of a :class:`DagNetwork` policy factory: called once per
#: node with the node's spec, the identifiers of the routes crossing it
#: (in route declaration order), and its local cross identifier.
DagPolicyFactory = Callable[
    [NodeSpec, tuple[str, ...], str], SchedulerPolicy
]


def default_policy_factory(
    spec: NodeSpec, route_ids: tuple[str, ...], cross_id: str
) -> SchedulerPolicy:
    """Build the node's policy from its :attr:`NodeSpec.scheduler`.

    Route aggregates all share the "through" role (BMUX de-prioritizes
    them, SP prioritizes them, EDF gives them the through deadline, GPS
    the through weight); the node-local cross aggregate takes the cross
    role.
    """
    if spec.scheduler == "fifo":
        return FIFOPolicy()
    if spec.scheduler == "bmux":
        priorities = {route: 0.0 for route in route_ids}
        priorities[cross_id] = 1.0
        policy = StaticPriorityPolicy(priorities)
        policy.name = "BMUX"
        return policy
    if spec.scheduler == "sp":
        priorities = {route: 1.0 for route in route_ids}
        priorities[cross_id] = 0.0
        return StaticPriorityPolicy(priorities)
    if spec.scheduler == "edf":
        deadlines = {route: spec.edf_deadline_through for route in route_ids}
        deadlines[cross_id] = spec.edf_deadline_cross
        return EDFPolicy(deadlines)
    weights = {route: spec.gps_weight_through for route in route_ids}
    weights[cross_id] = spec.gps_weight_cross
    return GPSPolicy(weights)


@dataclass
class DagResult:
    """Collected measurements of a feed-forward network run.

    Delay recorders are keyed by route name (end-to-end) and by node
    name (the node-local cross aggregate served there); backlog
    recorders by node name.
    """

    route_delays: dict[str, DelayRecorder]
    cross_delays: dict[str, DelayRecorder]
    node_backlogs: dict[str, BacklogRecorder]
    slots: int
    topology: Topology


class DagNetwork:
    """A feed-forward network of store-and-forward links.

    Parameters
    ----------
    topology:
        The validated node/route DAG to instantiate.
    policy_factory:
        Called once per node (in declaration order) with
        ``(spec, route_ids, cross_id)``; defaults to
        :func:`default_policy_factory`, which reads
        :attr:`NodeSpec.scheduler`.
    preemptive:
        ``False`` switches every link to the non-preemptive packet model.
    packet_size:
        Split each slot's external arrivals into packets of this size.

    A node's local cross aggregate is the flow
    :func:`dag_cross_flow_id` of its name; route names must not collide
    with those identifiers.
    """

    def __init__(
        self,
        topology: Topology,
        policy_factory: DagPolicyFactory | None = None,
        *,
        preemptive: bool = True,
        packet_size: float | None = None,
    ) -> None:
        self.topology = topology
        self.preemptive = bool(preemptive)
        if packet_size is not None and packet_size <= 0:
            raise ValueError("packet_size must be > 0")
        self.packet_size = packet_size
        factory = policy_factory or default_policy_factory
        self._cross_ids = {
            n.name: dag_cross_flow_id(n.name) for n in topology.nodes
        }
        route_names = {route.name for route in topology.routes}
        collisions = route_names & set(self._cross_ids.values())
        if collisions:
            raise ValueError(
                f"route name(s) collide with cross-flow identifiers: "
                f"{sorted(collisions)}"
            )
        self._order = topology.topological_order()
        # per node: the routes crossing it, in route declaration order
        self._route_ids = {
            n.name: tuple(
                r.name for r in topology.routes if n.name in r.path
            )
            for n in topology.nodes
        }
        # (node, route) -> the route's next node, or None at its last hop
        self._next_hop: dict[tuple[str, str], str | None] = {}
        for route in topology.routes:
            for here, nxt in zip(route.path, route.path[1:]):
                self._next_hop[(here, route.name)] = nxt
            self._next_hop[(route.path[-1], route.name)] = None
        self.links = {
            n.name: Link(
                n.capacity,
                factory(n, self._route_ids[n.name], self._cross_ids[n.name]),
                preemptive=preemptive,
            )
            for n in topology.nodes
        }

    def _offer(
        self, link: Link, flow: FlowId, amount: float, origin: int, slot: int
    ) -> None:
        """Offer ``amount`` as one chunk, or as packets of ``packet_size``."""
        if self.packet_size is None:
            link.offer(Chunk(flow, amount, origin), slot)
            return
        remaining = amount
        while remaining > 1e-12:
            piece = min(self.packet_size, remaining)
            link.offer(Chunk(flow, piece, origin), slot)
            remaining -= piece

    def run(
        self,
        route_arrivals: Mapping[str, Sequence[float]],
        cross_arrivals: Mapping[str, Sequence[float]] | None = None,
        *,
        drain: bool = True,
        record_backlog: bool = False,
    ) -> DagResult:
        """Simulate the network on per-slot arrival arrays.

        Parameters
        ----------
        route_arrivals:
            ``route_arrivals[name][t]`` = fluid of route ``name``
            entering its first node at slot ``t``; one entry per route.
        cross_arrivals:
            ``cross_arrivals[node][t]`` = node-local cross fluid entering
            ``node`` at slot ``t``; nodes may be omitted (no cross).
        drain:
            Keep simulating (without new arrivals) until every route's
            traffic has left the network, so every bit's end-to-end
            delay is measured.
        record_backlog:
            Collect per-slot backlog samples at every node.
        """
        routes = {
            r.name: np.asarray(route_arrivals[r.name], dtype=float)
            if r.name in route_arrivals
            else None
            for r in self.topology.routes
        }
        missing = [name for name, row in routes.items() if row is None]
        if missing:
            raise ValueError(f"missing arrival rows for route(s) {missing}")
        cross_arrivals = cross_arrivals or {}
        unknown = set(cross_arrivals) - set(self._cross_ids)
        if unknown:
            raise ValueError(
                f"cross arrivals reference unknown node(s) {sorted(unknown)}"
            )
        cross = {
            name: np.asarray(row, dtype=float)
            for name, row in cross_arrivals.items()
        }
        lengths = {len(row) for row in routes.values()}
        lengths |= {len(row) for row in cross.values()}
        if len(lengths) != 1:
            raise ValueError("all arrival arrays must have equal length")
        n_slots = lengths.pop()
        check_int(n_slots, "slots", minimum=1)

        route_recs = {r.name: DelayRecorder() for r in self.topology.routes}
        cross_recs = {n.name: DelayRecorder() for n in self.topology.nodes}
        backlog_recs = {n.name: BacklogRecorder() for n in self.topology.nodes}

        # chunks in flight toward each node at the next slot
        in_transit: dict[str, list[Chunk]] = {name: [] for name in self._order}
        first_node = {r.name: r.path[0] for r in self.topology.routes}
        slot = 0
        pending = 0.0  # route fluid still inside the network
        while slot < n_slots or pending > _DRAIN_EPS:
            if drain is False and slot >= n_slots:
                break
            # fresh external arrivals; every node's local cross traffic
            # first (topological order), then the route arrivals (route
            # declaration order) — see the module docstring
            if slot < n_slots:
                for name in self._order:
                    row = cross.get(name)
                    if row is not None and row[slot] > 0:
                        self._offer(
                            self.links[name], self._cross_ids[name],
                            float(row[slot]), slot, slot,
                        )
                for route_name, row in routes.items():
                    if row[slot] > 0:
                        self._offer(
                            self.links[first_node[route_name]], route_name,
                            float(row[slot]), slot, slot,
                        )
                        pending += float(row[slot])
            # forwarded arrivals from the previous slot
            for name in self._order:
                for chunk in in_transit[name]:
                    self.links[name].offer(chunk, slot)
                in_transit[name] = []
            # serve every link
            for name in self._order:
                link = self.links[name]
                departed = link.advance(slot)
                for chunk in departed:
                    nxt = self._next_hop.get((name, chunk.flow), None)
                    if nxt is not None:
                        in_transit[nxt].append(
                            Chunk(chunk.flow, chunk.size, chunk.origin_slot)
                        )
                    elif chunk.flow in route_recs:
                        route_recs[chunk.flow].record(
                            slot - chunk.origin_slot, chunk.size
                        )
                        pending -= chunk.size
                    else:
                        cross_recs[name].record(
                            slot - chunk.origin_slot, chunk.size
                        )
                if record_backlog:
                    backlog_recs[name].record(link.backlog())
            slot += 1
            if slot > n_slots + 1_000_000:  # pragma: no cover - safety valve
                raise RuntimeError("simulation failed to drain")

        return DagResult(
            route_delays=route_recs,
            cross_delays=cross_recs,
            node_backlogs=backlog_recs,
            slots=n_slots,
            topology=self.topology,
        )
