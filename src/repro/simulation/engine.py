"""High-level simulation entry points for the paper's MMOO workloads.

:func:`simulate_topology_mmoo` samples MMOO arrivals for every route and
every node's local cross traffic of a feed-forward
:class:`~repro.topology.Topology` and runs them on the chunk engine or
the vectorized fast path, returning a
:class:`~repro.simulation.network.DagResult`.  The paper's Fig. 1 tandem
is its line case: :class:`SimulationConfig` describes one tandem run,
its :attr:`SimulationConfig.topology` is the matching
:meth:`Topology.line`, and :func:`simulate_tandem_mmoo` runs that line
— one call per (scheduler, utilization, path length) cell of a
validation experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Literal

import numpy as np

from repro import obs
from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.processes import mmoo_aggregate_arrivals
from repro.simulation.network import DagNetwork, DagResult
from repro.simulation.vectorized import (
    VECTORIZED_SCHEDULERS,
    run_tandem_vectorized,
    run_topology_vectorized,
)
from repro.topology.model import Topology
from repro.utils.validation import check_int

SchedulerName = Literal["fifo", "bmux", "edf", "sp", "gps"]
EngineName = Literal["chunk", "vectorized"]

#: Available simulation engines: the exact chunk-level simulator and the
#: vectorized fluid fast path (see :mod:`repro.simulation.vectorized`).
ENGINES = ("chunk", "vectorized")


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of a tandem MMOO simulation run.

    The tandem is the line topology :attr:`topology`; construction
    raises :class:`ValueError` when that topology cannot run on
    ``engine`` with this link model (see :func:`resolve_topology_engine`).

    Attributes
    ----------
    traffic:
        The per-flow MMOO parameters (paper defaults: 1.5 kbit peak).
    n_through, n_cross:
        Flow counts of the through and per-node cross aggregates.
    hops:
        Path length ``H``.
    capacity:
        Link rate per slot (kbit per ms at the paper's units).
    slots:
        Number of arrival slots to simulate.
    scheduler:
        One of ``"fifo"``, ``"bmux"``, ``"edf"``, ``"sp"``, ``"gps"``.
    preemptive:
        ``False`` switches the links to the non-preemptive packet model
        (a started chunk finishes first and departs whole); requires a
        precedence-based scheduler.
    packet_size:
        Split each slot's aggregate arrivals into packets of this size
        (e.g. the MMOO peak emission 1.5 kbit) before offering them.
    edf_deadline_through, edf_deadline_cross:
        Per-node EDF deadline offsets (slots); only used for ``"edf"``.
    gps_weight_through, gps_weight_cross:
        GPS weights; only used for ``"gps"``.
    seed:
        RNG seed for reproducibility.
    """

    traffic: MMOOParameters
    n_through: int
    n_cross: int
    hops: int
    capacity: float
    slots: int
    scheduler: SchedulerName = "fifo"
    edf_deadline_through: float = 1.0
    edf_deadline_cross: float = 10.0
    gps_weight_through: float = 1.0
    gps_weight_cross: float = 1.0
    seed: int = 0
    preemptive: bool = True
    packet_size: float | None = None
    engine: EngineName = "chunk"

    def __post_init__(self) -> None:
        check_int(self.n_through, "n_through", minimum=1)
        check_int(self.slots, "slots", minimum=1)
        # building the topology checks hops, capacity, n_cross, the
        # scheduler name and the EDF deadlines and GPS weights
        resolved = resolve_topology_engine(
            self.topology, self.engine,
            preemptive=self.preemptive, packet_size=self.packet_size,
        )
        if resolved != self.engine:  # "auto" picks; a config names one
            raise ValueError(
                f"unknown engine {self.engine!r} (one of {ENGINES})"
            )

    @cached_property
    def topology(self) -> Topology:
        """The tandem as a :meth:`Topology.line` with this scheduler.

        Its route is named ``"through"`` and its nodes ``"0" .. "H-1"``;
        every node carries the EDF deadlines and GPS weights.  Built once
        per config: short rare-event trials would otherwise pay for
        building and validating it again on every access.
        """
        line = Topology.line(
            self.hops, capacity=self.capacity, n_through=self.n_through,
            n_cross=self.n_cross, scheduler=self.scheduler,
            edf_deadline_through=self.edf_deadline_through,
            edf_deadline_cross=self.edf_deadline_cross,
        )
        nodes = tuple(
            replace(
                node,
                gps_weight_through=self.gps_weight_through,
                gps_weight_cross=self.gps_weight_cross,
            )
            for node in line.nodes
        )
        return replace(line, nodes=nodes)


def simulate_tandem_mmoo(config: SimulationConfig) -> DagResult:
    """Run one tandem simulation: ``config.topology`` on ``config.engine``.

    The through aggregate and each node's cross aggregate are independent
    sets of MMOO flows drawn from ``config.traffic`` with stationary
    initial states (see :func:`sample_topology_arrivals`).  Both engines
    consume the same sampled arrival arrays, so for a given seed they
    simulate the same sample path.  The through delays are
    ``result.route_delays["through"]``.
    """
    return simulate_topology_mmoo(
        config.topology, config.traffic, config.slots, config.seed,
        engine=config.engine, preemptive=config.preemptive,
        packet_size=config.packet_size,
    )


def resolve_topology_engine(
    topology: Topology,
    engine: str,
    *,
    preemptive: bool = True,
    packet_size: float | None = None,
) -> str:
    """Resolve an engine selector for a topology simulation.

    ``"auto"`` picks the vectorized fast path whenever it applies — a
    line (tandem) topology with a vectorized scheduler, or an all-FIFO
    DAG — and the chunk engine otherwise.  Raises :class:`ValueError`
    for an unknown engine, a non-positive ``packet_size``, a
    non-preemptive GPS node, and an explicit ``"vectorized"`` that the
    topology, its schedulers or the link model rule out.
    """
    if engine not in ("auto",) + ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (one of {('auto',) + ENGINES})"
        )
    if packet_size is not None and packet_size <= 0:
        raise ValueError("packet_size must be > 0")
    if not preemptive and any(n.scheduler == "gps" for n in topology.nodes):
        raise ValueError("GPS is inherently preemptive (fluid)")
    fluid = preemptive and packet_size is None
    tandem = topology.as_tandem()
    vectorizable = fluid and (
        (tandem is not None and tandem.scheduler in VECTORIZED_SCHEDULERS)
        or all(n.scheduler == "fifo" for n in topology.nodes)
    )
    if engine == "auto":
        return "vectorized" if vectorizable else "chunk"
    if engine == "vectorized" and not vectorizable:
        raise ValueError(
            "the vectorized engine covers line topologies with schedulers "
            f"{VECTORIZED_SCHEDULERS} and all-FIFO DAGs, on preemptive "
            "fluid links without packet_size; use engine='chunk' here"
        )
    return engine


def sample_topology_arrivals(
    topology: Topology,
    traffic: MMOOParameters,
    slots: int,
    seed: int,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Sample per-route and per-node-cross MMOO arrival arrays.

    One RNG stream seeded at ``seed`` draws every route aggregate in
    route declaration order, then every node-local cross aggregate in
    node declaration order (nodes with ``n_cross = 0`` consume no
    draws).  For a :meth:`Topology.line` that is the through aggregate,
    then the cross aggregate of each hop in path order.
    """
    check_int(slots, "slots", minimum=1)
    rng = np.random.default_rng(seed)
    route_arrivals = {
        route.name: mmoo_aggregate_arrivals(
            traffic, route.n_flows, slots, rng
        )
        for route in topology.routes
    }
    cross_arrivals = {}
    for node in topology.nodes:
        if node.n_cross > 0:
            cross_arrivals[node.name] = mmoo_aggregate_arrivals(
                traffic, node.n_cross, slots, rng
            )
        else:
            cross_arrivals[node.name] = np.zeros(slots)
    return route_arrivals, cross_arrivals


def simulate_topology_mmoo(
    topology: Topology,
    traffic: MMOOParameters,
    slots: int,
    seed: int,
    *,
    engine: str = "auto",
    preemptive: bool = True,
    packet_size: float | None = None,
    record_backlog: bool = False,
) -> DagResult:
    """Run one feed-forward topology simulation with MMOO workloads.

    Each route and each node's local cross descriptor becomes an
    independent MMOO aggregate (see :func:`sample_topology_arrivals`);
    node schedulers come from the topology's :class:`NodeSpec`\\ s.  A
    line topology runs :func:`run_tandem_vectorized` on the vectorized
    engine; general DAGs run the topological chunk loop or, when all
    nodes are FIFO, the vectorized DAG engine.
    """
    resolved = resolve_topology_engine(
        topology, engine, preemptive=preemptive, packet_size=packet_size
    )
    with obs.trace("simulation.sample_arrivals"):
        route_arrivals, cross_arrivals = sample_topology_arrivals(
            topology, traffic, slots, seed
        )
    start = time.perf_counter()
    with obs.trace(f"simulation.run.{resolved}"):
        if resolved == "vectorized" and topology.as_tandem() is not None:
            through = route_arrivals[topology.routes[0].name]
            cross_rows = [cross_arrivals[n.name] for n in topology.nodes]
            result = run_tandem_vectorized(
                through, cross_rows, topology, record_backlog=record_backlog
            )
        elif resolved == "vectorized":
            result = run_topology_vectorized(
                topology, route_arrivals, cross_arrivals,
                record_backlog=record_backlog,
            )
        else:
            network = DagNetwork(
                topology, preemptive=preemptive, packet_size=packet_size
            )
            result = network.run(
                route_arrivals, cross_arrivals,
                record_backlog=record_backlog,
            )
    if obs.enabled():
        elapsed = time.perf_counter() - start
        obs.add(f"simulation.{resolved}.runs")
        obs.add(f"simulation.{resolved}.slots", slots)
        if elapsed > 0.0:
            obs.observe(
                f"simulation.{resolved}.slots_per_s", slots / elapsed
            )
    return result


def spawn_trial_seeds(root_seed: int, n_trials: int) -> tuple[int, ...]:
    """Independent per-trial seeds spawned from a root ``SeedSequence``.

    Deterministic in ``(root_seed, n_trials)`` and prefix-stable: the
    first ``k`` seeds of ``n_trials = m >= k`` equal the seeds of
    ``n_trials = k``, so raising the trial count only *adds* trials —
    cached trial cells of a previous, smaller run stay valid.
    """
    check_int(n_trials, "n_trials", minimum=1)
    state = np.random.SeedSequence(root_seed).generate_state(
        n_trials, dtype=np.uint64
    )
    return tuple(int(s) for s in state)
