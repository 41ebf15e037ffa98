"""High-level simulation entry point for the paper's MMOO workloads.

:func:`simulate_tandem_mmoo` wires together the MMOO sample-path
generators, the Fig. 1 tandem topology and a scheduler family, and returns
the measured through-traffic delay distribution — one call per
(scheduler, utilization, path length) cell of a validation experiment.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Literal, Sequence

import numpy as np

from repro import obs
from repro.arrivals.mmoo import MMOOParameters
from repro.arrivals.processes import mmoo_aggregate_arrivals
from repro.simulation.network import (
    DagNetwork,
    DagResult,
    TandemNetwork,
    TandemResult,
)
from repro.simulation.schedulers import (
    EDFPolicy,
    FIFOPolicy,
    GPSPolicy,
    SchedulerPolicy,
    StaticPriorityPolicy,
    bmux_policy,
)
from repro.simulation.vectorized import (
    VECTORIZED_SCHEDULERS,
    run_tandem_vectorized,
    run_topology_vectorized,
)
from repro.topology.model import Topology
from repro.utils.validation import check_int, check_positive

SchedulerName = Literal["fifo", "bmux", "edf", "sp", "gps"]
EngineName = Literal["chunk", "vectorized"]

#: Available simulation engines: the exact chunk-level simulator and the
#: vectorized fluid fast path (see :mod:`repro.simulation.vectorized`).
ENGINES = ("chunk", "vectorized")


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of a tandem MMOO simulation run.

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
        check_int(self.n_cross, "n_cross", minimum=0)
        check_int(self.hops, "hops", minimum=1)
        check_int(self.slots, "slots", minimum=1)
        check_positive(self.capacity, "capacity")
        if self.scheduler not in ("fifo", "bmux", "edf", "sp", "gps"):
            raise ValueError(f"unknown scheduler {self.scheduler!r}")
        if not self.preemptive and self.scheduler == "gps":
            raise ValueError("GPS is inherently preemptive (fluid)")
        if self.packet_size is not None and self.packet_size <= 0:
            raise ValueError("packet_size must be > 0")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r} (one of {ENGINES})")
        if self.engine == "vectorized":
            if self.scheduler not in VECTORIZED_SCHEDULERS:
                raise ValueError(
                    f"the vectorized engine supports {VECTORIZED_SCHEDULERS}; "
                    f"use engine='chunk' for {self.scheduler!r}"
                )
            if not self.preemptive:
                raise ValueError(
                    "the vectorized engine models preemptive fluid links; "
                    "use engine='chunk' for the non-preemptive packet model"
                )
            if self.packet_size is not None:
                raise ValueError(
                    "the vectorized engine has no packet granularity; "
                    "use engine='chunk' with packet_size"
                )


def _policy_factory(config: SimulationConfig):
    def factory(through_id: str, cross_id: str) -> SchedulerPolicy:
        if config.scheduler == "fifo":
            return FIFOPolicy()
        if config.scheduler == "bmux":
            return bmux_policy(through_id, [through_id, cross_id])
        if config.scheduler == "sp":
            # through traffic strictly prioritized (the BMUX mirror image)
            return StaticPriorityPolicy({through_id: 1.0, cross_id: 0.0})
        if config.scheduler == "edf":
            return EDFPolicy(
                {
                    through_id: config.edf_deadline_through,
                    cross_id: config.edf_deadline_cross,
                }
            )
        return GPSPolicy(
            {
                through_id: config.gps_weight_through,
                cross_id: config.gps_weight_cross,
            }
        )

    return factory


def simulate_tandem_mmoo(config: SimulationConfig) -> TandemResult:
    """Run one tandem simulation and return the measured delays.

    The through aggregate and each node's cross aggregate are independent
    sets of MMOO flows drawn from ``config.traffic`` with stationary
    initial states.  Both engines consume the same sampled arrival
    arrays, so for a given seed they simulate the same sample path.
    """
    with obs.trace("simulation.sample_arrivals"):
        rng = np.random.default_rng(config.seed)
        through = mmoo_aggregate_arrivals(
            config.traffic, config.n_through, config.slots, rng
        )
        cross_rows = []
        for _ in range(config.hops):
            if config.n_cross > 0:
                cross_rows.append(
                    mmoo_aggregate_arrivals(
                        config.traffic, config.n_cross, config.slots, rng
                    )
                )
            else:
                cross_rows.append(np.zeros(config.slots))
    start = time.perf_counter()
    with obs.trace(f"simulation.run.{config.engine}"):
        if config.engine == "vectorized":
            result = run_tandem_vectorized(
                through,
                cross_rows,
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
            result = network.run(through, cross_rows)
    if obs.enabled():
        elapsed = time.perf_counter() - start
        obs.add(f"simulation.{config.engine}.runs")
        obs.add(f"simulation.{config.engine}.slots", config.slots)
        if elapsed > 0.0:
            obs.observe(
                f"simulation.{config.engine}.slots_per_s",
                config.slots / elapsed,
            )
    return result


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
    DAG — and the chunk engine otherwise.  An explicit ``"vectorized"``
    raises if the topology/scheduler combination has no vectorized
    implementation.
    """
    if engine not in ("auto",) + ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} (one of {('auto',) + ENGINES})"
        )
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
            f"{VECTORIZED_SCHEDULERS} and all-FIFO DAGs (preemptive fluid "
            "only); use engine='chunk' for this topology"
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
    draws).  For a :meth:`Topology.line` this is exactly the draw order
    of :func:`simulate_tandem_mmoo` — same seed, same sample path.
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
    node schedulers come from the topology's :class:`NodeSpec`\\ s.  For
    a line topology this reproduces :func:`simulate_tandem_mmoo`
    byte-for-byte on either engine; general DAGs run the topological
    chunk loop or, when all nodes are FIFO, the vectorized DAG engine.
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
        tandem = topology.as_tandem()
        if resolved == "vectorized" and tandem is not None:
            route = topology.routes[0]
            cross_rows = [
                cross_arrivals[n.name] for n in topology.nodes
            ]
            tandem_result = run_tandem_vectorized(
                route_arrivals[route.name],
                cross_rows,
                capacity=tandem.capacity,
                scheduler=tandem.scheduler,
                edf_deadline_through=tandem.edf_deadline_through,
                edf_deadline_cross=tandem.edf_deadline_cross,
                record_backlog=record_backlog,
            )
            result = _tandem_to_dag(tandem_result, topology)
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


def _tandem_to_dag(result: TandemResult, topology: Topology) -> DagResult:
    """Repackage a tandem fast-path result under the topology's names."""
    route = topology.routes[0]
    names = [node.name for node in topology.nodes]
    return DagResult(
        route_delays={route.name: result.through_delays},
        cross_delays=dict(zip(names, result.cross_delays)),
        node_backlogs=dict(zip(names, result.node_backlogs)),
        slots=result.slots,
        topology=topology,
    )


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


@dataclass(frozen=True)
class TrialResult:
    """One Monte Carlo trial: the seed it ran under and its measurements."""

    seed: int
    result: TandemResult


def _simulate_trial(args: tuple[SimulationConfig, int]) -> TrialResult:
    """Top-level trial runner (picklable for process-pool executors)."""
    config, seed = args
    return TrialResult(seed=seed, result=simulate_tandem_mmoo(replace(config, seed=seed)))


def simulate_tandem_mmoo_trials(
    config: SimulationConfig,
    n_trials: int,
    *,
    executor: object | None = None,
) -> list[TrialResult]:
    """Run ``n_trials`` independent simulations of ``config``.

    Per-trial seeds come from :func:`spawn_trial_seeds` rooted at
    ``config.seed``; ``executor`` may be anything with a
    ``map(fn, iterable)`` method (e.g. the experiments layer's
    ``SerialExecutor`` / ``WorkStealingExecutor``) and defaults to an
    in-process loop.
    """
    seeds = spawn_trial_seeds(config.seed, n_trials)
    jobs = [(config, seed) for seed in seeds]
    if executor is None:
        return [_simulate_trial(job) for job in jobs]
    mapper: Callable[..., Sequence[TrialResult]] = executor.map  # type: ignore[attr-defined]
    return list(mapper(_simulate_trial, jobs))
