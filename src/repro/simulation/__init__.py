"""Discrete-time network simulator (empirical validation substrate).

The paper is purely analytical; this package provides the closest
synthetic equivalent of a measurement testbed: a slotted fluid simulator
matching the discrete-time model of Section IV.  Time advances in unit
slots; each flow contributes a fluid chunk per slot; every node is a
work-conserving link of capacity ``C`` per slot whose backlog is drained
in scheduler-precedence order (locally FIFO within each flow).

Schedulers: FIFO, static priority (and BMUX as its special case), EDF —
the Delta-schedulers analyzed by the paper — plus GPS, which is *not* a
Delta-scheduler and is included for empirical contrast.

Every run is a feed-forward :class:`repro.topology.Topology`; the
paper's Fig. 1 tandem is its line case.  :func:`simulate_topology_mmoo`
samples MMOO arrivals and runs them on the chunk engine
(:class:`DagNetwork`) or the vectorized fast path
(:func:`run_tandem_vectorized` for lines, :func:`run_topology_vectorized`
for all-FIFO DAGs), returning a :class:`DagResult`.
:class:`SimulationConfig` describes one tandem run and
:func:`simulate_tandem_mmoo` runs its :attr:`SimulationConfig.topology`;
:func:`simulate_tandem_mmoo_rare` is the importance-sampled variant.

The validation experiments check that simulated delay quantiles stay below
the analytic bounds at the corresponding violation probability.
"""

from repro.simulation.schedulers import (
    EDFPolicy,
    FIFOPolicy,
    GPSPolicy,
    SchedulerPolicy,
    StaticPriorityPolicy,
    bmux_policy,
)
from repro.simulation.node import Link
from repro.simulation.network import (
    DagNetwork,
    DagResult,
    default_policy_factory,
)
from repro.simulation.metrics import (
    BacklogRecorder,
    DelayRecorder,
    order_statistics_ci,
)
from repro.simulation.vectorized import (
    VECTORIZED_SCHEDULERS,
    delays_between,
    run_tandem_vectorized,
    run_topology_vectorized,
)
from repro.simulation.engine import (
    ENGINES,
    SimulationConfig,
    resolve_topology_engine,
    sample_topology_arrivals,
    simulate_tandem_mmoo,
    simulate_topology_mmoo,
    spawn_trial_seeds,
)
from repro.simulation.rare import (
    RareEstimate,
    RareTrialResult,
    TiltedMMOO,
    estimate_tail,
    estimate_tail_from_arrays,
    simulate_tandem_mmoo_rare,
    solve_lundberg_tilt,
    suggest_rare_slots,
)

__all__ = [
    "SchedulerPolicy",
    "FIFOPolicy",
    "StaticPriorityPolicy",
    "EDFPolicy",
    "GPSPolicy",
    "bmux_policy",
    "Link",
    "DagNetwork",
    "DagResult",
    "default_policy_factory",
    "DelayRecorder",
    "BacklogRecorder",
    "order_statistics_ci",
    "VECTORIZED_SCHEDULERS",
    "delays_between",
    "run_tandem_vectorized",
    "run_topology_vectorized",
    "ENGINES",
    "SimulationConfig",
    "resolve_topology_engine",
    "sample_topology_arrivals",
    "simulate_tandem_mmoo",
    "simulate_topology_mmoo",
    "spawn_trial_seeds",
    "TiltedMMOO",
    "RareTrialResult",
    "RareEstimate",
    "estimate_tail",
    "estimate_tail_from_arrays",
    "simulate_tandem_mmoo_rare",
    "solve_lundberg_tilt",
    "suggest_rare_slots",
]
