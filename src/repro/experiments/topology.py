"""Added experiment T1: per-route bounds vs. simulation on topologies.

The paper analyzes one tandem; this experiment runs the same
bound-vs-quantile comparison on arbitrary feed-forward scenarios (see
:mod:`repro.topology.scenarios`).  For one named scenario it reports,
per route, the analytic end-to-end delay bound at ``eps`` next to the
simulated ``(1 - eps)``-delay-quantile of that route's aggregate over
``n_trials`` Monte Carlo topology simulations.  Soundness per route
requires quantile <= bound (up to the simulator's store-and-forward
slack of one slot per extra hop on the route).

The grid mirrors the validation experiment's two cell kinds so the
sweep cache stays maximally reusable:

* one **bound cell** per route — analytic only, keyed by the topology
  content (its :meth:`~repro.topology.Topology.to_params` tuples), the
  route name, and the optimization grids, but *not* the engine, slot
  count, or seed;
* one **trial cell** per trial — one whole-topology simulation whose
  payload carries a row per route, keyed by its own spawned seed and
  the engine, so raising ``n_trials`` only adds cells.

The topology itself travels through the sweep pipeline as the nested
plain-value tuples of ``Topology.to_params()`` — cells stay hashable,
picklable, and content-keyed without a side channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.arrivals.mmoo import MMOOParameters
from repro.experiments.config import grids
from repro.experiments.sweep import Cell, SweepSpec, run_sweep
from repro.experiments.validation import aggregate_trials, trial_summary
from repro.simulation.engine import simulate_topology_mmoo, spawn_trial_seeds
from repro.topology import Topology, build_scenario, extract_route
from repro.topology.routes import route_delay_bound_mmoo, route_is_homogeneous

#: Numerical slack on the soundness comparison (mirrors the validation
#: experiment; absorbs float rounding only).
_SOUND_EPS = 1e-9

BOUND_CELL_FN = "repro.experiments.topology:topology_bound_cell"
TRIAL_CELL_FN = "repro.experiments.topology:topology_trial_cell"


@dataclass(frozen=True)
class TopologyRow:
    """One route of the scenario: analytic bound vs. Monte Carlo trials.

    ``simulated_quantile`` is the median of the per-trial
    ``(1 - eps)``-quantiles of the route's end-to-end delay;
    ``quantile_lo``/``quantile_hi`` bound it with a distribution-free
    95% order-statistics confidence interval (degenerate for a single
    trial).  ``bound_violations`` counts the trials whose quantile
    exceeded ``bound + slack_allowed``.
    """

    route: str
    hops: int
    homogeneous: bool
    bound: float
    simulated_quantile: float
    simulated_max: float
    slack_allowed: float
    n_trials: int = 1
    quantile_lo: float = math.nan
    quantile_hi: float = math.nan
    bound_violations: int = 0
    trial_seeds: tuple[int, ...] = field(default=())
    engine: str = "auto"

    @property
    def sound(self) -> bool:
        """Did the analytic bound dominate every simulation trial?"""
        return (
            self.bound_violations == 0
            and self.simulated_quantile
            <= self.bound + self.slack_allowed + _SOUND_EPS
        )


def topology_bound_cell(
    *,
    topology: tuple,
    route: str,
    epsilon: float,
    traffic: tuple,
    s_grid: int,
    gamma_grid: int,
) -> dict:
    """The analytic end-to-end bound of one route.

    Pure analysis — no simulation parameters enter, so the cell's cache
    key is shared by every engine, seed, and trial count.  Homogeneous
    routes reproduce :func:`repro.network.e2e.e2e_delay_bound_mmoo`
    bitwise; heterogeneous routes go through the Section IV
    non-homogeneous construction.
    """
    topo = Topology.from_params(topology)
    mmoo = MMOOParameters(*traffic)
    hops = extract_route(topo, route)
    result = route_delay_bound_mmoo(
        topo, route, mmoo, epsilon,
        s_grid=s_grid, gamma_grid=gamma_grid,
    )
    return {
        "rows": [
            {
                "kind": "bound",
                "route": route,
                "hops": len(hops),
                "homogeneous": route_is_homogeneous(hops),
                "bound": result.delay,
                "slack_allowed": float(len(hops) - 1),
            }
        ],
        "diagnostics": {
            "topology_hash": topo.content_hash(),
            "alpha": result.alpha,
            "gamma": result.gamma,
        },
    }


def topology_trial_cell(
    *,
    topology: tuple,
    epsilon: float,
    slots: int,
    seed: int,
    trial: int,
    engine: str,
    traffic: tuple,
) -> dict:
    """One Monte Carlo simulation of the whole topology.

    A single run serves every route — the payload carries one row per
    route with that aggregate's delay quantile/max.  ``seed`` is this
    trial's own spawned seed, so the cell key identifies the trial
    regardless of how many trials the declaring sweep asked for.
    """
    topo = Topology.from_params(topology)
    mmoo = MMOOParameters(*traffic)
    result = simulate_topology_mmoo(topo, mmoo, slots, seed, engine=engine)
    rows = []
    for route_spec in topo.routes:
        delays = result.route_delays[route_spec.name]
        rows.append(
            {
                "kind": "trial",
                "route": route_spec.name,
                "hops": len(route_spec.path),
                "trial": trial,
                "seed": seed,
                "engine": engine,
                "simulated_quantile": delays.quantile(1.0 - epsilon),
                "simulated_max": delays.max(),
            }
        )
    return {
        "rows": rows,
        "diagnostics": {
            "topology_hash": topo.content_hash(),
            "seed": seed,
            "slots": slots,
            "engine": engine,
        },
    }


def topology_spec(
    scenario: str,
    size: int,
    *,
    scheduler: str = "fifo",
    n_flows: int = 20,
    utilization: float = 0.7,
    scenario_seed: int = 0,
    epsilon: float = 1e-3,
    slots: int = 20_000,
    seed: int = 5,
    n_trials: int = 1,
    engine: str = "auto",
    traffic: MMOOParameters | None = None,
    quick: bool = True,
) -> SweepSpec:
    """Declare the grid of one named topology scenario.

    One bound cell per route plus ``n_trials`` whole-topology trial
    cells whose seeds come from :func:`spawn_trial_seeds` rooted at
    ``seed``.  The topology is built once here and enters every cell as
    its ``to_params()`` tuples; neither ``n_trials`` nor ``engine``
    enters the sweep settings, so growing the trial count or switching
    engines reuses every cached cell it can.
    """
    topology = build_scenario(
        scenario, size, seed=scenario_seed, utilization=utilization,
        n_flows=n_flows, scheduler=scheduler,
    )
    mmoo = traffic or MMOOParameters.paper_defaults()
    traffic_params = (mmoo.peak, mmoo.p11, mmoo.p22)
    topo_params = topology.to_params()
    cells = [
        Cell.make(
            BOUND_CELL_FN, topology=topo_params, route=route.name,
            epsilon=epsilon, traffic=traffic_params, **grids(quick),
        )
        for route in topology.routes
    ]
    for trial, trial_seed in enumerate(spawn_trial_seeds(seed, n_trials)):
        cells.append(
            Cell.make(
                TRIAL_CELL_FN, topology=topo_params, epsilon=epsilon,
                slots=slots, seed=trial_seed, trial=trial, engine=engine,
                traffic=traffic_params,
            )
        )
    return SweepSpec.build(
        f"topology-{scenario}",
        cells,
        settings={
            "quick": quick,
            "epsilon": epsilon,
            "traffic": traffic_params,
            "scenario": scenario,
            "size": size,
            "scheduler": scheduler,
            "topology_hash": topology.content_hash(),
        },
        x_label="route",
    )


def rows_to_topology(rows: Sequence[dict]) -> list[TopologyRow]:
    """Aggregate kind-tagged sweep rows into :class:`TopologyRow` records.

    Bound and trial rows are joined on the route name; see
    :func:`~repro.experiments.validation.aggregate_trials`.  Output
    order follows the bound rows' grid order.
    """
    return [
        TopologyRow(
            route=route,
            hops=int(bound_row["hops"]),
            homogeneous=bool(bound_row["homogeneous"]),
            **fields,
        )
        for route, bound_row, fields in aggregate_trials(
            rows, lambda row: str(row["route"]), engine="auto"
        )
    ]


def topology_summary(rows: Sequence[TopologyRow]) -> list[dict]:
    """The aggregated rows as plain dicts (for the JSON artifact)."""
    return [
        {
            "route": row.route,
            "hops": row.hops,
            "homogeneous": row.homogeneous,
            **trial_summary(row),
        }
        for row in rows
    ]


def run_topology(
    scenario: str,
    size: int,
    *,
    executor=None,
    cache=None,
    **kwargs,
) -> list[TopologyRow]:
    """Run one scenario's bound-vs-simulation grid via the sweep engine."""
    spec = topology_spec(scenario, size, **kwargs)
    result = run_sweep(spec, executor=executor, cache=cache)
    return rows_to_topology(result.rows)


def format_topology(rows: Sequence[TopologyRow]) -> str:
    """Readable per-route table of the scenario outcome."""
    lines = [
        f"{'route':>12} {'hops':>4} {'homog':>5} {'bound':>10} "
        f"{'sim q':>10} {'ci_lo':>10} {'ci_hi':>10} {'sim max':>10} "
        f"{'trials':>6} {'viol':>5} {'sound':>6}"
    ]
    for row in rows:
        lines.append(
            f"{row.route:>12} {row.hops:>4} {str(row.homogeneous):>5} "
            f"{row.bound:>10.2f} {row.simulated_quantile:>10.2f} "
            f"{row.quantile_lo:>10.2f} {row.quantile_hi:>10.2f} "
            f"{row.simulated_max:>10.2f} {row.n_trials:>6} "
            f"{row.bound_violations:>5} {str(row.sound):>6}"
        )
    return "\n".join(lines)
