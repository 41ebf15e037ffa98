"""Added experiment V1: analytic bounds vs. simulated delay quantiles.

The paper has no measurement substrate; this experiment supplies one.
For a grid of (scheduler, path length) cells at high utilization (where
queueing is actually visible) it reports the analytic end-to-end bound at
``eps`` next to the simulated ``(1 - eps)``-delay-quantile of the through
traffic.  Soundness requires quantile <= bound (up to the simulator's
store-and-forward slack of one slot per extra hop); the gap quantifies
the bounds' conservatism.

The comparison is *Monte Carlo*: each grid point runs ``n_trials``
independent simulations whose seeds are spawned from the root seed via
:func:`repro.simulation.engine.spawn_trial_seeds`, and the summary row
reports the median per-trial quantile with a distribution-free
order-statistics confidence interval plus a ``bound_violations`` count
(trials whose quantile exceeded bound + slack).  The grid declares two
cell kinds so the sweep cache stays maximally reusable:

* one **bound cell** per (scheduler, H) — analytic only, keyed without
  the engine, slot count, or seed, so both engines and every trial
  count share the same cached bound;
* one **trial cell** per (scheduler, H, trial) — keyed by its own seed
  (and the engine), so raising ``n_trials`` only *adds* cells and a
  previous smaller run stays fully cached.

Trials fan out through whatever executor the sweep engine is given
(``--jobs N`` on the CLI maps them over a process pool); every trial's
seed is a cell parameter and therefore lands in the JSON artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, Sequence, TypeVar

import numpy as np

from repro import obs
from repro.experiments.batch import CellPlan
from repro.experiments.config import (
    SCHEDULER_MAP,
    PaperSetting,
    grids,
    paper_setting,
    setting_from_params,
    setting_to_params,
)
from repro.experiments.sweep import Cell, SweepSpec, run_sweep
from repro.network.e2e import e2e_delay_bound_mmoo
from repro.network.lanes import LaneSpec
from repro.simulation.engine import (
    SimulationConfig,
    simulate_tandem_mmoo,
    spawn_trial_seeds,
)
from repro.simulation.metrics import order_statistics_ci

#: Numerical slack on the soundness comparison (the bound itself is
#: conservative; this only absorbs float rounding).
_SOUND_EPS = 1e-9


@dataclass(frozen=True)
class ValidationRow:
    """One validation grid point: analytic bound vs. Monte Carlo trials.

    ``simulated_quantile`` is the median of the per-trial
    ``(1 - eps)``-quantiles; ``quantile_lo``/``quantile_hi`` bound it
    with a distribution-free 95% order-statistics confidence interval
    (degenerate for a single trial).  ``bound_violations`` counts the
    trials whose quantile exceeded ``bound + slack_allowed``.
    """

    scheduler: str
    hops: int
    utilization: float
    bound: float
    simulated_quantile: float
    simulated_max: float
    slack_allowed: float
    n_trials: int = 1
    quantile_lo: float = math.nan
    quantile_hi: float = math.nan
    bound_violations: int = 0
    trial_seeds: tuple[int, ...] = field(default=())
    engine: str = "chunk"

    @property
    def sound(self) -> bool:
        """Did the analytic bound dominate every simulation trial?"""
        return (
            self.bound_violations == 0
            and self.simulated_quantile
            <= self.bound + self.slack_allowed + _SOUND_EPS
        )


#: What bound and trial rows join on: (scheduler, hops) here, the route
#: name in the topology experiment.
PointKey = TypeVar("PointKey", bound=Hashable)

BOUND_CELL_FN = "repro.experiments.validation:validation_bound_cell"
TRIAL_CELL_FN = "repro.experiments.validation:validation_trial_cell"


def _n_half(traffic: tuple, capacity: float, epsilon: float, utilization: float) -> int:
    setting = setting_from_params(traffic, capacity, epsilon)
    return max(setting.flows_for_utilization(utilization) // 2, 1)


def validation_bound_cell(
    *,
    scheduler: str,
    hops: int,
    utilization: float,
    epsilon: float,
    traffic: tuple,
    capacity: float,
    s_grid: int,
    gamma_grid: int,
) -> dict:
    """The analytic end-to-end bound of one (scheduler, H) point.

    Pure analysis — no simulation parameters enter, so the cell's cache
    key is shared by every engine, seed, and trial count.  ``epsilon``
    is the *validation* violation probability (both the bound's target
    and the simulated quantile level), not the paper's 1e-9 setting.
    """
    setting = setting_from_params(traffic, capacity, epsilon)
    _, delta, _ = SCHEDULER_MAP[scheduler]
    n_half = _n_half(traffic, capacity, epsilon, utilization)
    bound = e2e_delay_bound_mmoo(
        setting.traffic, n_half, n_half, hops, setting.capacity,
        delta, epsilon, s_grid=s_grid, gamma_grid=gamma_grid,
    )
    return _validation_bound_payload(scheduler, hops, utilization, n_half, bound)


def _validation_bound_payload(
    scheduler: str, hops: int, utilization: float, n_half: int, bound
) -> dict:
    """The bound-cell payload; shared by the per-cell and batched path."""
    return {
        "rows": [
            {
                "kind": "bound",
                "scheduler": scheduler,
                "hops": hops,
                "utilization": utilization,
                "bound": bound.delay,
                "slack_allowed": float(hops - 1),
            }
        ],
        "diagnostics": {"n_through": n_half, "n_cross": n_half},
    }


def validation_bound_plan(params: dict) -> CellPlan:
    """Batch plan of one bound cell (see :mod:`repro.experiments.batch`)."""
    scheduler = params["scheduler"]
    hops, utilization = params["hops"], params["utilization"]
    epsilon = params["epsilon"]
    setting = setting_from_params(
        params["traffic"], params["capacity"], epsilon
    )
    _, delta, _ = SCHEDULER_MAP[scheduler]
    n_half = _n_half(
        params["traffic"], params["capacity"], epsilon, utilization
    )
    return CellPlan(
        kind="mmoo",
        spec=LaneSpec(
            setting.traffic, n_half, n_half, hops, setting.capacity,
            delta, epsilon,
            s_grid=params["s_grid"], gamma_grid=params["gamma_grid"],
        ),
        build=lambda bound: _validation_bound_payload(
            scheduler, hops, utilization, n_half, bound
        ),
    )


def validation_trial_cell(
    *,
    scheduler: str,
    hops: int,
    utilization: float,
    epsilon: float,
    slots: int,
    seed: int,
    trial: int,
    engine: str,
    traffic: tuple,
    capacity: float,
) -> dict:
    """One Monte Carlo trial of one (scheduler, H) point.

    ``seed`` is this trial's own seed (spawned from the root seed by
    :func:`~repro.simulation.engine.spawn_trial_seeds`), so the cell key
    — and with it the on-disk cache — identifies the trial regardless
    of how many trials the declaring sweep asked for.
    """
    setting = setting_from_params(traffic, capacity, epsilon)
    sim_name, _, edf_deadlines = SCHEDULER_MAP[scheduler]
    n_half = _n_half(traffic, capacity, epsilon, utilization)
    config_kwargs = {}
    if edf_deadlines is not None:
        config_kwargs = {
            "edf_deadline_through": edf_deadlines[0],
            "edf_deadline_cross": edf_deadlines[1],
        }
    config = SimulationConfig(
        traffic=setting.traffic, n_through=n_half, n_cross=n_half,
        hops=hops, capacity=setting.capacity, slots=slots,
        scheduler=sim_name, seed=seed, engine=engine, **config_kwargs,
    )
    delays = simulate_tandem_mmoo(config).route_delays["through"]
    return {
        "rows": [
            {
                "kind": "trial",
                "scheduler": scheduler,
                "hops": hops,
                "utilization": utilization,
                "trial": trial,
                "seed": seed,
                "engine": engine,
                "simulated_quantile": delays.quantile(1.0 - epsilon),
                "simulated_max": delays.max(),
            }
        ],
        "diagnostics": {"seed": seed, "slots": slots, "engine": engine},
    }


def validation_spec(
    *,
    schedulers: Sequence[str] = ("FIFO", "BMUX", "EDF"),
    hops: Sequence[int] = (1, 2),
    utilization: float = 0.90,
    epsilon: float = 1e-3,
    slots: int = 20_000,
    seed: int = 5,
    n_trials: int = 1,
    engine: str = "chunk",
    setting: PaperSetting | None = None,
    quick: bool = True,
) -> SweepSpec:
    """Declare the validation grid.

    Per (scheduler, H) point: one bound cell plus ``n_trials`` trial
    cells whose seeds come from :func:`spawn_trial_seeds` rooted at
    ``seed``.  Neither ``n_trials`` nor ``engine`` enters the sweep
    settings — trial seeds are prefix-stable and bound cells carry no
    engine parameter, so growing the trial count or switching engines
    reuses every cached cell it can.
    """
    setting = setting or paper_setting()
    params = setting_to_params(setting)
    shared = {
        "traffic": params["traffic"],
        "capacity": params["capacity"],
        "utilization": utilization,
        "epsilon": epsilon,
    }
    trial_seeds = spawn_trial_seeds(seed, n_trials)
    cells = []
    for scheduler in schedulers:
        for h in hops:
            cells.append(
                Cell.make(
                    BOUND_CELL_FN, scheduler=scheduler, hops=h,
                    **shared, **grids(quick),
                )
            )
            for trial, trial_seed in enumerate(trial_seeds):
                cells.append(
                    Cell.make(
                        TRIAL_CELL_FN, scheduler=scheduler, hops=h,
                        slots=slots, seed=trial_seed, trial=trial,
                        engine=engine, **shared,
                    )
                )
    return SweepSpec.build(
        "validation",
        cells,
        settings={"quick": quick, **shared},
        x_label="H",
    )


def aggregate_trials(
    rows: Sequence[dict], key: Callable[[dict], PointKey], *, engine: str
) -> list[tuple[PointKey, dict, dict]]:
    """Join kind-tagged bound and trial rows and aggregate each point.

    Rows join on ``key(row)``; per point the trial quantiles collapse to
    their median with a distribution-free 95% order-statistics CI and a
    count of bound violations.  Returns ``(key, bound_row, fields)`` in
    the bound rows' grid order, where ``fields`` holds the trial
    aggregate shared by :class:`ValidationRow` and
    :class:`~repro.experiments.topology.TopologyRow`; ``engine`` is the
    fallback for trial rows that do not name theirs.
    """
    bounds: dict[PointKey, dict] = {}
    trials: dict[PointKey, list[dict]] = {}
    for row in rows:
        if row.get("kind") == "trial":
            trials.setdefault(key(row), []).append(row)
        else:
            bounds[key(row)] = row

    out = []
    for point, bound_row in bounds.items():
        trial_rows = sorted(
            trials.get(point, []), key=lambda r: int(r.get("trial", 0))
        )
        if not trial_rows:
            raise ValueError(f"no trial rows for point {point!r}")
        bound = float(bound_row["bound"])
        slack = float(bound_row["slack_allowed"])
        quantiles = [float(r["simulated_quantile"]) for r in trial_rows]
        lo, hi = order_statistics_ci(quantiles, p=0.5, confidence=0.95)
        fields = {
            "bound": bound,
            "simulated_quantile": float(np.median(quantiles)),
            "simulated_max": max(
                float(r["simulated_max"]) for r in trial_rows
            ),
            "slack_allowed": slack,
            "n_trials": len(trial_rows),
            "quantile_lo": lo,
            "quantile_hi": hi,
            "bound_violations": sum(
                q > bound + slack + _SOUND_EPS for q in quantiles
            ),
            "trial_seeds": tuple(int(r["seed"]) for r in trial_rows),
            "engine": str(trial_rows[0].get("engine", engine)),
        }
        out.append((point, bound_row, fields))
    return out


def trial_summary(row) -> dict:
    """The trial-aggregate fields of a :class:`ValidationRow` or
    :class:`~repro.experiments.topology.TopologyRow` as plain values
    (the JSON artifact's tail after the point's own keys)."""
    return {
        "bound": row.bound,
        "simulated_quantile": row.simulated_quantile,
        "quantile_lo": row.quantile_lo,
        "quantile_hi": row.quantile_hi,
        "simulated_max": row.simulated_max,
        "slack_allowed": row.slack_allowed,
        "n_trials": row.n_trials,
        "bound_violations": row.bound_violations,
        "trial_seeds": list(row.trial_seeds),
        "engine": row.engine,
        "sound": row.sound,
    }


def rows_to_validation(rows: Sequence[dict]) -> list[ValidationRow]:
    """Aggregate kind-tagged sweep rows into :class:`ValidationRow` records.

    Bound and trial rows are joined on (scheduler, hops); see
    :func:`aggregate_trials`.  Output order follows the bound rows' grid
    order.
    """
    return [
        ValidationRow(
            scheduler=scheduler,
            hops=hops,
            utilization=float(bound_row["utilization"]),
            **fields,
        )
        for (scheduler, hops), bound_row, fields in aggregate_trials(
            rows,
            lambda row: (str(row["scheduler"]), int(row["hops"])),
            engine="chunk",
        )
    ]


def validation_summary(rows: Sequence[ValidationRow]) -> list[dict]:
    """The aggregated rows as plain dicts (for the JSON artifact)."""
    return [
        {
            "scheduler": row.scheduler,
            "hops": row.hops,
            "utilization": row.utilization,
            **trial_summary(row),
        }
        for row in rows
    ]


def run_validation(
    *,
    schedulers: Sequence[str] = ("FIFO", "BMUX", "EDF"),
    hops: Sequence[int] = (1, 2),
    utilization: float = 0.90,
    epsilon: float = 1e-3,
    slots: int = 20_000,
    seed: int = 5,
    n_trials: int = 1,
    engine: str = "chunk",
    setting: PaperSetting | None = None,
    quick: bool = True,
    executor=None,
    cache=None,
) -> list[ValidationRow]:
    """Run the bound-vs-simulation comparison grid via the sweep engine."""
    spec = validation_spec(
        schedulers=schedulers, hops=hops, utilization=utilization,
        epsilon=epsilon, slots=slots, seed=seed, n_trials=n_trials,
        engine=engine, setting=setting, quick=quick,
    )
    result = run_sweep(spec, executor=executor, cache=cache)
    return rows_to_validation(result.rows)


RARE_BATCH_CELL_FN = "repro.experiments.validation:rare_validation_batch_cell"

#: Batch cells per point the adaptive loop may run before giving up on
#: the CI target (a safety valve, not a tuning knob).
DEFAULT_MAX_BATCHES = 25


@dataclass(frozen=True)
class RareValidationRow:
    """One rare-event grid point: analytic bound vs. weighted tail estimate.

    The estimand is ``P(delay > bound + slack)`` under the base traffic
    law, estimated by importance sampling
    (:mod:`repro.simulation.rare`).  The bound is *sound* when the
    estimate does not statistically refute ``P <= epsilon`` — i.e. when
    the asymptotic 95% lower confidence limit stays at or below the
    target epsilon.
    """

    scheduler: str
    hops: int
    utilization: float
    epsilon: float
    bound: float
    threshold: float
    probability: float
    ci_low: float
    ci_high: float
    boot_ci_low: float
    boot_ci_high: float
    rel_half_width: float
    n_trials: int
    n_batches: int
    hit_rate: float
    variance_reduction: float
    log_weight_std: float
    slots: int
    seed: int
    engine: str = "vectorized"

    @property
    def sound(self) -> bool:
        """Is ``P(delay > bound) <= epsilon`` statistically tenable?"""
        return self.ci_low <= self.epsilon + _SOUND_EPS


def rare_validation_batch_cell(
    *,
    scheduler: str,
    hops: int,
    utilization: float,
    epsilon: float,
    threshold: float,
    slots: int,
    seed: int,
    batch: int,
    batch_trials: int,
    engine: str,
    traffic: tuple,
    capacity: float,
) -> dict:
    """One batch of importance-sampled trials of one (scheduler, H) point.

    ``seed`` is the *root* seed; the batch runs trials
    ``[batch * batch_trials, (batch + 1) * batch_trials)`` of the
    prefix-stable seed sequence, so the adaptive loop extending the
    trial count only adds cells — earlier batches stay cached, and the
    estimate over any trial prefix is independent of how many batches
    eventually ran.
    """
    from repro.simulation.rare import (
        TiltedMMOO,
        simulate_tandem_mmoo_rare,
        solve_lundberg_tilt,
    )

    setting = setting_from_params(traffic, capacity, epsilon)
    sim_name, _, edf_deadlines = SCHEDULER_MAP[scheduler]
    n_half = _n_half(traffic, capacity, epsilon, utilization)
    tilted = TiltedMMOO.from_tilt(
        setting.traffic,
        solve_lundberg_tilt(setting.traffic, 2 * n_half, setting.capacity),
    )
    config_kwargs = {}
    if edf_deadlines is not None:
        config_kwargs = {
            "edf_deadline_through": edf_deadlines[0],
            "edf_deadline_cross": edf_deadlines[1],
        }
    seeds = spawn_trial_seeds(seed, (batch + 1) * batch_trials)[
        batch * batch_trials:
    ]
    log_weights: list[float] = []
    exceed_fractions: list[float] = []
    taus: list[int] = []
    for trial_seed in seeds:
        config = SimulationConfig(
            traffic=setting.traffic, n_through=n_half, n_cross=n_half,
            hops=hops, capacity=setting.capacity, slots=slots,
            scheduler=sim_name, seed=trial_seed, engine=engine,
            **config_kwargs,
        )
        trial = simulate_tandem_mmoo_rare(config, threshold, tilted=tilted)
        log_weights.append(trial.log_weight)
        exceed_fractions.append(
            trial.result.route_delays["through"].exceed_fraction(threshold)
        )
        taus.append(trial.tau)
    return {
        "rows": [
            {
                "kind": "rare_batch",
                "scheduler": scheduler,
                "hops": hops,
                "utilization": utilization,
                "batch": batch,
                "threshold": threshold,
                "slots": slots,
                "seed": seed,
                "engine": engine,
                "log_weights": log_weights,
                "exceed_fractions": exceed_fractions,
                "taus": taus,
                "trial_seeds": [int(s) for s in seeds],
            }
        ],
        "diagnostics": {
            "tilt": tilted.tilt,
            "tilted_p11": tilted.params.p11,
            "tilted_p22": tilted.params.p22,
            "mean_tau": float(np.mean(taus)),
        },
    }


def rows_to_rare_validation(
    rows: Sequence[dict], *, epsilon: float
) -> list[RareValidationRow]:
    """Aggregate bound + rare-batch sweep rows into rare validation rows.

    Batches join on (scheduler, hops) and concatenate in batch order, so
    the estimate equals one long prefix-stable trial sequence no matter
    how the adaptive loop split it.
    """
    from repro.simulation.rare import estimate_tail_from_arrays

    bounds: dict[tuple[str, int], dict] = {}
    batches: dict[tuple[str, int], list[dict]] = {}
    order: list[tuple[str, int]] = []
    for row in rows:
        key = (str(row["scheduler"]), int(row["hops"]))
        if row.get("kind") == "rare_batch":
            batches.setdefault(key, []).append(row)
        elif row.get("kind") == "bound" or "bound" in row:
            if key not in bounds:
                order.append(key)
            bounds[key] = row

    out: list[RareValidationRow] = []
    for key in order:
        bound_row = bounds[key]
        batch_rows = sorted(
            batches.get(key, []), key=lambda r: int(r["batch"])
        )
        if not batch_rows:
            raise ValueError(f"no rare batches for validation point {key}")
        log_weights = [
            w for r in batch_rows for w in r["log_weights"]
        ]
        exceed_fractions = [
            f for r in batch_rows for f in r["exceed_fractions"]
        ]
        estimate = estimate_tail_from_arrays(log_weights, exceed_fractions)
        out.append(
            RareValidationRow(
                scheduler=key[0],
                hops=key[1],
                utilization=float(bound_row["utilization"]),
                epsilon=epsilon,
                bound=float(bound_row["bound"]),
                threshold=float(batch_rows[0]["threshold"]),
                probability=estimate.probability,
                ci_low=estimate.ci_low,
                ci_high=estimate.ci_high,
                boot_ci_low=estimate.boot_ci_low,
                boot_ci_high=estimate.boot_ci_high,
                rel_half_width=estimate.rel_half_width,
                n_trials=estimate.n_trials,
                n_batches=len(batch_rows),
                hit_rate=estimate.hit_rate,
                variance_reduction=estimate.variance_reduction,
                log_weight_std=estimate.log_weight_std,
                slots=int(batch_rows[0]["slots"]),
                seed=int(batch_rows[0]["seed"]),
                engine=str(batch_rows[0]["engine"]),
            )
        )
    return out


@dataclass(frozen=True)
class RareValidationResult:
    """Outcome of the two-phase adaptive rare-event validation."""

    rows: list[RareValidationRow]
    raw_rows: list[dict]
    cells: int
    cached_cells: int
    computed_wall_time_s: float


def run_rare_validation(
    *,
    schedulers: Sequence[str] = ("FIFO", "BMUX", "EDF"),
    hops: Sequence[int] = (1,),
    utilization: float = 0.90,
    epsilon: float = 1e-6,
    seed: int = 5,
    batch_trials: int = 100,
    ci_target: float = 0.25,
    max_batches: int = DEFAULT_MAX_BATCHES,
    engine: str = "vectorized",
    setting: PaperSetting | None = None,
    quick: bool = True,
    executor=None,
    cache=None,
) -> RareValidationResult:
    """Bound-vs-tail comparison with adaptive trial allocation.

    Phase 1 computes the analytic bounds (one cached bound cell per
    point, shared with the naive validation grid).  Phase 2 runs
    importance-sampled trial batches per point — all points still short
    of the CI target fan out together through the executor each round —
    until the 95% relative CI half-width of every point's tail estimate
    reaches ``ci_target`` or the point exhausts ``max_batches``.  The
    trial schedule is deterministic: batch ``b`` always runs seeds
    ``[b * batch_trials, (b + 1) * batch_trials)`` of the prefix-stable
    sequence, so results are independent of the executor and fully
    cache-reusable across runs with different targets.
    """
    from repro.simulation.rare import (
        TiltedMMOO,
        solve_lundberg_tilt,
        suggest_rare_slots,
    )

    setting = setting or paper_setting()
    params = setting_to_params(setting)
    shared = {
        "traffic": params["traffic"],
        "capacity": params["capacity"],
        "utilization": utilization,
        "epsilon": epsilon,
    }
    bound_cells = [
        Cell.make(
            BOUND_CELL_FN, scheduler=scheduler, hops=h,
            **shared, **grids(quick),
        )
        for scheduler in schedulers
        for h in hops
    ]
    bound_spec = SweepSpec.build(
        "validation-rare", bound_cells,
        settings={"quick": quick, **shared}, x_label="H",
    )
    bound_result = run_sweep(bound_spec, executor=executor, cache=cache)
    raw_rows = list(bound_result.rows)
    cells = len(bound_result.cells)
    cached = bound_result.cached_cells
    wall = bound_result.computed_wall_time_s

    n_half = _n_half(
        params["traffic"], params["capacity"], epsilon, utilization
    )
    tilted = TiltedMMOO.from_tilt(
        setting.traffic,
        solve_lundberg_tilt(setting.traffic, 2 * n_half, setting.capacity),
    )
    points: dict[tuple[str, int], dict] = {}
    for row in raw_rows:
        key = (str(row["scheduler"]), int(row["hops"]))
        threshold = float(row["bound"]) + float(row["slack_allowed"])
        points[key] = {
            "threshold": threshold,
            "slots": suggest_rare_slots(
                tilted, 2 * n_half, setting.capacity, threshold
            ),
            "batches": 0,
        }

    pending = set(points)
    round_index = 0
    while pending:
        round_cells = []
        for key in sorted(pending):
            point = points[key]
            round_cells.append(
                Cell.make(
                    RARE_BATCH_CELL_FN,
                    scheduler=key[0], hops=key[1],
                    threshold=point["threshold"], slots=point["slots"],
                    seed=seed, batch=point["batches"],
                    batch_trials=batch_trials, engine=engine, **shared,
                )
            )
            point["batches"] += 1
        round_spec = SweepSpec.build(
            f"validation-rare-batch-{round_index}", round_cells,
            settings={"quick": quick, **shared}, x_label="H",
        )
        round_result = run_sweep(round_spec, executor=executor, cache=cache)
        raw_rows.extend(round_result.rows)
        cells += len(round_result.cells)
        cached += round_result.cached_cells
        wall += round_result.computed_wall_time_s
        round_index += 1

        finished = set()
        for row in rows_to_rare_validation(raw_rows, epsilon=epsilon):
            key = (row.scheduler, row.hops)
            if key not in pending:
                continue
            if (
                row.rel_half_width <= ci_target
                or points[key]["batches"] >= max_batches
            ):
                finished.add(key)
        pending -= finished

    rows = rows_to_rare_validation(raw_rows, epsilon=epsilon)
    if obs.enabled():
        for row in rows:
            obs.add("rare.points")
            obs.add("rare.point_trials", float(row.n_trials))
    return RareValidationResult(
        rows=rows,
        raw_rows=raw_rows,
        cells=cells,
        cached_cells=cached,
        computed_wall_time_s=wall,
    )


def rare_validation_summary(rows: Sequence[RareValidationRow]) -> list[dict]:
    """The aggregated rare rows as plain dicts (for the JSON artifact)."""
    return [
        {
            "scheduler": row.scheduler,
            "hops": row.hops,
            "utilization": row.utilization,
            "epsilon": row.epsilon,
            "bound": row.bound,
            "threshold": row.threshold,
            "probability": row.probability,
            "ci_low": row.ci_low,
            "ci_high": row.ci_high,
            "boot_ci_low": row.boot_ci_low,
            "boot_ci_high": row.boot_ci_high,
            "rel_half_width": row.rel_half_width,
            "n_trials": row.n_trials,
            "n_batches": row.n_batches,
            "hit_rate": row.hit_rate,
            "variance_reduction": row.variance_reduction,
            "log_weight_std": row.log_weight_std,
            "slots": row.slots,
            "seed": row.seed,
            "engine": row.engine,
            "sound": row.sound,
        }
        for row in rows
    ]


def format_rare_validation(rows: Sequence[RareValidationRow]) -> str:
    """Readable table of the rare-event validation outcome."""
    lines = [
        f"{'scheduler':>10} {'H':>3} {'bound':>10} {'P(delay>bound)':>15} "
        f"{'ci_hi':>10} {'relhw':>6} {'trials':>6} {'vrf':>9} {'sound':>6}"
    ]
    for row in rows:
        vrf = (
            f"{row.variance_reduction:.2e}"
            if math.isfinite(row.variance_reduction)
            else "inf"
        )
        lines.append(
            f"{row.scheduler:>10} {row.hops:>3} {row.bound:>10.2f} "
            f"{row.probability:>15.3e} {row.ci_high:>10.3e} "
            f"{row.rel_half_width:>6.2f} {row.n_trials:>6} {vrf:>9} "
            f"{str(row.sound):>6}"
        )
    return "\n".join(lines)


def format_validation(rows: Sequence[ValidationRow]) -> str:
    """Readable table of the validation outcome."""
    lines = [
        f"{'scheduler':>10} {'H':>3} {'U%':>5} {'bound':>10} "
        f"{'sim q':>10} {'ci_lo':>10} {'ci_hi':>10} {'sim max':>10} "
        f"{'trials':>6} {'viol':>5} {'sound':>6}"
    ]
    for row in rows:
        lines.append(
            f"{row.scheduler:>10} {row.hops:>3} {row.utilization * 100:>5.0f} "
            f"{row.bound:>10.2f} {row.simulated_quantile:>10.2f} "
            f"{row.quantile_lo:>10.2f} {row.quantile_hi:>10.2f} "
            f"{row.simulated_max:>10.2f} {row.n_trials:>6} "
            f"{row.bound_violations:>5} {str(row.sound):>6}"
        )
    return "\n".join(lines)
