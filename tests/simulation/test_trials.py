"""Tests for the multi-trial Monte Carlo harness of the simulator."""

import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.simulation.engine import (
    SimulationConfig,
    TrialResult,
    simulate_tandem_mmoo,
    simulate_tandem_mmoo_trials,
    spawn_trial_seeds,
)

TRAFFIC = MMOOParameters.paper_defaults()


def small_config(**kw):
    defaults = dict(
        traffic=TRAFFIC, n_through=4, n_cross=4, hops=1,
        capacity=10.0, slots=200, scheduler="fifo", seed=42,
        engine="vectorized",
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


class RecordingExecutor:
    """Duck-typed executor observing the fan-out."""

    def __init__(self):
        self.calls = 0
        self.items = None

    def map(self, fn, items):
        self.calls += 1
        self.items = list(items)
        return [fn(item) for item in self.items]


class TestSpawnTrialSeeds:
    def test_deterministic_and_distinct(self):
        seeds = spawn_trial_seeds(5, 16)
        assert seeds == spawn_trial_seeds(5, 16)
        assert len(set(seeds)) == 16

    def test_prefix_stable(self):
        # growing the trial count only appends seeds — earlier trials
        # (and their cached cells) stay identical
        assert spawn_trial_seeds(5, 3) == spawn_trial_seeds(5, 10)[:3]

    def test_root_seed_matters(self):
        assert spawn_trial_seeds(1, 4) != spawn_trial_seeds(2, 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            spawn_trial_seeds(0, 0)


class TestSimulateTrials:
    def test_records_every_seed(self):
        config = small_config()
        trials = simulate_tandem_mmoo_trials(config, 3)
        assert [t.seed for t in trials] == list(spawn_trial_seeds(42, 3))
        for trial in trials:
            assert isinstance(trial, TrialResult)
            assert trial.result.through_delays.total_mass > 0

    def test_trials_are_independent(self):
        trials = simulate_tandem_mmoo_trials(small_config(), 4)
        masses = {round(t.result.through_delays.total_mass, 6) for t in trials}
        assert len(masses) > 1  # different seeds, different sample paths

    def test_trial_matches_direct_simulation(self):
        from dataclasses import replace

        config = small_config()
        (trial,) = simulate_tandem_mmoo_trials(config, 1)
        direct = simulate_tandem_mmoo(replace(config, seed=trial.seed))
        assert trial.result.through_delays.total_mass == pytest.approx(
            direct.through_delays.total_mass
        )
        assert trial.result.through_delays.quantile(0.9) == pytest.approx(
            direct.through_delays.quantile(0.9)
        )

    def test_fans_out_through_executor(self):
        executor = RecordingExecutor()
        trials = simulate_tandem_mmoo_trials(
            small_config(), 5, executor=executor
        )
        assert executor.calls == 1
        assert len(executor.items) == 5
        assert len(trials) == 5

    def test_works_with_parallel_executor(self):
        from repro.experiments.executor import make_executor

        serial = simulate_tandem_mmoo_trials(small_config(), 3)
        parallel = simulate_tandem_mmoo_trials(
            small_config(), 3, executor=make_executor(2)
        )
        for s, p in zip(serial, parallel):
            assert s.seed == p.seed
            assert s.result.through_delays.quantile(
                0.999
            ) == p.result.through_delays.quantile(0.999)

    def test_both_engines_accepted(self):
        for engine in ("chunk", "vectorized"):
            trials = simulate_tandem_mmoo_trials(
                small_config(engine=engine), 2
            )
            assert len(trials) == 2
