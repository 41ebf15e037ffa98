"""Tests for the per-trial seed spawning of Monte Carlo validation."""

import pytest

from repro.simulation.engine import spawn_trial_seeds


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
