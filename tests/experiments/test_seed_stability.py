"""Seed stability: reproducibility guarantees of the Monte Carlo grid.

Two contracts keep validation runs reproducible and their caches
reusable:

* :func:`spawn_trial_seeds` is prefix-stable — growing the trial count
  only *appends* seeds, so cached trial cells of a smaller run stay
  valid verbatim;
* for a fixed root seed the validation sweep produces byte-identical
  rows whether the trials run serially (``--jobs 1``) or fan out over a
  process pool (``--jobs 2``) — parallelism must not leak into results.
"""

import json

import pytest

from repro.experiments.executor import SerialExecutor, make_executor
from repro.experiments.sweep import run_sweep
from repro.experiments.validation import run_rare_validation, validation_spec
from repro.simulation.engine import spawn_trial_seeds


class TestSpawnTrialSeedsPrefixStability:
    @pytest.mark.parametrize("k", range(1, 9))
    def test_prefix_stable_across_growth(self, k):
        assert spawn_trial_seeds(5, k) == spawn_trial_seeds(5, 12)[:k]

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31, 2**63 - 1])
    def test_prefix_stable_for_varied_root_seeds(self, seed):
        grown = spawn_trial_seeds(seed, 16)
        for k in (1, 3, 16):
            assert spawn_trial_seeds(seed, k) == grown[:k]

    def test_seeds_within_a_spawn_are_distinct(self):
        seeds = spawn_trial_seeds(5, 64)
        assert len(set(seeds)) == len(seeds)


class TestValidationRowsJobInvariance:
    @staticmethod
    def spec():
        return validation_spec(
            schedulers=("FIFO", "EDF"),
            hops=(1,),
            slots=2_000,
            seed=11,
            n_trials=2,
        )

    @staticmethod
    def row_bytes(result) -> bytes:
        return json.dumps(result.rows, sort_keys=True).encode()

    def test_rows_byte_identical_serial_vs_parallel(self):
        serial = run_sweep(self.spec(), executor=SerialExecutor())
        parallel = run_sweep(self.spec(), executor=make_executor(2))
        assert self.row_bytes(serial) == self.row_bytes(parallel)

    def test_rows_byte_identical_across_repeat_serial_runs(self):
        first = run_sweep(self.spec(), executor=SerialExecutor())
        second = run_sweep(self.spec(), executor=SerialExecutor())
        assert self.row_bytes(first) == self.row_bytes(second)

    def test_root_seed_changes_the_rows(self):
        base = run_sweep(self.spec(), executor=SerialExecutor())
        other_spec = validation_spec(
            schedulers=("FIFO", "EDF"),
            hops=(1,),
            slots=2_000,
            seed=12,
            n_trials=2,
        )
        other = run_sweep(other_spec, executor=SerialExecutor())
        assert self.row_bytes(base) != self.row_bytes(other)


class TestRareValidationSeedStability:
    """The weighted estimator inherits both contracts: executor
    invariance and prefix stability under adaptive trial growth."""

    @staticmethod
    def run(executor, max_batches=1, batch_trials=8):
        return run_rare_validation(
            schedulers=("FIFO", "BMUX"),
            hops=(1,),
            epsilon=1e-6,
            seed=11,
            batch_trials=batch_trials,
            ci_target=0.0,  # unreachable: always runs max_batches batches
            max_batches=max_batches,
            executor=executor,
        )

    @staticmethod
    def row_bytes(rows) -> bytes:
        return json.dumps(rows, sort_keys=True).encode()

    def test_rows_byte_identical_serial_vs_parallel(self):
        serial = self.run(SerialExecutor())
        parallel = self.run(make_executor(2))
        assert self.row_bytes(serial.raw_rows) == self.row_bytes(
            parallel.raw_rows
        )

    def test_adaptive_growth_is_prefix_stable(self):
        # extending the adaptive loop must only append batches: the
        # batch-0 cells (and hence any cached copy) stay valid verbatim
        short = self.run(SerialExecutor(), max_batches=1)
        long = self.run(SerialExecutor(), max_batches=2)
        short_batch0 = [
            r for r in short.raw_rows if r.get("kind") == "rare_batch"
        ]
        long_batch0 = [
            r
            for r in long.raw_rows
            if r.get("kind") == "rare_batch" and r["batch"] == 0
        ]
        assert self.row_bytes(short_batch0) == self.row_bytes(long_batch0)

    def test_batches_continue_the_seed_sequence(self):
        result = self.run(SerialExecutor(), max_batches=2, batch_trials=5)
        fifo = sorted(
            (
                r
                for r in result.raw_rows
                if r.get("kind") == "rare_batch" and r["scheduler"] == "FIFO"
            ),
            key=lambda r: r["batch"],
        )
        flat = [s for r in fifo for s in r["trial_seeds"]]
        assert flat == [int(s) for s in spawn_trial_seeds(11, 10)]
