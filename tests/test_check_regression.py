"""Tests for the benchmark-regression gate (benchmarks/check_regression.py).

The script is stdlib-only and lives outside the package, so it is loaded
by path.  The important property under test: a uniformly slower machine
(every benchmark scaled by the same factor) must pass the normalized
gate, while a single benchmark regressing relative to the rest fails it.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).parent.parent / "benchmarks" / "check_regression.py"

spec = importlib.util.spec_from_file_location("check_regression", SCRIPT)
check_regression = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_regression)


def pytest_bench_json(means: dict) -> dict:
    return {
        "benchmarks": [
            {"fullname": name, "stats": {"mean": mean}}
            for name, mean in means.items()
        ]
    }


def write(tmp_path: Path, name: str, payload: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


@pytest.fixture
def baseline(tmp_path):
    current = write(
        tmp_path, "base_run.json",
        pytest_bench_json({"bench_a": 1.0, "bench_b": 10.0, "bench_c": 0.1}),
    )
    base = tmp_path / "BASELINE.json"
    rc = check_regression.main([str(current), "--baseline", str(base), "--update"])
    assert rc == 0
    return base


class TestUpdateMode:
    def test_writes_schema_and_means(self, baseline):
        data = json.loads(baseline.read_text())
        assert data["schema"] == "repro.bench-baseline/1"
        assert data["benchmarks"]["bench_b"] == pytest.approx(10.0)


class TestGate:
    def run(self, tmp_path, baseline, means, *extra):
        current = write(tmp_path, "pr.json", pytest_bench_json(means))
        return check_regression.main(
            [str(current), "--baseline", str(baseline), *extra]
        )

    def test_identical_run_passes(self, tmp_path, baseline):
        means = {"bench_a": 1.0, "bench_b": 10.0, "bench_c": 0.1}
        assert self.run(tmp_path, baseline, means) == 0

    def test_within_tolerance_passes(self, tmp_path, baseline):
        means = {"bench_a": 1.2, "bench_b": 10.0, "bench_c": 0.1}
        assert self.run(tmp_path, baseline, means) == 0

    def test_single_regression_fails(self, tmp_path, baseline):
        means = {"bench_a": 2.0, "bench_b": 10.0, "bench_c": 0.1}
        assert self.run(tmp_path, baseline, means) == 1

    def test_uniformly_slower_machine_passes_normalized(self, tmp_path, baseline):
        # a 3x slower host is not a regression: the median ratio absorbs it
        means = {"bench_a": 3.0, "bench_b": 30.0, "bench_c": 0.3}
        assert self.run(tmp_path, baseline, means) == 0

    def test_uniform_slowdown_fails_raw_mode(self, tmp_path, baseline):
        means = {"bench_a": 3.0, "bench_b": 30.0, "bench_c": 0.3}
        assert self.run(tmp_path, baseline, means, "--raw") == 1

    def test_relative_regression_on_slow_machine_fails(self, tmp_path, baseline):
        # machine 2x slower overall, but bench_a 8x slower: regression
        means = {"bench_a": 8.0, "bench_b": 20.0, "bench_c": 0.2}
        assert self.run(tmp_path, baseline, means) == 1

    def test_missing_benchmark_fails(self, tmp_path, baseline):
        means = {"bench_a": 1.0, "bench_b": 10.0}
        assert self.run(tmp_path, baseline, means) == 1

    def test_unbaselined_benchmark_fails(self, tmp_path, baseline, capsys):
        # a benchmark absent from the baseline would be ungated forever;
        # the gate fails until the author re-baselines with --update
        means = {
            "bench_a": 1.0, "bench_b": 10.0, "bench_c": 0.1, "bench_d": 5.0,
        }
        assert self.run(tmp_path, baseline, means) == 1
        captured = capsys.readouterr()
        assert "UNBASELINED" in captured.out
        # the failure names the offender and the exact regen command
        assert "bench_d" in captured.err
        assert (
            "pytest benchmarks/ --benchmark-json=BENCH_PR.json && "
            "python benchmarks/check_regression.py BENCH_PR.json --update"
        ) in captured.err

    def test_tolerance_flag(self, tmp_path, baseline):
        means = {"bench_a": 1.2, "bench_b": 10.0, "bench_c": 0.1}
        assert self.run(tmp_path, baseline, means, "--tolerance", "0.05") == 1

    def test_missing_baseline_file_fails(self, tmp_path):
        current = write(tmp_path, "pr.json", pytest_bench_json({"a": 1.0}))
        rc = check_regression.main(
            [str(current), "--baseline", str(tmp_path / "nope.json")]
        )
        assert rc == 1


CAL = check_regression.CALIBRATION
#: Nine suite rows plus the calibration row, all 1 s at baseline.
ROWS = [f"bench_{i}" for i in range(9)]


@pytest.fixture
def calibrated_baseline(tmp_path):
    base = tmp_path / "CALIBRATED.json"
    check_regression.write_baseline({CAL: 1.0, **dict.fromkeys(ROWS, 1.0)}, base)
    return base


class TestCalibrationFactor:
    """The machine factor comes from the calibration row, which no change
    to the program can move, when both files carry it."""

    def run(self, tmp_path, baseline, means):
        current = write(tmp_path, "pr.json", pytest_bench_json(means))
        return check_regression.main([str(current), "--baseline", str(baseline)])

    def test_third_of_rows_faster_flags_nothing(
        self, tmp_path, calibrated_baseline, capsys
    ):
        # the change speeds up three rows by 40%; the six it does not
        # touch spread with host noise, the slowest by +25%
        untouched = [0.85, 0.9, 1.0, 1.1, 1.2, 1.25]
        means = dict(zip(ROWS, [0.6] * 3 + untouched))
        assert self.run(tmp_path, calibrated_baseline, {CAL: 1.0, **means}) == 0
        assert "1.000 (calibration row)" in capsys.readouterr().out
        # without the calibration row the median over all rows (0.90
        # here) moves with the change and holds the untouched rows to a
        # tighter bound: the +20% and +25% ones are flagged
        _, flagged = check_regression.compare(
            means, dict.fromkeys(ROWS, 1.0), tolerance=0.30, normalize=True
        )
        assert flagged == ["bench_7", "bench_8"]

    def test_untouched_row_slower_is_flagged(self, tmp_path, calibrated_baseline):
        # a uniformly 2x slower host, one untouched row 50% slower on top
        means = {CAL: 2.0, **dict.fromkeys(ROWS, 2.0), "bench_4": 3.0}
        assert self.run(tmp_path, calibrated_baseline, means) == 1
        means["bench_4"] = 2.0
        assert self.run(tmp_path, calibrated_baseline, means) == 0


class TestLoadMeans:
    def test_reads_pytest_benchmark_format(self, tmp_path):
        path = write(tmp_path, "run.json", pytest_bench_json({"x": 2.5}))
        assert check_regression.load_means(path) == {"x": 2.5}

    def test_reads_baseline_format(self, baseline):
        means = check_regression.load_means(baseline)
        assert means["bench_a"] == pytest.approx(1.0)


CAL_US = check_regression.CALIBRATION_US


class TestMicrosecondFactor:
    """Rows under a millisecond take the microsecond calibration row's
    factor when both files carry it; longer rows keep the main one."""

    BASE = {CAL: 1.0, CAL_US: 5e-6, "slow_row": 1.0, "fast_row": 4e-5}

    def run(self, tmp_path, means):
        base = tmp_path / "MICRO.json"
        check_regression.write_baseline(self.BASE, base)
        current = write(tmp_path, "pr.json", pytest_bench_json(means))
        return check_regression.main([str(current), "--baseline", str(base)])

    def test_loaded_host_moves_microsecond_rows_by_their_own_factor(
        self, tmp_path, capsys
    ):
        # the millisecond loop reads +10%, microsecond calls +45%
        means = {
            CAL: 1.1, CAL_US: 5e-6 * 1.45, "slow_row": 1.1,
            "fast_row": 4e-5 * 1.45,
        }
        assert self.run(tmp_path, means) == 0
        assert "microsecond-row factor: 1.450" in capsys.readouterr().out
        # scaled by the main factor, the unchanged fast row fails
        _, flagged = check_regression.compare(
            {k: v for k, v in means.items() if k != CAL_US},
            {k: v for k, v in self.BASE.items() if k != CAL_US},
            tolerance=0.30, normalize=True,
        )
        assert flagged == ["fast_row"]

    def test_slower_microsecond_row_still_fails(self, tmp_path):
        # same loaded host, and the fast row 40% slower on top of it
        means = {
            CAL: 1.1, CAL_US: 5e-6 * 1.45, "slow_row": 1.1,
            "fast_row": 4e-5 * 1.45 * 1.4,
        }
        assert self.run(tmp_path, means) == 1
