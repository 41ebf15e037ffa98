"""How fast each CPU is right now, sampled beside the run.

Shared 2-vCPU virtual hosts change the speed of each vCPU by up to 1.8x
within a second, and the two vCPUs change independently.  So the
benchmark pins its processes (see ``common.BENCH_CPU``) and runs one
small sampler child pinned to each CPU it uses.  Every ``INTERVAL_S`` a
sampler times the calibration job of ``common`` by its CPU time, so
waits for the CPU do not count, only how fast the CPU runs.  Work is
scaled by the median sample inside its window from the CPUs it ran on.

Measured on such a host (30 small cold sweep passes, medians of three):
a pinned sampler on the same CPU narrowed the spread from 0.21 to 0.07,
a sampler on the other CPU only to 0.12, and unpinned samplers or
calibration brackets in the benchmark's own process widened it.  A
sampler costs a few percent of its CPU, the same on every run.

Usage of the child: ``python3 perfbench/speed.py OUT_FILE CPU``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

from common import calibration_job

#: CPU time of one job at the reference machine speed, in seconds
#: (about its median on a 2-vCPU virtual host, so scaled and raw values
#: stay close).
REFERENCE_S = 0.0018
INTERVAL_S = 0.05
#: A window with fewer samples than this per CPU borrows the nearest.
MIN_SAMPLES = 5


def _sample_forever(out: str) -> None:
    with open(out, "w") as handle:
        while True:
            start = time.monotonic()
            cpu0 = time.thread_time()
            calibration_job()
            took = time.thread_time() - cpu0
            handle.write(f"{start:.6f} {took:.9f}\n")
            handle.flush()
            time.sleep(max(INTERVAL_S - (time.monotonic() - start), 0.0))


class _Series:
    """The samples of one sampler child, read as its file grows."""

    def __init__(self, path: Path):
        self.path = path
        self.samples: list[tuple[float, float]] = []
        self._offset = 0

    def refresh(self) -> list[tuple[float, float]]:
        try:
            with open(self.path) as handle:
                handle.seek(self._offset)
                text = handle.read()
        except OSError:
            return self.samples
        complete = text[: text.rfind("\n") + 1]
        self._offset += len(complete)
        for line in complete.splitlines():
            at, took = line.split()
            self.samples.append((float(at), float(took)))
        return self.samples


class SpeedSampler:
    """One pinned sampler child per CPU, and the reference-speed factor
    of a window."""

    def __init__(self, out_dir: Path, cpus: Sequence[int]):
        self.series: dict[int, _Series] = {}
        self.procs = []
        for cpu in cpus:
            path = out_dir / f"speed-{cpu}.txt"
            self.series[cpu] = _Series(path)
            self.procs.append(subprocess.Popen(
                [sys.executable, str(Path(__file__)), str(path), str(cpu)]
            ))
        deadline = time.monotonic() + 30.0
        while not all(series.refresh() for series in self.series.values()):
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("the speed samplers did not start")
            time.sleep(0.01)

    def factor(self, start: float, end: float, cpus: Sequence[int]) -> float:
        """Reference over measured speed of ``cpus`` in ``[start, end]``
        (``time.monotonic``)."""
        took = []
        for cpu in cpus:
            samples = self.series[cpu].refresh()
            inside = [t for at, t in samples if start <= at <= end]
            if len(inside) < MIN_SAMPLES:
                middle = (start + end) / 2
                nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
                inside = [t for _, t in nearest[:MIN_SAMPLES]]
            took.extend(inside)
        if not took:
            raise RuntimeError("the speed samplers recorded nothing")
        return REFERENCE_S / statistics.median(took)

    def close(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            proc.wait()


if __name__ == "__main__":
    os.sched_setaffinity(0, {int(sys.argv[2])})
    try:
        _sample_forever(sys.argv[1])
    except KeyboardInterrupt:
        pass
