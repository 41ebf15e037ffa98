"""Shared plumbing of the benchmark: paths, environment, stats, checks.

Everything the benchmark writes lives under ``.perfbench/`` at the root
of the checkout: ``cprobe/`` holds the compiled probe kernel across runs
(so only the first run of a checkout compiles it), and every run gets a
private ``runs/<id>/`` directory for its cell caches, which is removed
when the run ends.  The repository's own ``.repro_cache/`` is never used.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
CPROBE_DIR = WORK / "cprobe"
REFERENCE_DIR = BENCH_DIR / "reference"

#: Relative tolerance of every numeric output check (the golden suite's).
REL_TOL = 1e-9

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def configure_environment() -> None:
    """Pin threads, point the kernel cache at the benchmark's directory.

    Must run before numpy is imported; child processes inherit it.
    """
    for name in _THREAD_VARS:
        os.environ[name] = "1"
    CPROBE_DIR.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_CPROBE_DIR"] = str(CPROBE_DIR)
    # EDF non-convergence warnings are counted by the traced run, which
    # re-enables them explicitly; untraced runs (and pool workers) stay
    # quiet on stderr.
    os.environ["PYTHONWARNINGS"] = "ignore::RuntimeWarning"
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    # temporary files (compiler objects, the pool manager's socket) stay
    # in the checkout too, unless its path is too long for a Unix socket
    tmp = WORK / "tmp"
    if len(str(tmp)) <= 60:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
        tempfile.tempdir = None
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def new_run_dir() -> Path:
    """A fresh private directory for one run's caches."""
    base = WORK / "runs"
    base.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{os.getpid()}-", dir=base))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def environment_record() -> dict[str, Any]:
    """Facts that change what a number means; printed with each result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cc": shutil.which("cc") is not None,
    }


# -- timing ----------------------------------------------------------------

#: The CPUs the benchmark uses.  It pins itself, and so every child it
#: starts (set-up children, the server), to ``BENCH_CPU``; only the pool
#: workers of ``jobs=2`` passes run on both.  With the load generator
#: and the server on one CPU a hit's round trip holds no wake-up of the
#: other vCPU, whose latency on a shared host follows the host's load,
#: not the program: over six seeds the p50 spread fell from 0.13 to 0.03.
WORK_CPUS = tuple(sorted(os.sched_getaffinity(0)))[:2]
BENCH_CPU = WORK_CPUS[0]

_CALIBRATION_DOC = {
    "rows": [
        {"cell": i, "values": [1.5 * i] * 10, "label": "abc" * 5}
        for i in range(300)
    ]
}


def calibration_job() -> None:
    """A JSON round trip of a fixed document.

    It shares no code with the program, so a change to the program
    cannot move it.
    """
    json.loads(json.dumps(_CALIBRATION_DOC))


def pin(cpus: Iterable[int]) -> None:
    """Restrict this process (and the children it starts) to ``cpus``."""
    os.sched_setaffinity(0, set(cpus))


@contextlib.contextmanager
def on_cpus(cpus: Iterable[int]) -> Iterator[None]:
    """Let this process (and the children it starts) run on ``cpus``."""
    before = os.sched_getaffinity(0)
    pin(cpus)
    try:
        yield
    finally:
        pin(before)


def stopwatch(
    fn: Callable[..., Any], *args: Any, **kwargs: Any
) -> tuple[float, Any]:
    """``(raw seconds, result)`` of ``fn(*args, **kwargs)``."""
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - start, result


class Clock:
    """Times work at a reference machine speed.

    Each call is timed by the wall clock and scaled by the speed that
    ``sampler`` (see ``speed.py``) saw on the CPUs the work ran on
    during it.
    """

    def __init__(self, sampler: Any) -> None:
        self.sampler = sampler

    def run(
        self, fn: Callable[..., Any], *args: Any, **kwargs: Any
    ) -> tuple[float, float, Any]:
        """``(reference-speed seconds, raw seconds, result)`` of a call
        that works in this process."""
        start = time.monotonic()
        result = fn(*args, **kwargs)
        end = time.monotonic()
        factor = self.sampler.factor(start, end, (BENCH_CPU,))
        return (end - start) * factor, end - start, result

    @staticmethod
    def optional_run(
        clock: "Clock | None", fn: Callable[..., Any], *args: Any
    ) -> tuple[float, float, Any]:
        """:meth:`run` with ``clock``, else raw time twice."""
        if clock is not None:
            return clock.run(fn, *args)
        raw, result = stopwatch(fn, *args)
        return raw, raw, result

    def remote(
        self, fn: Callable[..., Any], *args: Any, cpus: Iterable[int],
        **kwargs: Any,
    ) -> tuple[float, Any]:
        """``(factor, result)`` of a call whose work runs in other
        processes on ``cpus``; times measured inside it times
        ``factor`` are reference-speed times."""
        start = time.monotonic()
        result = fn(*args, **kwargs)
        return self.sampler.factor(start, time.monotonic(), tuple(cpus)), result

    def factor(self, start: float, end: float, cpus: Iterable[int]) -> float:
        """The reference-speed factor of ``cpus`` in a window."""
        return self.sampler.factor(start, end, tuple(cpus))


# -- statistics ------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def median_pair(pairs: Sequence[tuple[float, float]]) -> tuple[float, float]:
    """Medians of ``(scaled, raw)`` samples, each column on its own."""
    return median([p[0] for p in pairs]), median([p[1] for p in pairs])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def peak_rss_mb(extra_kb: Iterable[int] = ()) -> float:
    """Largest resident set of this process, its waited children, and
    ``extra_kb`` (peaks read from ``/proc`` of processes still running)."""
    peaks = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        *extra_kb,
    ]
    return max(peaks) / 1024.0


def proc_status_kb(pid: int, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def proc_cpu_s(pid: int, *, workers_only: bool = False) -> float:
    """CPU seconds run so far by the live threads of process ``pid``
    (with ``workers_only``, by all of them but the main thread).

    Read from each thread's ``schedstat`` (nanoseconds), because the
    tick counts of ``/proc/<pid>/stat`` are 10 ms coarse.
    """
    total_ns = 0
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return 0.0
    for tid in tasks:
        if workers_only and int(tid) == pid:
            continue
        try:
            with open(f"/proc/{pid}/task/{tid}/schedstat") as handle:
                total_ns += int(handle.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass
    return total_ns / 1e9


# -- output checks ---------------------------------------------------------


def values_match(a: Any, b: Any, rel: float = REL_TOL) -> bool:
    """Structural equality with floats compared to ``rel`` relative."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        a, b = float(a), float(b)
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        if math.isinf(a) or math.isinf(b):
            return a == b
        return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        return a.keys() == b.keys() and all(
            values_match(a[k], b[k], rel) for k in a
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(
            values_match(x, y, rel) for x, y in zip(a, b)
        )
    return a == b


@functools.lru_cache(maxsize=None)
def load_reference(name: str) -> Any:
    """A recorded reference (cached; callers must not mutate it)."""
    with open(REFERENCE_DIR / name) as handle:
        return json.load(handle)


# -- processes -------------------------------------------------------------


def python_child(args: Sequence[str], **kwargs: Any) -> subprocess.Popen:
    """Start ``python3 <args>`` from the checkout root."""
    return subprocess.Popen(
        [sys.executable, *args], cwd=str(ROOT), **kwargs
    )


def time_until_line(
    proc: subprocess.Popen, prefix: str, start: float, timeout: float = 60.0
) -> tuple[float, str]:
    """Seconds from ``start`` until ``proc`` prints a line with ``prefix``."""
    assert proc.stdout is not None
    while True:
        remaining = timeout - (time.perf_counter() - start)
        ready, _, _ = select.select([proc.stdout], [], [], max(remaining, 0))
        if not ready:
            raise RuntimeError(f"child did not print {prefix!r} in time")
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"child exited (rc={proc.wait()}) before printing {prefix!r}"
            )
        if line.startswith(prefix):
            return time.perf_counter() - start, line.strip()


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> int:
    """Terminate ``proc`` and wait for it (kill if it hangs)."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode
