"""Structured observability for the bound and simulation pipelines.

This package is the feedback loop for the ROADMAP's performance goal:
hierarchical span timers, monotonic counters, gauges, and bounded
series, recorded into an in-process :class:`MetricsRegistry` and
serialized to JSON (``--trace`` on the experiments CLI embeds the tree
in every artifact).  It is stdlib-only by design — importing it pulls
in nothing beyond ``threading``/``time``/``json``.

Instrumented modules call the **module-level** functions against the
currently active registry::

    from repro import obs

    with obs.trace("lanes.edf_batch"):
        ...
        obs.add("e2e.edf_iterations", len(active))
        obs.observe("e2e.edf_residual", residual)

Tracing is **off by default**: every call is then a cheap early-out
(``trace`` returns a shared no-op span) so hot paths pay effectively
nothing — asserted by ``benchmarks/test_bench_obs.py``.  Call sites
deliberately use ``obs.<fn>(...)`` attribute access rather than
``from repro.obs import trace`` so the overhead benchmark (and tests)
can intercept the module functions.

Worker processes record into their own scoped registry and ship a
picklable :func:`snapshot` back; the parent folds it in with
:func:`merge`.  ``scoped()`` swaps the active registry for the dynamic
extent of a ``with`` block and restores the previous one on exit.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Mapping

from repro.obs.registry import (
    NOOP_SPAN,
    SERIES_CAP,
    SNAPSHOT_SCHEMA,
    MetricsRegistry,
    Span,
)

__all__ = [
    "MetricsRegistry",
    "SNAPSHOT_SCHEMA",
    "SERIES_CAP",
    "NOOP_SPAN",
    "Span",
    "active",
    "enabled",
    "enable",
    "disable",
    "trace",
    "add",
    "set_gauge",
    "record",
    "observe",
    "snapshot",
    "merge",
    "reset",
    "counter",
    "gauge",
    "series",
    "scoped",
]

_active = MetricsRegistry(enabled=False)


def active() -> MetricsRegistry:
    """The registry all module-level calls currently record into."""
    return _active


def enabled() -> bool:
    return _active.enabled()


def enable(on: bool = True) -> None:
    _active.enable(on)


def disable() -> None:
    _active.disable()


def trace(name: str) -> Span:
    return _active.trace(name)


def add(name: str, value: float = 1.0) -> None:
    _active.add(name, value)


def set_gauge(name: str, value: Any) -> None:
    _active.set_gauge(name, value)


def record(
    counters: Mapping[str, float], gauges: Mapping[str, Any] | None = None
) -> None:
    _active.record(counters, gauges)


def observe(name: str, value: float) -> None:
    _active.observe(name, value)


def snapshot() -> dict[str, Any]:
    return _active.snapshot()


def merge(snap: Mapping[str, Any]) -> None:
    _active.merge(snap)


def reset() -> None:
    _active.reset()


def counter(name: str) -> float:
    return _active.counter(name)


def gauge(name: str) -> Any:
    return _active.gauge(name)


def series(name: str) -> list[float]:
    return _active.series(name)


@contextmanager
def scoped(enabled: bool = True) -> Iterator[MetricsRegistry]:
    """Swap in a fresh active registry for the duration of the block.

    Used by sweep workers so that each cell records into its own
    registry (later merged into the parent's) without clobbering —
    or double-counting into — whatever registry the enclosing process
    had active.
    """
    global _active
    previous = _active
    _active = MetricsRegistry(enabled=enabled)
    try:
        yield _active
    finally:
        _active = previous
