"""repro — stochastic network calculus for Delta-schedulers.

A complete, self-contained reproduction of

    J. Liebeherr, Y. Ghiassi-Farrokhfal, A. Burchard,
    "Does Link Scheduling Matter on Long Paths?", IEEE ICDCS 2010.

The library provides:

* an exact min-plus algebra on piecewise-linear curves (:mod:`repro.algebra`);
* deterministic and statistical traffic envelopes, including the EBB model
  and Markov-modulated on-off sources (:mod:`repro.arrivals`);
* deterministic and statistical service curves, including the paper's
  Theorem 1 leftover service curve for Delta-schedulers
  (:mod:`repro.service`);
* the Delta-scheduler abstraction — FIFO, static priority, blind
  multiplexing, EDF, custom precedence matrices — and the tight
  schedulability conditions of Theorem 2 (:mod:`repro.scheduling`);
* single-node probabilistic delay and backlog bounds
  (:mod:`repro.singlenode`);
* the end-to-end analysis of Section IV: statistical network service
  curves, the explicit theta-optimization, closed forms for FIFO and blind
  multiplexing, EDF deadline fixed points, heterogeneous paths, and the
  additive per-node baseline (:mod:`repro.network`);
* a discrete-time network simulator for empirical validation
  (:mod:`repro.simulation`);
* runnable reproductions of every figure in the paper
  (:mod:`repro.experiments`).

Public names are re-exported lazily from their home modules, so importing
:mod:`repro` stays cheap and submodules can be imported independently.
"""

from importlib import import_module
from typing import Any

__version__ = "1.0.0"

# name -> home module, used for lazy re-export (PEP 562)
_EXPORTS = {
    "PiecewiseLinear": "repro.algebra",
    "DeterministicEnvelope": "repro.arrivals",
    "StatisticalEnvelope": "repro.arrivals",
    "EBB": "repro.arrivals",
    "MMOOParameters": "repro.arrivals",
    "MarkovModulatedSource": "repro.arrivals",
    "aggregate_ebb": "repro.arrivals",
    "DeltaScheduler": "repro.scheduling",
    "FIFO": "repro.scheduling",
    "BMUX": "repro.scheduling",
    "EDF": "repro.scheduling",
    "StaticPriority": "repro.scheduling",
    "deterministic_schedulability": "repro.scheduling",
    "StatisticalServiceCurve": "repro.service",
    "leftover_service_curve": "repro.service",
    "deterministic_leftover_service": "repro.service",
    "delay_bound": "repro.singlenode",
    "backlog_bound": "repro.singlenode",
    "deterministic_delay_bound": "repro.singlenode",
    "EndToEndAnalysis": "repro.network",
    "HomogeneousPath": "repro.network",
    "HeterogeneousPath": "repro.network",
    "e2e_delay_bound": "repro.network",
    "e2e_backlog_bound": "repro.network",
    "additive_pernode_delay_bound": "repro.network",
    "pay_bursts_only_once": "repro.network",
    "mgf_delay_bound": "repro.singlenode",
    "packetize_service": "repro.service",
    "Topology": "repro.topology",
    "NodeSpec": "repro.topology",
    "Route": "repro.topology",
    "DagNetwork": "repro.simulation",
    "extract_route": "repro.topology",
    "route_delay_bound_mmoo": "repro.topology",
    "build_scenario": "repro.topology",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> Any:
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    module = import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return __all__
