"""Pinned results of the scalar nested searches, compared as JSON text.

The lane engine's searches are pinned bitwise by the figure goldens and
the bound digests; the searches that run ``grid_then_golden`` over a
scalar objective are pinned here.  The fixture holds the exact text of
``json.dumps(asdict(result))`` (every float through ``repr``) for:

* :meth:`~repro.network.path.HeterogeneousPath.delay_bound` with
  ``method="exact"`` on a FIFO/BMUX/EDF path and ``method="paper"`` on
  a FIFO path of mixed capacities and cross decays;
* :func:`~repro.topology.routes.route_delay_bound_mmoo` on heterogeneous
  parking-lot through routes (H = 2, 3);
* :func:`~repro.network.e2e.e2e_delay_bound` with ``method="paper"``;
* :func:`~repro.network.pernode.additive_pernode_delay_bound_mmoo` with
  ``backend="scalar"``;
* the linear-grid search of
  :func:`~repro.network.deterministic.deterministic_e2e_delay_bound`;
* :func:`~repro.utils.numeric.grid_then_golden` itself, on a
  two-minimum objective with linear and log grids.

A deliberate change to these searches regenerates it::

    PYTHONPATH=src python tests/network/test_search_golden.py --regen
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, is_dataclass
from pathlib import Path

import pytest

from repro.arrivals.ebb import EBB
from repro.arrivals.envelopes import leaky_bucket
from repro.arrivals.mmoo import MMOOParameters
from repro.network.deterministic import deterministic_e2e_delay_bound
from repro.network.e2e import e2e_delay_bound
from repro.network.path import HeterogeneousPath, HopSpec
from repro.network.pernode import additive_pernode_delay_bound_mmoo
from repro.topology import parking_lot
from repro.topology.routes import route_delay_bound_mmoo
from repro.utils.numeric import grid_then_golden

GOLDEN_PATH = Path(__file__).parent / "golden" / "search_bounds.json"

TRAFFIC = MMOOParameters.paper_defaults()
THROUGH = EBB(1.0, 10.0, 0.7)
CROSS = EBB(1.0, 40.0, 0.7)
#: per-hop Delta of each path (Eqs. (40)-(42) need one Delta throughout)
PATHS = {
    method: HeterogeneousPath((
        HopSpec(100.0, CROSS, 0.0),
        HopSpec(90.0, EBB(1.0, 30.0, 1.4), deltas[0]),
        HopSpec(100.0, CROSS, deltas[1]),
    ))
    for method, deltas in (("exact", (math.inf, -2.0)), ("paper", (0.0, 0.0)))
}


def _two_minima(x: float) -> float:
    return (x - 1.0) ** 2 * (x - 4.0) ** 2 + 0.3 * x


CASES: dict[str, object] = {}
for _method in ("exact", "paper"):
    CASES[f"hetero-path-{_method}"] = (
        lambda method=_method: PATHS[method].delay_bound(
            THROUGH, 1e-9, method=method, gamma_grid=8
        )
    )
for _hops in (2, 3):
    for _scheduler in ("fifo", "bmux"):
        CASES[f"route-parking-lot-{_scheduler}-H{_hops}"] = (
            lambda hops=_hops, scheduler=_scheduler: route_delay_bound_mmoo(
                parking_lot(hops, 2, n_through=100, n_cross=60,
                            scheduler=scheduler),
                "through", TRAFFIC, 1e-6, s_grid=4, gamma_grid=4,
            )
        )
CASES["route-parking-lot-fifo-H2-paper"] = lambda: route_delay_bound_mmoo(
    parking_lot(2, 2, n_through=100, n_cross=60),
    "through", TRAFFIC, 1e-6, method="paper", s_grid=4, gamma_grid=4,
)
for _name, _delta in (("fifo", 0.0), ("bmux", math.inf), ("edf", -20.0)):
    CASES[f"e2e-paper-{_name}-H4"] = (
        lambda delta=_delta: e2e_delay_bound(
            THROUGH, CROSS, 4, 100.0, delta, 1e-9, method="paper",
            gamma_grid=12,
        )
    )
for _hops in (1, 3):
    CASES[f"additive-scalar-H{_hops}"] = (
        lambda hops=_hops: additive_pernode_delay_bound_mmoo(
            TRAFFIC, 100, 200, hops, 100.0, 1e-9, s_grid=6, gamma_grid=6,
            backend="scalar",
        )
    )
for _name, _delta in (("fifo", 0.0), ("edf", -5.0)):
    CASES[f"deterministic-{_name}-H3"] = (
        lambda delta=_delta: deterministic_e2e_delay_bound(
            leaky_bucket(rate=10.0, burst=50.0),
            leaky_bucket(rate=40.0, burst=200.0),
            3, 100.0, delta, theta_grid=12,
        )
    )
CASES["numeric-grid-then-golden-linear"] = lambda: grid_then_golden(
    _two_minima, -1.0, 6.0, grid_points=9
)
CASES["numeric-grid-then-golden-log"] = lambda: grid_then_golden(
    _two_minima, 0.05, 6.0, grid_points=7, log_spaced=True
)


def compute(name: str) -> str:
    result = CASES[name]()
    return json.dumps(
        asdict(result) if is_dataclass(result) else result, sort_keys=True
    )


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_search_result_text(golden, name):
    assert compute(name) == golden[name]


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: test_search_golden.py --regen")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({name: compute(name) for name in sorted(CASES)}, indent=2)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
