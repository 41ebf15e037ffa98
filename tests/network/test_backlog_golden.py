"""Pinned end-to-end backlog bounds, compared as JSON text.

The backlog search probes the Eq. (38) solve once per ``(s, gamma)``
point, so a solver that drifted by one ulp in ``x`` or a theta would
move these results.  The fixture holds the exact text of
``json.dumps(asdict(result))`` (every float through ``repr``) for
:func:`~repro.network.backlog.e2e_backlog_bound_mmoo` at
``H in {1, 2} x Delta in {0, inf, -20}`` on 4/4 grids, and for
:func:`~repro.topology.routes.route_backlog_bound_mmoo` on a 2-hop FIFO
line.  A deliberate change to the backlog bounds regenerates it::

    PYTHONPATH=src python tests/network/test_backlog_golden.py --regen
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.arrivals.mmoo import MMOOParameters
from repro.network.backlog import e2e_backlog_bound_mmoo
from repro.topology import Topology
from repro.topology.routes import route_backlog_bound_mmoo

GOLDEN_PATH = Path(__file__).parent / "golden" / "backlog_bounds.json"

TRAFFIC = MMOOParameters.paper_defaults()
CAPACITY = 100.0
GRIDS = {"s_grid": 4, "gamma_grid": 4}

CASES: dict[str, object] = {}
for _hops in (1, 2):
    for _name, _delta in (("fifo", 0.0), ("bmux", math.inf), ("edf", -20.0)):
        CASES[f"mmoo-{_name}-H{_hops}"] = (
            lambda hops=_hops, delta=_delta: e2e_backlog_bound_mmoo(
                TRAFFIC, 100, 200, hops, CAPACITY, delta, 1e-6, **GRIDS
            )
        )
CASES["route-line-H2"] = lambda: route_backlog_bound_mmoo(
    Topology.line(
        2, capacity=CAPACITY, n_through=150, n_cross=150, scheduler="fifo"
    ),
    "through", TRAFFIC, 1e-4, **GRIDS,
)


def compute(name: str) -> str:
    return json.dumps(asdict(CASES[name]()), sort_keys=True)


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_backlog_bound_text(golden, name):
    assert compute(name) == golden[name]


if __name__ == "__main__":
    if "--regen" not in sys.argv:
        sys.exit("usage: test_backlog_golden.py --regen")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps({name: compute(name) for name in sorted(CASES)}, indent=2)
        + "\n"
    )
    print(f"wrote {GOLDEN_PATH}")
