#!/usr/bin/env python3
"""Worst-case (deterministic) network calculus with Delta-schedulers.

The probabilistic analysis contains the deterministic calculus as the
special case eps = 0.  This example uses leaky-bucket envelopes to:

1. recover the classical exact single-node delay bounds for FIFO, static
   priority, and EDF via Theorem 2's tight schedulability condition;
2. verify the tightness empirically: the greedy (envelope-tracing)
   arrival pattern of the necessity proof drives the simulator exactly to
   the bound;
3. compose a worst-case end-to-end bound through Theorem 1 service curves
   and min-plus convolution.

Run:  python examples/deterministic_calculus.py
"""

from repro import FIFO, BMUX, EDF, deterministic_schedulability
from repro.arrivals.envelopes import leaky_bucket
from repro.arrivals.statistical import StatisticalEnvelope
from repro.network.convolution import network_service_curve
from repro.scheduling.schedulability import (
    adversarial_arrivals,
    min_feasible_delay,
)
from repro.service.leftover import deterministic_leftover_service
from repro.simulation.network import DagNetwork
from repro.topology import Topology

CAPACITY = 100.0  # Mbps
ENVELOPES = {
    "video": leaky_bucket(rate=20.0, burst=120.0),   # kbit burst
    "bulk": leaky_bucket(rate=30.0, burst=180.0),
}


def single_node_bounds() -> None:
    print("exact single-node delay bounds (Theorem 2), C = 100 Mbps:")
    for name, scheduler in [
        ("FIFO", FIFO()),
        ("video lowest priority (BMUX)", BMUX("video")),
        ("EDF, video deadline 2 ms vs 12 ms", EDF({"video": 2.0, "bulk": 12.0})),
    ]:
        d = min_feasible_delay(scheduler, ENVELOPES, CAPACITY, "video")
        ok = deterministic_schedulability(scheduler, ENVELOPES, CAPACITY, "video", d)
        print(f"  {name:38s} d = {d:6.3f} ms   (condition holds: {ok})")


def tightness_demo() -> None:
    d = min_feasible_delay(FIFO(), ENVELOPES, CAPACITY, "video")
    slots = 50
    net = DagNetwork(Topology.line(1, capacity=CAPACITY, n_through=1))
    result = net.run(
        {"through": adversarial_arrivals(ENVELOPES["video"], slots)},
        {"0": adversarial_arrivals(ENVELOPES["bulk"], slots)},
    )
    print(
        f"\ngreedy arrival pattern on FIFO: simulated worst delay "
        f"{result.route_delays['through'].max():.0f} ms vs bound {d:.2f} ms "
        "(tight up to slot granularity)"
    )


def end_to_end_worst_case() -> None:
    # 3 FIFO nodes, each with its own bulk cross flow; Theorem 1 with
    # eps = 0 gives deterministic leftover curves, composed by min-plus
    # convolution (gamma = 0: no statistical rate degradation needed)
    theta = 3.0
    curves = [
        deterministic_leftover_service(
            FIFO(), "video", CAPACITY, {"bulk": ENVELOPES["bulk"]}, theta
        )
        for _ in range(3)
    ]
    net = network_service_curve(curves, gamma=0.0)
    video = StatisticalEnvelope.deterministic(ENVELOPES["video"].curve)
    d = net.delay_bound(video, 0.0)
    print(
        f"\nworst-case end-to-end bound over 3 FIFO hops "
        f"(theta = {theta} ms per node): {d:.2f} ms"
    )


if __name__ == "__main__":
    single_node_bounds()
    tightness_demo()
    end_to_end_worst_case()
