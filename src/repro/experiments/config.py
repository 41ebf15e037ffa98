"""Shared parameters of the paper's numerical examples (Section V).

Units: time in ms (one slot), data in kbit, rates in Mbps
(1 Mbps x 1 ms = 1 kbit).  All examples share:

* MMOO flows with ``P = 1.5`` kbit, ``p11 = 0.989``, ``p22 = 0.9``
  (peak 1.5 Mbps, mean ~0.1486 Mbps; the paper rounds to 0.15);
* link capacity ``C = 100`` Mbps at every node;
* violation probability ``eps = 1e-9``;
* utilization accounting ``U = (N_0 + N_c) * 0.15 / 100`` — the paper
  uses the *rounded* 0.15 Mbps per flow, so converting a target
  utilization to a flow count divides by 0.15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arrivals.mmoo import MMOOParameters
from repro.utils.validation import check_in_range

#: Per-flow rate the paper uses for utilization accounting (Mbps).
NOMINAL_FLOW_RATE = 0.15

#: Link rate at every node (Mbps).
CAPACITY = 100.0

#: Target violation probability of all examples.
EPSILON = 1e-9

#: The two ``gamma`` searches of the additive per-node baseline
#: (:func:`repro.network.pernode.additive_pernode_delay_bound`): the
#: numpy backend evaluates its grid through one batched kernel call of
#: :mod:`repro.network.vectorized`, the scalar backend probes the exact
#: objective point by point.  Their bounds agree to 1e-9 relative, not
#: bitwise.  The Fig. 2-4 cells still stamp ``DEFAULT_BACKEND`` into
#: their parameters, so their cache keys keep the field.
BACKENDS = ("numpy", "scalar")
DEFAULT_BACKEND = "numpy"

#: Experiment scheduler name -> (simulator scheduler, analysis Delta,
#: EDF deadlines or None).  The deadlines are the paper's Section V EDF
#: setting (d*_0 = 1, d*_c = 10), making Delta = d*_0 - d*_c = -9.
#: Shared by the validation and topology experiments so both label their
#: rows with the same scheduler vocabulary.
SCHEDULER_MAP = {
    "FIFO": ("fifo", 0.0, None),
    "BMUX": ("bmux", math.inf, None),
    "EDF": ("edf", 1.0 - 10.0, (1.0, 10.0)),
    "SP": ("sp", -math.inf, None),
}


@dataclass(frozen=True)
class PaperSetting:
    """The common experimental setting of Section V."""

    traffic: MMOOParameters
    capacity: float = CAPACITY
    epsilon: float = EPSILON

    def flows_for_utilization(self, utilization: float) -> int:
        """Flow count whose nominal load is ``utilization`` (0..1)."""
        check_in_range(utilization, 0.0, 1.0, "utilization")
        return round(utilization * self.capacity / NOMINAL_FLOW_RATE)

    def utilization_of(self, n_flows: int) -> float:
        """Nominal utilization of ``n_flows`` flows."""
        return n_flows * NOMINAL_FLOW_RATE / self.capacity


def paper_setting() -> PaperSetting:
    """The exact Section V setting."""
    return PaperSetting(traffic=MMOOParameters.paper_defaults())


#: Grid sizes for the numeric (s, gamma) optimization.  "quick" keeps the
#: benchmark harness fast while staying within ~1% of the "full" bounds
#: (checked by the ablation benchmark).
QUICK_GRIDS = {"s_grid": 12, "gamma_grid": 12}
FULL_GRIDS = {"s_grid": 24, "gamma_grid": 24}


def grids(quick: bool) -> dict:
    """Optimization grid sizes for the chosen fidelity."""
    return dict(QUICK_GRIDS if quick else FULL_GRIDS)


def setting_to_params(setting: PaperSetting) -> dict:
    """Flatten a setting into plain, JSON-able cell parameters.

    The sweep pipeline requires cells to be records of plain values (so
    they hash into cache keys and pickle into worker processes); this and
    :func:`setting_from_params` round-trip the Section V setting through
    that representation.
    """
    traffic = setting.traffic
    return {
        "traffic": (traffic.peak, traffic.p11, traffic.p22),
        "capacity": setting.capacity,
        "epsilon": setting.epsilon,
    }


def setting_from_params(
    traffic: tuple, capacity: float, epsilon: float
) -> PaperSetting:
    """Rebuild a :class:`PaperSetting` from flattened cell parameters."""
    peak, p11, p22 = traffic
    return PaperSetting(
        traffic=MMOOParameters(peak, p11, p22),
        capacity=capacity,
        epsilon=epsilon,
    )
