"""Generated-C MMOO sample-path sampler.

Once the simulator's slot kernels run in C, most of a validation run
goes to sampling the MMOO arrivals fed to every tandem.  This module
holds a C mirror of :func:`repro.arrivals.processes._phase_intervals`,
compiled on first use by the shared loader :mod:`repro.utils.ckernel`.
It follows the numpy body round for round and statement for statement:
the same first-round ``pairs``, the same ON-matrix-then-OFF-matrix draw
order, the same alive-compaction and the same ``p <= 0`` horizon pin.

Same stream by construction
---------------------------
Every sojourn comes from ``random_geometric`` in numpy's own static
library ``numpy/random/lib/libnpyrandom.a`` — the function behind
``Generator.geometric`` — called on the generator's ``bitgen_t`` while
``rng.bit_generator.lock`` is held (``ctypes`` releases the GIL).  No
distribution is reimplemented here, so the kernel consumes exactly the
draws the numpy body would and leaves the generator in the same state.
The archive is a link input of :data:`KERNEL`: its numpy version and
digest are part of the cache key.

Two modes
---------
* **aggregate** scatters ``+1``/``-1`` into the per-slot difference
  array as each ON interval is found; the caller does one ``cumsum``;
* **intervals** emits ``(flows, starts, ends)`` into caller-owned
  buffers, optionally filling the difference array in the same pass.
  Before each round the kernel checks that ``n_active * pairs`` entries
  fit; if not, it returns before drawing anything, and :func:`sample`
  grows the buffers and resumes from the kernel state (clock, active
  ids, round), which lives in caller arrays.

:func:`sample` returns ``None`` whenever the kernel is unavailable or
an input is outside its contract (see :func:`_eligible`); the caller
then runs the numpy body.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from repro import obs
from repro.utils.ckernel import CKernel, LinkInput

__all__ = ["KERNEL", "sample"]

_C_SOURCE = r"""
#include <stdint.h>
#include <stddef.h>

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy/random/distributions.h, from libnpyrandom.a */
extern int64_t random_geometric(bitgen_t *bitgen_state, double p);

/* mirror of processes._geometric: a zero-probability exit pins the
 * state for the whole horizon and draws nothing */
static int64_t sojourn(bitgen_t *bitgen, double p, int64_t horizon)
{
    return p <= 0.0 ? horizon + 1 : random_geometric(bitgen, p);
}

/* Mirror of processes._phase_intervals for both phase groups in turn:
 * ids[0:n_on] start ON, ids[n_on:n_flows] start OFF.  state holds
 * (group, n_active, pairs, written) and is saved on every return.
 * Each round first draws the whole ON matrix into ends[base:], then
 * the OFF matrix row by row; kept intervals overwrite the ON draws in
 * place (the write index never passes the read index).  Sums are
 * unsigned, i.e. wrap like numpy's int64 arithmetic.
 *
 * flows == NULL is aggregate mode (ends is scratch, base 0); otherwise
 * kept intervals are appended at state[3].  delta, when given, gets
 * +1 at each start and -1 at each clipped end.
 *
 * Returns 0 once every flow covered the horizon, 1 when the next
 * round's n_active * pairs entries do not fit in cap (nothing drawn). */
int64_t mmoo_sample(void *bitgen_ptr, double p12, double p21,
                    int64_t n_slots, int64_t first_pairs,
                    int64_t later_pairs, int64_t n_flows, int64_t n_on,
                    int64_t *ids, int64_t *clock, int64_t *state,
                    double *delta, int64_t *flows, int64_t *starts,
                    int64_t *ends, int64_t cap)
{
    bitgen_t *bitgen = (bitgen_t *)bitgen_ptr;
    int64_t group = state[0];
    int64_t n_active = state[1];
    int64_t pairs = state[2];
    int64_t written = state[3];
    for (; group < 2; group++) {
        int start_on = group == 0;
        int64_t *gid = start_on ? ids : ids + n_on;
        int64_t *gclock = start_on ? clock : clock + n_on;
        while (n_active > 0) {
            int64_t base = flows != NULL ? written : 0;
            int64_t n = n_active * pairs;
            if (n > cap - base) {
                state[0] = group;
                state[1] = n_active;
                state[2] = pairs;
                state[3] = written;
                return 1;
            }
            int64_t *on = ends + base;
            for (int64_t j = 0; j < n; j++)
                on[j] = sojourn(bitgen, p21, n_slots);
            int64_t w = base;
            int64_t alive = 0;
            for (int64_t i = 0; i < n_active; i++) {
                int64_t flow = gid[i];
                uint64_t t0 = (uint64_t)gclock[i];
                uint64_t cum_on = 0;
                uint64_t cum_off = 0;
                for (int64_t k = 0; k < pairs; k++) {
                    uint64_t on_k = (uint64_t)on[i * pairs + k];
                    uint64_t off_k = (uint64_t)sojourn(bitgen, p12, n_slots);
                    cum_on += on_k;
                    cum_off += off_k;
                    uint64_t end = t0 + cum_on + cum_off;
                    if (start_on)
                        end -= off_k;
                    int64_t start = (int64_t)(end - on_k);
                    if (start < n_slots) {
                        int64_t stop = (int64_t)end < n_slots
                            ? (int64_t)end : n_slots;
                        if (delta != NULL) {
                            delta[start] += 1.0;
                            delta[stop] -= 1.0;
                        }
                        if (flows != NULL) {
                            flows[w] = flow;
                            starts[w] = start;
                            ends[w] = stop;
                            w++;
                        }
                    }
                }
                /* each round is a whole number of ON/OFF pairs, so the
                 * phase is unchanged when the next round starts */
                int64_t t = (int64_t)(t0 + cum_on + cum_off);
                if (t < n_slots) {
                    gid[alive] = flow;
                    gclock[alive] = t;
                    alive++;
                }
            }
            n_active = alive;
            pairs = later_pairs;
            written = flows != NULL ? w : 0;
        }
        n_active = n_flows - n_on;
        pairs = first_pairs;
    }
    state[0] = group;
    state[1] = 0;
    state[2] = pairs;
    state[3] = written;
    return 0;
}
"""


def _report(available: bool) -> None:
    obs.set_gauge("simulation.sampler_available", available)


_as_long = ctypes.POINTER(ctypes.c_int64)
_as_double = ctypes.POINTER(ctypes.c_double)

#: numpy's distribution library, linked into the kernel.
ARCHIVE = LinkInput(
    os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a"),
    f"numpy {np.__version__}",
)

KERNEL = CKernel(
    "sampler",
    _C_SOURCE,
    {
        "mmoo_sample": (
            [
                ctypes.c_void_p, ctypes.c_double, ctypes.c_double,
                ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
                ctypes.c_int64, ctypes.c_int64, _as_long, _as_long,
                _as_long, _as_double, _as_long, _as_long, _as_long,
                ctypes.c_int64,
            ],
            ctypes.c_int64,
        ),
    },
    report=_report,
    link_inputs=(ARCHIVE,),
)

#: The smallest positive exit probability an ``MMOOParameters`` can
#: hold (``1 - p11`` for the largest double below 1), and a horizon
#: cap.  Within both, no sojourn sum of a round can wrap int64 (a
#: geometric draw is at most ~44.4 / p), so every index the kernel
#: writes is in range; anything else runs the numpy body.
_MIN_P = 2.0**-53
_MAX_SLOTS = 2**40


def _eligible(p: float) -> bool:
    return p <= 0.0 or _MIN_P <= p <= 1.0


Intervals = tuple[np.ndarray, np.ndarray, np.ndarray]


def _pointer(array: np.ndarray | None, kind: type) -> object:
    return None if array is None else array.ctypes.data_as(kind)


def sample(
    p12: float,
    p21: float,
    n_slots: int,
    state_on: np.ndarray,
    rng: np.random.Generator,
    first_pairs: int,
    later_pairs: int,
    *,
    intervals: bool,
    aggregate: bool,
    capacity: int | None = None,
) -> tuple[Intervals | None, np.ndarray | None] | None:
    """``((flows, starts, ends) | None, delta | None)`` from the kernel.

    ``state_on`` is every flow's slot-0 phase; ``delta`` is the
    ``n_slots + 1`` difference array (its first ``n_slots`` entries
    cumsum to the aggregate ON count).  ``capacity`` sets the first
    buffer size (default: one full first round), which tests shrink to
    force resumes.  ``None`` when the kernel is unavailable or the
    inputs are outside its contract.
    """
    if not (
        isinstance(rng, np.random.Generator)
        and _eligible(p12)
        and _eligible(p21)
        and n_slots <= _MAX_SLOTS
    ):
        return None
    lib = KERNEL.load()
    if lib is None:
        return None
    n_flows = len(state_on)
    flow_ids = np.arange(n_flows, dtype=np.int64)
    ids = np.concatenate([flow_ids[state_on], flow_ids[~state_on]])
    n_on = int(np.count_nonzero(state_on))
    clock = np.zeros(n_flows, dtype=np.int64)
    state = np.array([0, n_on, first_pairs, 0], dtype=np.int64)
    delta = np.zeros(n_slots + 1) if aggregate else None
    if capacity is None:
        capacity = n_flows * first_pairs
    # interval mode: (flows, starts, ends); aggregate mode: only the
    # ends buffer, as scratch for the ON draws
    buffers = [
        np.empty(capacity, dtype=np.int64) for _ in range(3 if intervals else 1)
    ]
    bit_generator = rng.bit_generator
    handle = bit_generator.ctypes.bit_generator
    while True:
        flows = buffers[0] if intervals else None
        starts = buffers[1] if intervals else None
        ends = buffers[-1]
        with bit_generator.lock:
            pending = lib.mmoo_sample(
                handle, p12, p21, n_slots, first_pairs, later_pairs,
                n_flows, n_on,
                _pointer(ids, _as_long),
                _pointer(clock, _as_long),
                _pointer(state, _as_long),
                _pointer(delta, _as_double),
                _pointer(flows, _as_long),
                _pointer(starts, _as_long),
                _pointer(ends, _as_long),
                len(ends),
            )
        if not pending:
            break
        # the next round needs n_active * pairs free entries
        written = int(state[3])
        grown = max(2 * len(ends), written + int(state[1] * state[2]))
        for k, buffer in enumerate(buffers):
            buffers[k] = np.empty(grown, dtype=np.int64)
            buffers[k][:written] = buffer[:written]
    if not intervals:
        return None, delta
    written = int(state[3])
    found = buffers[0][:written], buffers[1][:written], buffers[2][:written]
    return found, delta
