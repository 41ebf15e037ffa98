"""Generated-C slot kernels of the vectorized simulator.

Two sequential per-hop kernels of :mod:`repro.simulation.vectorized`
dominate a validation run once arrivals are sampled: the EDF link
service (a per-slot deadline-bucket sweep) and the entry/exit delay
merge.  This module holds C mirrors of both, compiled on first use by
the shared loader :mod:`repro.utils.ckernel`:

* ``serve_edf`` mirrors ``vectorized._serve_edf_python`` statement for
  statement — the same (first, second) flow relabeling, the same
  ``_MASS_EPS`` comparisons, the same head-pointer sweep; the full-drain
  slice clear is a zeroing loop over the same range;
* ``delays_between`` mirrors the numpy ``vectorized._delays_between_numpy``
  — the sequential ``cumsum``, numpy's ``searchsorted(side="right")``
  binary search with its previous-key hint and NaN-aware ordering, the
  scatter of exit marks, the run-start bookkeeping and the keep-filter.

Byte-identity contract
----------------------
Every returned array equals the Python/numpy body's byte for byte
(``tobytes()``): the C code performs the same IEEE-754 double
operations in the same order, under the loader's strict FP flags.  The
Python bodies stay as the fallback and the test oracle, and keep the
inputs the kernels decline: anything but non-empty 1-D ``float64``
arrays, negative or non-integer EDF deadlines, and merges whose exit
marks collide (where the numpy body raises, or broadcasts a one-point
entry curve).  :func:`serve_edf` and
:func:`delays_between` return ``None`` for those, and whenever the
kernel is unavailable.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro import obs
from repro.utils.ckernel import CKernel

__all__ = ["KERNEL", "delays_between", "serve_edf"]

_C_SOURCE = r"""
#include <stdlib.h>

/* mirror of vectorized._serve_edf_python after the (first, second)
 * relabeling; buckets arrive zeroed, horizon = n + max_off + 1 */
void serve_edf(long n, const double *f_in, const double *s_in,
               long f_off, long s_off, long max_off, double capacity,
               double eps, int record_backlog,
               double *f_bucket, double *s_bucket,
               double *f_dep, double *s_dep, double *backlog)
{
    long horizon = n + max_off + 1;
    long head = horizon;
    double f_q = 0.0;
    double s_q = 0.0;
    for (long t = 0; t < n; t++) {
        double a = f_in[t];
        double b = s_in[t];
        if (f_q + s_q <= eps && a + b <= capacity) {
            if (a > 0.0)
                f_dep[t] = a;
            if (b > 0.0)
                s_dep[t] = b;
            continue;
        }
        if (a > 0.0) {
            long tag = t + f_off;
            f_bucket[tag] += a;
            f_q += a;
            if (tag < head)
                head = tag;
        }
        if (b > 0.0) {
            long tag = t + s_off;
            s_bucket[tag] += b;
            s_q += b;
            if (tag < head)
                head = tag;
        }
        double total = f_q + s_q;
        if (total <= eps)
            continue;
        double budget = capacity;
        if (total <= budget) {
            f_dep[t] = f_q;
            s_dep[t] = s_q;
            long end = t + max_off + 1;
            for (long i = head; i < end; i++) {
                f_bucket[i] = 0.0;
                s_bucket[i] = 0.0;
            }
            f_q = s_q = 0.0;
            head = horizon;
            continue;
        }
        for (;;) {
            while (head < horizon && f_bucket[head] <= eps
                   && s_bucket[head] <= eps)
                head++;
            if (head >= horizon) {
                f_q = s_q = 0.0;
                break;
            }
            double served = f_bucket[head];
            if (served > 0.0) {
                if (served > budget) {
                    f_bucket[head] = served - budget;
                    f_dep[t] += budget;
                    f_q -= budget;
                    break;
                }
                f_bucket[head] = 0.0;
                f_dep[t] += served;
                f_q -= served;
                budget -= served;
                if (budget <= eps)
                    break;
            }
            served = s_bucket[head];
            if (served > 0.0) {
                if (served > budget) {
                    s_bucket[head] = served - budget;
                    s_dep[t] += budget;
                    s_q -= budget;
                    break;
                }
                s_bucket[head] = 0.0;
                s_dep[t] += served;
                s_q -= served;
                budget -= served;
                if (budget <= eps)
                    break;
            }
        }
        if (record_backlog)
            backlog[t] = (f_q > 0.0 ? f_q : 0.0) + (s_q > 0.0 ? s_q : 0.0);
    }
}

/* numpy's float ordering in sorting and searching: NaN after everything */
static int npy_less(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* mirror of np.cumsum: out[0] = in[0], then a sequential add */
static void cumsum(long n, const double *in, double *out)
{
    out[0] = in[0];
    for (long i = 1; i < n; i++)
        out[i] = out[i - 1] + in[i];
}

/* mirror of np.searchsorted(arr, keys, side="right"), including the
 * hint that keeps min_idx from the previous key when keys ascend */
static void searchsorted_right(long n, const double *arr, long nk,
                               const double *keys, long *out)
{
    long min_idx = 0;
    long max_idx = n;
    double last = keys[0];
    for (long j = 0; j < nk; j++) {
        double key = keys[j];
        if (!npy_less(key, last)) {
            max_idx = n;
        } else {
            min_idx = 0;
            max_idx = max_idx < n ? max_idx + 1 : n;
        }
        last = key;
        while (min_idx < max_idx) {
            long mid = min_idx + ((max_idx - min_idx) >> 1);
            if (!npy_less(key, arr[mid]))
                min_idx = mid + 1;
            else
                max_idx = mid;
        }
        out[j] = min_idx;
    }
}

/* mirror of vectorized._delays_between_numpy; returns the number of kept
 * segments, -1 when exit marks collide (the numpy body decides), -2 when
 * scratch memory is unavailable */
long delays_between(long n_entry, const double *entry, long n_exit,
                    const double *exit_, double eps,
                    long *out_delay, double *out_weight)
{
    long m = n_entry + n_exit;
    double *entry_cum = malloc(sizeof(double) * n_entry);
    double *exit_cum = malloc(sizeof(double) * n_exit);
    double *marks = malloc(sizeof(double) * m);
    long *pos = malloc(sizeof(long) * n_exit);
    char *is_exit = calloc(m, 1);
    long kept = -2;
    if (!entry_cum || !exit_cum || !marks || !pos || !is_exit)
        goto done;

    cumsum(n_entry, entry, entry_cum);
    cumsum(n_exit, exit_, exit_cum);
    /* Python min(a, b): a unless b < a */
    double last_entry = entry_cum[n_entry - 1];
    double last_exit = exit_cum[n_exit - 1];
    double total = last_exit < last_entry ? last_exit : last_entry;

    searchsorted_right(n_entry, entry_cum, n_exit, exit_cum, pos);
    long placed = 0;
    for (long j = 0; j < n_exit; j++) {
        long p = pos[j] + j;
        if (!is_exit[p])
            placed++;
        is_exit[p] = 1;
        marks[p] = exit_cum[j];
    }
    if (placed != n_exit) {
        kept = -1;
        goto done;
    }
    for (long k = 0, i = 0; k < m; k++)
        if (!is_exit[k])
            marks[k] = entry_cum[i++];

    double limit = total + eps;
    long exit_below = 0;
    long entered = 0;
    long exited = 0;
    kept = 0;
    for (long k = 0; k < m; k++) {
        if (k > 0 && marks[k] > marks[k - 1]) {
            /* a run starts at k: counts among marks[0..k-1] */
            entered = k - exit_below;
            exited = exit_below;
            if (entered > n_entry - 1)
                entered = n_entry - 1;
            if (exited > n_exit - 1)
                exited = n_exit - 1;
        }
        exit_below += is_exit[k];
        double weight = marks[k] - (k > 0 ? marks[k - 1] : 0.0);
        if (weight > eps && marks[k] > eps && marks[k] <= limit) {
            long delay = exited - entered;
            out_delay[kept] = delay > 0 ? delay : 0;
            out_weight[kept] = weight;
            kept++;
        }
    }

done:
    free(entry_cum);
    free(exit_cum);
    free(marks);
    free(pos);
    free(is_exit);
    return kept;
}
"""


def _report(available: bool) -> None:
    obs.set_gauge("simulation.kernel_available", available)


_as_double = ctypes.POINTER(ctypes.c_double)
_as_long = ctypes.POINTER(ctypes.c_long)

KERNEL = CKernel(
    "simulation",
    _C_SOURCE,
    {
        "serve_edf": (
            [
                ctypes.c_long, _as_double, _as_double, ctypes.c_long,
                ctypes.c_long, ctypes.c_long, ctypes.c_double,
                ctypes.c_double, ctypes.c_int, _as_double, _as_double,
                _as_double, _as_double, _as_double,
            ],
            None,
        ),
        "delays_between": (
            [
                ctypes.c_long, _as_double, ctypes.c_long, _as_double,
                ctypes.c_double, _as_long, _as_double,
            ],
            ctypes.c_long,
        ),
    },
    report=_report,
)


def _vector(array: object) -> bool:
    return (
        isinstance(array, np.ndarray)
        and array.ndim == 1
        and array.dtype == np.float64
        and len(array) > 0
    )


def serve_edf(
    through: np.ndarray,
    cross: np.ndarray,
    capacity: float,
    deadline_through: int,
    deadline_cross: int,
    record_backlog: bool,
    eps: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``(through_dep, cross_dep, backlog)`` from the C kernel, or ``None``.

    ``None`` when the kernel is unavailable or the inputs are outside
    its contract (see the module docstring); the caller then runs the
    Python body.
    """
    if not (
        _vector(through)
        and _vector(cross)
        and len(through) == len(cross)
        and isinstance(deadline_through, int)
        and isinstance(deadline_cross, int)
        and deadline_through >= 0
        and deadline_cross >= 0
    ):
        return None
    lib = KERNEL.load()
    if lib is None:
        return None
    n = len(through)
    max_off = max(deadline_through, deadline_cross)
    through = np.ascontiguousarray(through)
    cross = np.ascontiguousarray(cross)
    through_dep = np.zeros(n)
    cross_dep = np.zeros(n)
    backlog = np.zeros(n)
    buckets = np.zeros((2, n + max_off + 1))
    # within a tag, the flow with the larger offset (cross on ties) is
    # served first: relabel the pair as (first, second) for the kernel
    if deadline_cross >= deadline_through:
        first = (cross, deadline_cross, cross_dep)
        second = (through, deadline_through, through_dep)
    else:
        first = (through, deadline_through, through_dep)
        second = (cross, deadline_cross, cross_dep)
    lib.serve_edf(
        n,
        first[0].ctypes.data_as(_as_double),
        second[0].ctypes.data_as(_as_double),
        first[1],
        second[1],
        max_off,
        capacity,
        eps,
        int(bool(record_backlog)),
        buckets[0].ctypes.data_as(_as_double),
        buckets[1].ctypes.data_as(_as_double),
        first[2].ctypes.data_as(_as_double),
        second[2].ctypes.data_as(_as_double),
        backlog.ctypes.data_as(_as_double),
    )
    return through_dep, cross_dep, backlog


def delays_between(
    entry: np.ndarray, exit: np.ndarray, eps: float
) -> tuple[np.ndarray, np.ndarray] | None:
    """``(delays, weights)`` from the C kernel, or ``None``.

    ``None`` when the kernel is unavailable, the inputs are outside its
    contract, or exit marks collide in the merge; the caller then runs
    the numpy body, which computes (or raises) the same way it always
    has.
    """
    if not (_vector(entry) and _vector(exit)):
        return None
    lib = KERNEL.load()
    if lib is None:
        return None
    entry = np.ascontiguousarray(entry)
    exit = np.ascontiguousarray(exit)
    m = len(entry) + len(exit)
    delays = np.empty(m, dtype=np.int64)
    weights = np.empty(m)
    kept = lib.delays_between(
        len(entry),
        entry.ctypes.data_as(_as_double),
        len(exit),
        exit.ctypes.data_as(_as_double),
        eps,
        delays.ctypes.data_as(_as_long),
        weights.ctypes.data_as(_as_double),
    )
    if kept < 0:
        return None
    return delays[:kept].copy(), weights[:kept].copy()
