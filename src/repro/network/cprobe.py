"""Generated-C mirrors of the bound solver's hot scalar and per-lane loops.

The batched sweep execution of :mod:`repro.network.lanes` evaluates the
same scalar objective as :func:`repro.network.vectorized._e2e_probe`,
but tens of thousands of times per cell group — every golden-section
refinement step of every (lane, s) search chain.  At that volume the
Python interpreter is the bottleneck, not the math.  This module emits a
small C translation unit that mirrors the probe's floating-point
expression trees *operation for operation* — the Eq. (33) sigma chain,
the FIFO/BMUX closed forms (Eqs. 43-44), and the Eq. (38) slope sweep
of :func:`repro.network.optimization.solve_exact` with its near-minimum
re-evaluation window — and compiles it on first use with the system C
compiler.  The same unit holds three more mirrors:

* :func:`grid_rows` — the per-point work of
  :func:`repro.network.vectorized.e2e_delay_grid_rows` (the γ grid row
  of every (lane, s) search): the Eq. (32) feasibility mask, the probe's
  own sigma (NaN or ``+inf`` marks a dead point, a live one is clamped
  like the probe's), and the probe's BMUX/FIFO closed forms, or for an
  Eq. (38) row the sigma and hop rates the exact solve takes;
* :func:`solve_exact` — the lanes of
  :func:`repro.network.vectorized.batched_solve_exact` (the Eq. (38)
  exact solve on every γ grid row of an EDF/SP cell): the same slope
  sweep once per lane, the thetas at its argmin with numpy's
  ``np.maximum`` NaN propagation and ±0 choice, and the numpy body's
  saturation mask.  That numpy body, a breakpoint enumeration, is its
  fallback and oracle: same delay bytes on every lane, same ``x`` and
  thetas on every lane the mask keeps;
* :func:`additive_golden` — the golden-section refinement of the
  node-by-node additive bound
  (:func:`repro.network.vectorized.optimize_gamma_additive`) over
  :func:`repro.network.vectorized._additive_probe`.

Bitwise contract
----------------
The C kernel computes the identical IEEE-754 double sequence as the
Python and numpy bodies: same operations in the same association
order, libm ``expm1``/``log``/``exp`` (the same functions CPython's
``math`` module calls in-process; the γ grid's Python body therefore
uses ``math`` too, not numpy, whose vectorized ``log``/``exp``/``expm1``
differ from libm in the last bits), and strict FP semantics
(``-fno-fast-math -ffp-contract=off``, no reassociation, no FMA
contraction).  Where the additive probe would raise in Python (a
division by zero, ``math.log`` of a non-positive number, an overflowing
``math.exp``), :func:`additive_golden` hands the request back to
Python, which then raises the same exception.  The test suite pins
value equality against ``_e2e_probe`` over randomized parameters in
every ``Delta`` case, and byte equality of :func:`grid_rows`,
:func:`solve_exact` and :func:`additive_golden` against their oracles.

Availability
------------
Compilation needs a C compiler (``cc``) on ``PATH``; the shared loader
:mod:`repro.utils.ckernel` compiles :data:`KERNEL` on first use (never
at import), caches the object by source hash under
``$REPRO_CPROBE_DIR`` (else a private per-user temp directory) and sets
the ``cprobe.available`` gauge while :mod:`repro.obs` is enabled.  When
compilation is impossible, :func:`available` is ``False`` and every
entry point transparently runs its Python (or numpy) body instead —
identical results, just slower.  So do paths longer than
:data:`MAX_HOPS`.  While :mod:`repro.obs` is enabled, every request
served that way adds one to the ``cprobe.fallbacks`` counter (a probe,
a refinement, a γ grid row, or a lane of the exact solve).

Call cost
---------
The lane engine makes a few of these calls per round, most of them
small, so a call should cost what its C work costs.  A
:class:`ProbeTable` owns the request and result buffers of
:func:`probe_values` and :func:`golden_values`, with their addresses
cached, and both C functions return how many requests they could not
serve, so their wrappers scan for NaN only when there are some;
:func:`grid_rows` keeps its inputs and outputs in one block, converted
to a pointer once; :func:`solve_exact` reads a per-lane value as a
``(lanes, 1)`` column through a zero hop stride, never widened.
"""

from __future__ import annotations

import ctypes
from typing import Sequence

import numpy as np

from repro import obs
from repro.arrivals.ebb import EBB
from repro.network.optimization import _EPS
from repro.utils.ckernel import CKernel
from repro.utils.numeric import EXP_OVERFLOW, golden_section_min

__all__ = [
    "available",
    "ProbeTable",
    "probe_values",
    "golden_values",
    "additive_golden",
    "solve_exact",
    "grid_rows",
    "CTX_FIELDS",
]

#: Per-context field layout of the C kernel's context table (one row per
#: registered (lane, s) search context).
CTX_FIELDS = (
    "through_prefactor",
    "through_decay",
    "through_rate",
    "cross_prefactor",
    "cross_decay",
    "cross_rate",
    "hops",
    "capacity",
    "delta",
    "epsilon",
)
_NFIELDS = len(CTX_FIELDS)

#: Paths longer than this fall back to the Python/numpy bodies (the C
#: kernel uses fixed-size stack buffers).
MAX_HOPS = 1024

#: Tolerance and iteration cap of every golden-section refinement run
#: here (:func:`golden_values`, :func:`additive_golden`): the defaults
#: of :func:`~repro.utils.numeric.golden_section_min`.
GOLDEN_TOL = 1e-9
GOLDEN_MAX_ITER = 200

_C_SOURCE = r"""
#include <math.h>
#include <string.h>

#define TPRE 0
#define TDEC 1
#define TRATE 2
#define CPRE 3
#define CDEC 4
#define CRATE 5
#define HOPS 6
#define CAP 7
#define DELTA 8
#define EPS 9
#define NF 10

#define MAX_HOPS 1024
#define SWEEP_WINDOW 1e-9

/* mirror of vectorized._sigma_raw: sigma before the clamp at zero
 * (inf on underflow); the probe and the grid each clamp it their way.
 * Inverted as log(M / eps) / alpha, so it is within 1e-15 relative of
 * e2e.sigma_for_epsilon's (log M - log eps) / alpha, not bitwise */
static double sigma_raw(const double *c, int hops, double gamma)
{
    double geo_t = -expm1(-c[TDEC] * gamma);
    double geo_c = -expm1(-c[CDEC] * gamma);
    if (!(geo_t > 0.0) || !(geo_c > 0.0))
        return INFINITY;
    double w = 1.0 / c[TDEC];
    for (int i = 0; i < hops; i++)
        w += 1.0 / c[CDEC];
    double log_m = log(w);
    log_m += log((c[TPRE] / geo_t) * c[TDEC]) / (c[TDEC] * w);
    double last = c[CPRE] / geo_c;
    double inflated = last / geo_c;
    double term_inflated = log(inflated * c[CDEC]) / (c[CDEC] * w);
    for (int i = 0; i < hops - 1; i++)
        log_m += term_inflated;
    log_m += log(last * c[CDEC]) / (c[CDEC] * w);
    double prefactor = exp(log_m);
    double alpha = 1.0 / w;
    return log(prefactor / c[EPS]) / alpha;
}

/* mirror of optimization.fifo_delay (Eq. 44) past its argument checks,
 * on the paths the probe admits, which Eq. (32) keeps unsaturated */
static double fifo_closed_form(int hops, double capacity, double rho_cross,
                               double gamma, double sigma)
{
    double r = rho_cross + gamma;
    double tails[MAX_HOPS + 1];
    tails[hops] = 0.0;
    for (int k = hops - 1; k >= 0; k--) {
        double r_svc = capacity - k * gamma;
        tails[k] = tails[k + 1] + (r_svc - r) / r_svc;
    }
    int k = hops;
    for (int kk = 0; kk <= hops; kk++) {
        if (tails[kk] < 1.0) { k = kk; break; }
    }
    if (k == 0) {
        double total = 0.0;
        for (int h = 1; h <= hops; h++)
            total += sigma / (capacity - (h - 1) * gamma);
        return total;
    }
    double denom = capacity - rho_cross - k * gamma;
    if (denom <= 0.0)
        return INFINITY;
    double x = sigma / denom;
    double total = x;
    for (int h = k + 1; h <= hops; h++)
        total += (h - k) * gamma * x / (capacity - (h - 1) * gamma);
    return total;
}

/* numpy's np.maximum(a, b): a when a is NaN or a > b, else b -- so a NaN
 * operand propagates, and of two equal zeros the second one wins */
static inline double np_maximum(double a, double b)
{
    return (isnan(a) || a > b) ? a : b;
}

/* the Eq. (38) cases of vectorized._delta_case */
#define CASE_NINF 0
#define CASE_PINF 1
#define CASE_LE0 2
#define CASE_MID 3

static long delta_case(double delta)
{
    if (isinf(delta))
        return delta > 0.0 ? CASE_PINF : CASE_NINF;
    return delta <= 0.0 ? CASE_LE0 : CASE_MID;
}

/* optimization.theta_for_x at one (hop, x) of a known case, with numpy's
 * np.maximum as in vectorized._theta_case_kernel, so the thetas of
 * solve_exact are the numpy body's bytes.  Python's max() differs only
 * on a -0.0, which adds to a +0.0 sum as +0.0, and on NaN, which no
 * lane the saturation mask keeps produces: the sums in sweep_solve are
 * the Python sweep's doubles */
static inline double theta_case(long kind, double r_svc, double r_cross,
                                double delta, double sigma, double x)
{
    if (kind == CASE_NINF)
        return np_maximum(0.0, sigma / r_svc - x);
    if (kind == CASE_PINF)
        return np_maximum(0.0, sigma / (r_svc - r_cross) - x);
    if (kind == CASE_LE0) {
        double clipped = np_maximum(0.0, x + delta);
        return np_maximum(0.0, (sigma + r_cross * clipped) / r_svc - x);
    }
    double denom = r_svc - r_cross;
    double theta_low = (sigma - denom * x) / denom;
    if (theta_low <= delta)
        return np_maximum(0.0, theta_low);
    return np_maximum((sigma + r_cross * (x + delta)) / r_svc - x, delta);
}

/* Python's tuple order on (x, change) events: by x, ties by change */
static inline int event_before(const double *a, const double *b)
{
    return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1]);
}

/* events.sort() on n (x, change) pairs: insertion-sorted runs of
 * SORT_RUN events, then a stable bottom-up merge through the scratch
 * buffer tmp, O(n log n).  Most probes have fewer events than a run,
 * and on those the insertion sort alone beats any merge */
#define SORT_RUN 16
static void sort_events(double *ev, double *tmp, int n)
{
    for (int lo = 0; lo < n; lo += SORT_RUN) {
        int hi = lo + SORT_RUN < n ? lo + SORT_RUN : n;
        for (int i = lo + 1; i < hi; i++) {
            double key[2] = { ev[2 * i], ev[2 * i + 1] };
            int j = i - 1;
            while (j >= lo && event_before(key, ev + 2 * j)) {
                ev[2 * j + 2] = ev[2 * j];
                ev[2 * j + 3] = ev[2 * j + 1];
                j--;
            }
            ev[2 * j + 2] = key[0];
            ev[2 * j + 3] = key[1];
        }
    }
    double *src = ev, *dst = tmp;
    for (int width = SORT_RUN; width < n; width *= 2) {
        for (int lo = 0; lo < n; lo += 2 * width) {
            int mid = lo + width < n ? lo + width : n;
            int hi = lo + 2 * width < n ? lo + 2 * width : n;
            int i = lo, j = mid;
            for (int k = lo; k < hi; k++) {
                const double *pick;
                if (j >= hi || (i < mid && !event_before(src + 2 * j,
                                                         src + 2 * i)))
                    pick = src + 2 * i++;
                else
                    pick = src + 2 * j++;
                dst[2 * k] = pick[0];
                dst[2 * k + 1] = pick[1];
            }
        }
        double *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != ev)
        memcpy(ev, src, 2 * (size_t)n * sizeof(double));
}

/* mirror of optimization._sweep_solve on the hops of one known case: hop
 * h is (rs[h * rs_h], rc[h * rc_h], dl[h * d_h]), strides in doubles.
 * Returns the delay and stores its x in *x_best; a saturated hop gives
 * (inf, 0.0) */
static double sweep_solve(long kind, long hops, const double *rs, long rs_h,
                          const double *rc, long rc_h, const double *dl,
                          long d_h, double sigma, double *x_best)
{
    /* at most three (x, change) events per hop */
    double ev[6 * MAX_HOPS];
    double tmp[6 * MAX_HOPS];
    int n = 0;
    double d0 = 0.0;
    double slope = 1.0;
    *x_best = 0.0;
#define EVENT(x_, change_)                                             \
    do {                                                               \
        ev[2 * n] = (x_);                                              \
        ev[2 * n + 1] = (change_);                                     \
        n++;                                                           \
    } while (0)
    for (long h = 0; h < hops; h++) {
        double r_svc = rs[h * rs_h];
        double r_cross = rc[h * rc_h];
        double delta = dl[h * d_h];
        if (kind == CASE_NINF) {
            double k1 = sigma / r_svc;
            if (k1 > 0.0) {
                d0 += k1;
                slope -= 1.0;
                EVENT(k1, 1.0);
            }
        } else if (kind == CASE_PINF) {
            double denom = r_svc - r_cross;
            if (denom <= 0.0)
                return INFINITY;
            double k1 = sigma / denom;
            if (k1 > 0.0) {
                d0 += k1;
                slope -= 1.0;
                EVENT(k1, 1.0);
            }
        } else if (kind == CASE_LE0) {
            double a = -delta;
            double k1 = sigma / r_svc;
            double denom = r_svc - r_cross;
            if (k1 <= 0.0)
                continue;
            if (k1 < a) {
                d0 += k1;
                slope -= 1.0;
                EVENT(k1, 1.0);
                EVENT(a, 0.0);
                if (denom > 0.0) {
                    double k2 = (sigma + r_cross * delta) / denom;
                    if (k2 > 0.0 && isfinite(k2))
                        EVENT(k2, 0.0);
                }
            } else {
                if (denom <= 0.0)
                    return INFINITY;
                double ratio = r_cross / r_svc;
                double k2 = (sigma + r_cross * delta) / denom;
                d0 += k1;
                if (a > 0.0) {
                    slope -= 1.0;
                    EVENT(a, ratio);
                    EVENT(k2, 1.0 - ratio);
                } else {
                    slope += ratio - 1.0;
                    if (k2 > 0.0)
                        EVENT(k2, 1.0 - ratio);
                }
                EVENT(k1, 0.0);
            }
        } else {
            double denom = r_svc - r_cross;
            if (denom <= 0.0)
                return INFINITY;
            double z = sigma / denom;
            if (z <= 0.0)
                continue;
            double ratio = r_cross / r_svc;
            double bp = z - delta;
            double aux = (sigma + r_cross * (0.0 + delta)) / r_svc;
            if (bp <= 0.0) {
                d0 += z;
                slope -= 1.0;
                EVENT(z, 1.0);
            } else {
                d0 += (sigma + r_cross * delta) / r_svc;
                slope += ratio - 1.0;
                EVENT(bp, -ratio);
                EVENT(z, 1.0);
            }
            if (aux > 0.0 && isfinite(aux))
                EVENT(aux, 0.0);
        }
    }
#undef EVENT
    sort_events(ev, tmp, n);

    /* candidate 0 is (0.0, d0), candidate i + 1 is event i, whose change
     * slot takes the accumulated d once the sweep has read it */
    double acc = d0;
    double acc_min = d0;
    double cur = slope;
    double prev = 0.0;
    for (int i = 0; i < n; i++) {
        double x = ev[2 * i];
        double change = ev[2 * i + 1];
        acc += cur * (x - prev);
        prev = x;
        ev[2 * i + 1] = acc;
        if (acc < acc_min)
            acc_min = acc;
        cur += change;
    }

    /* Python max(1.0, abs(m)): 1.0 unless abs(m) > 1.0 (incl. NaN) */
    double am = fabs(acc_min);
    double window = acc_min + SWEEP_WINDOW * (am > 1.0 ? am : 1.0);
    double best_d = INFINITY;
    for (int i = -1; i < n; i++) {
        double x = i < 0 ? 0.0 : ev[2 * i];
        if ((i < 0 ? d0 : ev[2 * i + 1]) <= window) {
            double total = 0.0;
            for (long h = 0; h < hops; h++)
                total += theta_case(kind, rs[h * rs_h], rc[h * rc_h],
                                    dl[h * d_h], sigma, x);
            double d = x + total;
            if (d < best_d) {
                best_d = d;
                *x_best = x;
            }
        }
    }
    return best_d;
}

/* mirror of vectorized._e2e_probe */
static double probe_one(const double *c, double gamma)
{
    int hops = (int)c[HOPS];
    if (hops < 1 || hops > MAX_HOPS)
        return NAN;
    if ((hops + 1) * gamma >= c[CAP] - c[CRATE] - c[TRATE])
        return INFINITY;
    double sigma = sigma_raw(c, hops, gamma);
    /* Python max(0.0, v): returns 0.0 unless v > 0.0 (incl. v = NaN) */
    sigma = sigma > 0.0 ? sigma : 0.0;
    if (!isfinite(sigma))
        return INFINITY;
    double delta = c[DELTA];
    if (delta == INFINITY) {
        double denom = (c[CAP] - (hops - 1) * gamma) - (c[CRATE] + gamma);
        return denom > 0.0 ? sigma / denom : INFINITY;
    }
    if (delta == 0.0)
        return fifo_closed_form(hops, c[CAP], c[CRATE], gamma, sigma);
    double r = c[CRATE] + gamma;
    double rs[MAX_HOPS];
    for (int k = 0; k < hops; k++)
        rs[k] = c[CAP] - k * gamma;
    double x;
    return sweep_solve(delta_case(delta), hops, rs, 1, &r, 0, &delta, 0,
                       sigma, &x);
}

/* returns how many requests came out NaN (paths beyond MAX_HOPS), so
 * the wrapper scans for them only when there are some */
long probe_values(long n, const double *ctx, const long *idx,
                  const double *gammas, double *out)
{
    long n_nan = 0;
    for (long i = 0; i < n; i++) {
        out[i] = probe_one(ctx + NF * idx[i], gammas[i]);
        n_nan += isnan(out[i]) != 0;
    }
    return n_nan;
}

/* the grid forms of vectorized.e2e_delay_grid_rows */
#define FORM_BMUX 0
#define FORM_FIFO 1
#define FORM_EXACT 2

/* mirror of vectorized._grid_rows_python: one gamma row per context,
 * gammas and out (lanes, grid).  A point is dead (inf) when Eq. (32)
 * fails or sigma_raw is NaN or +inf; a live one clamps sigma like the
 * probe and takes the BMUX (Eq. 43) or FIFO (Eq. 44) form.  FORM_EXACT
 * stores the sigma itself (inf when dead) plus the Eq. (38) rates r_svc
 * (lanes * grid, hops) and r_cross (lanes * grid) for the exact solve.
 * Returns -1 for a hop count the stack buffers cannot hold. */
long grid_rows(long lanes, long grid, long form, const double *ctx,
               const double *gammas, double *out, double *r_svc,
               double *r_cross)
{
    for (long l = 0; l < lanes; l++) {
        const double *c = ctx + NF * l;
        int hops = (int)c[HOPS];
        if (hops < 1 || hops > MAX_HOPS)
            return -1;
        double headroom = c[CAP] - c[CRATE] - c[TRATE];
        for (long p = l * grid; p < (l + 1) * grid; p++) {
            double gamma = gammas[p];
            double sigma = INFINITY;
            if ((hops + 1) * gamma < headroom) {
                double v = sigma_raw(c, hops, gamma);
                if (!isnan(v) && v != INFINITY)
                    sigma = v > 0.0 ? v : 0.0;
            }
            if (form == FORM_EXACT) {
                out[p] = sigma;
                for (int k = 0; k < hops; k++)
                    r_svc[p * hops + k] = c[CAP] - k * gamma;
                r_cross[p] = c[CRATE] + gamma;
            } else if (sigma == INFINITY) {
                out[p] = INFINITY;
            } else if (form == FORM_BMUX) {
                double denom = (c[CAP] - (hops - 1) * gamma)
                               - (c[CRATE] + gamma);
                out[p] = denom > 0.0 ? sigma / denom : INFINITY;
            } else {
                out[p] = fifo_closed_form(hops, c[CAP], c[CRATE], gamma,
                                          sigma);
            }
        }
    }
    return 0;
}

/* (sqrt(5) - 1) / 2, same double as Python's _GOLDEN (IEEE sqrt is
 * correctly rounded, the rest is exact arithmetic) */
#define GOLDEN ((sqrt(5.0) - 1.0) / 2.0)

/* a golden-section objective; sets *err where its Python twin raises
 * (or cannot be mirrored), which sends the request back to Python */
typedef double (*objective)(const void *arg, double x, int *err);

/* mirror of numeric.golden_section_min, its iteration count in
 * *iterations; nonzero means "recompute in Python" (that run raises, or
 * serves a path beyond MAX_HOPS) */
static int golden_min(objective f, const void *arg, double lo, double hi,
                      double tol, long max_iter, double *out,
                      long *iterations)
{
    int err = 0;
    if (hi < lo)
        return 1;
    double a = lo, b = hi;
    double x1 = b - GOLDEN * (b - a);
    double x2 = a + GOLDEN * (b - a);
    double f1 = f(arg, x1, &err);
    double f2 = f(arg, x2, &err);
    long i;
    for (i = 0; i < max_iter && !err; i++) {
        /* Python max(1.0, abs(a) + abs(b)) */
        double span = fabs(a) + fabs(b);
        double scale = span > 1.0 ? span : 1.0;
        if (b - a <= tol * scale)
            break;
        if (f1 <= f2) {
            b = x2; x2 = x1; f2 = f1;
            x1 = b - GOLDEN * (b - a);
            f1 = f(arg, x1, &err);
        } else {
            a = x1; x1 = x2; f1 = f2;
            x2 = a + GOLDEN * (b - a);
            f2 = f(arg, x2, &err);
        }
    }
    if (err)
        return 1;
    *iterations = i;
    if (f1 <= f2) {
        out[0] = x1;
        out[1] = f1;
    } else {
        out[0] = x2;
        out[1] = f2;
    }
    return 0;
}

/* probe_one as an objective: NaN only beyond MAX_HOPS */
static double e2e_objective(const void *arg, double gamma, int *err)
{
    double v = probe_one((const double *)arg, gamma);
    if (isnan(v))
        *err = 1;
    return v;
}

/* returns how many requests were handed back to Python (NaN pairs) */
long golden_values(long n, const double *ctx, const long *idx,
                   const double *los, const double *his,
                   double tol, long max_iter,
                   double *out_x, double *out_f)
{
    long n_back = 0;
    for (long i = 0; i < n; i++) {
        double pair[2];
        long iterations;
        if (golden_min(e2e_objective, ctx + NF * idx[i], los[i], his[i],
                       tol, max_iter, pair, &iterations)) {
            pair[0] = NAN;
            pair[1] = NAN;
            n_back++;
        }
        out_x[i] = pair[0];
        out_f[i] = pair[1];
    }
    return n_back;
}

/* CPython's float division, math.log, math.expm1 and numeric.safe_exp:
 * same value, and *err where Python raises (ZeroDivisionError,
 * ValueError, OverflowError) */
static double py_div(double a, double b, int *err)
{
    if (b == 0.0)
        *err = 1;
    return a / b;
}

static double py_log(double x, int *err)
{
    if (x <= 0.0)
        *err = 1;
    return log(x);
}

static double py_expm1(double x, int *err)
{
    double r = expm1(x);
    if (isinf(r) && isfinite(x))
        *err = 1;
    return r;
}

static double py_safe_exp(double x, double knee, int *err)
{
    if (x > knee)
        return INFINITY;
    double r = exp(x);
    if (isinf(r) && isfinite(x))
        *err = 1;
    return r;
}

/* one additive refinement: a context row (its DELTA slot unused) and
 * numeric.EXP_OVERFLOW, passed in so the knee is Python's own double */
struct additive_arg {
    const double *c;
    double knee;
};

/* mirror of vectorized._additive_probe */
static double additive_objective(const void *arg, double gamma, int *err)
{
    const double *c = ((const struct additive_arg *)arg)->c;
    double knee = ((const struct additive_arg *)arg)->knee;
    int hops = (int)c[HOPS];
    double service_rate = c[CAP] - c[CRATE] - gamma;
    if (service_rate <= 0.0)
        return INFINITY;
    /* Python min(through.decay, cross.decay) */
    double decay_min = c[CDEC] < c[TDEC] ? c[CDEC] : c[TDEC];
    if (decay_min * gamma < 1e-15)
        return INFINITY;
    double geo_c = -py_expm1(-c[CDEC] * gamma, err);
    double cross_m = py_div(c[CPRE], geo_c, err);

    double node_m[MAX_HOPS];
    double node_a[MAX_HOPS];
    double prefactor = c[TPRE], decay = c[TDEC], rate = c[TRATE];
    for (int k = 0; k < hops; k++) {
        if (rate + gamma > service_rate)
            return INFINITY;
        double geo_t = -py_expm1(-decay * gamma, err);
        double through_m = py_div(prefactor, geo_t, err);
        double w = py_div(1.0, decay, err) + py_div(1.0, c[CDEC], err);
        double log_m = py_log(w, err);
        log_m += py_div(py_log(through_m * decay, err), decay * w, err);
        log_m += py_div(py_log(cross_m * c[CDEC], err), c[CDEC] * w, err);
        node_m[k] = py_safe_exp(log_m, knee, err);
        node_a[k] = py_div(1.0, w, err);
        /* Python max(1.0, node_m) */
        prefactor = node_m[k] > 1.0 ? node_m[k] : 1.0;
        decay = node_a[k];
        rate += gamma;
    }

    double comb_m, comb_a;
    if (hops == 1) {
        comb_m = node_m[0];
        comb_a = node_a[0];
    } else {
        double w = 0.0;
        for (int k = 0; k < hops; k++)
            w += py_div(1.0, node_a[k], err);
        double log_m = py_log(w, err);
        for (int k = 0; k < hops; k++)
            log_m += py_div(py_log(node_m[k] * node_a[k], err),
                            node_a[k] * w, err);
        comb_m = py_safe_exp(log_m, knee, err);
        comb_a = py_div(1.0, w, err);
    }
    double v = py_div(py_log(py_div(comb_m, c[EPS], err), err), comb_a, err);
    /* Python max(0.0, v) */
    double sigma_total = v > 0.0 ? v : 0.0;
    return py_div(sigma_total, service_rate, err);
}

/* golden_section_min over _additive_probe for one context, its
 * iteration count in *iterations; nonzero means "recompute in Python" */
long additive_golden(const double *ctx, double lo, double hi, double tol,
                     long max_iter, double knee, double *out,
                     long *iterations)
{
    int hops = (int)ctx[HOPS];
    if (hops < 1 || hops > MAX_HOPS)
        return 1;
    struct additive_arg arg = { ctx, knee };
    return golden_min(additive_objective, &arg, lo, hi, tol, max_iter, out,
                      iterations);
}

/* the lanes of vectorized.batched_solve_exact for one known case: the
 * sweep of optimization.solve_exact per lane, the thetas at its x, and
 * the numpy body's mask (a saturated hop, a negative or NaN cross rate,
 * a negative or non-finite sigma: delay inf).  Inputs are read
 * through strides in doubles, 0 on a broadcast axis (a (lanes, 1)
 * column has hop stride 0): r_svc, r_cross, delta (lane, hop) and
 * sigma (lane).  out is (lanes, hops +
 * 2): delay, x, then the thetas.  Returns the number of masked lanes, or
 * -1 for a hop count the stack buffers cannot hold. */
long solve_exact(long lanes, long hops, long kind, double eps,
                 const double *r_svc, const double *r_cross,
                 const double *delta, const double *sigma,
                 const long *strides, double *out)
{
    if (hops < 1 || hops > MAX_HOPS)
        return -1;
    const long rs_l = strides[0], rs_h = strides[1];
    const long rc_l = strides[2], rc_h = strides[3];
    const long d_l = strides[4], d_h = strides[5];
    const long s_l = strides[6];
    long n_bad = 0;
    for (long l = 0; l < lanes; l++) {
        const double *rs = r_svc + l * rs_l;
        const double *rc = r_cross + l * rc_l;
        const double *dl = delta + l * d_l;
        double sig = sigma[l * s_l];
        double *row = out + l * (hops + 2);
        double x_best;
        double best_d = sweep_solve(kind, hops, rs, rs_h, rc, rc_h, dl, d_h,
                                    sig, &x_best);
        int bad = !isfinite(sig) || sig < 0.0;
        for (long h = 0; h < hops; h++) {
            double r = rs[h * rs_h];
            double c = rc[h * rc_h];
            double d = dl[h * d_h];
            row[2 + h] = theta_case(kind, r, c, d, sig, x_best);
            if (((r <= c + eps) && d != -INFINITY) || r <= 0.0
                || !(c >= 0.0))
                bad = 1;
        }
        row[0] = bad ? INFINITY : best_d;
        row[1] = x_best;
        n_bad += bad;
    }
    return n_bad;
}
"""


def _report(available: bool) -> None:
    obs.set_gauge("cprobe.available", available)


_as_double = ctypes.POINTER(ctypes.c_double)
_as_long = ctypes.POINTER(ctypes.c_long)
_ptr = ctypes.c_void_p

KERNEL = CKernel(
    "cprobe",
    _C_SOURCE,
    {
        "probe_values": (
            [ctypes.c_long, _ptr, _ptr, _ptr, _ptr], ctypes.c_long
        ),
        "golden_values": (
            [
                ctypes.c_long, _ptr, _ptr, _ptr, _ptr, ctypes.c_double,
                ctypes.c_long, _ptr, _ptr,
            ],
            ctypes.c_long,
        ),
        "additive_golden": (
            [
                _as_double, ctypes.c_double, ctypes.c_double,
                ctypes.c_double, ctypes.c_long, ctypes.c_double, _as_double,
                _as_long,
            ],
            ctypes.c_long,
        ),
        "solve_exact": (
            [
                ctypes.c_long, ctypes.c_long, ctypes.c_long,
                ctypes.c_double, _ptr, _ptr, _ptr, _ptr, _as_long, _ptr,
            ],
            ctypes.c_long,
        ),
        "grid_rows": (
            [
                ctypes.c_long, ctypes.c_long, ctypes.c_long, _ptr, _ptr,
                _ptr, _ptr, _ptr,
            ],
            ctypes.c_long,
        ),
    },
    report=_report,
)

#: The Eq. (38) cases of ``vectorized._delta_case``, as the C kernel
#: numbers them.
_CASES = {"ninf": 0, "pinf": 1, "le0": 2, "mid": 3}

#: The grid forms of ``vectorized.e2e_delay_grid_rows``, as the C kernel
#: numbers them.
_FORMS = {"bmux": 0, "fifo": 1, "exact": 2}


def _count_fallbacks(requests: int) -> None:
    """Count requests that ran the Python/numpy body instead of C."""
    if obs.enabled():
        obs.add("cprobe.fallbacks", requests)


def available() -> bool:
    """Whether the compiled kernel is usable in this environment."""
    return KERNEL.available()


class ProbeTable:
    """A registry of probe contexts for one batched solve.

    Each context is one ``(through, cross, hops, capacity, delta,
    epsilon)`` tuple — everything of the probe except ``gamma``.  The
    table keeps both a packed float row (for the C kernel, in a
    geometrically grown buffer so registrations between kernel calls
    never trigger a full repack) and the original
    :class:`~repro.arrivals.ebb.EBB` pair (for the Python fallback), so
    either execution path serves the same requests.

    The table also owns the request and result buffers of
    :func:`probe_values` and :func:`golden_values`, grown the same way,
    with the addresses of all its buffers cached: a kernel call converts
    no array to a pointer.  The buffers make a table single-threaded —
    one solve at a time — and the two functions return copies, never
    views of them.
    """

    def __init__(self) -> None:
        self._buf = np.empty((256, _NFIELDS), dtype=np.float64)
        self._buf_addr = self._buf.ctypes.data
        self._n = 0
        self._objs: list[tuple[EBB, EBB, int, float, float, float]] = []
        self._io: list[np.ndarray] = []
        self._io_addr: list[int] = []
        self._io_size = 0

    def __len__(self) -> int:
        return self._n

    def add(
        self,
        through: EBB,
        cross: EBB,
        hops: int,
        capacity: float,
        delta: float,
        epsilon: float,
    ) -> int:
        """Register a context; returns its index."""
        if self._n == len(self._buf):
            grown = np.empty((2 * len(self._buf), _NFIELDS), dtype=np.float64)
            grown[: self._n] = self._buf
            self._buf = grown
            self._buf_addr = grown.ctypes.data
        self._buf[self._n] = (
            through.prefactor,
            through.decay,
            through.rate,
            cross.prefactor,
            cross.decay,
            cross.rate,
            float(hops),
            capacity,
            delta,
            epsilon,
        )
        self._objs.append(
            (through, cross, hops, capacity, delta, epsilon)
        )
        self._n += 1
        return self._n - 1

    def context(self, index: int) -> tuple[EBB, EBB, int, float, float, float]:
        return self._objs[index]

    def _requests(self, n: int) -> tuple[list[np.ndarray], list[int]]:
        """The kernel I/O buffers — request indices (int64), two inputs
        and two outputs (float64) — holding at least ``n`` entries each,
        and their addresses."""
        if n > self._io_size or not self._io:
            self._io_size = max(n, 2 * self._io_size, 64)
            self._io = [np.empty(self._io_size, dtype=np.int64)] + [
                np.empty(self._io_size, dtype=np.float64) for _ in range(4)
            ]
            self._io_addr = [a.ctypes.data for a in self._io]
        return self._io, self._io_addr


def _probe_python(
    table: ProbeTable, indices: Sequence[int], gammas: Sequence[float]
) -> np.ndarray:
    from repro.network.vectorized import _e2e_probe

    out = np.empty(len(indices), dtype=np.float64)
    for pos, (index, gamma) in enumerate(zip(indices, gammas)):
        through, cross, hops, capacity, delta, epsilon = table.context(index)
        out[pos] = _e2e_probe(
            through, cross, hops, capacity, delta, epsilon, gamma
        )
    return out


def _golden_python(
    table: ProbeTable,
    indices: Sequence[int],
    los: Sequence[float],
    his: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    from repro.network.vectorized import _e2e_probe

    out_x = np.empty(len(indices), dtype=np.float64)
    out_f = np.empty(len(indices), dtype=np.float64)
    for pos, (index, lo, hi) in enumerate(zip(indices, los, his)):
        through, cross, hops, capacity, delta, epsilon = table.context(index)
        out_x[pos], out_f[pos] = golden_section_min(
            lambda g: _e2e_probe(
                through, cross, hops, capacity, delta, epsilon, g
            ),
            lo,
            hi,
            tol=GOLDEN_TOL,
            max_iter=GOLDEN_MAX_ITER,
        )
    return out_x, out_f


def golden_values(
    table: ProbeTable,
    indices: Sequence[int],
    los: Sequence[float],
    his: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Run a probe-driven golden-section refinement per request.

    Each request ``(context, lo, hi)`` runs the full
    :func:`repro.utils.numeric.golden_section_min` loop over the probe
    objective inside the C kernel — one C call for the whole batch
    instead of ~45 sequential probe rounds per search.  Returns
    ``(xs, fs)`` arrays, bitwise-identical to driving the Python golden
    section with scalar probes; each ``f`` is the probe at its ``x``.
    The kernel reads and writes the table's own buffers and reports how
    many requests it handed back (paths beyond :data:`MAX_HOPS`), which
    the Python loop then serves.
    """
    lib = KERNEL.load()
    if lib is None:
        _count_fallbacks(len(indices))
        return _golden_python(table, indices, los, his)
    n = len(indices)
    (idx, lo, hi, out_x, out_f), addr = table._requests(n)
    idx[:n] = indices
    lo[:n] = los
    hi[:n] = his
    n_back = lib.golden_values(
        n, table._buf_addr, addr[0], addr[1], addr[2], GOLDEN_TOL,
        GOLDEN_MAX_ITER, addr[3], addr[4],
    )
    xs = out_x[:n].copy()
    fs = out_f[:n].copy()
    if n_back:
        # paths beyond the C kernel's stack bound: Python fallback
        fix = [int(i) for i in np.nonzero(np.isnan(xs))[0]]
        _count_fallbacks(len(fix))
        xs[fix], fs[fix] = _golden_python(
            table,
            [indices[i] for i in fix],
            [los[i] for i in fix],
            [his[i] for i in fix],
        )
    return xs, fs


def probe_values(
    table: ProbeTable, indices: Sequence[int], gammas: Sequence[float]
) -> np.ndarray:
    """Evaluate the probe for every ``(context, gamma)`` request.

    One C call for the whole batch when the compiled kernel is
    available; a Python ``_e2e_probe`` loop otherwise.  Values are
    bitwise-identical either way.  The kernel reads and writes the
    table's own buffers and reports how many values came out NaN (paths
    beyond :data:`MAX_HOPS`), which the Python loop then recomputes.
    """
    lib = KERNEL.load()
    if lib is None:
        _count_fallbacks(len(indices))
        return _probe_python(table, indices, gammas)
    n = len(indices)
    (idx, g, _, out, _), addr = table._requests(n)
    idx[:n] = indices
    g[:n] = gammas
    n_nan = lib.probe_values(n, table._buf_addr, addr[0], addr[1], addr[3])
    values = out[:n].copy()
    if n_nan:
        # paths beyond the C kernel's stack bound: Python fallback
        fix = [int(i) for i in np.nonzero(np.isnan(values))[0]]
        _count_fallbacks(len(fix))
        values[fix] = _probe_python(
            table, [indices[i] for i in fix], [gammas[i] for i in fix]
        )
    return values


def additive_golden(
    through: EBB,
    cross: EBB,
    hops: int,
    capacity: float,
    epsilon: float,
    lo: float,
    hi: float,
) -> tuple[float, float]:
    """:func:`~repro.utils.numeric.golden_section_min` over the additive
    probe :func:`repro.network.vectorized._additive_probe` on ``[lo, hi]``.

    One C call runs the whole refinement; a path beyond
    :data:`MAX_HOPS`, a missing kernel, or an input on which the Python
    probe raises runs the Python loop instead, so the result — or the
    exception — is the Python one.  Returns ``(x, f)``, bitwise-equal
    either way; both paths add to ``numeric.golden_calls`` and
    ``numeric.golden_iterations`` alike.
    """
    lib = KERNEL.load()
    if lib is not None and 1 <= hops <= MAX_HOPS:
        ctx = (ctypes.c_double * _NFIELDS)(
            through.prefactor,
            through.decay,
            through.rate,
            cross.prefactor,
            cross.decay,
            cross.rate,
            float(hops),
            capacity,
            0.0,
            epsilon,
        )
        out = (ctypes.c_double * 2)()
        iterations = ctypes.c_long()
        if not lib.additive_golden(
            ctx, lo, hi, GOLDEN_TOL, GOLDEN_MAX_ITER, EXP_OVERFLOW, out,
            ctypes.byref(iterations),
        ):
            # the counters golden_section_min keeps
            if obs.enabled():
                obs.add("numeric.golden_calls")
                obs.add("numeric.golden_iterations", iterations.value)
            return out[0], out[1]
    _count_fallbacks(1)
    from repro.network.vectorized import _additive_probe

    return golden_section_min(
        lambda g: _additive_probe(through, cross, hops, capacity, epsilon, g),
        lo,
        hi,
        tol=GOLDEN_TOL,
        max_iter=GOLDEN_MAX_ITER,
    )


def solve_exact(
    r_svc: np.ndarray,
    r_cross: np.ndarray,
    delta: np.ndarray,
    sigma: np.ndarray,
    case: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int] | None:
    """The Eq. (38) exact solve of ``vectorized.batched_solve_exact`` in C:
    the slope sweep of :func:`repro.network.optimization.solve_exact`,
    once per lane.

    ``r_svc`` is a ``(lanes, hops)`` float64 array; ``r_cross`` and
    ``delta`` are ``(lanes, hops)`` too, or ``(lanes, 1)`` columns, read
    through a zero hop stride (broadcast views are read in place,
    through their strides); ``sigma`` is ``(lanes,)`` and ``case`` the
    lanes' shared Eq. (38) case.  Returns ``(delay, x, thetas, saturated
    lanes)``: the numpy body's delay bytes on every lane, and its ``x``
    and thetas on every lane not masked to ``inf``.  Returns ``None`` —
    counted in ``cprobe.fallbacks`` — when the numpy body must run: no
    kernel, or a path beyond :data:`MAX_HOPS`.
    """
    lanes, hops = r_svc.shape
    if (
        r_cross.shape not in ((lanes, hops), (lanes, 1))
        or delta.shape not in ((lanes, hops), (lanes, 1))
        or sigma.shape != (lanes,)
        or any(a.dtype != np.float64 for a in (r_svc, r_cross, delta, sigma))
    ):
        raise ValueError(
            "solve_exact needs float64 (lanes, hops) or (lanes, 1) arrays"
        )
    lib = KERNEL.load() if 1 <= hops <= MAX_HOPS else None
    if lib is None:
        _count_fallbacks(lanes)
        return None
    # an aligned float64 array has strides in whole doubles
    r_svc, r_cross, delta, sigma = (
        a if a.flags.aligned else np.ascontiguousarray(a)
        for a in (r_svc, r_cross, delta, sigma)
    )
    strides = (ctypes.c_long * 7)(
        r_svc.strides[0] // 8, r_svc.strides[1] // 8,
        r_cross.strides[0] // 8,
        r_cross.strides[1] // 8 if r_cross.shape[1] > 1 else 0,
        delta.strides[0] // 8,
        delta.strides[1] // 8 if delta.shape[1] > 1 else 0,
        sigma.strides[0] // 8,
    )
    out = np.empty((lanes, hops + 2), dtype=np.float64)
    n_bad = lib.solve_exact(
        lanes,
        hops,
        _CASES[case],
        _EPS,
        r_svc.ctypes.data,
        r_cross.ctypes.data,
        delta.ctypes.data,
        sigma.ctypes.data,
        strides,
        out.ctypes.data,
    )
    return out[:, 0], out[:, 1], out[:, 2:], n_bad


def grid_rows(
    throughs: Sequence[EBB],
    crosses: Sequence[EBB],
    hops: int,
    capacity: float,
    epsilon: float,
    gammas: np.ndarray,
    form: str,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None] | None:
    """The per-point work of ``vectorized.e2e_delay_grid_rows`` in C.

    ``gammas`` is a ``(lanes, grid)`` float64 array, one row per
    ``(throughs[i], crosses[i])`` pair, and ``form`` one of ``"bmux"``
    (Eq. 43), ``"fifo"`` (Eq. 44) or ``"exact"`` (Eq. 38).  Returns
    ``(out, r_svc, r_cross)`` byte-identical to
    ``vectorized._grid_rows_python``: ``out`` holds the delays of a
    closed form, or for ``"exact"`` the sigmas that go with the rates
    ``r_svc`` ``(lanes * grid, hops)`` and ``r_cross`` ``(lanes * grid,)``
    (both ``None`` for a closed form).  Returns ``None`` — counted in
    ``cprobe.fallbacks``, one per row — when the Python body must run:
    no kernel, or a path beyond :data:`MAX_HOPS`.
    """
    lanes, grid = gammas.shape
    lib = KERNEL.load() if 1 <= hops <= MAX_HOPS else None
    if lib is None:
        _count_fallbacks(lanes)
        return None
    # one block holds the kernel's inputs and outputs, so one pointer
    # conversion serves them all: the context rows (as in ProbeTable;
    # the grid reads no delta), the gammas, out, and for "exact" the
    # rates r_svc and r_cross
    points = lanes * grid
    rates = points * (hops + 1) if form == "exact" else 0
    block = np.empty(lanes * _NFIELDS + 2 * points + rates, dtype=np.float64)
    base = block.ctypes.data
    block[: lanes * _NFIELDS].reshape(lanes, _NFIELDS)[:] = [
        (
            t.prefactor, t.decay, t.rate, c.prefactor, c.decay, c.rate,
            hops, capacity, 0.0, epsilon,
        )
        for t, c in zip(throughs, crosses)
    ]
    g_at = lanes * _NFIELDS
    out_at = g_at + points
    block[g_at:out_at] = gammas.reshape(points)
    out = block[out_at : out_at + points].reshape(lanes, grid)
    r_svc = r_cross = None
    if form == "exact":
        svc_at = out_at + points
        cross_at = svc_at + points * hops
        r_svc = block[svc_at:cross_at].reshape(points, hops)
        r_cross = block[cross_at:]
    lib.grid_rows(
        lanes,
        grid,
        _FORMS[form],
        base,
        base + 8 * g_at,
        base + 8 * out_at,
        None if r_svc is None else base + 8 * svc_at,
        None if r_cross is None else base + 8 * cross_at,
    )
    return out, r_svc, r_cross
