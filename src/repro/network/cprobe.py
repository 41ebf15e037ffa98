"""Generated-C batch evaluator for the scalar end-to-end probe.

The batched sweep execution of :mod:`repro.network.lanes` evaluates the
same scalar objective as :func:`repro.network.vectorized._e2e_probe`,
but tens of thousands of times per cell group — every golden-section
refinement step of every (lane, s) search chain.  At that volume the
Python interpreter is the bottleneck, not the math.  This module emits a
small C translation unit that mirrors the probe's floating-point
expression trees *operation for operation* — the Eq. (33) sigma chain,
the FIFO/BMUX closed forms (Eqs. 43-44), and the slope-sweep exact
theta minimization with its near-minimum re-evaluation window — and
compiles it on first use with the system C compiler.

Bitwise contract
----------------
The C kernel computes the identical IEEE-754 double sequence as
``_e2e_probe``: same operations in the same association order, libm
``expm1``/``log``/``exp`` (the same functions CPython's ``math`` module
calls in-process), and strict FP semantics (``-fno-fast-math
-ffp-contract=off``, no reassociation, no FMA contraction).  The test
suite pins value equality against ``_e2e_probe`` over randomized
parameters in every ``Delta`` case.

Availability
------------
Compilation needs a C compiler (``cc``) on ``PATH``.  When compilation
is impossible, :func:`available` is ``False`` and
:func:`probe_values` transparently falls back to looping
``_e2e_probe`` in Python — identical results, just slower.  The shared
object is cached keyed by a hash of the C source, so the compiler runs
once per source revision, not once per process.  The cache directory is
``$REPRO_CPROBE_DIR`` when set, else a per-user ``0700`` directory in
the system temp directory; a default directory that another user owns
or could write to is refused (a :class:`RuntimeWarning`, then the Python
fallback), since loading a planted shared object would run foreign
code.  Sources and objects are written under unique temp names and
moved into place with ``os.replace``, so concurrent first uses never
see a torn file.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
import warnings
from typing import Sequence

import numpy as np

from repro import obs
from repro.arrivals.ebb import EBB

__all__ = [
    "available",
    "ProbeTable",
    "probe_values",
    "golden_values",
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

#: Paths longer than this fall back to the Python probe (the C kernel
#: uses fixed-size stack buffers).
MAX_HOPS = 1024

_C_SOURCE = r"""
#include <math.h>
#include <stdlib.h>

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

/* mirror of vectorized._sigma_fast (inf on underflow) */
static double sigma_fast(const double *c, int hops, double gamma)
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
    double sigma = log(prefactor / c[EPS]) / alpha;
    /* Python max(0.0, v): returns 0.0 unless v > 0.0 (incl. v = NaN) */
    return sigma > 0.0 ? sigma : 0.0;
}

/* mirror of vectorized._fifo_closed_form (Eq. 44) */
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

/* mirror of vectorized._objective_homogeneous */
static double objective_homog(double capacity, double r, double delta,
                              double sigma, int hops, double gamma, double x)
{
    double total = 0.0;
    if (delta == -INFINITY) {
        for (int k = 0; k < hops; k++) {
            double t = sigma / (capacity - k * gamma) - x;
            if (t > 0.0) total += t;
        }
    } else if (delta == INFINITY) {
        for (int k = 0; k < hops; k++) {
            double t = sigma / ((capacity - k * gamma) - r) - x;
            if (t > 0.0) total += t;
        }
    } else if (delta <= 0.0) {
        double clipped = x + delta;
        if (clipped < 0.0) clipped = 0.0;
        double numerator = sigma + r * clipped;
        for (int k = 0; k < hops; k++) {
            double t = numerator / (capacity - k * gamma) - x;
            if (t > 0.0) total += t;
        }
    } else {
        for (int k = 0; k < hops; k++) {
            double r_svc = capacity - k * gamma;
            double denom = r_svc - r;
            double theta_low = (sigma - denom * x) / denom;
            if (theta_low <= delta) {
                if (theta_low > 0.0) total += theta_low;
            } else {
                double t = (sigma + r * (x + delta)) / r_svc - x;
                total += t > delta ? t : delta;
            }
        }
    }
    return x + total;
}

/* events sort like Python tuples: by x, ties by change */
static int ev_cmp(const void *pa, const void *pb)
{
    const double *a = (const double *)pa;
    const double *b = (const double *)pb;
    if (a[0] < b[0]) return -1;
    if (a[0] > b[0]) return 1;
    if (a[1] < b[1]) return -1;
    if (a[1] > b[1]) return 1;
    return 0;
}

/* mirror of vectorized._sweep_homogeneous (delay value only) */
static double sweep_homog(double capacity, double r, double delta,
                          double sigma, int hops, double gamma)
{
    double events[(3 * MAX_HOPS + 8) * 2];
    int n_ev = 0;
    double d0 = 0.0;
    double slope = 1.0;

    if (delta == -INFINITY) {
        for (int k = 0; k < hops; k++) {
            double k1 = sigma / (capacity - k * gamma);
            if (k1 > 0.0) {
                d0 += k1;
                slope -= 1.0;
                events[2 * n_ev] = k1; events[2 * n_ev + 1] = 1.0; n_ev++;
            }
        }
    } else if (delta == INFINITY) {
        for (int k = 0; k < hops; k++) {
            double denom = (capacity - k * gamma) - r;
            if (denom <= 0.0)
                return INFINITY;
            double k1 = sigma / denom;
            if (k1 > 0.0) {
                d0 += k1;
                slope -= 1.0;
                events[2 * n_ev] = k1; events[2 * n_ev + 1] = 1.0; n_ev++;
            }
        }
    } else if (delta <= 0.0) {
        double a = -delta;
        for (int k = 0; k < hops; k++) {
            double r_svc = capacity - k * gamma;
            double k1 = sigma / r_svc;
            double denom = r_svc - r;
            if (k1 <= 0.0)
                continue;
            if (k1 < a) {
                d0 += k1;
                slope -= 1.0;
                events[2 * n_ev] = k1; events[2 * n_ev + 1] = 1.0; n_ev++;
                events[2 * n_ev] = a; events[2 * n_ev + 1] = 0.0; n_ev++;
                if (denom > 0.0) {
                    double k2 = (sigma + r * delta) / denom;
                    if (k2 > 0.0 && isfinite(k2)) {
                        events[2 * n_ev] = k2;
                        events[2 * n_ev + 1] = 0.0; n_ev++;
                    }
                }
            } else {
                if (denom <= 0.0)
                    return INFINITY;
                double ratio = r / r_svc;
                double k2 = (sigma + r * delta) / denom;
                d0 += k1;
                if (a > 0.0) {
                    slope -= 1.0;
                    events[2 * n_ev] = a;
                    events[2 * n_ev + 1] = ratio; n_ev++;
                    events[2 * n_ev] = k2;
                    events[2 * n_ev + 1] = 1.0 - ratio; n_ev++;
                } else {
                    slope += ratio - 1.0;
                    if (k2 > 0.0) {
                        events[2 * n_ev] = k2;
                        events[2 * n_ev + 1] = 1.0 - ratio; n_ev++;
                    }
                }
                events[2 * n_ev] = k1; events[2 * n_ev + 1] = 0.0; n_ev++;
            }
        }
    } else {
        for (int k = 0; k < hops; k++) {
            double r_svc = capacity - k * gamma;
            double denom = r_svc - r;
            if (denom <= 0.0)
                return INFINITY;
            double z = sigma / denom;
            if (z <= 0.0)
                continue;
            double ratio = r / r_svc;
            double bp = z - delta;
            double aux = (sigma + r * (0.0 + delta)) / r_svc;
            if (bp <= 0.0) {
                d0 += z;
                slope -= 1.0;
                events[2 * n_ev] = z; events[2 * n_ev + 1] = 1.0; n_ev++;
            } else {
                d0 += (sigma + r * delta) / r_svc;
                slope += ratio - 1.0;
                events[2 * n_ev] = bp;
                events[2 * n_ev + 1] = -ratio; n_ev++;
                events[2 * n_ev] = z; events[2 * n_ev + 1] = 1.0; n_ev++;
            }
            if (aux > 0.0 && isfinite(aux)) {
                events[2 * n_ev] = aux; events[2 * n_ev + 1] = 0.0; n_ev++;
            }
        }
    }

    qsort(events, n_ev, 2 * sizeof(double), ev_cmp);

    double cand_x[3 * MAX_HOPS + 9];
    double cand_a[3 * MAX_HOPS + 9];
    int n_cand = 0;
    cand_x[n_cand] = 0.0;
    cand_a[n_cand] = d0;
    n_cand++;
    double acc = d0;
    double acc_min = d0;
    double cur = slope;
    double prev = 0.0;
    for (int i = 0; i < n_ev; i++) {
        double x = events[2 * i];
        double change = events[2 * i + 1];
        acc += cur * (x - prev);
        prev = x;
        cand_x[n_cand] = x;
        cand_a[n_cand] = acc;
        n_cand++;
        if (acc < acc_min)
            acc_min = acc;
        cur += change;
    }

    /* Python max(1.0, abs(m)): 1.0 unless abs(m) > 1.0 (incl. NaN) */
    double am = fabs(acc_min);
    double scale = am > 1.0 ? am : 1.0;
    double window = acc_min + SWEEP_WINDOW * scale;
    double best_d = INFINITY;
    for (int i = 0; i < n_cand; i++) {
        if (cand_a[i] <= window) {
            double d = objective_homog(capacity, r, delta, sigma, hops,
                                       gamma, cand_x[i]);
            if (d < best_d)
                best_d = d;
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
    double sigma = sigma_fast(c, hops, gamma);
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
    return sweep_homog(c[CAP], r, delta, sigma, hops, gamma);
}

void probe_values(long n, const double *ctx, const long *idx,
                  const double *gammas, double *out)
{
    for (long i = 0; i < n; i++)
        out[i] = probe_one(ctx + NF * idx[i], gammas[i]);
}

/* (sqrt(5) - 1) / 2, same double as Python's _GOLDEN (IEEE sqrt is
 * correctly rounded, the rest is exact arithmetic) */
#define GOLDEN ((sqrt(5.0) - 1.0) / 2.0)

/* mirror of numeric.golden_section_min driven by probe_one; NaN out
 * signals "recompute in Python" (path beyond MAX_HOPS) */
static void golden_refine(const double *c, double lo, double hi,
                          double tol, long max_iter, double *out)
{
    double a = lo, b = hi;
    double x1 = b - GOLDEN * (b - a);
    double x2 = a + GOLDEN * (b - a);
    double f1 = probe_one(c, x1);
    double f2 = probe_one(c, x2);
    for (long i = 0; i < max_iter; i++) {
        if (isnan(f1) || isnan(f2)) {
            out[0] = NAN;
            out[1] = NAN;
            return;
        }
        /* Python max(1.0, abs(a) + abs(b)) */
        double span = fabs(a) + fabs(b);
        double scale = span > 1.0 ? span : 1.0;
        if (b - a <= tol * scale)
            break;
        if (f1 <= f2) {
            b = x2; x2 = x1; f2 = f1;
            x1 = b - GOLDEN * (b - a);
            f1 = probe_one(c, x1);
        } else {
            a = x1; x1 = x2; f1 = f2;
            x2 = a + GOLDEN * (b - a);
            f2 = probe_one(c, x2);
        }
    }
    if (isnan(f1) || isnan(f2)) {
        out[0] = NAN;
        out[1] = NAN;
        return;
    }
    if (f1 <= f2) {
        out[0] = x1;
        out[1] = f1;
    } else {
        out[0] = x2;
        out[1] = f2;
    }
}

void golden_values(long n, const double *ctx, const long *idx,
                   const double *los, const double *his,
                   double tol, long max_iter,
                   double *out_x, double *out_f)
{
    for (long i = 0; i < n; i++) {
        double pair[2];
        golden_refine(ctx + NF * idx[i], los[i], his[i], tol, max_iter,
                      pair);
        out_x[i] = pair[0];
        out_f[i] = pair[1];
    }
}
"""

_STRICT_FLAGS = [
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-fast-math",
    "-ffp-contract=off",
]

_lib: ctypes.CDLL | None = None
_lib_checked = False


def _source_key() -> str:
    return hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]


def _cache_dir() -> str | None:
    """Where the kernel is cached; ``None`` if the default is unsafe."""
    override = os.environ.get("REPRO_CPROBE_DIR")
    if override:
        return override
    path = os.path.join(tempfile.gettempdir(), f"repro_cprobe-{os.getuid()}")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.lstat(path)
    except OSError:
        return None
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        warnings.warn(
            f"not loading the C probe kernel from {path}: it is not a "
            "directory owned by this user and writable only by it; "
            "using the slower Python fallback (set REPRO_CPROBE_DIR to "
            "choose another directory)",
            RuntimeWarning,
            stacklevel=2,
        )
        return None
    return path


def _build(cache_dir: str, src_path: str, so_path: str) -> None:
    """Compile into unique temp files, then move both into place."""
    fd, tmp_src = tempfile.mkstemp(suffix=".c", dir=cache_dir)
    tmp_so = tmp_src[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(_C_SOURCE)
        subprocess.run(
            ["cc", *_STRICT_FLAGS, "-o", tmp_so, tmp_src, "-lm"],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(tmp_src, src_path)
        os.replace(tmp_so, so_path)
    finally:
        for leftover in (tmp_src, tmp_so):
            if os.path.exists(leftover):
                os.unlink(leftover)


def _compile() -> ctypes.CDLL | None:
    """Compile (or reuse) the kernel; ``None`` when no compiler works."""
    cache_dir = _cache_dir()
    if cache_dir is None:
        return None
    stem = os.path.join(cache_dir, f"repro_cprobe_{_source_key()}")
    so_path = stem + ".so"
    if not os.path.exists(so_path):
        try:
            _build(cache_dir, stem + ".c", so_path)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        lib = ctypes.CDLL(so_path)
        lib.probe_values.argtypes = [
            ctypes.c_long,
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_long),
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double),
        ]
        lib.probe_values.restype = None
        lib.golden_values.argtypes = [
            ctypes.c_long,
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_long),
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double),
            ctypes.c_double,
            ctypes.c_long,
            ctypes.POINTER(ctypes.c_double),
            ctypes.POINTER(ctypes.c_double),
        ]
        lib.golden_values.restype = None
        return lib
    except OSError:
        return None


def _get_lib() -> ctypes.CDLL | None:
    global _lib, _lib_checked
    if not _lib_checked:
        _lib = _compile()
        _lib_checked = True
        if obs.enabled():
            obs.set_gauge("cprobe.available", bool(_lib))
    return _lib


def available() -> bool:
    """Whether the compiled kernel is usable in this environment."""
    return _get_lib() is not None


class ProbeTable:
    """A registry of probe contexts for one batched solve.

    Each context is one ``(through, cross, hops, capacity, delta,
    epsilon)`` tuple — everything of the probe except ``gamma``.  The
    table keeps both a packed float row (for the C kernel, in a
    geometrically grown buffer so registrations between kernel calls
    never trigger a full repack) and the original
    :class:`~repro.arrivals.ebb.EBB` pair (for the Python fallback), so
    either execution path serves the same requests.
    """

    def __init__(self) -> None:
        self._buf = np.empty((256, _NFIELDS), dtype=np.float64)
        self._n = 0
        self._objs: list[tuple[EBB, EBB, int, float, float, float]] = []

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

    def packed(self) -> np.ndarray:
        return self._buf


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
    *,
    tol: float,
    max_iter: int,
) -> tuple[np.ndarray, np.ndarray]:
    from repro.network.vectorized import _e2e_probe
    from repro.utils.numeric import golden_section_min

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
            tol=tol,
            max_iter=max_iter,
        )
    return out_x, out_f


def golden_values(
    table: ProbeTable,
    indices: Sequence[int],
    los: Sequence[float],
    his: Sequence[float],
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> tuple[np.ndarray, np.ndarray]:
    """Run a probe-driven golden-section refinement per request.

    Each request ``(context, lo, hi)`` runs the full
    :func:`repro.utils.numeric.golden_section_min` loop over the probe
    objective inside the C kernel — one C call for the whole batch
    instead of ~45 sequential probe rounds per search.  Returns
    ``(xs, fs)`` arrays, bitwise-identical to driving the Python golden
    section with scalar probes.
    """
    lib = _get_lib()
    if lib is None:
        return _golden_python(
            table, indices, los, his, tol=tol, max_iter=max_iter
        )
    n = len(indices)
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    lo = np.ascontiguousarray(los, dtype=np.float64)
    hi = np.ascontiguousarray(his, dtype=np.float64)
    ctx = table.packed()
    out_x = np.empty(n, dtype=np.float64)
    out_f = np.empty(n, dtype=np.float64)
    as_double = ctypes.POINTER(ctypes.c_double)
    lib.golden_values(
        n,
        ctx.ctypes.data_as(as_double),
        idx.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
        lo.ctypes.data_as(as_double),
        hi.ctypes.data_as(as_double),
        tol,
        max_iter,
        out_x.ctypes.data_as(as_double),
        out_f.ctypes.data_as(as_double),
    )
    bad = np.isnan(out_x)
    if bad.any():
        # paths beyond the C kernel's stack bound: Python fallback
        fix = [int(i) for i in np.nonzero(bad)[0]]
        out_x[bad], out_f[bad] = _golden_python(
            table,
            [indices[i] for i in fix],
            [los[i] for i in fix],
            [his[i] for i in fix],
            tol=tol,
            max_iter=max_iter,
        )
    return out_x, out_f


def probe_values(
    table: ProbeTable, indices: Sequence[int], gammas: Sequence[float]
) -> np.ndarray:
    """Evaluate the probe for every ``(context, gamma)`` request.

    One C call for the whole batch when the compiled kernel is
    available; a Python ``_e2e_probe`` loop otherwise.  Values are
    bitwise-identical either way.
    """
    lib = _get_lib()
    if lib is None:
        return _probe_python(table, indices, gammas)
    n = len(indices)
    idx = np.ascontiguousarray(indices, dtype=np.int64)
    g = np.ascontiguousarray(gammas, dtype=np.float64)
    ctx = table.packed()
    out = np.empty(n, dtype=np.float64)
    lib.probe_values(
        n,
        ctx.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        idx.ctypes.data_as(ctypes.POINTER(ctypes.c_long)),
        g.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
        out.ctypes.data_as(ctypes.POINTER(ctypes.c_double)),
    )
    bad = np.isnan(out)
    if bad.any():
        # paths beyond the C kernel's stack bound: Python fallback
        fix = [int(i) for i in np.nonzero(bad)[0]]
        out[bad] = _probe_python(
            table, [indices[i] for i in fix], [gammas[i] for i in fix]
        )
    return out
