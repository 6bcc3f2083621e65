"""Shared numerical kernels: adaptive quadrature, scalar maximization, slope fits.

The checks on eta, n_T, lam and r live here too, in a module both the
closed-form route and the Fock oracle import, so the two routes accept the
same inputs without sharing any formula.

All integrands must be vectorized: they accept an ndarray of abscissae and
return one value per abscissa, or one row of m values per abscissa for a
vector-valued integral (the phase-diffusion average integrates its kick
averages, one per photon-number offset, this way).  One globally adaptive
Gauss-Kronrod engine serves both; a vector panel's error estimate is its
largest entry of |Kronrod - Gauss|, so the tolerance bounds every entry of
the result.  A panel's finiteness check reads only its Kronrod sum: every
Kronrod weight is positive, so one NaN or +-inf value makes the sum non-finite.

A beta search repeats most of its panels, so two functools.lru_cache
caches of 256 entries keep what a panel forms, read-only, without changing
a bit of any result: _panel_nodes(a, b), the 15 abscissae of every panel
of every integrate call, and _tail_map(a, key), the pair (w, (1 - t)^2) of
integrate_semi_infinite's map, keyed on the start a and the float64 bytes
of the abscissa array t.  One measured rule sizes both: reuse runs from one
mse_bound call to the next, and one call forms at most 99 panels and 75
tail arrays (65 and 49 on fig3-lorentzian), counted from cold over every
call of the benchmark's seed-7 items, so 256 entries hold two calls of
either.  On the fig3 row N = 1e8, eta = 0.95, 0.872 of the node lookups
(0.875 with 2,048 kept) and 0.985 of the tail lookups hit.  Both live as
long as the process; cache_clear() empties either, as the benchmark does
between passes, and cache_info() counts the hits.  integrate,
integrate_semi_infinite and maximize_scalar refuse non-finite endpoints
before any cache is read.
"""

from __future__ import annotations

import functools
import heapq
import math

import numpy as np

__all__ = [
    "AccuracyError",
    "OptimizationError",
    "check_eta",
    "check_nonneg",
    "check_finite_nonneg",
    "integrate",
    "integrate_semi_infinite",
    "maximize_scalar",
    "loglog_slope",
]


class AccuracyError(RuntimeError):
    """Quadrature met a non-finite integrand or could not reach its tolerance.

    Carries the best estimate computed so far in ``best`` and its error
    estimate in ``err_estimate`` so callers can decide whether to accept it.
    """

    def __init__(self, message, best=math.nan, err_estimate=math.inf):
        super().__init__(message)
        self.best = best
        self.err_estimate = err_estimate


class OptimizationError(RuntimeError):
    """Non-finite objective or iteration cap hit; carries the best iterate found."""

    def __init__(self, message, best_x=None, best_value=math.nan):
        super().__init__(message)
        self.best_x = best_x
        self.best_value = best_value


def check_eta(eta):
    """Reject a transmission outside (0, 1], NaN included."""
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")


def check_nonneg(value, name):
    """Reject a negative or NaN value of the parameter called name."""
    if not value >= 0.0:
        raise ValueError(f"{name} must be nonnegative")


def check_finite_nonneg(value, name):
    """Reject a negative, NaN or infinite value of the parameter called name.

    For the squeezing r, the bath occupation n_T and the diffusion lam: an
    infinite one turns the closed forms or the diffusion map into
    inf - inf or 0 * inf, hence NaN.
    """
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite")


MAX_PANELS = 10_000  # the panel budget of every quadrature

# 15-point Kronrod rule with its embedded 7-point Gauss rule on [-1, 1].
# The Gauss nodes are the odd-indexed Kronrod nodes.
_XK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
)
_WK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
)
_WK_CENTER = 0.209482141084728
_WG_HALF = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
)
_WG_CENTER = 0.417959183673469

_NODES = np.array([-x for x in _XK_HALF] + [0.0] + [x for x in reversed(_XK_HALF)])
_WK = np.array(list(_WK_HALF) + [_WK_CENTER] + list(reversed(_WK_HALF)))
_WG = np.zeros(15)
_WG[1:14:2] = list(_WG_HALF) + [_WG_CENTER] + list(reversed(_WG_HALF))


@functools.lru_cache(maxsize=256)
def _panel_nodes(a, b):
    """The 15 abscissae of the panel [a, b], read-only.

    For a < b, equal keys give the same bits: 0.0 and -0.0, the only equal
    floats that differ, give the same midpoint and half-width.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid + half * _NODES
    x.flags.writeable = False
    return x


def _gk15_panel(f, a, b):
    """One Gauss-Kronrod panel: returns (kronrod value, error estimate).

    The value is a float for a scalar integrand and a length-m array for a
    vector one; the error estimate is |kronrod - gauss|, its largest entry
    for a vector.  A non-finite value raises AccuracyError, found from the
    Kronrod sum alone (each entry of it for a vector): see the module notes.
    The abscissae come from _panel_nodes, read-only: f must not write into
    them.
    """
    half = 0.5 * (b - a)
    x = _panel_nodes(a, b)
    y = np.asarray(f(x), dtype=float)
    if y.shape == x.shape:
        kron = half * float(_WK.dot(y))
        if not math.isfinite(kron):
            raise AccuracyError(f"integrand returned a non-finite value on [{a}, {b}]")
        gauss = half * float(_WG.dot(y))
        return kron, abs(kron - gauss)
    if y.ndim != 2 or y.shape[0] != x.size:
        raise ValueError("integrand must return one value or one row per abscissa")
    kron = half * (_WK @ y)
    if not np.isfinite(kron).all():
        raise AccuracyError(f"integrand returned a non-finite value on [{a}, {b}]")
    gauss = half * (_WG @ y)
    return kron, float(np.max(np.abs(kron - gauss)))


def _max_abs(values):
    return float(np.max(np.abs(values)))


def _fsum_rows(values):
    """math.fsum of equal-length arrays, entry by entry."""
    return np.array([math.fsum(col.tolist()) for col in np.array(list(values)).T])


def integrate(f, a, b, rel_tol=1e-8):
    """Globally adaptive Gauss-Kronrod quadrature of f over [a, b].

    Parameters
    ----------
    f : callable
        Vectorized integrand, finite on [a, b].  Given the 15 abscissae of a
        panel it returns either 15 values (a scalar integral) or a (15, m)
        array, one row per abscissa (a vector integral of length m).  The
        abscissae are read-only and shared with later panels: f must not
        write into them.
    a, b : float
        Finite endpoints with a < b; anything else raises ValueError.
    rel_tol : float
        Positive, or ValueError (NaN included).  Subdivision stops once the
        summed panel error estimate is at most rel_tol times |value|, for a
        vector the largest entry of |value|, each panel's estimate being its
        largest entry of |Kronrod - Gauss|.  An integral of exactly 0 cannot
        meet it; no caller has one.  Past MAX_PANELS panels AccuracyError
        carries the best estimate so far.

    Returns
    -------
    (value, error_estimate)
        value is a float, or a length-m array for a vector integral.  The
        error estimate is the conservative sum of per-panel Kronrod-Gauss
        differences, and so bounds every entry of a vector value.
    """
    a, b = float(a), float(b)
    if not -math.inf < a < b < math.inf:  # NaN fails too
        raise ValueError("integrate requires finite endpoints a < b")
    if not rel_tol > 0.0:  # NaN fails too
        raise ValueError("integrate requires rel_tol > 0")

    val, err = _gk15_panel(f, a, b)
    if isinstance(val, float):
        size, fsum = abs, math.fsum
    else:
        size, fsum = _max_abs, _fsum_rows
    # heap entries: (-panel_error, tiebreak, a, b, value, error)
    heap = [(-err, 0, a, b, val, err)]
    count = 1
    total_val, total_err = val, err
    while total_err > rel_tol * size(total_val):
        if count >= MAX_PANELS:
            raise AccuracyError(
                f"quadrature did not converge within {MAX_PANELS} panels "
                f"(error estimate {total_err:.3e})",
                best=total_val,
                err_estimate=total_err,
            )
        _, _, pa, pb, pval, perr = heapq.heappop(heap)
        if perr <= 0.0 or (pb - pa) <= 1e-15 * max(1.0, abs(pa), abs(pb)):
            raise AccuracyError(
                "panel width reached the roundoff floor before the tolerance",
                best=total_val,
                err_estimate=total_err,
            )
        pm = 0.5 * (pa + pb)
        v1, e1 = _gk15_panel(f, pa, pm)
        v2, e2 = _gk15_panel(f, pm, pb)
        # not +=: a vector total_val may still be the first panel's array
        total_val = total_val + (v1 + v2 - pval)
        total_err += e1 + e2 - perr
        heapq.heappush(heap, (-e1, count, pa, pm, v1, e1))
        count += 1
        heapq.heappush(heap, (-e2, count, pm, pb, v2, e2))
        count += 1
    return fsum(item[4] for item in heap), math.fsum(item[5] for item in heap)


@functools.lru_cache(maxsize=256)
def _tail_map(a, key):
    """(w, (1 - t)^2), read-only, of the map w = a + t/(1 - t).

    t is the float64 array whose bytes are key.  1 - t is floored at 1e-17,
    so t = 1 maps to a finite w.
    """
    t = np.frombuffer(key)
    comp = np.maximum(1.0 - t, 1e-17)
    w = t / comp
    w += a
    comp *= comp
    w.flags.writeable = comp.flags.writeable = False
    return w, comp


def integrate_semi_infinite(f, a, rel_tol=1e-8):
    """Integrate f over [a, infinity) via the substitution w = a + t/(1-t).

    a must be finite; anything else, NaN included, raises ValueError.  The
    integrand must decay at least as w**(-p) with p > 1 for the transformed
    integral to be proper.  f must return one value per abscissa, and must
    not write into the read-only abscissae it gets; a vector integrand is
    rejected with ValueError.  Returns the value of integrate on t in [0, 1]
    at rel_tol, within its MAX_PANELS budget; accuracy failures raise
    AccuracyError from that rule.
    """
    a = float(a)
    if not -math.inf < a < math.inf:  # NaN fails too
        raise ValueError("integrate_semi_infinite requires a finite start a")

    def transformed(t):
        w, comp2 = _tail_map(a, t.tobytes())
        # a new array: comp2 is cached, and f's result is not ours to write into
        return np.divide(np.asarray(f(w), dtype=float).reshape(t.shape), comp2)

    return integrate(transformed, 0.0, 1.0, rel_tol=rel_tol)[0]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN_POINTS = 33
_ARGMAX_TOL = 1e-6


def maximize_scalar(f, lo, hi):
    """Locate a scalar maximum of f on [lo, hi]; returns (argmax, value).

    A 33-point grid pre-scan picks the bracket (so mild multimodality is
    survivable; a non-finite sample raises OptimizationError), then
    golden-section refines it to an argmax interval of width _ARGMAX_TOL.
    The value is never below the best sample.  lo and hi must be finite
    with lo < hi; anything else raises ValueError before f is called.
    """
    lo, hi = float(lo), float(hi)
    if not -math.inf < lo < hi < math.inf:  # NaN fails too
        raise ValueError("maximize_scalar requires finite endpoints lo < hi")

    xs = np.linspace(lo, hi, _PRESCAN_POINTS)
    fs = np.array([float(f(x)) for x in xs])
    if not np.all(np.isfinite(fs)):
        raise OptimizationError("objective returned a non-finite value during pre-scan")

    k = int(np.argmax(fs))
    best_x, best_f = float(xs[k]), float(fs[k])
    a = float(xs[max(k - 1, 0)])
    b = float(xs[min(k + 1, _PRESCAN_POINTS - 1)])

    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1 = float(f(x1))
    f2 = float(f(x2))
    while b - a > _ARGMAX_TOL:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = float(f(x2))
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = float(f(x1))
    for xc, fc in ((x1, f1), (x2, f2)):
        if fc > best_f:
            best_x, best_f = float(xc), float(fc)
    return best_x, best_f


def loglog_slope(xs, ys, window=None):
    """Least-squares slope of log(y) against log(x).

    window, if given, is an inclusive (x_lo, x_hi) interval selecting the
    points to fit.  Requires at least 3 selected points, all positive and
    finite; anything else raises ValueError.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-d arrays of equal length")
    if window is not None:
        w_lo, w_hi = window
        mask = (xs >= w_lo) & (xs <= w_hi)
        xs, ys = xs[mask], ys[mask]
    if xs.size < 3:
        raise ValueError("need at least 3 points in the fit window")
    both = np.stack([xs, ys])
    if not np.all((both > 0.0) & (both < math.inf)):  # NaN fails too
        raise ValueError("log-log fit requires positive finite data")
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    return float(slope)
