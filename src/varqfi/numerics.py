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
"""

from __future__ import annotations

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


def _gk15_panel(f, a, b):
    """One Gauss-Kronrod panel: returns (kronrod value, error estimate).

    The value is a float for a scalar integrand and a length-m array for a
    vector one; the error estimate is |kronrod - gauss|, its largest entry
    for a vector.  A non-finite value raises AccuracyError, found from the
    Kronrod sum alone (each entry of it for a vector): see the module notes.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid + half * _NODES
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


def integrate(f, a, b, rel_tol=1e-8, abs_tol=0.0):
    """Globally adaptive Gauss-Kronrod quadrature of f over [a, b].

    Parameters
    ----------
    f : callable
        Vectorized integrand, finite on [a, b].  Given the 15 abscissae of a
        panel it returns either 15 values (a scalar integral) or a (15, m)
        array, one row per abscissa (a vector integral of length m).
    a, b : float
        Finite endpoints with a < b; anything else raises ValueError.
    rel_tol, abs_tol : float
        Subdivision stops once the summed panel error estimate drops below
        max(abs_tol, rel_tol*|value|).  Both must be nonnegative and one of
        them positive: anything else raises ValueError, where it would only
        spend the whole MAX_PANELS budget; reaching that budget raises
        AccuracyError carrying the best estimate so far.  For a vector
        integral each panel's error estimate is its largest entry of
        |Kronrod - Gauss| and |value| is the largest entry of |value|.

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
    if not (rel_tol >= 0.0 and abs_tol >= 0.0 and max(rel_tol, abs_tol) > 0.0):
        raise ValueError("integrate requires rel_tol, abs_tol >= 0, not both 0")

    val, err = _gk15_panel(f, a, b)
    if isinstance(val, float):
        size, fsum = abs, math.fsum
    else:
        size, fsum = _max_abs, _fsum_rows
    # heap entries: (-panel_error, tiebreak, a, b, value, error)
    heap = [(-err, 0, a, b, val, err)]
    count = 1
    total_val, total_err = val, err
    while total_err > max(abs_tol, rel_tol * size(total_val)):
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


def integrate_semi_infinite(f, a, rel_tol=1e-8):
    """Integrate f over [a, infinity) via the substitution w = a + t/(1-t).

    The integrand must decay at least as w**(-p) with p > 1 for the
    transformed integral to be proper.  f must return one value per
    abscissa; a vector integrand is rejected with ValueError.  Returns the
    value of integrate on t in [0, 1] with abs_tol 0, within its MAX_PANELS
    budget; accuracy failures raise AccuracyError from that rule.
    """
    # 0-d arrays, and in place only on arrays made here (not f's result): faster, same bits
    one, floor, a = np.array(1.0), np.array(1e-17), np.array(float(a))

    def transformed(t):
        comp = np.maximum(one - t, floor)
        w = t / comp
        w += a
        comp *= comp
        return np.divide(np.asarray(f(w), dtype=float).reshape(t.shape), comp, out=comp)

    return integrate(transformed, 0.0, 1.0, rel_tol=rel_tol)[0]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_PRESCAN_POINTS = 33
_ARGMAX_TOL = 1e-6


def maximize_scalar(f, lo, hi):
    """Locate a scalar maximum of f on [lo, hi]; returns (argmax, value).

    A 33-point grid pre-scan picks the bracket (so mild multimodality is
    survivable; a non-finite sample raises OptimizationError), then
    golden-section refines it to an argmax interval of width _ARGMAX_TOL.
    The value is never below the best sample.
    """
    lo, hi = float(lo), float(hi)
    if not hi > lo:
        raise ValueError("maximize_scalar requires hi > lo")

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
    points to fit.  Requires at least 3 selected points, all positive.
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
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit requires positive data")
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    return float(slope)
