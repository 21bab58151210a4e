"""One-dimensional searches and grids shared by the solvers and the oracles.

Generic numerics only: no model logic lives here, so the oracles can use
these helpers and stay independent of the solvers.  Pure stdlib, so the
solve path never imports numpy.
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import DomainError, NoRootError

# Bisection stops once the bracket is this narrow, or after _MAX_BISECT steps.
_S_TOL = 1e-13
_MAX_BISECT = 200
# Brent's method gives up after this many steps.
_MAX_BRENT = 100


def linspace(lo: float, hi: float, n: int) -> List[float]:
    """n >= 2 evenly spaced floats from lo to hi, both ends included.

    The arithmetic is numpy's: i * step + lo, then the last point set to hi
    (and (i / (n - 1)) * (hi - lo) + lo when the step underflows to 0), so
    the list equals np.linspace(lo, hi, n).tolist() bit for bit.
    """
    delta = hi - lo
    step = delta / (n - 1)
    if step == 0.0:
        xs = [i / (n - 1) * delta + lo for i in range(n)]
    else:
        xs = [i * step + lo for i in range(n)]
    xs[-1] = hi
    return xs


def golden_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> Tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns (x, f(x)) at the better of the two inner points (the left on a
    tie) of a final bracket at most tol wide.  Each step keeps the best point
    so far inside, so this is the best point evaluated; the bracket's
    midpoint could lie past a cliff just after the peak.
    """
    invphi = (5.0 ** 0.5 - 1.0) / 2.0
    a, b = lo, hi
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return (x2, f2) if f1 < f2 else (x1, f1)


def grid_max(f: Callable[[float], float], xs: Sequence[float], tol: float,
             vals: Optional[Sequence[float]] = None) -> Tuple[float, float]:
    """(x, f(x)), the better of the first best point of the ascending grid xs
    and golden_max over its two cells (clipped at the ends: a 2-point grid
    polishes the whole interval); the polish wins a tie.  vals, when given,
    holds f at xs, for a caller that evaluates the grid in bulk.
    """
    if vals is None:
        vals = [f(x) for x in xs]
    k = vals.index(max(vals))
    x, fx = golden_max(f, xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)], tol)
    return (x, fx) if fx >= vals[k] else (xs[k], vals[k])


def three_weights(prior: Tuple[float, float]) -> Tuple[float, float, float]:
    """(w0, w1, 1 - w0 - w1) for w0, w1 >= 0.  A residual in [-1e-12, 0) is rounding
    (FiniteAtoms accepts sums within 1e-12 of 1) and reads as 0.0; lower raises."""
    w0, w1 = prior
    w2 = 1.0 - w0 - w1
    w2 = 0.0 if -1e-12 <= w2 < 0.0 else w2
    if min(w0, w1, w2) < 0.0:
        raise DomainError(f"bad prior {prior}")
    return w0, w1, w2


def bisect_rising(
    f: Callable[[float], float], target: float, lo: float, hi: float
) -> Tuple[float, float]:
    """Bracket the point where a nondecreasing f first reaches target.

    Given f(lo) < target <= f(hi), halves [lo, hi] while keeping that
    invariant until it is at most _S_TOL wide, and returns (lo, hi).
    """
    for _ in range(_MAX_BISECT):
        if hi - lo <= _S_TOL:
            break
        mid = 0.5 * (lo + hi)
        if f(mid) >= target:
            hi = mid
        else:
            lo = mid
    return lo, hi


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    Takes secant or inverse quadratic steps while they shrink the bracket
    fast enough, and bisects otherwise; returns x once the bracket is
    narrower than xtol + rtol * |x|.  Raises NoRootError when f(a) and
    f(b) have the same sign, or when _MAX_BRENT steps do not suffice.
    """
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoRootError(f"f({a!r}) and f({b!r}) have the same sign")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAX_BRENT):
        if math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre  # f changes sign between xblk and xcur
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = 0.5 * (xtol + rtol * abs(xcur))
        sbis = 0.5 * (xblk - xcur)
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf  # fails the step test below, so bisects
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic through the last three points
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
    raise NoRootError(f"no root within tolerance after {_MAX_BRENT} Brent steps")
