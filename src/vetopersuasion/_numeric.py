"""One-dimensional searches shared by the solvers and the oracles.

Generic numerics only: no model logic lives here, so the oracles can use
these helpers and stay independent of the solvers.
"""

from __future__ import annotations

from typing import Callable, Tuple

# Bisection stops once the bracket is this narrow, or after _MAX_BISECT steps.
_S_TOL = 1e-13
_MAX_BISECT = 200


def golden_max(
    f: Callable[[float], float], lo: float, hi: float, tol: float
) -> Tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi].

    Returns (x, f(x)) at the midpoint of the final bracket, whose width
    is at most tol.
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
    x = 0.5 * (a + b)
    return x, f(x)


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
