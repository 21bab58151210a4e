"""Vetoer acceptance logic.

Quadratic loss admits the clean rule "accept p > 0 iff p <= 2 E[theta]",
which the quadratic solvers apply directly.  Absolute (linear) loss does
not reduce to a mean comparison, so it is handled here only for small atom
supports, where acceptance is a piecewise linear inequality in the proposal.
"""

from __future__ import annotations

import math
from functools import cached_property
from operator import mul
from typing import Callable, Sequence

from ._record import Record
from .errors import DomainError


class BinaryTypeEnv(Record):
    """Two-point type environment for the linear-loss Vetoer.

    ell and h are the two possible bliss points (0 <= ell < h) and mu0 is
    the prior probability that the bliss point is h.
    """

    # psi_mu0 caches itself in __dict__, which is not a field.
    __slots__ = ("ell", "h", "mu0", "__dict__")

    def __init__(self, ell: float, h: float, mu0: float) -> None:
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "mu0", mu0)
        if not all(math.isfinite(x) for x in (ell, h, mu0)):
            raise DomainError(f"parameters must be finite, got {self}")
        if not 0.0 <= ell < h:
            raise DomainError(f"need 0 <= ell < h, got ell={ell}, h={h}")
        if not 0.0 <= mu0 <= 1.0:
            raise DomainError(f"mu0 must be a probability, got {mu0}")

    @property
    def p_bar(self) -> float:
        """Largest proposal any belief can support: min(2h, 1)."""
        return min(2.0 * self.h, 1.0)

    @cached_property
    def psi_mu0(self) -> float:
        """psi(mu0), the largest proposal surely accepted at the prior;
        computed once per environment, as Utilde compares each p with it."""
        return psi_cap(self, self.mu0)


def phi_threshold(env: BinaryTypeEnv, p: float) -> float:
    """Minimal belief on the high type at which proposal p is accepted.

    Values <= 0 mean "accepted at any belief", values > 1 mean "never
    accepted"; the result is deliberately not clamped so that psi_cap can
    invert it.  The ratio is (p - 2 ell) / (2 (min(p, h) - ell)), halved
    top and bottom (the same bits) so that h near the float limit does not
    overflow 2 (h - ell).
    """
    if p <= 2.0 * env.ell:
        # Below 2*ell every belief accepts; extend linearly so the
        # threshold stays continuous and increasing through p = 2*ell.
        return (0.5 * p - env.ell) / (env.h - env.ell)
    return (0.5 * p - env.ell) / (min(p, env.h) - env.ell)


def psi_cap(env: BinaryTypeEnv, mu: float) -> float:
    """Highest proposal in [0, p_bar] accepted at belief mu."""
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"belief must lie in [0, 1], got {mu}")
    ell, h = env.ell, env.h
    if mu >= phi_threshold(env, env.p_bar):
        return env.p_bar
    if mu >= max(0.0, phi_threshold(env, h)):
        return 2.0 * ((1.0 - mu) * ell + mu * h)
    # Here mu < phi(h) < 1/2, so the denominator is positive.
    return 2.0 * ell * (1.0 - mu) / (1.0 - 2.0 * mu)


def acceptance_root(thetas: Sequence[float]) -> Callable[[Sequence[float]], float]:
    """best_acceptable_proposal with the atoms checked, and p_bar, the breaks
    and each atom's gain t - |p - t| = min(p, 2t - p) at each break fixed, once;
    the closure checks the weights and sums their products with the gains."""
    if not all(math.isfinite(t) for t in thetas):
        raise DomainError("atom locations and weights must be finite")
    if any(t < 0.0 for t in thetas):
        raise DomainError("atom locations must be nonnegative here")
    p_bar = min(2.0 * max(thetas), 1.0)
    # Gains as a branch, not min(): 2t - p does not cancel against a huge t.
    top = [p_bar if p_bar <= t else 2.0 * t - p_bar for t in thetas]
    breaks = sorted({0.0, *(t for t in thetas if 0.0 < t < p_bar)}, reverse=True)
    pieces = [(lo, [lo if lo <= t else 2.0 * t - lo for t in thetas]) for lo in breaks]

    def root(weights: Sequence[float]) -> float:
        if not all(map(math.isfinite, weights)):
            raise DomainError("atom locations and weights must be finite")
        if p_bar <= 0.0:
            return 0.0
        hi, hi_v = p_bar, sum(map(mul, weights, top))
        if hi_v >= 0.0:
            return p_bar
        # A(0) = 0, so the scan stops at 0 at the latest.
        for lo, gains in pieces:
            lo_v = sum(map(mul, weights, gains))
            if lo_v >= 0.0:
                return lo + lo_v * (hi - lo) / (lo_v - hi_v)
            hi, hi_v = lo, lo_v
        return 0.0

    return root


def best_acceptable_proposal(thetas: Sequence[float], weights: Sequence[float]) -> float:
    """Largest p in [0, min(2*max theta, 1)] with V(p) >= V(0), absolute loss.

    A(p) = V(p) - V(0) is concave and piecewise linear with kinks at the
    atoms, and A(0) = 0, so the acceptance set is an interval [0, r]; r is
    found exactly on the linear pieces.  The kinks are read right to left,
    and A only until the first one it accepts: r lies on the piece above it.
    Each call binds acceptance_root afresh; bind it once to reuse the atoms.
    """
    return acceptance_root(thetas)(weights)
