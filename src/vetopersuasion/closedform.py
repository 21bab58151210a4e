"""Analytic benchmark values for uniform type distributions.

These are the worked closed forms for F uniform with quadratic Proposer
loss (the four information regimes as functions of the lower support bound)
plus the linear-Proposer case.  They serve as golden values against the
general solver; nothing here calls the solver.  ``linear_case_uniform`` and
``quadratic_case_uniform`` have no caller in the package, and stay public
because golden values must live apart from what they check: the
benchmark's ``check_quad`` (bench/workloads.py) holds each quadratic
uniform solve to ``quadratic_case_uniform``, and the tests read both.

Note on the four-regime expression for proposal-first full information:
the simplified published fraction carries a typo in its denominator, so
u_fl1 is computed from the underlying (unsimplified) integral expression,
which grid maximization confirms.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from .errors import DomainError


def _check_theta_lo(theta_lo: float) -> None:
    if not -2.0 <= theta_lo < 0.0:
        raise DomainError(f"theta_lo must lie in [-2, 0), got {theta_lo}")


def u_no(theta_lo: float) -> float:
    """No information: -min(theta_lo**2, 1)."""
    _check_theta_lo(theta_lo)
    return -min(theta_lo * theta_lo, 1.0)


def u_fl1(theta_lo: float) -> float:
    """Full information, proposal-first: optimum at proposal 2/3."""
    _check_theta_lo(theta_lo)
    span = 1.0 - theta_lo
    return -(1.0 / 3.0 - theta_lo) / span - (2.0 / 3.0) / span * (1.0 / 9.0)


def u_fl2(theta_lo: float) -> float:
    """Full information, persuasion-first (proposal tailored to theta)."""
    _check_theta_lo(theta_lo)
    return -(1.0 / 6.0 - theta_lo) / (1.0 - theta_lo)


def u_bi(theta_lo: float) -> float:
    """Optimal binary experiment with cutoff max(theta_lo, -1/3)."""
    _check_theta_lo(theta_lo)
    if theta_lo >= -1.0 / 3.0:
        return -theta_lo * theta_lo
    return -(-5.0 / 27.0 - theta_lo) / (1.0 - theta_lo)


def kappa(theta_hi: float) -> float:
    """Optimal cutoff for Uniform(theta_lo, theta_hi) with quadratic loss.

    kappa(theta_hi) = -theta_hi**2 / (2 - theta_hi + 2*sqrt(1 - theta_hi
    + theta_hi**2)); no information is optimal iff theta_lo >= kappa.
    """
    if not 0.0 < theta_hi <= 1.0:
        raise DomainError(f"theta_hi must lie in (0, 1], got {theta_hi}")
    root = math.sqrt(1.0 - theta_hi + theta_hi * theta_hi)
    return -theta_hi * theta_hi / (2.0 - theta_hi + 2.0 * root)


def linear_case_uniform(theta_lo: float, theta_hi: float) -> Tuple[float, float]:
    """(cutoff, acceptance probability) for linear Proposer loss, uniform F.

    If E[theta | theta >= 0] = theta_hi/2 exceeds 1/2 the cutoff makes the
    conditional mean exactly 1/2 (proposal 1); otherwise the risk-neutral
    Proposer maximizes the expected policy with cutoff 0.
    """
    if not theta_lo < 0.0:
        raise DomainError(f"the formulas assume theta_lo < 0, got {theta_lo}")
    if not theta_hi > 0.0:
        raise DomainError(f"theta_hi must be positive, got {theta_hi}")
    span = theta_hi - theta_lo
    if theta_hi > 1.0:
        s_star = max(theta_lo, 1.0 - theta_hi)
        return s_star, min(1.0, (2.0 * theta_hi - 1.0) / span)
    return 0.0, theta_hi / span


def quadratic_case_uniform(
    theta_lo: float, theta_hi: float
) -> Tuple[Optional[float], float]:
    """(cutoff or None for no-information, optimal proposal), quadratic loss."""
    if not theta_lo < 0.0:
        raise DomainError(f"the formulas assume theta_lo < 0, got {theta_lo}")
    k = kappa(theta_hi)
    if theta_lo >= k:
        return None, theta_lo + theta_hi
    return k, k + theta_hi
