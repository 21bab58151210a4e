"""Optimal persuasion and proposals under quadratic Vetoer loss.

Since only the posterior mean of the Vetoer's belief matters for his
acceptance decision, the design problem reduces to choosing a distribution
of posterior means dominated by the prior in the convex order.  The optimum
is either no information or a binary cutoff experiment revealing whether
theta >= s_star, where s_star <= 0 solves a chord-tangency condition on the
Proposer's indirect utility

    U(s) = -c(1)            for s <= 0
         = -c(1 - 2s)       for 0 < s < 1/2
         = 0                for s >= 1/2.

Both timings (experiment-then-proposal and proposal-then-experiment) are
solved by genuinely different code paths; they must agree to ~1e-9, which
the test suite enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from ._numeric import bisect_rising, brentq, grid_max, linspace
from .dist import _MASS_EPS, FiniteAtoms, TypeDistribution, UniformInterval
from .errors import (
    AssumptionViolatedError, FullMassBelowError, NoRootError, UnsupportedCombinationError,
)
from .prefs import ProposerPreferences

_GOLDEN_TOL = 1e-12


class Regime(Enum):
    IDEAL_ACCEPTED = "IdealAccepted"
    NO_INFO = "NoInfo"
    BINARY_CUTOFF = "BinaryCutoff"
    STATUS_QUO_ONLY = "StatusQuoOnly"


@dataclass(frozen=True)
class SolveOutcome:
    regime: Regime
    s_star: Optional[float]
    s_upper: Optional[float]
    proposal: float
    value: float
    veto_prob: float


def indirect_u(s: float, prefs: ProposerPreferences) -> float:
    """Proposer's indirect utility when the posterior mean is s."""
    if s <= 0.0:
        return -prefs.loss(1.0)
    if s >= 0.5:
        return 0.0
    return -prefs.loss(1.0 - 2.0 * s)


def no_info_optimal(d: TypeDistribution, prefs: ProposerPreferences) -> bool:
    """Whether the tangent line at the prior mean majorizes U.

    Equivalent to: no experiment improves on proposing 2 E[theta] outright.
    """
    mean = d.mean()
    if mean >= 0.5:
        raise AssumptionViolatedError(
            "E[theta] >= 1/2: the Proposer's ideal proposal is already accepted"
        )
    theta_lo, _ = d.support
    if theta_lo >= 0.0:
        return True
    if mean <= 0.0:
        return False
    lhs = 2.0 * prefs.utility_deriv(2.0 * mean) * (mean - theta_lo)
    rhs = prefs.utility(2.0 * mean) - prefs.utility(0.0)
    return lhs <= rhs


def _tangency_point(s: float, prefs: ProposerPreferences) -> float:
    """Contact point of the steepest line from (s, -c(1)) to the hump of U.

    Returns the m in (0, 1/2] where the chord from (s, U(s)) to (m, U(m))
    supports U from above on [s, theta_hi]; m = 1/2 is the corner case
    (possible for weakly convex u, e.g. the linear family).
    """
    u0 = prefs.utility(0.0)

    def g(m: float) -> float:
        return prefs.utility(2.0 * m) - u0 - 2.0 * prefs.utility_deriv(2.0 * m) * (m - s)

    # g is nondecreasing in m for concave u, g(0) <= 0 for s <= 0.
    g_half = g(0.5)
    if g_half <= 0.0:
        return 0.5
    if s >= 0.0:
        return 0.0
    return brentq(g, 0.0, 0.5, xtol=1e-15, rtol=8.9e-16, fb=g_half)


def solve_cutoff(
    d: TypeDistribution, prefs: ProposerPreferences
) -> Tuple[float, float]:
    """The optimal cutoff s_star in [theta_lo, 0] and s_upper = E[theta|theta>=s_star].

    Brent's method on z(s) = E[theta | theta >= s] - t(s), where t(s) is
    the tangency (or corner) point of the supporting line anchored at
    (s, -c(1)).  z is negative at theta_lo whenever no information is
    suboptimal and positive near 0, so the bracket is guaranteed.
    """
    theta_lo, _ = d.support
    if theta_lo >= 0.0:
        raise NoRootError("no cutoff exists when the whole support is nonnegative")

    def z(s: float) -> float:
        return d.cond_mean_above(s) - _tangency_point(s, prefs)

    z_hi = z(0.0)
    if z_hi <= 0.0:
        # Corner of a kinked u: the expected policy is maximized at cutoff 0.
        return 0.0, d.cond_mean_above(0.0)
    z_lo = z(theta_lo)
    if z_lo >= 0.0:
        raise NoRootError(
            "no interior cutoff: no information is optimal for this instance"
        )

    # The guards' values seed Brent, so neither end is solved for again.
    s_star = brentq(z, theta_lo, 0.0, xtol=1e-14, rtol=8.9e-16, fa=z_lo, fb=z_hi)
    return s_star, d.cond_mean_above(s_star)


def _require_continuous(d: TypeDistribution) -> None:
    if isinstance(d, FiniteAtoms):
        raise UnsupportedCombinationError(
            "the quadratic-loss solver assumes a continuous type density; "
            "use the linear-loss atom solvers for discrete types"
        )


def solve_persuasion_first(
    d: TypeDistribution, prefs: ProposerPreferences
) -> SolveOutcome:
    """Optimal experiment-then-proposal outcome."""
    _require_continuous(d)
    c1 = prefs.loss(1.0)
    # At most the mass that conditioning treats as empty lies at or above 0
    # (theta_hi <= 0, or a subnormal theta_hi): both timings keep the status quo.
    if 1.0 - d.cdf(0.0) <= _MASS_EPS:
        return SolveOutcome(Regime.STATUS_QUO_ONLY, None, None, 0.0, -c1, 1.0)
    mean = d.mean()
    if mean >= 0.5:
        return SolveOutcome(Regime.IDEAL_ACCEPTED, None, None, 1.0, 0.0, 0.0)
    if mean > 0.0 and no_info_optimal(d, prefs):
        proposal = min(2.0 * mean, 1.0)
        return SolveOutcome(
            Regime.NO_INFO, None, None, proposal, indirect_u(mean, prefs), 0.0
        )
    s_star, s_upper = solve_cutoff(d, prefs)
    veto = d.cdf(s_star)
    value = veto * (-c1) + (1.0 - veto) * indirect_u(s_upper, prefs)
    return SolveOutcome(
        Regime.BINARY_CUTOFF,
        s_star,
        s_upper,
        min(2.0 * s_upper, 1.0),
        value,
        veto,
    )


def _acceptance_cutoff(d: TypeDistribution, target_mean: float) -> float:
    """Smallest s with E[theta | theta >= s] >= target_mean, at most just
    below theta_hi: exact for a uniform prior, whose E[theta | theta >= s]
    is (s + theta_hi) / 2, and by bisection otherwise."""
    theta_lo, theta_hi = d.support
    if d.cond_mean_above(theta_lo) >= target_mean:
        return theta_lo
    cap = theta_hi - 1e-12 * max(1.0, abs(theta_hi))
    if isinstance(d, UniformInterval):
        return min(2.0 * target_mean - theta_hi, cap)
    return bisect_rising(d.cond_mean_above, target_mean, theta_lo, cap)[1]


def _proposal_value(d: TypeDistribution, prefs: ProposerPreferences, p: float) -> float:
    """Best attainable payoff from committing to proposal p, then choosing
    the experiment that maximizes its acceptance probability."""
    mean = d.mean()
    if p <= 0.0:
        return -prefs.loss(1.0)
    if mean > 0.0 and p <= 2.0 * mean:
        return prefs.utility(p)
    _, theta_hi = d.support
    if p >= 2.0 * theta_hi:
        return -prefs.loss(1.0)
    try:
        s = _acceptance_cutoff(d, 0.5 * p)
    except FullMassBelowError:  # the cutoff leaves at most _MASS_EPS of mass
        return -prefs.loss(1.0)
    accept = 1.0 - d.cdf(s)
    return accept * prefs.utility(p) + (1.0 - accept) * (-prefs.loss(1.0))


def solve_proposal_first(
    d: TypeDistribution, prefs: ProposerPreferences
) -> SolveOutcome:
    """Optimal proposal-then-experiment outcome, computed independently.

    _numeric.grid_max maximizes the committed proposal's value on 801 points
    of [0, min(2 theta_hi, 1)]; for each proposal the best experiment is the
    acceptance-probability-maximizing cutoff.
    """
    _require_continuous(d)
    _, theta_hi = d.support
    c1 = prefs.loss(1.0)
    if 1.0 - d.cdf(0.0) <= _MASS_EPS:  # as in solve_persuasion_first
        return SolveOutcome(Regime.STATUS_QUO_ONLY, None, None, 0.0, -c1, 1.0)
    mean = d.mean()

    # linspace ends on min(2 theta_hi, 1) exactly: 800 steps can round an ulp
    # short of 2 theta_hi, past the p >= 2 theta_hi guard of _proposal_value.
    grid = linspace(0.0, min(2.0 * theta_hi, 1.0), 801)
    p_opt, value = grid_max(lambda p: _proposal_value(d, prefs, p), grid, _GOLDEN_TOL)

    if mean >= 0.5:
        return SolveOutcome(Regime.IDEAL_ACCEPTED, None, None, 1.0, 0.0, 0.0)
    if mean > 0.0 and p_opt <= 2.0 * mean + 1e-9:
        return SolveOutcome(Regime.NO_INFO, None, None, p_opt, value, 0.0)
    s_star = _acceptance_cutoff(d, 0.5 * p_opt)
    return SolveOutcome(
        Regime.BINARY_CUTOFF, s_star, 0.5 * p_opt, p_opt, value, d.cdf(s_star)
    )
