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

import math
from enum import Enum
from typing import Callable, Optional, Tuple

from ._numeric import bisect_rising, brentq, grid_max, linspace
from ._record import Record
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


class SolveOutcome(Record):
    __slots__ = ("regime", "s_star", "s_upper", "proposal", "value", "veto_prob")

    def __init__(self, regime: Regime, s_star: Optional[float], s_upper: Optional[float],
                 proposal: float, value: float, veto_prob: float) -> None:
        object.__setattr__(self, "regime", regime)
        object.__setattr__(self, "s_star", s_star)
        object.__setattr__(self, "s_upper", s_upper)
        object.__setattr__(self, "proposal", proposal)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "veto_prob", veto_prob)


def indirect_u(s: float, prefs: ProposerPreferences) -> float:
    """Proposer's indirect utility when the posterior mean is s."""
    if s <= 0.0:
        return -prefs.loss(1.0)
    if s >= 0.5:
        return 0.0
    return -prefs.loss(1.0 - 2.0 * s)


def _anchor(m: float, prefs: ProposerPreferences) -> float:
    """The s whose line from (s, -c(1)) touches U at m in [0, 1/2]: -inf
    where u'(2m) = 0, and clamped at 0 against rounding (see solve_cutoff)."""
    slope = 2.0 * prefs.utility_deriv(2.0 * m)
    if slope == 0.0:
        return -math.inf
    return min(m - (prefs.utility(2.0 * m) - prefs.utility(0.0)) / slope, 0.0)


def no_info_optimal(d: TypeDistribution, prefs: ProposerPreferences) -> bool:
    """Whether the tangent line at the prior mean majorizes U, i.e. its
    anchor lies at or below theta_lo.

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
    # An affine u has A = 0 > theta_lo, but a small mean can round A(E[theta])
    # below a theta_lo that is within rounding of 0.
    if _anchor(0.5, prefs) >= 0.0:
        return False
    return _anchor(mean, prefs) <= theta_lo


def solve_cutoff(
    d: TypeDistribution, prefs: ProposerPreferences
) -> Tuple[float, float]:
    """The optimal cutoff s_star in [theta_lo, 0] and s_upper = E[theta|theta>=s_star].

    The line through (s, -c(1)) with slope U'(m) = 2 u'(2m) touches U at m
    when -c(1) + 2 u'(2m) (m - s) = u(2m), that is at the anchor

        A(m) = m - (u(2m) - u(0)) / (2 u'(2m)).

    Concavity gives u(0) <= u(2m) - 2m u'(2m), so A(m) <= 0, with equality
    for every m only when u is affine.  A'(m) = (u(2m) - u(0)) u''(2m) /
    u'(2m)^2 <= 0, so A is non-increasing, down to -inf where u'(2m) = 0.
    The cutoff is optimal when its line touches U at the upper posterior
    mean, s = A(E[theta | theta >= s]) (Kamenica & Gentzkow 2011).  Three
    cases:

    * corner: A(1/2) > theta_lo and E[theta | theta >= A(1/2)] >= 1/2.  Every
      line anchored at s <= A(1/2) touches U at the kink m = 1/2, so s_star
      solves E[theta | theta >= s] = 1/2;
    * affine u, A(1/2) >= 0 (A = 0): the chord to (1/2, 0) is U itself, and
      revealing whether theta >= 0 maximizes the expected policy: s_star = 0;
    * otherwise s_star is the root of z(s) = s - max(A(m(s)), theta_lo),
      where m(s) is E[theta | theta >= s] clipped to [0, 1/2].  z rises, as
      A o m does not; z(0) >= 0, and z(theta_lo) <= 0 with equality exactly
      when no information is optimal, A(E[theta]) <= theta_lo.

    The root find runs over s, not m: where u' vanishes at 1 (Power with
    gamma near 1), A falls from near 0 to -inf within the last floats below
    m = 1/2, where no m resolves the cutoff.  A nearly affine u can round A
    above 0, so A is clamped there, which keeps z(0) >= 0.  Each case takes
    one Brent run at most, with no root find inside it.
    """
    theta_lo, _ = d.support
    if theta_lo >= 0.0:
        raise NoRootError("no cutoff exists when the whole support is nonnegative")
    a_half = _anchor(0.5, prefs)
    if a_half > theta_lo and d.cond_mean_above(a_half) >= 0.5:
        s_star = brentq(lambda s: d.cond_mean_above(s) - 0.5, theta_lo, a_half,
                        xtol=1e-14, rtol=8.9e-16)
        # E[theta] < 1/2 puts the root above theta_lo, but it can lie within
        # xtol of it, where Brent may return theta_lo itself.
        s_star = max(s_star, math.nextafter(theta_lo, 0.0))
    elif a_half >= 0.0:
        return 0.0, d.cond_mean_above(0.0)
    else:
        def z(s: float) -> float:
            m = min(max(d.cond_mean_above(s), 0.0), 0.5)
            return s - max(_anchor(m, prefs), theta_lo)

        s_star = brentq(z, theta_lo, 0.0, xtol=1e-14, rtol=8.9e-16)
        if s_star <= theta_lo:
            raise NoRootError(
                "no interior cutoff: no information is optimal for this instance"
            )
    return s_star, d.cond_mean_above(s_star)


def _trivial_outcome(
    d: TypeDistribution, prefs: ProposerPreferences
) -> Optional[SolveOutcome]:
    """The outcome both timings reach without a search, or None: the status
    quo when at most the mass that conditioning treats as empty lies at or
    above 0 (theta_hi <= 0, or a subnormal theta_hi), the ideal proposal
    when E[theta] >= 1/2."""
    if isinstance(d, FiniteAtoms):
        raise UnsupportedCombinationError(
            "the quadratic-loss solver assumes a continuous type density; "
            "use the linear-loss atom solvers for discrete types"
        )
    if d.mass_above(0.0) <= _MASS_EPS:
        return SolveOutcome(Regime.STATUS_QUO_ONLY, None, None, 0.0, -prefs.loss(1.0), 1.0)
    if d.mean() >= 0.5:
        return SolveOutcome(Regime.IDEAL_ACCEPTED, None, None, 1.0, 0.0, 0.0)
    return None


def solve_persuasion_first(
    d: TypeDistribution, prefs: ProposerPreferences
) -> SolveOutcome:
    """Optimal experiment-then-proposal outcome."""
    trivial = _trivial_outcome(d, prefs)
    if trivial is not None:
        return trivial
    mean = d.mean()
    if mean > 0.0 and no_info_optimal(d, prefs):
        proposal = min(2.0 * mean, 1.0)
        return SolveOutcome(
            Regime.NO_INFO, None, None, proposal, indirect_u(mean, prefs), 0.0
        )
    s_star, s_upper = solve_cutoff(d, prefs)
    veto = d.cdf(s_star)
    value = veto * (-prefs.loss(1.0)) + (1.0 - veto) * indirect_u(s_upper, prefs)
    return SolveOutcome(
        Regime.BINARY_CUTOFF,
        s_star,
        s_upper,
        min(2.0 * s_upper, 1.0),
        value,
        veto,
    )


def _cutoff_map(d: TypeDistribution) -> Callable[[float], float]:
    """target_mean -> the smallest s with E[theta | theta >= s] >= target_mean,
    at most the cap just below theta_hi: exact for a uniform prior, whose
    E[theta | theta >= s] is (s + theta_hi) / 2, and by bisection otherwise."""
    theta_lo, theta_hi = d.support
    mean_lo = d.cond_mean_above(theta_lo)
    cap = theta_hi - 1e-12 * max(1.0, abs(theta_hi))
    if isinstance(d, UniformInterval):
        return lambda t: theta_lo if mean_lo >= t else min(2.0 * t - theta_hi, cap)
    return lambda t: (theta_lo if mean_lo >= t
                      else bisect_rising(d.cond_mean_above, t, theta_lo, cap)[1])


def _acceptance_cutoff(d: TypeDistribution, target_mean: float) -> float:
    return _cutoff_map(d)(target_mean)


def _proposal_value(d: TypeDistribution, prefs: ProposerPreferences) -> Callable[[float], float]:
    """p -> the best attainable payoff from committing to proposal p, then
    choosing the experiment that maximizes its acceptance probability."""
    c1, mean, (_, theta_hi), cutoff = prefs.loss(1.0), d.mean(), d.support, _cutoff_map(d)
    two_mean, two_hi, utility, cdf = 2.0 * mean, 2.0 * theta_hi, prefs.utility, d.cdf

    def value(p: float) -> float:
        if p <= 0.0:
            return -c1
        if mean > 0.0 and p <= two_mean:
            return utility(p)
        if p >= two_hi:
            return -c1
        try:
            s = cutoff(0.5 * p)
        except FullMassBelowError:  # the cutoff leaves at most _MASS_EPS of mass
            return -c1
        accept = 1.0 - cdf(s)
        return accept * utility(p) + (1.0 - accept) * (-c1)

    return value


def solve_proposal_first(
    d: TypeDistribution, prefs: ProposerPreferences
) -> SolveOutcome:
    """Optimal proposal-then-experiment outcome, computed independently.

    _numeric.grid_max maximizes the committed proposal's value on 801 points
    of [0, min(2 theta_hi, 1)]; for each proposal the best experiment is the
    acceptance-probability-maximizing cutoff.  The objective binds c(1),
    E[theta], theta_hi and the prior's cutoff map (theta_lo, E[theta |
    theta >= theta_lo], the cap) once per solve, not once per point.
    """
    trivial = _trivial_outcome(d, prefs)
    if trivial is not None:
        return trivial
    _, theta_hi = d.support
    mean = d.mean()

    # linspace ends on min(2 theta_hi, 1) exactly: 800 steps can round an ulp
    # short of 2 theta_hi, past the p >= 2 theta_hi guard of _proposal_value.
    grid = linspace(0.0, min(2.0 * theta_hi, 1.0), 801)
    p_opt, value = grid_max(_proposal_value(d, prefs), grid, _GOLDEN_TOL)

    if mean > 0.0 and p_opt <= 2.0 * mean + 1e-9:
        return SolveOutcome(Regime.NO_INFO, None, None, p_opt, value, 0.0)
    s_star = _acceptance_cutoff(d, 0.5 * p_opt)
    return SolveOutcome(
        Regime.BINARY_CUTOFF, s_star, 0.5 * p_opt, p_opt, value, d.cdf(s_star)
    )
