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
solved by genuinely different code paths: persuasion-first finds s_star as
the root of the tangency condition (solve_cutoff), and proposal-first
maximizes the committed proposal's value, by one golden-section search over
the cutoff on a uniform prior and over 801 proposals on a tilted one.  They
must agree to ~1e-9, which the test suite enforces.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, Optional, Tuple

from ._numeric import bisect_rising, brentq, golden_max, grid_max, linspace
from ._record import Record
from .dist import _MASS_EPS, FiniteAtoms, TypeDistribution, UniformInterval
from .errors import NoRootError, UnsupportedCombinationError
from .prefs import ProposerPreferences

_GOLDEN_TOL = 1e-12


class Regime(Enum):
    IDEAL_ACCEPTED = "IdealAccepted"
    NO_INFO = "NoInfo"
    BINARY_CUTOFF = "BinaryCutoff"
    STATUS_QUO_ONLY = "StatusQuoOnly"


class SolveOutcome(Record):
    # s_star and s_upper are None unless regime is BINARY_CUTOFF.
    __slots__ = ("regime", "s_star", "s_upper", "proposal", "value", "veto_prob")


def indirect_u(s: float, prefs: ProposerPreferences) -> float:
    """Proposer's indirect utility when the posterior mean is s."""
    if s <= 0.0:
        return -prefs.loss(1.0)
    if s >= 0.5:
        return 0.0
    return -prefs.loss(1.0 - 2.0 * s)


def _anchor(prefs: ProposerPreferences) -> Callable[[float], float]:
    """m -> the s whose line from (s, -c(1)) touches U at m in [0, 1/2]: -inf
    where u'(2m) = 0, and clamped at 0 against rounding (see solve_cutoff).
    u(0), utility and utility_deriv are bound once."""
    utility, utility_deriv, u0 = prefs.utility, prefs.utility_deriv, prefs.utility(0.0)

    def anchor(m: float) -> float:
        slope = 2.0 * utility_deriv(2.0 * m)
        if slope == 0.0:
            return -math.inf
        a = m - (utility(2.0 * m) - u0) / slope
        return 0.0 if a > 0.0 else a  # min(a, 0.0), without the call

    return anchor


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

    No information is decided here and nowhere else: where A(E[theta]) <=
    theta_lo, z(theta_lo) is exactly 0 and Brent returns theta_lo.  This
    raises NoRootError exactly then (or where theta_lo lies within Brent's
    1e-14 of 0 and Brent returns it) or on a nonnegative support.
    """
    theta_lo, _ = d.support
    if theta_lo >= 0.0:
        raise NoRootError("no cutoff exists when the whole support is nonnegative")
    anchor = _anchor(prefs)
    cond_mean_above, a_half = d.cond_mean_above, anchor(0.5)
    if a_half > theta_lo and cond_mean_above(a_half) >= 0.5:
        s_star = brentq(lambda s: cond_mean_above(s) - 0.5, theta_lo, a_half,
                        xtol=1e-14, rtol=8.9e-16)
        # E[theta] < 1/2 puts the root above theta_lo, but it can lie within
        # xtol of it, where Brent may return theta_lo itself.
        s_star = max(s_star, math.nextafter(theta_lo, 0.0))
    elif a_half >= 0.0:
        return 0.0, cond_mean_above(0.0)
    else:
        def z(s: float) -> float:
            m = cond_mean_above(s)
            a = anchor(0.0 if m < 0.0 else 0.5 if m > 0.5 else m)
            return s - (theta_lo if theta_lo > a else a)

        s_star = brentq(z, theta_lo, 0.0, xtol=1e-14, rtol=8.9e-16)
        if s_star <= theta_lo:
            raise NoRootError(
                "no interior cutoff: no information is optimal for this instance"
            )
    return s_star, cond_mean_above(s_star)


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
    try:
        s_star, s_upper = solve_cutoff(d, prefs)
    except NoRootError:
        # No interior cutoff: with E[theta] > 0, proposing 2 E[theta] outright
        # is accepted, and that is no information.
        mean = d.mean()
        if mean <= 0.0:
            raise
        return SolveOutcome(
            Regime.NO_INFO, None, None, min(2.0 * mean, 1.0), indirect_u(mean, prefs), 0.0
        )
    veto = d.cdf(s_star)
    value = veto * (-prefs.loss(1.0)) + (1.0 - veto) * indirect_u(s_upper, prefs)
    return SolveOutcome(
        Regime.BINARY_CUTOFF, s_star, s_upper, min(2.0 * s_upper, 1.0), value, veto
    )


def _cutoff_map(d: TypeDistribution) -> Tuple[Callable[[float], float],
                                              Callable[[float], float]]:
    """(cutoff, accept) on a tilted prior.  cutoff: target_mean -> the smallest s
    with E[theta | theta >= s] >= target_mean, at most a cap 1e-12 max(1,
    |theta_hi|) below theta_hi, or 1e-6 of a narrower support's width, by
    bisection on the tilt's _mean_from, which divides by no mass, so no probe
    raises.  accept: a proposal p in (max(2 E[theta], 0), 2 theta_hi) -> the
    mass above cutoff(p / 2), 1 - cdf(cutoff(p / 2)), 0 where no mass is left."""
    theta_lo, theta_hi = d.support
    mean_lo = d.cond_mean_above(theta_lo)
    cap = theta_hi - 1e-12 * min(max(1.0, abs(theta_hi)), 1e6 * (theta_hi - theta_lo))
    cdf = d.cdf

    def cutoff(t: float) -> float:
        return theta_lo if mean_lo >= t else bisect_rising(d._mean_from, t, theta_lo, cap)[1]

    return cutoff, lambda p: 1.0 - cdf(cutoff(0.5 * p))


def _proposal_value(d: TypeDistribution, prefs: ProposerPreferences,
                    accept: Callable[[float], float]) -> Callable[[float], float]:
    """p -> the best attainable payoff from committing to proposal p, then
    choosing the experiment that maximizes its acceptance probability."""
    c1, mean, (_, theta_hi) = prefs.loss(1.0), d.mean(), d.support
    two_mean, two_hi, utility = 2.0 * mean, 2.0 * theta_hi, prefs.utility

    def value(p: float) -> float:
        if p <= 0.0:
            return -c1
        if mean > 0.0 and p <= two_mean:
            return utility(p)
        if p >= two_hi:
            return -c1
        a = accept(p)
        return a * utility(p) + (1.0 - a) * (-c1)

    return value


def _uniform_proposal_first(d: UniformInterval, prefs: ProposerPreferences) -> SolveOutcome:
    """solve_proposal_first on a uniform prior: the best of golden_max over
    t = -s in [0, -theta_lo], the kink s = 1 - theta_hi and V(theta_lo)."""
    theta_lo, theta_hi = d.support
    mean, quo = d.mean(), -prefs.loss(1.0)
    cut, utility = d.cut, prefs.utility

    def value(t: float) -> float:  # V(-t); u(2m) is indirect_u(m) for m > 0
        veto, m = cut(-t)
        if m <= 0.0:
            return quo
        return veto * quo + (1.0 - veto) * (utility(2.0 * m) if m < 0.5 else 0.0)

    no_info, cuts = value(-theta_lo), []
    if theta_lo < 0.0:
        # Relative on a support narrower than 1: at an absolute 1e-12, a
        # support narrower than that would end the search at its first two trials.
        tol = _GOLDEN_TOL * min(1.0, theta_hi - theta_lo)
        t, v = golden_max(value, 0.0, -theta_lo, tol)
        cuts.append((v, 0.0 - t))
        kink = 1.0 - theta_hi
        if theta_lo <= kink <= 0.0:
            cuts.append((value(-kink), kink))
    if mean > 0.0 and all(no_info >= v for v, _ in cuts):
        return SolveOutcome(Regime.NO_INFO, None, None, min(2.0 * mean, 1.0), no_info, 0.0)
    v, s_star = max(cuts, key=lambda c: c[0])
    s_upper = d.cond_mean_above(s_star)
    return SolveOutcome(
        Regime.BINARY_CUTOFF, s_star, s_upper, min(2.0 * s_upper, 1.0), v, d.cdf(s_star)
    )


def solve_proposal_first(
    d: TypeDistribution, prefs: ProposerPreferences
) -> SolveOutcome:
    """Optimal proposal-then-experiment outcome, computed independently.

    For a committed proposal the best experiment is the cutoff that
    maximizes its acceptance probability, so committing to p = min(2 m(s), 1)
    and revealing whether theta >= s is worth

        V(s) = (1 - F(s)) u(min(2 m(s), 1)) - F(s) c(1),  m(s) = E[theta | theta >= s].

    On a uniform prior of width w, m(s) = (s + theta_hi) / 2, and V is flat,
    then rises, then falls on [theta_lo, 0]:

    * flat: where m(s) <= 0 no proposal above the status quo is accepted,
      and V is exactly -c(1);
    * one peak: for -theta_hi < s < 1 - theta_hi, V + c(1) =
      ((theta_hi - s) / w) (u(s + theta_hi) + c(1)), a positive decreasing
      affine factor times the positive concave u(s + theta_hi) + c(1).  Both
      are log-concave, so their product is, and V has a single peak;
    * fall: past the kink s = 1 - theta_hi, p = 1, u(1) = 0 and V = -F(s) c(1).

    Cutoffs above 0 lose too: concavity gives u(p) + c(1) >= p u'(p), so
    V'(s) <= -2 s f(s) u'(p) <= 0 there.  _numeric.golden_max searches
    t = -s in [0, -theta_lo] (to 1e-12, or 1e-12 of a support narrower than
    1), which puts the flat stretch on the right, where its rule of keeping
    the left on a tie walks away from it.  Each trial reads the prior once,
    by d.cut(s) = (F(s), m(s)), and the loss at most once, u(2 m(s)).  The
    search only nears the kink, where V has no derivative, so the kink is a
    candidate of its own, as is V(theta_lo): no information, the regime
    exactly when E[theta] > 0 and V(theta_lo) is at least the others.

    A tilted prior still takes _numeric.grid_max over 801 proposals of
    [0, min(2 theta_hi, 1)], each scored by _proposal_value with the
    acceptance of the bisected cutoff (_cutoff_map); a best proposal within
    1e-9 of 2 E[theta] (1e-3 of a support narrower than 1e-6) is NoInfo's.
    """
    trivial = _trivial_outcome(d, prefs)
    if trivial is not None:
        return trivial
    if isinstance(d, UniformInterval):
        return _uniform_proposal_first(d, prefs)
    theta_lo, theta_hi = d.support
    mean = d.mean()

    # linspace ends on min(2 theta_hi, 1) exactly: 800 steps can round an ulp
    # short of 2 theta_hi, past the p >= 2 theta_hi guard of _proposal_value.
    grid = linspace(0.0, min(2.0 * theta_hi, 1.0), 801)
    cutoff, accept = _cutoff_map(d)
    p_opt, value = grid_max(_proposal_value(d, prefs, accept), grid, _GOLDEN_TOL)

    if mean > 0.0 and p_opt <= 2.0 * mean + min(1e-9, 1e-3 * (theta_hi - theta_lo)):
        return SolveOutcome(Regime.NO_INFO, None, None, p_opt, value, 0.0)
    s_star = cutoff(0.5 * p_opt)
    return SolveOutcome(
        Regime.BINARY_CUTOFF, s_star, 0.5 * p_opt, p_opt, value, d.cdf(s_star)
    )
