"""Solvers for a linear-loss Vetoer with two or three bliss-point atoms.

With two atoms {ell, h} a belief is the probability mu on the high type.
Two states need at most two posteriors (Kamenica & Gentzkow 2011), and the
persuasion-first problem splits the prior into {0, t}, where t is the
tangency point of the secant from 0 to Uhat(mu) = -c(1 - psi(mu)), or
reveals nothing: no hull walk and no grid.  The proposal-first problem
maximizes Utilde(p), the best payoff from committing to p and then choosing
the acceptance-maximizing signal, over two candidate proposals, min(h,
p_bar) and psi(mu0), with a dense grid as the tripwire for that candidate
set.  Three-atom instances are handled through a restricted parametric
family of binary signals.  _numeric.grid_max (a grid, then a golden-section
polish) searches the tripwire grid and both families.  Pure stdlib
(_numeric only), so no solve imports numpy.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ._numeric import golden_max, grid_max, linspace, three_weights
from ._record import Record
from .accept import (
    BinaryTypeEnv,
    acceptance_root,
    phi_threshold,
    psi_cap,
)
from .errors import AssumptionViolatedError, DomainError
from .prefs import ProposerPreferences

_GOLDEN_TOL = 1e-10


class BinarySolveOutcome(Record):
    # posteriors holds (mu, weight, proposal) triples; regime is "NoInfo" or "Split".
    __slots__ = ("value", "posteriors", "regime")


def uhat(env: BinaryTypeEnv, prefs: ProposerPreferences, mu: float) -> float:
    """Proposer's payoff from the best accepted proposal at belief mu."""
    return -prefs.loss(1.0 - psi_cap(env, mu))


def solve_persuasion_first_binary(
    env: BinaryTypeEnv, prefs: ProposerPreferences
) -> BinarySolveOutcome:
    """Optimal experiment-then-proposal outcome with two atom types.

    If 0 < mu0 < t, the prior splits into {0, t} (regime Split), worth the
    chord of uhat between them; else the regime is NoInfo, worth uhat(mu0).
    Why: let p = min(h, p_bar), k = phi(p), u(a) = -c(1 - a) and A = c''/c'.
    On [k, 1] psi is affine, then flat, and the kinks at phi(h) (psi' drops
    from 2 (h - ell)^2 / ell to 2 (h - ell)) and phi(p_bar) are concave, so
    uhat is concave.  On [0, k) psi = 2 ell (1 - mu) / (1 - 2 mu) and uhat''
    has the sign of 2 (1 - 2 mu) - ell A(1 - psi), which falls as mu rises
    (A is 0, (gamma - 1)/x or alpha): uhat is convex, then concave.  So the
    secant slope S(m) = (uhat(m) - uhat(0)) / m rises, then falls on (0, k],
    with peak t; none lies past k, as c is convex: S(k) >= c'(1 - p)(p -
    2 ell)/k >= uhat'(k+).  The concave envelope of uhat is therefore the
    line from 0 to t, then uhat.  S still rises at k, and t = k exactly,
    when k c'(1 - p) p^2 / (2 (1 - k)^2) >= ell (uhat(k) - uhat(0)), as
    ell psi' = psi^2 / (2 (1 - mu)^2): on every Linear instance, and for
    ell = 0, where psi jumps from 0 to p at k = 1/2 (no division by
    1 - 2k).  Else golden-section search finds t, and k wins what it cannot
    resolve (c'(0) = 0, p = 1, tiny ell: t ~ k - ell^2/4).  k <= 0 leaves
    uhat concave on [0, 1], and t = 0.
    """
    mu0, k = env.mu0, phi_threshold(env, min(env.h, env.p_bar))
    t = max(k, 0.0)
    u0, ut, psi = uhat(env, prefs, 0.0), uhat(env, prefs, t), psi_cap(env, t)
    if t * prefs.loss_deriv(1.0 - psi) * psi**2 / (2.0 * (1.0 - t) ** 2) < env.ell * (ut - u0):
        peak, s = golden_max(lambda m: (uhat(env, prefs, m) - u0) / m, 0.0, k, _GOLDEN_TOL)
        t = peak if s > (ut - u0) / k else k
    if 0.0 < mu0 < t:
        w = (t - mu0) / t
        posteriors = ((0.0, w, psi_cap(env, 0.0)), (t, 1.0 - w, psi_cap(env, t)))
        return BinarySolveOutcome(w * u0 + (1.0 - w) * uhat(env, prefs, t), posteriors, "Split")
    return BinarySolveOutcome(uhat(env, prefs, mu0), ((mu0, 1.0, env.psi_mu0),), "NoInfo")


def utilde(env: BinaryTypeEnv, prefs: ProposerPreferences, p: float) -> float:
    """Best payoff from committing to proposal p, then choosing the signal
    that maximizes its acceptance probability.

    Up to psi(mu0) the proposal passes surely and is worth -c(1 - p); past
    it, it passes with odds mu0 / phi(p).  The branch compares p with
    psi(mu0), not phi(p) with mu0: phi(psi(mu0)) can round above mu0, and
    the odds branch then cancels at a large c(1)."""
    if not 0.0 <= p <= env.p_bar:
        raise DomainError(f"proposal must lie in [0, {env.p_bar}], got {p}")
    if p <= env.psi_mu0:
        return -prefs.loss(1.0 - p)
    c1 = prefs.loss(1.0)
    return -c1 + (env.mu0 / phi_threshold(env, p)) * (c1 - prefs.loss(1.0 - p))


def solve_proposal_first_binary(
    env: BinaryTypeEnv, prefs: ProposerPreferences
) -> Tuple[float, float, Optional[Tuple[Tuple[float, float], ...]]]:
    """Optimal proposal-then-experiment outcome: (p_opt, value, experiment).

    The experiment, when information is used, is the binary split of mu0
    into posteriors {0, phi(p_opt)}; None means no information.  It is used
    exactly when p_opt exceeds psi(mu0), the largest surely-accepted
    proposal.  Two candidates are compared, min(h, p_bar) and psi(mu0); a
    tie goes to the first.  Up to psi(mu0) Utilde(p) = -c(1 - p) rises.  Past it Utilde = -c(1) + mu0 (c(1) - c(1 - p)) / phi(p), and on
    [h, p_bar], where phi(p) = (p - 2 ell) / (2 (h - ell)), its slope has
    the sign of c'(1 - p)(p - 2 ell) - (c(1) - c(1 - p)), which is at most
    -2 ell c'(1 - p) <= 0 because c is convex (c(1) - c(1 - p) >= p c'(1 - p)).
    So p_bar is optimal only when it is surely accepted, and then
    psi(mu0) = p_bar; for h > 1 the first candidate is p_bar itself.  On
    (psi(mu0), h] the payoff is -c(1) + 2 mu0 R(p) with R(p) =
    (c(1) - c(1 - p))(p - ell) / (p - 2 ell).  For Linear, R'(p) has the
    sign of p^2 - 4 ell p + 2 ell^2, which changes sign once past 2 ell, so R
    is quasi-convex and peaks at an endpoint; a curved loss can give R an
    interior peak.  _numeric.grid_max over a 2,000-point grid on [0, p_bar]
    (the better of the best grid point and its golden-section polish) is
    the tripwire for that case: it raises AssumptionViolatedError when it
    beats the candidates by more than 1e-6 max(1, c(1)).
    """
    mu0 = env.mu0
    p_hi, p_lo = min(env.h, env.p_bar), env.psi_mu0
    v_hi, v_lo = utilde(env, prefs, p_hi), utilde(env, prefs, p_lo)
    p_opt, value = (p_hi, v_hi) if v_hi >= v_lo else (p_lo, v_lo)
    experiment = None
    if p_opt > p_lo:
        phi = phi_threshold(env, p_opt)
        experiment = ((0.0, 1.0 - mu0 / phi), (phi, mu0 / phi))

    # The grid's best point is polished over its two cells: with c'(0) = 0
    # and h > 1, R falls at p_bar = 1, so Utilde can peak inside the last cell.
    ps = linspace(0.0, env.p_bar, 2000)
    _, grid_best = grid_max(lambda p: utilde(env, prefs, p), ps, _GOLDEN_TOL)
    if grid_best > value + 1e-6 * max(1.0, prefs.loss(1.0)):
        raise AssumptionViolatedError(
            "grid search beat the candidate proposals; quasi-convexity premise broken"
        )
    return p_opt, value, experiment


class ThreeTypeValues(Record):
    # branch is "reveal-low" (sigma on type 0) or "reveal-mid" (sigma on ell).
    __slots__ = ("v_noinfo", "v_fullinfo", "v_bestbinary", "sigma_star", "branch",
                 "branch_values")


def three_type_values(
    prior: Tuple[float, float],
    levels: Tuple[float, float, float],
    prefs: ProposerPreferences,
) -> ThreeTypeValues:
    """No-info, full-info, and best-binary-signal payoffs for three atoms.

    prior = (w0, wl) on levels (0, ell, h); the residual weight sits on h
    (_numeric.three_weights).  The binary-signal search is restricted to two
    parametric families: either the highest two types always send the high
    signal and type 0 mixes, or type 0 never sends it, the top type always
    does, and the middle type mixes.  Off Linear loss the best binary signal
    can lie outside both, so v_bestbinary is only a lower bound on its value.
    _numeric.grid_max maximizes each branch on the 2-point grid of its
    interval's ends; on Linear loss that polish can miss a family's kinked
    peak.  The acceptance root is bound to the levels once for every posterior.
    """
    weights = w0, wl, wh = three_weights(prior, levels)
    root = acceptance_root(levels)

    v_noinfo = prefs.utility(root(weights))

    v_fullinfo = sum(
        w * prefs.utility(min(2.0 * t, 1.0)) for w, t in zip(weights, levels)
    )

    def split_value(sigma: Tuple[float, float, float]) -> float:
        s0, s1, s2 = sigma
        total = 0.0
        for x0, x1, x2 in ((s0, s1, s2), (1.0 - s0, 1.0 - s1, 1.0 - s2)):
            a, b, c = w0 * x0, wl * x1, wh * x2  # unnormalized posterior weights
            mass = a + b + c
            if mass <= 1e-15:
                continue
            p = root((a / mass, b / mass, c / mass))
            total += mass * prefs.utility(p)
        return total

    # Branch A: types ell and h always send the high signal, type 0 mixes.
    # Past sigma0_cap the high posterior puts majority weight on type 0 and
    # the value is flat at its floor, so the cap loses nothing.
    sigma0_cap = min(1.0, (wl + wh) / w0) if w0 > 0.0 else 1.0
    sA, vA = grid_max(lambda s: split_value((s, 1.0, 1.0)), [0.0, sigma0_cap], _GOLDEN_TOL)

    # Branch B: type 0 never sends the high signal, type h always does,
    # type ell mixes.
    sB, vB = grid_max(lambda s: split_value((0.0, s, 1.0)), [0.0, 1.0], _GOLDEN_TOL)

    if vA >= vB:
        return ThreeTypeValues(
            v_noinfo, v_fullinfo, vA, (sA, 1.0, 1.0), "reveal-low", (vA, vB)
        )
    return ThreeTypeValues(
        v_noinfo, v_fullinfo, vB, (0.0, sB, 1.0), "reveal-mid", (vA, vB)
    )
