import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vetopersuasion import (
    Exponential,
    ExponentialTilt,
    FiniteAtoms,
    FullMassBelowError,
    Linear,
    NoRootError,
    Power,
    Regime,
    UniformInterval,
    UnsupportedCombinationError,
    indirect_u,
    lr_tilt,
    solve_cutoff,
    solve_persuasion_first,
    solve_proposal_first,
)
from vetopersuasion import qsolve
from vetopersuasion._numeric import bisect_rising, brentq, grid_max, linspace
from vetopersuasion.closedform import linear_case_uniform, u_bi
from vetopersuasion.oracle import _cells_value, _edge, verify_certificate
from vetopersuasion.prefs import ProposerPreferences
from vetopersuasion.qsolve import _cutoff_map

U11 = UniformInterval(-1.0, 1.0)
SQ = Power(2.0)


def test_indirect_u_pieces():
    assert indirect_u(-0.5, SQ) == -1.0
    assert indirect_u(0.0, SQ) == -1.0
    assert indirect_u(0.25, SQ) == pytest.approx(-0.25)
    assert indirect_u(0.5, SQ) == 0.0
    assert indirect_u(0.9, SQ) == 0.0


# A support 2e-16 wide: A(E[theta]) lies above theta_lo, but theta_lo lies
# within Brent's 1e-14 of 0, and Brent returns it in solve_cutoff.
NARROW = (UniformInterval(-4.327947371105713e-17, 1.7186974336222915e-16),
          Exponential(0.12972665772663997))


def _count_cutoff_solves(monkeypatch):
    calls = []

    def counted(d, prefs):
        calls.append(d)
        return solve_cutoff(d, prefs)

    monkeypatch.setattr(qsolve, "solve_cutoff", counted)
    return calls


@pytest.mark.parametrize("d,prefs,regime", [
    (U11, SQ, Regime.BINARY_CUTOFF),
    (UniformInterval(-0.2, 1.0), SQ, Regime.NO_INFO),  # the tangent line majorizes U
    (UniformInterval(0.05, 0.8), SQ, Regime.NO_INFO),  # support above 0
    (*NARROW, Regime.NO_INFO),
])
def test_persuasion_first_decides_no_information_by_one_cutoff_solve(d, prefs, regime,
                                                                    monkeypatch):
    calls = _count_cutoff_solves(monkeypatch)
    assert solve_persuasion_first(d, prefs).regime is regime
    assert calls == [d]


@pytest.mark.parametrize("d,regime", [
    (UniformInterval(0.5, 0.9), Regime.IDEAL_ACCEPTED),
    (UniformInterval(-2.0, 5e-324), Regime.STATUS_QUO_ONLY),
    (lr_tilt(U11, -800.0), Regime.STATUS_QUO_ONLY),
    (FiniteAtoms(((-1.0, 0.5), (1.0, 0.5))), None),
])
def test_trivial_outcomes_solve_no_cutoff(d, regime, monkeypatch):
    calls = _count_cutoff_solves(monkeypatch)
    if regime is None:
        with pytest.raises(UnsupportedCombinationError):
            solve_persuasion_first(d, SQ)
    else:
        assert solve_persuasion_first(d, SQ).regime is regime
    assert calls == []


def test_solve_cutoff_uniform_quadratic():
    s_star, s_upper = solve_cutoff(U11, SQ)
    assert s_star == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert s_upper == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_solve_cutoff_linear_corner():
    # Risk-neutral Proposer: maximize the expected accepted policy by
    # revealing whether theta >= 0.  Affine u: the anchor is 0 exactly.
    s_star, s_upper = solve_cutoff(U11, Linear())
    assert s_star == 0.0
    assert s_upper == pytest.approx(0.5)
    # The anchor's rounding must not move an affine u's cutoff off 0 exactly.
    d = lr_tilt(UniformInterval(-1.0, 0.21875), 0.5)
    assert solve_cutoff(d, Linear()) == (0.0, d.cond_mean_above(0.0))


def test_solve_cutoff_kink_corner_matches_closed_form():
    # theta_hi > 1: the line anchored at the cutoff touches U at the kink
    # m = 1/2, so the cutoff makes E[theta | theta >= s] exactly 1/2.
    s_star, s_upper = solve_cutoff(UniformInterval(-1.0, 1.5), Linear())
    expected, _ = linear_case_uniform(-1.0, 1.5)
    assert s_star == pytest.approx(expected, abs=1e-12)
    assert s_upper == pytest.approx(0.5, abs=1e-12)


def test_solve_cutoff_where_u_prime_vanishes_at_the_ideal():
    # Power(1.5) has u'(1) = 0, so the anchor at m = 1/2 is -inf.
    prefs = Power(1.5)
    assert qsolve._anchor(prefs)(0.5) == -math.inf
    s_star, s_upper = solve_cutoff(U11, prefs)
    assert -1.0 < s_star < 0.0 and s_upper == pytest.approx(0.5 * (s_star + 1.0))
    assert s_star == pytest.approx(_nested_cutoff(U11, prefs), abs=1e-12)
    assert verify_certificate(U11, prefs, s_star, s_upper)[0]


def test_solve_cutoff_preconditions():
    with pytest.raises(NoRootError):
        solve_cutoff(UniformInterval(0.1, 0.8), SQ)
    with pytest.raises(NoRootError):
        solve_cutoff(UniformInterval(-0.2, 1.0), SQ)  # no-info region


def test_regimes():
    r = solve_persuasion_first(UniformInterval(0.5, 0.9), Linear())
    assert r.regime is Regime.IDEAL_ACCEPTED
    assert r.value == 0.0 and r.proposal == 1.0 and r.veto_prob == 0.0

    r = solve_persuasion_first(UniformInterval(-0.2, 1.0), SQ)
    assert r.regime is Regime.NO_INFO
    assert r.proposal == pytest.approx(0.8)
    assert r.value == pytest.approx(-0.04)
    assert r.veto_prob == 0.0

    r = solve_persuasion_first(U11, SQ)
    assert r.regime is Regime.BINARY_CUTOFF
    assert r.s_star == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert r.proposal == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert r.value == pytest.approx(-11.0 / 27.0, abs=1e-9)
    assert r.veto_prob == pytest.approx(1.0 / 3.0, abs=1e-9)


@pytest.mark.parametrize("solve", [solve_persuasion_first, solve_proposal_first])
@pytest.mark.parametrize("d", [UniformInterval(-2.0, 5e-324), lr_tilt(U11, -800.0)])
def test_no_mass_above_zero_keeps_the_status_quo(solve, d):
    # At most 1e-12 of mass lies at or above 0 (a subnormal theta_hi, or a
    # tilt that leaves none there): both timings keep the status quo instead
    # of conditioning on an empty event.
    r = solve(d, Linear())
    assert r.regime is Regime.STATUS_QUO_ONLY
    assert r.value == -1.0 and r.veto_prob == 1.0 and r.proposal == 0.0


def test_atoms_rejected():
    d = FiniteAtoms(((-1.0, 0.5), (1.0, 0.5)))
    with pytest.raises(UnsupportedCombinationError):
        solve_persuasion_first(d, SQ)
    with pytest.raises(UnsupportedCombinationError):
        solve_proposal_first(d, SQ)


@pytest.mark.parametrize("theta_lo", [-2.0, -1.3, -0.8, -0.5, -0.35])
def test_binary_cutoff_matches_closed_form(theta_lo):
    r = solve_persuasion_first(UniformInterval(theta_lo, 1.0), SQ)
    assert r.value == pytest.approx(u_bi(theta_lo), abs=1e-9)


def test_timing_equivalence_spot():
    for d, prefs in [
        (U11, SQ),
        (U11, Linear()),
        (UniformInterval(-0.6, 1.0), Exponential(2.0)),
        (lr_tilt(U11, 1.0), SQ),
        # On these two, 800 proposal-grid steps add up to one ulp below
        # 2 theta_hi, where the acceptance tail is empty.
        (UniformInterval(-0.9801251303390535, 0.19863684174776092), Linear()),
        (
            lr_tilt(UniformInterval(-1.0734522869790486, 0.4655486226374877), -0.830505864332602),
            Linear(),
        ),
    ]:
        pf = solve_persuasion_first(d, prefs)
        pp = solve_proposal_first(d, prefs)
        assert pp.value == pytest.approx(pf.value, abs=1e-9)
        assert pp.regime is pf.regime


@settings(max_examples=60, deadline=None)
@given(st.floats(-0.999, 0.999))
def test_no_cutoff_beats_solver(cut):
    value = _cells_value([_edge(U11, x) for x in (-1.0, cut, 1.0)], SQ)
    assert value <= -11.0 / 27.0 + 1e-9


# Supports drawn as the quad-solve benchmark draws them.
UNIFORMS = st.builds(
    UniformInterval, st.floats(-2.0, -0.05), st.floats(0.0, 1.0, exclude_min=True)
)
TILTS = st.builds(lr_tilt, UNIFORMS, st.floats(-3.0, 3.0))
STEEP_TILTS = st.builds(lr_tilt, UNIFORMS, st.floats(-800.0, 800.0))
# Uniform supports the benchmark never draws: theta_lo near 0 or far below it,
# and theta_hi above 1, where proposal-first's best cutoff can be the kink.
WIDE_UNIFORMS = st.builds(
    UniformInterval, st.floats(-1e6, -1e-9), st.floats(0.0, 2.0, exclude_min=True)
)
LOSSES = st.one_of(
    st.just(Linear()),
    st.floats(1.0, 3.0).map(Power),
    st.floats(0.0, 4.0, exclude_min=True).map(Exponential),
)


def _nested_tangency(s, prefs):
    # Reference only: the contact point m in (0, 1/2] of the steepest line
    # from (s, -c(1)) to the hump of U, by a Brent run of its own.
    u0 = prefs.utility(0.0)

    def g(m):
        return prefs.utility(2.0 * m) - u0 - 2.0 * prefs.utility_deriv(2.0 * m) * (m - s)

    g_half = g(0.5)
    if g_half <= 0.0:
        return 0.5
    if s >= 0.0:
        return 0.0
    return brentq(g, 0.0, 0.5, xtol=1e-15, rtol=8.9e-16)


def _nested_z(d, prefs):
    return lambda s: d.cond_mean_above(s) - _nested_tangency(s, prefs)


def _nested_cutoff(d, prefs):
    lo, hi = bisect_rising(_nested_z(d, prefs), 0.0, d.support[0], 0.0)
    return 0.5 * (lo + hi)


def _bisected_acceptance_cutoff(d, target):
    theta_lo, theta_hi = d.support
    if d.cond_mean_above(theta_lo) >= target:
        return theta_lo
    cap = theta_hi - 1e-12 * min(max(1.0, abs(theta_hi)), 1e6 * (theta_hi - theta_lo))
    return bisect_rising(d.cond_mean_above, target, theta_lo, cap)[1]


# A steep negative tilt leaves under 1e-12 of mass well below theta_hi, so a
# bisection on the checked cond_mean_above raises before it finds the cutoff.
STEEP = lr_tilt(UniformInterval(-0.4242106756443901, 0.23004268647622084), -62.278208417747805)


@pytest.mark.parametrize("d,checked_raises", [
    (lr_tilt(UniformInterval(-0.2, 0.3), 3.0), False),  # 3.9e-12 of mass above the cap
    (lr_tilt(U11, -1.0), True),  # 1.6e-13 above the cap
    (lr_tilt(U11, 700.0), False),
    (lr_tilt(U11, -700.0), True),
    (STEEP, True),
])
def test_tilted_cutoff_map_never_raises_and_is_the_checked_bisection(d, checked_raises,
                                                                     monkeypatch):
    # The map bisects on _mean_from, which divides by no mass: it answers
    # every target, reads cond_mean_above only for E[theta | theta >= theta_lo]
    # when it is bound, and equals the checked bisection bit for bit wherever
    # that returns.
    lo, hi = d.support
    cap = hi - 1e-12 * min(max(1.0, abs(hi)), 1e6 * (hi - lo))
    calls = []
    checked = ExponentialTilt.cond_mean_above
    monkeypatch.setattr(ExponentialTilt, "cond_mean_above",
                        lambda self, s: calls.append(s) or checked(self, s))
    cutoff, _ = _cutoff_map(d)
    assert len(calls) == 1
    monkeypatch.setattr(ExponentialTilt, "cond_mean_above", checked)
    rng = random.Random(0)
    targets = [lo + rng.random() * (hi - lo) for _ in range(200)]
    targets += [hi - 10.0 ** -k for k in range(1, 13)] + [math.nextafter(hi, lo)]
    raised = 0
    for t in targets:
        got = cutoff(t)
        assert lo <= got <= cap
        try:
            expected = _bisected_acceptance_cutoff(d, t)
        except FullMassBelowError:
            raised += 1
            continue
        assert repr(got) == repr(expected), t
    assert (raised > 0) is checked_raises


# Measured prior reads per solve: two means, one support, one cut per trial
# and the final cutoff's cdf and cond_mean_above.
SEARCH_READS = {UniformInterval(-1.0, 0.8): 66, UniformInterval(-1e6, 1.5): 96}


@pytest.mark.parametrize("d", list(SEARCH_READS))
def test_uniform_proposal_first_is_a_search_not_a_scan(d, monkeypatch):
    # One golden-section search over the cutoff: each trial reads the prior
    # once, by cut, and the loss at most once, 60 trials at 1e-12 on [0, 1]
    # and 89 on [0, 1e6] (plus V(theta_lo), and the kink s = -0.5 of the
    # wide support), so far under the 801 utility reads a proposal grid
    # makes.  The bound allows 10% over the measured count.
    calls = {}

    def count(cls, name):
        plain = getattr(cls, name)

        def counted(self, *args):
            calls[name] = calls.get(name, 0) + 1
            return plain(self, *args)

        monkeypatch.setattr(cls, name, counted)

    for name in ("mean", "cond_mean_above", "cdf", "cut"):
        count(UniformInterval, name)
    for name in ("loss", "utility"):
        count(ProposerPreferences, name)
    # support is a property: count its getter.
    monkeypatch.setattr(UniformInterval, "support", UniformInterval.support.fget)
    count(UniformInterval, "support")
    monkeypatch.setattr(UniformInterval, "support", property(UniformInterval.support))
    r = solve_proposal_first(d, SQ)
    assert r.regime is Regime.BINARY_CUTOFF
    # The search scores its trials by cut alone; cdf and cond_mean_above
    # read only the final cutoff.
    assert calls["cdf"] == calls["cond_mean_above"] == 1, calls
    prior = sum(calls.get(name, 0) for name in ("mean", "cond_mean_above", "cdf", "cut", "support"))
    assert prior <= 1.1 * SEARCH_READS[d], calls
    # c(1) once, then at most one utility per trial.
    assert calls["loss"] + calls.get("utility", 0) <= 1 + calls["cut"], calls


@settings(max_examples=200, deadline=None)
@given(st.one_of(UNIFORMS, TILTS), st.floats(-0.5, 1.5))
@example(UniformInterval(-1.0, 1.0), 1.0 - 1e-13)  # under 1e-12 of mass above s
@example(lr_tilt(UniformInterval(-1.0, 1.0), 2.0), 1.0 - 1e-13)
@example(UniformInterval(-1.0, 1.0), 0.0)
def test_cut_is_cdf_then_cond_mean_above(d, x):
    # x < 0 puts s below the support, x > 1 above it.
    lo, hi = d.support
    s = lo + x * (hi - lo)
    try:
        expected = (d.cdf(s), d.cond_mean_above(s))
    except FullMassBelowError:
        with pytest.raises(FullMassBelowError):
            d.cut(s)
        return
    assert repr(d.cut(s)) == repr(expected)  # bit for bit, signed zeros too


def _scored_by_cdf(d, prefs):
    # Reference: the 801-point proposal grid and its polish, each proposal's
    # acceptance read as 1 - cdf of the bisected cutoff whose upper mean is
    # p / 2.  Bisection stops where under 1e-12 of mass is left above a probe;
    # the proposal is then all but surely vetoed, and reads acceptance 0.
    def accept(p):
        try:
            return 1.0 - d.cdf(_bisected_acceptance_cutoff(d, 0.5 * p))
        except FullMassBelowError:
            return 0.0

    value = qsolve._proposal_value(d, prefs, accept)
    return grid_max(value, linspace(0.0, min(2.0 * d.support[1], 1.0), 801), 1e-12)[1]


@settings(max_examples=100, deadline=None)
@given(UNIFORMS, LOSSES)
@example(UniformInterval(-0.5, 1e-11), Linear())  # the cap binds on the last grid cells
def test_uniform_proposal_first_matches_the_cdf_scored_grid(d, prefs):
    if qsolve._trivial_outcome(d, prefs) is None:
        got = solve_proposal_first(d, prefs).value
        assert got == pytest.approx(_scored_by_cdf(d, prefs),
                                    abs=1e-12 * max(1.0, prefs.loss(1.0)))


# Supports narrower than the cap's usual 1e-12 gap below theta_hi, and one a
# little wider than the no-information band's usual 1e-9.
@pytest.mark.parametrize("d,prefs", [
    (UniformInterval(-1e-13, 1e-13), Linear()),
    (UniformInterval(-1e-13, 1e-13), SQ),
    (lr_tilt(UniformInterval(-1e-13, 1e-13), 1.0), Linear()),
    (lr_tilt(UniformInterval(-4e-9, 6e-9), -2.0), Exponential(2.0)),
    (UniformInterval(-4e-9, 6e-9), Exponential(2.0)),
])
def test_proposal_first_on_a_narrow_support(d, prefs):
    # The cutoff lies in the support, the regime is persuasion-first's, and
    # proposal-first is worth no more than persuasion-first, up to rounding.
    pf = solve_persuasion_first(d, prefs)
    pp = solve_proposal_first(d, prefs)
    theta_lo, theta_hi = d.support
    assert pp.regime is pf.regime is Regime.BINARY_CUTOFF
    assert theta_lo <= pp.s_star <= theta_hi
    ulps = 4 * math.ulp(1.0) * max(1.0, prefs.loss(1.0))
    assert pp.value <= pf.value + ulps
    if isinstance(d, UniformInterval):
        # The cutoff search resolves a support narrower than its 1e-12 too.
        assert pp.value >= pf.value - ulps


@settings(max_examples=150, deadline=None)
@given(st.one_of(UNIFORMS, TILTS), LOSSES)
# u'(1) = 0 with gamma this close to 1: the anchor falls from -1e-6 to -inf
# inside the last float below m = 1/2, so a root find over m alone misses
# the cutoff where E[theta | theta >= s] crosses 1/2.
@example(
    lr_tilt(UniformInterval(-0.6861189067730924, 0.9369979454205444), 1.9158950475721361),
    Power(1.0000002583802825),
)
# Here the anchor rounds above 0 at some m; unclamped, z(0) < 0 and Brent
# finds no sign change.
@example(UniformInterval(-1.079321704867209, 0.10969419598768214), Power(1.0000000000000002))
def test_solve_cutoff_matches_bisection(d, prefs):
    # The reference is the nested formulation: bisection over s on
    # E[theta | theta >= s] minus the tangency point found by its own Brent run.
    theta_lo = d.support[0]
    z = _nested_z(d, prefs)

    try:
        z0 = z(0.0)
    except FullMassBelowError:  # hi so small that no mass is left above 0
        with pytest.raises(FullMassBelowError):
            solve_cutoff(d, prefs)
        return
    if z0 <= 0.0:
        assert solve_cutoff(d, prefs) == (0.0, d.cond_mean_above(0.0))
    elif z(theta_lo) >= 0.0:
        with pytest.raises(NoRootError):
            solve_cutoff(d, prefs)
    else:
        lo, hi = bisect_rising(z, 0.0, theta_lo, 0.0)
        s_star, s_upper = solve_cutoff(d, prefs)
        assert s_star == pytest.approx(0.5 * (lo + hi), abs=1e-12)
        assert s_upper == d.cond_mean_above(s_star)


def _assert_timings_agree(d, prefs):
    # Past _trivial_outcome both timings solve, and their values agree.
    pf = solve_persuasion_first(d, prefs)
    pp = solve_proposal_first(d, prefs)
    assert abs(pp.value - pf.value) <= 1e-9 * max(1.0, prefs.loss(1.0))


@settings(max_examples=25, deadline=None)
@given(st.one_of(UNIFORMS, TILTS), LOSSES)
# theta_hi near 0: proposal-first's acceptance cutoffs near theta_hi leave
# no float mass above them, and the objective reads an acceptance of 0 there.
@example(lr_tilt(UniformInterval(-1.53, 1e-10), 1e-10), Linear())
@example(lr_tilt(UniformInterval(-1.53, 1e-10), 1e-10), Exponential(5e-324))
# Under 1e-12 of mass lies above cutoffs far below theta_hi: the cutoff
# bisection must not check the mass at its probes.
@example(STEEP, Linear())
def test_timings_agree_property(d, prefs):
    _assert_timings_agree(d, prefs)


@settings(max_examples=100, deadline=None)
@given(STEEP_TILTS, LOSSES)
def test_timings_agree_on_steep_tilts(d, prefs):
    _assert_timings_agree(d, prefs)


@settings(max_examples=200, deadline=None)
@given(WIDE_UNIFORMS, LOSSES)
@example(UniformInterval(-1.0, 1.5), Linear())  # the best cutoff is the kink
@example(UniformInterval(-1e6, 1.0), Linear())
def test_timings_agree_on_wide_uniforms(d, prefs):
    _assert_timings_agree(d, prefs)


@settings(max_examples=200, deadline=None)
@given(UNIFORMS, st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), LOSSES)
def test_a_likelihood_ratio_shift_lowers_the_cutoff(base, lam1, lam2, prefs):
    """The paper's comparative statics in the prior: a likelihood-ratio
    rightward shift of F (Milgrom 1981), here from the tilt lam1 to lam2 >
    lam1 of one base, does not raise the cutoff s* or the vetoed mass F(s*),
    and does not lower the pooled mean s_upper or the Proposer's value."""
    lam1, lam2 = sorted((lam1, lam2))
    (d1, r1), (d2, r2) = ((d, solve_persuasion_first(d, prefs))
                          for d in (lr_tilt(base, lam1), lr_tilt(base, lam2)))
    assume(r1.regime is r2.regime is Regime.BINARY_CUTOFF)
    tol = 1e-9 * max(1.0, prefs.loss(1.0))
    assert r2.s_star <= r1.s_star + tol and d2.cdf(r2.s_star) <= d1.cdf(r1.s_star) + tol
    assert r2.s_upper >= r1.s_upper - tol and r2.value >= r1.value - tol


@settings(max_examples=200, deadline=None)
@given(st.one_of(UNIFORMS, TILTS), st.data())
def test_risk_aversion_lowers_the_cutoff(d, data):
    """The paper's comparative statics in the loss: a Proposer more risk
    averse in Pratt's (1964) sense, c''/c' higher on [0, 1], does not raise
    the cutoff s* or the pooled mean s_upper.  Power(gamma) has c''/c' =
    (gamma - 1)/x and Exponential(alpha) has alpha, so each family is ordered
    by its parameter; the two families are not ordered against each other."""
    family, params = data.draw(st.sampled_from([
        (Power, st.floats(1.0, 3.0)), (Exponential, st.floats(0.0, 4.0, exclude_min=True))]))
    k1, k2 = sorted(data.draw(st.tuples(params, params)))
    r1, r2 = (solve_persuasion_first(d, family(k)) for k in (k1, k2))
    assume(r1.regime is r2.regime is Regime.BINARY_CUTOFF)
    assert r2.s_star <= r1.s_star + 1e-9 and r2.s_upper <= r1.s_upper + 1e-9


def test_persuasion_first_where_rounding_hides_the_no_information_anchor():
    # On NARROW, solve_cutoff finds no interior cutoff.  With E[theta] > 0
    # that is no information, as proposal-first finds.
    d, prefs = NARROW
    with pytest.raises(NoRootError):
        solve_cutoff(d, prefs)
    pf = solve_persuasion_first(d, prefs)
    assert pf.regime is Regime.NO_INFO
    assert pf.proposal == 2.0 * d.mean() and pf.veto_prob == 0.0
    assert pf.value == indirect_u(d.mean(), prefs)
    assert solve_proposal_first(d, prefs) == pf


@pytest.mark.parametrize(
    "d,prefs",
    [
        (U11, SQ),  # interior tangency
        (lr_tilt(UniformInterval(-1.0, 0.8), 1.0), Power(1.5)),  # u'(1) = 0
        (UniformInterval(-1.0, 1.5), Linear()),  # kink corner
    ],
)
def test_solve_cutoff_runs_one_brent_without_a_nested_root_find(d, prefs, monkeypatch):
    calls, depth = [], [0]

    def counted(f, *args, **kwargs):
        assert depth[0] == 0, "a root find inside the objective"
        calls.append(args[:2])
        depth[0] += 1
        try:
            return brentq(f, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(qsolve, "brentq", counted)
    s_star, _ = solve_cutoff(d, prefs)
    assert len(calls) == 1
    assert s_star == pytest.approx(_nested_cutoff(d, prefs), abs=1e-12)


# Large CARA coefficients whose loss stays finite on [0, 1] (overflow past ~709).
LOSSES_WITH_LARGE_EXP = st.one_of(LOSSES, st.floats(650.0, 709.0).map(Exponential))


@settings(max_examples=60, deadline=None)
@given(st.one_of(UNIFORMS, TILTS), LOSSES_WITH_LARGE_EXP)
@example(U11, Exponential(700.0))
def test_binary_cutoff_answers_pass_the_price_certificate(d, prefs):
    try:
        r = solve_persuasion_first(d, prefs)
    except FullMassBelowError:
        return
    if r.regime is Regime.BINARY_CUTOFF:
        ok, viol = verify_certificate(d, prefs, r.s_star, r.s_upper)
        assert ok, viol
