import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vetopersuasion import (
    AssumptionViolatedError,
    BinaryTypeEnv,
    Exponential,
    Linear,
    Power,
    phi_threshold,
    psi_cap,
    solve_persuasion_first_binary,
    solve_proposal_first_binary,
    three_type_values,
    uhat,
    utilde,
)
from vetopersuasion.oracle import _grid_split, proposal_first_grid, split_search

LIN = Linear()
EX1 = BinaryTypeEnv(0.1, 0.7, 0.2)  # phi(h) = 5/12, phi(1) = 2/3
FIG5 = lambda mu0: BinaryTypeEnv(0.15, 0.7, mu0)  # noqa: E731
# Two atoms at a tiny scale (h = 3.5e-4) where an absolute hull tolerance
# kept non-hull points and persuasion-first fell below proposal-first.
TINY = BinaryTypeEnv(9.030187855084931e-05, 0.00034729390625454215, 0.26764105307386477)
LOSSES = st.one_of(
    st.just(LIN),
    st.floats(1.0, 6.0).map(Power),
    st.floats(0.0, 4.0, exclude_min=True).map(Exponential),
)


def test_uhat_values():
    assert uhat(BinaryTypeEnv(0.1, 0.7, 0.5), LIN, 0.0) == pytest.approx(-0.8)
    assert uhat(BinaryTypeEnv(0.1, 0.45, 0.5), LIN, 1.0) == pytest.approx(-0.1)
    assert uhat(EX1, LIN, 2.0 / 3.0) == pytest.approx(0.0, abs=1e-12)
    assert uhat(EX1, LIN, 0.9) == 0.0


class TestPersuasionFirstBinary:
    def test_no_info_region(self):
        env = BinaryTypeEnv(0.1, 0.7, 0.5)
        r = solve_persuasion_first_binary(env, LIN)
        assert r.regime == "NoInfo"
        assert r.posteriors[0][2] == pytest.approx(0.8)
        assert r.value == pytest.approx(-0.2)

    def test_split_region(self):
        r = solve_persuasion_first_binary(EX1, LIN)
        assert r.regime == "Split"
        mus = sorted(mu for mu, _, _ in r.posteriors)
        assert mus[0] == pytest.approx(0.0, abs=1e-3)
        assert mus[1] == pytest.approx(5.0 / 12.0, abs=1e-3)
        assert r.value == pytest.approx(-0.56, abs=1e-9)
        weights = {round(mu, 3): w for mu, w, _ in r.posteriors}
        assert weights[0.0] == pytest.approx(0.52, abs=1e-6)

    def test_degenerate_low_belief(self):
        r = solve_persuasion_first_binary(BinaryTypeEnv(0.0, 0.6, 0.0), LIN)
        assert r.value == pytest.approx(-1.0)
        assert r.posteriors[0][2] == pytest.approx(0.0)

    def test_boundary_continuity(self):
        # At mu0 = phi(h) the no-info and split values coincide.
        mu_b = 5.0 / 12.0
        env = BinaryTypeEnv(0.1, 0.7, mu_b)
        r = solve_persuasion_first_binary(env, LIN)
        assert r.regime == "NoInfo"
        split_val, _ = split_search(env, LIN, 2001)
        assert abs(r.value - split_val) <= 1e-9

    def test_tiny_scale_beats_proposal_first(self):
        r = solve_persuasion_first_binary(TINY, LIN)
        assert r.regime == "Split"
        assert r.value >= solve_proposal_first_binary(TINY, LIN)[1] - 1e-10

    @pytest.mark.parametrize(
        "env", [EX1, TINY, BinaryTypeEnv(2.593991807852706e-07, 5.230432808774323e-07, 1e-3)]
    )
    def test_linear_split_is_at_phi_h_exactly(self, env):
        # A Linear uhat is convex below phi(h), so the secant from 0 still
        # rises there; at a tiny scale a search could not tell this apart.
        r = solve_persuasion_first_binary(env, LIN)
        assert r.posteriors[1][0] == phi_threshold(env, env.h)

    def test_interior_tangency(self):
        # Power(2), ell = 1/4: uhat turns concave before phi(h) = 4/13, and
        # the secant from (0, uhat(0)) touches it at t = 3/10.
        env = BinaryTypeEnv(0.25, 0.9, 0.15)
        assert phi_threshold(env, env.h) == pytest.approx(4.0 / 13.0, abs=1e-15)
        r = solve_persuasion_first_binary(env, Power(2.0))
        assert r.regime == "Split"
        assert r.value == pytest.approx(-0.1328125, abs=1e-12)
        (mu_a, w_a, _), (mu_b, w_b, _) = r.posteriors
        assert mu_a == 0.0 and mu_b == pytest.approx(0.3, abs=1e-8)
        assert w_a == pytest.approx(0.5, abs=1e-8) and w_b == pytest.approx(0.5, abs=1e-8)
        past = solve_persuasion_first_binary(BinaryTypeEnv(0.25, 0.9, 0.305), Power(2.0))
        assert past.regime == "NoInfo"

    @pytest.mark.parametrize(
        "env, prefs",
        [
            (EX1, LIN),
            (TINY, LIN),
            (BinaryTypeEnv(0.25, 0.9, 0.15), Power(2.0)),  # interior tangency
            (BinaryTypeEnv(0.0, 0.3, 0.2), Power(4.0)),  # ell = 0: psi jumps at 1/2
            (BinaryTypeEnv(0.3, 1.5, 0.1), Exponential(3.0)),  # h > 1: k = phi(p_bar)
            (TINY, Exponential(3.0)),
        ],
    )
    def test_matches_envelope_oracle(self, env, prefs):
        r = solve_persuasion_first_binary(env, prefs)
        mus = np.union1d(np.linspace(0.0, 1.0, 101), [env.mu0, *(mu for mu, _, _ in r.posteriors)])
        assert _grid_split(env, prefs, mus)[0] == pytest.approx(r.value, abs=1e-12)

    def test_mixture_consistency(self):
        r = solve_persuasion_first_binary(EX1, LIN)
        assert sum(w for _, w, _ in r.posteriors) == pytest.approx(1.0)
        assert sum(mu * w for mu, w, _ in r.posteriors) == pytest.approx(EX1.mu0)
        for mu, _, p in r.posteriors:
            assert p == pytest.approx(psi_cap(EX1, mu))


class TestUtilde:
    ENV = FIG5(0.3)

    def test_values(self):
        assert utilde(self.ENV, LIN, 0.7) == pytest.approx(-0.4225)
        psi0 = psi_cap(self.ENV, 0.3)
        assert psi0 == pytest.approx(0.525)
        assert utilde(self.ENV, LIN, psi0) == pytest.approx(-0.475)
        # Below psi(mu0) no persuasion is needed and the payoff is exact.
        assert utilde(self.ENV, LIN, 0.4) == pytest.approx(-0.6)

    def test_surely_accepted_at_psi_mu0_at_a_large_scale(self):
        # phi(psi(mu0)) rounds above mu0 here; branching on it sent p =
        # psi(mu0) down the odds branch, which cancelled to -9.62e111.
        prefs = Exponential(300.0)
        p = psi_cap(EX1, EX1.mu0)
        assert phi_threshold(EX1, p) > EX1.mu0
        assert EX1.psi_mu0 == p
        assert utilde(EX1, prefs, p) == -prefs.loss(1.0 - p)
        assert utilde(EX1, prefs, p) == pytest.approx(-1.17e93, rel=1e-2)

    def test_shape(self):
        psi0 = psi_cap(self.ENV, 0.3)
        up = np.linspace(2.0 * self.ENV.ell, psi0 - 1e-9, 200)
        vals = [utilde(self.ENV, LIN, p) for p in up]
        assert all(b > a for a, b in zip(vals, vals[1:]))  # increasing
        down = np.linspace(max(psi0, self.ENV.h) + 1e-9, self.ENV.p_bar, 200)
        vals = [utilde(self.ENV, LIN, p) for p in down]
        assert all(b < a for a, b in zip(vals, vals[1:]))  # decreasing


class TestProposalFirstBinary:
    def test_three_panels(self):
        p, v, e = solve_proposal_first_binary(FIG5(0.2), LIN)
        assert p == pytest.approx(0.4) and v == pytest.approx(-0.6) and e is None
        p, v, e = solve_proposal_first_binary(FIG5(0.3), LIN)
        assert p == pytest.approx(0.7) and v == pytest.approx(-0.4225)
        assert e is not None and {round(mu, 6) for mu, _ in e} == {0.0, round(4.0 / 11.0, 6)}
        p, v, e = solve_proposal_first_binary(FIG5(0.45), LIN)
        assert p == pytest.approx(0.795) and v == pytest.approx(-0.205) and e is None

    def test_experiment_is_bayes_plausible(self):
        _, _, e = solve_proposal_first_binary(FIG5(0.3), LIN)
        assert sum(w for _, w in e) == pytest.approx(1.0)
        assert sum(mu * w for mu, w in e) == pytest.approx(0.3)

    def test_sure_acceptance_region(self):
        env = BinaryTypeEnv(0.15, 0.7, 0.8)  # mu0 > phi(p_bar) = 7/11
        p, v, e = solve_proposal_first_binary(env, LIN)
        assert p == env.p_bar and v == pytest.approx(0.0) and e is None

    def test_h_above_one(self):
        # h > 1 >= p_bar: the first candidate is p_bar, not h.
        p, v, e = solve_proposal_first_binary(BinaryTypeEnv(0.1, 1.5, 0.1), LIN)
        assert p == 1.0 and v == pytest.approx(-0.775, abs=1e-12)
        assert e[0] == (0.0, pytest.approx(0.775)) and e[1] == pytest.approx((4.0 / 9.0, 0.225))

    def test_tripwire_refuses_interior_peak(self):
        # Power(6) bends the payoff to a peak near p = 0.600, inside
        # (psi(mu0), h), which beats both candidates by 2.6e-3.
        with pytest.raises(AssumptionViolatedError):
            solve_proposal_first_binary(BinaryTypeEnv(0.02, 0.8, 0.25), Power(6.0))

    def test_tripwire_refuses_power_two_with_h_near_one(self):
        # Power(2) with h near 1 bends the payoff to an interior peak too:
        # the independent grid beats both candidates, so the refusal is real.
        env, prefs = BinaryTypeEnv(0.07756362406469518, 1.1035318709189528,
                                   0.2444637757937972), Power(2.0)
        with pytest.raises(AssumptionViolatedError):
            solve_proposal_first_binary(env, prefs)
        candidates = max(utilde(env, prefs, min(env.h, env.p_bar)), utilde(env, prefs, env.psi_mu0))
        assert proposal_first_grid(env, prefs, 4001)[1] > candidates + 1e-6 * max(1.0, prefs.loss(1.0))

    def test_surely_accepted_candidate_at_a_large_scale(self):
        # phi(psi(mu0)) rounds above mu0 here; the candidate psi(mu0) is
        # still worth -c(1 - psi(mu0)), the no-information value that
        # persuasion-first reports for the same instance.
        prefs = Exponential(300.0)
        p, v, e = solve_proposal_first_binary(EX1, prefs)
        pf = solve_persuasion_first_binary(EX1, prefs)
        assert e is None and pf.regime == "NoInfo"
        assert p == psi_cap(EX1, EX1.mu0) and v == -prefs.loss(1.0 - p)
        assert v == pytest.approx(pf.value, rel=1e-12)
        # The payoff drops off a cliff just past psi(mu0); the oracle's
        # polish stops short of it and reaches the solver's value.
        assert proposal_first_grid(EX1, prefs, 4001)[1] == pytest.approx(v, rel=1e-9)

    def test_curved_loss_solves(self):
        env, prefs = BinaryTypeEnv(0.1, 0.7, 0.3), Power(2.0)
        p, v, e = solve_proposal_first_binary(env, prefs)
        assert p == 0.7 and v == pytest.approx(-0.3448, abs=1e-12) and e is not None
        assert proposal_first_grid(env, prefs, 4001)[1] <= v + 1e-6


@settings(max_examples=50, deadline=None)
@given(
    LOSSES,
    st.floats(-9.0, 0.4).map(lambda e: 10.0 ** e),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(0.0, 1.0),
)
def test_proposal_first_binary_property(prefs, h, ell_share, mu0):
    assume(ell_share * h < h)
    env = BinaryTypeEnv(ell_share * h, h, mu0)
    try:
        p_opt, value, e = solve_proposal_first_binary(env, prefs)
    except AssumptionViolatedError:  # the tripwire's refusal
        assume(False)
    assert 0.0 <= p_opt <= env.p_bar
    if e is not None:
        assert sum(w for _, w in e) == pytest.approx(1.0, abs=1e-12)
        assert sum(mu * w for mu, w in e) == pytest.approx(mu0, abs=1e-12)
    assert proposal_first_grid(env, prefs, 1001)[1] <= value + 1e-6 * max(1.0, prefs.loss(1.0))


@settings(max_examples=50, deadline=None)
@given(
    LOSSES,
    st.floats(-9.0, 0.5).map(lambda e: 10.0 ** e),
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(0.0, 1.0),
)
# The secant peaks within ell^2 of k, closer than the search resolves.
@example(Power(2.0), 1.0, 1e-10, 0.25)
# expm1(alpha x) / alpha is a step function for a subnormal alpha.
@example(Exponential(5e-324), 10.0 ** -0.5, 0.0, 0.5)
def test_persuasion_first_binary_property(prefs, h, ell_share, mu0):
    assume(ell_share * h < h)
    env = BinaryTypeEnv(ell_share * h, h, mu0)
    r = solve_persuasion_first_binary(env, prefs)
    assert sum(w for _, w, _ in r.posteriors) == pytest.approx(1.0, abs=1e-12)
    assert sum(mu * w for mu, w, _ in r.posteriors) == pytest.approx(mu0, abs=1e-12)
    # No pair of grid beliefs splits mu0 better; the polished split, which
    # resolves t about as finely as the solver, agrees as vps oracle checks.
    assert r.value >= _grid_split(env, prefs, np.union1d(np.linspace(0.0, 1.0, 1001), [mu0]))[0] - 1e-12
    best, _ = split_search(env, prefs, 1001)
    assert abs(best - r.value) <= 1e-6 * max(1.0, prefs.loss(1.0))
    try:
        proposal_first = solve_proposal_first_binary(env, prefs)[1]
    except AssumptionViolatedError:  # the tripwire's refusal
        assume(False)
    assert r.value >= proposal_first - 1e-10


def test_timing_order_binary():
    for mu0 in np.linspace(0.02, 0.95, 20):
        env = BinaryTypeEnv(0.1, 0.7, mu0)
        pf = solve_persuasion_first_binary(env, LIN).value
        pp = solve_proposal_first_binary(env, LIN)[1]
        assert pf >= pp - 1e-10


class TestThreeTypes:
    PRIOR = (0.7, 0.2)
    LEVELS = (0.0, 0.1, 0.5)

    def test_benchmark_instance(self):
        r = three_type_values(self.PRIOR, self.LEVELS, LIN)
        assert r.v_noinfo == pytest.approx(-1.0)
        assert r.v_fullinfo == pytest.approx(-0.86, abs=1e-12)
        assert r.v_bestbinary == pytest.approx(-13.0 / 15.0, abs=1e-9)
        assert r.branch == "reveal-mid"
        assert r.sigma_star[1] == pytest.approx(5.0 / 6.0, abs=1e-6)
        assert r.branch_values[0] == pytest.approx(-0.88, abs=1e-9)

    def test_dominance(self):
        r = three_type_values(self.PRIOR, self.LEVELS, LIN)
        assert r.v_fullinfo > r.v_bestbinary > r.v_noinfo

    def test_a_high_type_above_one_does_not_cancel(self):
        # A type at h >= 1 treats every proposal up to 1 alike, so h = 1 and
        # a huge h are the same instance.
        for prefs in (LIN, Power(2.0), Exponential(2.0)):
            r = [three_type_values((0.5, 0.3), (0.0, 0.1, h), prefs) for h in (1.0, 1e5, 1e200)]
            assert r[0] == r[1] == r[2]
