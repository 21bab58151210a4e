import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vetopersuasion import (
    DomainError,
    Linear,
    Regime,
    UniformInterval,
    solve_persuasion_first,
)
from vetopersuasion.closedform import (
    kappa,
    linear_case_uniform,
    quadratic_case_uniform,
    u_bi,
    u_fl1,
    u_fl2,
    u_no,
)


def test_kappa_endpoint():
    assert abs(kappa(1.0) + 1.0 / 3.0) <= 1e-12


def test_kappa_monotone_and_negative():
    his = np.linspace(0.05, 1.0, 40)
    ks = [kappa(h) for h in his]
    assert all(k < 0.0 for k in ks)
    assert all(b <= a for a, b in zip(ks, ks[1:]))  # cutoff falls as hi grows
    assert all(a + h1 <= b + h2 for (a, h1), (b, h2) in zip(zip(ks, his), zip(ks[1:], his[1:])))


def test_values_at_minus_one():
    assert u_no(-1.0) == -1.0
    assert u_fl1(-1.0) == pytest.approx(-19.0 / 27.0, abs=1e-12)
    assert u_fl2(-1.0) == pytest.approx(-7.0 / 12.0, abs=1e-12)
    assert u_bi(-1.0) == pytest.approx(-11.0 / 27.0, abs=1e-12)


def test_domain_guards():
    for fn in (u_no, u_fl1, u_fl2, u_bi):
        with pytest.raises(DomainError):
            fn(0.0)
        with pytest.raises(DomainError):
            fn(-2.5)
    with pytest.raises(DomainError):
        kappa(1.2)


@pytest.mark.parametrize("theta_lo", [-2.0, -1.5, -1.0, -0.5, -0.1])
def test_u_fl1_matches_grid_max(theta_lo):
    # Committed proposal p against a fully informed Vetoer: accepted iff
    # theta >= p/2, so the expected payoff is explicit and u_fl1 must be
    # its maximum over p.
    span = 1.0 - theta_lo

    def value(p):
        accept = (1.0 - 0.5 * p) / span
        return accept * -((1.0 - p) ** 2) + (1.0 - accept) * -1.0

    best = max(value(p) for p in np.linspace(0.0, 1.0, 20001))
    assert u_fl1(theta_lo) == pytest.approx(best, abs=1e-8)


@pytest.mark.parametrize("theta_lo", [-2.0, -1.0, -0.3])
def test_u_fl2_matches_integral(theta_lo):
    # Proposal tailored to a revealed theta: payoff -(1-2 theta)^2 for
    # theta in (0, 1/2), 0 above, -1 below.
    ts = np.linspace(theta_lo, 1.0, 400001)
    u = np.where(ts <= 0.0, -1.0, np.where(ts >= 0.5, 0.0, -((1.0 - 2.0 * ts) ** 2)))
    trap = getattr(np, "trapezoid", None) or np.trapz
    assert u_fl2(theta_lo) == pytest.approx(trap(u, ts) / (1.0 - theta_lo), abs=1e-6)


def test_u_bi_regime_switch():
    # Above the optimal-cutoff threshold -1/3 no experiment helps.
    assert u_bi(-0.2) == u_no(-0.2)
    assert u_bi(-0.5) > u_no(-0.5)


def test_quadratic_case_uniform():
    cut, prop = quadratic_case_uniform(-1.0, 1.0)
    assert cut == pytest.approx(-1.0 / 3.0)
    assert prop == pytest.approx(2.0 / 3.0)
    cut, prop = quadratic_case_uniform(-0.2, 1.0)
    assert cut is None  # inside the no-information region
    assert prop == pytest.approx(0.8)


def test_linear_case_uniform():
    # hi <= 1: expected-policy maximizer reveals theta >= 0.
    cut, acc = linear_case_uniform(-1.0, 1.0)
    assert cut == 0.0 and acc == pytest.approx(0.5)
    # hi > 1: cutoff targets conditional mean 1/2 for proposal 1.
    cut, acc = linear_case_uniform(-1.0, 2.0)
    assert cut == pytest.approx(-1.0)
    assert acc == pytest.approx(1.0)
    cut, acc = linear_case_uniform(-3.0, 2.0)
    assert cut == pytest.approx(-1.0)
    assert acc == pytest.approx(3.0 / 5.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(-2.0, 0.0, exclude_max=True), st.floats(0.0, 2.0, exclude_min=True))
@example(-1.0, 1.0)  # hi = 1: the cutoff is 0 on both sides
@example(-3.0 / 4.0, 7.0 / 4.0)  # cut = theta_lo: the ideal is accepted
@example(-2.0, 5e-324)  # no float mass above 0: the solver keeps the status quo
@example(-2.2250738585072014e-308, 0.6821104147023181)  # 2 (mean - lo) rounds to 2 mean
@example(-1.1125369292536007e-308, 1.0)  # the mean rounds to 1/2
@example(-1.0, 1.9999999999999998)  # the corner root lies 2 ulp above theta_lo
@example(-0.99999, 1e-12)  # 1 - cdf(0) reads 9.99978e-13 for a mass of 1.00001e-12
# A(E[theta]) rounds below theta_lo although u is affine; 1.3e-7 of mass lies below 0.
@example(-5.678096059091036e-20, 4.296198146497436e-13)
def test_linear_case_uniform_matches_the_solver(lo, hi):
    cut, accept = linear_case_uniform(lo, hi)
    r = solve_persuasion_first(UniformInterval(lo, hi), Linear())
    if r.regime is Regime.STATUS_QUO_ONLY:
        # At most 1e-12 of mass lies at or above 0, so the solver keeps the
        # status quo: the closed form's acceptance probability is that mass.
        assert cut == 0.0 and accept <= 1e-12 and r.veto_prob == 1.0
        return
    if cut == lo:
        assert r.regime is Regime.IDEAL_ACCEPTED
    # Without information the cutoff sits at theta_lo; where |theta_lo| is
    # below rounding the solver can read no information for a cutoff at 0.
    s_star = r.s_star if r.regime is Regime.BINARY_CUTOFF else lo
    assert abs(s_star - cut) <= 1e-9
    assert abs(1.0 - r.veto_prob - accept) <= 1e-9
