import numpy as np
import pytest

from vetopersuasion import (
    AssumptionViolatedError,
    BinaryTypeEnv,
    DegenerateGridError,
    Linear,
    Power,
    concavify,
    phi_threshold,
    psi_cap,
    quasiconvexity_check,
    solve_persuasion_first_binary,
    solve_proposal_first_binary,
    three_type_values,
    uhat,
    utilde,
)

LIN = Linear()
EX1 = BinaryTypeEnv(0.1, 0.7, 0.2)  # phi(h) = 5/12, phi(1) = 2/3
FIG5 = lambda mu0: BinaryTypeEnv(0.15, 0.7, mu0)  # noqa: E731


def test_uhat_values():
    assert uhat(BinaryTypeEnv(0.1, 0.7, 0.5), LIN, 0.0) == pytest.approx(-0.8)
    assert uhat(BinaryTypeEnv(0.1, 0.45, 0.5), LIN, 1.0) == pytest.approx(-0.1)
    assert uhat(EX1, LIN, 2.0 / 3.0) == pytest.approx(0.0, abs=1e-12)
    assert uhat(EX1, LIN, 0.9) == 0.0


class TestConcavify:
    def test_affine_input(self):
        pts = [(x, 2.0 * x - 1.0) for x in np.linspace(0.0, 1.0, 11)]
        env, val, supports = concavify(pts, 0.35)
        assert val == pytest.approx(-0.3, abs=1e-12)
        assert all(env.value(x) == pytest.approx(y, abs=1e-12) for x, y in pts)

    def test_tent(self):
        env, val, supports = concavify([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)], 0.25)
        assert val == pytest.approx(0.5)
        assert {mu for mu, _ in supports} == {0.0, 0.5}

    def test_degenerate(self):
        with pytest.raises(DegenerateGridError):
            concavify([(0.5, 1.0)], 0.5)

    def test_envelope_invariants(self):
        mus = np.linspace(0.0, 1.0, 501)
        pts = [(m, uhat(EX1, LIN, m)) for m in mus]
        env, _, _ = concavify(pts, 0.2)
        xs = [b[0] for b in env.breakpoints]
        ys = [b[1] for b in env.breakpoints]
        slopes = np.diff(ys) / np.diff(xs)
        assert np.all(np.diff(slopes) <= 1e-9)  # concave
        assert all(env.value(m) >= v - 1e-12 for m, v in pts)  # majorizes

    def test_weights_average_to_mu0(self):
        mus = np.linspace(0.0, 1.0, 401)
        pts = [(m, uhat(EX1, LIN, m)) for m in mus]
        _, _, supports = concavify(pts, 0.2)
        assert sum(w for _, w in supports) == pytest.approx(1.0)
        assert sum(mu * w for mu, w in supports) == pytest.approx(0.2)


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
        grid = [(m, uhat(env, LIN, m)) for m in np.linspace(0.0, 1.0, 4001)] + [
            (mu_b, uhat(env, LIN, mu_b))
        ]
        _, split_val, _ = concavify(grid, mu_b)
        assert abs(r.value - split_val) <= 1e-9

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


def test_quasiconvexity():
    # Linear loss admits a closed-form argument; the scan must agree.
    assert quasiconvexity_check(LIN, 0.15)
    assert quasiconvexity_check(LIN, 0.01)
    assert quasiconvexity_check(LIN, 0.45)
    # Curved losses are decided by the scan itself: the quadratic ratio with
    # ell = 0.1 has a genuine interior local maximum near p = 0.915, so these
    # are recorded verdicts, not assertions of shape.
    assert quasiconvexity_check(Power(2.0), 0.1) in (True, False)
    assert quasiconvexity_check(Power(6.0), 0.3) in (True, False)


def test_proposal_first_rejects_non_quasiconvex_ratio():
    prefs = Power(2.0)
    if not quasiconvexity_check(prefs, 0.1):
        env = BinaryTypeEnv(0.1, 0.7, 0.3)
        with pytest.raises(AssumptionViolatedError):
            solve_proposal_first_binary(env, prefs)


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
