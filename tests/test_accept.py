import numpy as np
import pytest

from vetopersuasion import (
    BinaryTypeEnv,
    DomainError,
    Linear,
    best_acceptable_proposal,
    phi_threshold,
    psi_cap,
    three_type_values,
)


class TestBinaryEnv:
    ENV = BinaryTypeEnv(ell=0.1, h=0.7, mu0=0.2)

    def test_p_bar(self):
        assert self.ENV.p_bar == 1.0
        assert BinaryTypeEnv(0.1, 0.45, 0.5).p_bar == pytest.approx(0.9)

    def test_phi_values(self):
        assert phi_threshold(self.ENV, 0.7) == pytest.approx(5.0 / 12.0)
        assert phi_threshold(self.ENV, 1.0) == pytest.approx(2.0 / 3.0)
        # Continuous and nonpositive through p = 2*ell.
        assert phi_threshold(self.ENV, 0.2) == 0.0
        assert phi_threshold(self.ENV, 0.1) < 0.0
        eps = 1e-9
        assert phi_threshold(self.ENV, 0.2 + eps) == pytest.approx(
            phi_threshold(self.ENV, 0.2 - eps), abs=1e-8
        )

    def test_psi_values(self):
        assert psi_cap(self.ENV, 0.5) == pytest.approx(0.8)
        assert psi_cap(self.ENV, 2.0 / 3.0) == pytest.approx(1.0, abs=1e-12)
        assert psi_cap(self.ENV, 0.7) == 1.0
        assert psi_cap(self.ENV, 0.0) == pytest.approx(0.2)
        env = BinaryTypeEnv(0.15, 0.7, 0.5)
        assert psi_cap(env, 0.2) == pytest.approx(0.4)
        assert psi_cap(env, 0.3) == pytest.approx(0.525)
        assert psi_cap(env, 0.45) == pytest.approx(0.795)

    def test_high_type_near_the_float_limit(self):
        # 2 (h - ell) overflowed for h above ~9e307: phi(h) read 0 and psi
        # returned 2 ((1 - mu) ell + mu h), far past p_bar.
        near, far = BinaryTypeEnv(0.1, 1e300, 0.3), BinaryTypeEnv(0.1, 1e308, 0.3)
        assert phi_threshold(far, far.h) == pytest.approx(0.5)
        for mu in np.linspace(0.0, 1.0, 41):
            assert psi_cap(far, mu) == psi_cap(near, mu) <= far.p_bar

    def test_psi_phi_inverse(self):
        # psi(mu) is the largest acceptable proposal: phi(psi(mu)) <= mu,
        # with equality strictly inside (0, p_bar).
        env = BinaryTypeEnv(0.15, 0.7, 0.5)
        for mu in np.linspace(0.01, 0.6, 25):
            p = psi_cap(env, mu)
            if 0.0 < p < env.p_bar:
                assert phi_threshold(env, p) == pytest.approx(mu, abs=1e-12)

    def test_psi_matches_atom_acceptance(self):
        env = BinaryTypeEnv(0.1, 0.7, 0.5)
        for mu in np.linspace(0.0, 1.0, 41):
            direct = best_acceptable_proposal((env.ell, env.h), (1.0 - mu, mu))
            assert psi_cap(env, mu) == pytest.approx(direct, abs=1e-12)


class TestBestAcceptable:
    def test_point_mass(self):
        assert best_acceptable_proposal((0.3,), (1.0,)) == pytest.approx(0.6)
        assert best_acceptable_proposal((0.8,), (1.0,)) == 1.0
        assert best_acceptable_proposal((0.0,), (1.0,)) == 0.0

    def test_three_type_closed_form(self):
        # For levels (0, 0.1, 0.5) the largest acceptable proposal solves a
        # piecewise-linear indifference and has an explicit form in the
        # weights (w0, wl) on the two lowest types.
        levels = (0.0, 0.1, 0.5)
        for w0 in np.linspace(0.02, 0.96, 50):
            for wl in np.linspace(0.01, 0.97, 50):
                if w0 + wl >= 0.999:
                    continue
                got = best_acceptable_proposal(levels, (w0, wl, 1.0 - w0 - wl))
                if w0 > 0.5:
                    expected = 0.0
                elif 2.0 * w0 + 1.6 * wl <= 1.0:
                    expected = 1.0 - w0 - 0.8 * wl
                else:
                    expected = 0.2 * wl / (2.0 * (w0 + wl) - 1.0)
                assert got == pytest.approx(expected, abs=1e-12), (w0, wl)

    def test_three_type_validation(self):
        with pytest.raises(DomainError):
            three_type_values((0.5, 0.4), (0.1, 0.2, 0.5), Linear())  # lowest != 0
        with pytest.raises(DomainError):
            three_type_values((0.5, 0.4), (0.0, 0.5, 0.5), Linear())  # ell == h
        with pytest.raises(DomainError):
            three_type_values((0.8, 0.5), (0.0, 0.1, 0.5), Linear())  # weights > 1
