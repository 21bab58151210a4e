import math

import pytest
from hypothesis import given, strategies as st

from vetopersuasion import (
    DomainError,
    ExponentialTilt,
    FiniteAtoms,
    FullMassBelowError,
    UniformInterval,
    dist_from_literal,
    lr_tilt,
)


class TestUniform:
    def test_basic_queries(self):
        d = UniformInterval(-1.0, 1.0)
        assert d.support == (-1.0, 1.0)
        assert d.mean() == 0.0
        assert d.cdf(0.0) == 0.5
        assert d.cdf(-2.0) == 0.0 and d.cdf(2.0) == 1.0
        assert d.cond_mean_above(0.0) == 0.5
        assert d.cond_mean_above(-1.0) == 0.0
        assert d.upper_partial_mean(0.0) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(DomainError):
            UniformInterval(1.0, -1.0)
        with pytest.raises(DomainError):
            UniformInterval(-2.0, 0.0)  # upper bound must be positive

    def test_no_mass_above_upper_end(self):
        d = UniformInterval(-1.0, 1.0)
        with pytest.raises(FullMassBelowError):
            d.cond_mean_above(1.0)

    @given(
        st.floats(-5.0, -0.1),
        st.floats(0.1, 5.0),
        st.floats(0.0, 1.0),
    )
    def test_cond_mean_above_bounds(self, lo, hi, frac):
        d = UniformInterval(lo, hi)
        s = lo + frac * (hi - lo) * 0.999
        m = d.cond_mean_above(s)
        assert max(s, lo) <= m <= hi

    @given(st.floats(-0.99, 0.9), st.floats(0.001, 0.05))
    def test_cond_mean_above_monotone(self, s, ds):
        d = UniformInterval(-1.0, 1.0)
        assert d.cond_mean_above(s + ds) >= d.cond_mean_above(s)


class TestAtoms:
    def test_queries(self):
        d = FiniteAtoms(((-1.0, 0.5), (1.0, 0.5)))
        assert d.mean() == 0.0
        assert d.cdf(-1.0) == 0.5
        assert d.cdf_below(-1.0) == 0.0
        # Weak conditioning: an atom exactly at s counts.
        assert d.cond_mean_above(1.0) == 1.0
        assert d.cond_mean_above(0.0) == 1.0
        assert d.cond_mean_above(-1.0) == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            FiniteAtoms(((1.0, 0.5), (0.0, 0.5)))  # not increasing
        with pytest.raises(DomainError):
            FiniteAtoms(((0.0, 0.5), (1.0, 0.6)))  # probs don't sum to 1
        with pytest.raises(DomainError):
            FiniteAtoms(((0.0, 0.0), (1.0, 1.0)))  # zero-mass atom


class TestTilt:
    def test_zero_tilt_matches_base(self):
        base = UniformInterval(-1.0, 1.0)
        d = lr_tilt(base, 0.0)
        assert isinstance(d, ExponentialTilt)
        assert d.mean() == pytest.approx(0.0, abs=1e-10)
        assert d.cdf(0.3) == pytest.approx(base.cdf(0.3), abs=1e-10)

    def test_unit_tilt_mean(self):
        # E[theta] for density ~ exp(theta) on [-1, 1] is coth(1) - 1.
        d = lr_tilt(UniformInterval(-1.0, 1.0), 1.0)
        assert d.mean() == pytest.approx(1.0 / math.tanh(1.0) - 1.0, abs=1e-10)

    def test_tilt_shifts_right(self):
        base = UniformInterval(-1.0, 1.0)
        means = [lr_tilt(base, lam).mean() for lam in (0.0, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_atom_tilt_is_exact(self):
        d = lr_tilt(FiniteAtoms(((-1.0, 0.5), (1.0, 0.5))), 1.0)
        assert isinstance(d, FiniteAtoms)
        z = math.exp(-1.0) + math.exp(1.0)
        assert d.points[1][1] == pytest.approx(math.exp(1.0) / z, abs=1e-14)

    def test_tilt_of_tilt_rejected(self):
        d = lr_tilt(UniformInterval(-1.0, 1.0), 1.0)
        with pytest.raises(DomainError):
            lr_tilt(d, 1.0)


class TestLiterals:
    def test_uniform(self):
        d = dist_from_literal("uniform:-1,1")
        assert isinstance(d, UniformInterval) and d.support == (-1.0, 1.0)

    def test_atoms(self):
        d = dist_from_literal("atoms:0:.7,0.1:.2,0.5:.1")
        assert isinstance(d, FiniteAtoms)
        assert d.points == ((0.0, 0.7), (0.1, 0.2), (0.5, 0.1))

    def test_tilt(self):
        d = dist_from_literal("tilt:uniform:-1,1;0.5")
        assert isinstance(d, ExponentialTilt) and d.lam == 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            "gaussian:0,1",
            "uniform:1",
            "atoms:0.5",
            "tilt:;1",
            "uniform:a,b",
            "uniform:0.6,inf",
            "uniform:-inf,1",
            "tilt:uniform:-1,1;nan",
        ],
    )
    def test_bad_literals(self, bad):
        with pytest.raises(DomainError):
            dist_from_literal(bad)
