import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vetopersuasion import (
    DomainError,
    ExponentialTilt,
    FiniteAtoms,
    FullMassBelowError,
    UniformInterval,
    dist_from_literal,
    lr_tilt,
)
from vetopersuasion.dist import _SERIES_U, _tilt_mean_share, _tilt_mean_share_array


def _tilt_reference(d, s):
    """cdf(s), mean, upper_partial_mean(s) and E[theta | theta >= s] of a tilt
    by adaptive quadrature, each weight shifted so its largest value is 1."""
    from scipy.integrate import quad

    lo, hi = d.support
    lam, a = d.lam, max(s, lo)

    def integral(x, y, moment, peak):
        f = lambda t: (t if moment else 1.0) * math.exp(lam * (t - peak))
        if moment and x < 0.0 < y:
            # The first moment cancels across 0; one rule over both signs
            # reports roundoff instead of converging.
            return integral(x, 0.0, moment, peak) + integral(0.0, y, moment, peak)
        if y - x <= 1e-9 * max(1.0, abs(x), abs(y)):
            # A few ulps wide, the rule's nodes collapse and it reports bad
            # behaviour; the midpoint rule is within 1e-15 of f's integral there.
            return f(0.5 * (x + y)) * (y - x)
        return quad(f, x, y, epsabs=1e-15, epsrel=1e-13, limit=200)[0]

    peak = hi if lam > 0.0 else lo
    z = integral(lo, hi, False, peak)
    cdf = integral(lo, a, False, peak) / z
    upper = integral(a, hi, True, peak) / z
    peak_above = hi if lam > 0.0 else a
    den = integral(a, hi, False, peak_above) if a < hi else 0.0
    cond = integral(a, hi, True, peak_above) / den if den > 0.0 else None
    return cdf, integral(lo, hi, True, peak) / z, upper, cond


def _assert_matches_reference(d, s):
    cdf, mean, upper, cond = _tilt_reference(d, s)
    assert d.cdf(s) == pytest.approx(cdf, abs=1e-12)
    assert d.mean() == pytest.approx(mean, abs=1e-12)
    assert d.upper_partial_mean(s) == pytest.approx(upper, abs=1e-12)
    try:
        got = d.cond_mean_above(s)
    except FullMassBelowError:
        assert 1.0 - cdf <= 2e-12
    else:
        assert got == pytest.approx(cond, abs=1e-12)


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
        with pytest.raises(DomainError, match="width must be finite"):
            UniformInterval(-1e308, 1e308)  # finite bounds, but hi - lo is inf

    def test_no_mass_above_upper_end(self):
        d = UniformInterval(-1.0, 1.0)
        with pytest.raises(FullMassBelowError):
            d.cond_mean_above(1.0)

    def test_tiny_mass_above_does_not_cancel(self):
        # 1 - cdf(0) reads 9.99978e-13 here; the mass is 1.00001e-12.
        d = UniformInterval(-0.99999, 1e-12)
        assert d.mass_above(0.0) == pytest.approx(1e-12 / (1e-12 + 0.99999), rel=1e-15)
        assert d.cond_mean_above(0.0) == 5e-13
        assert (d.mass_above(-2.0), d.mass_above(1e-12), d.mass_above(1.0)) == (1.0, 0.0, 0.0)
        t = lr_tilt(d, 3.0)
        assert t.mass_above(0.0) == pytest.approx(t._share(0.0, 1e-12), rel=0.0)
        assert t.cond_mean_above(0.0) == pytest.approx(5e-13, rel=1e-9)

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

    @pytest.mark.parametrize("s", [math.nan, -0.0, 0.0, -1.0, -3.0, 0.25])
    def test_float_clip_is_max_of_s_and_lo(self, s):
        # The clip keeps max's rule: NaN and -0.0 give the floats max gives.
        for lo in (-1.0, -0.0):
            d = UniformInterval(lo, 1.0)
            a = max(s, lo)
            upper = 0.0 if a >= 1.0 else 0.5 * (1.0 - a * a) / (1.0 - lo)
            assert repr(d.upper_partial_mean(s)) == repr(upper)
            if d.mass_above(s) > 1e-12:
                assert repr(d.cond_mean_above(s)) == repr(0.5 * (a + 1.0))


class TestAtoms:
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

    def test_atom_tilt_does_not_overflow(self):
        d = lr_tilt(FiniteAtoms(((0.1, 0.8), (0.7, 0.2))), 1000.0)
        assert d.points[1][1] == pytest.approx(1.0, abs=1e-14)
        with pytest.raises(DomainError):  # the low atom's weight underflows to 0
            lr_tilt(FiniteAtoms(((0.1, 0.8), (0.7, 0.2))), 2000.0)

    # Supports as the quad-solve benchmark draws them.
    @settings(deadline=None)
    @given(
        st.floats(-2.0, -0.05),
        st.floats(0.0, 1.0, exclude_min=True),
        st.floats(-50.0, 50.0),
        st.floats(0.0, 1.0),
    )
    @example(-2.0, 1.0, 16.0, 8.9e-16)  # cdf over an interval 12 ulps wide
    def test_closed_forms_match_quadrature(self, lo, hi, lam, frac):
        d = lr_tilt(UniformInterval(lo, hi), lam)
        _assert_matches_reference(d, lo + frac * (hi - lo))

    @pytest.mark.parametrize("lam", [0.0, 1e-12, -1e-12])
    def test_near_zero_tilt_matches_base(self, lam):
        base = UniformInterval(-1.5, 0.8)
        d = lr_tilt(base, lam)
        assert d.mean() == pytest.approx(base.mean(), abs=1e-12)
        for s in (-1.5, -0.7, 0.0, 0.79):
            assert d.cdf(s) == pytest.approx(base.cdf(s), abs=1e-12)
            assert d.upper_partial_mean(s) == pytest.approx(base.upper_partial_mean(s), abs=1e-12)
            assert d.cond_mean_above(s) == pytest.approx(base.cond_mean_above(s), abs=1e-12)

    # lam * (hi - lo) = +-1e-6 * 2.3, and just inside and outside the switch
    # between the series and the direct form of the conditional mean.
    @pytest.mark.parametrize(
        "lam",
        [1e-6, -1e-6] + [sign * _SERIES_U * (1.0 + eps) / 2.3
                         for sign in (1.0, -1.0) for eps in (-1e-9, 1e-9)],
    )
    def test_small_tilt_and_series_switch_match_quadrature(self, lam):
        d = lr_tilt(UniformInterval(-1.5, 0.8), lam)
        for s in (-1.5, -0.7, 0.0, 0.79):
            _assert_matches_reference(d, s)

    @pytest.mark.parametrize("u", [_SERIES_U, -_SERIES_U])
    def test_series_switch_is_continuous(self, u):
        inside = math.nextafter(u, 0.0)
        assert abs(_tilt_mean_share(inside) - _tilt_mean_share(u)) <= 2e-15

    @pytest.mark.parametrize("lam", [800.0, -800.0])
    def test_extreme_tilt_is_finite_and_ordered(self, lam):
        d = lr_tilt(UniformInterval(-1.0, 1.0), lam)
        xs = [-1.0 + k / 500.0 for k in range(1001)]
        cdfs = [d.cdf(x) for x in xs]
        assert all(math.isfinite(c) for c in cdfs)
        assert all(b >= a for a, b in zip(cdfs, cdfs[1:]))
        assert math.isfinite(d.mean())
        for s in xs:
            assert math.isfinite(d.upper_partial_mean(s))
            try:
                m = d.cond_mean_above(s)
            except FullMassBelowError:
                continue
            assert s <= m <= 1.0

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

    @pytest.mark.parametrize("text,reason", [
        ("uniform:-1e308,1e308", "support width must be finite"),
        ("atoms:0:.5,0:.5", "atom locations must be strictly increasing"),
    ])
    def test_bad_literal_names_the_constructors_reason(self, text, reason):
        with pytest.raises(DomainError, match=f"^bad {text.split(':')[0]} literal '{text}': {reason}"):
            dist_from_literal(text)


EPS = np.finfo(float).eps
# lam * (hi - lo): around the series switch at +-0.25, under the flat cut at
# 1e-17, out to +-700, and anywhere between.
TILT_U = st.one_of(
    st.floats(-0.3, 0.3),
    st.floats(-1e-17, 1e-17),
    st.floats(-700.0, 700.0),
    st.sampled_from([sign * x for sign in (1.0, -1.0) for x in (
        _SERIES_U, math.nextafter(_SERIES_U, 0.0), math.nextafter(_SERIES_U, 1.0), 700.0, 1e-300)]),
)


class TestArrayForms:
    """cdf and upper_partial_mean on a numpy array against the float code at
    each point, with every floating-point warning an error."""

    @staticmethod
    def _both(d, fracs):
        lo, hi = d.support
        xs = [lo + f * (hi - lo) for f in fracs] + [lo, hi]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            arrays = d.cdf(np.array(xs)), d.upper_partial_mean(np.array(xs))
        return xs, arrays, (np.array([d.cdf(x) for x in xs]),
                            np.array([d.upper_partial_mean(x) for x in xs]))

    FRACS = st.lists(st.floats(-0.5, 1.5), max_size=30)

    @given(st.floats(1e-3, 3.0), st.floats(1e-3, 4.0), FRACS)
    def test_uniform_arrays_are_the_float_code_bit_for_bit(self, hi, width, fracs):
        _, (F, T), (f, t) = self._both(UniformInterval(hi - width, hi), fracs)
        assert F.tobytes() == f.tobytes() and T.tobytes() == t.tobytes()

    @settings(deadline=None)
    @given(st.floats(1e-3, 3.0), st.floats(1e-3, 4.0), TILT_U, FRACS)
    def test_tilt_arrays_match_the_float_code(self, hi, width, u, fracs):
        # numpy's exp and expm1 may differ from libm's by an ulp.  cdf keeps
        # that within 4 ulps.  upper_partial_mean is the mass above, within
        # 4 ulps, times a + (hi - a) * _tilt_mean_share, whose share is within
        # 4 ulps of 1 (next test): within 8 ulps at the scale of
        # mass * (|lo| + |hi|).
        d = ExponentialTilt(UniformInterval(hi - width, hi), u / width)
        xs, (F, T), (f, t) = self._both(d, fracs)
        mass = np.array([d.mass_above(x) for x in xs])
        assert np.all(np.abs(F - f) <= 4 * EPS * f)
        assert np.all(np.abs(T - t) <= 8 * EPS * mass * (abs(hi - width) + hi))

    @pytest.mark.parametrize("lam", [1e308, -1e308])
    def test_a_huge_tilt_overflows_silently_as_on_floats(self, lam):
        # lam * (hi - lo) overflows to inf: the exponents read -inf.
        _, (F, T), (f, t) = self._both(ExponentialTilt(UniformInterval(-1.0, 1.0), lam),
                                       [k / 8.0 for k in range(-2, 11)])
        assert F.tolist() == f.tolist() and T.tolist() == t.tolist()

    @given(st.lists(st.one_of(TILT_U, st.floats(-1e6, 1e6)), max_size=30))
    def test_tilt_mean_share_on_an_array_is_within_4_ulps_of_1(self, us):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _tilt_mean_share_array(np.array(us, dtype=float))
        assert np.all(np.abs(got - [_tilt_mean_share(u) for u in us]) <= 4 * EPS)


def _share_per_call(d, x, y):
    """ExponentialTilt._share on floats as each call once computed it: -|lam|,
    the flat check and the normaliser recomputed from base and lam."""
    lo, hi = d.base.support
    if abs(d.lam) * (hi - lo) < 1e-17:
        return (y - x) / (hi - lo)
    k = -abs(d.lam)
    gap = hi - y if d.lam > 0.0 else x - lo
    return math.exp(k * gap) * math.expm1(k * (y - x)) / math.expm1(k * (hi - lo))


def _mean_from_per_call(d, a):
    _, hi = d.base.support
    return a + (hi - a) * _tilt_mean_share(d.lam * (hi - a))


def _queries_per_call(d, s):
    """cdf(s), mass_above(s), upper_partial_mean(s), mean() and
    cond_mean_above(s) (or FullMassBelowError) by the per-call formulas;
    cond_mean_above clips s at hi, as the unclipped form overflowed above the
    support under a huge tilt."""
    lo, hi = d.base.support
    a = min(max(s, lo), hi)
    cond = (FullMassBelowError if _share_per_call(d, a, hi) <= 1e-12
            else _mean_from_per_call(d, a))
    return (_share_per_call(d, lo, a), _share_per_call(d, a, hi),
            _share_per_call(d, a, hi) * _mean_from_per_call(d, a),
            _mean_from_per_call(d, lo), cond)


def _queries(d, s):
    try:
        cond = d.cond_mean_above(s)
    except FullMassBelowError:
        cond = FullMassBelowError
    return d.cdf(s), d.mass_above(s), d.upper_partial_mean(s), d.mean(), cond


class TestTiltKernel:
    """Constants bound at construction: every float query is the per-call
    formula's answer bit for bit, and no query walks back to the base."""

    @settings(deadline=None)
    @given(
        st.floats(1e-3, 3.0),
        st.floats(1e-3, 4.0),
        st.one_of(st.floats(-50.0, 50.0),
                  st.sampled_from([sign * x for sign in (1.0, -1.0)
                                   for x in (0.0, 1e-300, 700.0, 1e308)])),
        st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=10),
    )
    def test_float_queries_are_the_per_call_formulas_bit_for_bit(self, hi, width, lam, fracs):
        d = ExponentialTilt(UniformInterval(hi - width, hi), lam)
        assert d.support == d.base.support
        for s in [hi - width, hi] + [hi - width + f * width for f in fracs]:
            assert list(map(repr, _queries(d, s))) == list(map(repr, _queries_per_call(d, s)))

    @pytest.mark.parametrize("lam", [800.0, -800.0, 1e308, -1e308])
    @pytest.mark.parametrize("s", [1.0, 1.0000000000000002, 2.0])
    def test_no_mass_above_the_support_under_a_huge_tilt(self, lam, s):
        # Unclipped, s > hi made expm1(-|lam| (hi - s)) overflow.
        with pytest.raises(FullMassBelowError):
            lr_tilt(UniformInterval(-1.0, 1.0), lam).cond_mean_above(s)

    def test_queries_read_no_base_support_and_one_expm1_per_cdf(self, monkeypatch):
        d = lr_tilt(UniformInterval(-1.5, 0.6), 0.5)
        reads, expm1s = [0], [0]
        support = UniformInterval.support.fget

        def counted_support(self):
            reads[0] += 1
            return support(self)

        def counted_expm1(x, plain=math.expm1):
            expm1s[0] += 1
            return plain(x)

        monkeypatch.setattr(UniformInterval, "support", property(counted_support))
        monkeypatch.setattr(math, "expm1", counted_expm1)
        for k in range(200):  # 1,000 queries
            s = -1.6 + k * 0.011
            d.cdf(s), d.mass_above(s), d.upper_partial_mean(s), d.mean()
            try:
                d.cond_mean_above(s)
            except FullMassBelowError:
                pass
        assert d.support == (-1.5, 0.6) and reads[0] == 0
        expm1s[0] = 0
        for k in range(1000):
            d.cdf(-1.5 + k * 0.002)
        assert expm1s[0] == 1000  # the numerator's; the normaliser is bound
