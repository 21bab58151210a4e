import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vetopersuasion import (
    BinaryTypeEnv,
    DomainError,
    Exponential,
    Linear,
    Power,
    acceptance_root,
    phi_threshold,
    psi_cap,
    three_type_values,
)
from vetopersuasion._numeric import grid_max
from vetopersuasion.lsolve import ThreeTypeValues


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

    def test_a_subnormal_high_type_over_a_zero_low_type(self):
        # At ell = 0, phi(h) = (0.5 h) / h is 1/2, but rounds to either side
        # of it for many subnormal h; above it, psi divided by 1 - 2 mu = 0
        # at mu = 1/2.  From mu = 1/2 on, every h is accepted.
        halves = (0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 0.5 + 1e-13)
        for h in [k * 5e-324 for k in (1, 3, 7, 1001, 2 ** 40 + 1)] + [1e-310, 2.2e-308]:
            env = BinaryTypeEnv(0.0, h, 0.5)
            for mu in (0.0, 0.25, *halves, 0.75, 1.0):
                psi = psi_cap(env, mu)
                assert 0.0 <= psi <= env.p_bar and (mu < 0.5 or psi == 2.0 * (mu * h))

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
            direct = acceptance_root((env.ell, env.h))((1.0 - mu, mu))
            assert psi_cap(env, mu) == pytest.approx(direct, abs=1e-12)


class TestBestAcceptable:
    def test_point_mass(self):
        assert acceptance_root((0.3,))((1.0,)) == pytest.approx(0.6)
        assert acceptance_root((0.8,))((1.0,)) == 1.0
        assert acceptance_root((0.0,))((1.0,)) == 0.0

    def test_three_type_closed_form(self):
        # For levels (0, 0.1, 0.5) the largest acceptable proposal solves a
        # piecewise-linear indifference and has an explicit form in the
        # weights (w0, wl) on the two lowest types.
        levels = (0.0, 0.1, 0.5)
        for w0 in np.linspace(0.02, 0.96, 50):
            for wl in np.linspace(0.01, 0.97, 50):
                if w0 + wl >= 0.999:
                    continue
                got = acceptance_root(levels)((w0, wl, 1.0 - w0 - wl))
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

    def test_non_finite_inputs_raise(self):
        nan, inf = math.nan, math.inf
        for thetas, weights in [((0.1, nan), (0.5, 0.5)), ((0.1, inf), (0.5, 0.5)),
                                ((0.1, 0.5), (nan, 0.5)), ((0.1, 0.5), (0.5, -inf))]:
            with pytest.raises(DomainError):
                acceptance_root(thetas)(weights)
        for prior, levels in [((nan, 0.2), (0.0, 0.1, 0.5)), ((0.5, 0.2), (0.0, nan, 0.5)),
                              ((0.5, 0.2), (0.0, 0.1, inf)), ((0.5, inf), (0.0, 0.1, 0.5))]:
            with pytest.raises(DomainError):
                three_type_values(prior, levels, Linear())


def _full_scan(thetas, weights):
    """The acceptance root as it read before the scan stopped at the
    sign change: the gap at every break, then the sign change right to left."""
    p_bar = min(2.0 * max(thetas), 1.0)
    if p_bar <= 0.0:
        return 0.0

    def gap(p):
        return sum(w * (p if p <= t else 2.0 * t - p) for t, w in zip(thetas, weights))

    breaks = sorted({0.0, p_bar, *(t for t in thetas if 0.0 < t < p_bar)})
    values = [gap(b) for b in breaks]
    if values[-1] >= 0.0:
        return p_bar
    for k in range(len(breaks) - 1, 0, -1):
        lo_v, hi_v = values[k - 1], values[k]
        if lo_v >= 0.0 > hi_v:
            return breaks[k - 1] + lo_v * (breaks[k] - breaks[k - 1]) / (lo_v - hi_v)
    return 0.0


# Atoms from a short list (so duplicates are common), 0, at or above p_bar
# and huge among them, or any point of [0, 2].
ATOM = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 1e200]), st.floats(0.0, 2.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(ATOM, st.floats(0.0, 1.0)), min_size=1, max_size=5))
@example([(0.1, 0.5), (0.1, 0.3), (0.4, 0.2)])
@example([(0.0, 0.7), (0.1, 0.2), (1e200, 0.1)])
@example([(0.0, 1.0), (0.3, 0.0)])
def test_acceptance_root_is_the_full_scan_bit_for_bit(atoms):
    thetas, weights = zip(*atoms)
    assert repr(acceptance_root(thetas)(weights)) == repr(_full_scan(thetas, weights))


@settings(max_examples=300, deadline=None)
@given(st.lists(ATOM, min_size=1, max_size=5).flatmap(lambda thetas: st.tuples(
    st.just(thetas),
    st.lists(st.lists(st.floats(0.0, 1.0), min_size=len(thetas), max_size=len(thetas)),
             min_size=1, max_size=6))))
@example(([0.0, 0.1, 0.5], [[0.7, 0.2, 0.1], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.7, 0.2, 0.1]]))
@example(([0.0, 0.0], [[0.5, 0.5], [0.0, 1.0]]))
def test_a_bound_root_answers_each_weight_vector_as_a_fresh_one(case):
    # One binding serves a whole search, so no call may leave state for the next.
    thetas, weight_seq = case
    root = acceptance_root(thetas)
    for weights in weight_seq:
        got = repr(root(weights))
        assert got == repr(acceptance_root(thetas)(weights)) == repr(_full_scan(thetas, weights))


BAD = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=100, deadline=None)
@given(st.lists(ATOM, min_size=1, max_size=5), BAD, st.floats(-2.0, -5e-324), st.data())
def test_a_bound_root_raises_the_kernels_messages(thetas, bad, negative, data):
    k = data.draw(st.integers(0, len(thetas) - 1))
    weights = [1.0 / len(thetas)] * len(thetas)
    finite, nonnegative = "atom locations and weights must be finite", "must be nonnegative here"
    for level, message in [(bad, finite), (negative, nonnegative)]:
        bad_thetas = [*thetas[:k], level, *thetas[k + 1:]]
        with pytest.raises(DomainError, match=message):
            acceptance_root(bad_thetas)
    # Non-finite weights raise from the bound root however the atoms lie.
    root, bad_weights = acceptance_root(thetas), [*weights[:k], bad, *weights[k + 1:]]
    with pytest.raises(DomainError, match=finite):
        root(bad_weights)


def _generator_three_type_values(prior, levels, prefs):
    """three_type_values as it read with the split value in generator sums
    and tuple comprehensions over _full_scan."""
    w0, wl = prior
    weights = (w0, wl, 1.0 - w0 - wl)

    def split_value(sigma):
        total = 0.0
        for probs in (sigma, tuple(1.0 - s for s in sigma)):
            mass = sum(w * s for w, s in zip(weights, probs))
            if mass <= 1e-15:
                continue
            post = tuple(w * s / mass for w, s in zip(weights, probs))
            total += mass * prefs.utility(_full_scan(levels, post))
        return total

    v_noinfo = prefs.utility(_full_scan(levels, weights))
    v_fullinfo = sum(w * prefs.utility(min(2.0 * t, 1.0)) for w, t in zip(weights, levels))
    cap = min(1.0, (weights[1] + weights[2]) / w0) if w0 > 0.0 else 1.0
    sA, vA = grid_max(lambda s: split_value((s, 1.0, 1.0)), [0.0, cap], 1e-10)
    sB, vB = grid_max(lambda s: split_value((0.0, s, 1.0)), [0.0, 1.0], 1e-10)
    if vA >= vB:
        return ThreeTypeValues(v_noinfo, v_fullinfo, vA, (sA, 1.0, 1.0), "reveal-low", (vA, vB))
    return ThreeTypeValues(v_noinfo, v_fullinfo, vB, (0.0, sB, 1.0), "reveal-mid", (vA, vB))


def _three_type_draws(n, seed=19):
    """Criterion 7, ROADMAP P5's Linear instance, then n seeded draws over
    the three loss families: exponential weights (one set to 0 in every
    fifth draw, rational in every seventh) and levels with h up to 1.5."""
    yield (0.7, 0.2), (0.0, 0.1, 0.5), Linear()
    yield (0.5494399091440374, 0.39801749710217577), (0.0, 0.03223252048005545, 0.4275308652244778), Linear()
    rng = random.Random(seed)
    for k in range(n):
        prefs = (Linear(), Power(rng.uniform(1.0, 3.0)), Exponential(rng.uniform(0.01, 4.0)))[k % 3]
        if k % 7 == 0:
            w0 = rng.randrange(9) / 8
            prior = (w0, rng.randrange(9 - int(8 * w0)) / 8)
            h = rng.choice([0.25, 0.5, 1.0, 1.5])
            yield prior, (0.0, h * rng.choice([0.0, 0.25, 0.5]), h), prefs
            continue
        e = [rng.expovariate(1.0) for _ in range(3)]
        if k % 5 == 0:
            e[rng.randrange(3)] = 0.0
        h = rng.uniform(0.01, 1.5)
        w0 = e[0] / sum(e)
        yield (w0, min(e[1] / sum(e), 1.0 - w0)), (0.0, h * rng.random(), h), prefs


def test_three_type_values_are_the_generator_forms_bit_for_bit():
    n = 0
    for prior, levels, prefs in _three_type_draws(210):
        assert repr(three_type_values(prior, levels, prefs)) == repr(
            _generator_three_type_values(prior, levels, prefs)), (prior, levels, prefs)
        n += 1
    assert n == 212
