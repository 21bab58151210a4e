import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vetopersuasion import (
    DomainError,
    Exponential,
    Linear,
    Power,
    prefs_from_literal,
)

FAMILIES = [Linear(), Power(1.5), Power(2.0), Power(3.0), Exponential(0.5), Exponential(2.0)]
LOSSES = st.one_of(
    st.just(Linear()),
    st.floats(1.0, 3.0).map(Power),
    st.floats(0.0, 4.0, exclude_min=True).map(Exponential),
)


def test_loss_values():
    assert Linear().loss(0.5) == 0.5
    assert Power(2.0).loss(0.5) == 0.25
    assert Exponential(1.0).loss(1.0) == pytest.approx(math.e - 1.0)
    for prefs in FAMILIES:
        assert prefs.loss(0.0) == 0.0


def test_utility_is_negated_loss():
    for prefs in FAMILIES:
        assert prefs.utility(1.0) == 0.0
        assert prefs.utility(0.3) == pytest.approx(-prefs.loss(0.7))


@pytest.mark.parametrize("prefs", FAMILIES)
@given(st.floats(0.01, 0.99))
def test_deriv_matches_numeric(prefs, x):
    h = 1e-6
    numeric = (prefs.loss(x + h) - prefs.loss(x - h)) / (2.0 * h)
    assert prefs.loss_deriv(x) == pytest.approx(numeric, rel=1e-4, abs=1e-6)


def test_domain_guards():
    with pytest.raises(DomainError):
        Linear().loss(-0.1)
    with pytest.raises(DomainError):
        Linear().utility(1.5)
    with pytest.raises(DomainError):
        Power(0.5)
    with pytest.raises(DomainError):
        Exponential(0.0)


def test_literals():
    assert prefs_from_literal("linear") == Linear()
    assert prefs_from_literal("power:2") == Power(2.0)
    assert prefs_from_literal("exp:0.5") == Exponential(0.5)
    for bad in ("cubic", "power:abc", "power:nan", "power:inf", "exp:nan", "exp:800"):
        with pytest.raises(DomainError):
            prefs_from_literal(bad)
    # A constructor's reason reaches the message; only a non-number is "bad".
    for bad, reason in (("exp:800", "overflows the loss"), ("power:0.5", "gamma >= 1"),
                        ("power:abc", "bad power literal"), ("exp:x", "bad exponential literal")):
        with pytest.raises(DomainError, match=reason):
            prefs_from_literal(bad)


@pytest.mark.parametrize("alpha", [5e-324, 1e-300, 1e-17])
def test_tiny_cara_coefficient_is_linear(alpha):
    # expm1(alpha x) / alpha loses every digit once alpha x is subnormal.
    prefs = Exponential(alpha)
    assert [prefs.loss(x) for x in (0.0, 0.3, 0.7, 1.0)] == [0.0, 0.3, 0.7, 1.0]
    assert prefs.loss_array(np.array([0.3, 0.7])).tolist() == [0.3, 0.7]


@given(LOSSES, st.lists(st.floats(0.0, 10.0), min_size=1, max_size=40))
def test_loss_array_matches_loss(prefs, xs):
    # numpy's vector math may round differently from the scalar libm call.
    got = prefs.loss_array(np.array(xs))
    assert got.shape == (len(xs),)
    np.testing.assert_allclose(got, [prefs.loss(x) for x in xs], rtol=1e-14, atol=0.0)
    # A single point takes the scalar formula exactly.
    assert prefs.loss_array(xs[0]) == prefs.loss(xs[0])


@given(
    LOSSES,
    st.lists(st.floats(0.0, 10.0), max_size=20),
    st.floats(-10.0, 0.0, exclude_max=True),
    st.data(),
)
def test_loss_array_rejects_any_negative_entry(prefs, xs, bad, data):
    xs.insert(data.draw(st.integers(0, len(xs))), bad)
    with pytest.raises(DomainError):
        prefs.loss_array(np.array(xs))
