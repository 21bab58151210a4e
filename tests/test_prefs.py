import math

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
    for bad in ("cubic", "power:abc", "power:nan", "power:inf", "exp:nan"):
        with pytest.raises(DomainError):
            prefs_from_literal(bad)
