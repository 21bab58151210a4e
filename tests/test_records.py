"""The value types keep the behaviour of frozen dataclasses: positional and
keyword construction, equality and hashing over the fields, the same repr
(error messages embed it), immutability, and pickling."""

import pickle

import pytest

from vetopersuasion import (
    BinarySolveOutcome, BinaryTypeEnv, Exponential, ExponentialTilt, FiniteAtoms, Linear, Power,
    Regime, SolveOutcome, ThreeTypeValues, UniformInterval,
)

RECORDS = [
    (UniformInterval, {"lo": -1.0, "hi": 1.0}, "UniformInterval(lo=-1.0, hi=1.0)"),
    (ExponentialTilt, {"base": UniformInterval(-1.0, 1.0), "lam": 2.0},
     "ExponentialTilt(base=UniformInterval(lo=-1.0, hi=1.0), lam=2.0)"),
    (FiniteAtoms, {"points": ((0.1, 0.8), (0.7, 0.2))},
     "FiniteAtoms(points=((0.1, 0.8), (0.7, 0.2)))"),
    (Linear, {}, "Linear()"),
    (Power, {"gamma": 2.0}, "Power(gamma=2.0)"),
    (Exponential, {"alpha": 1.5}, "Exponential(alpha=1.5)"),
    (BinaryTypeEnv, {"ell": 0.1, "h": 0.7, "mu0": 0.2}, "BinaryTypeEnv(ell=0.1, h=0.7, mu0=0.2)"),
    (SolveOutcome, {"regime": Regime.NO_INFO, "s_star": None, "s_upper": None,
                    "proposal": 0.5, "value": -0.25, "veto_prob": 0.0},
     "SolveOutcome(regime=<Regime.NO_INFO: 'NoInfo'>, s_star=None, s_upper=None, "
     "proposal=0.5, value=-0.25, veto_prob=0.0)"),
    (BinarySolveOutcome, {"value": -0.5, "posteriors": ((0.2, 1.0, 0.3),), "regime": "NoInfo"},
     "BinarySolveOutcome(value=-0.5, posteriors=((0.2, 1.0, 0.3),), regime='NoInfo')"),
    (ThreeTypeValues, {"v_noinfo": -0.9, "v_fullinfo": -0.5, "v_bestbinary": -0.8,
                       "sigma_star": (0.5, 1.0, 1.0), "branch": "reveal-low",
                       "branch_values": (-0.8, -0.85)},
     "ThreeTypeValues(v_noinfo=-0.9, v_fullinfo=-0.5, v_bestbinary=-0.8, "
     "sigma_star=(0.5, 1.0, 1.0), branch='reveal-low', branch_values=(-0.8, -0.85))"),
]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_parity(cls, fields, text):
    a, b = cls(**fields), cls(*fields.values())
    getattr(a, "psi_mu0", None)  # a cached property is not a field
    assert {k: getattr(a, k) for k in fields} == fields
    assert a == b and not a != b and a != object()
    assert hash(a) == hash(b) and {a: 1}[b] == 1
    assert repr(a) == text
    assert pickle.loads(pickle.dumps(a)) == a
    for name in [*fields, "other"]:
        with pytest.raises(AttributeError):
            setattr(a, name, 0.0)
    assert {k: getattr(a, k) for k in fields} == fields


def test_a_tilts_bound_constants_are_not_fields():
    d = ExponentialTilt(UniformInterval(-1.5, 0.6), -3.25)
    assert d._fields == ("base", "lam")
    assert [f for f in ExponentialTilt.__slots__ if f not in d._fields] == [
        "_lo", "_hi", "_k", "_flat", "_z"]
    e = pickle.loads(pickle.dumps(d))
    assert e == d and repr(e) == repr(d) and hash(e) == hash(d)
    for s in (-2.0, -1.5, -0.4, 0.0, 0.599, 0.6, 1.0):
        got = [e.cdf(s), e.mass_above(s), e.upper_partial_mean(s), e.mean(), e.support]
        assert repr(got) == repr([d.cdf(s), d.mass_above(s), d.upper_partial_mean(s),
                                  d.mean(), d.support])
        if s < 0.6:
            assert e.cond_mean_above(s).hex() == d.cond_mean_above(s).hex()


class SlottedPower(Power):
    __slots__ = ()


class SlottedUniform(UniformInterval):
    __slots__ = ()


@pytest.mark.parametrize("cls, args, text", [
    (SlottedPower, (2.0,), "SlottedPower(gamma=2.0)"),
    (SlottedUniform, (-1.0, 1.0), "SlottedUniform(lo=-1.0, hi=1.0)"),
])
def test_a_slotted_subclass_keeps_its_parents_fields(cls, args, text):
    # The fields are read along the MRO, not from the class's own __slots__.
    a, other = cls(*args), cls(*(x / 2.0 for x in args))
    assert cls._fields == cls.__base__._fields
    assert a == cls(*args) and a != other and hash(a) == hash(cls(*args)) != hash(other)
    assert repr(a) == text and repr(other) != text
    b = pickle.loads(pickle.dumps(a))
    assert b == a and type(b) is cls and repr(b) == text


@pytest.mark.parametrize("build", [
    lambda: SolveOutcome(Regime.NO_INFO, None, None, 0.5, -0.25),  # missing
    lambda: SolveOutcome(Regime.NO_INFO, None, None, 0.5, -0.25, 0.0, other=1),  # unknown
    lambda: SolveOutcome(Regime.NO_INFO, None, None, 0.5, -0.25, 0.0, 0.0),  # extra
    lambda: BinarySolveOutcome(-0.5, ((0.2, 1.0, 0.3),), "NoInfo", value=-0.5),  # repeated
    lambda: BinarySolveOutcome(-0.5, regime="NoInfo"),
    lambda: Linear(0.0),
    lambda: Power(),
    lambda: Power(2.0, gamma=2.0),
    lambda: UniformInterval(-1.0, lo=-1.0),
    lambda: BinaryTypeEnv(0.1, 0.7),
])
def test_a_missing_extra_or_repeated_argument_raises(build):
    with pytest.raises(TypeError):
        build()
