import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vetopersuasion
from vetopersuasion import NoRootError
from vetopersuasion._numeric import _S_TOL, bisect_rising, brentq, golden_max


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
def test_golden_max_finds_the_maximiser(tol):
    x, fx = golden_max(lambda t: -((t - 0.3) ** 2), -1.0, 2.0, tol)
    assert abs(x - 0.3) <= tol
    assert fx == -((x - 0.3) ** 2)


def test_golden_max_at_an_endpoint():
    x, _ = golden_max(math.exp, 0.0, 1.0, 1e-10)
    assert 1.0 - x <= 1e-10


@pytest.mark.parametrize("target", [-0.7, 0.0, 0.123456789, 0.5])
def test_bisect_rising_bracket(target):
    f = math.tanh
    lo, hi = bisect_rising(f, target, -2.0, 1.0)
    assert 0.0 < hi - lo <= _S_TOL
    assert f(lo) < target <= f(hi)


def test_bisect_rising_keeps_a_narrow_bracket():
    assert bisect_rising(math.tanh, 0.0, -_S_TOL / 2, _S_TOL / 2) == (-_S_TOL / 2, _S_TOL / 2)


@pytest.mark.parametrize(
    "f, root",
    [(math.cos, math.pi / 2), (lambda x: x ** 3 - 2.0, 2.0 ** (1.0 / 3.0))],
)
def test_brentq_converges(f, root):
    assert abs(brentq(f, 0.0, 2.0, xtol=1e-15, rtol=8.9e-16) - root) <= 1e-15


def test_brentq_at_an_endpoint():
    assert brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16) == 1.0
    assert brentq(lambda x: x, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16) == 0.0


def test_brentq_without_a_sign_change():
    with pytest.raises(NoRootError):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15, rtol=8.9e-16)


def test_cli_import_loads_no_scipy():
    code = ("import sys, vetopersuasion.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(vetopersuasion.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_public_names_resolve_and_are_sorted():
    names = vetopersuasion.__all__
    assert names == sorted(names)
    for name in names:
        assert getattr(vetopersuasion, name) is not None
