import math
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vetopersuasion
from vetopersuasion import NoRootError
from vetopersuasion._numeric import _S_TOL, bisect_rising, brentq, golden_max, grid_max, linspace

ENDS = st.floats(-1e300, 1e300)


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
def test_golden_max_finds_the_maximiser(tol):
    x, fx = golden_max(lambda t: -((t - 0.3) ** 2), -1.0, 2.0, tol)
    assert abs(x - 0.3) <= tol
    assert fx == -((x - 0.3) ** 2)


def test_golden_max_at_an_endpoint():
    x, _ = golden_max(math.exp, 0.0, 1.0, 1e-10)
    assert 1.0 - x <= 1e-10


def _recording(f):
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


@pytest.mark.parametrize("cliff", [0.3, 0.54, 0.58, 0.62])
def test_golden_max_stops_short_of_a_cliff(cliff):
    # f rises to the cliff and then drops; the last bracket's midpoint can
    # lie past it (at 0.54, 0.58 and 0.62), the best evaluated point cannot.
    f, calls = _recording(lambda t: t if t <= cliff else -1.0)
    x, fx = golden_max(f, 0.0, 1.0, 1e-10)
    assert x <= cliff and fx == x and cliff - x <= 1e-10
    assert x == max(c for c in calls if c <= cliff)  # the best point evaluated


def _golden_max_unguarded(f, lo, hi, tol, steps):
    # golden_max without its stall check, as a reference: None when it has
    # not ended after steps steps.
    invphi = (5.0 ** 0.5 - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        steps -= 1
        if steps < 0:
            return None
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = f(x1)
    return (x2, f2) if f1 < f2 else (x1, f1)


def test_golden_max_ends_when_the_bracket_stops_narrowing():
    # ulp(1e7) = 1.9e-9 > tol, so the bracket never gets tol wide; the
    # search must still end, and at the peak.
    calls = []

    def f(t):
        if len(calls) == 500:
            raise RuntimeError("golden_max has not ended after 500 calls")
        calls.append(t)
        return -abs(t - 1e7)

    assert golden_max(f, 1e7 - 1, 1e7 + 1, 1e-10) == (1e7, -0.0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.0, 1.0, 1e6, -1e7, 1e300]), st.integers(1, 40),
       st.sampled_from([0.0, 1e-10, 1e-300]), st.integers(0, 2 ** 32))
def test_golden_max_returns_as_without_the_stall_check(lo, ulps, tol, seed):
    # A bracket a few ulps wide, and a step function of random values (ties
    # and NaN among them): wherever the unguarded search ends, golden_max
    # returns the same point and value, bit for bit, and it always ends.
    hi = lo
    for _ in range(ulps):
        hi = math.nextafter(hi, math.inf)
    rng, table, calls = random.Random(seed), {}, []

    def f(t):
        if len(calls) == 20_000:
            raise RuntimeError("f called 20,000 times: a search has not ended")
        calls.append(t)
        if t not in table:
            table[t] = rng.choice([0.0, 1.0, 2.0, math.nan])
        return table[t]

    want = _golden_max_unguarded(f, lo, hi, tol, 5000)
    got = golden_max(f, lo, hi, tol)
    assert want is None or repr(got) == repr(want)


def test_grid_max_ties_pick_the_first_best_point():
    # Flat at its maximum from grid point 7 on: the polish brackets point 7.
    xs = linspace(0.0, 1.0, 21)
    f, calls = _recording(lambda t: float(t >= xs[7]))
    x, fx = grid_max(f, xs, 1e-10)
    polish = calls[len(xs):]
    assert fx == 1.0 and xs[6] < min(polish) and max(polish) < xs[8]


@pytest.mark.parametrize("peak, lo, hi", [(0.0, 0.0, 0.1), (1.0, 0.9, 1.0), (0.52, 0.45, 0.55)])
def test_grid_max_polishes_the_neighbour_cells(peak, lo, hi):
    # The polish bracket is the best point's two neighbours, clipped at the
    # grid's ends.
    xs = linspace(0.0, 1.0, 21)
    f, calls = _recording(lambda t: -abs(t - peak))
    x, _ = grid_max(f, xs, 1e-10)
    polish = calls[len(xs):]
    assert lo < min(polish) and max(polish) < hi
    assert abs(x - peak) <= 1e-10


def test_grid_max_keeps_a_better_grid_point():
    # A spike at the grid point 0.5 that the polish cannot find.
    xs = linspace(0.0, 1.0, 11)
    x, fx = grid_max(lambda t: 1.0 if t == 0.5 else -abs(t - 0.5), xs, 1e-10)
    assert (x, fx) == (0.5, 1.0)


def test_grid_max_uses_given_values():
    # Given values stand for f on the grid: f runs only in the polish.
    f, calls = _recording(lambda t: -((t - 0.6) ** 2))
    assert grid_max(f, [0.0, 0.5, 1.0], 1e-10, [0.0, 0.0, 1.0]) == (1.0, 1.0)
    assert 0.5 < min(calls) and max(calls) < 1.0


def test_grid_max_two_point_grid_polishes_the_interval():
    f, calls = _recording(lambda t: -((t - 0.3) ** 2))
    x, fx = grid_max(f, [0.0, 1.0], 1e-10)
    assert abs(x - 0.3) <= 1e-10 and fx == f(x)
    assert calls[:2] == [0.0, 1.0] and 0.0 < min(calls[2:]) and max(calls[2:]) < 1.0


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


@settings(max_examples=500, deadline=None)
@given(ENDS, ENDS, st.integers(2, 300))
def test_linspace_matches_numpy(lo, hi, n):
    assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()


# Steps that underflow to 0, an empty range, and the theta-hi sweep grid.
@pytest.mark.parametrize("lo, hi", [(0.0, 5e-324), (5e-324, 1e-323), (1.0, 1.0), (0.55, 1.0)])
def test_linspace_matches_numpy_on_edge_ranges(lo, hi):
    for n in (2, 3, 10, 101):
        assert linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist()


def _run_python(code):
    src = str(Path(vetopersuasion.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)


def test_package_import_loads_no_numpy_dataclasses_or_inspect():
    # Every submodule, oracle too: numpy loads at the first array, not at
    # import.  tests/cli_corpus.py checks the same, and scipy, of
    # vetopersuasion.cli.  The names are listed here, since pkgutil loads inspect.
    names = sorted(m.name for m in pkgutil.iter_modules(vetopersuasion.__path__))
    assert "oracle" in names
    code = (f"import importlib, sys\nfor m in {names!r}: importlib.import_module('vetopersuasion.' + m)\n"
            "print(sorted(m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules))")
    assert _run_python(code).stdout.strip() == "[]"


@pytest.mark.parametrize("timing", ["persuasion-first", "proposal-first"])
@pytest.mark.parametrize(
    "model, dist, absent",
    [
        ("quad", "uniform:-1,1", ["lsolve", "accept", "closedform", "oracle"]),
        ("linear2", "atoms:0.1:.8,0.7:.2", ["qsolve", "closedform", "oracle"]),
    ],
    ids=["quad", "linear2"],
)
def test_solve_loads_only_its_solver(model, timing, dist, absent):
    code = (
        "import contextlib, io, sys\n"
        "from vetopersuasion.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['solve', {model!r}, {timing!r}, {dist!r}, 'linear'])\n"
        f"print(code, *(m for m in {absent!r} if 'vetopersuasion.' + m in sys.modules))\n"
    )
    assert _run_python(code).stdout.split() == ["0"]


@pytest.mark.parametrize(
    "model, dist, absent",
    [
        ("quad", "uniform:-1,1", ["lsolve", "closedform"]),
        ("linear2", "atoms:0.1:.8,0.7:.2", ["qsolve", "closedform"]),
        ("linear3", "atoms:0:.7,0.1:.2,0.5:.1", ["qsolve", "closedform"]),
    ],
    ids=["quad", "linear2", "linear3"],
)
def test_oracle_loads_only_its_solver(model, dist, absent):
    code = (
        "import contextlib, io, sys\n"
        "from vetopersuasion.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['oracle', {model!r}, {dist!r}, 'linear', '--grid', '11'])\n"
        f"print(code, *(m for m in {absent!r} if 'vetopersuasion.' + m in sys.modules))\n"
    )
    assert _run_python(code).stdout.split() == ["0"]


def test_oracle_imports_numpy_when_it_runs():
    code = (
        "import contextlib, io, sys\n"
        "from vetopersuasion.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = main(['oracle', 'quad', 'uniform:-1,1', 'power:2'])\n"
        "print(code, 'numpy' in sys.modules, *(l.split()[0] for l in out.getvalue().splitlines()))\n"
    )
    assert _run_python(code).stdout.split() == ["0", "True", "PASS", "PASS"]


def test_public_names_resolve_and_are_sorted():
    names = vetopersuasion.__all__
    assert names == sorted(names)
    for name in names:
        assert getattr(vetopersuasion, name) is not None
