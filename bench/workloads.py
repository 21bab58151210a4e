"""Seeded instances, one timed operation per instance, and the checks that
classify each operation as ok, refused or failed.

Every workload draws its instances in fixed blocks whose class shares are
exact (for example one tilted prior in every four quadratic instances), so
the share of each class does not vary from seed to seed and the median and
the tail latency each fall inside one class of instance.  Within a class the
parameters are drawn from the whole valid domain; nothing is narrowed to
avoid a known defect.

The program under test receives only the generated objects.  Solvers are
called through their module (``qsolve.solve_persuasion_first``) so that the
tracer can wrap them from outside.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from vetopersuasion import closedform, dist, lsolve, oracle, prefs, qsolve
from vetopersuasion.accept import BinaryTypeEnv
from vetopersuasion.errors import (
    AssumptionViolatedError,
    FullMassBelowError,
    VetoPersuasionError,
)

# Tolerances the repository's tests already fix.
TIMING_EQUIV_TOL = 1e-9  # persuasion-first vs proposal-first, quadratic loss
CERT_TOL = 1e-9  # certificates and closed forms
PARTITION_GAP_TOL = 1e-6  # oracle-over-solver gap (also the CLI oracle default)
THREE_TYPE_GAP_TOL = 1e-4  # three-type binary-signal oracle
ORDER_TOL = 1e-10  # persuasion-first >= proposal-first, binary types
EXAMPLE_ONE_TOL = 1e-6  # criterion 5 value

CHILD_TIMEOUT_S = 120.0

OK, REFUSED, FAILED = "ok", "refused", "failed"


@dataclass
class Instance:
    """One generated input: the objects handed to the program, the classes it
    belongs to, and a plain description for failure records."""

    kind: str
    classes: Dict[str, str]
    spec: Dict[str, Any]
    args: Tuple[Any, ...] = ()
    expect: Dict[str, Any] = field(default_factory=dict)
    reps: int = 1  # executions, back to back, in every pass over the pool


@dataclass
class Attempt:
    """The result or the exception of one timed call."""

    value: Any = None
    error: Optional[BaseException] = None


def attempt(fn: Callable, *args) -> Attempt:
    try:
        return Attempt(value=fn(*args))
    except Exception as exc:  # every exception is an outcome to classify
        return Attempt(error=exc)


# ---------------------------------------------------------------------------
# Parameter draws


def _open_unit(rng: random.Random) -> float:
    """Uniform on (0, 1]."""
    return 1.0 - rng.random()


def draw_loss(rng: random.Random, family: str):
    """A Proposer loss of the given family with parameters from its domain."""
    if family == "linear":
        return prefs.Linear(), "linear"
    if family == "power":
        gamma = rng.uniform(1.0, 3.0)
        return prefs.Power(gamma), f"power:{gamma!r}"
    alpha = 4.0 * _open_unit(rng)
    return prefs.Exponential(alpha), f"exp:{alpha!r}"


def draw_uniform_bounds(rng: random.Random) -> Tuple[float, float]:
    return rng.uniform(-2.0, -0.05), _open_unit(rng)


def draw_binary(rng: random.Random) -> Tuple[float, float, float]:
    """(ell, h, mu0) with 0 <= ell < h <= 1 and mu0 in (0, 1)."""
    h = _open_unit(rng)
    ell = h * rng.random()
    mu0 = rng.random()
    while mu0 == 0.0:
        mu0 = rng.random()
    return ell, h, mu0


def draw_three(rng: random.Random) -> Tuple[Tuple[float, float], Tuple[float, float, float]]:
    """Prior (w0, w_ell) with all three weights positive, levels (0, ell, h)."""
    h = _open_unit(rng)
    ell = h * _open_unit(rng)
    while ell >= h:
        ell = h * rng.random()
    e = [-math.log(_open_unit(rng)) for _ in range(3)]
    total = sum(e)
    w0, wl = e[0] / total, e[1] / total
    return (w0, wl), (0.0, ell, h)


def _quad_prior(rng, tilted: bool):
    lo, hi = draw_uniform_bounds(rng)
    base = dist.UniformInterval(lo, hi)
    if not tilted:
        return base, {"lo": lo, "hi": hi}, f"uniform:{lo!r},{hi!r}"
    lam = rng.uniform(-3.0, 3.0)
    return (
        dist.lr_tilt(base, lam),
        {"lo": lo, "hi": hi, "lam": lam},
        f"tilt:uniform:{lo!r},{hi!r};{lam!r}",
    )


def _quad_instance(rng, family: str, tilted: bool, kind: str,
                   gamma_two: bool = False) -> Instance:
    d, dspec, dlit = _quad_prior(rng, tilted)
    if gamma_two:
        loss, llit = prefs.Power(2.0), "power:2.0"
    else:
        loss, llit = draw_loss(rng, family)
    return Instance(
        kind,
        {"prior": "tilt" if tilted else "uniform", "loss": family},
        {"dist": dlit, "loss": llit, **dspec},
        (d, loss),
    )


class LatinRows:
    """Latin-hypercube draws: ``n`` rows of ``d`` uniforms on [0, 1), such
    that in every coordinate each of the ``n`` strata [k/n, (k+1)/n) holds
    exactly one row.  Every parameter still covers its whole domain; the
    stratification only keeps a pool's mix of costly and cheap instances
    from swinging from seed to seed."""

    def __init__(self, rng: random.Random, n: int, d: int) -> None:
        cols = []
        for _ in range(d):
            perm = list(range(n))
            rng.shuffle(perm)
            cols.append([(k + rng.random()) / n for k in perm])
        self._rows = iter(zip(*cols))

    def next(self) -> "LatinRow":
        return LatinRow(next(self._rows))


class LatinRow:
    """Stands in for ``random.Random`` in the draw functions, handing out
    the coordinates of one Latin-hypercube row in turn."""

    def __init__(self, coords: Sequence[float]) -> None:
        self._coords = iter(coords)

    def random(self) -> float:
        return next(self._coords)

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()


# One quadratic block: (loss family, tilted prior, Power(2) with the closed
# form) for each of its twelve instances.
QUAD_BLOCK = tuple(
    slot for family in ("linear", "power", "exp")
    for slot in ((family, True, False), (family, False, family == "power"),
                 (family, False, False), (family, False, False)))


UNIFORM_REPS = 3


def quad_blocks(rng: random.Random, n_blocks: int, kind: str = "quad") -> List[List[Instance]]:
    """Blocks of twelve quadratic instances: four per loss family, one of
    each four on a tilted prior, and one uniform Power instance with
    gamma = 2 so the closed form applies.  The parameters of each kind of
    slot are Latin-hypercube draws across the blocks.  In the quad-solve
    workload a uniform instance, about 25 ms against a tilted one's 0.5 s,
    runs ``UNIFORM_REPS`` times per pass, so that the median, which the
    uniform instances set, rests on more than one or two executions."""
    slots = Counter(QUAD_BLOCK)
    draws = {slot: LatinRows(rng, n * n_blocks, 4) for slot, n in slots.items()}
    out = []
    for _ in range(n_blocks):
        block = [_quad_instance(draws[slot].next(), slot[0], slot[1], kind, slot[2])
                 for slot in QUAD_BLOCK]
        if kind == "quad":
            for inst in block:
                inst.reps = 1 if inst.classes["prior"] == "tilt" else UNIFORM_REPS
        rng.shuffle(block)
        out.append(block)
    return out


def _binary_instance(rng: random.Random, family: str, kind: str = "linear2") -> Instance:
    ell, h, mu0 = draw_binary(rng)
    loss, llit = draw_loss(rng, family)
    return Instance(
        kind,
        {"model": "linear2", "loss": family},
        {"ell": ell, "h": h, "mu0": mu0, "loss": llit},
        (BinaryTypeEnv(ell, h, mu0), loss),
    )


def _three_instance(rng: random.Random, family: str, kind: str = "linear3") -> Instance:
    prior, levels = draw_three(rng)
    loss, llit = draw_loss(rng, family)
    return Instance(
        kind,
        {"model": "linear3", "loss": family},
        {"prior": prior, "levels": levels, "loss": llit},
        (prior, levels, loss),
    )


# The paper's fixed linear-loss instances (acceptance criteria 5, 6 and 7).
FIXED_LINEAR = (
    ("criterion5", BinaryTypeEnv(0.1, 0.7, 0.2), {"value": -0.56}),
    ("criterion6-mu0.2", BinaryTypeEnv(0.15, 0.7, 0.2), {"proposal": 0.4}),
    ("criterion6-mu0.3", BinaryTypeEnv(0.15, 0.7, 0.3), {"proposal": 0.7}),
    ("criterion6-mu0.45", BinaryTypeEnv(0.15, 0.7, 0.45), {"proposal": 0.795}),
    ("criterion7", ((0.7, 0.2), (0.0, 0.1, 0.5)), {"value": -13.0 / 15.0}),
)


def _fixed_linear(k: int) -> Instance:
    name, args, expect = FIXED_LINEAR[k % len(FIXED_LINEAR)]
    if name == "criterion7":
        prior, levels = args
        return Instance("linear3", {"model": "linear3", "loss": "linear", "fixed": name},
                        {"fixed": name}, (prior, levels, prefs.Linear()), expect)
    return Instance("linear2", {"model": "linear2", "loss": "linear", "fixed": name},
                    {"fixed": name}, (args, prefs.Linear()), expect)


def linear_block(rng: random.Random, index: int) -> List[Instance]:
    """Eight linear-loss operations: five binary-type solves (two Linear, two
    Exponential, one Power), two three-type solves and one of the paper's
    fixed instances, taken in turn."""
    out = [_binary_instance(rng, f) for f in ("linear", "linear", "exp", "exp", "power")]
    out += [_three_instance(rng, f) for f in rng.sample(("linear", "power", "exp"), 2)]
    out.append(_fixed_linear(index))
    rng.shuffle(out)
    return out


def oracle_block(rng: random.Random) -> List[Instance]:
    """Twenty cross-checks: twelve quadratic (one quad block), four binary and
    four three-type, with loss families spread evenly."""
    out = quad_blocks(rng, 1, kind="oracle-quad")[0]
    for family in ("linear", "exp", "power", rng.choice(("linear", "exp", "power"))):
        out.append(_binary_instance(rng, family, kind="oracle-linear2"))
        out.append(_three_instance(rng, family, kind="oracle-linear3"))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# CLI commands


def _atoms_literal(points: Sequence[Tuple[float, float]]) -> str:
    return "atoms:" + ",".join(f"{t!r}:{p!r}" for t, p in points)


ROBUSTNESS = (
    # (arguments, expected exit code, label)
    (("solve", "quad", "persuasion-first", "uniform:-1,1", "power:nan"), 2, "power-nan"),
    (("solve", "quad", "persuasion-first", "uniform:0.6,inf", "power:2"), 2, "uniform-inf"),
    (("solve", "quad", "persuasion-first", "tilt:uniform:-1,1;800", "power:2"), 0, "tilt-800"),
)


def _cli(label: str, argv: Sequence[str], expect_code: int = 0, **expect) -> Instance:
    return Instance(
        "cli", {"command": label}, {"argv": list(argv)}, tuple(argv),
        {"code": expect_code, **expect},
    )


def _loss_literal(rng: random.Random) -> str:
    return draw_loss(rng, rng.choice(("linear", "power", "exp")))[1]


def _three_literal(rng: random.Random) -> str:
    (w0, wl), (_, ell, h) = draw_three(rng)
    return _atoms_literal(((0.0, w0), (ell, wl), (h, 1.0 - w0 - wl)))


def cli_round(rng: random.Random) -> List[Instance]:
    """The twelve commands of one cli-cold round, in seeded order."""
    out = [
        _cli("solve-quad-pf", ("solve", "quad", "persuasion-first", "uniform:-1,1",
                               "power:2", "--json"), value=-11.0 / 27.0),
    ]
    _, _, tilt = _quad_prior(rng, tilted=True)
    out.append(_cli("solve-quad-prf-tilt", ("solve", "quad", "proposal-first", tilt,
                                            _loss_literal(rng), "--json")))
    ell, h, mu0 = draw_binary(rng)
    lit2 = _atoms_literal(((ell, 1.0 - mu0), (h, mu0)))
    loss2 = _loss_literal(rng)
    for timing in ("persuasion-first", "proposal-first"):
        out.append(_cli(f"solve-linear2-{timing}", ("solve", "linear2", timing, lit2, loss2,
                                                     "--json")))
    out.append(_cli("solve-linear3", ("solve", "linear3", "proposal-first",
                                      _three_literal(rng), _loss_literal(rng), "--json")))
    out.append(_cli("sweep-tilt", ("sweep", "tilt")))
    out.append(_cli("figure-6", ("figure", "6")))
    _, _, quad = _quad_prior(rng, tilted=rng.random() < 0.25)
    out.append(_cli("oracle-quad", ("oracle", "quad", quad, _loss_literal(rng))))
    out.append(_cli("oracle-linear3", ("oracle", "linear3", _three_literal(rng),
                                       _loss_literal(rng))))
    for argv, code, label in ROBUSTNESS:
        out.append(_cli(label, argv, code))
    rng.shuffle(out)
    return out


def run_cli(argv: Sequence[str], env: Dict[str, str], cwd: str,
            prefix: Sequence[str] = ("-m", "vetopersuasion.cli")) -> Attempt:
    """Run one cold CLI process to completion; the value is
    (exit code, stdout, stderr)."""
    proc = subprocess.Popen(
        [sys.executable, *prefix, *argv], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Attempt(error=TimeoutError(f"child exceeded {CHILD_TIMEOUT_S} s"))
    return Attempt(value=(proc.returncode, out, err))


# ---------------------------------------------------------------------------
# Operations (the timed region)


def op_quad(inst: Instance):
    d, loss = inst.args
    return (attempt(qsolve.solve_persuasion_first, d, loss),
            attempt(qsolve.solve_proposal_first, d, loss))


def op_linear2(inst: Instance):
    env, loss = inst.args
    return (attempt(lsolve.solve_persuasion_first_binary, env, loss),
            attempt(lsolve.solve_proposal_first_binary, env, loss))


def op_linear3(inst: Instance):
    prior, levels, loss = inst.args
    return (attempt(lsolve.three_type_values, prior, levels, loss),)


def op_oracle_quad(inst: Instance):
    """What ``vps oracle quad`` does: solve, partition search, certificate."""
    d, loss = inst.args
    r = qsolve.solve_persuasion_first(d, loss)
    best, _ = oracle.partition_search(d, loss, 3, 400)
    checks = []
    if r.regime is qsolve.Regime.BINARY_CUTOFF:
        ok, viol = oracle.verify_certificate(d, loss, r.s_star, r.s_upper)
        checks.append(("price-certificate", ok, viol))
        checks.append(("partition-search", best <= r.value + PARTITION_GAP_TOL,
                       best - r.value))
    elif r.regime is qsolve.Regime.NO_INFO:
        ok, viol = oracle.verify_no_info_certificate(d, loss)
        checks.append(("tangent-certificate", ok, viol))
        checks.append(("partition-search", best <= r.value + PARTITION_GAP_TOL,
                       best - r.value))
    return r.regime.value, checks


def op_oracle_linear2(inst: Instance):
    """What ``vps oracle linear2`` does: proposal grid and timing order."""
    env, loss = inst.args
    _, value, _ = lsolve.solve_proposal_first_binary(env, loss)
    _, v_grid = oracle.proposal_first_grid(env, loss, 4001)
    pf = lsolve.solve_persuasion_first_binary(env, loss)
    return "linear2", [
        ("proposal-grid", abs(v_grid - value) <= PARTITION_GAP_TOL, v_grid - value),
        ("timing-order", pf.value >= value - ORDER_TOL, pf.value - value),
    ]


def op_oracle_linear3(inst: Instance):
    """What ``vps oracle linear3`` does: unrestricted binary-signal search."""
    prior, levels, loss = inst.args
    r = lsolve.three_type_values(prior, levels, loss)
    best, _ = oracle.binary_signal_search_atoms(prior, levels, loss, 41)
    return "linear3", [
        ("binary-signal-search", abs(best - r.v_bestbinary) <= THREE_TYPE_GAP_TOL,
         best - r.v_bestbinary),
    ]


def op_oracle(inst: Instance):
    fn = {"oracle-quad": op_oracle_quad, "oracle-linear2": op_oracle_linear2,
          "oracle-linear3": op_oracle_linear3}[inst.kind]
    return (attempt(fn, inst),)


OPS = {"quad": op_quad, "linear2": op_linear2, "linear3": op_linear3,
       "oracle-quad": op_oracle, "oracle-linear2": op_oracle,
       "oracle-linear3": op_oracle}


# ---------------------------------------------------------------------------
# Checks and classification (outside the timed region)


def _finite(*xs: float) -> bool:
    return all(x is not None and math.isfinite(x) for x in xs)


def check_quad(inst: Instance, pf, prf) -> Optional[str]:
    gap = abs(pf.value - prf.value)
    if not gap <= TIMING_EQUIV_TOL:
        return f"|pf - prf| = {gap:.3g} > {TIMING_EQUIV_TOL}"
    d, loss = inst.args
    if inst.classes["prior"] == "uniform" and loss == prefs.Power(2.0):
        cut, proposal = closedform.quadratic_case_uniform(*d.support)
        if cut is None and pf.regime is not qsolve.Regime.NO_INFO:
            return f"closed form says no information, solver says {pf.regime.value}"
        if cut is not None and not (pf.s_star is not None
                                    and abs(pf.s_star - cut) <= CERT_TOL):
            return f"cutoff {pf.s_star} vs closed form {cut}"
        if not abs(pf.proposal - proposal) <= CERT_TOL:
            return f"proposal {pf.proposal} vs closed form {proposal}"
    return None


def check_linear2(inst: Instance, pf, prf) -> Optional[str]:
    p_opt, value, _ = prf
    if not _finite(pf.value, value, p_opt):
        return "non-finite value"
    if not pf.value >= value - ORDER_TOL:
        return f"persuasion-first {pf.value} < proposal-first {value}"
    if "value" in inst.expect and not abs(pf.value - inst.expect["value"]) <= EXAMPLE_ONE_TOL:
        return f"value {pf.value} vs paper {inst.expect['value']}"
    if "proposal" in inst.expect and not abs(p_opt - inst.expect["proposal"]) <= CERT_TOL:
        return f"proposal {p_opt} vs paper {inst.expect['proposal']}"
    return None


def check_linear3(inst: Instance, r) -> Optional[str]:
    if not _finite(r.v_noinfo, r.v_fullinfo, r.v_bestbinary):
        return "non-finite value"
    if "value" in inst.expect and not abs(r.v_bestbinary - inst.expect["value"]) <= CERT_TOL:
        return f"best binary {r.v_bestbinary} vs paper {inst.expect['value']}"
    return None


def check_oracle(inst: Instance, result) -> Optional[str]:
    _, checks = result
    bad = [f"{name} ({margin:.3g})" for name, ok, margin in checks if not ok]
    return "oracle check failed: " + ", ".join(bad) if bad else None


def _json_value(stdout: str) -> Optional[float]:
    try:
        return json.loads(stdout)["value"]
    except (ValueError, KeyError, TypeError):
        return None


def check_cli(inst: Instance, result, reference: "CliReference") -> Tuple[str, Optional[str]]:
    """Classify one CLI child: (outcome, reason)."""
    code, out, err = result
    label = inst.classes["command"]
    expect_code, refusal = reference.expected_code(inst)
    if code != expect_code:
        tail = err.strip().splitlines()[-1] if err.strip() else ""
        return FAILED, f"exit {code}, expected {expect_code}: {tail}"
    if refusal:
        return REFUSED, refusal
    if expect_code != 0:
        return OK, None
    if label.startswith("solve-"):
        value = _json_value(out)
        ref = reference.value(inst)
        if value is None or not _finite(value):
            return FAILED, "no finite value in --json output"
        if ref is None:
            return FAILED, f"exit 0, but the in-process reference raised {reference.error(inst)!r}"
        if label.startswith("solve-linear2-proposal"):
            if not ref >= value - ORDER_TOL:
                return FAILED, f"persuasion-first {ref} < proposal-first {value}"
        elif not abs(value - ref) <= TIMING_EQUIV_TOL:
            return FAILED, f"value {value} vs reference {ref}"
    elif label == "sweep-tilt":
        rows = out.strip().splitlines()[1:]
        if not rows or any(not r.endswith(",pass") for r in rows):
            return FAILED, "sweep rows missing or not monotone"
    elif label == "figure-6":
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        if len(rows) != 101 or any(float(r[1]) > float(r[2]) + ORDER_TOL for r in rows):
            return FAILED, "figure 6 rows missing or proposal-first above persuasion-first"
    return OK, None


class CliReference:
    """In-process answers the CLI children are checked against.  Computed
    after the timed loop with the same literals the children parse."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple[str, ...], Tuple[Optional[float], Optional[BaseException]]] = {}

    def _solve(self, inst: Instance):
        argv = tuple(inst.args)
        if argv not in self._cache:
            self._cache[argv] = self._compute(argv)
        return self._cache[argv]

    @staticmethod
    def _compute(argv: Tuple[str, ...]):
        cmd = argv[0]
        if cmd == "oracle":
            return None, None
        try:
            _, model, timing, dlit, llit = argv[:5]
            d = dist.from_literal(dlit)
            loss = prefs.from_literal(llit)
            if model == "quad":
                # Timing equivalence: both timings must give this value.
                return qsolve.solve_persuasion_first(d, loss).value, None
            if model == "linear2":
                (ell, _), (h, mu0) = d.points
                env = BinaryTypeEnv(ell, h, mu0)
                if timing == "proposal-first":
                    lsolve.solve_proposal_first_binary(env, loss)  # may refuse
                return lsolve.solve_persuasion_first_binary(env, loss).value, None
            (_, w0), (ell, wl), (h, _) = d.points
            return lsolve.three_type_values((w0, wl), (0.0, ell, h), loss).v_bestbinary, None
        except Exception as exc:  # recorded: the reference itself may refuse
            return None, exc

    def expected_code(self, inst: Instance) -> Tuple[int, Optional[str]]:
        """Expected exit code, and the refusal reason when the model's
        assumptions fail for this input (exit 2 is then the right answer)."""
        if inst.args[0] != "solve" or inst.expect["code"] != 0:
            return inst.expect["code"], None
        _, exc = self._solve(inst)
        if isinstance(exc, AssumptionViolatedError):
            return 2, f"AssumptionViolatedError: {exc}"
        return 0, None

    def error(self, inst: Instance) -> Optional[BaseException]:
        return self._solve(inst)[1]

    def value(self, inst: Instance) -> Optional[float]:
        if "value" in inst.expect:
            return inst.expect["value"]
        return self._solve(inst)[0]


def classify(inst: Instance, result) -> Tuple[str, Optional[str]]:
    """Outcome of one in-process operation: (ok | refused | failed, reason).

    Refused: a maintained assumption of the model fails
    (AssumptionViolatedError).  Failed: any other exception, including a
    domain error on a quadratic instance the other timing solved, or an
    answer outside the tolerances.
    """
    attempts = result
    for a in attempts:
        if isinstance(a.error, AssumptionViolatedError):
            return REFUSED, f"AssumptionViolatedError: {a.error}"
    errors = [a.error for a in attempts if a.error is not None]
    if errors:
        exc = errors[0]
        reason = f"{type(exc).__name__}: {exc}"
        if (inst.kind == "quad" and isinstance(exc, VetoPersuasionError)
                and len(errors) < len(attempts)):
            solved = "persuasion-first" if attempts[0].error is None else "proposal-first"
            reason += f" ({solved} solved it)"
        return FAILED, reason
    values = [a.value for a in attempts]
    if inst.kind == "quad":
        mismatch = check_quad(inst, *values)
    elif inst.kind == "linear2":
        mismatch = check_linear2(inst, *values)
    elif inst.kind == "linear3":
        mismatch = check_linear3(inst, *values)
    else:
        mismatch = check_oracle(inst, *values)
    return (FAILED, mismatch) if mismatch else (OK, None)


def regime_class(inst: Instance, result) -> Optional[str]:
    """The persuasion-first regime an operation landed in, for class shares."""
    first = result[0]
    if first.error is not None:
        return None
    if inst.kind == "quad":
        return first.value.regime.value
    if inst.kind == "linear2":
        return first.value.regime
    if inst.kind == "linear3":
        return first.value.branch
    return first.value[0]


# Defects of the program at the commit that defined this benchmark.  They
# are counted as failed like any other failure; ``correct`` turns false
# only for a failure that matches none of them.
KNOWN_DEFECTS = {
    "quad-prf-full-mass-below":
        "solve_proposal_first raises FullMassBelowError on a valid prior that "
        "solve_persuasion_first solves: the bisection in _acceptance_cutoff "
        "nears theta_hi",
    "three-type-restricted-search":
        "three_type_values searches two one-parameter signal families; the "
        "unrestricted oracle finds a better binary signal (gap > 1e-4)",
    "cli-power-nan": "power:nan leaks a ValueError from brentq: exit 1, not 2",
    "cli-uniform-inf": "uniform:0.6,inf is accepted: exit 0, not 2",
    "cli-tilt-800": "tilt:uniform:-1,1;800 overflows in quad: exit 1, not 0",
}

_ROBUSTNESS_BASELINE_CODE = {"power-nan": 1, "uniform-inf": 0, "tilt-800": 1}


def known_defect(inst: Instance, result) -> Optional[str]:
    """The known defect a failed operation shows, or None for a new failure."""
    if inst.kind == "cli":
        if result.error is not None:
            return None
        code, out, err = result.value
        label = inst.classes["command"]
        if _ROBUSTNESS_BASELINE_CODE.get(label) == code:
            return "cli-" + label
        if label == "solve-quad-prf-tilt" and code == 2 and "no mass above" in err:
            return "quad-prf-full-mass-below"
        if label == "oracle-linear3" and code == 3 and "FAIL binary-signal-search" in out:
            return "three-type-restricted-search"
        return None
    if inst.kind == "quad":
        pf, prf = result
        if pf.error is None and isinstance(prf.error, FullMassBelowError):
            return "quad-prf-full-mass-below"
    if inst.kind == "oracle-linear3" and result[0].error is None:
        _, checks = result[0].value
        if any(name == "binary-signal-search" and not ok for name, ok, _ in checks):
            return "three-type-restricted-search"
    return None
