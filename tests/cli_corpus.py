"""The `vps` command corpus: one table of commands, each with its exit code
and an optional output fragment.  CI runs it after an install without the
test extra (no scipy, no hypothesis); `test_cli.py::test_cli_corpus` runs it
in a subprocess.  Usage, no arguments: PYTHONPATH=src python tests/cli_corpus.py

Each row runs in this process through `vetopersuasion.cli.main`, with
warnings as errors, and must meet the exit-code contract of `cli.py`:
0 has an empty stderr and no FAIL in stdout; 2 has an empty stdout and one
stderr line that starts with "error:"; 3 has an empty stderr and a fragment
that names the failing check.  The fragment is looked for in stderr on code
2 and in stdout otherwise.  The script checks that importing
`vetopersuasion.cli` loads no numpy, scipy, dataclasses or inspect, runs the
rows that are not `oracle` commands (none may load numpy, scipy, hypothesis
or `vetopersuasion.oracle`), then the `oracle` rows (none may load scipy or
hypothesis).
It prints every failing row and exits 1 if any fails.
"""

import contextlib
import io
import shlex
import sys
import warnings

TIMINGS = ("persuasion-first", "proposal-first")
PAPER3 = "atoms:0:.7,0.1:.2,0.5:.1"  # the paper's three-type example
# FiniteAtoms accepts these weights; 1 - 0.6 - 0.4000000000000001 is -5.6e-17,
# a residual on the top atom that both linear3 paths read as 0.
RESIDUAL3 = "atoms:0:0.6,0.1:0.4000000000000001,0.5:1e-300"
# ell = 0 and a subnormal h, on which phi(h) = (0.5 h) / h rounds above 1/2.
SUBNORMAL2 = "atoms:0:0.5,1e-310:0.5"
# A support 2e-16 wide on which z(theta_lo) rounds to >= 0 in solve_cutoff.
NARROW = "uniform:-4.327947371105713e-17,1.7186974336222915e-16 exp:0.12972665772663997"

# (command line after `vps`, exit code, fragment or None)
ROWS = [
    # Quadratic loss, continuous types.
    *((f"solve quad {t} uniform:-1,1 power:2", 0, None) for t in TIMINGS),
    *((f'solve quad {t} "tilt:uniform:-1,1;-0.5" power:2', 0, None) for t in TIMINGS),
    ('solve quad proposal-first "tilt:uniform:-1,1;2" power:2', 0, None),
    ('solve quad proposal-first "tilt:uniform:-1,1;-1" power:2', 0, None),
    ('solve quad proposal-first "tilt:uniform:-0.2,0.3;3" power:2', 0, None),
    ('solve quad proposal-first "tilt:uniform:-1.53,1e-10;1e-10" linear', 0, None),
    # Under 1e-12 of mass lies above cutoffs far below theta_hi.
    ('solve quad proposal-first "tilt:uniform:-0.4242106756443901,0.23004268647622084;'
     '-62.278208417747805" linear', 0, None),
    *((f'solve quad {t} "tilt:uniform:-1,1;800" power:2 --json', 0, '"regime": "IdealAccepted"')
      for t in TIMINGS),
    ("solve quad persuasion-first uniform:-2,5e-324 linear", 0, None),
    ("solve quad persuasion-first uniform:-1,1.5 linear", 0, None),
    ("solve quad persuasion-first uniform:-1.0,1.9999999999999998 linear", 0, None),
    ("solve quad persuasion-first uniform:-1,1 power:1.5", 0, None),
    *((f"solve quad {t} uniform:-1,1 exp:700", 0, None) for t in TIMINGS),  # exp(700) is finite
    # The mean 0.4 > 0: proposing 0.8 unconditionally is accepted, no cutoff.
    ("solve quad proposal-first uniform:-0.2,1 power:2", 0, "regime: NoInfo"),
    # Supports narrower than 1e-12: the cutoff cap stays inside the support, and
    # the no-information band is narrower than it, so both timings cut at about 0.
    *((f"solve quad proposal-first {prior}", 0, "regime: BinaryCutoff")
      for prior in ("uniform:-1e-13,1e-13 linear", "uniform:-1e-13,1e-13 power:2",
                    '"tilt:uniform:-1e-13,1e-13;1" linear')),
    # theta_hi > 1: the best cutoff is the kink where the proposal reaches 1,
    # which the cutoff search only nears; it is a candidate of its own.
    ("solve quad proposal-first uniform:-1,1.5 linear --json", 0, '"value": -0.2,'),
    *((f"solve quad {t} uniform:-1e6,1 linear", 0, "regime: BinaryCutoff") for t in TIMINGS),
    # Persuasion-first reads no information there, as proposal-first does.
    (f"solve quad persuasion-first {NARROW}", 0, "regime: NoInfo"),
    (f"oracle quad {NARROW}", 0, "PASS tangent-certificate: max violation 0"),
    # Linear loss, two and three types.
    *((f"solve linear2 {t} atoms:0.1:.8,0.7:.2 linear", 0, None) for t in TIMINGS),
    ("solve linear2 proposal-first atoms:0.1:.8,0.7:.2 linear --json", 0, None),
    # h > 1 puts the proposal h above p_bar = 1; exp(80 x) overflowed past x = 1.
    ("solve linear2 proposal-first atoms:0.1:.9,1.5:.1 linear", 0, None),
    ("solve linear2 proposal-first atoms:0.1:.8,0.7:.2 exp:80", 0, None),
    ("solve linear2 persuasion-first atoms:0.1:.7,1e308:.3 power:2", 0, None),
    # psi_cap divided by 1 - 2 mu = 0 at mu = 1/2 there.
    (f"solve linear2 proposal-first {SUBNORMAL2} linear", 0, "regime: NoInfo"),
    *((f"solve linear3 {t} {PAPER3} linear", 0, None) for t in TIMINGS),
    *((f"solve linear3 {t} {RESIDUAL3} linear", 0, None) for t in TIMINGS),
    # Sweeps and figures; tilts 2.5 and 3 have no cutoff and read n/a.
    ("sweep risk-aversion", 0, None),
    ("sweep theta-hi", 0, None),
    *((f"sweep tilt{v}", 0, None) for v in ("", " --values 0,0.5,1", " --values 0,1,2.5,3",
                                            " --values 2.5", " --values 3")),
    ("sweep tilt --values 2.5,1,0", 3, "-0.53321062823,fail"),
    *((f"figure {i}", 0, None) for i in range(1, 7)),
    # Input errors; the widths of the uniform supports overflow to inf.
    ("solve quad persuasion-first gaussian:0,1 linear", 2, None),
    ("solve quad persuasion-first uniform:-1,1 exp:800", 2, "overflows the loss"),
    ("solve quad persuasion-first uniform:-1,1 power:0.5", 2, "gamma >= 1"),
    ('solve linear2 persuasion-first "tilt:atoms:0.1:.8,0.7:.2;2000" linear', 2,
     "atom probabilities must be strictly positive"),
    *((f"solve quad {t} uniform:{lo},1e308 linear", 2, None)
      for t in TIMINGS for lo in ("-1e308", "-1.7e308")),
    ("sweep tilt --values 0,x", 2, None),
    ("figure 1 --grid -3", 2, None),
    # A grid of 1e9 points would need 8 GB or more: refused before any is built.
    ("figure 1 --grid 1000000000", 2, None),
    ("oracle linear2 atoms:0.1:.5,0.7:.5 linear --grid 1000000000", 2, None),
    ("oracle quad uniform:-1,1 power:2 --grid 1", 2, None),
    ("oracle linear2 atoms:0.1:.5,0.7:.5 linear --grid 1", 2, None),
    # --tol is a finite gap >= 0.
    ("oracle quad uniform:-1,1 power:2 --tol nan", 2, None),
    *((f"oracle quad uniform:-1,1 power:2 --grid 50 --tol {x}", 2, None)
      for x in ("nan", "-1", "inf")),
    # Oracle cross-checks.
    ("oracle quad uniform:-1,1 power:2", 0, "PASS price-certificate"),
    ("oracle quad uniform:-1,1 power:2 --grid 150", 0,
     "PASS partition-search: oracle -0.407407407 vs -0.407407407"),
    ("oracle quad uniform:-0.2,1 power:2 --grid 150", 0, "no improving partition found"),
    # ulp(1e6) > 1e-10, the polish's tol: its bracket stopped narrowing and never ended.
    *((f"oracle quad uniform:{lo},1 {loss}", 0, "PASS partition-search")
      for lo, loss in (("-1e6", "linear"), ("-2e6", "power:2"))),
    # The grid step is 25 type units, so no cut lands near the solver's -1/3: the
    # search falls short of the solver by more than --tol, which shows nothing.
    ("oracle quad uniform:-1e4,1 power:2", 0,
     "INFO partition-search: grid did not reach the solver (oracle -1 vs -0.999881493)"),
    # No partition search where the regime leaves nothing to compare; on this
    # support it warned (inf - inf).
    ("oracle quad uniform:-1e300,1 linear", 0, "PASS regime: StatusQuoOnly"),
    # hi^2 - a^2 overflowed in upper_partial_mean, so the grid read nan: a false FAIL.
    ("oracle quad uniform:-1e160,1e160 exp:2", 0, "PASS partition-search"),
    ("oracle quad uniform:-1e300,1e300 power:2", 0, "PASS partition-search"),
    ('oracle quad "tilt:uniform:-1,1;2" exp:1', 0, None),
    *((f'oracle quad "tilt:uniform:-1,1;{lam}" power:2', 0, None)
      for lam in ("700", "-700", "1e-300")),
    # Payoffs near c(1) ~ 6.5e127 differ only by rounding.
    ("oracle quad uniform:-1,1 exp:300", 0, None),
    ("oracle linear2 atoms:0.1:.8,0.7:.2 exp:300", 0, None),
    ("oracle linear2 atoms:0.25:.85,0.9:.15 power:2", 0, None),
    # At this scale an absolute hull tolerance lost the timing order.
    ("oracle linear2 atoms:9.030187855084931e-05:0.73235894692613523,"
     "0.00034729390625454215:0.26764105307386477 linear", 0, "PASS timing-order"),
    ('oracle linear2 "atoms:0:.5,1e308:.5" linear', 0, None),
    (f"oracle linear2 {SUBNORMAL2} linear", 0, "PASS timing-order"),
    ('oracle linear2 "atoms:0.1:.5,1e17:.5" power:2', 0, None),
    (f"oracle linear3 {PAPER3} linear", 0, "PASS binary-signal-search: oracle -0.866666667"),
    *((f"oracle linear3 {PAPER3} linear --grid {n}", 0, None) for n in (40, 101)),
    (f"oracle linear3 {PAPER3} exp:300", 0, None),
    (f"oracle linear3 {RESIDUAL3} linear", 0, "PASS binary-signal-search: oracle -0.92"),
    ("oracle linear3 atoms:0:0.49423940919901654,0.7223478432410864:0.5029267086738041,"
     "0.7826817705759962:0.002833882127179388 exp:2.7530702631262596", 0, None),
]


def check(line, code, fragment):
    """Run `vps <line>`; return how it breaks the contract (empty if it does not)."""
    from vetopersuasion.cli import main

    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            got = main(shlex.split(line))
    except (Exception, SystemExit):  # a traceback, or an argparse usage error
        import traceback

        return [traceback.format_exc()]
    out, err = out.getvalue(), err.getvalue()
    problems = [] if got == code else [f"exit {got}, expected {code}"]
    if code == 2 and (out or not err.startswith("error:") or err.count("\n") != 1):
        problems.append("code 2 wants an empty stdout and one stderr line 'error: ...'")
    if code != 2 and err:
        problems.append("stderr is not empty")
    if code == 0 and "FAIL" in out:
        problems.append("stdout holds FAIL")
    if code == 3 and "fail" not in (fragment or "").lower():
        problems.append("code 3 wants a fragment that names the failing check")
    if fragment is not None and fragment not in (err if code == 2 else out):
        problems.append(f"output lacks {fragment!r}")
    return problems + [f"stdout {out[-300:]!r}, stderr {err[-300:]!r}"] if problems else []


def _loaded(*names):
    """Those of names, top-level packages or dotted module names, that are loaded."""
    return set(names) & (set(sys.modules) | {m.split(".")[0] for m in sys.modules})


if __name__ == "__main__":
    import vetopersuasion.cli  # noqa: F401

    bad = _loaded("numpy", "scipy", "dataclasses", "inspect")
    failures = [f"import vetopersuasion.cli: loaded {sorted(bad)}"] if bad else []
    seen = set()
    for line, code, fragment in sorted(ROWS, key=lambda row: row[0].startswith("oracle ")):
        problems = check(line, code, fragment)
        oracle = line.startswith("oracle ")
        new = _loaded("scipy", "hypothesis",
                      *(() if oracle else ("numpy", "vetopersuasion.oracle"))) - seen
        seen |= new
        problems += [f"loaded {sorted(new)}"] if new else []
        failures += [f"vps {line}: " + "; ".join(problems)] if problems else []
    print("".join(f"FAIL {failure}\n" for failure in failures), end="")
    print(f"{len(ROWS)} rows, {len(failures)} failures")
    sys.exit(1 if failures else 0)
