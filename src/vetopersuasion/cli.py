"""Command-line interface: solve instances, run sweeps, emit figure data,
and run oracle cross-checks.

Each command imports the solver modules it runs, and ``json`` and ``csv``
when it writes them, so a cold ``vps`` loads only what its subcommand
needs.  Only ``vps oracle`` needs numpy, for the oracles.

Exit codes: 0 on success, 2 on input errors, 3 when a cross-check fails.
"""

from __future__ import annotations

import argparse
import io
import sys
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, VetoPersuasionError

if TYPE_CHECKING:
    from .prefs import ProposerPreferences


def _write(text: str, out: Optional[str]) -> None:
    """Write text to the file named by --out, or to stdout when it is unset."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(rows: List[Sequence], header: Sequence[str], out: Optional[str]) -> None:
    import csv

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(["%.12g" % v if isinstance(v, float) else v for v in row])
    _write(buf.getvalue(), out)


def _emit(report: Dict, as_json: bool, out: Optional[str]) -> None:
    if as_json:
        import json

        text = json.dumps(report, sort_keys=True) + "\n"
    else:
        text = "".join(f"{k}: {v}\n" for k, v in report.items())
    _write(text, out)


def _parse_instance(args: argparse.Namespace) -> Tuple[object, ProposerPreferences]:
    """The prior that args.model reads, and the loss: the distribution for
    quad, a BinaryTypeEnv for linear2, and (weights, levels) for linear3."""
    from .dist import FiniteAtoms, from_literal
    from .prefs import from_literal as prefs_from_literal

    d, prefs = from_literal(args.dist), prefs_from_literal(args.loss)
    if args.model == "quad":
        return d, prefs
    n, atoms = (2, "two atoms: atoms:l:p,h:q") if args.model == "linear2" else (3, "three atoms")
    if not isinstance(d, FiniteAtoms) or len(d.points) != n:
        raise VetoPersuasionError(f"{args.model} takes exactly {atoms}")
    if n == 2:
        from .accept import BinaryTypeEnv

        (ell, _), (h, mu0) = d.points
        return BinaryTypeEnv(ell=ell, h=h, mu0=mu0), prefs
    (t0, w0), (t1, w1), (t2, _) = d.points
    if t0 != 0.0:
        raise VetoPersuasionError("linear3 requires the lowest atom at 0")
    return ((w0, w1), (t0, t1, t2)), prefs


def _report(regime: str, cutoffs: List, proposals: List, value: float,
            veto_prob: Optional[float], **extra: float) -> Dict:
    """The solve report; the text form prints its keys in this order."""
    return {"regime": regime, "cutoffs": cutoffs, "proposals": proposals,
            "value": value, "veto_prob": veto_prob, **extra}


def cmd_solve(args: argparse.Namespace) -> int:
    prior, prefs = _parse_instance(args)
    persuasion_first = args.timing == "persuasion-first"
    if args.model == "quad":
        from . import qsolve

        solve = qsolve.solve_persuasion_first if persuasion_first else qsolve.solve_proposal_first
        r = solve(prior, prefs)
        cutoffs = [] if r.s_star is None else [r.s_star]
        report = _report(r.regime.value, cutoffs, [r.proposal], r.value, r.veto_prob)
    elif args.model == "linear2":
        from . import lsolve

        if persuasion_first:
            r = lsolve.solve_persuasion_first_binary(prior, prefs)
            report = _report(r.regime, [mu for mu, _, _ in r.posteriors],
                             [p for _, _, p in r.posteriors], r.value, 0.0)
        else:
            p_opt, value, experiment = lsolve.solve_proposal_first_binary(prior, prefs)
            if experiment:
                report = _report("Split", [mu for mu, _ in experiment], [p_opt], value,
                                 experiment[0][1])
            else:
                report = _report("NoInfo", [prior.mu0], [p_opt], value, 0.0)
    else:  # linear3: both timings report the best binary signal
        from . import lsolve

        r = lsolve.three_type_values(*prior, prefs)
        report = _report(f"BestBinary[{r.branch}]", list(r.sigma_star), [], r.v_bestbinary, None,
                         value_noinfo=r.v_noinfo, value_fullinfo=r.v_fullinfo)
    _emit(report, args.json, args.out)
    return 0


def _sweep_row(instance: Callable[[float], Tuple], x: float) -> Tuple:
    """(x, s_star, s_upper, F(s_star), value, has_cutoff) on the prior and
    loss instance(x).  Without a cutoff (no information, ideal accepted)
    both posterior means are the prior mean."""
    from .qsolve import solve_persuasion_first

    d, prefs = instance(x)
    r = solve_persuasion_first(d, prefs)
    s = r.s_star if r.s_star is not None else d.mean()
    up = r.s_upper if r.s_upper is not None else d.mean()
    return x, s, up, d.cdf(s), r.value, r.s_star is not None


def _risk_aversion(x: float) -> Tuple:
    from .dist import UniformInterval
    from .prefs import Exponential

    return UniformInterval(-1.0, 1.0), Exponential(x)


def _tilt(x: float) -> Tuple:
    # theta_hi = 0.8 keeps moderately tilted priors below mean 1/2, so the
    # default rows stay in the cutoff regime and the columns are comparable.
    from .dist import UniformInterval, lr_tilt
    from .prefs import Power

    base = UniformInterval(-1.0, 0.8)
    return (lr_tilt(base, x) if x != 0.0 else base), Power(2.0)


def _theta_hi(x: float) -> Tuple:
    from .dist import UniformInterval
    from .prefs import Power

    return UniformInterval(-1.0, x), Power(2.0)


# Sweep kind -> default grid (theta-hi's, ten points on [0.55, 1], is built
# when it runs), the directions in which s_star and s_upper move on it, and
# the (prior, loss) at parameter x; each imports only what it builds.
_SWEEPS = {
    "risk-aversion": ([0.5, 1.0, 2.0, 4.0], ("<=", "<="), _risk_aversion),
    "tilt": ([0.0, 0.5, 1.0, 2.0], ("<=", ">="), _tilt),
    "theta-hi": (None, ("<=", ">="), _theta_hi),
}


def cmd_sweep(args: argparse.Namespace) -> int:
    grid, (dir_s, dir_up), instance = _SWEEPS[args.kind]
    if args.values:
        try:
            grid = [float(v) for v in args.values.split(",")]
        except ValueError as exc:
            raise DomainError(f"--values takes numbers, got {args.values!r}") from exc
    elif grid is None:
        from ._numeric import linspace

        grid = linspace(0.55, 1.0, 10)
    rows = [_sweep_row(instance, x) for x in grid]

    def ok(prev: float, cur: float, sense: str) -> bool:
        return cur <= prev + 1e-9 if sense == "<=" else cur >= prev - 1e-9

    # Only two neighbouring rows that both have a cutoff are compared; a row
    # without one has no monotone verdict ("n/a") and never fails the sweep.
    out_rows: List[Sequence] = []
    for i, (p, s, up, fs, v, cut) in enumerate(rows):
        verdict = "pass" if cut else "n/a"
        if cut and i > 0:
            _, s0, up0, _, _, cut0 = rows[i - 1]
            if cut0 and not (ok(s0, s, dir_s) and ok(up0, up, dir_up)):
                verdict = "fail"
        out_rows.append([p, s, up, fs, v, verdict])
    _write_csv(
        out_rows, ["parameter", "s_star", "s_upper", "F_s_star", "value", "monotone"], args.out
    )
    return 3 if any(r[-1] == "fail" for r in out_rows) else 0


def _figure1(xs: List[float]) -> List[Sequence]:
    from .closedform import u_bi, u_fl1, u_fl2, u_no

    return [[t, u_no(t), u_fl1(t), u_fl2(t), u_bi(t)] for t in xs]


def _figure2(xs: List[float]) -> List[Sequence]:
    from .prefs import Power
    from .qsolve import indirect_u

    prefs = Power(2.0)
    return [[s, indirect_u(s, prefs)] for s in xs]


def _figure3(xs: List[float]) -> List[Sequence]:
    from .closedform import kappa

    return [[t, kappa(t), kappa(t) + t] for t in xs]


def _figure4(xs: List[float]) -> List[Sequence]:
    from .accept import BinaryTypeEnv
    from .lsolve import uhat
    from .prefs import Linear

    prefs, envs = Linear(), [BinaryTypeEnv(0.1, 0.45, 0.5), BinaryTypeEnv(0.1, 0.7, 0.5)]
    return [[m] + [uhat(e, prefs, m) for e in envs] for m in xs]


def _figure5(xs: List[float]) -> List[Sequence]:
    from .accept import BinaryTypeEnv
    from .lsolve import utilde
    from .prefs import Linear

    prefs, envs = Linear(), [BinaryTypeEnv(0.15, 0.7, m) for m in (0.2, 0.3, 0.45)]
    return [[p] + [utilde(e, prefs, p) for e in envs] for p in xs]


def _figure6(xs: List[float]) -> List[Sequence]:
    from . import lsolve
    from .accept import BinaryTypeEnv
    from .prefs import Linear

    prefs, rows = Linear(), []
    for m in xs:
        env = BinaryTypeEnv(0.1, 0.7, m)
        pf = lsolve.solve_proposal_first_binary(env, prefs)[1]
        ef = lsolve.solve_persuasion_first_binary(env, prefs).value
        rows.append([m, pf, ef, lsolve.uhat(env, prefs, m)])
    return rows


# Figure id -> (grid range, CSV header, rows over the grid); each rows
# function imports only the modules it runs.  Figure 5's range ends at
# p_bar = min(2h, 1) = 1 of its types (0.15, 0.7).
_FIGURES = {
    1: ((-2.0, -0.01), ["theta_lo", "u_no", "u_fl1", "u_fl2", "u_bi"], _figure1),
    2: ((-1.0, 1.0), ["s", "indirect_u"], _figure2),
    3: ((0.05, 1.0), ["theta_hi", "kappa", "proposal"], _figure3),
    4: ((0.0, 1.0), ["mu", "uhat_h045", "uhat_h07"], _figure4),
    5: ((0.0, 1.0), ["p", "utilde_mu02", "utilde_mu03", "utilde_mu045"], _figure5),
    6: ((0.01, 0.99), ["mu0", "proposal_first", "persuasion_first", "no_info"], _figure6),
}


def cmd_figure(args: argparse.Namespace) -> int:
    from ._numeric import linspace

    (lo, hi), header, rows = _FIGURES[args.id]
    _write_csv(rows(linspace(lo, hi, args.grid or 101)), header, args.out)
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    prior, prefs = _parse_instance(args)
    from . import oracle

    scale = max(1.0, prefs.loss(1.0))  # payoff gaps count in units of max(1, c(1))
    tol = (args.tol if args.tol is not None else 1e-6) * scale
    checks: List[Tuple[str, Optional[bool], str]] = []
    if args.model == "quad":
        from .qsolve import Regime, solve_persuasion_first

        r = solve_persuasion_first(prior, prefs)
        if r.regime is Regime.BINARY_CUTOFF or r.regime is Regime.NO_INFO:
            cutoff = r.regime is Regime.BINARY_CUTOFF
            ok, viol = (oracle.verify_certificate(prior, prefs, r.s_star, r.s_upper) if cutoff
                        else oracle.verify_no_info_certificate(prior, prefs))
            cert = "price-certificate" if cutoff else "tangent-certificate"
            checks.append((cert, ok, f"max violation {viol:.3g}"))
            best, _ = oracle.partition_search(prior, prefs, 3, min(args.grid or 400, 500))
            ok, gap = best <= r.value + tol, f"oracle {best:.9g} vs {r.value:.9g}"
            msg = (gap if cutoff else "no improving partition found" if ok
                   else f"improved to {best:.9g}")
            if best < r.value - tol:  # a grid too coarse for the instance shows nothing
                ok, msg = None, f"grid did not reach the solver ({gap})"
            checks.append(("partition-search", ok, msg))
        else:
            checks.append(("regime", True, r.regime.value))
    elif args.model == "linear2":
        from . import lsolve

        p_opt, value, _ = lsolve.solve_proposal_first_binary(prior, prefs)
        _, v_g = oracle.proposal_first_grid(prior, prefs, args.grid or 4001)
        checks.append(("proposal-grid", abs(v_g - value) <= tol, f"grid {v_g:.9g} vs {value:.9g}"))
        pf = lsolve.solve_persuasion_first_binary(prior, prefs)
        v_s, (a, b) = oracle.split_search(prior, prefs, min(args.grid or 2001, 2001))
        checks.append(("split-search", abs(v_s - pf.value) <= tol,
                       f"split {v_s:.9g} at ({a:.6g}, {b:.6g}) vs {pf.value:.9g}"))
        ordered = pf.value >= value - 1e-10 * scale
        checks.append(("timing-order", ordered, f"{pf.value:.9g} >= {value:.9g}"))
    else:
        from . import lsolve

        r = lsolve.three_type_values(*prior, prefs)
        best, sigma = oracle.binary_signal_search_atoms(*prior, prefs, min(args.grid or 41, 101))
        sigma = tuple(round(s, 6) for s in sigma)
        checks.append(("binary-signal-search", abs(best - r.v_bestbinary) <= 1e-4 * scale,
                       f"oracle {best:.9g} (sigma={sigma}) vs {r.v_bestbinary:.9g}"))
    lines = [f"{'INFO' if ok is None else 'PASS' if ok else 'FAIL'} {name}: {msg}"
             for name, ok, msg in checks]
    _write("\n".join(lines) + "\n", args.out)
    return 0 if all(ok or ok is None for _, ok, _ in checks) else 3


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not getattr(args, "config", None):
        return
    import json

    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # not JSON, or not UTF-8
            raise DomainError(f"bad config file {args.config!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise DomainError(f"config file must hold a JSON object, got {type(cfg).__name__}")
    command = next(a for a in parser._actions if a.dest == "command")
    actions = {a.dest: a for a in command.choices[args.command]._actions}
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"unknown config key {key!r}")
        # Explicit CLI flags win over the config file; unset flags are None.
        if getattr(args, attr) is None:
            setattr(args, attr, _config_value(key, val, actions[attr]))


def _config_value(key: str, val: object, action: argparse.Action) -> object:
    """A config value checked as on the command line: a switch takes a JSON
    bool, any other flag a string (or a typed flag's number) its type accepts."""
    if action.nargs == 0:  # store_true
        if isinstance(val, bool):
            return val
    elif isinstance(val, str) or (action.type and type(val) in (int, float)):
        try:
            return action.type(str(val)) if action.type else val
        except ValueError:
            pass
    raise DomainError(f"config key {key!r} has a bad value {val!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vps", description="Veto-bargaining persuasion solvers")
    sub = parser.add_subparsers(dest="command", required=True)

    def instance(p: argparse.ArgumentParser, timing: bool) -> None:
        p.add_argument("model", choices=["quad", "linear2", "linear3"])
        if timing:
            p.add_argument("timing", choices=["persuasion-first", "proposal-first"])
        p.add_argument("dist", help="uniform:lo,hi | atoms:t:p,... | tilt:(base);lam")
        p.add_argument("loss", help="linear | power:gamma | exp:alpha")

    def common(p: argparse.ArgumentParser, fn, grid: bool = False) -> None:
        """The flags every command takes, and the function that runs it.
        Defaults are None so a config file can tell "unset" from "explicit"."""
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true", default=None,
                       help="machine-readable output")
        p.add_argument("--out", default=None, help="write output to a file")
        p.add_argument("--config", default=None, help="JSON config file mirroring flags")
        if grid:
            p.add_argument("--grid", type=int, default=None, help="grid size override")

    p = sub.add_parser("solve", help="solve a single instance")
    instance(p, timing=True)
    common(p, cmd_solve)

    p = sub.add_parser("sweep", help="comparative-statics sweep to CSV")
    p.add_argument("kind", choices=sorted(_SWEEPS))
    p.add_argument("--values", default=None, help="comma-separated parameter values; "
                   "write a list that starts with - as --values=-1,0,1")
    common(p, cmd_sweep)

    p = sub.add_parser("figure", help="emit figure data as CSV")
    p.add_argument("id", type=int, choices=sorted(_FIGURES))
    common(p, cmd_figure, grid=True)

    p = sub.add_parser("oracle", help="cross-check an instance against brute force")
    instance(p, timing=False)
    common(p, cmd_oracle, grid=True)
    p.add_argument("--tol", type=float, default=None, help="check tolerance, times max(1, c(1))")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        grid, tol = getattr(args, "grid", None), getattr(args, "tol", None)
        if grid is not None and not 2 <= grid <= 100_001:
            raise DomainError(f"--grid takes an integer from 2 to 100001, got {grid!r}")
        if tol is not None and not 0.0 <= tol < float("inf"):  # NaN fails too
            raise DomainError(f"--tol takes a finite number >= 0, got {tol!r}")
        return args.fn(args)
    except (VetoPersuasionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
