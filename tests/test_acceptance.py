"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in captured output) before asserting.
"""

import numpy as np
import pytest

from vetopersuasion import (
    BinaryTypeEnv,
    Exponential,
    Linear,
    Power,
    Regime,
    UniformInterval,
    lr_tilt,
    phi_threshold,
    solve_persuasion_first,
    solve_persuasion_first_binary,
    solve_proposal_first,
    solve_proposal_first_binary,
    three_type_values,
)
from vetopersuasion.closedform import kappa, u_bi, u_fl1, u_fl2, u_no
from vetopersuasion.oracle import (
    binary_signal_search_atoms,
    partition_search,
    proposal_first_grid,
    split_search,
    verify_certificate,
)

LIN = Linear()
SQ = Power(2.0)

SWEEP_LOSSES = [
    Linear(),
    Power(1.5),
    Power(2.0),
    Power(3.0),
    Exponential(0.5),
    Exponential(1.0),
    Exponential(1.5),
    Exponential(2.0),
    Exponential(3.0),
    Exponential(4.0),
]
SWEEP_LOS = np.linspace(-2.0, -0.05, 10)


def report(n, ok, summary):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {summary}")
    assert ok, f"criterion {n}: {summary}"


def test_criterion_01_kappa_endpoint():
    err = abs(kappa(1.0) + 1.0 / 3.0)
    report(1, err <= 1e-12, f"kappa(1) = -1/3 (error {err:.2e})")


def test_criterion_02_uniform_quadratic_benchmark():
    d = UniformInterval(-1.0, 1.0)
    r = solve_persuasion_first(d, SQ)
    ok = (
        abs(r.s_star + 1.0 / 3.0) <= 1e-9
        and abs(r.proposal - 2.0 / 3.0) <= 1e-9
        and abs(r.value + 11.0 / 27.0) <= 1e-9
        and abs(r.value - u_bi(-1.0)) <= 1e-9
    )
    v_oracle, _ = partition_search(d, SQ, k_max=2, grid_n=400)
    ok = ok and abs(v_oracle - r.value) <= 1e-4
    report(
        2,
        ok,
        f"s_star={r.s_star:.9f}, proposal={r.proposal:.9f}, value={r.value:.9f}, "
        f"oracle gap {abs(v_oracle - r.value):.2e}",
    )


def _sweep_instances():
    return [
        (UniformInterval(lo, 1.0), prefs)
        for lo in SWEEP_LOS
        for prefs in SWEEP_LOSSES
    ]


def test_criterion_03_timing_equivalence():
    worst = 0.0
    for d, prefs in _sweep_instances():
        pf = solve_persuasion_first(d, prefs).value
        pp = solve_proposal_first(d, prefs).value
        worst = max(worst, abs(pf - pp))
    report(3, worst <= 1e-9, f"100-cell sweep, max |pf-pp| = {worst:.2e}")


def test_criterion_04_certificates_and_partitions():
    worst_cert = 0.0
    worst_gap = -np.inf
    for d, prefs in _sweep_instances():
        r = solve_persuasion_first(d, prefs)
        if r.regime is Regime.BINARY_CUTOFF:
            ok_c, viol = verify_certificate(d, prefs, r.s_star, r.s_upper)
            worst_cert = max(worst_cert, viol)
        v_oracle, _ = partition_search(d, prefs, k_max=3, grid_n=400)
        worst_gap = max(worst_gap, v_oracle - r.value)
    ok = worst_cert <= 1e-9 and worst_gap <= 1e-6
    report(
        4,
        ok,
        f"max certificate violation {worst_cert:.2e}, "
        f"max oracle-over-solver gap {worst_gap:.2e}",
    )


def test_criterion_05_example_one():
    mu_b = 5.0 / 12.0
    regimes = {}
    for mu0 in (mu_b - 0.02, mu_b, mu_b + 0.02):
        env = BinaryTypeEnv(0.1, 0.7, mu0)
        regimes[mu0] = solve_persuasion_first_binary(env, LIN).regime
    ok = regimes[mu_b - 0.02] == "Split" and regimes[mu_b] == "NoInfo" == regimes[mu_b + 0.02]

    env_b = BinaryTypeEnv(0.1, 0.7, mu_b)
    split_val, _ = split_search(env_b, LIN, 2001)
    boundary_gap = abs(solve_persuasion_first_binary(env_b, LIN).value - split_val)
    ok = ok and boundary_gap <= 1e-9

    r = solve_persuasion_first_binary(BinaryTypeEnv(0.1, 0.7, 0.2), LIN)
    mus = sorted(mu for mu, _, _ in r.posteriors)
    step = 1.0 / 4000.0
    ok = ok and abs(mus[0]) <= step and abs(mus[1] - mu_b) <= step
    ok = ok and abs(r.value + 0.56) <= 1e-6
    report(
        5,
        ok,
        f"no-info boundary at 5/12 (gap {boundary_gap:.2e}), "
        f"supports ({mus[0]:.6f}, {mus[1]:.6f}), value {r.value:.8f}",
    )


def test_criterion_06_proposal_first_panels():
    panels = {0.2: 0.4, 0.3: 0.7, 0.45: 0.795}
    ok = True
    details = []
    for mu0, expected in panels.items():
        env = BinaryTypeEnv(0.15, 0.7, mu0)
        p, v, _ = solve_proposal_first_binary(env, LIN)
        p_g, v_g = proposal_first_grid(env, LIN, grid_n=4001)
        ok = ok and abs(p - expected) <= 1e-9 and abs(p_g - p) <= 1.0 / 4000.0 + 1e-9
        details.append(f"mu0={mu0}: p={p:.6f}")
    env = BinaryTypeEnv(0.15, 0.7, 0.5)
    lo_b = env.ell / env.h
    hi_b = phi_threshold(env, env.h)
    ok = ok and abs(lo_b - 0.2142857142857143) <= 1e-6
    ok = ok and abs(hi_b - 0.36363636363636365) <= 1e-6
    report(6, ok, "; ".join(details) + f"; boundaries ({lo_b:.5f}, {hi_b:.5f})")


def test_criterion_07_three_type_benchmark():
    r = three_type_values((0.7, 0.2), (0.0, 0.1, 0.5), LIN)
    ok = (
        r.v_noinfo == -1.0
        and abs(r.v_fullinfo + 0.86) <= 1e-12
        and abs(r.branch_values[0] + 0.88) <= 1e-9
        and abs(r.v_bestbinary + 13.0 / 15.0) <= 1e-9
        and abs(r.sigma_star[1] - 5.0 / 6.0) <= 1e-6
    )
    v_oracle, _ = binary_signal_search_atoms((0.7, 0.2), (0.0, 0.1, 0.5), LIN, grid_n=101)
    ok = ok and abs(v_oracle - r.v_bestbinary) <= 1e-4
    report(
        7,
        ok,
        f"values ({r.v_noinfo}, {r.v_fullinfo}, {r.v_bestbinary:.9f}), "
        f"sigma_mid {r.sigma_star[1]:.7f}, oracle gap {abs(v_oracle - r.v_bestbinary):.2e}",
    )


def test_criterion_08_comparative_statics():
    d = UniformInterval(-1.0, 1.0)
    risk = [solve_persuasion_first(d, Exponential(a)) for a in (0.5, 1.0, 2.0, 4.0)]
    ok = all(b.s_star <= a.s_star + 1e-9 for a, b in zip(risk, risk[1:]))
    ok = ok and all(b.s_upper <= a.s_upper + 1e-9 for a, b in zip(risk, risk[1:]))

    # theta_hi = 0.8 keeps even strongly tilted priors at mean below 1/2,
    # so every sweep point stays in the binary-cutoff regime.
    tilt_base = UniformInterval(-1.0, 0.8)
    tilts = [tilt_base] + [lr_tilt(tilt_base, lam) for lam in (0.5, 1.0, 2.0)]
    rs = [(t, solve_persuasion_first(t, SQ)) for t in tilts]
    ok = ok and all(
        b.s_star <= a.s_star + 1e-9
        and tb.cdf(b.s_star) <= ta.cdf(a.s_star) + 1e-9
        and b.s_upper >= a.s_upper - 1e-9
        for (ta, a), (tb, b) in zip(rs, rs[1:])
    )
    report(
        8,
        ok,
        "risk sweep s_star "
        + " -> ".join(f"{r.s_star:.4f}" for r in risk)
        + "; tilt sweep s_star "
        + " -> ".join(f"{r.s_star:.4f}" for _, r in rs),
    )


def test_criterion_09_value_orderings():
    los = np.linspace(-2.0, -0.01, 100)
    ok = True
    signs = []
    for lo in los:
        vals = (u_no(lo), u_fl1(lo), u_fl2(lo), u_bi(lo))
        ok = ok and vals[3] >= max(vals[:3]) - 1e-12
        ok = ok and vals[2] >= vals[1] - 1e-12
        signs.append(np.sign(vals[0] - vals[1]))
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b and a != 0 and b != 0)
    ok = ok and changes == 1
    report(9, ok, f"orderings hold on 100 points; u_no - u_fl1 sign changes = {changes}")


def test_criterion_10_timing_gap():
    env = BinaryTypeEnv(0.1, 0.7, 0.3)
    pf = solve_persuasion_first_binary(env, LIN).value
    pp = solve_proposal_first_binary(env, LIN)[1]
    gap = pf - pp
    report(10, gap > 1e-3, f"persuasion-first {pf:.6f} vs proposal-first {pp:.6f} (gap {gap:.4f})")
