"""Brute-force verifiers and optimality certificates.

Everything here is brute force and structurally independent of the trusted
solvers: payoffs are recomputed from the loss primitives, the binary
persuasion-first value is the best split of the prior over every pair of
grid beliefs instead of a tangency, and optima are located by exhaustive
grids with a golden-section polish.  The grids are vectorised over the loss
primitives (``ProposerPreferences.loss_array``) and over the prior (``cdf``
and ``upper_partial_mean`` on arrays), and evaluated in blocks of rows, at
most _BLOCK entries each, so that no float64 temporary outgrows glibc's
default mmap threshold (see _BLOCK).  The linear-loss checks
derive acceptance from the Vetoer's absolute loss rather than from
``accept``: one closed form, ``_three_type_root``, serves the two-type split
grid and the three-type grid and polish.  So the oracles share no model
logic with the solvers; from ``accept`` they take only ``BinaryTypeEnv``.
A binary signal and its relabelling sigma <-> 1 - sigma induce the same two
posteriors (Kamenica & Gentzkow 2011), so the three-type grid scores only
the half of the sigma cube with sigma_0 <= 1/2.
Agreement with the fast paths is the evidence the fast paths are right.
Importing this module loads no numpy: the first array an oracle builds
does, and a polish trial on floats runs no import statement.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple

from ._numeric import golden_max, grid_max, three_weights
from .accept import BinaryTypeEnv
from .dist import TypeDistribution
from .errors import DomainError
from .prefs import ProposerPreferences

_REFINE_TOL = 1e-10
# Grid points on which the price-function certificates are checked.
_CERT_GRID = 2000
# Entries per block of a grid.  A float64 temporary of 8,192 entries takes
# 64 KiB, under glibc's default 128 KiB mmap threshold, so numpy reuses heap
# memory for it instead of mapping and faulting in fresh pages on each of the
# dozens of temporaries a grid builds; nor do the timings then depend on how
# far earlier frees have raised that threshold.
_BLOCK = 8192


def _indirect(s, prefs: ProposerPreferences):
    # From the loss primitive, elementwise over s (a float for a scalar): the
    # Proposer proposes min(2s, 1) when that is accepted, else keeps the status quo.
    # A float takes loss_array's 0-d formula without numpy, bit for bit (NaN too).
    if type(s) is float:
        return -prefs.loss(1.0 - 2.0 * min(max(s, 0.0), 0.5))
    import numpy as np
    return -prefs.loss_array(1.0 - 2.0 * np.clip(s, 0.0, 0.5))


def _first_max(n_rows: int, width: Callable[[int], int], rows):
    """First maximum, in row-major order, of a grid of n_rows rows built in
    blocks: rows(r0, r1) returns rows r0:r1 as an array, each row width(r0)
    entries wide, and a block takes max(1, _BLOCK // width(r0)) rows.  A later
    block must be strictly better, so the winner is np.argmax's over the whole
    grid (a NaN wins, as there).  Returns (value, r0, k), k the flat index in
    the winning block, or None without rows.  It serves all three grids: the
    partition grid's rows start at the column after the block's first row,
    so it computes only the blocks' corners below the diagonal, and masks
    them."""
    import numpy as np
    best, r0 = None, 0
    while r0 < n_rows:
        r1 = min(n_rows, r0 + max(1, _BLOCK // width(r0)))
        vals = rows(r0, r1)
        k = int(np.argmax(vals))
        v = float(vals.flat[k])
        if best is None or v > best[0] or (v != v and best[0] == best[0]):  # NaN != NaN
            best = (v, r0, k)
        r0 = r1
    return best


def _coordinate_polish(
    line: Callable[[List[float], int], Callable[[float], float]], x: List[float],
    best: float, step: float, lo: float, hi: float, rounds: int,
) -> Tuple[float, List[float]]:
    """Polish a grid winner x, worth best, one coordinate at a time: each
    round runs golden_max on each x_i over [x_i - step, x_i + step] within
    [lo, hi], and keeps a strictly better move.  line(x, i) is the objective
    as a function of x_i alone, the other coordinates held at x's.
    Returns (best, x)."""
    for _ in range(rounds):
        for i in range(len(x)):
            c, v = golden_max(line(x, i), max(lo, x[i] - step), min(hi, x[i] + step), _REFINE_TOL)
            if v > best:
                x[i], best = c, v
    return best, x


def _along(f: Callable[[List[float]], float]):
    """The line of _coordinate_polish for an objective f of the whole point."""
    return lambda x, i: lambda t: f([*x[:i], t, *x[i + 1:]])


def _cells_value(
    ends: Sequence[Tuple[float, float, float]], prefs: ProposerPreferences
) -> float:
    """Value of the interval partition with the edges ends, ascending triples
    (x, cdf(x), upper_partial_mean(x)): the sum over its nonempty cells, left
    to right, of mass times the indirect utility at the cell's mean."""
    total = 0.0
    for (_, f_a, t_a), (_, f_b, t_b) in zip(ends, ends[1:]):
        mass = f_b - f_a
        if mass > 0.0:
            total += mass * _indirect((t_a - t_b) / mass, prefs)
    return total


def _edge(d: TypeDistribution, x: float) -> Tuple[float, float, float]:
    return x, d.cdf(x), d.upper_partial_mean(x)


def _cell_values(f_a, t_a, f_b, t_b, prefs: ProposerPreferences):
    """Values of the cells [a, b], elementwise over broadcast ends given by
    their cdf and upper_partial_mean: mass times the indirect utility at the
    cell's mean, and 0 for an empty cell.  Every step after the mass works in
    place on one array; the steps and their order are _indirect's, so the
    values are those of the out-of-place formula bit for bit.  An empty
    cell's entry carries t_a - t_b, clipped, through the loss, and is then
    set to 0."""
    import numpy as np
    mass = f_b - f_a
    nonempty = mass > 0.0
    u = np.subtract(t_a, t_b)
    np.divide(u, mass, out=u, where=nonempty)  # the mean
    np.clip(u, 0.0, 0.5, out=u)
    np.multiply(u, 2.0, out=u)
    np.subtract(1.0, u, out=u)
    u = prefs.loss_array(u)
    np.negative(u, out=u)
    np.multiply(mass, u, out=u)
    u[np.logical_not(nonempty, out=nonempty)] = 0.0
    return u


def partition_search(
    d: TypeDistribution,
    prefs: ProposerPreferences,
    k_max: int,
    grid_n: int = 400,
) -> Tuple[float, Tuple[float, ...]]:
    """Best interval-partition experiment with at most k_max cells.

    Exhausts cutoff tuples drawn from a uniform grid over the support, then
    polishes each cutoff of the winner by golden-section search.  A polish
    trial reads the prior only at the cut that moves.
    """
    if k_max not in (1, 2, 3):
        raise DomainError(f"k_max must be 1, 2 or 3, got {k_max}")
    if grid_n > 500:
        raise DomainError(f"grid_n capped at 500, got {grid_n}")
    import numpy as np
    lo, hi = d.support
    xs = np.linspace(lo, hi, grid_n)
    F, T = d.cdf(xs), d.upper_partial_mean(xs)
    Fin, Tin = F[1:-1], T[1:-1]  # at the inner points, the candidate cuts

    rim = [_edge(d, lo), _edge(d, hi)]
    best_val = _cells_value(rim, prefs)
    best_cuts: Tuple[float, ...] = ()

    if k_max >= 2:
        # Values of the cells [lo, xs[i]] and [xs[i], hi], one per inner point.
        low = _cell_values(F[0], T[0], Fin, Tin, prefs)
        top = _cell_values(Fin, Tin, F[-1], T[-1], prefs)
        vals = low + top
        if vals.size:  # grid_n = 2 has no inner point
            k = int(np.argmax(vals))
            if vals[k] > best_val:
                best_val, best_cuts = float(vals[k]), (float(xs[k + 1]),)

    if k_max >= 3:
        m = grid_n - 2

        def pairs(i0, i1):
            # Inner cut pairs i < j, rows i0:i1 from column i0 + 1 on.
            i, j = slice(i0, i1), slice(i0 + 1, m)
            vals = _cell_values(Fin[i, None], Tin[i, None], Fin[j], Tin[j], prefs)
            vals += low[i, None]
            vals += top[j]
            n = len(vals)  # pairs j <= i lie in the first n columns
            vals[:, :n][np.tri(n, n, -1, dtype=bool)] = -np.inf
            return vals

        found = _first_max(m - 1, lambda i0: m - 1 - i0, pairs)
        if found and found[0] > best_val:
            v, i0, k = found
            r, c = divmod(k, m - 1 - i0)
            best_val, best_cuts = v, (float(xs[i0 + r + 1]), float(xs[i0 + c + 2]))

    def line(x: List[float], i: int) -> Callable[[float], float]:
        # The edges that stay are read once; a trial reads the prior at t only.
        fixed = rim + [_edge(d, c) for c in x[:i] + x[i + 1:]]
        return lambda t: _cells_value(sorted([*fixed, _edge(d, t)]), prefs)

    best_val, cuts = _coordinate_polish(
        line, list(best_cuts), best_val, (hi - lo) / (grid_n - 1), lo, hi, rounds=2,
    )
    return best_val, tuple(cuts)


def verify_certificate(
    d: TypeDistribution,
    prefs: ProposerPreferences,
    s_star: float,
    s_upper: float,
) -> Tuple[bool, float]:
    """Price-function certificate for a binary cutoff experiment.

    The candidate price function is the chord through (s_star, -c(1)) and
    (s_upper, U(s_upper)), floored at -c(1).  Optimality requires it to
    majorize the indirect utility everywhere, touch it at both posterior
    means, and satisfy E[theta | theta >= s_star] = s_upper.
    """
    import numpy as np
    c1 = prefs.loss(1.0)
    u_up = _indirect(s_upper, prefs)
    if s_upper <= s_star:
        return False, float("inf")
    slope = (u_up + c1) / (s_upper - s_star)

    def price(s):
        return np.maximum(-c1, -c1 + slope * (s - s_star))

    # Payoff gaps are judged in units of max(1, c(1)); the Bayes gap, in
    # type units, stays absolute.
    viol = float(max(_max_excess(d, prefs, price),
                     abs(price(s_star) + c1), abs(price(s_upper) - u_up)))
    gap = abs(d.cond_mean_above(s_star) - s_upper)
    return viol <= 1e-9 * max(1.0, c1) and gap <= 1e-9, max(viol, gap)


def verify_no_info_certificate(
    d: TypeDistribution, prefs: ProposerPreferences
) -> Tuple[bool, float]:
    """Tangent-line certificate that revealing nothing is optimal."""
    m = d.mean()
    if not 0.0 < m < 0.5:
        return False, float("inf")
    u_m = _indirect(m, prefs)
    slope = 2.0 * prefs.utility_deriv(2.0 * m)
    viol = _max_excess(d, prefs, lambda s: u_m + slope * (s - m))
    return viol <= 1e-9 * max(1.0, prefs.loss(1.0)), viol


def _max_excess(d: TypeDistribution, prefs: ProposerPreferences, price) -> float:
    """Largest excess of the indirect utility over a price function on a
    _CERT_GRID-point grid of the support: 0 where the price majorizes it, NaN
    at a NaN point."""
    import numpy as np
    s = np.linspace(*d.support, _CERT_GRID)
    return float(np.max(_indirect(s, prefs) - price(s), initial=0.0))


def _three_type_root(a, b, c, ell: float, h: float, s=None):
    """Largest proposal in [0, p_bar] that a belief with weights a, b, c >= 0
    (any scale) on the bliss points 0 <= ell < h accepts under the Vetoer's
    absolute loss; elementwise over arrays, and on Python floats without
    numpy, bit for bit the same.  s, when given, is a + b + c as the caller
    already formed it.

    A type t >= 0 gains t - |p - t| from p over the status quo, so the
    acceptance gap A(p) = -a p + b (ell - |p - ell|) + c (h - |p - h|) has
    three linear pieces, read right to left from p_bar = min(2h, 1):

        L3(p) = 2 (b ell + c h) - (a + b + c) p   on [h, p_bar],
        L2(p) = 2 b ell - (a + b - c) p           on [ell, h],
        L1(p) = (b + c - a) p                     on [0, ell].

    A is concave, so each line majorizes it on all of p >= 0, and there
    A = min(L1, L2, L3).  Each L_i(0) >= 0, so {L_i >= 0} = [0, r_i], where
    r_i is the root of a falling line and +inf otherwise.  The largest
    accepted proposal is therefore min(p_bar, r1, r2, r3): r1 = 0 if a > b + c,
    r2 = 2 b ell / (a + b - c) if a + b > c, r3 = 2 (b ell + c h) / (a + b + c).
    For h > 1/2, p_bar = 1 < 2h cuts the top piece short (or, for h > 1, off);
    the identity holds all the same.  No term subtracts a bliss point from
    another, so a huge h does not cancel."""
    p_bar = min(2.0 * h, 1.0)
    if s is None:
        s = a + b + c
    d = a + b - c
    if type(s) is float:
        if a > b + c:
            return 0.0
        r3 = 2.0 * (b * ell + c * h) / s if s > 0.0 else p_bar
        return min(p_bar, r3, 2.0 * b * ell / d if d > 0.0 else p_bar)
    # The same steps on arrays, each root into a buffer that holds p_bar
    # where its line does not fall.
    import numpy as np
    r3, r2 = np.full(np.shape(s), p_bar), np.full(np.shape(s), p_bar)
    with np.errstate(over="ignore"):  # past the float range: > p_bar
        np.divide(2.0 * (b * ell + c * h), s, out=r3, where=s > 0.0)
        np.divide(2.0 * b * ell, d, out=r2, where=d > 0.0)
    np.minimum(p_bar, r3, out=r3)
    np.minimum(r3, r2, out=r3)
    r3[a > b + c] = 0.0
    return r3


def _split_value_atoms(
    weights: Sequence[float],
    levels: Sequence[float],
    prefs: ProposerPreferences,
    s0, s1, s2,
):
    """Payoff of the binary signal that type i sends high with probability
    s_i, for prior weights on the bliss points levels = (0, ell, h);
    elementwise over arrays, or one signal on Python floats."""
    (w0, w1, w2), (_, ell, h) = weights, levels
    total = 0.0
    for x0, x1, x2 in ((s0, s1, s2), (1.0 - s0, 1.0 - s1, 1.0 - s2)):
        a, b, c = w0 * x0, w1 * x1, w2 * x2  # unnormalized posterior weights
        mass = a + b + c
        p = _three_type_root(a, b, c, ell, h, mass)
        if type(mass) is float:
            total += mass * -prefs.loss(1.0 - p) if mass > 1e-15 else 0.0
        else:  # the float steps, in place on p
            import numpy as np
            u = prefs.loss_array(np.subtract(1.0, p, out=p))
            np.negative(u, out=u)
            np.multiply(mass, u, out=u)
            u[np.logical_not(mass > 1e-15)] = 0.0
            total = np.add(total, u, out=u)
    return total


def binary_signal_search_atoms(
    prior: Tuple[float, float],
    levels: Tuple[float, float, float],
    prefs: ProposerPreferences,
    grid_n: int = 41,
) -> Tuple[float, Tuple[float, float, float]]:
    """Unrestricted search over binary signals for three atom types.

    sigma[i] is the probability type i sends the high signal.  Sending high
    with probabilities sigma and with 1 - sigma are the same signal with its
    two messages relabelled: both induce the same two posteriors, so they
    are worth the same, and the grid over [0, 1]^3 scans only its rows with
    sigma_0 <= 1/2, the first (grid_n + 1) // 2 in row-major order.  The
    mirror of a skipped grid point lies in them, up to rounding: 1 - g[i]
    and g[grid_n - 1 - i] may differ by one ulp (at 26 of the 41 points of
    grid 41), so the two halves are not bit for bit each other's reverse,
    and where a posterior sits exactly on an acceptance tie (say a type-0
    weight equal to the other two) that ulp can decide which side of the
    tie an entry falls on.  The first maximum of the half is then polished
    coordinate by coordinate.
    """
    if grid_n > 101:
        raise DomainError(f"grid_n capped at 101, got {grid_n}")
    if len(prior) != 2 or len(levels) != 3:
        raise DomainError(f"need 2 prior weights and 3 levels, got {prior}, {levels}")
    if not all(math.isfinite(x) for x in (*prior, *levels)):
        raise DomainError(f"prior and levels must be finite, got {prior}, {levels}")
    z, ell, h = levels
    if not (z == 0.0 and 0.0 <= ell < h):  # the bliss points _three_type_root reads
        raise DomainError(f"levels must be (0, ell, h) with 0 <= ell < h, got {levels}")
    weights = [float(w) for w in three_weights(prior)]
    levels = [float(t) for t in levels]
    import numpy as np
    g = np.linspace(0.0, 1.0, grid_n)
    # Slabs of sigma_0 against every (sigma_1, sigma_2).  Above grid 90 one
    # slab outgrows _BLOCK, but at the cap, 101, its 10,201 entries (80 KiB)
    # still stay under the mmap threshold.
    n2 = grid_n * grid_n
    total, i0, k = _first_max((grid_n + 1) // 2, lambda _: n2, lambda i0, i1: _split_value_atoms(
        weights, levels, prefs, g[i0:i1, None, None], g[:, None], g))
    start = [float(g[i0 + k // n2]), float(g[k // grid_n % grid_n]), float(g[k % grid_n])]
    # The polish runs on Python floats: no numpy scalar in its inner loop.
    best, sigma = _coordinate_polish(
        _along(lambda trial: _split_value_atoms(weights, levels, prefs, *trial)),
        start, total, 1.0 / (grid_n - 1), 0.0, 1.0, rounds=3,
    )
    return best, (sigma[0], sigma[1], sigma[2])


def _proposal_payoff(p, env: BinaryTypeEnv, prefs: ProposerPreferences):
    """Payoff from committing to proposal p (elementwise; a float for a
    scalar), from the Vetoer's absolute loss.  Type t >= 0 gains t - |p - t|
    = min(p, 2t - p) from p over the status quo, so belief mu on h accepts p
    iff mu >= phi(p), the root of a gain linear in mu.  The best signal splits
    mu0 into {0, phi(p)}: p passes with odds min(1, mu0 / phi(p)), and at odds
    1 the payoff is -c(1 - p) outright."""
    c1, mu0 = prefs.loss(1.0), env.mu0
    if type(p) is float:  # min(p, 2t - p) rounds once
        g_lo, g_hi = min(p, 2.0 * env.ell - p), min(p, 2.0 * env.h - p)
        sure = -prefs.loss(1.0 - p)
        phi = g_lo / (g_lo - g_hi) if g_lo < 0.0 else 0.0
        return sure if phi <= mu0 else -c1 + mu0 / phi * (c1 + sure)
    import numpy as np
    g_lo, g_hi = np.minimum(p, 2.0 * env.ell - p), np.minimum(p, 2.0 * env.h - p)
    sure = -prefs.loss_array(1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore"):  # p <= ell: p / 0, unused
        phi = g_lo / (g_lo - g_hi)
        return np.where((g_lo >= 0.0) | (phi <= mu0), sure, -c1 + mu0 / phi * (c1 + sure))


def proposal_first_grid(
    env: BinaryTypeEnv, prefs: ProposerPreferences, grid_n: int = 4001
) -> Tuple[float, float]:
    """Arg-max of the committed-proposal payoff over a dense grid, with the
    best grid point polished by golden-section search (_numeric.grid_max)."""
    if grid_n > 100_001:
        raise DomainError(f"grid_n capped at 100001, got {grid_n}")
    import numpy as np
    ps = np.linspace(0.0, env.p_bar, grid_n)
    vals = _proposal_payoff(ps, env, prefs).tolist()
    return grid_max(lambda p: _proposal_payoff(p, env, prefs), ps.tolist(), _REFINE_TOL, vals)


def _grid_split(
    env: BinaryTypeEnv, prefs: ProposerPreferences, mus
) -> Tuple[float, List[float]]:
    """Best split of the prior mu0 into two beliefs a <= mu0 <= b from the
    ascending candidates mus (mu0 among them), all pairs scored in row
    blocks: weight (b - mu0) / (b - a) on a and the rest on b, or no
    information when a = b = mu0.  Returns (value, [a, b])."""
    import numpy as np
    mu0 = env.mu0
    p = _three_type_root(0.0, 1.0 - mus, mus, env.ell, env.h)
    u = -prefs.loss_array(1.0 - p)
    i = int(np.searchsorted(mus, mu0))  # mus[i] == mu0
    b, u_b = mus[i:], u[i:]

    def pairs(a0, a1):
        # Beliefs a = mus[a0:a1] against every b >= mu0.
        with np.errstate(invalid="ignore"):  # a = b = mu0: 0 / 0, set below
            w = (b - mu0) / (b - mus[a0:a1, None])
        vals = w * u[a0:a1, None] + (1.0 - w) * u_b
        if a1 > i:
            vals[-1, 0] = u[i]
        return vals

    value, a0, k = _first_max(i + 1, lambda _: len(b), pairs)
    ka, kb = divmod(k, len(b))
    return value, [float(mus[a0 + ka]), float(b[kb])]


def split_search(
    env: BinaryTypeEnv, prefs: ProposerPreferences, grid_n: int = 2001
) -> Tuple[float, Tuple[float, float]]:
    """Best split of the prior mu0 into two beliefs a <= mu0 <= b: the best
    pair from a grid of [0, 1] plus mu0 (_grid_split), polished coordinate
    by coordinate.  A polish trial x is scored over the pairs of {x, mu0},
    so a trial that does not bracket mu0 reads as no information.
    Returns (value, (a, b))."""
    if grid_n > 2001:
        raise DomainError(f"grid_n capped at 2001, got {grid_n}")
    import numpy as np
    mu0 = env.mu0
    best, x = _grid_split(env, prefs, np.union1d(np.linspace(0.0, 1.0, grid_n), [mu0]))
    best, (lo, hi) = _coordinate_polish(
        _along(lambda x: _grid_split(env, prefs, np.union1d(x, [mu0]))[0]),
        x, best, 1.0 / (grid_n - 1), 0.0, 1.0, rounds=2,
    )
    return best, (lo, hi)
