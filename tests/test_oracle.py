import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vetopersuasion import (
    BinaryTypeEnv,
    DomainError,
    Exponential,
    Linear,
    Power,
    ProposerPreferences,
    UniformInterval,
    accept,
    dist_from_literal,
    lsolve,
    no_info_optimal,
    oracle,
    phi_threshold,
    psi_cap,
    solve_persuasion_first,
    solve_proposal_first_binary,
    three_type_values,
    uhat,
    utilde,
)
from vetopersuasion.oracle import (
    _indirect,
    _partition_value,
    _proposal_payoff,
    _split_value_atoms,
    _three_type_root,
    binary_signal_search_atoms,
    partition_search,
    proposal_first_grid,
    split_search,
    verify_certificate,
    verify_no_info_certificate,
)

U11 = UniformInterval(-1.0, 1.0)
TILT = dist_from_literal("tilt:uniform:-1,1;2")
SQ = Power(2.0)
LIN = Linear()
LOSSES = st.one_of(
    st.just(LIN),
    st.floats(1.0, 3.0).map(Power),
    st.floats(0.0, 4.0, exclude_min=True).map(Exponential),
)


class TestPartitionSearch:
    def test_single_cell_is_no_info(self):
        v, cuts = partition_search(U11, SQ, k_max=1, grid_n=50)
        assert cuts == ()
        assert v == pytest.approx(-1.0)  # U at the prior mean 0

    def test_binary_recovers_optimum(self):
        v, cuts = partition_search(U11, SQ, k_max=2, grid_n=400)
        assert v == pytest.approx(-11.0 / 27.0, abs=1e-4)
        assert abs(cuts[0] + 1.0 / 3.0) <= 2.0 * (2.0 / 399.0)

    def test_no_partition_improves_in_no_info_region(self):
        d = UniformInterval(-0.2, 1.0)
        v, _ = partition_search(d, SQ, k_max=3, grid_n=200)
        assert v <= -0.04 + 1e-6

    def test_three_cells_no_better_than_two(self):
        v2, _ = partition_search(U11, SQ, k_max=2, grid_n=150)
        v3, _ = partition_search(U11, SQ, k_max=3, grid_n=150)
        assert v3 <= v2 + 1e-6

    def test_validation(self):
        with pytest.raises(DomainError):
            partition_search(U11, SQ, k_max=4, grid_n=50)
        with pytest.raises(DomainError):
            partition_search(U11, SQ, k_max=2, grid_n=600)

    def test_grids_without_a_cut_or_a_cut_pair(self):
        # Grid 2 has no inner point to cut at and grid 3 no pair of them, so
        # the search keeps fewer cells.
        assert partition_search(U11, SQ, k_max=3, grid_n=2) == (-1.0, ())
        assert partition_search(U11, SQ, k_max=3, grid_n=3) == partition_search(U11, SQ, 2, 3)

    @pytest.mark.parametrize("d", [U11, TILT], ids=["uniform", "tilt"])
    @pytest.mark.parametrize("prefs", [SQ, LIN, Exponential(3.0)], ids=["sq", "lin", "exp"])
    def test_partition_value_matches_per_cell_recomputation(self, d, prefs):
        # Each cell recomputes cdf and upper_partial_mean at both of its ends.
        for cuts in ([], [-0.3], [0.4, -0.5], [-0.9, -0.2, 0.6], [-1.0, 0.1]):
            edges = [d.support[0], *sorted(cuts), d.support[1]]
            naive = 0.0
            for a, b in zip(edges, edges[1:]):
                mass = d.cdf(b) - d.cdf(a)
                if mass > 0.0:
                    mean = (d.upper_partial_mean(a) - d.upper_partial_mean(b)) / mass
                    naive += mass * _indirect(mean, prefs)
            assert _partition_value(d, prefs, cuts) == naive

    def test_scalar_refinement_makes_no_0d_loss_array_call(self, monkeypatch):
        shapes = []
        loss_array = ProposerPreferences.loss_array

        def spy(self, x):
            shapes.append(np.shape(x))
            return loss_array(self, x)

        monkeypatch.setattr(ProposerPreferences, "loss_array", spy)
        for d in (U11, TILT):
            partition_search(d, SQ, k_max=3, grid_n=60)
        assert shapes and () not in shapes


class TestCertificates:
    def test_optimal_cutoff_passes(self):
        ok, viol = verify_certificate(U11, SQ, -1.0 / 3.0, 1.0 / 3.0)
        assert ok and viol <= 1e-9

    def test_wrong_cutoff_fails(self):
        ok, _ = verify_certificate(U11, SQ, -0.2, U11.cond_mean_above(-0.2))
        assert not ok

    def test_no_info_certificate(self):
        assert verify_no_info_certificate(UniformInterval(-0.2, 1.0), SQ)[0]
        assert not verify_no_info_certificate(U11, SQ)[0]
        # The tangent certificate is exactly the no-information criterion.
        for lo in (-0.3, -0.25, -0.15, -0.1):
            d = UniformInterval(lo, 1.0)
            assert verify_no_info_certificate(d, SQ)[0] == no_info_optimal(d, SQ)


class TestSplitSearch:
    def test_interior_tangency(self):
        # Power(2), ell = 1/4, mu0 = 0.15: the best split is {0, 3/10}.
        v, (a, b) = split_search(BinaryTypeEnv(0.25, 0.9, 0.15), SQ)
        assert v == pytest.approx(-0.1328125, abs=1e-12)
        assert a == 0.0 and b == pytest.approx(0.3, abs=1e-8)

    def test_no_information_at_the_ends(self):
        # At mu0 = 0 or 1 every split puts all its weight on mu0.
        for mu0 in (0.0, 1.0):
            env = BinaryTypeEnv(0.1, 0.7, mu0)
            v, (a, b) = split_search(env, LIN, 101)
            assert mu0 in (a, b) and v == uhat(env, LIN, mu0)

    def test_grid_cap(self):
        with pytest.raises(DomainError):
            split_search(BinaryTypeEnv(0.1, 0.7, 0.2), LIN, grid_n=2002)

    def test_shares_no_acceptance_logic_with_the_solver(self, monkeypatch):
        def boom(*args):
            raise AssertionError("the oracle called solver logic")

        names = ["uhat", "utilde", "psi_cap", "phi_threshold", "best_acceptable_proposal",
                 "acceptance_root"]
        for module in (accept, lsolve, oracle):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, boom)
        for mu0 in (0.0, 0.2, 5.0 / 12.0, 1.0):
            split_search(BinaryTypeEnv(0.1, 0.7, mu0), Exponential(2.0), grid_n=401)


class TestBinarySignalSearch:
    def test_point_mass_on_high(self):
        v, _ = binary_signal_search_atoms((0.0, 0.0), (0.0, 0.1, 0.4), LIN, grid_n=11)
        assert v == pytest.approx(-(1.0 - 0.8))  # u(min(2h, 1))

    def test_point_mass_on_zero(self):
        v, _ = binary_signal_search_atoms((1.0, 0.0), (0.0, 0.1, 0.5), LIN, grid_n=11)
        assert v == pytest.approx(-1.0)

    def test_matches_restricted_search(self):
        r = three_type_values((0.7, 0.2), (0.0, 0.1, 0.5), LIN)
        v, sigma = binary_signal_search_atoms((0.7, 0.2), (0.0, 0.1, 0.5), LIN, grid_n=41)
        assert v == pytest.approx(r.v_bestbinary, abs=1e-4)
        assert sigma[0] == pytest.approx(0.0, abs=1e-6)
        assert sigma[2] == pytest.approx(1.0, abs=1e-6)

    def test_shares_no_acceptance_logic_with_the_solver(self, monkeypatch):
        def boom(*args):
            raise AssertionError("the oracle called solver logic")

        for name in ("best_acceptable_proposal", "acceptance_root"):
            monkeypatch.setattr(accept, name, boom)
        v, _ = binary_signal_search_atoms((0.7, 0.2), (0.0, 0.1, 0.5), LIN, grid_n=41)
        assert v == pytest.approx(-13.0 / 15.0, abs=1e-4)

    def test_non_finite_inputs_raise(self):
        # They read 0.0 (a NaN prior) or NaN (a NaN or infinite level).
        nan, inf = math.nan, math.inf
        for prior, levels in [((nan, 0.2), (0.0, 0.1, 0.5)), ((0.5, inf), (0.0, 0.1, 0.5)),
                              ((0.5, 0.2), (0.0, nan, 0.5)), ((0.5, 0.2), (0.0, 0.1, inf))]:
            with pytest.raises(DomainError):
                binary_signal_search_atoms(prior, levels, LIN, grid_n=11)

    @pytest.mark.parametrize("levels", [
        (0.2, 0.3, 0.5),  # the first level is not 0; this one read -0.74
        (0.0, 0.5, 0.5), (0.0, 0.6, 0.5),  # ell >= h
        (0.0, -0.1, 0.5),  # ell < 0
    ])
    def test_levels_outside_the_solver_domain_raise(self, levels):
        with pytest.raises(DomainError):
            three_type_values((0.5, 0.3), levels, LIN)
        with pytest.raises(DomainError):
            binary_signal_search_atoms((0.5, 0.3), levels, LIN, grid_n=11)

    def test_one_rule_for_the_residual_weight(self):
        # A residual 1 - w0 - w1 in [-1e-12, 0) is rounding and reads as 0 in
        # both; the solver raised on -5.6e-17 and the oracle scored
        # (0.5, 0.5000000000001) with its negative residual, at -0.89999999999998.
        levels = (0.0, 0.1, 0.5)
        for prior, residual in [((0.6, 0.4000000000000001), -5.6e-17),
                                ((0.5, 0.5000000000001), -1e-13)]:
            assert 1.0 - prior[0] - prior[1] == pytest.approx(residual, rel=0.01)
            r = three_type_values(prior, levels, LIN)
            v, _ = binary_signal_search_atoms(prior, levels, LIN, grid_n=11)
            assert v == r.v_bestbinary
        for prior in [(0.6, 0.40000000001), (-1e-13, 0.5)]:  # residual -1e-11; w0 < 0
            with pytest.raises(DomainError, match="bad prior"):
                three_type_values(prior, levels, LIN)
            with pytest.raises(DomainError, match="bad prior"):
                binary_signal_search_atoms(prior, levels, LIN, grid_n=11)

    @pytest.mark.parametrize("prior,levels", [
        ((0.5, 0.3), (0.0, 0.1)),  # both read a bare ValueError from the unpacking
        ((0.5, 0.3), (0.0, 0.1, 0.5, 0.9)),
        ((0.5,), (0.0, 0.1, 0.5)),
        ((0.5, 0.3, 0.2), (0.0, 0.1, 0.5)),  # the oracle read the first two weights
    ])
    def test_wrong_atom_counts_raise(self, prior, levels):
        with pytest.raises(DomainError, match="2 prior weights and 3 levels"):
            three_type_values(prior, levels, LIN)
        with pytest.raises(DomainError, match="2 prior weights and 3 levels"):
            binary_signal_search_atoms(prior, levels, LIN, grid_n=11)


def _spy_polish_starts(monkeypatch, polish=True):
    """Record (start, grid value) of each coordinate polish; with polish
    False, return the grid winner unpolished."""
    starts = []
    real = oracle._coordinate_polish

    def spy(line, x, best, *rest, **kw):
        starts.append((list(x), best))
        return real(line, x, best, *rest, **kw) if polish else (best, x)

    monkeypatch.setattr(oracle, "_coordinate_polish", spy)
    return starts


def _on_acceptance_tie(weights, ell, sigma):
    """Whether a posterior of the signal sigma (exact fractions) leaves the
    Vetoer's gap (_three_type_root) flat at 0 on a piece that starts at
    p = 0, so that rounding decides whether that piece accepts: L1 on
    [0, ell] with a = b + c, or L2 with a + b = c and 2 b ell = 0."""
    for x in (sigma, [1 - t for t in sigma]):
        a, b, c = (Fraction(w) * t for w, t in zip(weights, x))
        if a + b + c > 0 and ((ell > 0 and a == b + c) or (b * ell == 0 and a + b == c)):
            return True
    return False


class TestHalfCube:
    # The relabelling sigma <-> 1 - sigma leaves a signal's value unchanged,
    # so the grid scores only the rows with sigma_0 <= 1/2.

    @staticmethod
    def _whole_cube(weights, levels, prefs, n):
        g = np.linspace(0.0, 1.0, n)
        index = np.indices((n,) * 3).reshape(3, -1)
        vals = _split_value_atoms(weights, levels, prefs, *g[index])
        k = int(np.argmax(vals))
        return float(vals[k]), [Fraction(int(i), n - 1) for i in index[:, k]]

    def test_half_cube_first_maximum_is_the_whole_cube_maximum(self, monkeypatch):
        starts = _spy_polish_starts(monkeypatch, polish=False)
        rng = random.Random(1919)
        for k in range(320):
            n = (2, 10, 11, 41)[k % 4]
            prefs = (LIN, Power(rng.uniform(1.0, 3.0)), Exponential(rng.uniform(0.01, 4.0)))[k % 3]
            if k % 3 == 0:  # rational weights and levels
                w0 = rng.randrange(9) / 8
                prior = (w0, rng.randrange(9 - int(8 * w0)) / 8)
                h = rng.choice([0.25, 0.5, 0.75, 1.0, 1.5])
                levels = (0.0, h * rng.choice([0.0, 0.25, 0.5, 0.75]), h)
            else:
                e = [rng.expovariate(1.0) for _ in range(3)]
                prior = (e[0] / sum(e), e[1] / sum(e))
                h = rng.uniform(0.01, 1.2)
                levels = (0.0, h * rng.random(), h)
            weights = [prior[0], prior[1], 1.0 - prior[0] - prior[1]]
            whole, winner = self._whole_cube(weights, levels, prefs, n)
            starts.clear()
            v, sigma = binary_signal_search_atoms(prior, levels, prefs, n)
            (start, best), = starts
            assert v == best and list(sigma) == start and start[0] <= 0.5
            # The half is a prefix of the cube in row-major order.  Off the
            # ties, one ulp of 1 - g[i] moves a value by rounding alone: at
            # most 7.2e-15 max(1, |v|) over 42,000 seeded grids.
            assert best <= whole
            if whole - best > 1e-13 * max(1.0, abs(whole)):
                assert _on_acceptance_tie(weights, levels[1], winner), (prior, levels, prefs, n)

    def test_a_tie_that_rounding_breaks_in_one_mirror_only(self, monkeypatch):
        # Weights (3/8, 1/2, 1/8) at grid 11: the whole cube's winner
        # (0.7, 1, 0.1) relabels to posterior weights a = 3/8 * 3/10 and
        # c = 1/8 * 9/10, equal: the type at 0 is as heavy as the others, and
        # the Vetoer accepts up to ell.  1 - g[7] rounds below 3/10 there,
        # but its mirror g[3] = 3 * 0.1 rounds above, and rejects all.
        starts = _spy_polish_starts(monkeypatch, polish=False)
        weights, levels = [0.375, 0.5, 0.125], (0.0, 0.5, 1.0)
        whole, winner = self._whole_cube(weights, levels, LIN, 11)
        assert (whole, winner) == (-0.25833333333333336, [Fraction(7, 10), 1, Fraction(1, 10)])
        assert _on_acceptance_tie(weights, levels[1], winner)
        v, _ = binary_signal_search_atoms((0.375, 0.5), levels, LIN, 11)
        assert starts[0][0][0] <= 0.5 and v == -0.2589285714285715

    def test_mirror_tie_polishes_from_the_lower_half(self, monkeypatch):
        # The whole cube's winner here was the sigma_0 = 0.95 mirror, and the
        # polish from it read -0.39887560839582503, 3.4e-11 below this one.
        starts = _spy_polish_starts(monkeypatch)
        v, sigma = binary_signal_search_atoms(
            (0.49423940919901654, 0.5029267086738041),
            (0.0, 0.7223478432410864, 0.7826817705759962), Exponential(2.7530702631262596), 41)
        assert starts[0][0] == [0.05, 0.05, 1.0]
        assert sigma[0] <= 0.5 and v >= -0.39887560839582503


def test_oracle_takes_only_the_binary_environment_from_accept():
    shared = {name for name, obj in vars(oracle).items()
              if getattr(obj, "__module__", None) == accept.__name__}
    assert shared == {"BinaryTypeEnv"}


class TestProposalFirstGrid:
    @pytest.mark.parametrize(
        "mu0,peak", [(0.2, 0.4), (0.3, 0.7), (0.45, 0.795)]
    )
    def test_fig_panels(self, mu0, peak):
        env = BinaryTypeEnv(0.15, 0.7, mu0)
        p, v = proposal_first_grid(env, LIN, grid_n=4001)
        assert p == pytest.approx(peak, abs=1.0 / 4000.0 + 1e-9)
        p_fast, v_fast, _ = solve_proposal_first_binary(env, LIN)
        assert v == pytest.approx(v_fast, abs=1e-6)

    def test_grid_cap(self):
        with pytest.raises(DomainError):
            proposal_first_grid(BinaryTypeEnv(0.15, 0.7, 0.2), LIN, grid_n=1_000_000_000)

    def test_shares_no_acceptance_logic_with_the_solver(self, monkeypatch):
        def boom(*args):
            raise AssertionError("the oracle called solver logic")

        names = ["utilde", "phi_threshold", "psi_cap", "best_acceptable_proposal",
                 "acceptance_root"]
        for module in (accept, lsolve, oracle):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, boom)
        for mu0 in (0.0, 0.2, 0.45, 1.0):
            proposal_first_grid(BinaryTypeEnv(0.15, 0.7, mu0), Exponential(2.0), grid_n=401)


def test_oracle_never_beats_trusted_solver():
    for lo, prefs in [(-1.0, SQ), (-0.5, Power(3.0)), (-1.5, LIN)]:
        d = UniformInterval(lo, 1.0)
        trusted = solve_persuasion_first(d, prefs).value
        v, _ = partition_search(d, prefs, k_max=3, grid_n=200)
        assert v <= trusted + 1e-6


class TestGridBlocks:
    # Linear-loss instances whose grids hold tied maxima: 26 cut pairs of
    # uniform:-0.5,0.5 at grid 60 (one ulp above the best single cut), and
    # the mirror pair sigma <-> 1 - sigma of criterion 7 at grid 11.
    TIED_PRIOR = UniformInterval(-0.5, 0.5)
    CRIT7 = ((0.7, 0.2), (0.0, 0.1, 0.5))

    CALLS = [
        ("partition-uniform", lambda: partition_search(U11, SQ, 3, 400)),
        ("partition-tilt", lambda: partition_search(TILT, Exponential(3.0), 3, 211)),
        ("partition-tied", lambda: partition_search(TestGridBlocks.TIED_PRIOR, LIN, 3, 60)),
        ("signal-11", lambda: binary_signal_search_atoms(*TestGridBlocks.CRIT7, LIN, 11)),
        ("signal-41", lambda: binary_signal_search_atoms(
            (0.6566868118445405, 0.21994368105693546),
            (0.0, 0.08091025011821684, 0.8025096748006849), Exponential(0.7369842105004265), 41)),
        ("split-101", lambda: split_search(BinaryTypeEnv(0.25, 0.9, 0.15), SQ, 101)),
        ("split-401", lambda: split_search(BinaryTypeEnv(0.1, 0.7, 5.0 / 12.0), Exponential(2.0), 401)),
    ]

    @pytest.mark.parametrize("block", [1, 2, 3, 5, 64])
    def test_first_max_is_argmax_over_the_whole_grid(self, monkeypatch, block):
        monkeypatch.setattr(oracle, "_BLOCK", block)
        grid = np.array([[1.0, 3.0], [3.0, 2.0], [-np.inf, 3.0], [0.0, 0.0], [3.0, 1.0]])

        def first_max(grid):
            found = oracle._first_max(len(grid), lambda _: grid.shape[1], lambda r0, r1: grid[r0:r1])
            return found and (found[0], found[1] * grid.shape[1] + found[2])

        assert first_max(grid[:0]) is None
        assert first_max(grid) == (3.0, 1) == (grid.max(), np.argmax(grid))
        assert first_max(grid[2:]) == (3.0, 1)
        assert first_max(np.full((3, 2), -np.inf)) == (-np.inf, 0)
        # np.argmax takes the first NaN; so do the blocks.
        grid[3, 1] = grid[4, 0] = np.nan
        value, k = first_max(grid)
        assert math.isnan(value) and k == np.argmax(grid) == 7

    @pytest.mark.parametrize("block", [7, 97])
    @pytest.mark.parametrize("name,call", CALLS, ids=[name for name, _ in CALLS])
    def test_ragged_blocks_return_what_the_default_block_returns(self, monkeypatch, block, name, call):
        expected = call()
        monkeypatch.setattr(oracle, "_BLOCK", block)
        assert call() == expected

    @pytest.mark.parametrize("block", [7, 97, oracle._BLOCK])
    def test_tied_grids_polish_from_their_first_maximum(self, monkeypatch, block):
        # The whole-grid references: np.argmax over every cut pair i < j in
        # np.triu_indices order, and over the sigma cube in np.indices order.
        d, n = self.TIED_PRIOR, 60
        xs = np.linspace(*d.support, n)
        F = np.array([d.cdf(x) for x in xs])
        T = np.array([d.upper_partial_mean(x) for x in xs])

        def cell(i, j):
            mass = F[j] - F[i]
            mean = np.where(mass > 0.0, (T[i] - T[j]) / np.where(mass > 0, mass, 1.0), 0.0)
            return np.where(mass > 0.0, mass * _indirect(mean, LIN), 0.0)

        ii, jj = np.triu_indices(n - 2, k=1)
        cuts = cell(0, ii + 1) + cell(ii + 1, jj + 1) + cell(jj + 1, n - 1)
        k = int(np.argmax(cuts))
        assert np.sum(cuts == cuts[k]) > 1
        g = np.linspace(0.0, 1.0, 11)
        sig = g[np.indices((11,) * 3).reshape(3, -1)]
        total = _split_value_atoms([0.7, 0.2, 0.1], self.CRIT7[1], LIN, *sig)
        s = int(np.argmax(total))
        assert np.sum(total == total[s]) > 1

        starts = []
        polish = oracle._coordinate_polish
        monkeypatch.setattr(oracle, "_coordinate_polish",
                            lambda f, x, *rest, **kw: starts.append(list(x)) or polish(f, x, *rest, **kw))
        monkeypatch.setattr(oracle, "_BLOCK", block)
        partition_search(d, LIN, 3, n)
        binary_signal_search_atoms(*self.CRIT7, LIN, 11)
        assert starts == [[xs[ii[k] + 1], xs[jj[k] + 1]], [row[s] for row in sig]]

    @pytest.mark.parametrize("block", [7, 97, oracle._BLOCK])
    @pytest.mark.parametrize("literal,prefs,cells", [
        ("tilt:uniform:-0.5,0.5;0.3", LIN, 3),
        ("tilt:uniform:-0.5,0.5;1e-9", LIN, 3),
        ("tilt:uniform:-1,1;-1", Exponential(3.0), 3),
        ("tilt:uniform:-2,1;0.7", SQ, 2),
        ("tilt:uniform:-1,1;2", SQ, 1),
    ])
    def test_tilted_grids_polish_from_their_first_maximum(self, monkeypatch, block, literal, prefs, cells):
        # The whole-grid reference on a tilt: no information, then np.argmax
        # over every single cut, then over every cut pair in np.triu_indices
        # order, each kept only if strictly better.  F and T come from the
        # array forms, as in the search.
        d, n = dist_from_literal(literal), 60
        xs = np.linspace(*d.support, n)
        F, T = d.cdf(xs), d.upper_partial_mean(xs)

        def cell(i, j):
            mass = F[j] - F[i]
            mean = np.where(mass > 0.0, (T[i] - T[j]) / np.where(mass > 0, mass, 1.0), 0.0)
            return np.where(mass > 0.0, mass * _indirect(mean, prefs), 0.0)

        inner = np.arange(1, n - 1)
        best, start = cell(0, n - 1), []
        one = cell(0, inner) + cell(inner, n - 1)
        k = int(np.argmax(one))
        if one[k] > best:
            best, start = one[k], [xs[k + 1]]
        ii, jj = np.triu_indices(n - 2, k=1)
        two = cell(0, ii + 1) + cell(ii + 1, jj + 1) + cell(jj + 1, n - 1)
        k = int(np.argmax(two))
        if two[k] > best:
            start = [xs[ii[k] + 1], xs[jj[k] + 1]]
        assert len(start) + 1 == cells

        starts = []
        polish = oracle._coordinate_polish
        monkeypatch.setattr(oracle, "_coordinate_polish",
                            lambda f, x, *rest, **kw: starts.append(list(x)) or polish(f, x, *rest, **kw))
        monkeypatch.setattr(oracle, "_BLOCK", block)
        partition_search(d, prefs, 3, n)
        assert starts == [start]

    @pytest.mark.parametrize("d,prefs", [
        (TIED_PRIOR, LIN), (dist_from_literal("tilt:uniform:-1,1;-1"), Exponential(3.0)),
    ], ids=["uniform", "tilt"])
    def test_polish_reads_the_prior_only_at_the_moving_cut(self, monkeypatch, d, prefs):
        # Two cuts to polish; each trial reads cdf and upper_partial_mean once,
        # at the trial cut, and the cut that stays is not read again.
        reads = []
        for name in ("cdf", "upper_partial_mean"):
            method = getattr(type(d), name)
            monkeypatch.setattr(type(d), name, lambda self, x, method=method, name=name: (
                reads.append((name, x)) or method(self, x)))
        per_trial = []
        polish = oracle._coordinate_polish

        def spy(line, *args, **kw):
            def traced(x, i):
                f = line(x, i)

                def trial(t):
                    n = len(reads)
                    v = f(t)
                    per_trial.append((t, reads[n:]))
                    return v
                return trial
            return polish(traced, *args, **kw)

        monkeypatch.setattr(oracle, "_coordinate_polish", spy)
        _, cuts = partition_search(d, prefs, 3, 60)
        assert len(cuts) == 2 and len(per_trial) > 100
        assert all(read == [("cdf", t), ("upper_partial_mean", t)] for t, read in per_trial)

    @pytest.mark.parametrize("call", [
        lambda: partition_search(TILT, SQ, 3, 500),
        lambda: binary_signal_search_atoms((0.7, 0.2), (0.0, 0.1, 0.5), LIN, 101),
        lambda: split_search(BinaryTypeEnv(0.25, 0.9, 0.15), SQ, 2001),
    ], ids=["partition-500", "signal-101", "split-2001"])
    def test_peak_traced_memory_stays_small(self, call):
        # 2 MiB is over twice the largest blocked peak (0.83 MiB, the signal
        # grid at 101, whose sigma_0 slabs hold 10,201 entries) and far under
        # the 8.6-142 MiB these calls trace with each grid built as one array.
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@given(
    LOSSES,
    st.floats(-2.0, 0.4),
    st.floats(0.05, 2.0),
    st.integers(2, 300),
)
def test_indirect_on_an_array_matches_its_points(prefs, lo, width, n):
    s = np.linspace(lo, lo + width, n)
    points = [_indirect(float(x), prefs) for x in s]
    assert all(type(u) is float for u in points)
    np.testing.assert_allclose(_indirect(s, prefs), points, rtol=1e-14, atol=0.0)
    # Pieces: the status quo at or below 0, the ideal at or above 1/2.
    assert _indirect(min(lo, 0.0), prefs) == -prefs.loss(1.0)
    assert _indirect(max(lo + width, 0.5), prefs) == 0.0


@given(
    LOSSES,
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([-0.0, 0.0, 0.5, -1e-300, 0.5000000000000001, math.nan]),
    ),
)
def test_indirect_on_a_float_is_the_0d_array_path_bit_for_bit(prefs, s):
    u = _indirect(s, prefs)
    assert type(u) is float
    assert repr(u) == repr(_indirect(np.array(s), prefs))  # -0.0 and nan included


# h from 1e-6 up to past 1 (p_bar = 1), ell from 0, mu0 over all of [0, 1].
BINARY_ENVS = st.builds(
    lambda h, frac, mu0: BinaryTypeEnv(frac * h, h, mu0),
    st.floats(1e-6, 1.5),
    st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    st.floats(0.0, 1.0),
)
ALL_LOSSES = st.one_of(LOSSES, st.floats(4.0, 300.0).map(Exponential))


def _proposal_grid(env):
    return np.linspace(0.0, env.p_bar, 301)


@settings(max_examples=300, deadline=None)
@given(BINARY_ENVS, ALL_LOSSES)
def test_proposal_payoff_matches_utilde(env, prefs):
    tol = 1e-12 * max(1.0, prefs.loss(1.0))
    ps = _proposal_grid(env)
    vals = _proposal_payoff(ps, env, prefs)
    for p, v in zip(ps.tolist(), vals.tolist()):
        ref = utilde(env, prefs, p)
        assert abs(v - ref) <= tol
        assert abs(_proposal_payoff(p, env, prefs) - ref) <= tol


@settings(max_examples=100, deadline=None)
@given(BINARY_ENVS, ALL_LOSSES)
def test_three_type_root_without_the_zero_type_matches_psi(env, prefs):
    # The split oracle's acceptance, the closed form with a = 0 on the bliss
    # points (ell, h), gives the solver's payoff at each belief.
    tol = 1e-12 * max(1.0, prefs.loss(1.0))
    mus = np.linspace(0.0, 1.0, 301)
    ps = _three_type_root(0.0, 1.0 - mus, mus, env.ell, env.h)
    for mu, p in zip(mus.tolist(), ps.tolist()):
        assert abs(-prefs.loss(1.0 - p) - uhat(env, prefs, mu)) <= tol


@settings(max_examples=300, deadline=None)
@given(BINARY_ENVS, ALL_LOSSES)
@example(BinaryTypeEnv(0.25, 0.5, 0.2), LIN)  # psi(mu0) = 0.6 rounds up onto a grid point
def test_proposal_payoff_is_exact_where_surely_accepted(env, prefs):
    ps = _proposal_grid(env)
    # psi_cap can round up onto a grid point past the true psi(mu0), which is
    # then not surely accepted, so points within 4 ulps of it are left out.
    psi = psi_cap(env, env.mu0)
    ps = ps[ps <= psi - 4.0 * math.ulp(psi)]
    # Leave out points whose phi(p) rounds to within 4 ulps of mu0, as it
    # does at p = psi(mu0) (the rounding listed for utilde in CHANGES.md).
    sure = ps[[abs(phi_threshold(env, p) - env.mu0) > 4.0 * math.ulp(env.mu0)
               for p in ps.tolist()]]
    assert np.array_equal(_proposal_payoff(sure, env, prefs), -prefs.loss_array(1.0 - sure))
    for p in sure.tolist():
        assert _proposal_payoff(p, env, prefs) == -prefs.loss(1.0 - p)


# Levels (0, ell, h): ell = 0 or inside [0, h); h below 1/2 (p_bar = 2h), in
# [1/2, 1] (p_bar = 1 <= 2h) and above 1 (p_bar = 1 < h).
THREE_LEVELS = st.builds(
    lambda h, frac: (0.0, frac * h, h),
    st.one_of(st.floats(1e-6, 0.5, exclude_max=True), st.floats(0.5, 1.0),
              st.floats(1.0, 3.0, exclude_min=True)),
    st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
)
WEIGHT = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


def _exact_gap(a, b, c, ell, h, p):
    a, b, c, ell, h, p = map(Fraction, (a, b, c, ell, h, p))
    return -a * p + b * (ell - abs(p - ell)) + c * (h - abs(p - h))


def _assert_same_root(r, ref, a, b, c, ell, h):
    """r and ref agree within 1e-12 as roots of the acceptance gap, plus
    1e-15 s / slope: rounding the weights' sums (scale s) moves a root by
    about that much when a piece of the gap has a small slope.  Where a
    piece is flat to within 1e-9 s, its root may sit at either end of it:
    there each answer must instead be accepted, and be a root unless it is
    p_bar, to within 1e-12 s on the exact gap of the float inputs."""
    s = a + b + c
    slope = min(abs(b + c - a), abs(a + b - c))
    if slope > 1e-9 * s:
        assert abs(r - ref) <= 1e-12 + 1e-15 * s / slope
        return
    for x in (r, ref):
        gap = _exact_gap(a, b, c, ell, h, x)
        assert gap >= -1e-12 * s
        assert x == min(2.0 * h, 1.0) or gap <= 1e-12 * s


@settings(max_examples=500, deadline=None)
@given(WEIGHT, WEIGHT, WEIGHT, THREE_LEVELS)
def test_three_type_root_matches_best_acceptable_proposal(a, b, c, levels):
    # Posterior weights: the draws over their sum (zeros stay zero).
    s = a + b + c
    if s > 0.0:
        a, b, c = a / s, b / s, c / s
    _, ell, h = levels
    r = _three_type_root(a, b, c, ell, h)
    assert 0.0 <= r <= min(2.0 * h, 1.0)
    _assert_same_root(r, accept.best_acceptable_proposal(levels, (a, b, c)), a, b, c, ell, h)


@settings(max_examples=100, deadline=None)
@given(WEIGHT, WEIGHT, WEIGHT, THREE_LEVELS)
def test_three_type_root_on_arrays_is_the_float_form_bit_for_bit(w0, w1, w2, levels):
    # The grid's rows (signal probabilities times a prior) against the
    # polish's Python floats, on the same unnormalized weights, and the
    # grid's signal values against the polish's under the linear loss (a
    # vectorized exp may differ from math.exp in the last ulp).
    w = [w0, w1, w2]
    if sum(w) > 0.0:
        w = [x / sum(w) for x in w]
    g = np.linspace(0.0, 1.0, 11)
    sig = g[np.indices((11,) * 3).reshape(3, -1)]  # as the oracle's grid
    a, b, c = (x * s for x, s in zip(w, sig))
    _, ell, h = levels
    roots = _three_type_root(a, b, c, ell, h).tolist()
    assert roots == [_three_type_root(*abc, ell, h)
                     for abc in zip(a.tolist(), b.tolist(), c.tolist())]
    vals = _split_value_atoms(w, levels, LIN, *sig).tolist()
    assert vals == [_split_value_atoms(w, levels, LIN, *row)
                    for row in zip(*(s.tolist() for s in sig))]


@pytest.mark.parametrize("h", [1e17, 1e308])
def test_split_search_does_not_cancel_on_a_huge_high_type(h):
    # A type at h >= 1 accepts every proposal up to 1, so with mu0 = 1/2 on
    # it (and ell = 0) the prior itself accepts p = 1: no split does better.
    for prefs in (LIN, SQ):
        v, _ = split_search(BinaryTypeEnv(0.0, h, 0.5), prefs)
        assert v == 0.0
    # With ell = 0.1 and mu0 = 0.3 the prior blocks p = 1, so the best split
    # is interior; h = 1 and the huge h are the same instance for the Vetoer.
    env, ref = BinaryTypeEnv(0.1, h, 0.3), BinaryTypeEnv(0.1, 1.0, 0.3)
    assert split_search(env, SQ)[0] == pytest.approx(split_search(ref, SQ)[0], abs=1e-12)
