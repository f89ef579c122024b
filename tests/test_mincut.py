"""Signed min-cut solver: shift, update schemes, inits, exhaustive oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symmetric
from ppc.mincut import (
    CHECK_BLOCK,
    _zero_diagonal,
    best_of_restarts,
    bit_update,
    check_weights,
    exhaustive_maxcut,
    init_fiedler,
    init_random,
    init_random_projection,
    init_signed_laplacian,
    laplacian,
    objective,
    psd_shift,
    smallest_eigenpairs,
    vector_update,
)


class TestObjective:
    def test_hand_sums(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert objective(W, [1, 1]) == 2.0
        assert objective(W, [1, -1]) == -2.0

    def test_sign_flip_symmetry(self):
        W = random_symmetric(8, seed=3)
        b = init_random(8, seed=1)
        assert objective(W, b) == objective(W, -b)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            objective(np.eye(3), [1, 1])


class TestPsdShift:
    def test_negative_offdiag(self):
        W = np.array([[0.0, -2.0], [-2.0, 0.0]])
        Ws, shift = psd_shift(W)
        assert shift == 2.0
        assert np.array_equal(Ws, np.array([[2.0, -2.0], [-2.0, 2.0]]))
        assert sorted(np.linalg.eigvalsh(Ws).round(12)) == [0.0, 4.0]

    def test_diagonally_dominant_no_shift(self):
        W = np.array([[3.0, 1.0], [1.0, 2.0]])
        Ws, shift = psd_shift(W)
        assert shift == 0.0
        assert np.array_equal(Ws, W)

    def test_positive_offdiag(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        Ws, shift = psd_shift(W)
        assert shift == 1.0
        assert sorted(np.linalg.eigvalsh(Ws).round(12)) == [0.0, 2.0]

    @pytest.mark.parametrize("seed", range(5))
    def test_random_vector_psd_certificate(self, seed):
        W = random_symmetric(15, seed=seed)
        Ws, _ = psd_shift(W)
        rng = np.random.default_rng(seed + 100)
        V = rng.standard_normal((1000, 15))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        quad = np.einsum("ij,ij->i", V @ Ws, V)
        assert np.all(quad >= -1e-8 * np.abs(Ws).max())


class TestVectorUpdate:
    def test_two_point_zero_tie(self):
        # shift makes W' b0 = 0; the sign-zero rule sends it to (1, 1)
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        b, rep = vector_update(W, np.array([1, -1]))
        assert list(b) in ([1, 1], [-1, -1])
        assert rep.objective == 2.0
        assert rep.converged

    def test_fixpoint_returns_in_one_iteration(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        b, rep = vector_update(W, np.array([1, 1]))
        assert list(b) == [1, 1]
        assert rep.iterations == 1

    def test_never_worse_than_start(self):
        W = random_symmetric(10, seed=42)
        b0 = init_random(10, seed=7)
        b, rep = vector_update(W, b0)
        assert rep.objective >= objective(W, b0)

    @pytest.mark.parametrize("seed", range(10))
    def test_monotone_on_shifted_matrix(self, seed):
        W = random_symmetric(12, seed=seed)
        Ws, shift = psd_shift(W)
        b0 = init_random(12, seed=seed + 50)
        _, rep = vector_update(W, b0, trace=True)
        objs = [objective(Ws, b) for b in rep.trajectory]
        for prev, cur in zip(objs, objs[1:]):
            assert cur >= prev - 1e-9 * max(1.0, abs(prev))
        assert rep.shift_applied == shift

    def test_negation_symmetry(self):
        W = random_symmetric(9, seed=5)
        b0 = init_random(9, seed=6)
        b_pos, rep_pos = vector_update(W, b0)
        b_neg, rep_neg = vector_update(W, -b0)
        assert rep_pos.objective == pytest.approx(rep_neg.objective)


class TestBitUpdate:
    def test_hand_trace(self):
        W = np.array([[0.0, -1.0], [-1.0, 0.0]])
        b, rep = bit_update(W, np.array([1, 1]))
        assert list(b) == [-1, 1]
        assert rep.objective == 2.0

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_all_positive_gives_constant(self, n):
        # enumeration shows constant vectors are the only 1-flip-optimal
        # points of an all-positive off-diagonal objective
        rng = np.random.default_rng(n)
        W = random_symmetric(n, seed=n)
        W = np.abs(W)
        np.fill_diagonal(W, 0.0)
        for flat in itertools.product([-1, 1], repeat=n):
            b = np.array(flat)
            flips = [objective(W, _flip(b, i)) for i in range(n)]
            if all(f <= objective(W, b) for f in flips):
                assert np.all(b == b[0])
        b, _ = bit_update(W, init_random(n, seed=2 * n))
        assert np.all(b == b[0])

    def test_diagonal_invariance_exact(self):
        # integer weights make the c*n objective offset exact in floats
        rng = np.random.default_rng(0)
        W = rng.integers(-5, 6, size=(7, 7)).astype(np.float64)
        W = (W + W.T) / 2.0
        b0 = init_random(7, seed=3)
        for c in (-5.0, 3.0, 1e6):
            Wc = W + c * np.eye(7)
            b_plain, rep_plain = bit_update(W, b0, trace=True)
            b_shift, rep_shift = bit_update(Wc, b0, trace=True)
            assert np.array_equal(b_plain, b_shift)
            assert len(rep_plain.trajectory) == len(rep_shift.trajectory)
            for x, y in zip(rep_plain.trajectory, rep_shift.trajectory):
                assert np.array_equal(x, y)

    def test_diagonal_shift_objective_offset(self):
        rng = np.random.default_rng(1)
        W = rng.integers(-4, 5, size=(6, 6)).astype(np.float64)
        W = W + W.T
        c = 3.0
        b = init_random(6, seed=9)
        b2 = init_random(6, seed=10)
        assert objective(W + c * np.eye(6), b) - objective(W, b) == c * 6
        # ordering of any fixed pair of candidates is preserved
        pre = objective(W, b) - objective(W, b2)
        post = objective(W + c * np.eye(6), b) - objective(W + c * np.eye(6), b2)
        assert pre == post

    @pytest.mark.parametrize("seed", range(10))
    def test_one_flip_optimal(self, seed):
        n = 11
        W = random_symmetric(n, seed=seed)
        b, rep = bit_update(W, init_random(n, seed=seed + 1))
        assert rep.converged
        W0 = W.copy()
        np.fill_diagonal(W0, 0.0)
        inner = W0 @ b.astype(np.float64)
        assert np.all(b * inner >= 0.0)

    def test_keeps_bits_on_zero_inner(self):
        W = np.zeros((4, 4))
        b0 = np.array([1, -1, 1, -1])
        b, rep = bit_update(W, b0)
        assert np.array_equal(b, b0)
        assert rep.converged

    @pytest.mark.parametrize("seed", range(5))
    def test_negation_maps_to_negated_output(self, seed):
        # the keep-on-tie rule is symmetric, so negating the start negates
        # the whole trajectory exactly
        W = random_symmetric(9, seed=seed + 30)
        b0 = init_random(9, seed=seed)
        b_pos, _ = bit_update(W, b0)
        b_neg, _ = bit_update(W, -b0)
        assert np.array_equal(b_neg, -b_pos)


# every public solve validates W through check_weights
SOLVES = {
    "bit_update": lambda W: bit_update(W, init_random(len(W), seed=0)),
    "vector_update": lambda W: vector_update(W, init_random(len(W), seed=0)),
    "best_of_restarts": lambda W: best_of_restarts(W, "bit", "random", [0, 1]),
}


class TestCheckWeights:
    N = 300  # three full row blocks and a partial one

    def _last_block_row(self):
        assert self.N % CHECK_BLOCK and self.N > 2 * CHECK_BLOCK
        return self.N - 5

    @pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
    @pytest.mark.parametrize("mirror", [False, True])
    @pytest.mark.parametrize("col", [7, N - 2])  # in the first tile, in the diagonal tile
    def test_one_ulp_asymmetry_in_last_block(self, solve, mirror, col):
        W = random_symmetric(self.N, seed=40)
        i, j = self._last_block_row(), col
        if mirror:  # the same pair, stored in the first block's row
            i, j = j, i
        W[i, j] = np.nextafter(W[i, j], np.inf)
        with pytest.raises(ValueError, match="exactly symmetric"):
            solve(W)

    @pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("first", [True, False])
    def test_non_finite_in_first_or_last_block(self, solve, value, first):
        W = random_symmetric(self.N, seed=41)
        i = 0 if first else self.N - 1
        W[i, 3] = W[3, i] = value
        with pytest.raises(ValueError, match="non-finite"):
            solve(W)

    @pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
    def test_non_finite_wins_over_earlier_asymmetry(self, solve):
        W = random_symmetric(self.N, seed=42)
        W[1, 0] += 1.0
        W[self._last_block_row(), 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve(W)

    @pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
    @pytest.mark.parametrize("shape", [(3, 4), (4,), (2, 2, 2)])
    def test_non_square_rejected(self, solve, shape):
        with pytest.raises(ValueError, match="square"):
            solve(np.zeros(shape))

    @pytest.mark.parametrize("solve", SOLVES.values(), ids=SOLVES.keys())
    @pytest.mark.parametrize("n", [1, CHECK_BLOCK - 1, CHECK_BLOCK, CHECK_BLOCK + 1, 300])
    def test_symmetric_sizes_pass(self, solve, n):
        W = random_symmetric(n, seed=n, zero_diag=False)
        assert check_weights(W) is W
        b, report = solve(W)
        assert b.shape == (n,) and np.isfinite(report.objective)

    def test_integer_input_converted(self):
        W = check_weights([[0, 2], [2, 0]])
        assert W.dtype == np.float64 and np.array_equal(W, [[0.0, 2.0], [2.0, 0.0]])


class TestZeroDiagonal:
    def test_zero_diagonal_read_in_place(self):
        W = random_symmetric(6, seed=43)
        assert _zero_diagonal(W) is W

    def test_nonzero_diagonal_copied(self):
        W = random_symmetric(6, seed=44, zero_diag=False)
        before = W.copy()
        W0 = _zero_diagonal(W)
        assert W0 is not W and not np.shares_memory(W0, W)
        assert np.array_equal(W, before)
        assert np.all(np.diag(W0) == 0.0)
        off = ~np.eye(6, dtype=bool)
        assert np.array_equal(W0[off], W[off])


class TestInitRandom:
    def test_deterministic(self):
        assert np.array_equal(init_random(5, seed=3), init_random(5, seed=3))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mean_near_zero(self, seed):
        b = init_random(10_000, seed=seed)
        assert abs(b.astype(float).mean()) <= 0.1

    def test_single_entry(self):
        assert init_random(1, seed=0)[0] in (-1, 1)


class TestSmallestEigenpairs:
    def test_diagonal_matrix(self):
        pairs = smallest_eigenpairs(np.diag([1.0, 3.0]), k=1)
        val, vec = pairs[0]
        assert val == pytest.approx(1.0)
        assert np.allclose(np.abs(vec), [1.0, 0.0])

    def test_degenerate_flagged(self):
        with pytest.warns(UserWarning, match="degenerate"):
            pairs = smallest_eigenpairs(np.diag([2.0, 2.0]), k=2)
        assert pairs[0][0] == pytest.approx(2.0)

    def test_path_graph_null_vector(self):
        W = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        L = laplacian(W)
        val, vec = smallest_eigenpairs(L, k=1)[0]
        assert val == pytest.approx(0.0, abs=1e-10)
        assert np.allclose(vec, vec[0])

    def test_matches_analytic_2x2(self):
        # eigenvalues of [[a,b],[b,a]] are a-b, a+b
        M = np.array([[2.0, 0.5], [0.5, 2.0]])
        val, vec = smallest_eigenpairs(M, k=1)[0]
        assert val == pytest.approx(1.5)
        assert np.allclose(np.abs(vec), [np.sqrt(0.5)] * 2)


class TestSpectralInits:
    def test_fiedler_two_blocks(self):
        # disconnected positive blocks {0,1} and {2,3}: the smallest
        # non-trivial direction separates the blocks with constant signs
        W = np.zeros((4, 4))
        W[0, 1] = W[1, 0] = 1.0
        W[2, 3] = W[3, 2] = 1.0
        bits = init_fiedler(W)
        assert bits[0] == bits[1] and bits[2] == bits[3]
        assert bits[0] != bits[2]

    def test_fiedler_k2(self):
        bits = init_fiedler(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert bits[0] != bits[1]

    def test_fiedler_all_zero_flagged(self):
        with pytest.warns(UserWarning, match="degenerate"):
            bits = init_fiedler(np.zeros((3, 3)))
        assert list(bits) == [1, 1, 1]

    def test_signed_laplacian_2x2(self):
        # W = [[0,-1],[-1,0]] -> Lbar = [[1,1],[1,1]], null vector (1,-1)/sqrt(2)
        bits = init_signed_laplacian(np.array([[0.0, -1.0], [-1.0, 0.0]]))
        assert list(bits) == [1, -1]

    def test_signed_laplacian_positive_matches_fiedler(self):
        W = np.abs(random_symmetric(6, seed=11))
        np.fill_diagonal(W, 0.0)
        a = init_signed_laplacian(W)
        b = init_fiedler(W)
        assert np.array_equal(a, b) or np.array_equal(a, -b)

    def test_signed_laplacian_all_zero(self):
        with pytest.warns(UserWarning, match="degenerate"):
            bits = init_signed_laplacian(np.zeros((3, 3)))
        assert list(bits) == [1, 1, 1]

    def test_random_projection_deterministic(self):
        W = random_symmetric(8, seed=2)
        a = init_random_projection(W, seed=5)
        b = init_random_projection(W, seed=5)
        assert np.array_equal(a, b)

    def test_random_projection_well_separated_blocks(self):
        # four disconnected pairs: the three smallest non-trivial
        # eigenvectors span exactly the block-constant subspace, so any
        # Gaussian mix stays constant on blocks
        n = 8
        W = np.zeros((n, n))
        for b in range(4):
            W[2 * b, 2 * b + 1] = W[2 * b + 1, 2 * b] = 1.0
        hits = 0
        for seed in range(100):
            bits = init_random_projection(W, seed=seed)
            if all(bits[2 * b] == bits[2 * b + 1] for b in range(4)):
                hits += 1
        assert hits >= 95

    def test_random_projection_negated_mix(self):
        # negating the Gaussian coefficients negates the bits (no exact
        # zeros in the mix) and leaves the objective unchanged
        from ppc.mincut import _nontrivial_smallest, _sign_pos

        W = random_symmetric(7, seed=13)
        L = laplacian(W)
        pairs = _nontrivial_smallest(L, 3)
        g = np.random.default_rng(3).standard_normal(3)
        mix = sum(c * v for c, (_, v) in zip(g, pairs))
        assert np.all(mix != 0.0)
        pos, neg = _sign_pos(mix), _sign_pos(-mix)
        assert np.array_equal(pos, -neg)
        assert objective(W, pos) == objective(W, neg)

    def test_random_projection_small_n(self):
        W = np.array([[0.0, 1.0], [1.0, 0.0]])
        bits = init_random_projection(W, seed=0)
        assert set(np.unique(bits)) <= {-1, 1}

    def test_laplacian_pair_signed_psd(self):
        W = random_symmetric(10, seed=21)
        assert np.linalg.eigvalsh(laplacian(W, signed=True)).min() >= -1e-10
        assert np.allclose(laplacian(W).sum(axis=1), 0.0)


class TestExhaustive:
    def test_two_node_cases(self):
        b, val = exhaustive_maxcut(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert list(b) == [1, 1] and val == 2.0
        b, val = exhaustive_maxcut(np.array([[0.0, -3.0], [-3.0, 0.0]]))
        assert list(b) == [1, -1] and val == 6.0

    def test_oracle_dominates_random_probes(self):
        W = random_symmetric(12, seed=77)
        _, val = exhaustive_maxcut(W)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            b = 2 * rng.integers(0, 2, size=12) - 1
            assert objective(W, b) <= val + 1e-9

    def test_size_guard(self):
        with pytest.raises(ValueError):
            exhaustive_maxcut(np.zeros((23, 23)))


@settings(deadline=None, max_examples=25)
@given(n=st.integers(2, 10), seed=st.integers(0, 1000), scheme=st.sampled_from(["bit", "vector"]))
def test_update_schemes_never_decrease(n, seed, scheme):
    """Both schemes return at least the starting objective."""
    W = random_symmetric(n, seed=seed)
    b0 = init_random(n, seed=seed + 1)
    update = bit_update if scheme == "bit" else vector_update
    b, rep = update(W, b0)
    assert rep.objective >= objective(W, b0) - 1e-9 * max(1.0, abs(rep.objective))
    assert set(np.unique(b)) <= {-1, 1}


def _flip(b, i):
    out = b.copy()
    out[i] = -out[i]
    return out
