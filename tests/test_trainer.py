"""Bit-sequential trainer: threshold balancing, weights, gram bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import squareform
from scipy.special import expit

from ppc.affinity import Dataset, ProximityLabels, labels_by_class, synth_blobs
from ppc.index import pack, pair_hamming
from ppc.mincut import ONE_MINUS_EPS, exhaustive_maxcut, objective
from ppc.trainer import (
    AlphaResult,
    LossReport,
    TrainConfig,
    TrainerState,
    _pair_gram,
    _pair_index,
    accumulate,
    bit_log_records,
    empirical_loss,
    hamming_from_gram,
    optimize_alpha,
    relaxed_loss,
    train,
    train_bit,
    weight_matrix,
)


def _labels_from_y(y):
    """Build labels for explicit ±1 pair assignments (condensed order)."""
    y = np.asarray(y)
    m = y.size
    n = int((1 + np.sqrt(1 + 8 * m)) / 2)
    assert n * (n - 1) // 2 == m
    return ProximityLabels.from_near_mask(y > 0, n)


def _state_with_distances(dists, k):
    """Trainer state whose condensed pair distances equal `dists` after k bits.

    Only the gram entries matter for the loss/threshold ops, so we write
    B = k - d directly into a consistent symmetric integer matrix.
    """
    dists = np.asarray(dists)
    m = dists.size
    n = int((1 + np.sqrt(1 + 8 * m)) / 2)
    gram = np.zeros((n, n), dtype=np.int64)
    iu = np.triu_indices(n, 1)
    gram[iu] = k - dists
    gram = gram + gram.T
    np.fill_diagonal(gram, k)
    return TrainerState(gram=gram, bits_done=k)


class TestHammingFromGram:
    def test_identical_codes(self):
        assert hamming_from_gram(8, 8) == 0

    def test_antipodal_codes(self):
        assert hamming_from_gram(-8, 8) == 16

    def test_one_mismatch(self):
        assert hamming_from_gram(2, 4) == 2

    def test_parity_violation(self):
        with pytest.raises(ValueError, match="parity"):
            hamming_from_gram(1, 4)

    def test_bound_violation(self):
        with pytest.raises(ValueError):
            hamming_from_gram(6, 4)


class TestEmpiricalLoss:
    def test_near_within_threshold(self):
        state = _state_with_distances([0], k=2)
        labels = _labels_from_y([+1])
        assert empirical_loss(labels, state, alpha=1.0).empirical == 0

    def test_far_within_threshold_violates(self):
        state = _state_with_distances([0], k=2)
        labels = _labels_from_y([-1])
        assert empirical_loss(labels, state, alpha=1.0).empirical == 1

    def test_zero_margin_does_not_violate(self):
        state = _state_with_distances([2], k=2)
        labels = _labels_from_y([+1])
        report = empirical_loss(labels, state, alpha=2.0)
        assert report.empirical == 0
        assert report.margin_min == 0.0


class TestRelaxedLoss:
    def test_zero_margin_is_ln2(self):
        state = _state_with_distances([1], k=1)  # B = 0
        labels = _labels_from_y([+1])
        assert relaxed_loss(labels, state, beta=0.0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_large_positive_margin_vanishes(self):
        state = _state_with_distances([0], k=40)  # B = 40, y=+1, beta=0 -> z=40
        labels = _labels_from_y([+1])
        val = relaxed_loss(labels, state, beta=0.0)
        assert 0.0 <= val < 1e-17

    def test_large_negative_margin_is_linear(self):
        state = _state_with_distances([80], k=40)  # B = -40, y=+1 -> z=-40
        labels = _labels_from_y([+1])
        assert relaxed_loss(labels, state, beta=0.0) == pytest.approx(40.0, abs=1e-12)


class TestOptimizeAlpha:
    def test_spec_grid_example(self):
        # near distances {0,2,4}, far {2,4,6}: alpha=3 balances 1 vs 1
        state = _state_with_distances([0, 2, 4, 2, 4, 6], k=3)
        labels = _labels_from_y([+1, +1, +1, -1, -1, -1])
        res = optimize_alpha(labels, state)
        assert res.alpha == 3.0
        assert res.misclassified_near == 1 and res.misclassified_far == 1
        assert res.beta == 0.0

    def test_balance_is_minimal_over_full_scan(self):
        rng = np.random.default_rng(5)
        k = 4
        d = 2 * rng.integers(0, k + 1, size=45)
        y = np.where(rng.random(45) < 0.5, 1, -1)
        state = _state_with_distances(d, k)
        labels = _labels_from_y(y)
        res = optimize_alpha(labels, state)
        near = y > 0
        best_gap = None
        for alpha in range(-1, 2 * k, 2):
            e_n = int(np.sum(near & (d > alpha)))
            e_f = int(np.sum(~near & (d <= alpha)))
            gap = abs(e_n - e_f)
            if best_gap is None or gap < best_gap:
                best_gap, best_alpha = gap, alpha
        assert abs(res.misclassified_near - res.misclassified_far) == best_gap
        assert res.alpha == best_alpha  # ties broken toward smaller alpha

    def test_perfect_separation_smallest_candidate(self):
        k = 3
        state = _state_with_distances([0, 0, 6, 6, 6, 6], k=k)
        labels = _labels_from_y([+1, +1, -1, -1, -1, -1])
        res = optimize_alpha(labels, state)
        assert res.alpha == 1.0
        assert res.misclassified_near == 0 and res.misclassified_far == 0

    def test_all_near_degenerate(self):
        k = 2
        state = _state_with_distances([0, 2, 4], k=k)
        labels = _labels_from_y([+1, +1, +1])
        res = optimize_alpha(labels, state)
        assert res.alpha == 2 * k - 1
        assert res.degenerate

    def test_all_far_degenerate(self):
        state = _state_with_distances([0, 2, 4], k=2)
        labels = _labels_from_y([-1, -1, -1])
        res = optimize_alpha(labels, state)
        assert res.alpha == -1.0
        assert res.degenerate


class TestWeightMatrix:
    def test_first_bit_weights_are_half_labels(self):
        labels = _labels_from_y([+1, -1, -1])
        state = TrainerState.empty(3)
        W = weight_matrix(labels, state)
        assert W[0, 1] == 0.5
        assert W[0, 2] == -0.5
        assert W[1, 2] == -0.5
        assert np.array_equal(W, W.T)
        assert np.all(np.diag(W) == 0.0)

    def test_sign_law_and_open_interval(self):
        rng = np.random.default_rng(9)
        n = 12
        y = np.where(rng.random(n * (n - 1) // 2) < 0.5, 1, -1)
        labels = _labels_from_y(y)
        state = _state_with_distances(2 * rng.integers(0, 5, size=y.size), k=4)
        state.beta_hat = 1.0
        W = weight_matrix(labels, state)
        iu = np.triu_indices(n, 1)
        vals = W[iu]
        assert np.array_equal(np.sign(vals), y)
        assert np.all(np.abs(vals) > 0.0)
        assert np.all(np.abs(vals) < 1.0)

    def test_sign_law_survives_extreme_margins(self):
        # margins large enough that expit would round to exactly 1.0
        labels = _labels_from_y([+1])
        state = _state_with_distances([0], k=60)  # B = 60, beta=0 -> z=60
        state.beta_hat = 0.0
        W = weight_matrix(labels, state)
        assert 0.0 < W[0, 1] < 1.0

    def test_well_placed_pair_vanishing_pull(self):
        labels = _labels_from_y([+1])
        state = _state_with_distances([0], k=40)  # gamma = 40
        state.beta_hat = 0.0
        W = weight_matrix(labels, state)
        # 1/(1+e^40) computed with the overflow-safe form
        assert W[0, 1] == pytest.approx(np.exp(-40.0), rel=1e-12)


class TestAccumulate:
    def test_rank_one_outer(self):
        state = TrainerState.empty(2)
        state = accumulate(state, np.array([1, -1]))
        assert np.array_equal(state.gram, np.array([[1, -1], [-1, 1]]))
        assert state.bits_done == 1

    def test_repeated_bit(self):
        state = TrainerState.empty(2)
        b = np.array([1, -1])
        state = accumulate(accumulate(state, b), b)
        assert np.array_equal(state.gram, 2 * np.outer(b, b))
        assert np.all(np.diag(state.gram) == 2)

    def test_diagonal_counts_bits(self):
        state = TrainerState.empty(4)
        rngs = [np.array([1, 1, -1, -1]), np.array([1, -1, 1, -1]), np.array([-1, 1, 1, 1])]
        for b in rngs:
            state = accumulate(state, b)
        assert np.all(np.diag(state.gram) == 3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            accumulate(TrainerState.empty(3), np.array([1, -1]))


class TestTrainBit:
    def test_first_bit_separates_two_classes(self):
        # 1-D two-class data; the first bit's cut of the ±1/2 label graph
        # should match the exhaustive optimum and split the classes
        rng = np.random.default_rng(2)
        feats = np.concatenate([rng.normal(-5, 0.1, 5), rng.normal(5, 0.1, 5)])[:, None]
        data = Dataset(features=feats, class_labels=[0] * 5 + [1] * 5)
        labels = labels_by_class(data)
        state = TrainerState.empty(10)
        W = weight_matrix(labels, state)
        b, new_state, loss = train_bit(state, labels, TrainConfig(max_bits=1, seed=0, restarts=8))
        _, oracle_val = exhaustive_maxcut(W)
        assert objective(W, b) == pytest.approx(oracle_val)
        assert len(set(b[:5])) == 1 and len(set(b[5:])) == 1 and b[0] != b[5]
        assert loss.empirical == 0

    def test_all_near_gives_constant_bit(self):
        labels = _labels_from_y([+1] * 15)  # n = 6
        state = TrainerState.empty(6)
        b, _, _ = train_bit(state, labels, TrainConfig(max_bits=1, seed=1))
        assert np.all(b == b[0])

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(7)
        y = np.where(rng.random(66) < 0.4, 1, -1)  # n = 12
        labels = _labels_from_y(y)
        state = TrainerState.empty(12)
        W = weight_matrix(labels, state)
        objs = {}
        for restarts in (1, 8):
            b, _, _ = train_bit(state, labels, TrainConfig(max_bits=1, seed=3, restarts=restarts))
            objs[restarts] = objective(W, b)
        assert objs[8] >= objs[1]


class TestTrain:
    def test_vacuous_target_stops_after_one_bit(self):
        labels = _labels_from_y(np.array([1, -1, 1, -1, 1, -1]))  # n = 4
        codes, state = train(labels, TrainConfig(max_bits=16, target_empirical_loss=6, seed=0))
        assert codes.shape == (1, 4)
        assert state.bits_done == 1

    def test_p_zero_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(max_bits=0)

    def test_loss_decreases_on_blobs(self):
        data = synth_blobs(80, 4, 3, seed=11)
        labels = labels_by_class(data)
        codes, state = train(labels, TrainConfig(max_bits=12, seed=4))
        losses = [r.empirical for r in state.loss_history]
        assert losses[-1] < losses[0]

    def test_gram_matches_codes_and_distances(self):
        data = synth_blobs(50, 3, 2, seed=8)
        labels = labels_by_class(data)
        codes, state = train(labels, TrainConfig(max_bits=9, seed=5, target_empirical_loss=-1))
        p = codes.shape[0]
        assert np.array_equal(state.gram, codes.astype(np.int64).T @ codes.astype(np.int64))
        d_packed = pair_hamming(pack(codes))
        iu = np.triu_indices(50, 1)
        assert np.array_equal(p - state.gram[iu], d_packed)

    def test_alpha_beta_identity_every_step(self):
        # y(alpha - d) == y(B - beta) with beta = k - alpha, exactly
        data = synth_blobs(30, 2, 2, seed=3)
        labels = labels_by_class(data)
        y = labels.signs().astype(np.int64)
        state = TrainerState.empty(30)
        cfg = TrainConfig(max_bits=6, seed=2, target_empirical_loss=-1)
        iu = np.triu_indices(30, 1)
        for _ in range(6):
            _, state, loss = train_bit(state, labels, cfg)
            k = state.bits_done
            B = state.gram[iu]
            d = k - B
            alpha = int(loss.alpha)
            beta = k - alpha
            assert np.array_equal(y * (alpha - d), y * (B - beta))


class TestCorrector:
    """train(..., correct): the corrector's bits are what a bit step accumulates."""

    def _labels(self):
        return labels_by_class(synth_blobs(40, 3, 2, seed=9))

    def test_identity_matches_no_corrector(self):
        labels = self._labels()
        cfg = TrainConfig(max_bits=6, seed=3, target_empirical_loss=-1)
        codes, state = train(labels, cfg)
        codes_id, state_id = train(labels, cfg, lambda b, bit_index: b)
        assert np.array_equal(codes_id, codes)
        assert bit_log_records(state_id) == bit_log_records(state)

    def test_flipping_corrector_sees_every_bit_and_is_accumulated(self):
        labels = self._labels()
        cfg = TrainConfig(max_bits=5, seed=4, target_empirical_loss=-1)
        cut_bits, seen = [], []

        def flip_first_point(b, bit_index):
            cut_bits.append(b.copy())
            seen.append(bit_index)
            out = b.copy()
            out[0] = -out[0]
            return out

        codes, state = train(labels, cfg, flip_first_point)
        assert seen == list(range(codes.shape[0])) == list(range(5))
        expected = np.stack(cut_bits)
        expected[:, 0] *= -1
        assert np.array_equal(codes, expected)
        assert np.array_equal(state.gram, codes.astype(np.int64).T @ codes.astype(np.int64))


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 5000))
def test_solver_beats_its_own_start(seed):
    """Surrogate descent: the chosen bit's objective >= its initial guess."""
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(28) < 0.5, 1, -1)  # n = 8
    labels = _labels_from_y(y)
    state = TrainerState.empty(8)
    W = weight_matrix(labels, state)
    from ppc.mincut import init_random
    from ppc.trainer import solve_bit

    cfg = TrainConfig(max_bits=1, seed=seed, restarts=1)
    b, report = solve_bit(W, cfg, bit_index=0)
    from ppc.seeds import derive_seed

    b0 = init_random(8, derive_seed(seed, "init", 0, 0))
    assert report.objective >= objective(W, b0) - 1e-12


# ---------------------------------------------------------------------------
# Elementwise reference formulas: one float per pair, read straight from the
# dense gram. The trainer evaluates them once per distinct (B_ij, y_ij) and
# gathers, which must reproduce these floats exactly.


def _ref_pairs(state):
    return state.gram[np.triu_indices(state.n, 1)]


def _ref_signs(labels):
    near = np.unpackbits(labels.packed, count=labels.num_pairs).astype(bool)
    return np.where(near, 1, -1).astype(np.float64)


def _ref_weight_matrix(labels, state):
    y = _ref_signs(labels)
    if state.bits_done == 0:
        g, beta = np.zeros(labels.num_pairs), 0.0
    else:
        g, beta = _ref_pairs(state).astype(np.float64), state.beta_hat
    z = y * (g - beta)
    mag = np.clip(expit(-z), np.finfo(np.float64).tiny, ONE_MINUS_EPS)
    return squareform(y * mag)


def _ref_relaxed_loss(labels, state, beta):
    z = _ref_signs(labels) * (_ref_pairs(state).astype(np.float64) - beta)
    return float(np.logaddexp(0.0, -z).sum())


def _ref_empirical_loss(labels, state, alpha):
    d = state.bits_done - _ref_pairs(state)
    z = _ref_signs(labels) * (alpha - d)
    return LossReport(
        empirical=int(np.count_nonzero(z < 0)),
        relaxed=_ref_relaxed_loss(labels, state, state.bits_done - alpha),
        alpha=float(alpha),
        margin_min=float(z.min()),
        margin_mean=float(z.mean()),
    )


def _ref_optimize_alpha(labels, state):
    k = state.bits_done
    d = k - _ref_pairs(state)
    near = _ref_signs(labels) > 0
    if labels.near_count == 0 or labels.far_count == 0:
        alpha = float(2 * k - 1) if labels.far_count == 0 else -1.0
        e_n = int(np.count_nonzero(d[near] > alpha))
        e_f = int(np.count_nonzero(d[~near] <= alpha))
        return AlphaResult(alpha, k - alpha, e_n, e_f, degenerate=True)
    cum_near = np.concatenate(([0], np.cumsum(np.bincount(d[near], minlength=2 * k + 1))))
    cum_far = np.concatenate(([0], np.cumsum(np.bincount(d[~near], minlength=2 * k + 1))))
    candidates = np.arange(-1, 2 * k, 2)
    e_n = labels.near_count - cum_near[candidates + 1]
    e_f = cum_far[candidates + 1]
    best = int(np.argmin(np.abs(e_n - e_f)))
    return AlphaResult(float(candidates[best]), k - float(candidates[best]), int(e_n[best]), int(e_f[best]))


def _assert_pair_functions_match_reference(labels, state, beta):
    state.beta_hat = beta
    assert np.array_equal(weight_matrix(labels, state), _ref_weight_matrix(labels, state))
    assert relaxed_loss(labels, state, beta) == _ref_relaxed_loss(labels, state, beta)
    if state.bits_done >= 1:
        alpha = state.bits_done - beta
        assert empirical_loss(labels, state, alpha) == _ref_empirical_loss(labels, state, alpha)
        assert optimize_alpha(labels, state) == _ref_optimize_alpha(labels, state)


class TestPairTablesMatchReference:
    N = 23

    def _labels(self, seed, near_frac=0.3):
        rng = np.random.default_rng(seed)
        return ProximityLabels.from_near_mask(rng.random(self.N * (self.N - 1) // 2) < near_frac, self.N)

    def test_accumulated_states_k0_to_40(self):
        labels = self._labels(1)
        rng = np.random.default_rng(2)
        state = TrainerState.empty(self.N)
        for k in range(41):
            for beta in (state.bits_done / 2.0 - 0.37, 1.5, float(-k)):
                _assert_pair_functions_match_reference(labels, state, beta)
            state = accumulate(state, 2 * rng.integers(0, 2, size=self.N) - 1)

    def test_hand_built_states_any_parity(self):
        labels = self._labels(3)
        rng = np.random.default_rng(4)
        iu = np.triu_indices(self.N, 1)
        for k in range(41):
            gram = np.zeros((self.N, self.N), dtype=np.int64)
            gram[iu] = rng.integers(-k, k + 1, size=iu[0].size)
            state = TrainerState(gram=gram + gram.T, bits_done=k)
            _assert_pair_functions_match_reference(labels, state, 0.61 * k - 0.25)

    @pytest.mark.parametrize("y", [[+1, -1, -1], [+1, +1, +1], [-1, -1, -1]])
    def test_wrong_parity_distances(self, y):
        labels = _labels_from_y(y)
        for dists, k in (([1, 1, 1], 1), ([0, 1, 2], 1), ([3, 0, 5], 4), ([5, 2, 1], 3)):
            state = _state_with_distances(dists, k)
            _assert_pair_functions_match_reference(labels, state, 0.5)

    @pytest.mark.parametrize("entry", [3, -3, 128, 256, -200, 1000])
    def test_gram_beyond_bit_count_raises(self, entry):
        labels = _labels_from_y([+1, -1, +1])
        gram = np.full((3, 3), 2, dtype=np.int64)
        gram[0, 2] = gram[2, 0] = entry
        for call in (
            lambda s: weight_matrix(labels, s),
            lambda s: relaxed_loss(labels, s, 0.5),
            lambda s: empirical_loss(labels, s, 1.0),
            lambda s: optimize_alpha(labels, s),
        ):
            with pytest.raises(ValueError, match="exceeds bit count"):
                call(TrainerState(gram=gram, bits_done=2))

    def test_bit_count_lowered_after_first_use_raises(self):
        labels = _labels_from_y([+1, -1, +1])
        state = _state_with_distances([0, 2, 6], k=3)  # B = 3, 1, -3
        relaxed_loss(labels, state, 0.0)
        state.bits_done = 2
        with pytest.raises(ValueError, match="exceeds bit count"):
            relaxed_loss(labels, state, 0.0)


class TestCondensedPairCache:
    def test_follows_accumulate_chain(self):
        rng = np.random.default_rng(6)
        state = TrainerState.empty(9)
        assert np.array_equal(_pair_gram(state), _ref_pairs(state))
        for _ in range(140):  # past the int8 range of B_ij
            state = accumulate(state, 2 * rng.integers(0, 2, size=9) - 1)
            assert np.array_equal(_pair_gram(state), _ref_pairs(state))
        assert _pair_gram(state).dtype == np.int16

    def test_hand_built_state(self):
        state = _state_with_distances([0, 2, 4, 2, 4, 6], k=3)
        assert np.array_equal(_pair_gram(state), _ref_pairs(state))
        after = accumulate(state, np.array([1, -1, 1, 1]))
        assert np.array_equal(_pair_gram(after), _ref_pairs(after))

    def test_diagonal_edit_after_construction(self):
        # the in-place edit acceptance criterion 3 makes before relaxed_loss
        state = TrainerState(gram=np.zeros((4, 4), dtype=np.int64), bits_done=1)
        state.gram[np.diag_indices(4)] = 1
        assert np.array_equal(_pair_gram(state), _ref_pairs(state))

    def test_arrays_are_read_only(self):
        state = accumulate(TrainerState.empty(4), np.array([1, -1, 1, 1]))
        for arr in (_pair_gram(state), state.gram, TrainerState.empty(3).gram):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0


class TestCondensedState:
    def _chain(self, n, bits, seed):
        rng = np.random.default_rng(seed)
        codes = (2 * rng.integers(0, 2, size=(bits, n)) - 1).astype(np.int8)
        state = TrainerState.empty(n)
        for b in codes:
            state = accumulate(state, b)
        return codes, state

    def test_no_dense_array_held(self):
        n = 40
        labels = ProximityLabels.from_near_mask(np.arange(n * (n - 1) // 2) % 3 == 0, n)
        _, state = self._chain(n, 5, seed=7)
        relaxed_loss(labels, state, 1.0)  # fills the pair-index memo
        held = [v for v in vars(state).values() if isinstance(v, np.ndarray)]
        held += [v for v in state._index if isinstance(v, np.ndarray)]
        assert held and all(a.size < n * n for a in held)

    def test_gram_built_read_only_int64(self):
        codes, state = self._chain(17, 9, seed=8)
        gram = state.gram
        assert gram.dtype == np.int64 and not gram.flags.writeable
        assert np.array_equal(gram, codes.astype(np.int64).T @ codes.astype(np.int64))
        assert gram is not state.gram  # built on each read

    def test_hand_built_gram_kept_as_given(self):
        gram = np.zeros((4, 4), dtype=np.int64)
        state = TrainerState(gram=gram, bits_done=1)
        assert state.gram is gram and state.n == 4

    def test_pair_index_memoized_per_labels_object(self):
        n = 12
        mask = np.arange(n * (n - 1) // 2) % 4 == 0
        first = ProximityLabels.from_near_mask(mask, n)
        other = ProximityLabels.from_near_mask(~mask, n)
        _, state = self._chain(n, 3, seed=9)
        idx = _pair_index(first, state)
        assert _pair_index(first, state) is idx
        rebuilt = _pair_index(other, state)
        assert rebuilt is not idx
        assert np.array_equal(rebuilt - idx, np.where(mask, -1, 1))
        assert relaxed_loss(other, state, 0.5) == _ref_relaxed_loss(other, state, 0.5)

    def test_accumulate_releases_old_memo(self):
        n = 6
        labels = ProximityLabels.from_near_mask(np.arange(n * (n - 1) // 2) % 2 == 0, n)
        state = TrainerState.empty(n)
        weight_matrix(labels, state)
        assert state._index is not None
        after = accumulate(state, np.array([1, -1, 1, 1, -1, 1]))
        assert state._index is None and after._index is None
