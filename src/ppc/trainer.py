"""Bit-sequential code construction.

Each bit alternates two steps: pick the Hamming threshold that balances
the misclassified Near and Far pair counts, then solve a signed min-cut
on the logistic-gradient weight matrix and append the winning bit.
The gram matrix B = C^T C carries everything the pair losses need.

Distances follow the doubled convention d_H = k - B_ij (twice the
mismatch count after k bits).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import InitVar, dataclass, field

import numpy as np
from scipy.spatial.distance import squareform
from scipy.special import expit

from ppc.affinity import ProximityLabels
from ppc.mincut import (
    INITIALIZERS,
    ONE_MINUS_EPS,
    SolverReport,
    UPDATE_SCHEMES,
    best_of_restarts,
    check_bits,
)
from ppc.seeds import derive_seed

# maps (cut bits, 0-based bit index) to the bits a bit step accumulates
Corrector = Callable[[np.ndarray, int], np.ndarray]


@dataclass
class LossReport:
    """Pair losses of the current code at threshold alpha.

    `empirical` counts violated pairs (Near with d_H > alpha, Far with
    d_H <= alpha); `relaxed` is the logistic total at beta = bits - alpha.
    """

    empirical: int
    relaxed: float
    alpha: float
    margin_min: float
    margin_mean: float


@dataclass
class AlphaResult:
    alpha: float
    beta: float
    misclassified_near: int
    misclassified_far: int
    degenerate: bool = False


@dataclass
class TrainConfig:
    max_bits: int
    target_empirical_loss: int = 0
    solver: str = "bit"  # bit | vector
    init: str = "random"
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.max_bits < 1:
            raise ValueError("max_bits must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.solver not in UPDATE_SCHEMES:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.init not in INITIALIZERS:
            raise ValueError(f"unknown init {self.init!r}")


@dataclass
class TrainerState:
    """Accumulated pair state and per-bit bookkeeping.

    The pair functions read B = C^T C off its diagonal only, through a
    read-only condensed int8/int16 array in pair order. States made by
    `empty` and `accumulate` hold just that array and `n`; their `gram` is
    a read-only int64 n x n matrix built on each read (128 MB at n=4000),
    for tests and checks, not for training. A hand-built
    `TrainerState(gram=G, bits_done=k)` keeps G as given and takes its
    condensed copy on first use, so edit G off its diagonal only before
    then. Each state memoizes one pair index (see `_pair_index`).
    """

    gram: InitVar[np.ndarray | None]
    bits_done: int = 0
    alpha_hat: float | None = None
    beta_hat: float = 0.0
    loss_history: list[LossReport] = field(default_factory=list)
    solver_reports: list[SolverReport] = field(default_factory=list)
    _dense: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _n: int = field(default=0, init=False, repr=False, compare=False)
    _pairs: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _index: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self, gram: np.ndarray | None):
        if gram is not None:
            self._dense = gram
            self._n = gram.shape[0]

    @classmethod
    def _condensed(cls, n: int, pairs: np.ndarray, bits_done: int, **fields) -> "TrainerState":
        state = cls(None, bits_done, **fields)
        state._n = n
        state._pairs = _read_only(pairs)
        return state

    @classmethod
    def empty(cls, n: int) -> "TrainerState":
        return cls._condensed(n, np.zeros(n * (n - 1) // 2, dtype=np.int8), 0)

    @property
    def n(self) -> int:
        return self._n


def _dense_gram(state: TrainerState) -> np.ndarray:
    if state._dense is not None:
        return state._dense
    gram = squareform(state._pairs, checks=False).astype(np.int64)
    np.fill_diagonal(gram, state.bits_done)
    return _read_only(gram)


# a property set after the class body, since inside it `gram` names the
# init argument of a hand-built state
TrainerState.gram = property(_dense_gram, doc="B = C^T C as an n x n int64 matrix.")


def hamming_from_gram(gram_entry: int, bits: int) -> int:
    """Doubled Hamming distance k - B_ij recovered from a gram entry."""
    g = int(gram_entry)
    if abs(g) > bits:
        raise ValueError(f"|B_ij|={abs(g)} exceeds bit count {bits}")
    if (g - bits) % 2 != 0:
        raise ValueError(f"gram entry {g} has wrong parity for {bits} bits")
    return bits - g


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _pair_dtype(bits: int) -> type:
    """Narrowest signed integer type holding every B_ij in [-bits, bits]."""
    return np.int8 if bits <= 127 else np.int16 if bits <= 32767 else np.int64


def _check_gram_range(lo: int, hi: int, bits: int):
    if max(-lo, hi) > bits:
        raise ValueError(f"|B_ij|={max(-lo, hi)} exceeds bit count {bits}")


def _pair_gram(state: TrainerState) -> np.ndarray:
    """Read-only condensed B_ij in pair order, in the narrowest integer type."""
    if state._pairs is None:
        full = squareform(np.asarray(state._dense), checks=False)
        if full.size:
            _check_gram_range(int(full.min()), int(full.max()), state.bits_done)
        state._pairs = _read_only(full.astype(_pair_dtype(state.bits_done)))
    return state._pairs


def _pair_index(labels: ProximityLabels, state: TrainerState) -> np.ndarray:
    """Each pair's flat position in a (2k+1, 2) table: row B_ij + k, column 1 if Near.

    After k bits every B_ij lies in -k..k, so any per-pair quantity that
    depends only on (B_ij, y_ij) takes at most 2(2k+1) values: the pair
    functions evaluate it once per table entry and gather by this index.
    The state keeps the last index it built, keyed on the labels object
    and the bit count, so one bit step builds it once.
    """
    k = state.bits_done
    if state._index is not None and state._index[0] is labels and state._index[1] == k:
        return state._index[2]
    pairs = _pair_gram(state)
    if pairs.size:
        _check_gram_range(int(pairs.min()), int(pairs.max()), k)
    idx = pairs.astype(np.intp)
    idx += k
    idx *= 2
    idx += labels.near_mask()
    state._index = (labels, k, _read_only(idx))
    return idx


# table column 0 holds Far pairs (y = -1), column 1 Near pairs (y = +1)
_SIGNS = np.array([-1.0, 1.0])


def _gram_values(bits: int) -> np.ndarray:
    """The 2k+1 possible B_ij as a float column, one table row each."""
    return np.arange(-bits, bits + 1, dtype=np.float64)[:, None]


def empirical_loss(labels: ProximityLabels, state: TrainerState, alpha: float) -> LossReport:
    """Count violated pairs at threshold alpha (z = 0 does not violate)."""
    k = state.bits_done
    if k < 1:
        raise ValueError("empirical loss needs at least one bit")
    idx = _pair_index(labels, state)
    z = (_SIGNS * (alpha - (k - _gram_values(k)))).ravel()[idx]
    return LossReport(
        empirical=int(np.count_nonzero(z < 0)),
        relaxed=_relaxed_total(idx, k, k - alpha),
        alpha=float(alpha),
        margin_min=float(z.min()),
        margin_mean=float(z.mean()),
    )


def relaxed_loss(labels: ProximityLabels, state: TrainerState, beta: float) -> float:
    """Logistic total sum ln(1 + exp(-y (B_ij - beta))) over unordered pairs."""
    return _relaxed_total(_pair_index(labels, state), state.bits_done, beta)


def _relaxed_total(idx: np.ndarray, bits: int, beta: float) -> float:
    z = _SIGNS * (_gram_values(bits) - beta)
    return float(np.logaddexp(0.0, -z).ravel()[idx].sum())


def optimize_alpha(labels: ProximityLabels, state: TrainerState) -> AlphaResult:
    """Threshold balancing the misclassified Near and Far counts.

    Achievable distances after k bits are the even values 0..2k, so the
    scan runs over the odd midpoints plus the sentinels -1 and 2k-1; the
    candidate minimizing | |E_N| - |E_F| | wins, ties toward smaller alpha.
    Degenerate label sets (no Near or no Far pairs) short-circuit to an
    extreme alpha with the degenerate flag set.
    """
    k = state.bits_done
    if k < 1:
        raise ValueError("alpha optimization needs at least one bit")
    # histogram over the 2k+1 possible distance values d = k - B (rows
    # reversed from B order), Far counts in column 0 and Near in column 1
    counts = np.bincount(_pair_index(labels, state), minlength=2 * (2 * k + 1)).reshape(-1, 2)[::-1]
    hist_far, hist_near = counts[:, 0], counts[:, 1]

    if labels.near_count == 0 or labels.far_count == 0:
        alpha = float(2 * k - 1) if labels.far_count == 0 else -1.0
        d = np.arange(2 * k + 1)
        e_n = int(hist_near[d > alpha].sum())
        e_f = int(hist_far[d <= alpha].sum())
        return AlphaResult(alpha, k - alpha, e_n, e_f, degenerate=True)

    cum_near = np.concatenate(([0], np.cumsum(hist_near)))
    cum_far = np.concatenate(([0], np.cumsum(hist_far)))

    candidates = np.arange(-1, 2 * k, 2)
    # pairs with d <= alpha for odd alpha are those with d <= alpha + 1 - 2 = alpha - 1,
    # i.e. cumulative count through bin alpha (d values are even)
    upto = np.clip(candidates, -1, 2 * k).astype(np.int64)
    e_n = labels.near_count - cum_near[upto + 1]
    e_f = cum_far[upto + 1]
    gap = np.abs(e_n - e_f)
    best = int(np.argmin(gap))
    alpha = float(candidates[best])
    return AlphaResult(alpha, k - alpha, int(e_n[best]), int(e_f[best]))


def weight_matrix(labels: ProximityLabels, state: TrainerState) -> np.ndarray:
    """Signed weights for the next bit's cut problem.

    W_ij = y_ij / (1 + exp(y_ij (B_ij - beta))), the negated logistic-loss
    gradient at the carried margin. Signs match the pair labels, magnitudes
    lie in (0, 1) (clamped away from the boundary where float rounding
    would saturate), and the diagonal is zero. Before any bits exist the
    margin is zero and the weights are ±1/2.
    """
    k = state.bits_done
    beta = state.beta_hat if k else 0.0
    z = _SIGNS * (_gram_values(k) - beta)
    mag = np.clip(expit(-z), np.finfo(np.float64).tiny, ONE_MINUS_EPS)
    return squareform((_SIGNS * mag).ravel()[_pair_index(labels, state)])


def accumulate(state: TrainerState, b: np.ndarray) -> TrainerState:
    """Add one bit's rank-1 outer product to the condensed gram.

    The new state holds the condensed pairs only; the old state's pair
    index is released, since the next bit reads the new state's.
    """
    b = check_bits(b, state.n)
    k = state.bits_done + 1
    pairs = _pair_gram(state).astype(_pair_dtype(k), copy=False)
    new = TrainerState._condensed(
        state.n,
        pairs + squareform(np.outer(b, b), checks=False),
        k,
        alpha_hat=state.alpha_hat,
        beta_hat=state.beta_hat,
        loss_history=list(state.loss_history),
        solver_reports=list(state.solver_reports),
    )
    state._index = None
    return new


def solve_bit(W: np.ndarray, config: TrainConfig, bit_index: int) -> tuple[np.ndarray, SolverReport]:
    """Best-of-restarts signed-cut solve for one bit, seeded per bit and restart."""
    seeds = [derive_seed(config.seed, "init", bit_index, r) for r in range(config.restarts)]
    return best_of_restarts(W, config.solver, config.init, seeds)


def train_bit(
    state: TrainerState, labels: ProximityLabels, config: TrainConfig, correct: Corrector | None = None
) -> tuple[np.ndarray, TrainerState, LossReport]:
    """Run one full bit step: weights, cut, correct, accumulate, threshold, report.

    `correct(target_bits, bit_index)` maps the cut's ±1 bits to the bits
    that get accumulated; None keeps the cut's bits (in-sample training).
    Returns the accumulated bits.
    """
    b, report = solve_bit(weight_matrix(labels, state), config, bit_index=state.bits_done)
    if correct is not None:
        b = correct(b, state.bits_done)
    new_state = accumulate(state, b)
    result = optimize_alpha(labels, new_state)
    new_state.alpha_hat = result.alpha
    new_state.beta_hat = result.beta
    loss = empirical_loss(labels, new_state, result.alpha)
    new_state.loss_history.append(loss)
    new_state.solver_reports.append(report)
    return b, new_state, loss


def train(
    labels: ProximityLabels, config: TrainConfig, correct: Corrector | None = None
) -> tuple[np.ndarray, TrainerState]:
    """Emit bits until the empirical loss drops to the target or max_bits.

    Returns the p x n ±1 code matrix of the accumulated (corrected) bits
    and the final trainer state (whose alpha_hat is the retrieval
    threshold for the finished code). See `train_bit` for `correct`.
    """
    state = TrainerState.empty(labels.n)
    rows = []
    for _ in range(config.max_bits):
        b, state, loss = train_bit(state, labels, config, correct)
        rows.append(b)
        if loss.empirical <= config.target_empirical_loss:
            break
    codes = np.stack(rows).astype(np.int8)
    return codes, state


def bit_log_records(state: TrainerState) -> list[dict]:
    """Per-bit training log rows (one JSON-ready dict per emitted bit)."""
    records = []
    for k, (loss, rep) in enumerate(zip(state.loss_history, state.solver_reports), start=1):
        records.append(
            {
                "bit": k,
                "alpha": loss.alpha,
                "beta": k - loss.alpha,
                "empirical_loss": loss.empirical,
                "relaxed_loss": loss.relaxed,
                "solver_objective": rep.objective,
                "iterations": rep.iterations,
            }
        )
    return records
