"""Signed graph min-cut: maximize b^T W b over b in {±1}^n.

W is a dense symmetric matrix with positive (attractive) and negative
(repulsive) weights. Two greedy improvement schemes are provided: a
whole-vector sign iteration on a PSD-shifted matrix, and a coordinate
bit-flip sweep, plus spectral and random initial guesses and an
exhaustive oracle for small n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

VECTOR_ITER_CAP = 1000
BIT_SWEEP_CAP = 100
EXHAUSTIVE_MAX_N = 22
# rows (and tile width) of W that check_weights reads at once
CHECK_BLOCK = 128

# expit rounds to exactly 1.0 above ~36.7; callers that must keep weights
# in the open interval (0, 1) clamp against this.
ONE_MINUS_EPS = float(np.nextafter(1.0, 0.0))


@dataclass
class SolverReport:
    """Outcome of one solver run.

    `objective` is b^T W b of the returned vector on the matrix as given
    (before any PSD shift). `trajectory`, when requested, holds a copy of
    the bit vector after every iteration/sweep.
    """

    objective: float
    iterations: int
    shift_applied: float
    converged: bool
    trajectory: list[np.ndarray] | None = None


def check_weights(W: np.ndarray) -> np.ndarray:
    """Validate a symmetric finite weight matrix, returning it as float64.

    W is read in blocks of CHECK_BLOCK rows, so no n x n temporary is made.
    After a block's finiteness check, its square tiles up to the diagonal
    are compared with their mirror tiles, which lie in rows already
    checked. A non-finite entry anywhere wins over an asymmetry, as in a
    whole-matrix check.
    """
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError("weight matrix must be square")
    symmetric = True
    for start in range(0, W.shape[0], CHECK_BLOCK):
        stop = start + CHECK_BLOCK
        rows = W[start:stop]
        if not np.isfinite(rows).all():
            raise ValueError("weight matrix has non-finite entries")
        symmetric = symmetric and all(
            np.array_equal(rows[:, col : col + CHECK_BLOCK], W[col : col + CHECK_BLOCK, start:stop].T)
            for col in range(0, stop, CHECK_BLOCK)
        )
    if not symmetric:
        raise ValueError("weight matrix must be exactly symmetric")
    return W


def check_bits(b: np.ndarray, n: int | None = None) -> np.ndarray:
    """Validate a ±1 bit vector, returning it as int8."""
    b = np.asarray(b)
    if b.ndim != 1:
        raise ValueError("bit vector must be 1-D")
    if n is not None and b.shape[0] != n:
        raise ValueError(f"bit vector length {b.shape[0]} != {n}")
    if not np.isin(b, (-1, 1)).all():
        raise ValueError("bit vector entries must be ±1")
    return b.astype(np.int8)


def objective(W: np.ndarray, b: np.ndarray) -> float:
    """The quadratic form b^T W b."""
    W = np.asarray(W, dtype=np.float64)
    bf = np.asarray(b, dtype=np.float64)
    if W.shape[0] != bf.shape[0]:
        raise ValueError("dimension mismatch between W and b")
    return float(bf @ (W @ bf))


def psd_shift(W: np.ndarray) -> tuple[np.ndarray, float]:
    """Shift W by c*I so the result is positive semidefinite.

    c is the Gershgorin lower bound max(0, -min_i(W_ii - sum_{j!=i}|W_ij|)),
    which bounds the smallest eigenvalue from below without an
    eigendecomposition. Over-shifting is harmless: a diagonal constant
    moves every objective by c*n and changes no argmax.
    """
    return _psd_shift(check_weights(W))


def _psd_shift(W: np.ndarray) -> tuple[np.ndarray, float]:
    radii = np.abs(W).sum(axis=1) - np.abs(np.diag(W))
    bound = float(np.min(np.diag(W) - radii))
    shift = max(0.0, -bound)
    if shift == 0.0:
        return W, 0.0
    return W + shift * np.eye(W.shape[0]), shift


def _sign_pos(x: np.ndarray) -> np.ndarray:
    """sign with sign(0) = +1, as int8."""
    return np.where(x >= 0, 1, -1).astype(np.int8)


def vector_update(
    W: np.ndarray,
    b0: np.ndarray,
    max_iter: int = VECTOR_ITER_CAP,
    trace: bool = False,
) -> tuple[np.ndarray, SolverReport]:
    """Whole-vector iteration b <- sign(W' b) on the PSD-shifted matrix W'.

    Each step cannot decrease b^T W' b (and hence b^T W b, which differs
    only by the constant shift*n), so the iteration stops at a fixpoint.
    sign(0) resolves to +1.
    """
    W = check_weights(W)
    Ws, shift = _psd_shift(W)
    return _vector_iterate(W, Ws, shift, b0, max_iter, trace)


def _vector_iterate(W, Ws, shift, b0, max_iter=VECTOR_ITER_CAP, trace=False):
    """`vector_update` on a validated W and its PSD shift Ws = W + shift*I."""
    b = check_bits(b0, W.shape[0])

    best = b
    best_obj = objective(Ws, b)
    trajectory = [b.copy()] if trace else None
    iterations = 0
    converged = False
    while iterations < max_iter:
        iterations += 1
        nxt = _sign_pos(Ws @ b)
        if trace:
            trajectory.append(nxt.copy())
        obj = objective(Ws, nxt)
        if obj > best_obj:
            best, best_obj = nxt, obj
        if np.array_equal(nxt, b):
            converged = True
            break
        b = nxt

    out = b if converged else best
    report = SolverReport(
        objective=objective(W, out),
        iterations=iterations,
        shift_applied=shift,
        converged=converged,
        trajectory=trajectory,
    )
    return out, report


def bit_update(
    W: np.ndarray,
    b0: np.ndarray,
    max_sweeps: int = BIT_SWEEP_CAP,
    trace: bool = False,
) -> tuple[np.ndarray, SolverReport]:
    """Coordinate sweeps b[i] <- sign(b_(-i)^T W[:,i]) with immediate write-back.

    Only off-diagonal entries are read (the diagonal contributes a constant),
    so W and W + c*I produce bit-identical trajectories. Ties keep the
    current bit, which guarantees sweep termination. The output is
    1-flip-optimal: no single flip increases sum_{i!=j} W[i,j] b[i] b[j].
    """
    W = check_weights(W)
    return _bit_sweeps(W, _zero_diagonal(W), b0, max_sweeps, trace)


def _zero_diagonal(W: np.ndarray) -> np.ndarray:
    """W itself when its diagonal is already zero, else a copy with it zeroed."""
    if not W.diagonal().any():
        return W
    W0 = W.copy()
    np.fill_diagonal(W0, 0.0)
    return W0


def _bit_sweeps(W, W0, b0, max_sweeps=BIT_SWEEP_CAP, trace=False):
    """`bit_update` on a validated W and W0, W with its diagonal zeroed."""
    b = check_bits(b0, W.shape[0]).copy()
    n = b.shape[0]

    trajectory = [b.copy()] if trace else None
    sweeps = 0
    converged = False
    while sweeps < max_sweeps:
        sweeps += 1
        u = W0 @ b.astype(np.float64)
        changed = False
        for i in range(n):
            inner = u[i]
            if inner == 0.0:
                continue
            new = 1 if inner > 0 else -1
            if new != b[i]:
                u += (2.0 * new) * W0[i, :]
                b[i] = new
                changed = True
        if trace:
            trajectory.append(b.copy())
        if not changed:
            converged = True
            break

    report = SolverReport(
        objective=objective(W, b),
        iterations=sweeps,
        shift_applied=0.0,
        converged=converged,
        trajectory=trajectory,
    )
    return b, report


def init_random(n: int, seed: int) -> np.ndarray:
    """i.i.d. uniform ±1 vector, deterministic per seed."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.default_rng(seed)
    return (2 * rng.integers(0, 2, size=n) - 1).astype(np.int8)


def best_of_restarts(
    W: np.ndarray, update: str, init: str, seeds: list[int]
) -> tuple[np.ndarray, SolverReport]:
    """Best of one `update` solve per seed, by objective (first wins ties).

    W is validated, and the solver's zero-diagonal or PSD-shifted matrix
    built, once for all restarts. Restart 0 starts from the `init` guess;
    for the deterministic spectral guesses the later restarts fall back to
    seeded random vectors so they are not wasted on duplicates.
    """
    if not seeds:
        raise ValueError("need at least one restart")
    W = check_weights(W)
    if update == "bit":
        solve = partial(_bit_sweeps, W, _zero_diagonal(W))
    else:
        solve = partial(_vector_iterate, W, *_psd_shift(W))
    make_init = INITIALIZERS[init]
    best, best_report = None, None
    for r, seed in enumerate(seeds):
        if r == 0 or init in ("random", "random-projection"):
            b0 = make_init(W, seed)
        else:
            b0 = init_random(W.shape[0], seed)
        b, report = solve(b0)
        if best is None or report.objective > best_report.objective:
            best, best_report = b, report
    return best, best_report


# ---------------------------------------------------------------------------
# Spectral initial guesses


def laplacian(W: np.ndarray, signed: bool = False) -> np.ndarray:
    """L = D - W with row-sum degrees, or with |W| row-sum degrees when `signed`.

    The signed form is positive semidefinite even for signed weights.
    """
    W = check_weights(W)
    degrees = np.abs(W).sum(axis=1) if signed else W.sum(axis=1)
    return np.diag(degrees) - W


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    """Flip v so its largest-magnitude component is positive (first on ties)."""
    k = int(np.argmax(np.abs(v)))
    return -v if v[k] < 0 else v


def smallest_eigenpairs(M: np.ndarray, k: int, tol: float = 1e-8) -> list[tuple[float, np.ndarray]]:
    """The k algebraically smallest eigenpairs of a symmetric matrix.

    Eigenvectors are unit-norm with a canonical sign. Residuals
    ||Mv - lambda v|| are checked against tol; nearly equal adjacent
    eigenvalues are flagged with a warning since their eigenvectors are
    only determined up to rotation.
    """
    M = check_weights(M)
    if not (1 <= k <= M.shape[0]):
        raise ValueError(f"need 1 <= k <= n, got k={k}")
    vals, vecs = np.linalg.eigh(M)
    pairs = []
    scale = max(1.0, float(np.abs(vals).max()))
    for idx in range(k):
        v = _canonical_sign(vecs[:, idx])
        resid = float(np.linalg.norm(M @ v - vals[idx] * v))
        if resid > max(tol, tol * scale):
            raise RuntimeError(f"eigenpair {idx} residual {resid:.3e} exceeds tol")
        pairs.append((float(vals[idx]), v))
    close = np.abs(np.diff(vals[: min(k + 1, vals.size)])) <= 1e-9 * scale
    if close.any():
        warnings.warn("degenerate eigenvalue pair among the smallest eigenpairs", stacklevel=2)
    return pairs


def _constant_orthobasis(n: int) -> np.ndarray:
    """Orthonormal basis of the subspace orthogonal to the all-ones vector."""
    w = np.full(n, 1.0 / np.sqrt(n))
    u = w - np.eye(n)[:, 0]
    nu = np.linalg.norm(u)
    if nu < 1e-15:  # n == 1
        return np.zeros((n, 0))
    H = np.eye(n) - 2.0 * np.outer(u, u) / (nu * nu)
    return H[:, 1:]


def _nontrivial_smallest(L: np.ndarray, k: int) -> list[tuple[float, np.ndarray]]:
    """k smallest eigenpairs of L restricted to the complement of the
    all-ones direction (L always annihilates the constant vector)."""
    n = L.shape[0]
    Q = _constant_orthobasis(n)
    if Q.shape[1] == 0:
        return []
    reduced = Q.T @ L @ Q
    reduced = (reduced + reduced.T) / 2.0
    k = min(k, reduced.shape[0])
    with warnings.catch_warnings():
        # degeneracy inside the reduced problem is routine for the inits
        warnings.simplefilter("ignore")
        pairs = smallest_eigenpairs(reduced, k)
    return [(val, _canonical_sign(Q @ u)) for val, u in pairs]


def _is_degenerate(M: np.ndarray) -> bool:
    return float(np.abs(M).max(initial=0.0)) < 1e-12


def init_fiedler(W: np.ndarray) -> np.ndarray:
    """Threshold the smallest non-trivial eigenvector of L = D - W at zero.

    For connected positive-weight graphs this is the classic second-smallest
    (Fiedler) eigenvector; restricting to the complement of the constant
    vector keeps the choice well defined when the null space is degenerate
    (disconnected graphs) or the spectrum dips below zero (signed weights).
    Zeros map to +1.
    """
    L = laplacian(W)
    if _is_degenerate(L):
        warnings.warn("all-zero Laplacian; degenerate spectral guess", stacklevel=2)
        return np.ones(L.shape[0], dtype=np.int8)
    pairs = _nontrivial_smallest(L, 1)
    return _sign_pos(pairs[0][1])


def init_signed_laplacian(W: np.ndarray) -> np.ndarray:
    """Spectral guess from the |W|-degree form Lbar = Dbar - W.

    Lbar is PSD and generally has no zero eigenvalue; the eigenvector of the
    smallest eigenvalue whose sign pattern is non-constant is thresholded,
    falling back to the second-smallest. Zeros map to +1.
    """
    Lbar = laplacian(W, signed=True)
    n = Lbar.shape[0]
    if _is_degenerate(Lbar):
        warnings.warn("all-zero signed Laplacian; degenerate spectral guess", stacklevel=2)
        return np.ones(n, dtype=np.int8)
    scan = min(n, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        pairs = smallest_eigenpairs(Lbar, scan)
    for _, v in pairs:
        bits = _sign_pos(v)
        if not np.all(bits == bits[0]):
            return bits
    return _sign_pos(pairs[min(1, len(pairs) - 1)][1])


def init_random_projection(W: np.ndarray, seed: int) -> np.ndarray:
    """Sign of a Gaussian random combination of the 3 smallest non-trivial
    eigenvectors of L = D - W; with n < 4, uses however many exist."""
    L = laplacian(W)
    n = L.shape[0]
    rng = np.random.default_rng(seed)
    if _is_degenerate(L):
        warnings.warn("all-zero Laplacian; degenerate spectral guess", stacklevel=2)
        return np.ones(n, dtype=np.int8)
    pairs = _nontrivial_smallest(L, min(3, n - 1))
    coeffs = rng.standard_normal(len(pairs))
    mix = np.zeros(n)
    for g, (_, v) in zip(coeffs, pairs):
        mix += g * v
    return _sign_pos(mix)


def exhaustive_maxcut(W: np.ndarray, chunk: int = 1 << 14) -> tuple[np.ndarray, float]:
    """Exact maximizer of b^T W b by enumeration (b[0] fixed to +1 by the
    sign symmetry of the objective). First maximizer in enumeration order
    wins ties. n is capped at EXHAUSTIVE_MAX_N."""
    W = check_weights(W)
    n = W.shape[0]
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"n={n} too large for exhaustive enumeration (cap {EXHAUSTIVE_MAX_N})")
    total = 1 << (n - 1)
    best_val = -np.inf
    best_bits = None
    shifts = np.arange(n - 1, dtype=np.uint64)
    for start in range(0, total, chunk):
        codes = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        tail = ((codes[:, None] >> shifts[None, :]) & 1).astype(np.float64)
        X = np.empty((codes.size, n))
        X[:, 0] = 1.0
        X[:, 1:] = 1.0 - 2.0 * tail  # bit 0 -> +1, bit 1 -> -1
        vals = np.einsum("ij,ij->i", X @ W, X)
        k = int(np.argmax(vals))
        if vals[k] > best_val:
            best_val = float(vals[k])
            best_bits = X[k].astype(np.int8)
    return best_bits, objective(W, best_bits)


INITIALIZERS = {
    "random": lambda W, seed: init_random(W.shape[0], seed),
    "fiedler": lambda W, seed: init_fiedler(W),
    "signed-laplacian": lambda W, seed: init_signed_laplacian(W),
    "random-projection": init_random_projection,
}

UPDATE_SCHEMES = {"bit": bit_update, "vector": vector_update}
