"""Multi-objective machinery: dominance and Pareto extraction, and the
min-norm common-descent solver, exact and batched over rows for up to
MIN_NORM_MAX_M objectives: a closed form on each edge of the simplex and a
2x2 KKT solve inside it for three or fewer, one stacked KKT solve per
support of the weights for four or more. solve_min_norm is its one-row form.

Pareto extraction uses the sort-based filter metrics.nondominated_mask:
O(n log n) for two objectives, output-sensitive (each point against the
front kept so far) for three or more, and linear memory throughout.

All operations are pure functions and safe for unrestricted parallel use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import ConfigError, ObjectiveVector, ShapeError
from .metrics import nondominated_mask, objective_matrix

# Enumerating supports costs 2**m - 1 small solves per row; the paper's
# tasks have two or three objectives.
MIN_NORM_MAX_M = 8


@dataclass(frozen=True, eq=False)
class MinNormResult:
    """Solution of min over simplex weights of ||sum_i lam_i g_i||.

    ``lam`` is the (m,) float64 weight vector on the simplex. ``direction``
    is recomputed from the final weights, so it is always the exact convex
    combination; zero norm signals a (locally) Pareto-stationary point.
    """

    lam: np.ndarray
    direction: np.ndarray
    norm: float
    converged: bool
    iterations: int


def _values(vec) -> np.ndarray:
    if isinstance(vec, ObjectiveVector):
        return vec.values
    arr = np.asarray(vec, dtype=np.float64)
    if arr.ndim != 1:
        raise ShapeError("objective vector must be 1-D")
    return arr


def dominates(a, b) -> bool:
    """Strict-Pareto dominance: a <= b everywhere and a < b somewhere."""
    va, vb = _values(a), _values(b)
    if va.size != vb.size:
        raise ShapeError(f"objective vectors differ in length: {va.size} vs {vb.size}")
    return bool(np.all(va <= vb) and np.any(va < vb))


def pareto_filter(points) -> list[int]:
    """Indices, ascending, of the points not dominated by any other input
    point; ``points`` is an (n, m) array or a sequence of vectors.

    Mutually non-dominating duplicates are all retained.
    """
    if len(points) == 0:
        return []
    return np.flatnonzero(nondominated_mask(objective_matrix(points))).tolist()


def min_norm_closed_form(grads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact min-norm solves for up to MIN_NORM_MAX_M objectives, one per row
    of a stack.

    ``grads`` is (n, m, d), finite. Returns the weights (n, m), directions
    (n, d) and norms (n,). For m = 2, lam_1 = clip(<g2 - g1, g2> /
    ||g1 - g2||^2, 0, 1), and the coincident case g1 == g2 fixes lam at one
    half for determinism; for m = 1 the weight is 1. For m = 3 each row
    takes the least-norm candidate among the three edges (the m = 2 formula)
    and the interior point (see _min_norm_3_weights); for m >= 4 it takes
    the least-norm candidate over every support (see
    _min_norm_enumerated_weights). Every row is computed with row-wise dot
    products and stacked matrix products and solves, so it is bit-identical
    to solving that row alone. More than MIN_NORM_MAX_M objectives raise
    ConfigError.
    """
    n, m, _ = grads.shape
    check_min_norm_m(m)
    if m == 1:
        lam = np.ones((n, 1))
    elif m == 2:
        g1, g2 = grads[:, 0], grads[:, 1]
        diff = g1 - g2
        lam = np.empty((n, 2))
        # -diff is exactly g2 - g1.
        lam[:, 0] = _segment_weight(np.vecdot(-diff, g2), np.vecdot(diff, diff))
        np.subtract(1.0, lam[:, 0], out=lam[:, 1])
    elif m == 3:
        lam = _min_norm_3_weights(grads)
    elif m > 3:
        lam = _min_norm_enumerated_weights(grads)
    else:
        raise ShapeError("the min-norm solve needs at least one gradient")
    direction = (lam[:, None, :] @ grads)[:, 0]
    return lam, direction, np.sqrt(np.vecdot(direction, direction))


def check_min_norm_m(m: int) -> None:
    """Raise ConfigError if the min-norm solve cannot take m objectives."""
    if m > MIN_NORM_MAX_M:
        raise ConfigError(f"the min-norm solve takes at most {MIN_NORM_MAX_M} objectives, got m={m}")


def _segment_weight(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Weight of g1 at the min-norm point of the segment [g1, g2]: clip(num /
    denom, 0, 1) with num = <g2 - g1, g2> and denom = ||g1 - g2||^2, and one
    half where the two coincide (denom == 0)."""
    coincident = denom == 0.0
    q = num / np.where(coincident, 1.0, denom)
    # min(1, max(0, q)) as Python's min/max evaluate it, down to the sign of zero.
    return np.where(coincident, 0.5, np.where(q > 0.0, np.where(q < 1.0, q, 1.0), 0.0))


# Edge k of the triangle joins vertices _EDGE_I[k] < _EDGE_J[k]; its vector is
# e_k = g_j - g_i, in the order (0, 1), (0, 2), (1, 2).
_EDGE_I, _EDGE_J = np.array([0, 0, 1]), np.array([1, 2, 2])
_EDGES = np.arange(3)
# Indexed by the base vertex v0: the other two vertices v1 < v2, the edges
# joining v0 to them and the signs that orient those edges away from v0.
_V1, _V2 = np.array([1, 0, 0]), np.array([2, 2, 1])
_K1, _K2 = np.array([0, 0, 1]), np.array([1, 2, 2])
_S1, _S2 = np.array([1.0, -1.0, -1.0]), np.array([1.0, 1.0, -1.0])


def _min_norm_3_weights(grads: np.ndarray) -> np.ndarray:
    """Min-norm weights over the 2-simplex for each row of an (n, 3, d) stack.

    The optimum lies on an edge or inside. Candidates, in tie order: the
    edges (0, 1), (0, 2), (1, 2), each by the m = 2 closed form, then the
    stationary point of ||v0 + a (v1 - v0) + b (v2 - v0)||^2, a 2x2 linear
    KKT system solved by Cramer's rule and kept only where its determinant is
    positive and all three weights are non-negative. The base v0 is the
    gradient opposite the longest edge: its angle is at least 60 degrees, so
    the determinant never cancels badly on a thin triangle. Each row takes
    the candidate of least norm, the first one on a tie. All inner products
    are taken on the edge vectors, never as differences of Gram entries.
    """
    n = grads.shape[0]
    rows = np.arange(n)
    E = np.empty_like(grads)
    np.subtract(grads[:, 1:], grads[:, :1], out=E[:, :2])
    np.subtract(grads[:, 2], grads[:, 1], out=E[:, 2])
    EE = np.vecdot(E[:, :, None], E[:, None])  # (n, 3, 3): e_k . e_l
    EG = np.vecdot(E[:, :, None], grads[:, None])  # (n, 3, 3): e_k . g_j
    lengths = EE[:, _EDGES, _EDGES]

    candidates = np.zeros((n, 4, 3))
    t = _segment_weight(EG[:, _EDGES, _EDGE_J], lengths)
    candidates[:, _EDGES, _EDGE_I] = t
    candidates[:, _EDGES, _EDGE_J] = 1.0 - t

    base = 2 - np.argmax(lengths, axis=1)
    k1, k2, s1, s2 = _K1[base], _K2[base], _S1[base], _S2[base]
    a11, a22 = lengths[rows, k1], lengths[rows, k2]
    a12 = s1 * s2 * EE[rows, k1, k2]
    r1, r2 = -s1 * EG[rows, k1, base], -s2 * EG[rows, k2, base]
    det = a11 * a22 - a12 * a12
    solvable = det > 0.0
    det = np.where(solvable, det, 1.0)
    a = (r1 * a22 - r2 * a12) / det
    b = (a11 * r2 - a12 * r1) / det
    inner = candidates[:, 3]
    inner[rows, base] = 1.0 - a - b
    inner[rows, _V1[base]] = a
    inner[rows, _V2[base]] = b

    # One candidate at a time: an (n, 4, d) stack of directions would raise
    # the peak memory of a sampling batch by its size.
    sq = np.empty((n, 4))
    for k in range(4):
        direction = (candidates[:, k : k + 1] @ grads)[:, 0]
        sq[:, k] = np.vecdot(direction, direction)
    sq[:, 3] = np.where(solvable & np.all(inner >= 0.0, axis=1), sq[:, 3], np.inf)
    return candidates[rows, np.argmin(sq, axis=1)]


def _min_norm_enumerated_weights(grads: np.ndarray) -> np.ndarray:
    """Min-norm weights over the simplex for each row of an (n, m, d) stack,
    by enumerating the supports S of the weights.

    On each S the candidate is the stationary point of ||g_b + sum_j mu_j
    (g_j - g_b)||^2 over j in S without b, whose weights are 1 - sum(mu) on
    g_b and mu on the rest. The base b is the least-norm gradient of S (the
    first on a tie): against exact rational arithmetic on random bundles at
    scales 1e±3 its norms were off by at most 1e-17 of the largest entry,
    where the first member of S as base was off by up to 4e-13. The matrix
    is the Gram matrix of the edge vectors g_j - g_b, and all inner products
    are taken on the edge vectors, never as differences of Gram entries. A
    candidate counts only where that matrix has a positive determinant and
    its weights are all non-negative. Each row takes the candidate of least
    norm, recomputed from its weights, in the order of support size and then
    lexicographic order, the first one on a tie. The optimum always has an
    affinely independent support, so it is among the candidates.
    """
    n, m, _ = grads.shape
    # EE[:, b, j, l] = e_bj . e_bl and EG[:, b, j] = e_bj . g_b, e_bj = g_j - g_b.
    EE, EG = np.empty((n, m, m, m)), np.empty((n, m, m))
    for b in range(m):
        E = grads - grads[:, b : b + 1]
        EE[:, b] = np.vecdot(E[:, :, None], E[:, None])
        EG[:, b] = np.vecdot(E, grads[:, b : b + 1])
    sq_norms = np.vecdot(grads, grads)
    best, best_sq = np.zeros((n, m)), np.full(n, np.inf)
    row = np.arange(n)[:, None, None]
    for k in range(1, m + 1):
        supports = np.array(list(combinations(range(m), k)))  # (C, k), lexicographic
        col = np.arange(len(supports))
        # others[c, p]: support c without its p-th member.
        drop = np.array([[j for j in range(k) if j != p] for p in range(k)], dtype=np.intp).reshape(k, k - 1)
        others = supports[:, drop]
        at = np.argmin(sq_norms[:, supports], axis=2)  # (n, C): position of the base
        base, edges = supports[col, at], others[col, at]
        A = EE[row[..., None], base[..., None, None], edges[..., :, None], edges[..., None, :]]
        solvable = np.linalg.slogdet(A)[0] > 0.0
        A[~solvable] = np.eye(k - 1)
        mu = np.linalg.solve(A, -EG[row, base[..., None], edges][..., None])[..., 0]
        lam = np.zeros((n, col.size, m))
        lam[row[..., 0], col, base] = 1.0 - mu.sum(axis=2)
        lam[row, col[:, None], edges] = mu
        valid = solvable & np.all(lam >= 0.0, axis=2)
        # One candidate at a time: an (n, C, d) stack of directions would
        # raise the peak memory of a sampling batch by C times its state.
        # Rows where the candidate is invalid get zero weights, so an
        # ill-posed solve cannot overflow the product.
        for c in np.flatnonzero(valid.any(axis=0)).tolist():
            weights = np.where(valid[:, c, None], lam[:, c], 0.0)
            direction = (weights[:, None, :] @ grads)[:, 0]
            sq = np.where(valid[:, c], np.vecdot(direction, direction), np.inf)
            better = sq < best_sq
            best[better], best_sq[better] = weights[better], sq[better]
    return best


def solve_min_norm(grads: np.ndarray) -> MinNormResult:
    """The exact min-norm point for one (m, d) gradient matrix, m <= MIN_NORM_MAX_M:
    min_norm_closed_form on a stack of one row. Non-finite gradients raise ValueError."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise ShapeError("expected an (m, d) gradient matrix")
    if not np.all(np.isfinite(grads)):
        raise ValueError("gradients must be finite")
    lam, direction, norm = min_norm_closed_form(grads[None])
    return MinNormResult(lam=lam[0], direction=direction[0], norm=float(norm[0]), converged=True, iterations=0)
