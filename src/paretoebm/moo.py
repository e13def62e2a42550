"""Multi-objective machinery: Pareto extraction, and the min-norm
common-descent solver, exact and batched over rows for up to
MIN_NORM_MAX_M objectives. One solve serves every m: it takes each row's
inner products once, on the edges from a pivot gradient, then enumerates
the supports of the weights on those alone (the segment formula on each
pair, one stacked KKT solve per larger support). solve_min_norm is its
one-row form.

Objective values are one (n, m) float array of n points. Pareto extraction
uses the sort-based filter metrics.nondominated_mask, the one definition of
dominance: O(n log n) for two objectives, output-sensitive (each point
against the front kept so far) for three or more, and linear memory
throughout.

All operations are pure functions and safe for unrestricted parallel use.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import ConfigError, ShapeError
from .metrics import nondominated_mask, objective_matrix

# Enumerating supports costs one small solve per support of three or more
# weights, about 2**m per row; the paper's tasks have two or three objectives.
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


def pareto_filter(points) -> list[int]:
    """Indices, ascending, of the rows of the (n, m) objective array
    ``points`` that no other row dominates (metrics.nondominated_mask).

    Mutually non-dominating duplicates are all retained.
    """
    if len(points) == 0:
        return []
    return np.flatnonzero(nondominated_mask(objective_matrix(points))).tolist()


def min_norm_closed_form(grads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact min-norm solves for up to MIN_NORM_MAX_M objectives, one per row
    of a stack.

    ``grads`` is (n, m, d), finite. Returns the weights (n, m), directions
    (n, d) and norms (n,). For m = 1 the weight is 1. Every m >= 2 takes one
    routine (_min_norm_weights): the row's inner products are taken once,
    and the least-norm candidate over the pairs and larger supports of the
    weights wins. At m = 2 that is lam_1 = clip(<g2 - g1, g2> / ||g1 -
    g2||^2, 0, 1), with lam at one half where g1 == g2 for determinism. The
    direction is recomputed from the weights. Every row is computed with
    row-wise dot products and stacked matrix products and solves, so it is
    bit-identical to solving that row alone. More than MIN_NORM_MAX_M
    objectives raise ConfigError.
    """
    n, m, _ = grads.shape
    check_min_norm_m(m)
    if m == 0:
        raise ShapeError("the min-norm solve needs at least one gradient")
    lam = np.ones((n, 1)) if m == 1 else _min_norm_weights(grads)
    direction = (lam[:, None, :] @ grads)[:, 0]
    return lam, direction, np.sqrt(np.vecdot(direction, direction))


def check_min_norm_m(m: int) -> None:
    """Raise ConfigError if the min-norm solve cannot take m objectives."""
    if m > MIN_NORM_MAX_M:
        raise ConfigError(f"the min-norm solve takes at most {MIN_NORM_MAX_M} objectives, got m={m}")


def _segment_weight(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """Weight of g_i at the min-norm point of the segment [g_i, g_j]: clip(num
    / denom, 0, 1) with num = <g_j - g_i, g_j> and denom = ||g_i - g_j||^2,
    and one half where the two coincide (denom == 0)."""
    coincident = denom == 0.0
    q = num / np.where(coincident, 1.0, denom)
    # min(1, max(0, q)) as Python's min/max evaluate it, down to the sign of zero.
    return np.where(coincident, 0.5, np.where(q > 0.0, np.where(q < 1.0, q, 1.0), 0.0))


# The supports of m >= 3 weights with k >= 2 members, lexicographic, as
# (C, k) arrays: _SUPPORTS[m][k - 2].
_SUPPORTS = {
    m: [np.array(list(combinations(range(m), k))) for k in range(2, m + 1)] for m in range(3, MIN_NORM_MAX_M + 1)
}


def _min_norm_weights(grads: np.ndarray) -> np.ndarray:
    """Min-norm weights over the simplex for each row of an (n, m, d) stack,
    m >= 2, from inner products taken once per row.

    Every inner product is taken on the edges e_j = g_j - g_b to a pivot g_b,
    the least-norm gradient (the first on a tie), never as a difference of
    the gradients' own Gram entries, which cancels when gradients nearly
    coincide: K = e e^T (n, m, m) and h = e g_b (n, m). The squared norm of
    sum_j lam_j g_j is ||g_b||^2 + 2 lam.h + lam^T K lam, and no step after
    K and h depends on d.

    Candidates, in tie order: each pair (i, j) by the segment formula with
    num = (K_jj - K_ij) + (h_j - h_i) and denom = (K_ii - K_ij) + (K_jj -
    K_ij), clipped, so the vertices are covered; then each support of three
    or more, by size and then lexicographic order. On a support its base s
    is the least-norm member, and the candidate is the stationary point of
    ||g_s + sum_j mu_j (g_j - g_s)||^2, whose weights are 1 - sum(mu) on g_s
    and mu on the rest. It counts only where the matrix of that system has a
    positive determinant and its weights are all non-negative. Each row
    takes the candidate of least 2 lam.h + lam^T K lam, the first one on a
    tie. The optimum always has an affinely independent support, so it is
    among the candidates.

    At m = 2 the pivot is g2, which forms the one edge g1 - g2 exactly: K
    and h are zero but for K_11 = ||g1 - g2||^2 and h_1 = <g1 - g2, g2>, so
    the one pair has num = -h_1 and denom = K_11, and nothing is ranked.
    """
    n, m, _ = grads.shape
    if m == 2:
        edge = grads[:, 0] - grads[:, 1]
        lam = np.empty((n, 2))
        lam[:, 0] = _segment_weight(-np.vecdot(edge, grads[:, 1]), np.vecdot(edge, edge))
        np.subtract(1.0, lam[:, 0], out=lam[:, 1])
        return lam
    row = np.arange(n)[:, None]
    sq_norms = np.vecdot(grads, grads)
    pivot = grads[row, np.argmin(sq_norms, axis=1, keepdims=True)]
    E = grads - pivot
    K, h = np.vecdot(E[:, :, None], E[:, None]), np.vecdot(E, pivot)

    i, j = _SUPPORTS[m][0].T
    Kij, Kjj = K[:, i, j], K[:, j, j]
    t = _segment_weight((Kjj - Kij) + (h[:, j] - h[:, i]), (K[:, i, i] - Kij) + (Kjj - Kij))
    pairs = np.arange(i.size)
    lam = np.zeros((n, i.size, m))
    lam[:, pairs, i] = t
    lam[:, pairs, j] = 1.0 - t
    values = np.vecdot(lam, lam @ K + 2.0 * h[:, None])
    at = np.argmin(values, axis=1)
    best, best_value = lam[row[:, 0], at], values[row[:, 0], at]

    for supports in _SUPPORTS[m][1:]:
        k = supports.shape[1]
        col = np.arange(len(supports))
        # others[c, p]: support c without its p-th member.
        drop = np.array([[q for q in range(k) if q != p] for p in range(k)])
        at = np.argmin(sq_norms[:, supports], axis=2)  # (n, C): position of the base
        base, others = supports[col, at], supports[:, drop][col, at]
        Kss = K[row, base, base]
        Kos = K[row[..., None], others, base[..., None]]
        A = (K[row[..., None, None], others[..., :, None], others[..., None, :]] - Kos[..., :, None]) - (
            Kos[..., None, :] - Kss[..., None, None]
        )
        r = (Kos - Kss[..., None]) + (h[row[..., None], others] - h[row, base][..., None])
        solvable = np.linalg.slogdet(A)[0] > 0.0
        A[~solvable] = np.eye(k - 1)
        mu = np.linalg.solve(A, -r[..., None])[..., 0]
        lam = np.zeros((n, col.size, m))
        lam[row[..., None], col[:, None], others] = mu
        lam[row, col, base] = 1.0 - mu.sum(axis=2)
        valid = solvable & np.all(lam >= 0.0, axis=2)
        # An invalid candidate gets zero weights, so an ill-posed solve cannot
        # overflow its value.
        lam[~valid] = 0.0
        values = np.where(valid, np.vecdot(lam, lam @ K + 2.0 * h[:, None]), np.inf)
        at = np.argmin(values, axis=1)
        better = values[row[:, 0], at] < best_value
        best[better], best_value[better] = lam[better, at[better]], values[better, at[better]]
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
    return MinNormResult(lam=lam[0], direction=direction[0], norm=float(norm[0]))
