"""Multi-objective machinery: dominance and Pareto extraction, linear
scalarization, and the min-norm common-descent solver: exact and batched
over rows for up to three objectives (closed form on each edge of the
simplex, a 2x2 KKT solve inside it), Frank-Wolfe for four or more.

Pareto extraction uses the sort-based filter metrics.nondominated_mask:
O(n log n) for two objectives, output-sensitive (each point against the
front kept so far) for three or more, and linear memory throughout.

All operations are pure functions and safe for unrestricted parallel use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DesignPoint, ObjectiveVector, ShapeError, SimplexWeights
from .energy import EnergyModel, ObjectiveSet
from .metrics import nondominated_mask, objective_matrix

FW_MAX_ITERS = 500
FW_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class GradientBundle:
    """The m per-objective gradients at one point, stacked as an (m, d) matrix."""

    grads: np.ndarray

    def __post_init__(self):
        grads = np.array(self.grads, dtype=np.float64)
        if grads.ndim != 2 or grads.shape[0] < 1 or grads.shape[1] < 1:
            raise ShapeError(f"gradient bundle must be (m, d) with m, d >= 1, got {grads.shape}")
        if not np.all(np.isfinite(grads)):
            raise ValueError("gradients must be finite")
        grads.setflags(write=False)
        object.__setattr__(self, "grads", grads)

    @property
    def m(self) -> int:
        return self.grads.shape[0]

    @property
    def d(self) -> int:
        return self.grads.shape[1]


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


class ScalarizedEnergy(EnergyModel):
    """Fixed-preference composite: value sum_i lam_i f_i, gradient sum_i lam_i grad f_i."""

    def __init__(self, objectives: ObjectiveSet, weights: SimplexWeights):
        if weights.m != objectives.m:
            raise ShapeError(
                f"weights have m={weights.m}, objective set has m={objectives.m}"
            )
        self.objectives = objectives
        self.weights = weights

    @property
    def d(self) -> int:
        return self.objectives.d

    @property
    def point_kind(self) -> str:
        return self.objectives.point_kind

    def _value_and_gradient(self, coords):
        values, grads = self.objectives.eval_batch(coords[None])
        lam = self.weights.lam
        return float(lam @ values[0]), lam @ grads[0]


def scalarize(objectives: ObjectiveSet, weights: SimplexWeights) -> ScalarizedEnergy:
    """The weighted objective f_lam = sum_i lam_i f_i as a single energy model."""
    return ScalarizedEnergy(objectives, weights)


def min_norm_closed_form(grads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact min-norm solves for m <= 3 objectives, one per row of a stack.

    ``grads`` is (n, m, d), finite. Returns the weights (n, m), directions
    (n, d) and norms (n,). For m = 2, lam_1 = clip(<g2 - g1, g2> /
    ||g1 - g2||^2, 0, 1), and the coincident case g1 == g2 fixes lam at one
    half for determinism; for m = 1 the weight is 1. For m = 3 each row
    takes the least-norm candidate among the three edges (the m = 2 formula)
    and the interior point (see _min_norm_3_weights). Every row is computed
    with row-wise dot products and stacked matrix products, so it is
    bit-identical to solving that row alone.
    """
    n, m, _ = grads.shape
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
    else:
        raise ShapeError(f"the closed form needs m = 1, 2 or 3 objectives, got m={m}")
    direction = (lam[:, None, :] @ grads)[:, 0]
    return lam, direction, np.sqrt(np.vecdot(direction, direction))


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


def min_norm_2(g1, g2) -> MinNormResult:
    """Exact min-norm point of the segment [g1, g2] (see min_norm_closed_form)."""
    g1 = np.asarray(g1, dtype=np.float64)
    g2 = np.asarray(g2, dtype=np.float64)
    if g1.shape != g2.shape or g1.ndim != 1:
        raise ShapeError(f"gradients must be 1-D and equal length, got {g1.shape} vs {g2.shape}")
    return _closed_form_result(np.stack([g1, g2]))


def _closed_form_result(grads: np.ndarray) -> MinNormResult:
    if not np.all(np.isfinite(grads)):
        raise ValueError("gradients must be finite")
    lam, direction, norm = min_norm_closed_form(grads[None])
    return MinNormResult(lam=lam[0], direction=direction[0], norm=float(norm[0]), converged=True, iterations=0)


def min_norm_fw(
    bundle, max_iters: int = FW_MAX_ITERS, tol: float = FW_TOL
) -> MinNormResult:
    """Frank-Wolfe minimization of ||sum_i lam_i g_i||^2 over the simplex.

    Starts from uniform weights. Each iteration picks the vertex with the
    smallest inner product against the current direction and line-searches
    toward it with the exact two-point closed form; when shifting weight off
    an over-weighted vertex is the steeper move, it takes the corresponding
    away step instead (the plain toward-vertex rule zigzags at an O(1/k)
    rate near face optima, far too slow for tight tolerances). Stops, with
    ``converged`` set, only on the duality-gap certificate gap <= tol, which
    bounds the squared norm's excess over the optimum by tol; otherwise it
    runs to max_iters and reports ``converged=False``.
    """
    if isinstance(bundle, GradientBundle):
        grads = bundle.grads
    else:
        grads = np.asarray(bundle, dtype=np.float64)
        if grads.ndim != 2 or grads.shape[0] < 1:
            raise ShapeError(f"gradient bundle must be (m, d), got {grads.shape}")
    m = grads.shape[0]
    if m < 2:
        raise ShapeError("min_norm_fw needs at least two gradients")
    gram = grads @ grads.T
    lam = np.full(m, 1.0 / m)
    inner = gram @ lam
    sq = float(inner @ lam)
    converged = False
    iterations = 0
    for _ in range(max_iters):
        i_to = int(np.argmin(inner))
        # Duality gap for f = ||d||^2 is 2*(||d||^2 - <g_i*, d>); zero at the optimum.
        gap = 2.0 * (sq - float(inner[i_to]))
        if gap <= tol:
            converged = True
            break
        iterations += 1
        support = np.nonzero(lam > 0.0)[0]
        i_away = int(support[np.argmax(inner[support])])
        toward_slope = sq - float(inner[i_to])
        away_slope = float(inner[i_away]) - sq
        if toward_slope >= away_slope:
            # Move toward g_{i_to}: lam <- (1 - gamma) lam + gamma e_{i_to}.
            a = sq - 2.0 * float(inner[i_to]) + float(gram[i_to, i_to])
            gamma = 1.0 if a <= 0.0 else min(1.0, toward_slope / a)
            lam *= 1.0 - gamma
            lam[i_to] += gamma
        else:
            # Shift weight off g_{i_away}: lam <- (1 + gamma) lam - gamma e_{i_away}.
            lam_v = float(lam[i_away])
            gamma_max = lam_v / (1.0 - lam_v) if lam_v < 1.0 else 0.0
            a = sq - 2.0 * float(inner[i_away]) + float(gram[i_away, i_away])
            gamma = gamma_max if a <= 0.0 else min(gamma_max, away_slope / a)
            lam *= 1.0 + gamma
            lam[i_away] -= gamma
            if gamma == gamma_max:
                lam[i_away] = 0.0  # drop step: remove the vertex exactly
            lam = np.maximum(lam, 0.0)
        inner = gram @ lam
        sq = float(inner @ lam)
    direction = lam @ grads
    return MinNormResult(
        lam=lam,
        direction=direction,
        norm=float(np.linalg.norm(direction)),
        converged=converged,
        iterations=iterations,
    )


def solve_min_norm(grads: np.ndarray, max_iters: int = FW_MAX_ITERS, tol: float = FW_TOL) -> MinNormResult:
    """Dispatch on the objective count: the exact closed form for m <= 3,
    Frank-Wolfe beyond. Non-finite gradients raise ValueError."""
    grads = np.asarray(grads, dtype=np.float64)
    if grads.ndim != 2:
        raise ShapeError("expected an (m, d) gradient matrix")
    if grads.shape[0] <= 3:
        return _closed_form_result(grads)
    return min_norm_fw(GradientBundle(grads), max_iters=max_iters, tol=tol)


def mgd_direction(objectives: ObjectiveSet, point: DesignPoint) -> MinNormResult:
    """The common-descent direction at a point: the min-norm element of the
    convex hull of the per-objective gradients."""
    return solve_min_norm(objectives.gradients(point))
