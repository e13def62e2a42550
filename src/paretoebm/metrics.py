"""Evaluation suite: the non-dominated filter, hypervolume (exact up to
three objectives, Monte-Carlo beyond), min-max normalization onto the
unit box, Levenshtein edit distance, and convergence-trace statistics.
Objective values are one (n, m) float array of n points; a hypervolume
reference point is one (m,) array, and normalization bounds are two.

The non-dominated filter sorts the points lexicographically and scans them
once: O(n log n) for two objectives, and for three or more each point is
tested only against the front kept so far (output-sensitive, O(n h) for a
front of h points). Memory stays linear in the number of points. Edit
distances run Myers' bit-vector algorithm over all pairs of a sample length
and a set-member length at once.

All operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DiscreteSequence, ShapeError, Trajectory

# Size of the temporaries of one block of Monte-Carlo hypervolume samples.
_MC_BLOCK_BYTES = 16 << 20
# Words of one bit-vector edit-distance state array; more pairs run in chunks.
_EDIT_BLOCK_WORDS = 1 << 16


def objective_matrix(points) -> np.ndarray:
    """The points as an (n, m) float64 array, uncopied where they already are
    one; anything else that is not 2-D is a ShapeError."""
    V = np.asarray(points, dtype=np.float64)
    if V.ndim != 2:
        raise ShapeError(f"points must be an (n, m) matrix, got shape {V.shape}")
    return V


def normalize(V, lo, hi) -> np.ndarray:
    """The rows of an (n, m) array mapped per objective from [lo, hi] onto
    [0, 1] and clipped there; an objective whose bounds coincide maps to 0.5."""
    V = objective_matrix(V)
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    if V.shape[1:] != lo.shape:
        raise ShapeError(f"points have m={V.shape[1]}, bounds have shape {lo.shape}")
    degenerate = hi == lo
    out = np.clip((V - lo) / np.where(degenerate, 1.0, hi - lo), 0.0, 1.0)
    out[:, degenerate] = 0.5
    return out


def _reference(reference) -> np.ndarray:
    """The upper corner of the hypervolume box as a non-empty, finite (m,) array."""
    r = np.asarray(reference, dtype=np.float64)
    if r.ndim != 1 or r.size == 0:
        raise ShapeError("reference point must be a non-empty vector")
    if not np.all(np.isfinite(r)):
        raise ValueError("reference point must be finite")
    return r


def nondominated_mask(V: np.ndarray) -> np.ndarray:
    """Boolean (n,) mask of the rows of V (n, m) that no other row dominates
    (<= everywhere and < somewhere); equal rows are all kept.

    A row holding a NaN is kept and dominates nothing, as elementwise
    comparisons with NaN are false. The other rows are sorted
    lexicographically (first objective as the primary key), so a row can
    only be dominated by one before it. For m = 2 one vectorized scan
    compares each row with the least f1 over rows of strictly smaller f0 and
    of equal f0; for m >= 3 each row is tested against the front kept so
    far, which suffices because dominance is transitive.
    """
    n, m = V.shape
    keep = np.ones(n, dtype=bool)
    rows = np.flatnonzero(~np.isnan(V).any(axis=1))
    if rows.size == 0 or m == 0:
        return keep
    W = V[rows]
    if m == 1:
        keep[rows] = W[:, 0] == W[:, 0].min()
        return keep
    order = np.lexsort(W.T[::-1])
    S = W[order]
    if m == 2:
        xs, ys = S[:, 0], S[:, 1]
        starts = np.empty(xs.size, dtype=bool)
        starts[0] = True
        np.not_equal(xs[1:], xs[:-1], out=starts[1:])
        group = np.cumsum(starts) - 1
        # The lexsort puts each group's least f1 first.
        group_min = ys[starts]
        # Least f1 over the groups before each group; NaN (compares false) for the first.
        before = np.empty_like(group_min)
        before[0] = np.nan
        np.minimum.accumulate(group_min[:-1], out=before[1:])
        dominated = (ys > group_min[group]) | (before[group] <= ys)
    else:
        dominated = np.zeros(S.shape[0], dtype=bool)
        front = np.empty_like(S)
        size = 0
        for i, row in enumerate(S):
            F = front[:size]
            if np.any(np.all(F <= row, axis=1) & np.any(F < row, axis=1)):
                dominated[i] = True
            else:
                front[size] = row
                size += 1
    keep[rows[order[dominated]]] = False
    return keep


def _hv_2d(V: np.ndarray, r1: float, r2: float) -> float:
    # Points must already be clipped to the reference. Sweep vertical strips
    # between consecutive f1 values; each strip is covered up from the
    # running minimum of f2 over all points to its left.
    order = np.lexsort((V[:, 1], V[:, 0]))
    xs = V[order, 0]
    ys = V[order, 1]
    n = xs.size
    total = 0.0
    ymin = r2
    i = 0
    while i < n:
        x = xs[i]
        if x >= r1:
            break
        # The lexsort puts the lowest f2 at this f1 first.
        ymin = min(ymin, ys[i])
        j = i + 1
        while j < n and xs[j] == x:
            j += 1
        next_x = xs[j] if j < n else r1
        if ymin < r2:
            total += (min(next_x, r1) - x) * (r2 - ymin)
        i = j
    return total


def hypervolume_exact(points, reference) -> float:
    """Lebesgue measure of the union over points p of the boxes [p, r].

    ``points`` is an (n, m) objective array and ``reference`` the (m,)
    point r. Exact for one to three objectives; dominated or duplicate
    points add nothing. Points beyond the reference are clipped onto it and
    contribute zero volume.
    """
    r = _reference(reference)
    m = r.size
    if m > 3:
        raise ShapeError("exact hypervolume supports m <= 3; use hypervolume_mc")
    if len(points) == 0:
        return 0.0
    V = objective_matrix(points)
    if V.shape[1] != m:
        raise ShapeError(f"points have m={V.shape[1]}, reference has m={m}")
    V = np.minimum(V, r)
    # Keep only the non-dominated points so the sweep decomposition is
    # canonical: removing a dominated input then changes nothing, not even
    # the floating-point summation order.
    V = V[nondominated_mask(V)]
    if m == 1:
        return float(r[0] - V[:, 0].min())
    if m == 2:
        return float(_hv_2d(V, r[0], r[1]))
    zs = np.unique(V[:, 2])
    total = 0.0
    for i, z in enumerate(zs):
        z_next = zs[i + 1] if i + 1 < zs.size else r[2]
        if z_next <= z:
            continue
        layer = V[V[:, 2] <= z][:, :2]
        total += (z_next - z) * _hv_2d(layer, r[0], r[1])
    return float(total)


def hypervolume_mc(
    points,
    reference,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo hypervolume of an (n, m) objective array against the
    (m,) reference r, for any m: uniform samples in the bounding box
    [component-wise min, r]; returns (estimate, standard error).

    Only the non-dominated points are tested against the samples, which are
    drawn in blocks sized so that one block's temporaries take about
    _MC_BLOCK_BYTES; neither changes the hits or the random stream."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    r = _reference(reference)
    if len(points) == 0:
        return 0.0, 0.0
    V = objective_matrix(points)
    if V.shape[1] != r.size:
        raise ShapeError(f"points have m={V.shape[1]}, reference has m={r.size}")
    V = np.minimum(V, r)
    V = V[nondominated_mask(V)]
    lo = V.min(axis=0)
    span = r - lo
    volume = float(np.prod(span))
    if volume <= 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    n, m = V.shape
    # Bytes per sample: the (n, m) comparison, its (n,) reduction and the sample itself.
    batch = max(1, _MC_BLOCK_BYTES // (n * m + n + 8 * m))
    while remaining > 0:
        k = min(batch, remaining)
        q = lo + span * rng.random((k, r.size))
        hits += int(np.any(np.all(V[None, :, :] <= q[:, None, :], axis=-1), axis=-1).sum())
        remaining -= k
    frac = hits / samples
    estimate = volume * frac
    stderr = volume * float(np.sqrt(frac * (1.0 - frac) / samples))
    return estimate, stderr


def _tokens(seq) -> np.ndarray:
    if isinstance(seq, DiscreteSequence):
        return seq.tokens
    if isinstance(seq, str):
        return np.frombuffer(seq.encode("utf-32-le"), dtype=np.uint32).astype(np.int64)
    return np.asarray(seq, dtype=np.int64).reshape(-1)


def edit_distance(a, b) -> int:
    """Levenshtein distance (insertions, deletions, substitutions); accepts
    sequences, token arrays, or strings."""
    return int(_edit_pairs(_tokens(a)[None], _tokens(b)[None])[0, 0])


def _edit_pairs(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Edit distances between every row of the (p, m) token matrix A and
    every row of the (k, n) token matrix B, as a (p, k) int64 matrix.

    Myers' bit-vector algorithm (JACM 1999) in Hyyrö's multi-word form
    (2003): a row of A is the pattern, one bit per position in ceil(m / 64)
    uint64 words, and each column of B advances the vertical delta vectors
    of all p * k pairs by a few word operations; a word's horizontal delta
    at its top row carries into the next word. The tokens map to dense ids
    of A's symbols first (a symbol A lacks matches nothing), so the match
    masks have one entry per symbol of A, whatever the code points.
    """
    p, m = A.shape
    k, n = B.shape
    if m == 0 or n == 0:
        return np.full((p, k), m + n, dtype=np.int64)
    words = -(-m // 64)
    chunk = max(1, _EDIT_BLOCK_WORDS // (p * words))
    if k > chunk:
        return np.concatenate([_edit_pairs(A, B[t : t + chunk]) for t in range(0, k, chunk)], axis=1)
    symbols, a_ids = np.unique(A, return_inverse=True)
    b_ids = np.searchsorted(symbols, B)
    b_ids[symbols[np.minimum(b_ids, symbols.size - 1)] != B] = symbols.size
    pos = np.arange(m)
    # peq[w, c, i]: bit j of word w set where A[i, 64 w + j] has symbol c.
    peq = np.zeros((words, symbols.size + 1, p), dtype=np.uint64)
    np.bitwise_or.at(
        peq, (pos // 64, a_ids.reshape(p, m), np.arange(p)[:, None]), np.uint64(1) << (pos % 64).astype(np.uint64)
    )
    one = np.uint64(1)
    # Bit of each word's last row: its horizontal delta carries into the next
    # word, and the last word's into the score D[m, j].
    top = [np.uint64(63)] * (words - 1) + [np.uint64((m - 1) % 64)]
    # Pairs are laid out (k, p): row t of B against row i of A.
    Pv = np.full((words, k, p), ~np.uint64(0))
    Mv = np.zeros((words, k, p), dtype=np.uint64)
    score = np.full((k, p), m, dtype=np.uint64)
    for j in range(n):
        eq_col = peq[:, b_ids[:, j]]
        for w in range(words):
            pv, mv, eq = Pv[w], Mv[w], eq_col[w]
            xv = eq | mv
            if w:
                eq |= h_minus
            xh = (((eq & pv) + pv) ^ pv) | eq
            ph = mv | ~(xh | pv)
            mh = pv & xh
            plus, minus = ph >> top[w] & one, mh >> top[w] & one
            ph <<= one
            mh <<= one
            if w:
                ph |= h_plus
                mh |= h_minus
            else:
                # Row 0 of the table is 0, 1, ..., n: each column adds one.
                ph |= one
            h_plus, h_minus = plus, minus
            np.bitwise_or(mh, ~(xv | ph), out=pv)
            np.bitwise_and(ph, xv, out=mv)
        # A distance never drops below 0, so the unsigned score cannot wrap.
        score += h_plus
        score -= h_minus
    return score.T.astype(np.int64)


def _length_groups(sequences: Sequence) -> list[tuple[np.ndarray, np.ndarray]]:
    """The sequences grouped by length: (indices, (k, length) tokens) per length."""
    tokens = [_tokens(t) for t in sequences]
    lengths = np.array([t.size for t in tokens], dtype=np.int64)
    groups = []
    for length in np.unique(lengths):
        idx = np.flatnonzero(lengths == length)
        B = np.stack([tokens[i] for i in idx]) if length else np.empty((idx.size, 0), dtype=np.int64)
        groups.append((idx, B))
    return groups


def edit_distance_matrix(rows: Sequence, cols: Sequence) -> np.ndarray:
    """Edit distances from every sequence of ``rows`` to every sequence of
    ``cols``, as a (len(rows), len(cols)) int64 matrix: one bit-vector pass
    per (row length, column length)."""
    out = np.empty((len(rows), len(cols)), dtype=np.int64)
    col_groups = _length_groups(cols)
    for row_idx, A in _length_groups(rows):
        for col_idx, B in col_groups:
            out[np.ix_(row_idx, col_idx)] = _edit_pairs(A, B)
    return out


def summarize_edist(samples: Sequence, training: Sequence) -> tuple[float, float]:
    """Mean and population standard deviation of per-sample min edit distance."""
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    if len(training) == 0:
        raise ValueError("training set must be non-empty")
    dists = edit_distance_matrix(samples, training).min(axis=1).astype(np.float64)
    return float(dists.mean()), float(dists.std())


@dataclass(frozen=True, eq=False)
class ConvergenceStats:
    """Recorded per-objective series plus, for each objective, the first
    recorded step after which the series stays within eps * |final| of its
    final value (eps = 0 therefore gives the step of the last change)."""

    steps: np.ndarray
    values: np.ndarray
    steps_to_eps: tuple[int, ...]
    eps: float


def convergence_stats(trajectory: Trajectory, eps: float = 0.05) -> ConvergenceStats:
    if eps < 0:
        raise ValueError("eps must be >= 0")
    steps = trajectory.steps
    values = trajectory.F
    settled = []
    for j in range(values.shape[1]):
        series = values[:, j]
        final = series[-1]
        ok = np.abs(series - final) <= eps * abs(final)
        bad = np.nonzero(~ok)[0]
        settled.append(int(steps[bad[-1] + 1]) if bad.size else int(steps[0]))
    return ConvergenceStats(steps=steps, values=values, steps_to_eps=tuple(settled), eps=eps)
