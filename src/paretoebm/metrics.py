"""Evaluation suite: hypervolume (exact up to three objectives, Monte-Carlo
beyond), min-max score normalization, Levenshtein edit distance, and
convergence-trace statistics.

All operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import DiscreteSequence, ObjectiveVector, ShapeError, Trajectory


@dataclass(frozen=True, eq=False)
class ReferencePoint:
    """Upper corner of the hypervolume box; defaults to all ones."""

    r: np.ndarray

    def __post_init__(self):
        r = np.array(self.r, dtype=np.float64)
        if r.ndim != 1 or r.size == 0:
            raise ShapeError("reference point must be a non-empty vector")
        if not np.all(np.isfinite(r)):
            raise ValueError("reference point must be finite")
        r.setflags(write=False)
        object.__setattr__(self, "r", r)

    @property
    def m(self) -> int:
        return int(self.r.size)


def unit_reference(m: int) -> ReferencePoint:
    return ReferencePoint(np.ones(m))


@dataclass(frozen=True, eq=False)
class NormalizationMap:
    """Per-objective (min, max) bounds from a reference population.

    Objectives whose bounds coincide are flagged degenerate and map to 0.5.
    """

    mins: np.ndarray
    maxs: np.ndarray

    def __post_init__(self):
        mins = np.array(self.mins, dtype=np.float64)
        maxs = np.array(self.maxs, dtype=np.float64)
        if mins.shape != maxs.shape or mins.ndim != 1 or mins.size == 0:
            raise ShapeError("normalization bounds must be equal-length 1-D vectors")
        if np.any(maxs < mins):
            raise ValueError("max bound below min bound")
        mins.setflags(write=False)
        maxs.setflags(write=False)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "maxs", maxs)

    @property
    def m(self) -> int:
        return int(self.mins.size)

    @property
    def degenerate(self) -> np.ndarray:
        return self.maxs == self.mins

    @classmethod
    def fit(cls, points: Sequence[ObjectiveVector]) -> "NormalizationMap":
        if len(points) == 0:
            raise ValueError("cannot fit normalization bounds to an empty population")
        V = _as_matrix(points)
        return cls(V.min(axis=0), V.max(axis=0))

    def apply_raw(self, V: np.ndarray) -> np.ndarray:
        if V.shape[1] != self.m:
            raise ShapeError(f"points have m={V.shape[1]}, map has m={self.m}")
        span = np.where(self.degenerate, 1.0, self.maxs - self.mins)
        out = np.clip((V - self.mins) / span, 0.0, 1.0)
        out[:, self.degenerate] = 0.5
        return out


def _as_matrix(points: Sequence) -> np.ndarray:
    vals = [p.values if isinstance(p, ObjectiveVector) else np.asarray(p, dtype=np.float64) for p in points]
    if not vals:
        raise ValueError("empty point list")
    m = vals[0].size
    if any(v.size != m for v in vals):
        raise ShapeError("all objective vectors must share one length")
    return np.stack(vals).astype(np.float64)


def normalize(points: Sequence[ObjectiveVector], nmap: NormalizationMap) -> list[ObjectiveVector]:
    """Map each objective to clip((v - min) / (max - min), 0, 1)."""
    if len(points) == 0:
        return []
    V = nmap.apply_raw(_as_matrix(points))
    return [ObjectiveVector(row) for row in V]


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


def hypervolume_exact(points: Sequence, reference: ReferencePoint) -> float:
    """Lebesgue measure of the union over points p of the boxes [p, r].

    Exact for one to three objectives; dominated or duplicate points add
    nothing. Points beyond the reference are clipped onto it and contribute
    zero volume.
    """
    r = reference.r
    m = r.size
    if m > 3:
        raise ShapeError("exact hypervolume supports m <= 3; use hypervolume_mc")
    if len(points) == 0:
        return 0.0
    V = _as_matrix(points)
    if V.shape[1] != m:
        raise ShapeError(f"points have m={V.shape[1]}, reference has m={m}")
    V = np.minimum(V, r)
    # Keep only the non-dominated points so the sweep decomposition is
    # canonical: removing a dominated input then changes nothing, not even
    # the floating-point summation order.
    le = np.all(V[:, None, :] <= V[None, :, :], axis=-1)
    lt = np.any(V[:, None, :] < V[None, :, :], axis=-1)
    V = V[~np.any(le & lt, axis=0)]
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
    points: Sequence,
    reference: ReferencePoint,
    samples: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte-Carlo hypervolume for any m: uniform samples in the bounding box
    [component-wise min, r]; returns (estimate, standard error)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    r = reference.r
    if len(points) == 0:
        return 0.0, 0.0
    V = _as_matrix(points)
    if V.shape[1] != r.size:
        raise ShapeError(f"points have m={V.shape[1]}, reference has m={r.size}")
    V = np.minimum(V, r)
    lo = V.min(axis=0)
    span = r - lo
    volume = float(np.prod(span))
    if volume <= 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    hits = 0
    remaining = samples
    batch = 65536
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
    """Levenshtein distance (insertions, deletions, substitutions) via full
    dynamic programming; accepts sequences, token arrays, or strings."""
    ta, tb = _tokens(a), _tokens(b)
    if ta.size == 0:
        return int(tb.size)
    if tb.size == 0:
        return int(ta.size)
    n = tb.size
    arange = np.arange(n + 1, dtype=np.int64)
    prev = arange.copy()
    row = np.empty(n + 1, dtype=np.int64)
    for i in range(1, ta.size + 1):
        row[0] = i
        np.minimum(prev[:-1] + (tb != ta[i - 1]), prev[1:] + 1, out=row[1:])
        # Insertions propagate left to right: row[j] = min_{k<=j} row[k] + (j-k).
        np.subtract(row, arange, out=row)
        np.minimum.accumulate(row, out=row)
        np.add(row, arange, out=row)
        prev, row = row, prev
    return int(prev[-1])


def min_edit_to_set(x, training: Sequence) -> tuple[int, int]:
    """Minimum edit distance from x to a non-empty set; ties take the lowest index."""
    if len(training) == 0:
        raise ValueError("training set must be non-empty")
    best = None
    best_idx = -1
    for i, other in enumerate(training):
        dist = edit_distance(x, other)
        if best is None or dist < best:
            best, best_idx = dist, i
    return best, best_idx


def summarize_edist(samples: Sequence, training: Sequence) -> tuple[float, float]:
    """Mean and population standard deviation of per-sample min edit distance."""
    if len(samples) == 0:
        raise ValueError("samples must be non-empty")
    dists = np.array([min_edit_to_set(s, training)[0] for s in samples], dtype=np.float64)
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
