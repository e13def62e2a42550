"""Shared domain types: design points, discrete sequences, simplex weights,
sampler configuration, and chain trajectories.

All types are immutable value objects after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

AMINO_ALPHABET = "ACDEFGHIKLMNPQRSTVWY"

RAW = "raw"
SEQUENCE_LOGITS = "sequence-logits"

NOISE_GAUSSIAN = "gaussian"
NOISE_UNIFORM = "uniform"
NOISE_NONE = "none"
NOISE_KINDS = (NOISE_GAUSSIAN, NOISE_UNIFORM, NOISE_NONE)

SIMPLEX_TOL = 1e-9


class ParetoEbmError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSequenceError(ParetoEbmError):
    """A discrete sequence (or its textual form) is malformed."""


class WrongKindError(ParetoEbmError):
    """An operation received a point of the wrong kind (raw vs sequence)."""


class InvalidSimplexError(ParetoEbmError):
    """Weights violate the probability-simplex constraints."""


class ShapeError(ParetoEbmError):
    """Dimension mismatch between points, models, or vectors."""


class ModelFormatError(ParetoEbmError):
    """A model file is corrupt, truncated, or has an unsupported version."""


class ConfigError(ParetoEbmError):
    """An experiment or training configuration is invalid."""


def _readonly(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class DesignPoint:
    """A point in the continuous search space.

    ``raw`` points are plain real vectors; ``sequence-logits`` points hold
    L x A per-position logits laid out row-major (position-major).
    """

    coords: np.ndarray
    kind: str = RAW
    L: int | None = None
    A: int | None = None

    def __post_init__(self):
        coords = _readonly(self.coords, np.float64)
        if coords.ndim != 1 or coords.size == 0:
            raise ShapeError(f"coords must be a non-empty 1-D vector, got shape {coords.shape}")
        if not np.all(np.isfinite(coords)):
            raise ValueError("coords must be finite (no NaN/Inf)")
        if self.kind == SEQUENCE_LOGITS:
            if self.L is None or self.A is None or self.L <= 0 or self.A <= 0:
                raise ShapeError("sequence-logits points require positive L and A")
            if self.L * self.A != coords.size:
                raise ShapeError(
                    f"sequence-logits point needs L*A coords, got {coords.size} for L={self.L}, A={self.A}"
                )
        elif self.kind == RAW:
            if self.L is not None or self.A is not None:
                raise ShapeError("raw points must not carry L/A")
        else:
            raise ValueError(f"unknown point kind: {self.kind!r}")
        object.__setattr__(self, "coords", coords)

    @property
    def d(self) -> int:
        return int(self.coords.size)


def sequence_point(coords, L: int, A: int = 20) -> DesignPoint:
    return DesignPoint(coords, kind=SEQUENCE_LOGITS, L=L, A=A)


@dataclass(frozen=True, eq=False)
class DiscreteSequence:
    """A token string of length L over an alphabet of ``alphabet_size`` symbols."""

    tokens: np.ndarray
    alphabet_size: int = 20

    def __post_init__(self):
        tokens = _readonly(self.tokens, np.int64)
        if tokens.ndim != 1 or tokens.size == 0:
            raise InvalidSequenceError("tokens must be a non-empty 1-D integer vector")
        if self.alphabet_size <= 0:
            raise InvalidSequenceError("alphabet_size must be positive")
        if tokens.min() < 0 or tokens.max() >= self.alphabet_size:
            raise InvalidSequenceError(
                f"tokens must lie in [0, {self.alphabet_size}); got range "
                f"[{tokens.min()}, {tokens.max()}]"
            )
        object.__setattr__(self, "tokens", tokens)

    def __len__(self) -> int:
        return int(self.tokens.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteSequence):
            return NotImplemented
        return self.alphabet_size == other.alphabet_size and np.array_equal(
            self.tokens, other.tokens
        )

    def __hash__(self):
        return hash((self.alphabet_size, self.tokens.tobytes()))


# ObjectiveVector stays though no module takes it: perfbench's core.objects span wraps its __post_init__.
@dataclass(frozen=True, eq=False)
class ObjectiveVector:
    """The m per-objective energy values at one point."""

    values: np.ndarray

    def __post_init__(self):
        values = _readonly(self.values, np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ShapeError("objective vector must be a non-empty 1-D vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("objective values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def m(self) -> int:
        return int(self.values.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ObjectiveVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        return hash(self.values.tobytes())


@dataclass(frozen=True, eq=False)
class SimplexWeights:
    """Convex-combination weights on the probability simplex.

    Construction validates the constraints and rejects violations instead of
    silently renormalizing.
    """

    lam: np.ndarray

    def __post_init__(self):
        lam = _readonly(self.lam, np.float64)
        if lam.ndim != 1 or lam.size == 0:
            raise InvalidSimplexError("weights must be a non-empty 1-D vector")
        if not np.all(np.isfinite(lam)):
            raise InvalidSimplexError("weights must be finite")
        if lam.min() < 0.0:
            raise InvalidSimplexError(f"negative weight: {lam.min()}")
        total = float(lam.sum())
        if abs(total - 1.0) > SIMPLEX_TOL:
            raise InvalidSimplexError(f"weights sum to {total}, expected 1 within {SIMPLEX_TOL}")
        object.__setattr__(self, "lam", lam)

    @property
    def m(self) -> int:
        return int(self.lam.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimplexWeights):
            return NotImplemented
        return np.array_equal(self.lam, other.lam)

    def __hash__(self):
        return hash(self.lam.tobytes())


def uniform_weights(m: int) -> SimplexWeights:
    if m <= 0:
        raise InvalidSimplexError("m must be positive")
    return SimplexWeights(np.full(m, 1.0 / m))


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs shared by all chain algorithms: everything a batch of chains
    shares. Each chain's seed is on its ``samplers.ChainSpec``.

    ``sigma`` (Langevin-dynamics noise std) defaults to sqrt(eta) and
    ``alpha`` (Pareto-chain noise constant) to eta/2, the classical Langevin
    scaling; both can be overridden independently. NaN is rejected wherever
    a value has a lower bound.
    """

    eta: float
    steps: int
    noise_kind: str = NOISE_GAUSSIAN
    sigma: float | None = None
    alpha: float | None = None
    grad_tol: float = 1e-6
    record_every: int = 1

    def __post_init__(self):
        if not (self.eta > 0):
            raise ConfigError(f"eta must be positive, got {self.eta}")
        if not (self.steps >= 0):
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        if self.noise_kind not in NOISE_KINDS:
            raise ConfigError(f"unknown noise_kind: {self.noise_kind!r}")
        if not (self.record_every >= 1):
            raise ConfigError(f"record_every must be >= 1, got {self.record_every}")
        if not (self.grad_tol >= 0):
            raise ConfigError(f"grad_tol must be >= 0, got {self.grad_tol}")
        if self.sigma is None:
            object.__setattr__(self, "sigma", math.sqrt(self.eta))
        elif not (self.sigma >= 0):
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        if self.alpha is None:
            object.__setattr__(self, "alpha", self.eta / 2.0)
        elif not (self.alpha >= 0):
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """The recorded states of one sampling chain, stored as columns.

    Row i is the state at step ``steps[i]``: coordinates ``X[i]`` (d,),
    objective values ``F[i]`` (m,), drift weights ``lam[i]`` (m,) and
    ``grad_norm[i]``, the norm of the drift direction the method used there
    (the min-norm direction for mgd/pcebm, the (weighted) gradient sum for
    cebm/ls_cebm). The first row is the initial state (step 0) and steps
    strictly increase. ``termination_step`` is the step a chain stopped at
    before its last one, or None; ``terminated_early`` is derived from it.

    The constructor copies each column into a private read-only array and
    validates it once; non-finite states raise ValueError, so a chain that
    diverged anywhere fails as a whole. Each column is a view of that
    array, so neither the caller's arrays nor ``setflags(write=True)`` can
    change a validated trajectory. The samplers validate a whole batch of
    chains at once and hand out each chain's Trajectory as read-only views
    into the batch's columns, built by ``_view`` without a second check or
    copy. A sweep asks the samplers to keep
    only the final coordinates; its trajectories' ``X`` then holds one row,
    the state at ``steps[-1]``, and every other column keeps all records.
    """

    steps: np.ndarray
    X: np.ndarray
    F: np.ndarray
    lam: np.ndarray
    grad_norm: np.ndarray
    termination_step: int | None = None

    def __post_init__(self):
        steps = np.array(self.steps, dtype=np.int64)
        X = np.array(self.X, dtype=np.float64)
        F = np.array(self.F, dtype=np.float64)
        lam = np.array(self.lam, dtype=np.float64)
        grad_norm = np.array(self.grad_norm, dtype=np.float64)
        if steps.ndim != 1 or steps.size == 0:
            raise ValueError("trajectory must contain at least the initial record")
        if steps[0] != 0:
            raise ValueError("first trajectory record must be step 0")
        if np.any(np.diff(steps) <= 0):
            raise ValueError("trajectory step indices must be strictly increasing")
        n = steps.size
        if X.ndim != 2 or X.shape[0] != n or X.shape[1] == 0 or grad_norm.shape != (n,):
            raise ShapeError(f"X must be (n, d) and grad_norm (n,) for n={n} records")
        if F.ndim != 2 or F.shape[0] != n or F.shape[1] == 0 or lam.shape != F.shape:
            raise ShapeError("all trajectory records must share the objective count m")
        for name, column in (("coords", X), ("objective values", F), ("weights", lam)):
            bad = ~np.all(np.isfinite(column), axis=1)
            if bad.any():
                raise ValueError(f"{name} must be finite (no NaN/Inf); step {steps[np.argmax(bad)]} is not")
        for name, column in (("steps", steps), ("X", X), ("F", F), ("lam", lam), ("grad_norm", grad_norm)):
            column.setflags(write=False)
            object.__setattr__(self, name, column.view())

    @classmethod
    def _view(cls, steps, X, F, lam, grad_norm, termination_step) -> "Trajectory":
        """A Trajectory over read-only columns that the caller built and
        validated (see the class docstring); nothing is copied or checked."""
        self = object.__new__(cls)
        vars(self).update(
            steps=steps, X=X, F=F, lam=lam, grad_norm=grad_norm, termination_step=termination_step
        )
        return self

    def __len__(self) -> int:
        return int(self.steps.size)

    @property
    def m(self) -> int:
        return self.F.shape[1]

    @property
    def terminated_early(self) -> bool:
        """Whether the chain stopped before its last step, at ``termination_step``."""
        return self.termination_step is not None


def relax(seq: DiscreteSequence, on_value: float = 1.0, off_value: float = 0.0) -> DesignPoint:
    """Embed a discrete sequence as per-position logits (one-hot style fill).

    Position l, token t maps to coords[l*A + t] = on_value; everything else
    gets off_value. Requires on_value > off_value so decode() round-trips.
    """
    if not (on_value > off_value):
        raise ValueError(f"on_value ({on_value}) must exceed off_value ({off_value})")
    L, A = len(seq), seq.alphabet_size
    coords = np.full(L * A, float(off_value))
    coords[np.arange(L) * A + seq.tokens] = float(on_value)
    return DesignPoint(coords, kind=SEQUENCE_LOGITS, L=L, A=A)


def decode(point: DesignPoint) -> DiscreteSequence:
    """Per-position argmax over the A logits; ties break to the lowest token index."""
    if point.kind != SEQUENCE_LOGITS:
        raise WrongKindError(f"decode expects a sequence-logits point, got kind {point.kind!r}")
    logits = point.coords.reshape(point.L, point.A)
    return DiscreteSequence(np.argmax(logits, axis=1), alphabet_size=point.A)


def sequence_to_str(seq: DiscreteSequence, alphabet: str = AMINO_ALPHABET) -> str:
    if seq.alphabet_size > len(alphabet):
        raise InvalidSequenceError(
            f"alphabet has {len(alphabet)} symbols but sequence uses {seq.alphabet_size}"
        )
    return "".join(alphabet[t] for t in seq.tokens)


def sequence_from_str(
    text: str, alphabet: str = AMINO_ALPHABET, location: str | None = None
) -> DiscreteSequence:
    where = f" at {location}" if location else ""
    lookup = {ch: i for i, ch in enumerate(alphabet)}
    if len(lookup) != len(alphabet):
        raise InvalidSequenceError("alphabet must not contain duplicate symbols")
    tokens = []
    for pos, ch in enumerate(text.strip()):
        if ch not in lookup:
            raise InvalidSequenceError(f"unknown symbol {ch!r} at position {pos}{where}")
        tokens.append(lookup[ch])
    if not tokens:
        raise InvalidSequenceError(f"empty sequence{where}")
    return DiscreteSequence(np.array(tokens), alphabet_size=len(alphabet))


def read_sequences(path, alphabet: str = AMINO_ALPHABET) -> list[DiscreteSequence]:
    """Read one sequence per line; blank lines and '#' comments are skipped."""
    seqs = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        seqs.append(sequence_from_str(stripped, alphabet, location=f"{path}:{lineno}"))
    return seqs
