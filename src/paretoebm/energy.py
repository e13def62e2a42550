"""Energy models: analytic benchmark objectives with known geometry,
trainable sequence energies, and contrastive-divergence training.

A model defines one kernel, ``eval_batch``: values and gradients at the
rows of an (n, d) array, each row bit for bit the row alone; a lone point
is a batch of one row. An ``ObjectiveSet`` is the m models a sampler draws
from. Its models share d and point kind, and the models of a sequence set
share one (L, A) layout, worked out once at construction: models of one d
but different layouts are refused (ShapeError), since every chain is
decoded with one layout. ``PwmEnergy`` and ``MlpEnergy`` refuse parameters
that are not all finite (ModelFormatError); ``load_model`` refuses such a
file first, naming it.
"""

from __future__ import annotations

import json
import math
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (
    RAW,
    SEQUENCE_LOGITS,
    DiscreteSequence,
    ConfigError,
    ModelFormatError,
    ShapeError,
    WrongKindError,
    relax_rows,
)

MODEL_MAGIC = b"PEBMODEL"
MODEL_FORMAT_VERSION = 1
_TILE = 8


def _tiled_matmul(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A @ B for an (n, k) A, as one stacked np.matmul over its C-contiguous (_TILE, k) tiles,
    zero-padded. BLAS rounds a row of a fixed-shape product alike at any position in the tile
    and whatever its siblings hold (one product over all n rows does not): each row equals the
    row alone. With ``out``, an (n, B.shape[1]) float array, the product is written there:
    straight from BLAS where n is whole tiles and ``out`` is C-contiguous, else through a
    padded product."""
    n, k = A.shape
    rows = -(-n // _TILE) * _TILE
    if rows != n or not A.flags.c_contiguous:
        padded = np.zeros((rows, k))
        padded[:n] = A
        A = padded
    tiles = A.reshape(rows // _TILE, _TILE, k)
    if out is not None and rows == n and out.flags.c_contiguous:
        np.matmul(tiles, B, out=out.reshape(tiles.shape[0], _TILE, B.shape[1]))
        return out
    product = np.matmul(tiles, B).reshape(rows, B.shape[1])[:n]
    if out is None:
        return product
    out[...] = product
    return out


class EnergyModel(ABC):
    """Scalar energy with an exact gradient; lower energy is preferred.

    Implementations are deterministic functions of the point and the model
    parameters, and immutable after construction, so concurrent evaluation
    needs no locking.
    """

    @property
    @abstractmethod
    def d(self) -> int:
        """Input dimension the model accepts."""

    @property
    def point_kind(self) -> str:
        return RAW

    @abstractmethod
    def eval_batch(self, X: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Values (n,) and gradients (n, d) at the rows of an unchecked (n, d)
        coordinate array; the gradients are written into ``out``, an (n, d)
        float array, and returned as it when one is given. The one kernel a
        model defines: row i must equal the kernel on ``X[i:i+1]`` bit for
        bit, which row-wise numpy ufuncs and _tiled_matmul keep."""


def gradient_stack(n: int, m: int, d: int) -> np.ndarray:
    """An uninitialized (n, m, d) gradient stack laid out objective-major, so
    that each objective's (n, d) block, and that block's first rows, are
    C-contiguous: a model writes its gradients into its block in place."""
    return np.empty((m, n, d)).transpose(1, 0, 2)


class ObjectiveSet:
    """An ordered collection of m energy models sharing dimension and point
    kind; the models of a sequence set also share one (L, A) layout, the one
    every chain of the set decodes with."""

    def __init__(self, models: Sequence[EnergyModel]):
        models = tuple(models)
        if not models:
            raise ShapeError("objective set needs at least one model")
        d = models[0].d
        kind = models[0].point_kind
        layout = (models[0].L, models[0].A) if kind == SEQUENCE_LOGITS else None
        for i, model in enumerate(models):
            if model.d != d:
                raise ShapeError(f"model {i} has d={model.d}, expected {d}")
            if model.point_kind != kind:
                raise WrongKindError(f"model {i} expects {model.point_kind!r} points, others {kind!r}")
            if layout is not None and (model.L, model.A) != layout:
                raise ShapeError(f"model {i} has (L, A)=({model.L}, {model.A}), expected {layout}")
        self.models = models
        self._d = d
        self._kind = kind
        self._layout = layout
        # Each model's own kernel is its family's kernel on its one center,
        # so the stacked call gives every model's bits.
        family = type(models[0])
        stacked = family in (ShiftedQuadratic, FonsecaFlemingBranch) and all(type(m) is family for m in models)
        self._kernel = family._centered_kernel if stacked else None
        self._centers = np.stack([model.center for model in models]) if stacked else None

    @property
    def m(self) -> int:
        return len(self.models)

    @property
    def d(self) -> int:
        return self._d

    @property
    def point_kind(self) -> str:
        return self._kind

    def sequence_dims(self) -> tuple[int, int]:
        """The (L, A) layout of a sequence set; a raw set has none (WrongKindError)."""
        if self._layout is None:
            raise WrongKindError(f"a set of {self._kind!r} models has no sequence layout")
        return self._layout

    def eval_batch(self, X: np.ndarray, out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """Values (n, m) and gradients (n, m, d) at the rows of an unchecked
        (n, d) coordinate array; the gradients are written into ``out``, an
        (n, m, d) float array (gradient_stack), when one is given. A set of
        one centered family (every model a ShiftedQuadratic, or every model a
        FonsecaFlemingBranch) is one call of the family's kernel on the
        stacked centers; any other set takes one batched pass per model, each
        writing its gradients into its (n, d) block of the stack."""
        if self._kernel is not None:
            return self._kernel(X, self._centers, out)
        values = np.empty((X.shape[0], self.m))
        grads = gradient_stack(X.shape[0], self.m, self._d) if out is None else out
        for i, model in enumerate(self.models):
            values[:, i] = model.eval_batch(X, grads[:, i])[0]
        return values, grads


class PwmEnergy(EnergyModel):
    """Linear position-weight energy on sequence logits: E(x) = <W, x>.

    The gradient is the flattened weight matrix, independent of the point.
    """

    def __init__(self, weights):
        W = np.array(weights, dtype=np.float64)
        if W.ndim != 2 or W.size == 0:
            raise ShapeError("PWM weights must be a non-empty L x A matrix")
        if not np.all(np.isfinite(W)):
            raise ModelFormatError("PWM weights must be finite")
        W.setflags(write=False)
        self.weights = W
        self.L, self.A = W.shape
        self._flat = W.reshape(-1)

    @property
    def d(self) -> int:
        return self._flat.size

    @property
    def point_kind(self) -> str:
        return SEQUENCE_LOGITS

    def eval_batch(self, X, out=None):
        if out is None:
            return np.vecdot(X, self._flat), np.broadcast_to(self._flat, X.shape)
        out[...] = self._flat
        return np.vecdot(X, self._flat), out

    def params(self) -> dict[str, np.ndarray]:
        return {"weights": self.weights}

    def with_params(self, params) -> "PwmEnergy":
        return PwmEnergy(params["weights"])

    def batch_param_gradient(self, X: np.ndarray) -> dict[str, np.ndarray]:
        """Mean parameter gradient of the energy over a batch of coordinates."""
        return {"weights": X.mean(axis=0).reshape(self.L, self.A)}

    @classmethod
    def zeros(cls, L: int, A: int = 20) -> "PwmEnergy":
        return cls(np.zeros((L, A)))


class MlpEnergy(EnergyModel):
    """One-hidden-layer tanh network energy: E(x) = w2 . tanh(W1 x + b1) + b2."""

    def __init__(self, w1, b1, w2, b2, L: int | None = None, A: int | None = None):
        self.w1 = np.array(w1, dtype=np.float64)
        self.b1 = np.array(b1, dtype=np.float64)
        self.w2 = np.array(w2, dtype=np.float64)
        self.b2 = float(b2)
        if self.w1.ndim != 2:
            raise ShapeError("w1 must be an H x d matrix")
        H, d = self.w1.shape
        if self.b1.shape != (H,) or self.w2.shape != (H,):
            raise ShapeError("b1 and w2 must be H-vectors matching w1")
        if L is not None and (A is None or L * A != d):
            raise ShapeError(f"L*A must equal d={d}")
        if not (math.isfinite(self.b2) and all(np.all(np.isfinite(a)) for a in (self.w1, self.b1, self.w2))):
            raise ModelFormatError("MLP parameters must be finite")
        self.L, self.A, self.H, self._d = L, A, H, d
        for arr in (self.w1, self.b1, self.w2):
            arr.setflags(write=False)

    @property
    def d(self) -> int:
        return self._d

    @property
    def point_kind(self) -> str:
        return SEQUENCE_LOGITS if self.L is not None else RAW

    def _hidden(self, X):
        """Hidden activations (n, H) and the gradient at the pre-activations."""
        Hm = np.tanh(_tiled_matmul(X, self.w1.T) + self.b1)
        return Hm, self.w2 * (1.0 - Hm * Hm)

    def eval_batch(self, X, out=None):
        Hm, Dz = self._hidden(X)
        return np.vecdot(Hm, self.w2) + self.b2, _tiled_matmul(Dz, self.w1, out)

    def params(self) -> dict[str, np.ndarray]:
        return {"w1": self.w1, "b1": self.b1, "w2": self.w2, "b2": np.array([self.b2])}

    def with_params(self, params) -> "MlpEnergy":
        return MlpEnergy(
            params["w1"], params["b1"], params["w2"], float(np.asarray(params["b2"]).reshape(())),
            L=self.L, A=self.A,
        )

    def batch_param_gradient(self, X: np.ndarray) -> dict[str, np.ndarray]:
        Hm, Dz = self._hidden(X)
        return {
            "w1": Dz.T @ X / X.shape[0],
            "b1": Dz.mean(axis=0),
            "w2": Hm.mean(axis=0),
            "b2": np.array([1.0]),
        }

    @classmethod
    def random(
        cls, hidden: int, d: int | None = None, L: int | None = None, A: int | None = None,
        seed: int = 0, scale: float = 0.1,
    ) -> "MlpEnergy":
        if d is None:
            if L is None or A is None:
                raise ShapeError("give either d or both L and A")
            d = L * A
        rng = np.random.default_rng(seed)
        return cls(
            rng.normal(scale=scale, size=(hidden, d)),
            rng.normal(scale=scale, size=hidden),
            rng.normal(scale=scale, size=hidden),
            float(rng.normal(scale=scale)),
            L=L, A=A,
        )


class ShiftedQuadratic(EnergyModel):
    """f(x) = ||x - c||^2, minimized at the center c with gradient 2(x - c)."""

    def __init__(self, center):
        self.center = np.array(center, dtype=np.float64)
        if self.center.ndim != 1 or self.center.size == 0:
            raise ShapeError("center must be a non-empty vector")
        self.center.setflags(write=False)

    @property
    def d(self) -> int:
        return self.center.size

    @staticmethod
    def _centered_kernel(X, centers, out=None):
        """Values (n, k) and gradients (n, k, d) of the quadratics centered at
        the rows of the (k, d) ``centers``, at the rows of the (n, d) ``X``;
        the gradients go into ``out`` when one is given."""
        delta = np.subtract(X[:, None], centers, out=out)
        values = np.vecdot(delta, delta)
        delta *= 2.0
        return values, delta

    def eval_batch(self, X, out=None):
        values, grads = self._centered_kernel(X, self.center[None], None if out is None else out[:, None])
        return values[:, 0], grads[:, 0]


class FonsecaFlemingBranch(EnergyModel):
    """One branch of the classic two-objective benchmark with a non-convex front.

    f(x) = 1 - exp(-sum_i (x_i - s/sqrt(n))^2) for sign s in {+1, -1}; the
    trade-off set is the diagonal segment x_1 = ... = x_n in [-1/sqrt(n), 1/sqrt(n)].
    """

    def __init__(self, sign: int, n: int):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if n < 1:
            raise ShapeError("n must be >= 1")
        self.sign = sign
        self.n = n
        self.center = np.full(n, sign / math.sqrt(n))
        self.center.setflags(write=False)

    @property
    def d(self) -> int:
        return self.n

    # The exponential is the ufunc np.exp, never math.exp (the two differ in
    # the last bit on a few percent of inputs): a ufunc rounds each element
    # the same way whatever the array's length, so a row of a batch equals
    # the same row evaluated alone bit for bit.
    @staticmethod
    def _centered_kernel(X, centers, out=None):
        """Values (n, k) and gradients (n, k, d) of the branches centered at
        the rows of the (k, d) ``centers``, at the rows of the (n, d) ``X``;
        the gradients go into ``out`` when one is given."""
        delta = np.subtract(X[:, None], centers, out=out)
        e = np.exp(-np.vecdot(delta, delta))
        delta *= (2.0 * e)[..., None]
        return 1.0 - e, delta

    def eval_batch(self, X, out=None):
        values, grads = self._centered_kernel(X, self.center[None], None if out is None else out[:, None])
        return values[:, 0], grads[:, 0]


def _squash(v):
    return v * v / (1.0 + v * v)


def _squash_grad(v):
    w = 1.0 + v * v
    return 2.0 * v / (w * w)


class Zdt3Branch(EnergyModel):
    """Smooth, unconstrained variant of the disconnected-front benchmark.

    Coordinates pass through the squash s(v) = v^2/(1+v^2) in [0, 1), so
    Langevin chains stay well-posed on all of R^d. With t = s(x_1) and
    g = 1 + 9 * mean of squashed tail coordinates:
        branch 0: f = t
        branch 1: f = g - t * (1 + sin(10*pi*t))
    The sine term makes alternating t-intervals dominated, which disconnects
    the trade-off front exactly as in the classic formulation.
    """

    def __init__(self, index: int, d: int):
        if index not in (0, 1):
            raise ValueError("branch index must be 0 or 1")
        if d < 2:
            raise ShapeError("needs d >= 2")
        self.index = index
        self._d = d

    @property
    def d(self) -> int:
        return self._d

    # Row-wise ufuncs only (np.sin and np.cos, never math): see FonsecaFlemingBranch.
    def eval_batch(self, X, out=None):
        grad = np.empty_like(X) if out is None else out
        x0 = X[:, 0]
        t = _squash(x0)
        if self.index == 0:
            grad[:, 0] = _squash_grad(x0)
            grad[:, 1:] = 0.0
            return t, grad
        q = 9.0 / (self._d - 1)
        tail = X[:, 1:]
        u = 10.0 * math.pi * t
        sin_u = np.sin(u)
        value = 1.0 + q * np.sum(_squash(tail), axis=1) - t * (1.0 + sin_u)
        grad[:, 0] = -_squash_grad(x0) * (1.0 + sin_u + u * np.cos(u))
        grad[:, 1:] = q * _squash_grad(tail)
        return value, grad


@dataclass(frozen=True)
class CdTrainConfig:
    """Contrastive-divergence training knobs.

    Negative chains run ``cd_steps`` of Langevin refinement with step size
    ``cd_eta`` and noise std ``cd_sigma`` (default sqrt(cd_eta)), starting
    from relaxed uniform-random sequences.
    """

    cd_steps: int = 5
    lr: float = 0.05
    epochs: int = 10
    batch_size: int = 128
    l2: float = 0.0
    seed: int = 0
    cd_eta: float = 0.1
    cd_sigma: float | None = None

    def __post_init__(self):
        if not (self.cd_steps >= 1):
            raise ConfigError(f"cd_steps must be >= 1, got {self.cd_steps}")
        if not (0 <= self.lr < math.inf):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not (self.epochs >= 1):
            raise ConfigError(f"epochs must be >= 1, got {self.epochs}")
        if not (self.batch_size >= 1):
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (0 <= self.l2 < math.inf):
            raise ConfigError(f"l2 must be finite and >= 0, got {self.l2}")
        if not (self.seed >= 0):
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not (0 < self.cd_eta < math.inf):
            raise ConfigError(f"cd_eta must be finite and positive, got {self.cd_eta}")
        if self.cd_sigma is None:
            object.__setattr__(self, "cd_sigma", math.sqrt(self.cd_eta))
        elif not (0 <= self.cd_sigma < math.inf):
            raise ConfigError(f"cd_sigma must be finite and >= 0, got {self.cd_sigma}")


def cd_train(
    model: PwmEnergy | MlpEnergy,
    data: Sequence[DiscreteSequence],
    cfg: CdTrainConfig,
) -> tuple[PwmEnergy | MlpEnergy, list[float]]:
    """Train a sequence energy by contrastive divergence.

    Each update descends the mean energy gap E(data) - E(negatives) plus an
    l2 penalty; negatives are Langevin refinements of uniform-random
    sequences. Returns a new model (the input is untouched) and the per-epoch
    mean gap. Deterministic given cfg.seed.
    """
    if not isinstance(model, (PwmEnergy, MlpEnergy)):
        raise TypeError("cd_train supports PwmEnergy and MlpEnergy models")
    if model.L is None or model.A is None:
        raise ShapeError("cd_train needs a sequence-kind model with L and A")
    data = list(data)
    if not data:
        raise ValueError("training data must be non-empty")
    L, A = model.L, model.A
    for i, seq in enumerate(data):
        if len(seq) != L or seq.alphabet_size != A:
            raise ShapeError(
                f"sequence {i} has (L={len(seq)}, A={seq.alphabet_size}), model needs ({L}, {A})"
            )

    rng = np.random.default_rng(cfg.seed)
    positives = relax_rows(np.stack([s.tokens for s in data]), A)
    n = positives.shape[0]
    params = {k: np.array(v) for k, v in model.params().items()}
    current = model.with_params(params)
    history: list[float] = []

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for start in range(0, n, cfg.batch_size):
            batch = positives[order[start : start + cfg.batch_size]]
            neg = relax_rows(rng.integers(0, A, size=(batch.shape[0], L)), A)
            for _ in range(cfg.cd_steps):
                neg = neg - (cfg.cd_eta / 2.0) * current.eval_batch(neg)[1]
                if cfg.cd_sigma > 0:
                    neg = neg + cfg.cd_sigma * rng.standard_normal(neg.shape)
            pos_mean, neg_mean = (current.eval_batch(X)[0].mean() for X in (batch, neg))
            epoch_losses.append(float(pos_mean - neg_mean))
            g_pos = current.batch_param_gradient(batch)
            g_neg = current.batch_param_gradient(neg)
            params = {
                k: params[k] - cfg.lr * (g_pos[k] - g_neg[k] + cfg.l2 * params[k])
                for k in params
            }
            current = model.with_params(params)
        history.append(float(np.mean(epoch_losses)))
    return current, history


def save_model(model: PwmEnergy | MlpEnergy, path) -> None:
    """Write a self-describing model file: header JSON + little-endian float64 params."""
    if isinstance(model, PwmEnergy):
        kind, H, params = "pwm", None, model.weights.reshape(-1)
    elif isinstance(model, MlpEnergy):
        kind, H = "mlp", model.H
        params = np.concatenate([model.w1.reshape(-1), model.b1, model.w2, [model.b2]])
    else:
        raise ModelFormatError(f"cannot persist model type {type(model).__name__}")
    header = {"format_version": MODEL_FORMAT_VERSION, "kind": kind, "d": model.d, "L": model.L, "A": model.A, "H": H}
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        # From the array's own buffer: no astype or tobytes copy of H * d floats.
        fh.write(np.asarray(params, "<f8"))


def load_model(path) -> PwmEnergy | MlpEnergy:
    """Load a persisted model; the round-trip is bit-exact on every parameter,
    and a parameter that is not finite is a ModelFormatError."""
    blob = Path(path).read_bytes()
    if len(blob) < len(MODEL_MAGIC) + 8 or not blob.startswith(MODEL_MAGIC):
        raise ModelFormatError(f"{path}: not a model file (bad magic)")
    offset = len(MODEL_MAGIC)
    (header_len,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    if len(blob) < offset + header_len:
        raise ModelFormatError(f"{path}: truncated header")
    try:
        header = json.loads(blob[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ModelFormatError(f"{path}: unreadable header ({exc})") from exc
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: unreadable header (not a JSON object)")
    offset += header_len
    version = header.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ModelFormatError(
            f"{path}: unsupported format_version {version!r}, expected {MODEL_FORMAT_VERSION}"
        )
    kind = header.get("kind")
    if kind not in ("pwm", "mlp"):
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")

    def size(key: str) -> int:
        value = header.get(key)
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ModelFormatError(f"{path}: header {key} must be an int >= 1, got {value!r}")
        return value

    d = size("d")
    if kind == "mlp" and header.get("L") is None and header.get("A") is None:
        L = A = None  # a raw-coordinate MLP has no sequence shape
    else:
        L, A = size("L"), size("A")
    if L is not None and L * A != d:
        raise ModelFormatError(f"{path}: header d={d} disagrees with L*A={L * A}")
    if kind == "pwm":
        expected = L * A
    else:
        H = size("H")
        expected = H * d + H + H + 1
    held = len(blob) - offset
    if held != expected * 8:
        raise ModelFormatError(f"{path}: expected {expected * 8} parameter bytes, file holds {held} (truncated?)")
    # A read-only view of the file's bytes: each constructor copies its parameters.
    params = np.frombuffer(blob, dtype="<f8", offset=offset)
    bad = np.flatnonzero(~np.isfinite(params))
    if bad.size:
        raise ModelFormatError(
            f"{path}: {bad.size} of {expected} parameters are not finite "
            f"(the first, at index {bad[0]}, is {float(params[bad[0]])})"
        )
    if kind == "pwm":
        return PwmEnergy(params.reshape(L, A))
    w1 = params[: H * d].reshape(H, d)
    b1 = params[H * d : H * d + H]
    w2 = params[H * d + H : H * d + 2 * H]
    return MlpEnergy(w1, b1, w2, params[-1], L=L, A=A)
