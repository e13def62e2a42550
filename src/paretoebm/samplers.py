"""The four chain algorithms over any objective set: multiple gradient
descent (mgd), Langevin dynamics on the summed energy (cebm), its linearly
scalarized variant (ls_cebm), and the Pareto-compositional chain (pcebm)
whose drift is the min-norm common-descent direction.

All four run one chain loop. Each step moves x <- x - step * drift + scale * w
with w a unit-variance noise draw; the method fixes the three parameters:

- drift: the min-norm direction of the per-objective gradients, re-solved
  every step, exactly and for the whole batch at once (mgd, pcebm; see
  moo.min_norm_closed_form), or a fixed-weight gradient combination, the
  plain sum for cebm and sum_i lambda_i g_i (one einsum) for ls_cebm;
- step: eta for the min-norm methods, eta/2 for the Langevin ones;
- noise scale: sqrt(2*alpha) for pcebm, sigma for cebm/ls_cebm, none for mgd.

Noiseless min-norm chains (mgd, and pcebm with alpha = 0 or noise kind
'none') stop once ||g|| < grad_tol, at a Pareto-stationary point; noisy
chains always run every step. pcebm with alpha = 0 (or noise 'none') is
therefore the mgd chain, and their trajectories agree bit for bit.
A zero-step chain records its start: one record at step 0, no noise drawn.

The loop runs a batch of chains as one (n, d) state array, updated in
place. A population is one ``ChainSpecs``, the one description of chains:
the method, the ``SamplerConfig`` and the fixed weights they share, one
seed per chain, and their starts, as plain columns: one ``RandomInit`` that
every chain draws from, or an ``(n, d)`` array of start rows.
``run_population`` runs it as one batch; every cell of a sweep is one (a
``RandomInit``), and so are each method's chains in ``improve_seeds`` (the
stacked relaxed seeds). ``run_chain`` runs a ``ChainSpecs`` of one chain.
Each chain keeps its own noise stream, seeded from its seed in the
``ChainSpecs``. A random start draws each chain's unit draws from it into
the chain's row of the batch's start array, which is then scaled in place
as a whole (``_starts``); an array start is copied. The chain then draws its
noise, scaled by the noise scale, a block of steps at a time into one
preallocated buffer of at most 256 KB (``_Noise``). Every step writes its
gradients into one (n, m, d) stack that the batch allocates once, and a
step's drift is dropped once it has moved the state, so no earlier step's
arrays are held through the next energy call and the heap is not asked for
a new stack every step. A batch therefore holds its recorded columns, one
step's arrays and one noise block. Every operation of a step is
row-wise and rounds each row exactly as it would round that chain alone,
so a chain's result does not depend on the batch it ran in, its position
there, or the order of its population. Each energy defines one kernel, on a
batch of rows (``EnergyModel.eval_batch``); a lone point is a batch of one,
and a set of one centered family is its family's kernel over the stacked
centers (``ObjectiveSet.eval_batch``). Its elementwise
math uses numpy ufuncs, which round each element the same way at any array
length. The MLP energies' matrix products run in fixed-shape tiles
(energy._tiled_matmul), which round each row alike whatever its siblings
hold. The min-norm drift takes each row's inner products with row-wise dot
products, its stacked linear solves factor each row's small matrix alone,
and it forms the direction from elementwise ufuncs (m = 2) or one einsum
(m >= 3), never a per-row BLAS product.

Per-chain masks take a chain out of the batch when it stops early
(noiseless min-norm chains stop at a Pareto-stationary point) or when it
fails. A chain fails at the first step where its coordinates, objective
values or gradients are non-finite, a start row that is not finite or a
drawn start that overflows at step 0; its error names the first of the
three, in that order. Starts of the wrong dimension fail the whole batch.
Each step takes one finiteness reduction per array, and builds the
per-chain masks only when one fails. The weights are not checked: for finite gradients they are
finite by construction (clipped segment weights, or solutions kept only
when non-negative), and fixed weights are a validated ``SimplexWeights``.
The loop writes the recorded states into preallocated ``(n, rows, .)``
columns, which are made read-only when the batch ends. ``run_population``
returns them as a ``ChainResults``: a sequence whose item j, for an int j,
is the ``Trajectory`` of views into the columns of the chain at batch
position j, or its ``ChainFailure``, built when it is indexed. No view can
be made writable again. A sweep never indexes one: it reads each cell's
finished chains' positions and final points (``ChainResults.finals``) and
writes its CSV file (``write_trajectories``, which exports every finished
chain of a ``ChainResults``, labelled by batch position, and nothing else)
from the columns.
``run_population(..., final_x_only=True)``, the path of the sweep and of
``improve_seeds``, keeps one coordinate row per chain, its last record,
written once, in place of all of them; every other column is kept whole.

Seeding: a chain's noise stream is that of ``np.random.default_rng(seed)``
for its spec's seed, and the sweep derives the seeds with ``chain_seeds``,
so a chain seeded ``chain_seed(base, i)`` draws exactly what
``default_rng(chain_seed(base, i))`` would. Neither builds a numpy
``SeedSequence`` per chain: ``_seed_words`` runs numpy's SeedSequence
hashing over all of a batch's seeds at once, and each chain's ``PCG64`` is
handed its precomputed state words.
"""

from __future__ import annotations

import csv
import functools
import math
import operator
from collections import abc
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    NOISE_GAUSSIAN,
    NOISE_NONE,
    NOISE_UNIFORM,
    ConfigError,
    DesignPoint,
    SamplerConfig,
    ShapeError,
    SimplexWeights,
    Trajectory,
    WrongKindError,
    uniform_weights,
)
from .energy import ObjectiveSet
# solve_min_norm stays bound here: perfbench tests that its tracer restores this name.
from .moo import min_norm_closed_form, solve_min_norm  # noqa: F401

METHOD_MGD = "mgd"
METHOD_CEBM = "cebm"
METHOD_LS_CEBM = "ls_cebm"
METHOD_PCEBM = "pcebm"
METHODS = (METHOD_MGD, METHOD_CEBM, METHOD_LS_CEBM, METHOD_PCEBM)

_SQRT3 = math.sqrt(3.0)
_MAX_UNIFORM_SCALE = float(np.finfo(np.float64).max) / 2
# Noise is drawn a block of steps at a time; this caps a batch's noise bytes.
# At 256 KB one seq-sweep step (32 chains x 1000 coordinates) is one block.
_NOISE_BLOCK_BYTES = 1 << 18
# A trajectory export formats and writes this many records at a time.
_CSV_BLOCK_ROWS = 512


@dataclass(frozen=True)
class RandomInit:
    """Descriptor for a randomly drawn starting point of ``d`` coordinates.

    A random start has no point kind: d draws are valid raw coordinates and
    valid sequence logits alike. ``normal`` draws standard-normal
    coordinates scaled by ``scale``; ``uniform`` draws from U(-scale, scale)
    per coordinate. ``scale`` must be finite and non-negative, and for
    ``uniform`` at most half the largest float, so that the range 2 * scale
    is finite.
    """

    d: int
    distribution: str = "normal"
    scale: float = 1.0

    def __post_init__(self):
        if not (self.d >= 1):
            raise ShapeError(f"random init needs a positive dimension d, got {self.d}")
        if self.distribution not in ("normal", "uniform"):
            raise ConfigError(f"unknown init distribution: {self.distribution!r}")
        if not (0 <= self.scale < math.inf):
            raise ConfigError(f"init scale must be finite and >= 0, got {self.scale}")
        if self.distribution == "uniform" and self.scale > _MAX_UNIFORM_SCALE:
            # numpy refuses a range high - low that overflows.
            raise ConfigError(f"uniform init scale must be <= {_MAX_UNIFORM_SCALE}, got {self.scale}")

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one start's coordinates; they are not checked for finiteness.
        The batch kernel draws under ``np.errstate(over="ignore")``."""
        if self.distribution == "normal":
            return self.scale * rng.standard_normal(self.d)
        return rng.uniform(-self.scale, self.scale, self.d)


@dataclass(frozen=True, eq=False)
class ChainSpecs:
    """The specs of chains that share a method, a sampler config, the fixed
    weights and their kind of start, stored as columns: one seed per chain,
    and either one ``RandomInit`` that every chain draws from or one
    ``(n, d)`` float array with a start row per seed.

    A seed is an int in [0, 2**64), the range of ``chain_seed``; a chain's
    noise stream (and a random start) is drawn from
    ``np.random.default_rng(seed)``. Construction checks the shared fields
    once, the seeds once and the start array's shape once; the seeds are
    kept as a read-only uint64 array, a start array as a read-only float64
    copy. ``len`` counts the chains; there is no object per chain.
    ``run_population`` runs the whole of one as one batch.
    """

    method: str
    config: SamplerConfig
    starts: RandomInit | np.ndarray
    seeds: Sequence[int]
    fixed_lambda: SimplexWeights | None = None

    def __post_init__(self):
        seeds = self.seeds
        if not (
            isinstance(seeds, np.ndarray)
            and (seeds.dtype == np.uint64 or seeds.dtype.kind == "i" and (not seeds.size or seeds.min() >= 0))
        ):
            # np.array would round a list mixing ints above 2**63 to floats.
            for seed in seeds:
                if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
                    raise ConfigError(f"seed must be an int in [0, 2**64), got {seed!r}")
            seeds = np.array([int(seed) for seed in seeds], dtype=np.uint64)
        if seeds.ndim != 1:
            raise ShapeError(f"seeds must be one-dimensional, got shape {seeds.shape}")
        starts = self.starts
        if not isinstance(starts, RandomInit):
            starts = np.array(starts, dtype=np.float64)
            if starts.ndim != 2:
                raise ShapeError(f"starts must be a RandomInit or an (n, d) array, got shape {starts.shape}")
            if len(starts) != seeds.size:
                raise ShapeError(f"need one start per seed, got {len(starts)} starts and {seeds.size} seeds")
            starts.setflags(write=False)
        method = self.method
        if method not in METHODS:
            raise ConfigError(f"unknown method: {method!r}")
        if method == METHOD_LS_CEBM:
            if self.fixed_lambda is None:
                raise ConfigError("ls_cebm requires fixed_lambda")
        elif self.fixed_lambda is not None:
            raise ConfigError(f"{method} must not supply fixed_lambda")
        if method == METHOD_MGD and self.config.noise_kind != NOISE_NONE:
            raise ConfigError("mgd is noiseless; use noise_kind='none'")
        seeds = seeds.astype(np.uint64)
        seeds.setflags(write=False)
        object.__setattr__(self, "seeds", seeds)
        object.__setattr__(self, "starts", starts)

    def __len__(self) -> int:
        return self.seeds.size


@dataclass(frozen=True)
class ChainFailure:
    """A failed chain in a population run; siblings are unaffected."""

    index: int
    error: Exception

    def __str__(self) -> str:
        return f"chain {self.index}: {type(self.error).__name__}: {self.error}"


# numpy's SeedSequence (pool size 4) hashing constants, from
# numpy/random/bit_generator.pyx. numpy keeps this algorithm's output fixed.
# They stay Python ints masked to 32 bits: only uint32 arrays are multiplied,
# and array products wrap without a warning where numpy scalars would warn.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4


def _seed_words(words: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words)`` for each row of the
    ``(n, k)`` uint32 entropy ``words``, as an ``(n, n_words)`` uint32 array.

    numpy's entropy mixing (``mix_entropy``: ``hashmix`` and ``mix``) and
    ``generate_state``, vectorized over rows. The hash constant advances the
    same way for every row of equal length, so it is one Python int. Entropy
    shorter than the pool is hashed as if padded with zeros to the pool size.
    """
    words = np.asarray(words, dtype=np.uint32)
    n, k = words.shape
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ const
        const = const * _MULT_A & _MASK32
        value = value * const
        return value ^ value >> _XSHIFT

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> _XSHIFT

    zeros = np.zeros(n, dtype=np.uint32)
    pool = [hashmix(words[:, i] if i < k else zeros) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, k):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(words[:, src]))
    out = np.empty((n, n_words), dtype=np.uint32)
    const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ const
        const = const * _MULT_B & _MASK32
        value = value * const
        out[:, i] = value ^ value >> _XSHIFT
    return out


def _as_uint64(words: np.ndarray) -> np.ndarray:
    """Join little-endian uint32 word pairs, as ``generate_state(.., np.uint64)`` does."""
    wide = words.astype(np.uint64)
    return wide[:, 0::2] | wide[:, 1::2] << 32


def chain_seeds(base_seed: int, indices: Iterable[int]) -> np.ndarray:
    """Per-chain seeds for (base seed, chain index) pairs, as a uint64 array.

    Entry j is ``SeedSequence(entropy=base_seed, spawn_key=(indices[j],))
    .generate_state(1, np.uint64)[0]``, numpy's splittable derivation, so
    populations reproduce exactly regardless of the order their chains run
    in. All the indices are hashed in one vectorized pass: the entropy is
    the words of ``base_seed``, zero-padded to the pool size because a spawn
    key is present, followed by the index's words. An index below 2**32 has
    one word and a larger one two, so the two lengths are hashed apart.
    Indices must be integers in [0, 2**64).
    """
    base_seed = operator.index(base_seed)
    if base_seed < 0:
        raise ValueError(f"expected non-negative integer, got {base_seed}")
    base = [base_seed >> shift & _MASK32 for shift in range(0, max(base_seed.bit_length(), 1), 32)]
    base = np.array(base + [0] * (_POOL_SIZE - len(base)), dtype=np.uint64)
    indices = [operator.index(i) for i in indices]
    if indices and (min(indices) < 0 or max(indices) >> 64):
        raise ValueError("chain indices must lie in [0, 2**64)")
    indices = np.array(indices, dtype=np.uint64)
    seeds = np.empty(indices.size, dtype=np.uint64)
    wide = indices >> 32 > 0
    for n_index_words, sel in ((1, ~wide), (2, wide)):
        if sel.any():
            chosen = indices[sel]
            index_words = [chosen & _MASK32, chosen >> 32][:n_index_words]
            words = np.column_stack([np.broadcast_to(base, (chosen.size, base.size)), *index_words])
            seeds[sel] = _as_uint64(_seed_words(words, 2))[:, 0]
    return seeds


def chain_seed(base_seed: int, index: int) -> int:
    """Derive a per-chain seed from (base seed, chain index): a one-index
    call of ``chain_seeds``, equal to numpy's
    ``SeedSequence(entropy=base_seed, spawn_key=(index,)).generate_state(1, np.uint64)[0]``.
    A chain run with this seed draws the stream of
    ``np.random.default_rng(chain_seed(base_seed, index))``.
    """
    return int(chain_seeds(base_seed, [index])[0])


@functools.cache
def _words_type() -> type:
    """``_Words``: a numpy ``ISeedSequence`` subclass that hands PCG64 its
    precomputed state words. It is built on first use, so that importing
    this module does not load ``numpy.random``; as a subclass, not a
    registered class, numpy's instance check passes without ABC lookups."""
    from numpy.random.bit_generator import ISeedSequence

    class _Words(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError(f"holds 4 uint64 words, asked for {n_words} of {dtype}")
            return self.words

    return _Words


def _generators(seeds: Sequence[int]) -> list[np.random.Generator]:
    """``np.random.default_rng(seed)`` for each seed in [0, 2**64), with the
    seeding of all of them in one vectorized pass.

    ``PCG64(seed)`` seeds itself from ``SeedSequence(seed).generate_state(4,
    np.uint64)``, whose entropy is the seed's one or two words. Every seed
    is hashed here as two words: entropy of at most the pool size is hashed
    as if padded with zeros to it, so a seed below 2**32 padded with a zero
    word gives the same state.
    """
    from numpy.random import PCG64, Generator

    words = _words_type()
    seeds = np.array(seeds, dtype=np.uint64)
    states = _as_uint64(_seed_words(np.column_stack([seeds & _MASK32, seeds >> 32]), 8))
    return [Generator(PCG64(words(state))) for state in states]


def _fill_block(block: np.ndarray, rngs: Sequence[np.random.Generator], noise_kind: str) -> None:
    """Fill ``block[j]`` of the (n, k, d) ``block`` in place with the next k
    steps of chain j's unit-variance noise, the draws of one ``(k, d)`` call."""
    for j, rng in enumerate(rngs):
        if noise_kind == NOISE_GAUSSIAN:
            rng.standard_normal(out=block[j])
        elif noise_kind == NOISE_UNIFORM:
            block[j] = rng.uniform(-_SQRT3, _SQRT3, block.shape[1:])
        else:
            raise ConfigError(f"cannot draw noise of kind {noise_kind!r}")


def _noise_block_steps(n_chains: int, d: int) -> int:
    """Steps of noise a batch draws at once: at most _NOISE_BLOCK_BYTES over
    all its chains, and at least one step. A (32, 1000) batch draws one step
    at a time, a (256, 3) batch 42."""
    return max(1, _NOISE_BLOCK_BYTES // (8 * n_chains * d))


class _Noise:
    """The running chains' noise, unit noise times ``scale``, one (n, d) row
    per step, drawn and scaled a block of steps at a time into one
    preallocated buffer of one block, at most _NOISE_BLOCK_BYTES unless a
    single step is larger.

    Each chain draws its own stream in order, the same stream as one draw
    per step, and each element is scaled once, as a per-step product would
    scale it, so the block size cannot change a result.
    """

    def __init__(self, rngs: list[np.random.Generator], kind: str, scale: float, d: int, steps: int):
        self.block_steps = _noise_block_steps(len(rngs), d)
        self.buffer = np.empty(len(rngs) * min(self.block_steps, steps) * d)
        self.rngs, self.kind, self.scale, self.d, self.remaining = rngs, kind, scale, d, steps
        self.block, self.used = None, 0

    def take(self) -> np.ndarray:
        """This step's noise, one row per running chain."""
        if self.block is None or self.used == self.block.shape[1]:
            n, k = len(self.rngs), min(self.block_steps, self.remaining)
            self.remaining -= k
            self.block = self.buffer[: n * k * self.d].reshape(n, k, self.d)
            _fill_block(self.block, self.rngs, self.kind)
            self.block *= self.scale
            self.used = 0
        self.used += 1
        return self.block[:, self.used - 1]

    def drop(self, keep: np.ndarray) -> None:
        """Keep the chains flagged in ``keep``."""
        if self.block is not None:
            self.block = self.block[keep]
        self.rngs = [rng for rng, k in zip(self.rngs, keep.tolist()) if k]


def _starts(
    objectives: ObjectiveSet, starts: RandomInit | np.ndarray, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """Every chain's start, row j for chain j of one (n, d) array: a copy of
    a start array, or each chain's draw of a ``RandomInit``.

    A random start draws each chain's unit draws into its row, from its
    chain's generator; then the whole array is scaled in place: s * z for
    normal draws and -s + 2s * u for uniform ones, the arithmetic of
    ``RandomInit.draw``, so a start has the same bits either way. Starts are
    not checked for finiteness here; one that is not finite, or that
    overflows, fails its chain at step 0. Starts of another dimension than
    the objectives' are a ShapeError.
    """
    d = objectives.d
    if not isinstance(starts, RandomInit):
        if starts.shape[1] != d:
            raise ShapeError(f"start array has d={starts.shape[1]}, objectives expect d={d}")
        return starts.copy()
    if starts.d != d:
        raise ShapeError(f"random init has d={starts.d}, objectives expect d={d}")
    X = np.empty((len(rngs), d))
    normal, scale = starts.distribution == "normal", starts.scale
    for x, rng in zip(X, rngs):
        if normal:
            rng.standard_normal(out=x)
        else:
            rng.random(out=x)
    with np.errstate(over="ignore"):
        if normal:
            X *= scale
        else:
            # Generator.uniform(low, high) computes low + (high - low) * u.
            X *= 2.0 * scale
            X += -scale
    return X


class ChainResults(abc.Sequence):
    """One batch's results: its read-only columns, by batch position j.

    Chain j's records are rows ``[:rows[j]]`` of F, lam and grad_norm, at the
    steps ``schedule[:rows[j]]``, except that a chain that stopped early
    (``stops[j] >= 0``) made its last record at step ``stops[j]``. X holds the
    same rows, or under ``final_x_only`` one row per chain, its last record.
    A failed chain keeps no record: ``rows[j]`` is 0 and ``errors[j]`` is its
    error. The constructor makes every column read-only.

    A read-only sequence: item j, for an int j (negatives count from the
    end), is chain j's ``Trajectory`` of views into the columns, or its
    ``ChainFailure``, built when it is indexed, so no object per chain
    exists unless a caller asks for one. ``failures``, ``finals`` and
    ``write_trajectories`` read the columns directly.
    """

    def __init__(self, errors, rows, stops, schedule, X, F, lam, grad_norm):
        for column in (rows, stops, schedule, X, F, lam, grad_norm):
            column.setflags(write=False)
        self._errors, self._rows, self._stops, self._schedule = errors, rows, stops, schedule
        self._X, self._F, self._lam, self._grad_norm = X, F, lam, grad_norm
        self.d, self.m = X.shape[2], F.shape[2]

    def __len__(self) -> int:
        return self._rows.size

    def __getitem__(self, i: int):
        n, pos = len(self), operator.index(i)
        if not -n <= pos < n:
            raise IndexError(f"chain {pos} is out of range for {n} chains")
        pos %= n
        end = int(self._rows[pos])
        if not end:
            return ChainFailure(pos, self._errors[pos])
        steps, stop = self._schedule, int(self._stops[pos])
        if stop >= 0:
            steps = np.append(steps[: end - 1], stop)
            steps.setflags(write=False)
        # Views of read-only owners, never an owner itself, so
        # setflags(write=True) raises on each column. Under final_x_only X
        # has one row per chain, which [:end] keeps.
        return Trajectory(
            steps[:end], self._X[pos, :end], self._F[pos, :end], self._lam[pos, :end], self._grad_norm[pos, :end],
            None if stop < 0 else stop,
        )

    def failures(self) -> list[ChainFailure]:
        """The failed chains' ChainFailures, in order."""
        return [self[j] for j in np.flatnonzero(self._rows == 0).tolist()]

    def finals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The finished chains' last records: their batch positions, steps,
        coordinates and objective values, as (k,), (k,), (k, d) and (k, m)
        arrays. A failed chain has none and is left out."""
        ids = np.flatnonzero(self._rows)
        last = self._rows[ids] - 1
        stops = self._stops[ids]
        # Under final_x_only X keeps one row per chain, row 0.
        X = self._X[ids, np.minimum(last, self._X.shape[1] - 1)]
        return ids, np.where(stops >= 0, stops, self._schedule[-1:]), X, self._F[ids, last]

    def _record_blocks(self, size: int) -> Iterator[np.ndarray]:
        """The export table of ``write_trajectories``, each finished chain
        labelled by its batch position, in blocks of ``size`` records, each
        gathered from the columns when it is reached. A failed chain has no
        rows, so no record falls to it."""
        rows = self._rows
        ends = np.cumsum(rows)
        starts, total = ends - rows, int(ends[-1]) if ends.size else 0
        m = self.m

        def gather(first: int, last: int) -> np.ndarray:
            record = np.arange(first, last)
            pos = np.searchsorted(ends, record, side="right")
            k = record - starts[pos]
            stops = self._stops[pos]
            block = np.empty((record.size, 3 + 2 * m))
            block[:, 0] = pos
            # A chain that stopped early made its last record at its stop.
            block[:, 1] = np.where((stops >= 0) & (k == rows[pos] - 1), stops, self._schedule[k])
            block[:, 2 : 2 + m] = self._F[pos, k]
            block[:, 2 + m : 2 + 2 * m] = self._lam[pos, k]
            block[:, 2 + 2 * m] = self._grad_norm[pos, k]
            return block

        return (gather(first, min(first + size, total)) for first in range(0, total, size))


def _failed_results(error: Exception, n: int, d: int, m: int) -> ChainResults:
    """The results of a batch whose every chain failed with ``error``."""
    return ChainResults(
        [error] * n, np.zeros(n, np.int64), np.full(n, -1), np.zeros(0, np.int64),
        np.empty((n, 0, d)), np.empty((n, 0, m)), np.empty((n, 0, m)), np.empty((n, 0)),
    )


def _run_batch(objectives: ObjectiveSet, specs: ChainSpecs, final_x_only: bool = False) -> ChainResults:
    """Run chains that share a method, a config and the fixed weights as one
    (n, d) state array; see the module docstring.

    Returns the batch's results, chain j's at position j. With
    ``final_x_only`` X keeps only each chain's last recorded row, written
    once: at its last step or where it stops early. An invalid shared drift
    (weights of the wrong length) raises.
    """
    cfg = specs.config
    n, m = len(specs), objectives.m
    if specs.method in (METHOD_MGD, METHOD_PCEBM):
        weights, step_size, noise_scale = None, cfg.eta, math.sqrt(2.0 * cfg.alpha)
    else:
        weights = specs.fixed_lambda.lam if specs.method == METHOD_LS_CEBM else uniform_weights(m).lam
        if weights.size != m:
            raise ShapeError(f"weights have m={weights.size}, objectives have m={m}")
        step_size, noise_scale = cfg.eta / 2.0, cfg.sigma
    summed = specs.method == METHOD_CEBM
    noise_on = cfg.noise_kind != NOISE_NONE and noise_scale > 0
    # With active noise the chain must keep exploring (Brownian regime); only
    # the noiseless min-norm dynamics stop, at a Pareto-stationary point.
    can_stop = weights is None and not noise_on

    generators = _generators(specs.seeds)
    X = _starts(objectives, specs.starts, generators)
    errors: list[Exception | None] = [None] * n
    last, every = cfg.steps, cfg.record_every
    schedule = np.array([*range(0, last + 1, every), *([last] if last % every else [])], dtype=np.int64)
    d = X.shape[1]
    # Recorded rows, per chain: row i of a running chain is schedule[i].
    X_rec = np.empty((n, 1 if final_x_only else schedule.size, d))
    F_rec = np.empty((n, schedule.size, m))
    lam_rec = np.empty((n, schedule.size, m))
    norm_rec = np.empty((n, schedule.size))
    rows = np.full(n, schedule.size)
    stops = np.full(n, -1)
    active = np.arange(n)  # batch positions of the running chains, the rows of X
    # Every step's gradients go into this one stack, its first rows once
    # chains have left.
    stack = np.empty((n, m, d))
    noise = None
    row = 0

    def drop(gone: np.ndarray) -> None:
        """Take the chains flagged in ``gone`` out of the running state."""
        nonlocal X, active
        keep = ~gone
        X, active = X[keep], active[keep]
        if noise is not None:
            noise.drop(keep)

    # A chain fails at the first step where its coordinates, objective values
    # or gradients are non-finite; the interim overflow itself is not worth a
    # warning.
    with np.errstate(over="ignore", invalid="ignore"):
        if noise_on and active.size:
            noise = _Noise(generators, cfg.noise_kind, noise_scale, d, last)
        for step in range(last + 1):
            if not active.size:
                break
            if step:
                # In place, the drift scaled and then subtracted rounds as
                # X - step_size * g does; it must not live through the energy call.
                g *= step_size
                X -= g
                del g
                if noise_on:
                    X += noise.take()
            values, grads = objectives.eval_batch(X, stack[: active.size])
            # One reduction per array; the per-chain masks only when one fails.
            if not (np.isfinite(X).all() and np.isfinite(values).all() and np.isfinite(grads).all()):
                x_ok, f_ok = np.isfinite(X).all(axis=1), np.isfinite(values).all(axis=1)
                gone = ~(x_ok & f_ok & np.isfinite(grads).all(axis=(1, 2)))
                for pos, x, f in zip(active[gone].tolist(), x_ok[gone].tolist(), f_ok[gone].tolist()):
                    name = "gradients" if x and f else "objective values" if x else "coords"
                    errors[pos] = ValueError(f"{name} must be finite (no NaN/Inf); step {step} is not")
                rows[active[gone]] = 0
                values, grads = values[~gone], grads[~gone]
                drop(gone)
                if not active.size:
                    break
            if weights is None:
                lam, g, norm = min_norm_closed_form(grads)
            elif summed:
                # Sequential accumulation keeps the reduction order bit-stable.
                g = grads[:, 0]
                for i in range(1, m):
                    g = g + grads[:, i]
            else:
                g = np.einsum("m,nmd->nd", weights, grads)
            record = step % every == 0 or step == last
            stop = norm < cfg.grad_tol if can_stop and step < last else None
            stopping = stop is not None and stop.any()
            if record or stopping:
                sel = slice(None) if record else stop
                at = active[sel]
                if not final_x_only:
                    X_rec[at, row] = X[sel]
                F_rec[at, row] = values[sel]
                if weights is None:
                    lam_rec[at, row] = lam[sel]
                    norm_rec[at, row] = norm[sel]
                else:
                    lam_rec[at, row] = weights
                    norm_rec[at, row] = np.sqrt(np.vecdot(g, g))
            if final_x_only and (step == last or stopping):
                # The one kept X row: every running chain's at the last step,
                # a stopping chain's where it stops.
                sel = slice(None) if step == last else stop
                X_rec[active[sel], 0] = X[sel]
            if stopping:
                rows[active[stop]] = row + 1
                stops[active[stop]] = step
                g = g[~stop]
                drop(stop)
            if record:
                row += 1

    return ChainResults(errors, rows, stops, schedule, X_rec, F_rec, lam_rec, norm_rec)


def run_chain(
    objectives: ObjectiveSet,
    method: str,
    config: SamplerConfig,
    init: DesignPoint | RandomInit,
    *,
    seed: int = 0,
    fixed_lambda: SimplexWeights | None = None,
) -> Trajectory:
    """Run one chain of ``method``: a ``ChainSpecs`` of one chain, as one
    batch. A design start must be of the objectives' point kind. A failed
    chain raises its error."""
    if isinstance(init, DesignPoint):
        if init.kind != objectives.point_kind:
            raise WrongKindError(f"init point kind {init.kind!r} does not match objectives ({objectives.point_kind!r})")
        init = init.coords[None]
    result = _run_batch(objectives, ChainSpecs(method, config, init, [seed], fixed_lambda))[0]
    if isinstance(result, ChainFailure):
        raise result.error
    return result


def run_population(objectives: ObjectiveSet, specs: ChainSpecs, *, final_x_only: bool = False) -> ChainResults:
    """Run the chains of one ``ChainSpecs`` as one batch; results come back
    in input order, as a ``ChainResults`` over the batch's columns.

    A failing chain yields a ChainFailure entry tagged with its index and
    does not disturb its siblings; an error of the whole batch yields one
    per chain. With ``final_x_only`` each trajectory's X keeps only the
    chain's last recorded row (the final point); every other column keeps
    all records. Anything but a ``ChainSpecs`` is a TypeError.
    """
    if not isinstance(specs, ChainSpecs):
        raise TypeError(f"run_population runs one ChainSpecs, got {type(specs).__name__}")
    try:
        return _run_batch(objectives, specs, final_x_only)
    except Exception as exc:  # noqa: BLE001 - failures are per-chain data
        return _failed_results(exc, len(specs), objectives.d, objectives.m)


def write_trajectories(path, results: ChainResults, objective_names: Sequence[str] | None = None) -> None:
    """Export the finished chains of a ``ChainResults`` as CSV: one record
    per line with fields (chain_id, step, objective values..., lambda...,
    grad_norm), a chain's id being its position in its batch. A failed chain
    has no records and writes no line.

    The bytes are those of the csv module's default writer: ``\\r\\n`` line
    ends, ``repr`` floats and plain integer chain ids and steps. The records
    are formatted and written ``_CSV_BLOCK_ROWS`` at a time, each block
    gathered from the columns into a float table and formatted in one pass,
    without a Trajectory per chain, so an export holds one block's table,
    floats and text, whatever its record count. A ChainResults with no
    finished chain writes the header alone.
    """
    if not isinstance(results, ChainResults):
        raise TypeError(f"write_trajectories exports a ChainResults, got {type(results).__name__}")
    m = results.m
    if objective_names is None:
        objective_names = [f"f{i}" for i in range(m)]
    if len(objective_names) != m:
        raise ShapeError(f"need {m} objective names, got {len(objective_names)}")
    record = "%d,%d," + ",".join(["%r"] * (2 * m + 1)) + "\r\n"
    header = ["chain_id", "step", *objective_names, *[f"lambda{i}" for i in range(m)], "grad_norm"]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for block in results._record_blocks(_CSV_BLOCK_ROWS):
            fh.write(record * len(block) % tuple(block.ravel().tolist()))
