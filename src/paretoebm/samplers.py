"""The four chain algorithms over any objective set: multiple gradient
descent (mgd), Langevin dynamics on the summed energy (cebm), its linearly
scalarized variant (ls_cebm), and the Pareto-compositional chain (pcebm)
whose drift is the min-norm common-descent direction.

All four run one chain loop. Each step moves x <- x - step * drift + scale * w
with w a unit-variance noise draw; the method fixes the three parameters:

- drift: the min-norm direction of the per-objective gradients, re-solved
  every step, exactly and for the whole batch at once (mgd, pcebm; see
  moo.min_norm_closed_form), or a fixed-weight gradient combination, the
  plain sum for cebm and ``lambda @ grads`` for ls_cebm;
- step: eta for the min-norm methods, eta/2 for the Langevin ones;
- noise scale: sqrt(2*alpha) for pcebm, sigma for cebm/ls_cebm, none for mgd.

The loop runs a batch of chains as one (n, d) state array. ``run_population``
batches the chains that share a method, every ``SamplerConfig`` field except
the seed, and the fixed weights: every cell of a sweep is one batch. Each
chain keeps its own noise stream, seeded from its config, and draws it a
block of steps at a time. Every operation of a step is row-wise and rounds
each row exactly as it would round that chain alone, so a chain's result
does not depend on the batch it ran in, its position there, or the order of
its population. Elementwise math in the energies uses numpy ufuncs in both
the solo and the batch path: a ufunc rounds each element the same way at
any array length. The stacked linear solves of the min-norm drift factor
each row's matrix alone. Per-chain masks take a chain out of the batch
when it stops early (noiseless min-norm chains stop at a Pareto-stationary
point) or when its gradients turn non-finite, which fails that chain alone; the
gradients get one finiteness reduction per step, and the per-chain mask is
built only when it fails. The loop writes the recorded states into
preallocated ``(n, rows, .)`` columns and checks each recorded coordinate
row for finiteness as it writes it. When the batch ends, the objective
values and weights of every chain are checked in one vectorized pass,
masked by each chain's row count; a chain with a non-finite record fails
with the message the ``Trajectory`` constructor would give. Each finished chain gets a ``Trajectory`` of views into the
batch's columns, which are made read-only first, so no view can be made
writable again. ``run_population(..., final_x_only=True)``, the sweep's
path, keeps one coordinate row per chain, its last record, in place of all
of them; every other column is kept whole.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Sequence

import numpy as np

from .core import (
    NOISE_GAUSSIAN,
    NOISE_NONE,
    NOISE_UNIFORM,
    RAW,
    SEQUENCE_LOGITS,
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
# Noise is drawn a block of steps at a time; this caps one block's bytes.
_NOISE_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class RandomInit:
    """Descriptor for a randomly drawn starting point.

    ``normal`` draws standard-normal coordinates scaled by ``scale``;
    ``uniform`` draws from U(-scale, scale) per coordinate.
    """

    kind: str = RAW
    d: int | None = None
    L: int | None = None
    A: int | None = None
    distribution: str = "normal"
    scale: float = 1.0

    def __post_init__(self):
        if self.distribution not in ("normal", "uniform"):
            raise ConfigError(f"unknown init distribution: {self.distribution!r}")
        if self.kind == RAW:
            if self.d is None or self.d < 1:
                raise ShapeError("raw random init needs a positive dimension d")
        elif self.kind == SEQUENCE_LOGITS:
            if self.L is None or self.A is None or self.L < 1 or self.A < 1:
                raise ShapeError("sequence random init needs positive L and A")
        else:
            raise ConfigError(f"unknown point kind: {self.kind!r}")

    @property
    def dim(self) -> int:
        """Length of a drawn coordinate vector."""
        return self.d if self.kind == RAW else self.L * self.A

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one start's coordinates; they are not checked for finiteness."""
        if self.distribution == "normal":
            return self.scale * rng.standard_normal(self.dim)
        return rng.uniform(-self.scale, self.scale, self.dim)


@dataclass(frozen=True)
class ChainSpec:
    """Everything one chain needs: method, sampler config, and start point."""

    method: str
    config: SamplerConfig
    init: DesignPoint | RandomInit
    fixed_lambda: SimplexWeights | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method: {self.method!r}")
        if self.method == METHOD_LS_CEBM:
            if self.fixed_lambda is None:
                raise ConfigError("ls_cebm requires fixed_lambda")
        elif self.fixed_lambda is not None:
            raise ConfigError(f"{self.method} must not supply fixed_lambda")
        if self.method == METHOD_MGD and self.config.noise_kind != NOISE_NONE:
            raise ConfigError("mgd is noiseless; use noise_kind='none'")


@dataclass(frozen=True)
class ChainFailure:
    """A failed chain in a population run; siblings are unaffected."""

    index: int
    error: Exception

    def __str__(self) -> str:
        return f"chain {self.index}: {type(self.error).__name__}: {self.error}"


def chain_seed(base_seed: int, index: int) -> int:
    """Derive a per-chain seed from (base seed, chain index).

    Uses numpy's splittable SeedSequence, so populations reproduce exactly
    regardless of the order their chains run in.
    """
    state = np.random.SeedSequence(entropy=base_seed, spawn_key=(index,)).generate_state(1, np.uint64)
    return int(state[0])


def _check_start(objectives: ObjectiveSet, d: int, kind: str) -> None:
    if d != objectives.d:
        raise ShapeError(f"init point has d={d}, objectives expect d={objectives.d}")
    if kind != objectives.point_kind:
        raise WrongKindError(
            f"init point kind {kind!r} does not match objectives ({objectives.point_kind!r})"
        )


def _draw_unit(rng: np.random.Generator, noise_kind: str, shape: tuple[int, ...]) -> np.ndarray:
    """Unit-variance-per-coordinate draws of the configured noise shape."""
    if noise_kind == NOISE_GAUSSIAN:
        return rng.standard_normal(shape)
    if noise_kind == NOISE_UNIFORM:
        return rng.uniform(-_SQRT3, _SQRT3, shape)
    raise ConfigError(f"cannot draw noise of kind {noise_kind!r}")


def _noise_block_steps(n_chains: int, d: int) -> int:
    """Steps of noise a batch draws at once: at most _NOISE_BLOCK_BYTES over
    all its chains, and at least one step."""
    return max(1, _NOISE_BLOCK_BYTES // (8 * n_chains * d))


def _run_batch(
    objectives: ObjectiveSet, specs: Sequence[ChainSpec], final_x_only: bool = False
) -> list[Trajectory | Exception]:
    """Run chains that share a method, every config field but the seed, and
    the fixed weights, as one (n, d) state array; see the module docstring.

    Returns, per spec in order, its Trajectory or the exception that failed
    that chain. With ``final_x_only`` each Trajectory's X holds only the
    chain's last recorded row. An invalid shared drift (weights of the wrong
    length) raises.
    """
    spec = specs[0]
    cfg = spec.config
    m = objectives.m
    if spec.method in (METHOD_MGD, METHOD_PCEBM):
        weights, step_size, noise_scale = None, cfg.eta, math.sqrt(2.0 * cfg.alpha)
    else:
        weights = spec.fixed_lambda.lam if spec.method == METHOD_LS_CEBM else uniform_weights(m).lam
        if weights.size != m:
            raise ShapeError(f"weights have m={weights.size}, objectives have m={m}")
        step_size, noise_scale = cfg.eta / 2.0, cfg.sigma
    summed = spec.method == METHOD_CEBM
    noise_on = cfg.noise_kind != NOISE_NONE and noise_scale > 0
    # With active noise the chain must keep exploring (Brownian regime); only
    # the noiseless min-norm dynamics stop, at a Pareto-stationary point.
    can_stop = weights is None and not noise_on

    results: list[Trajectory | Exception | None] = [None] * len(specs)
    rngs, starts, started = [], [], []
    fitting: set[RandomInit] = set()  # random inits whose shape and kind are checked
    for index, chain in enumerate(specs):
        init = chain.init
        rng = np.random.default_rng(chain.config.seed)
        try:
            if isinstance(init, RandomInit):
                coords = init.draw(rng)
                if init not in fitting:
                    _check_start(objectives, init.dim, init.kind)
                    fitting.add(init)
            else:
                coords = init.coords
                _check_start(objectives, init.d, init.kind)
        except Exception as exc:  # noqa: BLE001 - a bad start fails only its own chain
            results[index] = exc
            continue
        starts.append(coords)
        rngs.append(rng)
        started.append(index)
    if not started:
        return results

    last, every = cfg.steps, cfg.record_every
    schedule = np.array([*range(0, last + 1, every), *([last] if last % every else [])], dtype=np.int64)
    X = np.array(starts)
    n, d = X.shape
    # Recorded rows, per chain: row i of a running chain is schedule[i]. With
    # final_x_only every record overwrites the one coordinate row.
    X_rec = np.empty((n, 1 if final_x_only else schedule.size, d))
    F_rec = np.empty((n, schedule.size, m))
    lam_rec = np.empty((n, schedule.size, m))
    norm_rec = np.empty((n, schedule.size))
    rows = np.full(n, schedule.size)
    termination: list[int | None] = [None] * n
    x_bad = np.full(n, -1, dtype=np.int64)  # first recorded step with non-finite coordinates
    active = np.arange(n)  # batch positions of the running chains, the rows of X
    noise, used = None, 0
    row = 0

    def drop(gone: np.ndarray) -> None:
        """Take the chains flagged in ``gone`` out of the running state."""
        nonlocal X, active, rngs, noise
        keep = ~gone
        X, active = X[keep], active[keep]
        rngs = [rng for rng, k in zip(rngs, keep.tolist()) if k]
        if noise is not None:
            noise = noise[keep]

    def fail(gone: np.ndarray, message: str) -> None:
        for pos in active[gone].tolist():
            results[started[pos]] = ValueError(message)
        drop(gone)

    # A DesignPoint start is finite by construction; drawn starts are checked here.
    bad = ~np.all(np.isfinite(X), axis=1)
    if bad.any():
        fail(bad, "coords must be finite (no NaN/Inf)")
    # Divergence shows up as non-finite gradients, which fail their chain at
    # that step; the interim overflow itself is not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(last + 1):
            if not active.size:
                break
            if step:
                X = X - step_size * g
                if noise_on:
                    if noise is None or used == noise.shape[1]:
                        # Each chain draws its own block, the same stream as one
                        # draw per step, so the block size cannot change a result.
                        k = min(_noise_block_steps(len(rngs), d), last - step + 1)
                        noise = None  # free the spent block before allocating the next
                        noise = np.empty((len(rngs), k, d))
                        for j, rng in enumerate(rngs):
                            noise[j] = _draw_unit(rng, cfg.noise_kind, (k, d))
                        used = 0
                    X = X + noise_scale * noise[:, used]
                    used += 1
            values, grads = objectives.eval_batch(X)
            if not np.isfinite(grads).all():
                bad = ~np.all(np.isfinite(grads), axis=(1, 2))
                values, grads = values[~bad], grads[~bad]
                fail(bad, f"gradients must be finite (no NaN/Inf); step {step} is not")
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
                g = weights @ grads
            record = step % every == 0 or step == last
            stop = norm < cfg.grad_tol if can_stop and step < last else None
            stopping = stop is not None and stop.any()
            if record or stopping:
                sel = slice(None) if record else stop
                at = active[sel]
                x = X[sel]
                X_rec[at, 0 if final_x_only else row] = x
                nonfinite = ~np.all(np.isfinite(x), axis=1)
                if nonfinite.any():
                    first = at[nonfinite]
                    x_bad[first[x_bad[first] < 0]] = step
                F_rec[at, row] = values[sel]
                if weights is None:
                    lam_rec[at, row] = lam[sel]
                    norm_rec[at, row] = norm[sel]
                else:
                    lam_rec[at, row] = weights
                    norm_rec[at, row] = np.sqrt(np.vecdot(g, g))
            if stopping:
                for pos in active[stop].tolist():
                    rows[pos] = row + 1
                    termination[pos] = step
                g = g[~stop]
                drop(stop)
            if record:
                row += 1

    # Validate the batch's columns once, as the Trajectory constructor would
    # each chain's: coordinates, then objective values, then weights, each
    # at its first non-finite record. Rows past a chain's count are unset.
    written = np.arange(schedule.size) < rows[:, None]
    f_bad = written & ~np.all(np.isfinite(F_rec), axis=2)
    lam_bad = written & ~np.all(np.isfinite(lam_rec), axis=2)
    invalid = (x_bad >= 0) | f_bad.any(axis=1) | lam_bad.any(axis=1)
    # A chain gets views of read-only owners, never an owner itself, so
    # setflags(write=True) raises on each of its columns.
    for column in (schedule, X_rec, F_rec, lam_rec, norm_rec):
        column.setflags(write=False)
    for pos, index in enumerate(started):
        if results[index] is not None:
            continue
        end, stopped_at = rows[pos], termination[pos]
        steps = schedule if stopped_at is None else np.append(schedule[: end - 1], stopped_at)
        if invalid[pos]:
            if x_bad[pos] >= 0:
                name, at_step = "coords", x_bad[pos]
            elif f_bad[pos].any():
                name, at_step = "objective values", steps[np.argmax(f_bad[pos])]
            else:
                name, at_step = "weights", steps[np.argmax(lam_bad[pos])]
            results[index] = ValueError(f"{name} must be finite (no NaN/Inf); step {at_step} is not")
            continue
        steps.setflags(write=False)
        results[index] = Trajectory._view(
            steps[:], X_rec[pos] if final_x_only else X_rec[pos, :end], F_rec[pos, :end],
            lam_rec[pos, :end], norm_rec[pos, :end],
            terminated_early=stopped_at is not None,
            termination_step=stopped_at,
        )
    return results


def _check_method(spec: ChainSpec, method: str, runner: str) -> None:
    if spec.method != method:
        raise ConfigError(f"{runner} got method {spec.method!r}")


def run_mgd(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """Multiple gradient descent: x <- x - eta * g with g the min-norm
    direction; terminates once ||g|| falls below grad_tol."""
    _check_method(spec, METHOD_MGD, "run_mgd")
    return run_chain(objectives, spec)


def run_pcebm(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """Pareto-compositional Langevin chain: min-norm drift plus sqrt(2*alpha)
    times a standard noise draw; weights are re-solved at every step.

    With alpha = 0 (or noise_kind 'none') this is exactly the mgd chain, so
    the trajectories agree bit for bit.
    """
    _check_method(spec, METHOD_PCEBM, "run_pcebm")
    return run_chain(objectives, spec)


def run_cebm(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """Langevin dynamics on the unweighted sum energy:
    x <- x - (eta/2) * sum_i grad f_i + noise(sigma)."""
    _check_method(spec, METHOD_CEBM, "run_cebm")
    return run_chain(objectives, spec)


def run_ls_cebm(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """As run_cebm with the fixed preference weights in place of the plain sum."""
    _check_method(spec, METHOD_LS_CEBM, "run_ls_cebm")
    return run_chain(objectives, spec)


def run_chain(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """Run the sampler named by spec.method; a failed chain raises its error."""
    [result] = _run_batch(objectives, [spec])
    if isinstance(result, Exception):
        raise result
    return result


# Every config field except the seed; chains that share these batch together.
_batch_config = attrgetter(*(f.name for f in fields(SamplerConfig) if f.name != "seed"))


def run_population(
    objectives: ObjectiveSet, specs: Sequence[ChainSpec], *, final_x_only: bool = False
) -> list[Trajectory | ChainFailure]:
    """Run many independent chains; results come back in input order.

    Chains that share a method, every config field but the seed, and the
    fixed weights run as one batch. A failing chain yields a ChainFailure
    entry tagged with its index and does not disturb its siblings. With
    ``final_x_only`` each trajectory's X keeps only the chain's last
    recorded row (the final point); every other column keeps all records.
    """
    batches: dict[tuple, list[int]] = {}
    for index, spec in enumerate(specs):
        key = (spec.method, _batch_config(spec.config), spec.fixed_lambda)
        batches.setdefault(key, []).append(index)
    results: list[Trajectory | ChainFailure | None] = [None] * len(specs)
    for indices in batches.values():
        try:
            batch = _run_batch(objectives, [specs[i] for i in indices], final_x_only)
        except Exception as exc:  # noqa: BLE001 - failures are per-chain data
            batch = [exc] * len(indices)
        for index, result in zip(indices, batch):
            results[index] = ChainFailure(index, result) if isinstance(result, Exception) else result
    return results


def write_trajectories(
    path,
    trajectories: Sequence[Trajectory],
    objective_names: Sequence[str] | None = None,
    chain_ids: Sequence[int] | None = None,
) -> None:
    """Export trajectories as CSV: one record per line with fields
    (chain_id, step, objective values..., lambda..., grad_norm).

    The bytes are those of the csv module's default writer: ``\\r\\n`` line
    ends, ``repr`` floats and plain integer chain ids and steps (exact below
    2**53). The columns are stacked and formatted in one pass.
    """
    if not trajectories:
        raise ValueError("nothing to export")
    m = trajectories[0].m
    if objective_names is None:
        objective_names = [f"f{i}" for i in range(m)]
    if len(objective_names) != m:
        raise ShapeError(f"need {m} objective names, got {len(objective_names)}")
    if chain_ids is None:
        chain_ids = range(len(trajectories))
    if len(chain_ids) != len(trajectories):
        raise ShapeError(f"got {len(chain_ids)} chain ids for {len(trajectories)} trajectories")
    if any(traj.m != m for traj in trajectories):
        raise ShapeError("all trajectories must share the objective count m")
    table = np.column_stack([
        np.repeat(chain_ids, [len(t) for t in trajectories]),
        np.concatenate([t.steps for t in trajectories]),
        np.concatenate([t.F for t in trajectories]),
        np.concatenate([t.lam for t in trajectories]),
        np.concatenate([t.grad_norm for t in trajectories]),
    ])
    record = "%d,%d," + ",".join(["%r"] * (2 * m + 1)) + "\r\n"
    body = (record * len(table)) % tuple(table.ravel().tolist())
    header = ["chain_id", "step", *objective_names, *[f"lambda{i}" for i in range(m)], "grad_norm"]
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write(body)
