"""The four chain algorithms over any objective set: multiple gradient
descent (mgd), Langevin dynamics on the summed energy (cebm), its linearly
scalarized variant (ls_cebm), and the Pareto-compositional chain (pcebm)
whose drift is the min-norm common-descent direction.

All four run one chain loop. Each step moves x <- x - step * drift + scale * w
with w a unit-variance noise draw; the method fixes the three parameters:

- drift: the min-norm direction of the per-objective gradients, re-solved
  every step (mgd, pcebm), or a fixed-weight gradient combination, the
  plain sum for cebm and ``lambda @ grads`` for ls_cebm;
- step: eta for the min-norm methods, eta/2 for the Langevin ones;
- noise scale: sqrt(2*alpha) for pcebm, sigma for cebm/ls_cebm, none for mgd.

Noiseless min-norm chains stop early at a Pareto-stationary point. The loop
writes the recorded states into preallocated columns (``Trajectory``).

Every sampler is a pure function of (objectives, chain spec): a chain's
noise stream comes only from its own config seed, so populations reproduce
exactly whatever order their chains run in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
from .moo import solve_min_norm

METHOD_MGD = "mgd"
METHOD_CEBM = "cebm"
METHOD_LS_CEBM = "ls_cebm"
METHOD_PCEBM = "pcebm"
METHODS = (METHOD_MGD, METHOD_CEBM, METHOD_LS_CEBM, METHOD_PCEBM)

_SQRT3 = math.sqrt(3.0)


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

    def realize(self, rng: np.random.Generator) -> DesignPoint:
        d = self.d if self.kind == RAW else self.L * self.A
        if self.distribution == "normal":
            coords = self.scale * rng.standard_normal(d)
        else:
            coords = rng.uniform(-self.scale, self.scale, d)
        if self.kind == RAW:
            return DesignPoint(coords)
        return DesignPoint(coords, kind=SEQUENCE_LOGITS, L=self.L, A=self.A)


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


def _start(objectives: ObjectiveSet, spec: ChainSpec, rng: np.random.Generator) -> DesignPoint:
    point = spec.init.realize(rng) if isinstance(spec.init, RandomInit) else spec.init
    if point.d != objectives.d:
        raise ShapeError(f"init point has d={point.d}, objectives expect d={objectives.d}")
    if point.kind != objectives.point_kind:
        raise WrongKindError(
            f"init point kind {point.kind!r} does not match objectives ({objectives.point_kind!r})"
        )
    return point


def _draw_unit(rng: np.random.Generator, noise_kind: str, d: int) -> np.ndarray:
    """A unit-variance-per-coordinate draw of the configured noise shape."""
    if noise_kind == NOISE_GAUSSIAN:
        return rng.standard_normal(d)
    if noise_kind == NOISE_UNIFORM:
        return rng.uniform(-_SQRT3, _SQRT3, d)
    raise ConfigError(f"cannot draw noise of kind {noise_kind!r}")


def _run_loop(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """Run one chain of any method; see the module docstring for the update."""
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

    rng = np.random.default_rng(cfg.seed)
    x = np.array(_start(objectives, spec, rng).coords)
    last, every = cfg.steps, cfg.record_every
    n = 1 + last // every + (last % every != 0)
    steps = np.empty(n, dtype=np.int64)
    X = np.empty((n, x.size))
    F = np.empty((n, m))
    lam = np.empty((n, m))
    grad_norm = np.empty(n)
    row = 0
    unconverged = 0
    termination_step = None
    # Divergence shows up as non-finite coordinates and is rejected when the
    # trajectory is built; the interim overflow itself is not worth a warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(last + 1):
            if step:
                x = x - step_size * g
                if noise_on:
                    x = x + noise_scale * _draw_unit(rng, cfg.noise_kind, x.size)
            values, grads = objectives.eval_raw(x)
            if weights is None:
                res = solve_min_norm(grads)
                g = res.direction
                unconverged += not res.converged
            elif summed:
                # Sequential accumulation keeps the reduction order bit-stable.
                g = grads[0]
                for grad in grads[1:]:
                    g = g + grad
            else:
                g = weights @ grads
            stop = can_stop and step < last and res.norm < cfg.grad_tol
            if stop or step % every == 0 or step == last:
                steps[row] = step
                X[row] = x
                F[row] = values
                if weights is None:
                    lam[row] = res.lam
                    grad_norm[row] = res.norm
                else:
                    lam[row] = weights
                    grad_norm[row] = np.linalg.norm(g)
                row += 1
            if stop:
                termination_step = step
                break
    if row < n:
        steps, X, F, lam, grad_norm = (a[:row].copy() for a in (steps, X, F, lam, grad_norm))
    return Trajectory(
        steps, X, F, lam, grad_norm,
        terminated_early=termination_step is not None,
        termination_step=termination_step,
        unconverged_solves=unconverged,
    )


def _check_method(spec: ChainSpec, method: str, runner: str) -> None:
    if spec.method != method:
        raise ConfigError(f"{runner} got method {spec.method!r}")


def run_mgd(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """Multiple gradient descent: x <- x - eta * g with g the min-norm
    direction; terminates once ||g|| falls below grad_tol."""
    _check_method(spec, METHOD_MGD, "run_mgd")
    return _run_loop(objectives, spec)


def run_pcebm(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """Pareto-compositional Langevin chain: min-norm drift plus sqrt(2*alpha)
    times a standard noise draw; weights are re-solved at every step.

    With alpha = 0 (or noise_kind 'none') this is exactly the mgd chain, so
    the trajectories agree bit for bit.
    """
    _check_method(spec, METHOD_PCEBM, "run_pcebm")
    return _run_loop(objectives, spec)


def run_cebm(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """Langevin dynamics on the unweighted sum energy:
    x <- x - (eta/2) * sum_i grad f_i + noise(sigma)."""
    _check_method(spec, METHOD_CEBM, "run_cebm")
    return _run_loop(objectives, spec)


def run_ls_cebm(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """As run_cebm with the fixed preference weights in place of the plain sum."""
    _check_method(spec, METHOD_LS_CEBM, "run_ls_cebm")
    return _run_loop(objectives, spec)


def run_chain(objectives: ObjectiveSet, spec: ChainSpec) -> Trajectory:
    """Run the sampler named by spec.method."""
    return _run_loop(objectives, spec)


def run_population(objectives: ObjectiveSet, specs: Sequence[ChainSpec]) -> list[Trajectory | ChainFailure]:
    """Run many independent chains; results come back in input order.

    A failing chain yields a ChainFailure entry tagged with its index and
    does not disturb its siblings.
    """
    results: list[Trajectory | ChainFailure] = []
    for index, spec in enumerate(specs):
        try:
            results.append(run_chain(objectives, spec))
        except Exception as exc:  # noqa: BLE001 - failures are per-chain data
            results.append(ChainFailure(index, exc))
    return results


def write_trajectories(
    path,
    trajectories: Sequence[Trajectory],
    objective_names: Sequence[str] | None = None,
    chain_ids: Sequence[int] | None = None,
) -> None:
    """Export trajectories as CSV: one record per line with fields
    (chain_id, step, objective values..., lambda..., grad_norm)."""
    if not trajectories:
        raise ValueError("nothing to export")
    m = trajectories[0].m
    if objective_names is None:
        objective_names = [f"f{i}" for i in range(m)]
    if len(objective_names) != m:
        raise ShapeError(f"need {m} objective names, got {len(objective_names)}")
    if chain_ids is None:
        chain_ids = range(len(trajectories))
    header = ["chain_id", "step", *objective_names, *[f"lambda{i}" for i in range(m)], "grad_norm"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for cid, traj in zip(chain_ids, trajectories):
            if traj.m != m:
                raise ShapeError("all trajectories must share the objective count m")
            for step, values, weights, grad_norm in zip(
                traj.steps.tolist(), traj.F.tolist(), traj.lam.tolist(), traj.grad_norm.tolist()
            ):
                writer.writerow([cid, step, *values, *weights, grad_norm])
