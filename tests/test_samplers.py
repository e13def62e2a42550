import csv
import gc
import platform
import re
import resource
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from paretoebm import samplers
from paretoebm.core import (
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
from paretoebm.energy import EnergyModel, MlpEnergy, ObjectiveSet, PwmEnergy, ShiftedQuadratic
from paretoebm.moo import pareto_filter
from paretoebm.problems import get_problem
from paretoebm.samplers import (
    ChainFailure,
    RandomInit,
    chain_seed,
    run_chain,
    run_population,
    write_trajectories,
)


def opposing_quadratics(a=(1.0, 0.0)):
    a = np.array(a)
    return ObjectiveSet([ShiftedQuadratic(a), ShiftedQuadratic(-a)])


def four_quadratics():
    """Quadratics centered on the corners of a quadrilateral in d = 2. With
    m = 4 the min-norm drift comes from the support enumeration."""
    return ObjectiveSet([ShiftedQuadratic(c) for c in ([2.0, 0.0], [-2.0, 0.0], [0.0, 2.0], [1.0, -2.0])])


def trajectories_equal(t1, t2):
    return (
        np.array_equal(t1.steps, t2.steps)
        and np.array_equal(t1.X, t2.X)
        and np.array_equal(t1.F, t2.F)
        and np.array_equal(t1.lam, t2.lam)
        and np.array_equal(t1.grad_norm, t2.grad_norm)
    )


def run_alone(objectives, specs, j):
    """Chain j of a ChainSpecs, run alone by run_chain."""
    start = specs.starts if isinstance(specs.starts, RandomInit) else DesignPoint(specs.starts[j])
    return run_chain(
        objectives, specs.method, specs.config, start, seed=int(specs.seeds[j]), fixed_lambda=specs.fixed_lambda
    )


def reversed_specs(specs):
    """The same chains as ``specs``, in reverse order."""
    starts = specs.starts if isinstance(specs.starts, RandomInit) else specs.starts[::-1]
    return replace(specs, starts=starts, seeds=specs.seeds[::-1])


class TestMgd:
    def test_terminates_immediately_at_pareto_point(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=50, noise_kind="none")
        traj = run_chain(objs, "mgd", cfg, DesignPoint([0.0, 0.0]))
        assert traj.terminated_early and traj.termination_step == 0
        assert len(traj) == 1
        assert np.array_equal(traj.X[-1], [0.0, 0.0])

    def test_descends_shared_component_only(self):
        # From (0, 5) both gradients share the (0, 2*x2) component; the first
        # coordinate never moves and the chain limits to the origin.
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=500, noise_kind="none")
        traj = run_chain(objs, "mgd", cfg, DesignPoint([0.0, 5.0]))
        xs = traj.X
        assert np.all(xs[:, 0] == 0.0)
        diffs = np.abs(np.diff(xs[:, 1]))
        assert np.all(np.diff(np.abs(xs[:, 1])) <= 0)
        assert abs(traj.X[-1, 1]) < 1e-4
        assert traj.terminated_early

    def test_single_objective_reduces_to_gradient_descent(self):
        objs = ObjectiveSet([ShiftedQuadratic([1.0, -1.0])])
        cfg = SamplerConfig(eta=0.05, steps=40, noise_kind="none")
        traj = run_chain(objs, "mgd", cfg, DesignPoint([3.0, 3.0]))
        center = np.array([1.0, -1.0])
        x = np.array([3.0, 3.0])
        expect = [x.copy()]
        for _ in range(traj.steps[-1]):
            x = x - 0.05 * (2.0 * (x - center))
            expect.append(x.copy())
        assert np.array_equal(traj.X, [expect[step] for step in traj.steps])


class TestCebm:
    def test_noiseless_matches_sum_gradient_descent(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=100, sigma=0.0)
        traj = run_chain(objs, "cebm", cfg, DesignPoint([3.0, -2.0]), seed=5)
        x = np.array([3.0, -2.0])
        expect = {0: x.copy()}
        for k in range(1, 101):
            g = objs.models[0].eval_batch(x[None])[1][0]
            for model in objs.models[1:]:
                g = g + model.eval_batch(x[None])[1][0]
            x = x - (0.1 / 2.0) * g
            expect[k] = x.copy()
        assert np.array_equal(traj.X, [expect[step] for step in traj.steps])
        assert np.allclose(traj.X[-1], [0.0, 0.0], atol=1e-6)

    def test_noiseless_converges_to_sum_minimizer(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.2, steps=200, sigma=0.0)
        traj = run_chain(objs, "cebm", cfg, RandomInit(d=2, scale=3.0), seed=1)
        assert np.allclose(traj.X[-1], [0.0, 0.0], atol=1e-8)

    def test_seed_determinism(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.05, steps=40, sigma=0.3)
        args = (objs, "cebm", cfg, RandomInit(d=2))
        assert trajectories_equal(run_chain(*args, seed=11), run_chain(*args, seed=11))

    def test_records_uniform_weights(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=3, sigma=0.0)
        traj = run_chain(objs, "cebm", cfg, DesignPoint([1.0, 1.0]))
        assert np.array_equal(traj.lam, np.full((len(traj), 2), 0.5))

    def test_no_early_termination(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=25, sigma=0.0)
        traj = run_chain(objs, "cebm", cfg, DesignPoint([0.0, 0.0]))
        assert not traj.terminated_early
        assert traj.steps[-1] == 25


class TestLsCebm:
    def test_uniform_lambda_equals_cebm_with_scaled_eta(self):
        objs = opposing_quadratics()
        x0 = DesignPoint([2.0, 1.0])
        ls_cfg = SamplerConfig(eta=0.2, steps=50, sigma=0.1)
        ce_cfg = SamplerConfig(eta=0.1, steps=50, sigma=0.1)
        ls = run_chain(objs, "ls_cebm", ls_cfg, x0, fixed_lambda=uniform_weights(2), seed=3)
        ce = run_chain(objs, "cebm", ce_cfg, x0, seed=3)
        assert np.array_equal(ls.steps, ce.steps)
        assert np.allclose(ls.X, ce.X, rtol=1e-12, atol=1e-14)

    def test_vertex_lambda_minimizes_single_objective(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.2, steps=300, sigma=0.0)
        lam = SimplexWeights([1.0, 0.0])
        traj = run_chain(objs, "ls_cebm", cfg, RandomInit(d=2, scale=2.0), fixed_lambda=lam, seed=0)
        assert np.allclose(traj.X[-1], [1.0, 0.0], atol=1e-8)

    def test_lambda_length_checked_at_run(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=5, sigma=0.0)
        with pytest.raises(ShapeError):
            run_chain(objs, "ls_cebm", cfg, DesignPoint([0.0, 0.0]), fixed_lambda=SimplexWeights([1.0]))


class TestPcebm:
    def test_zero_alpha_is_bit_identical_to_mgd(self):
        objs = opposing_quadratics()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x0 = DesignPoint(rng.normal(size=2))
            mgd_cfg = SamplerConfig(eta=0.07, steps=80, noise_kind="none")
            pc_cfg = SamplerConfig(eta=0.07, steps=80, noise_kind="gaussian", alpha=0.0)
            t1 = run_chain(objs, "mgd", mgd_cfg, x0, seed=seed)
            t2 = run_chain(objs, "pcebm", pc_cfg, x0, seed=seed)
            assert trajectories_equal(t1, t2)
            assert t1.terminated_early == t2.terminated_early

    def test_seed_determinism(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.05, steps=60, alpha=0.01)
        args = (objs, "pcebm", cfg, RandomInit(d=2))
        assert trajectories_equal(run_chain(*args, seed=21), run_chain(*args, seed=21))

    def test_noise_keeps_chain_running_past_pareto_points(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.05, steps=30, alpha=0.02)
        traj = run_chain(objs, "pcebm", cfg, DesignPoint([0.0, 0.0]), seed=2)
        assert not traj.terminated_early
        assert traj.steps[-1] == 30

    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    def test_brownian_displacement_near_pareto_set(self, noise_kind):
        # Near the trade-off segment the drift vanishes, so per-step mean
        # squared displacement approaches 2 * alpha * d.
        objs = opposing_quadratics()
        alpha, d, steps = 0.01, 2, 8000
        cfg = SamplerConfig(eta=1e-4, steps=steps, noise_kind=noise_kind, alpha=alpha)
        traj = run_chain(objs, "pcebm", cfg, DesignPoint([0.0, 0.0]), seed=9)
        pts = traj.X
        msd = float(np.mean(np.sum(np.diff(pts, axis=0) ** 2, axis=1)))
        assert msd == pytest.approx(2.0 * alpha * d, rel=0.05)

    def test_lambda_resolved_every_step(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.05, steps=40, alpha=0.02)
        traj = run_chain(objs, "pcebm", cfg, DesignPoint([0.5, 2.0]), seed=4)
        lams = traj.lam
        assert len(np.unique(lams[:, 0])) > 5


# Centers of the quadratic objectives ||x - c_i||^2 at d = 3: the first m
# rows. Their affine hull is a point, the x axis and the z = 0 plane.
STATIONARY_CENTERS = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
STATIONARY_WEIGHTS = {1: [1.0], 2: [0.25, 0.75], 3: [0.2, 0.3, 0.5]}
STATIONARY_CASES = [
    (method, m, noise)
    for method in ("cebm", "ls_cebm", "pcebm")
    for m in (1, 2, 3)
    for noise in ("gaussian", "uniform")
]


class TestStationaryMoments:
    """On sum_i w_i ||x - c_i||^2 the Langevin samplers are linear AR(1)
    chains, x_j <- x_j - h c (x_j - mu_j) + s w, whose stationary law has mean
    mu_j and variance s^2 / (1 - (1 - h c)^2) exactly, in discrete time:

    - cebm: h = eta / 2, c = 2 m (every w_i = 1), s = sigma, mu = mean of the
      centers, on every coordinate;
    - ls_cebm: h = eta / 2, c = 2 (w = its fixed weights), s = sigma,
      mu = sum_i w_i c_i, on every coordinate;
    - pcebm: its drift, the min-norm point of conv{2 (x - c_i)}, is
      2 (x - P(x)) with P the projection onto conv{c_i}; on each coordinate
      orthogonal to the centers' affine hull that is 2 (x_j - c_j), so
      h = eta, c = 2, s = sqrt(2 alpha), mu_j the centers' common c_j.

    Each chain's last state is one independent draw; every compared
    coordinate's sample mean and variance must lie within 4 standard errors
    of the exact values. The variance's standard error uses the stationary
    law's own fourth moment: kurtosis 3 under gaussian noise, and under
    uniform noise (kurtosis 9/5) 3 - 1.2 (1 - rho^2) / (1 + rho^2), with
    rho = 1 - h c, since the fourth cumulant of sum_k rho^k w_k sums as
    rho^4k. The seeds and this bound were fixed before the first run.
    """

    CHAINS, STEPS, ETA, SIGMA, ALPHA, BOUND = 4000, 40, 0.2, 0.5, 0.1, 4.0

    @pytest.mark.parametrize(
        "case", range(len(STATIONARY_CASES)), ids=["-".join(map(str, case)) for case in STATIONARY_CASES]
    )
    def test_moments_match_the_exact_ar1_law(self, case):
        method, m, noise = STATIONARY_CASES[case]
        centers, weights = STATIONARY_CENTERS[:m], np.array(STATIONARY_WEIGHTS[m])
        objectives = ObjectiveSet([ShiftedQuadratic(c) for c in centers])
        cfg = SamplerConfig(
            eta=self.ETA, steps=self.STEPS, noise_kind=noise, sigma=self.SIGMA, alpha=self.ALPHA,
            record_every=self.STEPS,
        )
        if method == "pcebm":
            # The coordinates orthogonal to the centers' affine hull.
            h, c, s2, coords, mu = self.ETA, 2.0, 2.0 * self.ALPHA, {1: [0, 1, 2], 2: [1, 2], 3: [2]}[m], centers[0]
        elif method == "cebm":
            h, c, s2, coords, mu = self.ETA / 2, 2.0 * m, self.SIGMA**2, [0, 1, 2], centers.mean(axis=0)
        else:
            h, c, s2, coords, mu = self.ETA / 2, 2.0, self.SIGMA**2, [0, 1, 2], weights @ centers
        rho = 1.0 - h * c
        # The start (unit normal draws) is forgotten up to rho^steps.
        assert abs(rho) ** self.STEPS < 1e-3
        variance = s2 / (1.0 - rho**2)
        kurtosis = 3.0 if noise == "gaussian" else 3.0 - 1.2 * (1.0 - rho**2) / (1.0 + rho**2)
        n = self.CHAINS
        specs = samplers.ChainSpecs(
            method, cfg, RandomInit(d=3), samplers.chain_seeds(2026, range(case * n, (case + 1) * n)),
            SimplexWeights(weights) if method == "ls_cebm" else None,
        )
        results = run_population(objectives, specs, final_x_only=True)
        X = results.finals()[2]
        mean_se = np.sqrt(variance / n)
        var_se = variance * np.sqrt((kurtosis - (n - 3) / (n - 1)) / n)
        for j in coords:
            sample = X[:, j]
            assert abs(sample.mean() - mu[j]) <= self.BOUND * mean_se, (j, sample.mean(), mu[j], mean_se)
            assert abs(sample.var(ddof=1) - variance) <= self.BOUND * var_se, (j, sample.var(ddof=1), variance, var_se)


class TestRunPopulation:
    def test_failures_tagged_and_isolated(self):
        objs = opposing_quadratics()
        starts = [[1.0, 1.0], [np.nan, 1.0], [1.0, 1.0]]
        specs = samplers.ChainSpecs("cebm", SamplerConfig(eta=0.1, steps=10, sigma=0.0), starts, [1] * 3)
        results = run_population(objs, specs)
        assert not isinstance(results[0], ChainFailure)
        assert isinstance(results[1], ChainFailure)
        assert results[1].index == 1
        assert str(results[1].error) == "coords must be finite (no NaN/Inf); step 0 is not"
        assert not isinstance(results[2], ChainFailure)

    @pytest.mark.parametrize("problem,eta", [("opposing-quadratics", 40.0), ("tri-quadratic", 5.0)])
    def test_divergence_between_records_fails_the_chain(self, problem, eta):
        # Only steps 0 and 400 are recorded; the chain overflows in between.
        objectives = get_problem(problem)
        cfg = SamplerConfig(eta=eta, steps=400, sigma=0.0, record_every=400)
        [result] = run_population(objectives, samplers.ChainSpecs("cebm", cfg, RandomInit(d=objectives.d), [3]))
        assert isinstance(result, ChainFailure)
        assert isinstance(result.error, ValueError)

    def test_pcebm_population_produces_a_front(self):
        objectives = get_problem("fonseca-fleming")
        cfg = SamplerConfig(eta=0.01, steps=120, record_every=120)
        specs = samplers.ChainSpecs("pcebm", cfg, RandomInit(d=3), samplers.chain_seeds(7, range(256)))
        results = run_population(objectives, specs)
        finals = [t.F[-1] for t in results]
        assert len(pareto_filter(finals)) >= 10

    def test_a_list_of_chain_specs_is_a_type_error(self):
        cfg = SamplerConfig(eta=0.1, steps=3, sigma=0.0)
        specs = samplers.ChainSpecs("cebm", cfg, [[1.0, 1.0]] * 2, [0, 1])
        for population in ([specs], [specs, specs], [], (specs,), list(specs.starts), specs.starts):
            with pytest.raises(TypeError, match="run_population runs one ChainSpecs"):
                run_population(opposing_quadratics(), population)

    def test_chain_seed_is_stable(self):
        assert chain_seed(42, 0) == chain_seed(42, 0)
        assert chain_seed(42, 0) != chain_seed(42, 1)
        assert chain_seed(42, 1) != chain_seed(43, 1)


SEED_BASES = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 3]
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def random_uint64s(count, seed):
    return np.random.default_rng(seed).integers(0, 2**64, count, dtype=np.uint64).tolist()


class TestSeeding:
    """The vectorized seeding reproduces numpy's SeedSequence and PCG64
    seeding word for word."""

    @pytest.mark.parametrize("base", SEED_BASES)
    def test_chain_seeds_match_seed_sequence(self, base):
        indices = [0, 1, 2**32 - 1, 2**32, *random_uint64s(1000, base % 997)]
        expected = [
            int(np.random.SeedSequence(entropy=base, spawn_key=(i,)).generate_state(1, np.uint64)[0])
            for i in indices
        ]
        seeds = samplers.chain_seeds(base, indices)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == expected
        assert [chain_seed(base, i) for i in indices[:8]] == expected[:8]

    @pytest.mark.parametrize("indices", [[-1], [2**64], [0.5]])
    def test_chain_seeds_reject_indices_outside_uint64(self, indices):
        with pytest.raises((ValueError, TypeError)):
            samplers.chain_seeds(0, indices)

    def test_chain_seed_rejects_a_negative_base(self):
        with pytest.raises(ValueError, match="non-negative"):
            chain_seed(-1, 0)

    def test_generators_match_default_rng_seeding(self):
        seeds = [*EDGE_SEEDS, *random_uint64s(1000, 5)]
        for seed, rng in zip(seeds, samplers._generators(seeds), strict=True):
            assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

    def test_seed_words_refuse_other_requests(self):
        words = samplers._words_type()(np.zeros(4, dtype=np.uint64))
        with pytest.raises(ValueError):
            words.generate_state(2, np.uint64)
        with pytest.raises(ValueError):
            words.generate_state(4, np.uint32)

    @pytest.mark.parametrize("method,noise_kind", [("pcebm", "gaussian"), ("cebm", "uniform")])
    def test_edge_seed_batch_matches_solo_chains(self, method, noise_kind):
        objectives = quadratic_pair(5)
        cfg = SamplerConfig(eta=0.05, steps=12, noise_kind=noise_kind)
        specs = samplers.ChainSpecs(method, cfg, RandomInit(d=5), EDGE_SEEDS)
        batch = run_population(objectives, specs)
        for j, result in enumerate(batch):
            assert_same_chain(result, run_alone(objectives, specs, j))
            start = np.random.default_rng(EDGE_SEEDS[j]).standard_normal(5)
            assert np.array_equal(result.X[0], start)


def assert_same_chain(result, solo):
    assert trajectories_equal(result, solo)
    assert result.terminated_early == solo.terminated_early
    assert result.termination_step == solo.termination_step


def count_batches(monkeypatch):
    """Record the chain count of every ``_run_batch`` call; returns the list."""
    calls, run_batch = [], samplers._run_batch

    def counting(objectives, specs, final_x_only=False):
        calls.append(len(specs))
        return run_batch(objectives, specs, final_x_only)

    monkeypatch.setattr(samplers, "_run_batch", counting)
    return calls


def quadratic_pair(d):
    return ObjectiveSet([ShiftedQuadratic(np.full(d, 0.5)), ShiftedQuadratic(np.linspace(-1.0, 1.0, d))])


BATCH_OBJECTIVES = {
    # name -> (objectives, eta, steps, record_every)
    "fonseca-fleming": (get_problem("fonseca-fleming"), 0.05, 30, 1),
    "tri-quadratic": (get_problem("tri-quadratic"), 0.05, 30, 1),
    "zdt3-like": (get_problem("zdt3-like"), 0.01, 20, 3),
    "mlp": (ObjectiveSet([MlpEnergy.random(16, d=40, seed=k, scale=0.3) for k in (1, 2)]), 0.1, 20, 1),
    "mlp-3": (ObjectiveSet([MlpEnergy.random(16, d=40, seed=k, scale=0.3) for k in (3, 4, 5)]), 0.1, 20, 1),
    "mlp-4": (ObjectiveSet([MlpEnergy.random(16, d=40, seed=k, scale=0.3) for k in (6, 7, 8, 9)]), 0.1, 20, 1),
    # Longer than one noise block, with records off the block boundaries.
    "long-chain": (quadratic_pair(1000), 0.01, 80, 7),
    # So wide that a noise block holds a single step.
    "wide": (quadratic_pair(40000), 0.01, 3, 1),
}
METHOD_NOISE = [
    ("mgd", "none"),
    *((method, noise) for method in ("cebm", "ls_cebm", "pcebm") for noise in ("gaussian", "uniform")),
]


def batch_specs(method, noise_kind, objectives, eta, steps, record_every, chains=4):
    """Chains of one method: drawn starts under gaussian noise or none, an
    array of fixed starts under uniform noise."""
    d, m = objectives.d, objectives.m
    fixed = SimplexWeights(np.arange(1.0, m + 1.0) / (m * (m + 1) / 2)) if method == "ls_cebm" else None
    cfg = SamplerConfig(eta=eta, steps=steps, noise_kind=noise_kind, record_every=record_every)
    if noise_kind == "uniform":
        starts = np.outer(np.arange(1.0, chains + 1.0) / 4, np.linspace(-1.0, 1.0, d))
    else:
        starts = RandomInit(d=d, scale=1.5)
    return samplers.ChainSpecs(method, cfg, starts, samplers.chain_seeds(17, range(chains)), fixed)


class TestBatchKernel:
    """run_population runs the chains of one ChainSpecs as a batch; every
    chain's result must not depend on the batch it ran in."""

    def test_noise_block_cases_cover_several_blocks_and_single_steps(self):
        _, _, steps, _ = BATCH_OBJECTIVES["long-chain"]
        assert samplers._noise_block_steps(4, 1000) < steps
        assert samplers._noise_block_steps(4, 40000) == 1

    @pytest.mark.parametrize("problem", sorted(BATCH_OBJECTIVES))
    @pytest.mark.parametrize("method,noise_kind", METHOD_NOISE)
    def test_batch_matches_solo_and_reversed_runs(self, method, noise_kind, problem):
        objectives, eta, steps, record_every = BATCH_OBJECTIVES[problem]
        specs = batch_specs(method, noise_kind, objectives, eta, steps, record_every)
        batch = run_population(objectives, specs)
        # The same starts and seeds, in reverse order, as one ChainSpecs.
        reversed_batch = list(run_population(objectives, reversed_specs(specs)))[::-1]
        for j, (result, reversed_result) in enumerate(zip(batch, reversed_batch, strict=True)):
            solo = run_alone(objectives, specs, j)
            assert_same_chain(result, solo)
            assert_same_chain(reversed_result, solo)

    @pytest.mark.parametrize(
        "problem,stationary", [("opposing-quadratics", [0.5, 0.0]), ("four-quadratics", [0.25, 0.0])]
    )
    def test_early_stop_inside_a_running_batch(self, problem, stationary):
        objectives = four_quadratics() if problem == "four-quadratics" else get_problem(problem)
        cfg = SamplerConfig(eta=0.05, steps=150, noise_kind="none", record_every=10)
        starts = [[0.0, 50.0], stationary, [0.0, 1.0], [0.3, 40.0]]
        specs = samplers.ChainSpecs("mgd", cfg, starts, [0] * len(starts))
        solo = [run_alone(objectives, specs, j) for j in range(len(specs))]
        assert solo[1].terminated_early and solo[1].termination_step == 0 and len(solo[1]) == 1
        assert not solo[0].terminated_early and not solo[3].terminated_early
        if problem == "opposing-quadratics":
            # Stops between records, after its siblings have moved on.
            assert solo[2].terminated_early and 0 < solo[2].termination_step < 150
            assert solo[2].termination_step % 10
        for result, alone in zip(run_population(objectives, specs), solo):
            assert_same_chain(result, alone)
            assert len(result) == len(alone)

    def test_mgd_stops_on_an_interior_pareto_stationary_point(self):
        # (0.6, 0.2) = 0.6 c0 + 0.3 c1 + 0.1 c2 lies inside the triangle of
        # the centers, so zero is in the hull of the gradients. A Frank-Wolfe
        # drift (norm 7e-5 at its default tolerance) kept this chain moving.
        objectives = get_problem("tri-quadratic")
        cfg = SamplerConfig(eta=0.05, steps=150, noise_kind="none", record_every=10)
        specs = samplers.ChainSpecs("mgd", cfg, [[0.0, 50.0], [0.6, 0.2]], [0, 0])
        batch = run_population(objectives, specs)
        stopped = batch[1]
        assert stopped.terminated_early and stopped.termination_step == 0 and len(stopped) == 1
        assert stopped.grad_norm[0] < 1e-12
        assert not batch[0].terminated_early
        for j, result in enumerate(batch):
            assert_same_chain(result, run_alone(objectives, specs, j))

    def test_up_to_three_objectives_solve_the_whole_batch_at_once(self, monkeypatch):
        rows, solve = [], samplers.min_norm_closed_form

        def counting(grads):
            rows.append(grads.shape[0])
            return solve(grads)

        monkeypatch.setattr(samplers, "min_norm_closed_form", counting)
        for problem in ("opposing-quadratics", "tri-quadratic"):
            objectives = get_problem(problem)
            specs = batch_specs("pcebm", "gaussian", objectives, 0.05, 10, 1)
            rows.clear()
            assert not run_population(objectives, specs).failures()
            # Steps 0 to 10, each one solve over all four running chains.
            assert rows == [len(specs)] * 11

    def test_diverging_min_norm_chain_fails_alone(self):
        # The chain started at y = 1e300 has the finite gradient 2y but the
        # value y^2 = inf, so it fails at its start, before its first move
        # (with eta = 1.5 mgd maps (0, y) to (0, -2y)). Its siblings
        # oscillate, stop at step 1, or stay finite.
        objectives = opposing_quadratics()
        cfg = SamplerConfig(eta=1.5, steps=40, noise_kind="none", record_every=40)
        starts = [[3.0, 0.0], [2.0, 0.0], [0.0, 1e300], [0.3, 1e-3]]
        specs = samplers.ChainSpecs("mgd", cfg, starts, [0] * len(starts))
        results = run_population(objectives, specs)
        failure = results[2]
        assert isinstance(failure, ChainFailure) and failure.index == 2
        assert isinstance(failure.error, ValueError)
        message = "objective values must be finite (no NaN/Inf); step 0 is not"
        assert str(failure.error) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            run_alone(objectives, specs, 2)
        assert results[1].termination_step == 1
        for index in (0, 1, 3):
            assert_same_chain(results[index], run_alone(objectives, specs, index))

    @pytest.mark.parametrize("method", ["mgd", "cebm"])
    def test_non_finite_gradient_fails_its_chain_alone(self, method):
        # On the ramp the coordinates and the value -x[0] stay finite while
        # the gradient turns infinite once x[0] > 0: the chain started at
        # -0.55 climbs there between two records, its siblings never do.
        d = 3
        objectives = ObjectiveSet([Ramp(d)])
        cfg = SamplerConfig(eta=0.2, steps=20, noise_kind="none", record_every=8)
        climb = cfg.eta if method == "mgd" else cfg.eta / 2
        x, first = -0.55, 0
        while x <= 0.0:
            x, first = x + climb, first + 1
        assert first % cfg.record_every
        starts = [np.r_[x0, np.zeros(d - 1)] for x0 in (-100.0, -0.55, -50.0)]
        specs = samplers.ChainSpecs(method, cfg, starts, [0] * 3)
        results = run_population(objectives, specs)
        message = f"gradients must be finite (no NaN/Inf); step {first} is not"
        assert isinstance(results[1], ChainFailure) and str(results[1].error) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            run_alone(objectives, specs, 1)
        for index in (0, 2):
            assert_same_chain(results[index], run_alone(objectives, specs, index))


def mixed_population():
    """One noiseless mgd batch with a failed start, a stop between records,
    a stop at step 0, and chains that run to the end."""
    objectives = get_problem("fonseca-fleming")
    calm = SamplerConfig(eta=0.2, steps=25, noise_kind="none", record_every=4, grad_tol=0.02)
    starts = [
        np.random.default_rng(1).standard_normal(3),
        [0.5, 0.2, 0.1],  # stops between records
        np.random.default_rng(3).uniform(-1.0, 1.0, 3),
        [1.0, np.inf, 1.0],  # fails at step 0
        [0.0, 0.0, 0.0],  # stops at step 0
        [-1.0, 0.4, 0.9],
        [0.9, -0.5, 0.1],
    ]
    return objectives, samplers.ChainSpecs("mgd", calm, starts, range(1, 8))


class TestChainSpecs:
    def test_starts_and_seeds_are_columns(self):
        cfg = SamplerConfig(eta=0.1, steps=3)
        given = np.array([[0, 1], [2, 3], [4, 5]])
        specs = samplers.ChainSpecs("cebm", cfg, given, [0, 2**64 - 1, 7])
        assert len(specs) == 3 and (specs.method, specs.config) == ("cebm", cfg)
        assert specs.seeds.dtype == np.uint64 and not specs.seeds.flags.writeable
        assert specs.seeds.tolist() == [0, 2**64 - 1, 7]
        assert specs.starts.dtype == np.float64 and not specs.starts.flags.writeable
        # A copy: the caller's array stays writable, and changing it later
        # does not change the specs.
        given[0, 0] = 9
        assert given.flags.writeable and specs.starts.tolist() == [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        init = RandomInit(d=2, scale=2.0)
        shared = samplers.ChainSpecs("cebm", cfg, init, [0, 1, 2, 3])
        assert shared.starts is init and len(shared) == 4

    @pytest.mark.parametrize("index", [0, -1, 3, np.int64(1)])
    def test_an_integer_index_is_a_type_error(self, index):
        # There is no object per chain to index.
        specs = samplers.ChainSpecs("cebm", SamplerConfig(eta=0.1, steps=3), RandomInit(d=2), [0, 1, 2])
        with pytest.raises(TypeError, match="not subscriptable"):
            specs[index]

    @pytest.mark.parametrize("seed", ["3", np.int64(-1)])
    def test_rejects_bad_seeds(self, seed):
        cfg = SamplerConfig(eta=0.1, steps=1)
        with pytest.raises(ConfigError, match="seed must be an int"):
            samplers.ChainSpecs("cebm", cfg, [[0.0]], [seed])

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int32(5)])
    def test_accepts_every_seed_in_range(self, seed):
        cfg = SamplerConfig(eta=0.1, steps=1)
        assert samplers.ChainSpecs("cebm", cfg, [[0.0]], [seed]).seeds.tolist() == [int(seed)]

    def test_seed_is_not_a_config_field(self):
        with pytest.raises(TypeError):
            SamplerConfig(eta=0.1, steps=1, seed=3)

    @pytest.mark.parametrize(
        "method,noise_kind,fixed,seeds,error",
        [
            ("cebm", "gaussian", None, [0, -1], "seed must be an int"),
            ("cebm", "gaussian", None, [0, 2**64], "seed must be an int"),
            ("cebm", "gaussian", None, [0, 1.0], "seed must be an int"),
            ("cebm", "gaussian", None, [True, 0], "seed must be an int"),
            ("cebm", "gaussian", None, np.array([0, -1]), "seed must be an int"),
            ("cebm", "gaussian", None, np.array([0.0, 1.0]), "seed must be an int"),
            ("mgd", "gaussian", None, [0, 1], "mgd is noiseless"),
            ("ls_cebm", "gaussian", None, [0, 1], "ls_cebm requires fixed_lambda"),
            ("pcebm", "gaussian", SimplexWeights([0.5, 0.5]), [0, 1], "pcebm must not supply fixed_lambda"),
            ("sgld", "gaussian", None, [0, 1], "unknown method"),
        ],
    )
    def test_checks_of_a_chain_spec(self, method, noise_kind, fixed, seeds, error):
        cfg = SamplerConfig(eta=0.1, steps=3, noise_kind=noise_kind)
        with pytest.raises(ConfigError, match=error):
            samplers.ChainSpecs(method, cfg, RandomInit(d=2), seeds, fixed)

    def test_one_start_per_seed(self):
        with pytest.raises(ShapeError, match="need one start per seed, got 2 starts and 3 seeds"):
            samplers.ChainSpecs("cebm", SamplerConfig(eta=0.1, steps=3), np.zeros((2, 2)), [0, 1, 2])

    @pytest.mark.parametrize("starts", [[0.0, 1.0], np.zeros(2), np.zeros((2, 1, 2)), 0.5])
    def test_a_start_array_must_be_two_dimensional(self, starts):
        with pytest.raises(ShapeError, match="starts must be a RandomInit or an \\(n, d\\) array"):
            samplers.ChainSpecs("cebm", SamplerConfig(eta=0.1, steps=3), starts, [0, 1])

    @pytest.mark.parametrize("starts", [np.zeros((3, 2)), RandomInit(d=2)])
    def test_starts_of_the_wrong_d_fail_every_chain(self, starts):
        # The objectives take d = 3: the whole batch is a ShapeError, one
        # ChainFailure per chain, and run_chain raises it for a lone chain.
        objectives = get_problem("fonseca-fleming")
        specs = samplers.ChainSpecs("cebm", SamplerConfig(eta=0.1, steps=3), starts, [0, 1, 2])
        results = run_population(objectives, specs)
        assert [f.index for f in results.failures()] == [0, 1, 2]
        assert all(isinstance(f.error, ShapeError) and "objectives expect d=3" in str(f.error) for f in results)
        with pytest.raises(ShapeError, match="objectives expect d=3"):
            run_alone(objectives, specs, 1)

    def test_runs_as_one_batch_like_its_chain_specs(self, monkeypatch):
        objectives = get_problem("fonseca-fleming")
        cfg = SamplerConfig(eta=0.05, steps=20, alpha=0.01, record_every=3)
        specs = samplers.ChainSpecs("pcebm", cfg, RandomInit(d=3), samplers.chain_seeds(3, range(5)))
        calls = count_batches(monkeypatch)
        batch = run_population(objectives, specs)
        assert calls == [5]
        for j, result in enumerate(batch):
            assert_same_chain(result, run_alone(objectives, specs, j))


class TestChainResults:
    """run_population's results are a sequence over its batch's columns;
    each item is built on access."""

    def test_sequence_of_items(self):
        objectives, specs = mixed_population()
        results = run_population(objectives, specs)
        items = list(results)
        assert len(results) == len(items) == len(specs)
        for index, item in enumerate(items):
            if index == 3:
                assert isinstance(item, ChainFailure) and item.index == 3
                assert str(item.error) == "coords must be finite (no NaN/Inf); step 0 is not"
            else:
                assert_same_chain(item, run_alone(objectives, specs, index))
        assert items[4].terminated_early and items[4].termination_step == 0
        assert items[1].steps.tolist() == [0, 4, 8, 12, 16, 18] and items[1].termination_step == 18
        # Items are indexed by int, negatives from the end, and by nothing else.
        assert trajectories_equal(results[-1], items[-1]) and trajectories_equal(results[-3], items[4])
        assert trajectories_equal(results[np.int64(2)], items[2])
        assert results[-4].index == 3
        for index in (len(specs), -len(specs) - 1):
            with pytest.raises(IndexError):
                results[index]
        for index in (slice(1, 3), 1.0, [0, 1]):
            with pytest.raises(TypeError):
                results[index]
        assert [f.index for f in results.failures()] == [3]

    def test_items_are_built_on_access(self, monkeypatch):
        objectives, specs = mixed_population()
        built = []
        monkeypatch.setattr(samplers, "Trajectory", lambda *a: built.append(1) or Trajectory(*a))
        results = run_population(objectives, specs, final_x_only=True)
        results.finals()
        results.failures()
        assert built == []
        results[0]
        assert built == [1]

    @pytest.mark.parametrize("final_x_only", [False, True])
    def test_finals_are_each_chains_last_record(self, tmp_path, final_x_only):
        # Chain 3, in the middle of the batch, failed: the finals skip it and
        # name every other chain by its batch position. Chain 1 stops at step
        # 18, off the record schedule (every 4th step and the last, 25), and
        # chain 4 at step 0: the finals, the indexed trajectories and each
        # chain's last exported line agree on every chain's last step.
        objectives, specs = mixed_population()
        results = run_population(objectives, specs, final_x_only=final_x_only)
        ids, steps, X, F = results.finals()
        assert ids.tolist() == [0, 1, 2, 4, 5, 6]
        assert X.shape == (6, 3) and F.shape == (6, 2)
        for k, j in enumerate(ids.tolist()):
            traj = results[j]
            assert steps[k] == traj.steps[-1]
            assert np.array_equal(X[k], traj.X[-1]) and np.array_equal(F[k], traj.F[-1])
        assert steps.tolist() == [25, 18, 25, 0, 25, 25]
        assert [results[j].termination_step for j in ids.tolist()] == [None, 18, None, 0, None, None]
        write_trajectories(tmp_path / "t.csv", results)
        last_lines = {}
        for line in (tmp_path / "t.csv").read_text().splitlines()[1:]:
            chain, step = line.split(",")[:2]
            last_lines[int(chain)] = int(step)
        assert last_lines == dict(zip(ids.tolist(), steps.tolist()))
        # A batch whose every chain failed has no finals.
        failed = run_population(objectives, replace(specs, starts=np.zeros((7, 2))), final_x_only=final_x_only)
        assert [a.shape for a in failed.finals()] == [(0,), (0,), (0, 3), (0, 2)]

    @pytest.mark.parametrize("final_x_only", [False, True])
    def test_export_from_columns_matches_indexed_trajectories(self, tmp_path, final_x_only):
        # The finished chains' records, in order, with each early stop's step
        # in place of its last scheduled one; the failed chain 3 writes none.
        objectives, specs = mixed_population()
        results = run_population(objectives, specs, final_x_only=final_x_only)
        for kwargs in ({}, {"objective_names": ["a", "b"]}):
            write_trajectories(tmp_path / "columns.csv", results, **kwargs)
            csv_oracle(tmp_path / "oracle.csv", results, **kwargs)
            assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        ids = [line.split(",")[0] for line in (tmp_path / "columns.csv").read_text().splitlines()[1:]]
        assert sorted(set(ids)) == ["0", "1", "2", "4", "5", "6"] and ids.count("4") == 1
        nothing = samplers.ChainSpecs("mgd", specs.config, np.empty((0, 3)), [])
        write_trajectories(tmp_path / "none.csv", run_population(objectives, nothing), objective_names=["a", "b"])
        assert (tmp_path / "none.csv").read_bytes() == b"chain_id,step,a,b,lambda0,lambda1,grad_norm\r\n"

    def test_export_with_a_failed_chain_matches_the_oracle(self, tmp_path):
        # Chain 1's start is not finite, so the finished chains are 0 and 2,
        # and they keep their batch positions as ids.
        cfg = SamplerConfig(eta=0.1, steps=3, noise_kind="none")
        starts = [[0.5, 0.2, 0.1], [np.nan, 1.0, 1.0], [-0.3, 0.4, 0.9]]
        results = run_population(get_problem("fonseca-fleming"), samplers.ChainSpecs("mgd", cfg, starts, [0] * 3))
        assert [f.index for f in results.failures()] == [1]
        write_trajectories(tmp_path / "columns.csv", results)
        csv_oracle(tmp_path / "oracle.csv", results)
        assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()
        ids = {line.split(",")[0] for line in (tmp_path / "columns.csv").read_text().splitlines()[1:]}
        assert ids == {"0", "2"}

    def test_export_needs_one_name_per_objective(self, tmp_path):
        objectives, specs = mixed_population()
        with pytest.raises(ShapeError, match="need 2 objective names, got 1"):
            write_trajectories(tmp_path / "t.csv", run_population(objectives, specs), ["a"])
        assert not (tmp_path / "t.csv").exists()


class ZeroEnergy(EnergyModel):
    """Value and gradient zero everywhere: a chain moves by its noise alone."""

    def __init__(self, d):
        self._d = d

    @property
    def d(self):
        return self._d

    def eval_batch(self, X, out=None):
        grad = np.zeros_like(X) if out is None else out
        grad[...] = 0.0
        return np.zeros(X.shape[0]), grad


class Ramp(EnergyModel):
    """Value -x[0], whose gradient -e0 turns infinite once x[0] > 0: a chain
    climbs it by a fixed amount per step and fails when it crosses 0."""

    def __init__(self, d):
        self._d = d

    @property
    def d(self):
        return self._d

    def eval_batch(self, X, out=None):
        grad = np.zeros_like(X) if out is None else out
        grad[...] = 0.0
        grad[:, 0] = np.where(X[:, 0] > 0, -np.inf, -1.0)
        return -X[:, 0], grad


class TestNoiseBlocks:
    """A noisy batch draws each chain's noise a block of steps at a time into
    one preallocated buffer; a chain's draws, and so its result, must not
    change."""

    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    @pytest.mark.parametrize("d", [8, 1000])
    def test_noise_increments_are_default_rng_draws(self, noise_kind, d):
        # With zero gradients x_t = x_(t-1) + sigma * w_t, and sigma = 1
        # leaves w_t exact, so the states are the running sums of each
        # chain's default_rng(seed) draws.
        steps = 90
        if d > 8:
            assert samplers._noise_block_steps(3, d) < steps / 2
        objectives = ObjectiveSet([ZeroEnergy(d)])
        cfg = SamplerConfig(eta=0.1, steps=steps, sigma=1.0, noise_kind=noise_kind)
        specs = samplers.ChainSpecs("cebm", cfg, np.zeros((3, d)), samplers.chain_seeds(5, range(3)))
        results = run_population(objectives, specs)
        for seed, result in zip(specs.seeds.tolist(), results, strict=True):
            rng = np.random.default_rng(seed)
            if noise_kind == "gaussian":
                draws = rng.standard_normal((steps, d))
            else:
                draws = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (steps, d))
            x = np.zeros(d)
            expected = [x]
            for w in draws:
                x = x + w
                expected.append(x)
            assert np.array_equal(result.X, np.array(expected))

    @pytest.mark.parametrize(
        "n_chains,d,steps",
        [
            (32, 1000, 1),  # seq-sweep: one step is one block
            (256, 3, 42),  # ff-sweep
            (4, 128, 64),
            (1, 40000, 1),  # a step above the budget is still drawn, alone
        ],
    )
    def test_block_steps_fit_the_budget(self, n_chains, d, steps):
        assert samplers._noise_block_steps(n_chains, d) == steps
        assert steps == 1 or steps * n_chains * d * 8 <= samplers._NOISE_BLOCK_BYTES

    def test_chain_failing_mid_block_leaves_its_siblings_alone(self):
        # cebm climbs the ramp by eta / 2 = 0.1 per step, so the chains
        # started at -0.55 and -6.55 fail near steps 6 and 66: inside the
        # first and the second block, each leaving part of a block drawn.
        d = 128
        objectives = ObjectiveSet([Ramp(d)])
        assert samplers._noise_block_steps(4, d) == 64
        cfg = SamplerConfig(eta=0.2, steps=80, sigma=1e-3, record_every=5)
        starts = [-100.0, -0.55, -100.0, -6.55]
        rows = [np.r_[x0, np.zeros(d - 1)] for x0 in starts]
        specs = samplers.ChainSpecs("cebm", cfg, rows, samplers.chain_seeds(9, range(len(starts))))
        results = run_population(objectives, specs)
        for index, step in ((1, 6), (3, 66)):
            assert isinstance(results[index], ChainFailure)
            assert f"step {step} " in str(results[index].error)
            with pytest.raises(ValueError, match=f"step {step} "):
                run_alone(objectives, specs, index)
        for index in (0, 2):
            assert_same_chain(results[index], run_alone(objectives, specs, index))

    def test_a_fill_that_raises_fails_the_batch(self, monkeypatch):
        objectives = quadratic_pair(8)
        cfg = SamplerConfig(eta=0.01, steps=5, noise_kind="gaussian")
        specs = samplers.ChainSpecs("pcebm", cfg, RandomInit(d=8), samplers.chain_seeds(17, range(4)))

        def failing(*args):
            raise MemoryError("no room for noise")

        monkeypatch.setattr(samplers, "_fill_block", failing)
        with pytest.raises(MemoryError, match="no room for noise"):
            samplers._run_batch(objectives, specs)
        results = run_population(objectives, specs)
        assert len(results) == 4
        assert all(isinstance(r, ChainFailure) and isinstance(r.error, MemoryError) for r in results)


class TestStepMemory:
    """A batch holds one step's arrays at a time: every step writes its
    gradients into the batch's one stack, and the step's drift is gone
    before the next energy call."""

    # Bounds are in gradient stacks (n * m * d * 8 bytes, 768 KB here). An
    # (n, d) array held from one step into the next is a third of a stack,
    # more than the margin.
    MARGIN_STACKS = 0.1

    @staticmethod
    def traced_peak(objectives, method, steps, n, d):
        noise = "none" if method == "mgd" else "gaussian"
        cfg = SamplerConfig(eta=0.1, steps=steps, sigma=0.02, alpha=2e-4, noise_kind=noise, record_every=20)
        fixed = uniform_weights(objectives.m) if method == "ls_cebm" else None
        specs = samplers.ChainSpecs(method, cfg, RandomInit(d=d, scale=0.1), samplers.chain_seeds(7, range(n)), fixed)
        gc.collect()
        tracemalloc.start()
        try:
            results = run_population(objectives, specs, final_x_only=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not results.failures()
        return peak

    @pytest.mark.parametrize("method", ["mgd", "cebm", "ls_cebm", "pcebm"])
    def test_later_steps_add_one_noise_block_to_the_first(self, method):
        # Three sequence MLPs as in the seq-sweep benchmark. A run of no steps
        # holds the first step's arrays and draws no noise; twenty steps may
        # add one noise block and nothing else. Both runs make the same numpy
        # calls on the same shapes, so those calls' own temporaries cancel.
        n, L, A = 32, 50, 20
        d = L * A
        objectives = ObjectiveSet([MlpEnergy.random(64, L=L, A=A, seed=seed) for seed in range(3)])
        first = self.traced_peak(objectives, method, 0, n, d)
        later = self.traced_peak(objectives, method, 20, n, d)
        block = 0 if method == "mgd" else samplers._noise_block_steps(n, d) * n * d * 8
        stacks = (later - first - block) / (n * objectives.m * d * 8)
        assert stacks <= self.MARGIN_STACKS, stacks

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the page reuse checked is glibc malloc's")
    @pytest.mark.parametrize("method", ["mgd", "cebm", "ls_cebm", "pcebm"])
    def test_later_steps_fault_in_no_new_pages(self, method):
        # glibc hands a large free block at the top of its heap back to the
        # system. A loop that freed its gradient stack every step faulted
        # about 480 pages a step back in at this size (mgd and pcebm), which
        # cost the benchmark's seq-sweep 13% of its time. Forty more steps
        # must fault in fewer pages than one stack holds.
        n, m, d = 32, 3, 1000
        objectives = ObjectiveSet([MlpEnergy.random(64, L=50, A=20, seed=seed) for seed in range(m)])

        def faults(steps):
            noise = "none" if method == "mgd" else "gaussian"
            cfg = SamplerConfig(eta=0.1, steps=steps, sigma=0.02, alpha=2e-4, noise_kind=noise, record_every=steps)
            fixed = uniform_weights(m) if method == "ls_cebm" else None
            specs = samplers.ChainSpecs(method, cfg, RandomInit(d=d, scale=0.1), samplers.chain_seeds(7, range(n)), fixed)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert not run_population(objectives, specs, final_x_only=True).failures()
            return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

        faults(40)  # the heap's first growth to this batch's size
        extra = faults(80) - faults(40)
        assert extra < n * m * d * 8 // resource.getpagesize(), extra


class TestTrajectoryExport:
    def test_csv_layout(self, tmp_path):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=4, sigma=0.0)
        trajs = run_population(objs, samplers.ChainSpecs("cebm", cfg, [[1.0, 1.0], [0.5, 0.5]], [0, 0]))
        path = tmp_path / "traj.csv"
        write_trajectories(path, trajs)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "chain_id,step,f0,f1,lambda0,lambda1,grad_norm"
        assert len(lines) == 1 + sum(len(t) for t in trajs)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"

    def test_record_every_thins_records(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.01, steps=100, sigma=0.0, record_every=25)
        traj = run_chain(objs, "cebm", cfg, DesignPoint([1.0, 1.0]))
        assert list(traj.steps) == [0, 25, 50, 75, 100]

    def test_custom_names_and_ids(self, tmp_path):
        # The ids are batch positions: chain 0 failed, so every record is chain 1's.
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=2, sigma=0.0)
        results = run_population(objs, samplers.ChainSpecs("cebm", cfg, [[np.inf, 1.0], [1.0, 1.0]], [0, 0]))
        path = tmp_path / "traj.csv"
        write_trajectories(path, results, objective_names=["aff", "bv"])
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("chain_id,step,aff,bv")
        assert [line.split(",")[0] for line in lines[1:]] == ["1"] * 3


class TanhSum(EnergyModel):
    """Value sum(tanh(x - shift)) and its gradient: both stay finite even at
    infinite coordinates, so only the state itself can diverge."""

    def __init__(self, d, shift):
        self.shift = float(shift)
        self._d = d

    @property
    def d(self):
        return self._d

    def eval_batch(self, X, out=None):
        t = np.tanh(X - self.shift)
        return t.sum(axis=1), np.subtract(1.0, t * t, out=out)


class CappedQuadratic(ShiftedQuadratic):
    """A quadratic whose value is infinite once x[0] > 2; its gradient stays finite."""

    def eval_batch(self, X, out=None):
        values, grads = super().eval_batch(X, out)
        return np.where(X[:, 0] > 2.0, np.inf, values), grads


def assert_final_x_matches(objectives, specs):
    """final_x_only keeps each chain's last recorded X row and every other column whole."""
    full = run_population(objectives, specs)
    final = run_population(objectives, specs, final_x_only=True)
    for whole, last in zip(full, final):
        if isinstance(whole, ChainFailure):
            assert isinstance(last, ChainFailure) and str(last) == str(whole)
            continue
        for name in ("steps", "F", "lam", "grad_norm"):
            assert np.array_equal(getattr(last, name), getattr(whole, name))
        assert last.X.shape == (1, objectives.d)
        assert np.array_equal(last.X[-1], whole.X[-1])
        assert (last.terminated_early, last.termination_step) == (whole.terminated_early, whole.termination_step)


class TestFinalXOnly:
    @pytest.mark.parametrize("problem", sorted(set(BATCH_OBJECTIVES) - {"wide"}))
    @pytest.mark.parametrize("method,noise_kind", METHOD_NOISE)
    def test_columns_match_the_full_path(self, method, noise_kind, problem):
        objectives, eta, steps, record_every = BATCH_OBJECTIVES[problem]
        assert_final_x_matches(objectives, batch_specs(method, noise_kind, objectives, eta, steps, record_every))

    @pytest.mark.parametrize("problem", ["opposing-quadratics", "four-quadratics"])
    def test_mgd_early_stops(self, problem):
        # Stops at step 0, between records, and not at all, in one batch.
        objectives = four_quadratics() if problem == "four-quadratics" else get_problem(problem)
        cfg = SamplerConfig(eta=0.05, steps=150, noise_kind="none", record_every=10)
        starts = [[0.0, 50.0], [0.5, 0.0], [0.0, 1.0], [0.3, 40.0], [0.25, 0.0]]
        specs = samplers.ChainSpecs("mgd", cfg, starts, [0] * len(starts))
        results = run_population(objectives, specs, final_x_only=True)
        assert any(t.terminated_early for t in results) and not all(t.terminated_early for t in results)
        assert_final_x_matches(objectives, specs)

    def test_views_are_read_only(self):
        objectives = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=5, sigma=0.1)
        for final_x_only in (False, True):
            [traj] = run_population(
                objectives, samplers.ChainSpecs("cebm", cfg, RandomInit(d=2), [3]), final_x_only=final_x_only
            )
            for name in ("steps", "X", "F", "lam", "grad_norm"):
                column = getattr(traj, name)
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0] = 1.0

    def test_columns_cannot_be_made_writable(self):
        # Chains that run to the end and mgd chains that stop early (at step
        # 0 and between records), in a batch and alone, on both X paths.
        objectives = opposing_quadratics()
        cfg = SamplerConfig(eta=0.05, steps=150, noise_kind="none", record_every=10)
        starts = [[0.0, 50.0], [0.5, 0.0], [0.0, 1.0], [0.3, 40.0]]
        specs = samplers.ChainSpecs("mgd", cfg, starts, [0] * len(starts))
        results = [run_alone(objectives, specs, j) for j in range(len(specs))]
        for final_x_only in (False, True):
            batch = run_population(objectives, specs, final_x_only=final_x_only)
            assert [t.terminated_early for t in batch] == [False, True, True, False]
            results += batch
        for traj in results:
            for name in ("steps", "X", "F", "lam", "grad_norm"):
                with pytest.raises(ValueError):
                    getattr(traj, name).setflags(write=True)

    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    def test_diverging_coordinates_fail_alike_on_both_paths(self, noise_kind):
        # Under sigma = 1e300 the chain started at (max, -max) overflows to
        # an infinite state at its first outward noise draw, while its value
        # and gradient stay finite: only the coordinates show it, at that
        # step and not at the next record. Its siblings stay far from overflow.
        objectives = ObjectiveSet([TanhSum(2, 0.5), TanhSum(2, -0.5)])
        cfg = SamplerConfig(eta=0.1, steps=30, noise_kind=noise_kind, sigma=1e300, record_every=4)
        big = np.finfo(np.float64).max
        starts = [[0.0, 0.0], [big, -big], [1.0, -1.0], [0.5, 0.5]]
        # The gradient is zero at (+-max, ...), so the chain moves by its
        # default_rng(1) noise alone until that overflows.
        rng = np.random.default_rng(1)
        if noise_kind == "gaussian":
            draws = rng.standard_normal((30, 2))
        else:
            draws = rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), (30, 2))
        x = np.array(starts[1])
        with np.errstate(over="ignore"):
            for first, w in enumerate(1e300 * draws, start=1):
                x = x + w
                if not np.isfinite(x).all():
                    break
        assert first < 30 and first % 4
        specs = samplers.ChainSpecs("cebm", cfg, starts, range(len(starts)))
        errors = []
        for final_x_only in (False, True):
            results = run_population(objectives, specs, final_x_only=final_x_only)
            failure = results[1]
            assert isinstance(failure, ChainFailure) and isinstance(failure.error, ValueError)
            errors.append(str(failure.error))
            for index in (0, 2, 3):
                assert not isinstance(results[index], ChainFailure)
                assert np.all(np.isfinite(results[index].X))
        with pytest.raises(ValueError) as solo:
            run_alone(objectives, specs, 1)
        assert errors[0] == errors[1] == str(solo.value)
        assert errors[0] == f"coords must be finite (no NaN/Inf); step {first} is not"

    def test_non_finite_values_fail_at_their_first_record(self):
        # Noiseless cebm on one quadratic centered at (3, 0): x0 <- x0 - 0.1 * (x0 - 3)
        # (the summed gradient times eta / 2). The value turns infinite once x0 > 2.
        objectives = ObjectiveSet([CappedQuadratic([3.0, 0.0])])
        cfg = SamplerConfig(eta=0.2, steps=40, sigma=0.0)
        x, first = 0.0, None
        for step in range(1, 41):
            x = x - 0.1 * (2.0 * (x - 3.0))
            if x > 2.0 and first is None:
                first = step
        specs = samplers.ChainSpecs("cebm", cfg, [[0.0, 0.0]], [0])
        for final_x_only in (False, True):
            [failure] = run_population(objectives, specs, final_x_only=final_x_only)
            assert str(failure.error) == f"objective values must be finite (no NaN/Inf); step {first} is not"



class TestStarts:
    def test_bad_starts_fail_only_their_own_chains(self):
        # Rows of a start array that are not finite, and drawn starts that
        # overflow, fail their chains at step 0; their siblings run as they
        # would alone. TanhSum keeps values and gradients finite at any
        # finite point, so only the starts can fail.
        objectives = ObjectiveSet([TanhSum(2, 0.5), TanhSum(2, -0.5)])
        cfg = SamplerConfig(eta=0.1, steps=5, sigma=0.1)
        rows = [[0.5, 0.5], [np.inf, 0.0], [0.0, -1.0], [np.nan, np.nan], [1.0, -np.inf]]
        # Scaled by the largest float, a normal draw beyond 1 in magnitude overflows.
        overflows = [j for j in range(8) if (np.abs(np.random.default_rng(j).standard_normal(2)) > 1).any()]
        assert 0 < len(overflows) < 8
        for starts, seeds, bad in (
            (rows, [0] * 5, [1, 3, 4]),
            (RandomInit(d=2, scale=np.finfo(float).max), range(8), overflows),
        ):
            specs = samplers.ChainSpecs("cebm", cfg, starts, seeds)
            results = run_population(objectives, specs)
            assert [f.index for f in results.failures()] == bad
            assert {str(f.error) for f in results.failures()} == {"coords must be finite (no NaN/Inf); step 0 is not"}
            for index in sorted(set(range(len(specs))) - set(bad)):
                assert_same_chain(results[index], run_alone(objectives, specs, index))

    def test_a_design_start_keeps_its_kind_check(self):
        # run_chain checks a DesignPoint's kind; a start array has none.
        cfg = SamplerConfig(eta=0.1, steps=5, sigma=0.1)
        wrong_kind = DesignPoint([0.5, 0.5], kind=SEQUENCE_LOGITS, L=1, A=2)
        with pytest.raises(WrongKindError, match="does not match objectives"):
            run_chain(opposing_quadratics(), "cebm", cfg, wrong_kind)

    @pytest.mark.parametrize("action", ["error", "always"])
    def test_overflowing_scale_fails_its_chain_as_non_finite(self, action):
        # A finite scale can overflow the drawn start; under either warnings
        # filter the chain fails with the finiteness message, and no
        # RuntimeWarning is raised or emitted.
        cfg = SamplerConfig(eta=0.1, steps=5, sigma=0.1)
        specs = samplers.ChainSpecs("cebm", cfg, RandomInit(d=2, scale=np.finfo(float).max), [3])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            (result,) = run_population(opposing_quadratics(), specs)
        assert str(result.error) == "coords must be finite (no NaN/Inf); step 0 is not"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan, -1.0])
    def test_scale_must_be_finite_and_non_negative(self, scale):
        with pytest.raises(ConfigError, match="init scale"):
            RandomInit(d=2, scale=scale)

    def test_uniform_scale_must_keep_its_range_finite(self):
        # numpy's uniform refuses a range high - low that overflows, which
        # failed the chain with an OverflowError; now the init is refused.
        big = np.finfo(float).max
        with pytest.raises(ConfigError, match="uniform init scale"):
            RandomInit(d=2, scale=big, distribution="uniform")
        RandomInit(d=2, scale=big)  # a normal draw overflows to inf and fails its chain
        cfg = SamplerConfig(eta=0.1, steps=5, sigma=0.1)
        specs = samplers.ChainSpecs("cebm", cfg, RandomInit(d=2, scale=big / 2, distribution="uniform"), [3])
        (result,) = run_population(opposing_quadratics(), specs)
        assert isinstance(result, ChainFailure) and isinstance(result.error, ValueError)


    @pytest.mark.parametrize("distribution", ["normal", "uniform"])
    def test_block_start_draw_matches_random_init_draw(self, distribution):
        # One (n, d) block of unit draws, scaled in place, gives each chain
        # the bits of its own RandomInit.draw, at every scale: 0 (signed
        # zeros), tiny, ordinary and overflowing, one block per scale.
        d = 7
        big = np.finfo(float).max if distribution == "normal" else np.finfo(float).max / 2
        seeds = samplers.chain_seeds(11, range(5)).tolist()
        for scale in (0.0, 5e-324, 1e-300, 0.37, 1.0, 3.5, 1e300, big):
            init = RandomInit(d, distribution, scale)
            X = samplers._starts(quadratic_pair(d), init, samplers._generators(seeds))
            with np.errstate(over="ignore"):
                for x, seed in zip(X, seeds, strict=True):
                    expected = init.draw(np.random.default_rng(seed))
                    # Bit patterns, so that -0.0 and 0.0 differ and inf equals inf.
                    assert x.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
            if scale == 1e300:
                assert np.isfinite(X).all()
            if scale == big and distribution == "normal":
                assert np.isinf(X).any()
            if scale == 0.0:
                # 0 * z keeps the sign of a negative z; -0.0 + 0.0 * u is +0.0.
                assert np.signbit(X).any() == (distribution == "normal")

    def test_block_start_draw_leaves_each_stream_where_a_draw_leaves_it(self):
        # The noise after a random start continues its chain's stream; an
        # array start draws nothing.
        seeds = [3, 4, 5]
        for starts in (RandomInit(3, "normal", 2.0), RandomInit(3, "uniform", 2.0), np.zeros((3, 3))):
            rngs = samplers._generators(seeds)
            samplers._starts(quadratic_pair(3), starts, rngs)
            for seed, rng in zip(seeds, rngs, strict=True):
                alone = np.random.default_rng(seed)
                if isinstance(starts, RandomInit):
                    starts.draw(alone)
                assert rng.bit_generator.state == alone.bit_generator.state


class TestZeroSteps:
    @pytest.mark.parametrize("method", ["mgd", "cebm", "ls_cebm", "pcebm"])
    def test_zero_step_chain_records_its_start(self, method):
        objectives = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=0, noise_kind="none" if method == "mgd" else "gaussian")
        fixed = SimplexWeights([0.25, 0.75]) if method == "ls_cebm" else None
        start = DesignPoint([0.3, -0.4])
        traj = run_chain(objectives, method, cfg, start, seed=5, fixed_lambda=fixed)
        assert traj.steps.tolist() == [0]
        assert np.array_equal(traj.X, [start.coords])
        values, _ = objectives.eval_batch(start.coords[None])
        assert np.array_equal(traj.F, values)
        assert traj.termination_step is None and not traj.terminated_early

    def test_zero_step_population_matches_solo_chains_and_draws_no_noise(self, monkeypatch):
        def no_noise(*args):
            raise AssertionError("a zero-step chain drew noise")

        monkeypatch.setattr(samplers, "_fill_block", no_noise)
        objectives = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=0)
        seeds = [chain_seed(9, i) for i in range(3)]
        for starts in (RandomInit(d=2, scale=2.0), [[0.1, 0.2], [0.3, -0.4], [-1.0, 0.0]]):
            specs = samplers.ChainSpecs("pcebm", cfg, starts, seeds)
            for j, result in enumerate(run_population(objectives, specs)):
                assert_same_chain(result, run_alone(objectives, specs, j))
                assert len(result) == 1
                drawn = isinstance(starts, RandomInit)
                start = 2.0 * np.random.default_rng(seeds[j]).standard_normal(2) if drawn else starts[j]
                assert np.array_equal(result.X[0], start)

    def test_random_start_runs_on_sequence_objectives(self):
        L, A = 3, 4
        rng = np.random.default_rng(2)
        objectives = ObjectiveSet([PwmEnergy(rng.normal(size=(L, A))) for _ in range(2)])
        assert objectives.point_kind == SEQUENCE_LOGITS
        cfg = SamplerConfig(eta=0.05, steps=5, sigma=0.1)
        traj = run_chain(objectives, "cebm", cfg, RandomInit(d=L * A), seed=4)
        assert traj.X.shape == (6, L * A)
        assert np.array_equal(traj.X[0], np.random.default_rng(4).standard_normal(L * A))


def finished(results):
    """(batch position, Trajectory) of each finished chain, in order."""
    return [(j, item) for j, item in enumerate(results) if not isinstance(item, ChainFailure)]


def csv_oracle(path, results, objective_names=None):
    """The row-by-row csv.writer export of a ChainResults's finished items
    that write_trajectories must match byte for byte."""
    m = results.m
    names = [f"f{i}" for i in range(m)] if objective_names is None else objective_names
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain_id", "step", *names, *[f"lambda{i}" for i in range(m)], "grad_norm"])
        for cid, traj in finished(results):
            for step, values, weights, grad_norm in zip(
                traj.steps.tolist(), traj.F.tolist(), traj.lam.tolist(), traj.grad_norm.tolist()
            ):
                writer.writerow([cid, step, *values, *weights, grad_norm])


AWKWARD = [-0.0, 5e-324, 1e16, 0.1 + 0.2, -1.5e-7, 123.0, 2.0**60, -2.2250738585072014e-308]


def awkward_results(m, rows):
    """Crafted columns of chains with ``rows[j]`` records each, at steps 0,
    3, 6, ..., whose values, weights and norms are floats that are awkward to
    print (signed zero, subnormals, inf, long reprs). A chain of 0 rows failed."""
    n, most = len(rows), max(rows, default=1)
    F, grad_norm = np.zeros((n, most, m)), np.zeros((n, most))
    for j, r in enumerate(rows):
        F[j, :r] = np.roll(np.resize(AWKWARD, r * m), j).reshape(r, m)
        grad_norm[j, :r] = np.roll(np.resize([np.inf, *AWKWARD], r), j)
    return samplers.ChainResults(
        [None if r else ValueError("failed") for r in rows], np.array(rows, dtype=np.int64).reshape(n),
        3 * (most - 1), np.tile(np.arange(most) * 3, (n, 1)),
        np.zeros((n, most, 2)), F, F[:, :, ::-1], grad_norm,
    )


class TestTrajectoryBytes:
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_csv_writer(self, tmp_path, m):
        results = awkward_results(m, [1, 4, 0, 7])
        assert [t.steps.tolist() for _, t in finished(results)] == [[0], [0, 3, 6, 9], [0, 3, 6, 9, 12, 15, 18]]
        for kwargs in ({}, {"objective_names": ['a,b', 'q"x', "c"][:m]}):
            write_trajectories(tmp_path / "new.csv", results, **kwargs)
            csv_oracle(tmp_path / "old.csv", results, **kwargs)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert b"\r\n" in (tmp_path / "new.csv").read_bytes()

    def test_sampled_views_match_csv_writer(self, tmp_path):
        objectives, eta, steps, record_every = BATCH_OBJECTIVES["mlp-3"]
        for method, noise in (("mgd", "none"), ("ls_cebm", "uniform")):
            specs = batch_specs(method, noise, objectives, eta, steps, record_every, chains=5)
            trajs = run_population(objectives, specs, final_x_only=True)
            write_trajectories(tmp_path / "new.csv", trajs)
            csv_oracle(tmp_path / "old.csv", trajs)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_trajectories_writes_the_header_alone(self, tmp_path):
        # No chain, or no finished chain.
        for rows in ([], [0, 0]):
            empty = awkward_results(2, rows)
            write_trajectories(tmp_path / "t.csv", empty, objective_names=["a", "b"])
            assert (tmp_path / "t.csv").read_bytes() == b"chain_id,step,a,b,lambda0,lambda1,grad_norm\r\n"
            write_trajectories(tmp_path / "u.csv", empty)
            assert (tmp_path / "u.csv").read_bytes() == b"chain_id,step,f0,f1,lambda0,lambda1,grad_norm\r\n"

    def test_empty_and_mixed_m_rejected(self, tmp_path):
        # Only a ChainResults is exported, and one batch has one m: an empty
        # list, a list of trajectories of mixed m, and any other list or item
        # are refused.
        one, three = awkward_results(1, [2]), awkward_results(3, [2, 3])
        for given in ([], [one[0], three[0]], list(three), three[0]):
            with pytest.raises(TypeError, match="write_trajectories exports a ChainResults"):
                write_trajectories(tmp_path / "t.csv", given)
        assert not (tmp_path / "t.csv").exists()


def one_shot_export(path, results, objective_names=None):
    """The export of a ChainResults's finished items as one stacked table
    formatted into one string, the way write_trajectories wrote it before it
    wrote in blocks; the block-wise export must keep its bytes."""
    m = results.m
    names = [f"f{i}" for i in range(m)] if objective_names is None else objective_names
    done = finished(results)
    ids, trajectories = [j for j, _ in done], [t for _, t in done]
    body = ""
    if len(trajectories):
        table = np.column_stack([
            np.repeat(ids, [len(t) for t in trajectories]),
            np.concatenate([t.steps for t in trajectories]),
            np.concatenate([t.F for t in trajectories]),
            np.concatenate([t.lam for t in trajectories]),
            np.concatenate([t.grad_norm for t in trajectories]),
        ])
        record = "%d,%d," + ",".join(["%r"] * (2 * m + 1)) + "\r\n"
        body = (record * len(table)) % tuple(table.ravel().tolist())
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(["chain_id", "step", *names, *[f"lambda{i}" for i in range(m)], "grad_norm"])
        fh.write(body)


def export_case(name):
    """(results, objective names) of one block-export case."""
    objectives = get_problem("fonseca-fleming")
    if name == "one-batch":
        cfg = SamplerConfig(eta=0.05, steps=20, record_every=3)
        specs = samplers.ChainSpecs("cebm", cfg, RandomInit(d=3), samplers.chain_seeds(5, range(6)))
        return run_population(objectives, specs, final_x_only=True), None
    if name == "mixed-population":
        # Chain 3 failed and writes no record.
        objectives, specs = mixed_population()
        return run_population(objectives, specs, final_x_only=True), None
    if name == "early-stops":
        # One mgd batch whose chains stop at different steps, between records.
        cfg = SamplerConfig(eta=0.5, steps=40, noise_kind="none", record_every=3, grad_tol=0.02)
        starts = [[a, 0.2, -a] for a in (0.0, 0.1, 0.5, 0.9, 1.4)]
        done = run_population(objectives, samplers.ChainSpecs("mgd", cfg, starts, [0] * 5))
        assert sum(t.terminated_early for t in done) >= 3
        return done, None
    if name == "crafted-columns":
        return awkward_results(2, [1, 9, 0, 4, 12]), None
    if name == "header-only":
        nothing = samplers.ChainSpecs("cebm", SamplerConfig(eta=0.1, steps=2), RandomInit(d=3), [])
        return run_population(objectives, nothing), ["a", "b"]
    raise KeyError(name)


class TestBlockExport:
    @pytest.mark.parametrize("block_rows", [1, 5, 512])
    @pytest.mark.parametrize("case", ["one-batch", "mixed-population", "early-stops", "crafted-columns", "header-only"])
    def test_blocks_keep_the_one_shot_bytes(self, tmp_path, monkeypatch, case, block_rows):
        monkeypatch.setattr(samplers, "_CSV_BLOCK_ROWS", block_rows)
        results, names = export_case(case)
        write_trajectories(tmp_path / "blocks.csv", results, names)
        one_shot_export(tmp_path / "one.csv", results, names)
        assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
        records = (tmp_path / "blocks.csv").read_bytes().count(b"\r\n") - 1
        assert records == sum(len(t) for _, t in finished(results))
        # The small blocks split the export, and split chains.
        assert records > 2 * block_rows or block_rows == 512 or case == "header-only"

    @pytest.mark.parametrize("final_x_only", [False, True])
    def test_peak_memory_does_not_grow_with_the_records(self, tmp_path, final_x_only):
        # Ten times the records may raise the export's peak by at most the
        # larger record table's floats plus a fixed 1 MiB; a one-shot export
        # takes about seven times the table. The export reads no coordinates,
        # so whole X columns and final rows alone give the same bound.
        objectives = get_problem("fonseca-fleming")
        cfg = SamplerConfig(eta=0.01, steps=149)
        peaks, tables = [], []
        for chains in (4, 40):
            specs = samplers.ChainSpecs("cebm", cfg, RandomInit(d=3), samplers.chain_seeds(9, range(chains)))
            done = run_population(objectives, specs, final_x_only=final_x_only)
            tables.append(chains * 150 * (3 + 2 * objectives.m) * 8)
            gc.collect()
            tracemalloc.start()
            try:
                write_trajectories(tmp_path / "t.csv", done)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= tables[1] + 2**20, (peaks, tables)
