import csv
import re
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
from paretoebm.energy import EnergyModel, MlpEnergy, ObjectiveSet, ShiftedQuadratic
from paretoebm.moo import pareto_filter
from paretoebm.problems import get_problem
from paretoebm.samplers import (
    ChainFailure,
    ChainSpec,
    RandomInit,
    chain_seed,
    run_cebm,
    run_chain,
    run_ls_cebm,
    run_mgd,
    run_pcebm,
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


class TestChainSpec:
    def test_ls_requires_lambda(self):
        cfg = SamplerConfig(eta=0.1, steps=5)
        with pytest.raises(ConfigError):
            ChainSpec("ls_cebm", cfg, DesignPoint([0.0, 0.0]))

    def test_others_must_not_have_lambda(self):
        cfg = SamplerConfig(eta=0.1, steps=5)
        with pytest.raises(ConfigError):
            ChainSpec("cebm", cfg, DesignPoint([0.0, 0.0]), fixed_lambda=uniform_weights(2))

    def test_mgd_needs_noiseless_config(self):
        cfg = SamplerConfig(eta=0.1, steps=5, noise_kind="gaussian")
        with pytest.raises(ConfigError):
            ChainSpec("mgd", cfg, DesignPoint([0.0, 0.0]))

    def test_unknown_method(self):
        cfg = SamplerConfig(eta=0.1, steps=5)
        with pytest.raises(ConfigError):
            ChainSpec("annealing", cfg, DesignPoint([0.0]))

    def test_wrong_method_tag_rejected_by_runner(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=5, noise_kind="none")
        spec = ChainSpec("cebm", cfg, DesignPoint([0.0, 0.0]))
        with pytest.raises(ConfigError):
            run_mgd(objs, spec)


class TestMgd:
    def test_terminates_immediately_at_pareto_point(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=50, noise_kind="none")
        traj = run_mgd(objs, ChainSpec("mgd", cfg, DesignPoint([0.0, 0.0])))
        assert traj.terminated_early and traj.termination_step == 0
        assert len(traj) == 1
        assert np.array_equal(traj.X[-1], [0.0, 0.0])

    def test_descends_shared_component_only(self):
        # From (0, 5) both gradients share the (0, 2*x2) component; the first
        # coordinate never moves and the chain limits to the origin.
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=500, noise_kind="none")
        traj = run_mgd(objs, ChainSpec("mgd", cfg, DesignPoint([0.0, 5.0])))
        xs = traj.X
        assert np.all(xs[:, 0] == 0.0)
        diffs = np.abs(np.diff(xs[:, 1]))
        assert np.all(np.diff(np.abs(xs[:, 1])) <= 0)
        assert abs(traj.X[-1, 1]) < 1e-4
        assert traj.terminated_early

    def test_single_objective_reduces_to_gradient_descent(self):
        objs = ObjectiveSet([ShiftedQuadratic([1.0, -1.0])])
        cfg = SamplerConfig(eta=0.05, steps=40, noise_kind="none")
        traj = run_mgd(objs, ChainSpec("mgd", cfg, DesignPoint([3.0, 3.0])))
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
        cfg = SamplerConfig(eta=0.1, steps=100, sigma=0.0, seed=5)
        traj = run_cebm(objs, ChainSpec("cebm", cfg, DesignPoint([3.0, -2.0])))
        x = np.array([3.0, -2.0])
        expect = {0: x.copy()}
        for k in range(1, 101):
            g = objs.models[0]._value_and_gradient(x)[1]
            for model in objs.models[1:]:
                g = g + model._value_and_gradient(x)[1]
            x = x - (0.1 / 2.0) * g
            expect[k] = x.copy()
        assert np.array_equal(traj.X, [expect[step] for step in traj.steps])
        assert np.allclose(traj.X[-1], [0.0, 0.0], atol=1e-6)

    def test_noiseless_converges_to_sum_minimizer(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.2, steps=200, sigma=0.0, seed=1)
        traj = run_cebm(objs, ChainSpec("cebm", cfg, RandomInit(d=2, scale=3.0)))
        assert np.allclose(traj.X[-1], [0.0, 0.0], atol=1e-8)

    def test_seed_determinism(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.05, steps=40, sigma=0.3, seed=11)
        spec = ChainSpec("cebm", cfg, RandomInit(d=2))
        assert trajectories_equal(run_cebm(objs, spec), run_cebm(objs, spec))

    def test_records_uniform_weights(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=3, sigma=0.0)
        traj = run_cebm(objs, ChainSpec("cebm", cfg, DesignPoint([1.0, 1.0])))
        assert np.array_equal(traj.lam, np.full((len(traj), 2), 0.5))

    def test_no_early_termination(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=25, sigma=0.0)
        traj = run_cebm(objs, ChainSpec("cebm", cfg, DesignPoint([0.0, 0.0])))
        assert not traj.terminated_early
        assert traj.steps[-1] == 25


class TestLsCebm:
    def test_uniform_lambda_equals_cebm_with_scaled_eta(self):
        objs = opposing_quadratics()
        x0 = DesignPoint([2.0, 1.0])
        ls_cfg = SamplerConfig(eta=0.2, steps=50, sigma=0.1, seed=3)
        ce_cfg = SamplerConfig(eta=0.1, steps=50, sigma=0.1, seed=3)
        ls = run_ls_cebm(objs, ChainSpec("ls_cebm", ls_cfg, x0, fixed_lambda=uniform_weights(2)))
        ce = run_cebm(objs, ChainSpec("cebm", ce_cfg, x0))
        assert np.array_equal(ls.steps, ce.steps)
        assert np.allclose(ls.X, ce.X, rtol=1e-12, atol=1e-14)

    def test_vertex_lambda_minimizes_single_objective(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.2, steps=300, sigma=0.0, seed=0)
        lam = SimplexWeights([1.0, 0.0])
        traj = run_ls_cebm(objs, ChainSpec("ls_cebm", cfg, RandomInit(d=2, scale=2.0), fixed_lambda=lam))
        assert np.allclose(traj.X[-1], [1.0, 0.0], atol=1e-8)

    def test_lambda_length_checked_at_run(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=5, sigma=0.0)
        spec = ChainSpec("ls_cebm", cfg, DesignPoint([0.0, 0.0]), fixed_lambda=SimplexWeights([1.0]))
        with pytest.raises(ShapeError):
            run_ls_cebm(objs, spec)


class TestPcebm:
    def test_zero_alpha_is_bit_identical_to_mgd(self):
        objs = opposing_quadratics()
        for seed in range(5):
            rng = np.random.default_rng(seed)
            x0 = DesignPoint(rng.normal(size=2))
            mgd_cfg = SamplerConfig(eta=0.07, steps=80, noise_kind="none", seed=seed)
            pc_cfg = SamplerConfig(eta=0.07, steps=80, noise_kind="gaussian", alpha=0.0, seed=seed)
            t1 = run_mgd(objs, ChainSpec("mgd", mgd_cfg, x0))
            t2 = run_pcebm(objs, ChainSpec("pcebm", pc_cfg, x0))
            assert trajectories_equal(t1, t2)
            assert t1.terminated_early == t2.terminated_early

    def test_seed_determinism(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.05, steps=60, alpha=0.01, seed=21)
        spec = ChainSpec("pcebm", cfg, RandomInit(d=2))
        assert trajectories_equal(run_pcebm(objs, spec), run_pcebm(objs, spec))

    def test_noise_keeps_chain_running_past_pareto_points(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.05, steps=30, alpha=0.02, seed=2)
        traj = run_pcebm(objs, ChainSpec("pcebm", cfg, DesignPoint([0.0, 0.0])))
        assert not traj.terminated_early
        assert traj.steps[-1] == 30

    @pytest.mark.parametrize("noise_kind", ["gaussian", "uniform"])
    def test_brownian_displacement_near_pareto_set(self, noise_kind):
        # Near the trade-off segment the drift vanishes, so per-step mean
        # squared displacement approaches 2 * alpha * d.
        objs = opposing_quadratics()
        alpha, d, steps = 0.01, 2, 8000
        cfg = SamplerConfig(
            eta=1e-4, steps=steps, noise_kind=noise_kind, alpha=alpha, seed=9
        )
        traj = run_pcebm(objs, ChainSpec("pcebm", cfg, DesignPoint([0.0, 0.0])))
        pts = traj.X
        msd = float(np.mean(np.sum(np.diff(pts, axis=0) ** 2, axis=1)))
        assert msd == pytest.approx(2.0 * alpha * d, rel=0.05)

    def test_lambda_resolved_every_step(self):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.05, steps=40, alpha=0.02, seed=4)
        traj = run_pcebm(objs, ChainSpec("pcebm", cfg, DesignPoint([0.5, 2.0])))
        lams = traj.lam
        assert len(np.unique(lams[:, 0])) > 5


class TestRunPopulation:
    def test_failures_tagged_and_isolated(self):
        objs = opposing_quadratics()
        good = ChainSpec(
            "cebm", SamplerConfig(eta=0.1, steps=10, sigma=0.0, seed=1), DesignPoint([1.0, 1.0])
        )
        bad = ChainSpec(
            "cebm", SamplerConfig(eta=0.1, steps=10, sigma=0.0, seed=1), DesignPoint([1.0, 1.0, 1.0])
        )
        results = run_population(objs, [good, bad, good])
        assert not isinstance(results[0], ChainFailure)
        assert isinstance(results[1], ChainFailure)
        assert results[1].index == 1
        assert isinstance(results[1].error, ShapeError)
        assert not isinstance(results[2], ChainFailure)

    @pytest.mark.parametrize("problem,eta", [("opposing-quadratics", 40.0), ("tri-quadratic", 5.0)])
    def test_divergence_between_records_fails_the_chain(self, problem, eta):
        # Only steps 0 and 400 are recorded; the chain overflows in between.
        prob = get_problem(problem)
        cfg = SamplerConfig(eta=eta, steps=400, sigma=0.0, seed=3, record_every=400)
        [result] = run_population(prob.objectives, [ChainSpec("cebm", cfg, RandomInit(d=prob.d))])
        assert isinstance(result, ChainFailure)
        assert isinstance(result.error, ValueError)

    def test_pcebm_population_produces_a_front(self):
        prob = get_problem("fonseca-fleming")
        specs = [
            ChainSpec(
                "pcebm",
                SamplerConfig(eta=0.01, steps=120, seed=chain_seed(7, i), record_every=120),
                RandomInit(d=3),
            )
            for i in range(256)
        ]
        results = run_population(prob.objectives, specs)
        finals = [t.F[-1] for t in results]
        assert len(pareto_filter(finals)) >= 10

    def test_chain_seed_is_stable(self):
        assert chain_seed(42, 0) == chain_seed(42, 0)
        assert chain_seed(42, 0) != chain_seed(42, 1)
        assert chain_seed(42, 1) != chain_seed(43, 1)


def assert_same_chain(result, solo):
    assert trajectories_equal(result, solo)
    assert result.terminated_early == solo.terminated_early
    assert result.termination_step == solo.termination_step


def quadratic_pair(d):
    return ObjectiveSet([ShiftedQuadratic(np.full(d, 0.5)), ShiftedQuadratic(np.linspace(-1.0, 1.0, d))])


BATCH_OBJECTIVES = {
    # name -> (objectives, eta, steps, record_every)
    "fonseca-fleming": (get_problem("fonseca-fleming").objectives, 0.05, 30, 1),
    "tri-quadratic": (get_problem("tri-quadratic").objectives, 0.05, 30, 1),
    "zdt3-like": (get_problem("zdt3-like").objectives, 0.01, 20, 3),
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
    d, m = objectives.d, objectives.m
    fixed = SimplexWeights(np.arange(1.0, m + 1.0) / (m * (m + 1) / 2)) if method == "ls_cebm" else None
    specs = []
    for i in range(chains):
        cfg = SamplerConfig(
            eta=eta, steps=steps, noise_kind=noise_kind, seed=chain_seed(17, i), record_every=record_every
        )
        init = RandomInit(d=d, scale=1.0 + i) if i % 2 else DesignPoint(np.linspace(-1.0, 1.0, d) * (i + 1) / 4)
        specs.append(ChainSpec(method, cfg, init, fixed_lambda=fixed))
    return specs


class TestBatchKernel:
    """run_population runs chains of one configuration as a batch; every
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
        reversed_batch = run_population(objectives, specs[::-1])[::-1]
        for spec, result, reversed_result in zip(specs, batch, reversed_batch):
            solo = run_chain(objectives, spec)
            assert_same_chain(result, solo)
            assert_same_chain(reversed_result, solo)

    @pytest.mark.parametrize(
        "problem,stationary", [("opposing-quadratics", [0.5, 0.0]), ("four-quadratics", [0.25, 0.0])]
    )
    def test_early_stop_inside_a_running_batch(self, problem, stationary):
        objectives = four_quadratics() if problem == "four-quadratics" else get_problem(problem).objectives
        cfg = SamplerConfig(eta=0.05, steps=150, noise_kind="none", record_every=10)
        starts = [[0.0, 50.0], stationary, [0.0, 1.0], [0.3, 40.0]]
        specs = [ChainSpec("mgd", cfg, DesignPoint(x)) for x in starts]
        solo = [run_chain(objectives, spec) for spec in specs]
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
        objectives = get_problem("tri-quadratic").objectives
        cfg = SamplerConfig(eta=0.05, steps=150, noise_kind="none", record_every=10)
        specs = [ChainSpec("mgd", cfg, DesignPoint(x)) for x in ([0.0, 50.0], [0.6, 0.2])]
        batch = run_population(objectives, specs)
        stopped = batch[1]
        assert stopped.terminated_early and stopped.termination_step == 0 and len(stopped) == 1
        assert stopped.grad_norm[0] < 1e-12
        assert not batch[0].terminated_early
        for result, spec in zip(batch, specs):
            assert_same_chain(result, run_chain(objectives, spec))

    def test_up_to_three_objectives_solve_the_whole_batch_at_once(self, monkeypatch):
        def per_row(grads):
            raise AssertionError("solved one chain at a time")

        monkeypatch.setattr(samplers, "solve_min_norm", per_row)
        for problem in ("opposing-quadratics", "tri-quadratic"):
            objectives = get_problem(problem).objectives
            specs = batch_specs("pcebm", "gaussian", objectives, 0.05, 10, 1)
            assert not any(isinstance(r, ChainFailure) for r in run_population(objectives, specs))

    def test_mixed_population_keeps_input_order(self):
        objectives = get_problem("fonseca-fleming").objectives
        noisy = SamplerConfig(eta=0.05, steps=25, seed=1)
        other = SamplerConfig(eta=0.02, steps=25, sigma=0.1, seed=2, record_every=5)
        specs = [
            ChainSpec("pcebm", noisy, RandomInit(d=3)),
            ChainSpec("cebm", other, RandomInit(d=3)),
            ChainSpec("mgd", SamplerConfig(eta=0.05, steps=25, noise_kind="none"), DesignPoint([0.2, 0.1, 0.0])),
            ChainSpec("cebm", other, DesignPoint([1.0, 1.0])),  # wrong d
            ChainSpec("ls_cebm", other, RandomInit(d=3), fixed_lambda=SimplexWeights([0.25, 0.75])),
            ChainSpec("pcebm", SamplerConfig(eta=0.05, steps=25, seed=3), RandomInit(d=3)),
            ChainSpec("cebm", SamplerConfig(eta=0.02, steps=25, sigma=0.1, seed=4, record_every=5), RandomInit(d=3)),
        ]
        results = run_population(objectives, specs)
        assert len(results) == len(specs)
        for index, (spec, result) in enumerate(zip(specs, results)):
            if index == 3:
                assert isinstance(result, ChainFailure) and result.index == 3
                assert isinstance(result.error, ShapeError)
            else:
                assert_same_chain(result, run_chain(objectives, spec))

    def test_diverging_min_norm_chain_fails_alone(self):
        # With eta = 1.5, mgd maps (0, y) to (0, -2y): the chain started at
        # y = 1e300 has gradient 2y = +-1e300 * 2^(k+1), which overflows at
        # step 27. Its siblings oscillate, stop at step 1, or stay finite.
        objectives = opposing_quadratics()
        cfg = SamplerConfig(eta=1.5, steps=40, noise_kind="none", record_every=40)
        starts = [[3.0, 0.0], [2.0, 0.0], [0.0, 1e300], [0.3, 1e-3]]
        specs = [ChainSpec("mgd", cfg, DesignPoint(x)) for x in starts]
        results = run_population(objectives, specs)
        failure = results[2]
        assert isinstance(failure, ChainFailure) and failure.index == 2
        assert isinstance(failure.error, ValueError)
        assert "gradients must be finite" in str(failure.error) and "step 27 " in str(failure.error)
        with pytest.raises(ValueError, match="step 27 "):
            run_chain(objectives, specs[2])
        assert results[1].termination_step == 1
        for index in (0, 1, 3):
            assert_same_chain(results[index], run_chain(objectives, specs[index]))


class TestTrajectoryExport:
    def test_csv_layout(self, tmp_path):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=4, sigma=0.0)
        trajs = [
            run_cebm(objs, ChainSpec("cebm", cfg, DesignPoint([1.0, 1.0]))),
            run_cebm(objs, ChainSpec("cebm", cfg, DesignPoint([0.5, 0.5]))),
        ]
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
        traj = run_cebm(objs, ChainSpec("cebm", cfg, DesignPoint([1.0, 1.0])))
        assert list(traj.steps) == [0, 25, 50, 75, 100]

    def test_custom_names_and_ids(self, tmp_path):
        objs = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=2, sigma=0.0)
        traj = run_chain(objs, ChainSpec("cebm", cfg, DesignPoint([1.0, 1.0])))
        path = tmp_path / "traj.csv"
        write_trajectories(path, [traj], objective_names=["aff", "bv"], chain_ids=[7])
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("chain_id,step,aff,bv")
        assert lines[1].split(",")[0] == "7"


class TanhSum(EnergyModel):
    """Value sum(tanh(x - shift)) and its gradient: both stay finite even at
    infinite coordinates, so only the state itself can diverge."""

    def __init__(self, d, shift):
        self.shift = float(shift)
        self._d = d

    @property
    def d(self):
        return self._d

    def _value_and_gradient(self, coords):
        t = np.tanh(coords - self.shift)
        return float(t.sum()), 1.0 - t * t


class CappedQuadratic(ShiftedQuadratic):
    """A quadratic whose value is infinite once x[0] > 2; its gradient stays finite."""

    def _value_and_gradient(self, coords):
        value, grad = super()._value_and_gradient(coords)
        return (np.inf if coords[0] > 2.0 else value), grad

    def _batch_value_and_gradient(self, X):
        # The base class's row loop, so the cap applies to every row.
        return EnergyModel._batch_value_and_gradient(self, X)


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
        objectives = four_quadratics() if problem == "four-quadratics" else get_problem(problem).objectives
        cfg = SamplerConfig(eta=0.05, steps=150, noise_kind="none", record_every=10)
        starts = [[0.0, 50.0], [0.5, 0.0], [0.0, 1.0], [0.3, 40.0], [0.25, 0.0]]
        specs = [ChainSpec("mgd", cfg, DesignPoint(x)) for x in starts]
        results = run_population(objectives, specs, final_x_only=True)
        assert any(t.terminated_early for t in results) and not all(t.terminated_early for t in results)
        assert_final_x_matches(objectives, specs)

    def test_views_are_read_only(self):
        objectives = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=5, sigma=0.1, seed=3)
        for final_x_only in (False, True):
            [traj] = run_population(objectives, [ChainSpec("cebm", cfg, RandomInit(d=2))], final_x_only=final_x_only)
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
        specs = [ChainSpec("mgd", cfg, DesignPoint(x)) for x in starts]
        results = [run_chain(objectives, spec) for spec in specs]
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
        # and gradient stay finite: only the recorded coordinates show it.
        # Its siblings stay far from overflow.
        objectives = ObjectiveSet([TanhSum(2, 0.5), TanhSum(2, -0.5)])
        cfg = SamplerConfig(eta=0.1, steps=30, noise_kind=noise_kind, sigma=1e300, seed=0, record_every=4)
        big = np.finfo(np.float64).max
        starts = [[0.0, 0.0], [big, -big], [1.0, -1.0], [0.5, 0.5]]
        specs = [ChainSpec("cebm", replace(cfg, seed=i), DesignPoint(x)) for i, x in enumerate(starts)]
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
            run_chain(objectives, specs[1])
        assert errors[0] == errors[1] == str(solo.value)
        match = re.fullmatch(r"coords must be finite \(no NaN/Inf\); step (\d+) is not", errors[0])
        assert match and int(match.group(1)) % 4 == 0 and int(match.group(1)) > 0

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
        spec = ChainSpec("cebm", cfg, DesignPoint([0.0, 0.0]))
        for final_x_only in (False, True):
            [failure] = run_population(objectives, [spec], final_x_only=final_x_only)
            assert str(failure.error) == f"objective values must be finite (no NaN/Inf); step {first} is not"



class TestStarts:
    def test_bad_starts_fail_only_their_own_chains(self):
        objectives = opposing_quadratics()
        cfg = SamplerConfig(eta=0.1, steps=5, sigma=0.1)
        wrong_kind = RandomInit(kind=SEQUENCE_LOGITS, L=1, A=2)
        specs = [
            ChainSpec("cebm", cfg, RandomInit(d=2)),
            ChainSpec("cebm", cfg, RandomInit(d=2, scale=np.inf)),  # draws +-inf
            ChainSpec("cebm", cfg, wrong_kind),
            ChainSpec("cebm", cfg, RandomInit(d=3)),
            ChainSpec("cebm", cfg, wrong_kind),
            ChainSpec("cebm", cfg, DesignPoint([0.5, 0.5])),
        ]
        results = run_population(objectives, specs)
        assert str(results[1].error) == "coords must be finite (no NaN/Inf)"
        assert isinstance(results[2].error, WrongKindError) and isinstance(results[4].error, WrongKindError)
        assert results[2].error is not results[4].error
        assert isinstance(results[3].error, ShapeError)
        for index in (0, 5):
            assert_same_chain(results[index], run_chain(objectives, specs[index]))


def csv_oracle(path, trajectories, objective_names=None, chain_ids=None):
    """The row-by-row csv.writer export that write_trajectories must match byte for byte."""
    m = trajectories[0].m
    names = [f"f{i}" for i in range(m)] if objective_names is None else objective_names
    ids = range(len(trajectories)) if chain_ids is None else chain_ids
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["chain_id", "step", *names, *[f"lambda{i}" for i in range(m)], "grad_norm"])
        for cid, traj in zip(ids, trajectories):
            for step, values, weights, grad_norm in zip(
                traj.steps.tolist(), traj.F.tolist(), traj.lam.tolist(), traj.grad_norm.tolist()
            ):
                writer.writerow([cid, step, *values, *weights, grad_norm])


AWKWARD = [-0.0, 5e-324, 1e16, 0.1 + 0.2, -1.5e-7, 123.0, 2.0**60, -2.2250738585072014e-308]


def awkward_trajectory(m, rows, shift):
    values = np.roll(np.resize(AWKWARD, rows * m), shift).reshape(rows, m)
    grad_norm = np.roll(np.resize([np.inf, *AWKWARD], rows), shift)
    return Trajectory(np.arange(rows) * 3, np.zeros((rows, 2)), values, values[:, ::-1], grad_norm)


class TestTrajectoryBytes:
    @pytest.mark.parametrize("m", [1, 3])
    def test_matches_csv_writer(self, tmp_path, m):
        trajs = [awkward_trajectory(m, rows, shift) for shift, rows in enumerate((1, 4, 7))]
        for kwargs in ({}, {"chain_ids": [5, 0, 12]}, {"objective_names": ['a,b', 'q"x', "c"][:m]}):
            write_trajectories(tmp_path / "new.csv", trajs, **kwargs)
            csv_oracle(tmp_path / "old.csv", trajs, **kwargs)
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert b"\r\n" in (tmp_path / "new.csv").read_bytes()

    def test_sampled_views_match_csv_writer(self, tmp_path):
        objectives, eta, steps, record_every = BATCH_OBJECTIVES["mlp-3"]
        for method, noise in (("mgd", "none"), ("ls_cebm", "uniform")):
            specs = batch_specs(method, noise, objectives, eta, steps, record_every, chains=5)
            trajs = run_population(objectives, specs, final_x_only=True)
            write_trajectories(tmp_path / "new.csv", trajs, chain_ids=[1, 4, 6, 9, 30])
            csv_oracle(tmp_path / "old.csv", trajs, chain_ids=[1, 4, 6, 9, 30])
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("chain_ids", [[4], [4, 5], [4, 5, 6, 7]])
    def test_chain_id_count_must_match(self, tmp_path, chain_ids):
        trajs = [awkward_trajectory(2, 4, shift) for shift in range(3)]
        with pytest.raises(ShapeError, match=f"got {len(chain_ids)} chain ids for 3 trajectories"):
            write_trajectories(tmp_path / "t.csv", trajs, chain_ids=chain_ids)
        assert not (tmp_path / "t.csv").exists()

    def test_empty_and_mixed_m_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_trajectories(tmp_path / "t.csv", [])
        with pytest.raises(ShapeError):
            write_trajectories(tmp_path / "t.csv", [awkward_trajectory(1, 2, 0), awkward_trajectory(3, 2, 0)])
