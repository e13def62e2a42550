"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Stochastic criteria use fixed seeds, so every run is a
deterministic replication of a protocol that was verified to pass across
many independent seed choices.
"""

import csv
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from paretoebm.core import (
    DesignPoint,
    DiscreteSequence,
    SamplerConfig,
    relax,
    sequence_to_str,
    uniform_weights,
)
from paretoebm.energy import (
    CdTrainConfig,
    FonsecaFlemingBranch,
    MlpEnergy,
    ObjectiveSet,
    PwmEnergy,
    ShiftedQuadratic,
    Zdt3Branch,
    cd_train,
    save_model,
)
from paretoebm.harness import ExperimentConfig, improve_seeds, run_sweep
from paretoebm.metrics import (
    convergence_stats,
    edit_distance,
    hypervolume_exact,
    hypervolume_mc,
)
from paretoebm.moo import pareto_filter, solve_min_norm
from paretoebm.problems import get_problem
from paretoebm.samplers import (
    RandomInit,
    chain_seed,
    run_chain,
)


def report_pass(number, text):
    print(f"[criterion {number:02d}] PASS - {text}")


# --- criterion 1: min-norm solver correctness -------------------------------


def test_criterion_01_min_norm_solver():
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    g1 = rng.standard_normal((1000, 8))
    g2 = rng.standard_normal((1000, 8))
    lam = np.arange(0.0, 1.0 + 5e-4, 1e-3)
    combos = lam[None, :, None] * g1[:, None, :] + (1.0 - lam)[None, :, None] * g2[:, None, :]
    grid_best = np.linalg.norm(combos, axis=2).min(axis=1)
    for i in range(1000):
        _, _, norm = solve_min_norm(np.stack([g1[i], g2[i]]))
        assert norm <= grid_best[i] + 1e-9

    # Simplex grid with step 0.01; the solver must never be worse than the
    # grid by more than 1e-3 (the grid itself sits above the true optimum
    # by up to ~2e-2 near conflicts, so a two-sided bound is unattainable
    # for any solver).
    step = 0.01
    a_vals = np.arange(0.0, 1.0 + step / 2, step)
    for _ in range(200):
        grads = rng.standard_normal((3, 8))
        best = np.inf
        for a in a_vals:
            b = np.arange(0.0, 1.0 - a + step / 2, step)
            lam3 = np.stack([np.full_like(b, a), b, np.clip(1.0 - a - b, 0.0, 1.0)], axis=1)
            best = min(best, float(np.linalg.norm(lam3 @ grads, axis=1).min()))
        _, _, norm = solve_min_norm(grads)
        assert norm <= best + 1e-3

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report_pass(
        1,
        f"exact solve beats 1e-3 grid on 1000 pairs and is within 1e-3 of 0.01 simplex grid on 200 m=3 bundles "
        f"({elapsed:.1f}s)",
    )


# --- criterion 2: MGD monotone descent --------------------------------------


def test_criterion_02_mgd_monotone_descent():
    objectives = get_problem("fonseca-fleming")
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(100):
        x0 = DesignPoint(rng.standard_normal(3))
        cfg = SamplerConfig(eta=1e-3, steps=400, noise_kind="none", record_every=1)
        traj = run_chain(objectives, "mgd", cfg, x0)
        values = traj.F
        violations += int(np.sum(np.diff(values, axis=0) > 1e-9))
    assert violations == 0
    report_pass(2, "every objective non-increasing at every step on 100 random starts")


# --- criterion 3: reductions -------------------------------------------------


def _trajectories_bit_identical(t1, t2):
    assert len(t1) == len(t2)
    assert np.array_equal(t1.steps, t2.steps)
    assert np.array_equal(t1.X, t2.X)
    assert np.array_equal(t1.F, t2.F)
    assert np.array_equal(t1.lam, t2.lam)
    assert np.array_equal(t1.grad_norm, t2.grad_norm)


def test_criterion_03_reductions():
    rng = np.random.default_rng(303)
    for trial in range(20):
        d = int(rng.integers(2, 6))
        m = int(rng.integers(2, 4))
        centers = rng.normal(size=(m, d))
        objs = ObjectiveSet([ShiftedQuadratic(c) for c in centers])
        eta = float(10 ** rng.uniform(-2, -0.7))
        steps = int(rng.integers(5, 50))
        x0 = DesignPoint(rng.normal(size=d))
        seed = int(rng.integers(0, 2**31))

        mgd_cfg = SamplerConfig(eta=eta, steps=steps, noise_kind="none")
        pc_cfg = SamplerConfig(eta=eta, steps=steps, noise_kind="gaussian", alpha=0.0)
        _trajectories_bit_identical(
            run_chain(objs, "mgd", mgd_cfg, x0, seed=seed),
            run_chain(objs, "pcebm", pc_cfg, x0, seed=seed),
        )

        ce_cfg = SamplerConfig(eta=eta, steps=steps, noise_kind="gaussian", sigma=0.0)
        traj = run_chain(objs, "cebm", ce_cfg, x0, seed=seed)
        x = np.array(x0.coords)
        expect = {0: x.copy()}
        for k in range(1, steps + 1):
            g = objs.models[0].eval_batch(x[None])[1][0]
            for model in objs.models[1:]:
                g = g + model.eval_batch(x[None])[1][0]
            x = x - (eta / 2.0) * g
            expect[k] = x.copy()
        assert np.array_equal(traj.X, [expect[step] for step in traj.steps])
    report_pass(3, "pcEBM(alpha=0) == MGD and cEBM(sigma=0) == sum gradient descent, bit-identical over 20 draws")


# --- criterion 4: gradient fidelity ------------------------------------------


def _fd_gradient(model, coords, h=1e-5):
    bumps = h * np.eye(coords.size)
    return (model.eval_batch(coords + bumps)[0] - model.eval_batch(coords - bumps)[0]) / (2.0 * h)


def test_criterion_04_gradient_fidelity():
    rng = np.random.default_rng(404)
    factories = {
        "pwm": lambda: PwmEnergy(rng.normal(size=(4, 5))),
        "mlp": lambda: MlpEnergy.random(hidden=6, d=9, seed=int(rng.integers(1 << 30)), scale=0.4),
        "quadratic": lambda: ShiftedQuadratic(rng.normal(size=6)),
        "fonseca": lambda: FonsecaFlemingBranch(1 if rng.random() < 0.5 else -1, 3),
        "zdt3-f1": lambda: Zdt3Branch(0, 5),
        "zdt3-f2": lambda: Zdt3Branch(1, 5),
    }
    for name, make in factories.items():
        for _ in range(100):
            model = make()
            if isinstance(model, FonsecaFlemingBranch):
                # Saturated tail: the true gradient is exponentially small
                # there and central differences lose all relative accuracy.
                while True:
                    x = model.center + 0.6 * rng.standard_normal(model.d)
                    if float((x - model.center) @ (x - model.center)) < 4.0:
                        break
            else:
                x = rng.standard_normal(model.d)
            g = model.eval_batch(x[None])[1][0]
            fd = _fd_gradient(model, x)
            rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
            assert rel < 1e-5, f"{name}: relative error {rel}"
    report_pass(4, "analytic gradients match central differences (<1e-5) for every model kind, 100 draws each")


# --- criterion 5: hypervolume -------------------------------------------------


def test_criterion_05_hypervolume():
    ref2 = np.ones(2)
    assert hypervolume_exact([np.array([0.5, 0.5])], ref2) == pytest.approx(0.25, abs=1e-12)
    assert hypervolume_exact(
        [np.array([0.2, 0.8]), np.array([0.8, 0.2])], ref2
    ) == pytest.approx(0.28, abs=1e-12)

    rng = np.random.default_rng(505)
    for trial in range(50):
        m = 2 if trial % 2 == 0 else 3
        ref = np.ones(m)
        pts = [rng.random(m) for _ in range(int(rng.integers(1, 12)))]
        exact = hypervolume_exact(pts, ref)
        est, err = hypervolume_mc(pts, ref, 1_000_000, seed=trial)
        assert abs(est - exact) <= 3.0 * max(err, 1e-12)

    for trial in range(500):
        m = 2 if trial % 2 == 0 else 3
        ref = np.ones(m)
        pts = [rng.random(m) for _ in range(int(rng.integers(1, 9)))]
        hv = hypervolume_exact(pts, ref)
        assert hypervolume_exact(pts + [rng.random(m)], ref) >= hv - 1e-15
        keep = pareto_filter([np.asarray(p) for p in pts])
        assert hypervolume_exact([pts[i] for i in keep], ref) == hv
    report_pass(5, "fixtures exact to 1e-12; MC agrees within 3 sigma on 50 sets; monotone and dominance-invariant on 500 sets")


# --- criterion 6: comparative hypervolume and front breadth -------------------


def _front_breadth(front_csv: Path, method: str) -> float:
    f0 = []
    with open(front_csv, newline="") as fh:
        for row in csv.DictReader(fh):
            if row["label"] == method and row["non_dominated"] == "1":
                f0.append(float(row["f0"]))
    return max(f0) - min(f0) if f0 else 0.0


def test_criterion_06_comparative_hypervolume(tmp_path):
    # 256 chains, k=400, eta=0.01 with variance-matched noise for the two
    # Langevin methods (sigma = sqrt(2*alpha) = 0.02) and a shared
    # concentrated start region, mirroring generation from one seed
    # neighborhood. Verified to pass across independent seed blocks.
    start = time.perf_counter()
    hv = {"pcebm": [], "cebm": []}
    breadth = {"pcebm": [], "mgd": []}
    for base_seed in range(5):
        cfg = ExperimentConfig(
            problem="fonseca-fleming",
            methods=("mgd", "cebm", "ls_cebm", "pcebm"),
            etas=(0.01,),
            steps_grid=(400,),
            noise_kinds=("gaussian",),
            chains=256,
            output_dir=tmp_path / f"sweep_{base_seed}",
            base_seed=base_seed,
            sigma=0.02,
            alpha=2e-4,
            init_scale=0.1,
            record_every=400,
        )
        result = run_sweep(cfg)
        cells = {c["method"]: c for c in result.report["cells"]}
        hv["pcebm"].append(cells["pcebm"]["hv_all"])
        hv["cebm"].append(cells["cebm"]["hv_all"])
        for method in ("pcebm", "mgd"):
            front = tmp_path / f"sweep_{base_seed}" / "cells" / cells[method]["cell_id"] / "front.csv"
            breadth[method].append(_front_breadth(front, method))
    elapsed = time.perf_counter() - start
    med_hv_pc = float(np.median(hv["pcebm"]))
    med_hv_ce = float(np.median(hv["cebm"]))
    med_br_pc = float(np.median(breadth["pcebm"]))
    med_br_mgd = float(np.median(breadth["mgd"]))
    assert med_hv_pc >= med_hv_ce
    assert med_br_pc > med_br_mgd
    assert elapsed < 600.0
    report_pass(
        6,
        f"median HV pcEBM {med_hv_pc:.3f} >= cEBM {med_hv_ce:.3f}; "
        f"front breadth pcEBM {med_br_pc:.2f} > MGD {med_br_mgd:.2f} ({elapsed:.0f}s)",
    )


# --- criterion 7: convergence speed -------------------------------------------


def test_criterion_07_convergence_speed():
    # Paired chains start from one existing design near the trade-off set
    # (the same-starting-sequence comparison) with variance-matched per-step
    # noise: sigma = sqrt(2*alpha) = 0.002.
    objectives = get_problem("tri-quadratic")
    centers = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.0]])
    sigma, alpha, k = 0.002, 2e-6, 200

    def settle(traj):
        return max(convergence_stats(traj, eps=0.05).steps_to_eps)

    pc, ce = [], []
    for i in range(50):
        seed = chain_seed(707, i)
        rng = np.random.default_rng(seed)
        w = rng.dirichlet([2.0, 2.0, 2.0])
        x0 = DesignPoint(w @ centers + 0.1 * rng.standard_normal(2))
        pc_cfg = SamplerConfig(eta=0.01, steps=k, alpha=alpha)
        ce_cfg = SamplerConfig(eta=0.01, steps=k, sigma=sigma)
        pc.append(settle(run_chain(objectives, "pcebm", pc_cfg, x0, seed=seed)))
        ce.append(settle(run_chain(objectives, "cebm", ce_cfg, x0, seed=seed)))
    med_pc, med_ce = float(np.median(pc)), float(np.median(ce))
    assert med_pc <= med_ce
    report_pass(7, f"median steps to within 5% of final: pcEBM {med_pc:.0f} <= cEBM {med_ce:.0f} over 50 paired seeds")


# --- criterion 8: linear scalarization on a convex front ----------------------


def test_criterion_08_scalarization_traces_convex_front():
    from paretoebm.core import SimplexWeights

    objectives = get_problem("opposing-quadratics")
    for lam1 in np.linspace(0.0, 1.0, 11):
        lam = np.array([lam1, 1.0 - lam1])
        cfg = SamplerConfig(eta=0.1, steps=200, sigma=0.0)
        traj = run_chain(
            objectives, "ls_cebm", cfg, RandomInit(d=2, scale=1.0), seed=int(lam1 * 10),
            fixed_lambda=SimplexWeights(lam),
        )
        final = traj.X[-1]
        expected = np.array([2.0 * lam1 - 1.0, 0.0])
        assert np.linalg.norm(final - expected) <= 1e-4
        # On the known trade-off segment between the two centers.
        assert -1.0 - 1e-4 <= final[0] <= 1.0 + 1e-4
        assert abs(final[1]) <= 1e-4
    report_pass(8, "11-point lambda grid lands on the trade-off segment within 1e-4")


# --- criterion 9: edit distance -----------------------------------------------


def _py_edit_distance(a, b):
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


def test_criterion_09_edit_distance():
    assert edit_distance("kitten", "sitting") == 3
    rng = np.random.default_rng(909)
    for _ in range(1000):
        a = rng.integers(0, 5, size=rng.integers(0, 65))
        b = rng.integers(0, 5, size=rng.integers(0, 65))
        assert edit_distance(a, b) == _py_edit_distance(a, b)
    for _ in range(1000):
        a = rng.integers(0, 3, size=rng.integers(1, 24))
        b = rng.integers(0, 3, size=rng.integers(1, 24))
        c = rng.integers(0, 3, size=rng.integers(1, 24))
        dab = edit_distance(a, b)
        assert dab == edit_distance(b, a)
        assert (dab == 0) == (len(a) == len(b) and np.array_equal(a, b))
        assert edit_distance(a, c) <= dab + edit_distance(b, c)
    report_pass(9, "matches DP oracle on 1000 pairs; classical fixture = 3; metric axioms on 1000 triples")


# --- criterion 10: contrastive-divergence training ----------------------------


def test_criterion_10_cd_training():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    L, A = 16, 20
    W_star = rng.normal(size=(L, A))
    probs = np.exp(-W_star)
    probs /= probs.sum(axis=1, keepdims=True)

    def sample(n):
        tokens = np.stack([rng.choice(A, size=n, p=probs[l]) for l in range(L)], axis=1)
        return [DiscreteSequence(t, alphabet_size=A) for t in tokens]

    train = sample(2000)
    held = sample(500)
    uniform = [DiscreteSequence(rng.integers(0, A, L), alphabet_size=A) for _ in range(500)]

    histories = []
    model = None
    for seed in range(5):
        cfg = CdTrainConfig(
            cd_steps=5, lr=0.15, epochs=12, batch_size=2000, l2=0.3, seed=seed, cd_eta=0.1
        )
        model, history = cd_train(PwmEnergy.zeros(L, A), train, cfg)
        histories.append(history)
    medians = np.median(np.array(histories), axis=0)
    assert all(b < a for a, b in zip(medians, medians[1:])), "median loss gap not monotone"

    e_pos = model.eval_batch(np.stack([relax(s).coords for s in held]))[0]
    e_unf = model.eval_batch(np.stack([relax(s).coords for s in uniform]))[0]
    gap = float(e_unf.mean() - e_pos.mean())
    stderr = math.sqrt(e_pos.var() / e_pos.size + e_unf.var() / e_unf.size)
    assert e_pos.mean() < e_unf.mean()
    assert gap >= 3.0 * stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report_pass(10, f"held-out positives {gap / stderr:.0f} standard errors below uniform; 5-seed median loss monotone ({elapsed:.0f}s)")


# --- criterion 11: seed improvement -------------------------------------------


def test_criterion_11_seed_improvement(tmp_path):
    rng = np.random.default_rng(1111)
    L, A = 16, 20
    W = rng.normal(size=(L, A))
    scorer = PwmEnergy(W)
    model_path = tmp_path / "scorer.model"
    save_model(scorer, model_path)

    # Adversarial seeds: highest-energy tokens, plus draws biased toward them.
    worst = np.argmax(W, axis=1)
    seeds = [DiscreteSequence(worst, alphabet_size=A)]
    bad_probs = np.exp(W)
    bad_probs /= bad_probs.sum(axis=1, keepdims=True)
    for _ in range(7):
        toks = np.array([rng.choice(A, p=bad_probs[l]) for l in range(L)])
        seeds.append(DiscreteSequence(toks, alphabet_size=A))

    cfg = ExperimentConfig(
        problem="sequence-energies",
        methods=("mgd", "cebm", "ls_cebm", "pcebm"),
        etas=(0.1,),
        steps_grid=(60,),
        noise_kinds=("gaussian",),
        chains=1,
        output_dir=tmp_path / "improve",
        base_seed=11,
        model_files=(str(model_path),),
        ls_lambda=(1.0,),
        sigma=0.01,
        alpha=5e-5,
    )
    report = improve_seeds(cfg, seeds, scorer)

    pairs = {(e["method"], e["seed_index"]) for e in report.entries}
    assert len(report.entries) == 4 * len(seeds)
    assert pairs == {(m, i) for m in cfg.methods for i in range(len(seeds))}
    for entry in report.entries:
        assert entry["after"] < entry["before"]
        assert {"before", "after", "edit_distance", "sequence"} <= set(entry)
    for method in cfg.methods:
        summary = report.per_method[method]
        assert summary["improved_fraction"] == 1.0
        assert len(summary["scores"]) == len(seeds)
    report_pass(11, "every method improves 100% of adversarial seeds; report covers every (seed, method) pair")


# --- criterion 12: end-to-end determinism -------------------------------------


def _bundle_bytes(root: Path) -> dict:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_criterion_12_sweep_determinism(tmp_path):
    def make(out):
        return ExperimentConfig(
            problem="fonseca-fleming",
            methods=("mgd", "pcebm"),
            etas=(0.01,),
            steps_grid=(50,),
            noise_kinds=("gaussian",),
            chains=16,
            output_dir=out,
            base_seed=12,
            record_every=10,
        )

    run_sweep(make(tmp_path / "a"))
    run_sweep(make(tmp_path / "b"))
    a = _bundle_bytes(tmp_path / "a")
    b = _bundle_bytes(tmp_path / "b")
    assert a == b

    # Resume: delete half of the cells and the report, then rerun.
    run_sweep(make(tmp_path / "c"))
    cell_dirs = sorted((tmp_path / "c" / "cells").iterdir())
    for cell_dir in cell_dirs[: len(cell_dirs) // 2]:
        shutil.rmtree(cell_dir)
    (tmp_path / "c" / "report.json").unlink()
    run_sweep(make(tmp_path / "c"))
    assert _bundle_bytes(tmp_path / "c") == a
    report_pass(12, "two fresh sweeps and a sweep resumed after losing half its cells give byte-identical bundles")
