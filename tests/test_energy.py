import gc
import hashlib
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest

from paretoebm.core import (
    DiscreteSequence,
    ModelFormatError,
    ShapeError,
    WrongKindError,
    relax,
)
from paretoebm.energy import (
    MODEL_MAGIC,
    CdTrainConfig,
    EnergyModel,
    FonsecaFlemingBranch,
    MlpEnergy,
    ObjectiveSet,
    PwmEnergy,
    ShiftedQuadratic,
    Zdt3Branch,
    _tiled_matmul,
    cd_train,
    gradient_stack,
    load_model,
    save_model,
)

FD_H = 1e-5


def exp_differs_from_math_exp(args):
    """Mask of the arguments where np.exp and math.exp round differently."""
    return np.exp(args) != np.array([math.exp(a) for a in args.tolist()])


# False where numpy's exp loop rounds exactly as the C library does (for
# example with its AVX-512 loops disabled); math.exp and np.exp are then
# indistinguishable.
EXP_LOOPS_DIFFER = bool(exp_differs_from_math_exp(-np.random.default_rng(0).uniform(0.0, 30.0, 20000)).any())


@pytest.mark.parametrize("ufunc", [np.exp, np.sin, np.cos], ids=["exp", "sin", "cos"])
def test_ufunc_rounds_an_element_alike_at_any_length(ufunc):
    # The batch = solo of FonsecaFlemingBranch (np.exp) and Zdt3Branch (np.sin,
    # np.cos) rests on this: a Python float, a numpy scalar and a 1-element
    # array give the element that arrays of length 1-40 give at every offset,
    # SIMD bodies and tails alike.
    args = -np.random.default_rng(5).uniform(0.0, 30.0, 120)
    scalar = np.array([ufunc(a) for a in args.tolist()])
    assert np.array_equal(scalar, [ufunc(a) for a in args])  # numpy scalars
    assert np.array_equal(scalar, [ufunc(args[i : i + 1])[0] for i in range(args.size)])
    for length in range(1, 41):
        for start in range(args.size - length + 1):
            assert np.array_equal(ufunc(args[start : start + length]), scalar[start : start + length])


class TestOneKernel:
    @pytest.mark.parametrize("cls", [PwmEnergy, MlpEnergy, ShiftedQuadratic, FonsecaFlemingBranch, Zdt3Branch])
    def test_each_model_defines_only_the_batch_kernel(self, cls):
        assert "eval_batch" in vars(cls)
        assert {name for name in vars(EnergyModel) if not name.startswith("_")} == {"d", "point_kind", "eval_batch"}


def fd_gradient(model, coords, h=FD_H):
    bumps = h * np.eye(coords.size)
    return (model.eval_batch(coords + bumps)[0] - model.eval_batch(coords - bumps)[0]) / (2.0 * h)


def rel_error(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def draw_point(model, rng):
    # FF branches saturate; keep draws where the finite-difference oracle is
    # well conditioned (the gradient there is exponentially small otherwise).
    if isinstance(model, FonsecaFlemingBranch):
        while True:
            x = model.center + 0.6 * rng.standard_normal(model.d)
            if float((x - model.center) @ (x - model.center)) < 4.0:
                return x
    return rng.standard_normal(model.d)


class TestValueAndGradient:
    def test_pwm_linear_form(self):
        v, g = PwmEnergy([[1.0, 2.0]]).eval_batch(np.array([[1.0, 0.0]]))
        assert np.array_equal(v, [1.0])
        assert np.array_equal(g, [[1.0, 2.0]])

    def test_quadratic_minimum(self):
        v, g = ShiftedQuadratic([1.0, 0.0]).eval_batch(np.array([[1.0, 0.0]]))
        assert np.array_equal(v, [0.0])
        assert np.array_equal(g, [[0.0, 0.0]])

    def test_mlp_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            model = MlpEnergy.random(hidden=7, d=5, seed=trial, scale=0.5)
            x = rng.standard_normal(5)
            g = model.eval_batch(x[None])[1][0]
            assert rel_error(g, fd_gradient(model, x)) < 1e-5

    @pytest.mark.parametrize(
        "factory",
        [
            lambda i: PwmEnergy(np.random.default_rng(i).normal(size=(3, 4))),
            lambda i: MlpEnergy.random(hidden=6, d=8, seed=i, scale=0.4),
            lambda i: ShiftedQuadratic(np.random.default_rng(i).normal(size=4)),
            lambda i: FonsecaFlemingBranch(1 if i % 2 else -1, 3),
            lambda i: Zdt3Branch(0, 4),
            lambda i: Zdt3Branch(1, 4),
        ],
        ids=["pwm", "mlp", "quadratic", "fonseca", "zdt3-f1", "zdt3-f2"],
    )
    def test_gradient_check_all_kinds(self, factory):
        rng = np.random.default_rng(11)
        for i in range(25):
            model = factory(i)
            x = draw_point(model, rng)
            g = model.eval_batch(x[None])[1][0]
            assert rel_error(g, fd_gradient(model, x)) < 1e-5

    def test_pwm_gradient_constant_in_point(self):
        rng = np.random.default_rng(5)
        model = PwmEnergy(rng.normal(size=(4, 3)))
        grads = model.eval_batch(rng.standard_normal((10, 12)))[1]
        for g in grads[1:]:
            assert np.array_equal(g, grads[0])

    def test_fonseca_closed_form(self):
        # Second, independent evaluation of the two branches at the minimizer
        # of the first: f1 = 0 and f2 = 1 - exp(-4) at x = (1/sqrt(2), 1/sqrt(2)).
        x = np.full(2, 1.0 / math.sqrt(2.0))
        f1 = FonsecaFlemingBranch(1, 2).eval_batch(x[None])[0][0]
        f2 = FonsecaFlemingBranch(-1, 2).eval_batch(x[None])[0][0]
        assert f1 == pytest.approx(0.0, abs=1e-15)
        expected = 1.0 - math.exp(-sum((v + 1.0 / math.sqrt(2.0)) ** 2 for v in x))
        assert f2 == pytest.approx(expected, rel=1e-12)
        assert f2 == pytest.approx(1.0 - math.exp(-4.0), rel=1e-12)

    def test_zdt3_closed_form(self):
        # The batch kernel against the formula evaluated point by point with
        # math: t = s(x_1), f1 = t, f2 = g - t * (1 + sin(10 pi t)).
        X = np.random.default_rng(12).standard_normal((50, 5)) * 2.0
        f1 = Zdt3Branch(0, 5).eval_batch(X)[0]
        f2 = Zdt3Branch(1, 5).eval_batch(X)[0]
        for i, x in enumerate(X.tolist()):
            t = x[0] ** 2 / (1.0 + x[0] ** 2)
            g = 1.0 + 9.0 / 4.0 * sum(v * v / (1.0 + v * v) for v in x[1:])
            assert f1[i] == pytest.approx(t, rel=1e-12)
            assert f2[i] == pytest.approx(g - t * (1.0 + math.sin(10.0 * math.pi * t)), rel=1e-12, abs=1e-12)


class TestObjectiveSet:
    def test_symmetric_quadratics(self):
        objs = ObjectiveSet([ShiftedQuadratic([1.0, 0.0]), ShiftedQuadratic([-1.0, 0.0])])
        values = objs.eval_batch(np.array([[0.0, 0.0]]))[0][0]
        assert np.array_equal(values, [1.0, 1.0])

    def test_singleton(self):
        objs = ObjectiveSet([ShiftedQuadratic([2.0])])
        X = np.array([[0.0]])
        assert objs.eval_batch(X)[0][0, 0] == objs.models[0].eval_batch(X)[0][0]

    def test_order_preserved(self):
        objs = ObjectiveSet([ShiftedQuadratic([1.0]), ShiftedQuadratic([3.0])])
        values = objs.eval_batch(np.array([[0.0]]))[0][0]
        assert np.array_equal(values, [1.0, 9.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ObjectiveSet([ShiftedQuadratic([1.0]), ShiftedQuadratic([1.0, 2.0])])

    def test_kind_mismatch_rejected(self):
        with pytest.raises(WrongKindError):
            ObjectiveSet([ShiftedQuadratic([1.0, 2.0]), PwmEnergy([[1.0, 2.0]])])

    def test_empty_rejected(self):
        with pytest.raises(ShapeError):
            ObjectiveSet([])

    def test_sequence_layout_mismatch_rejected(self):
        # One d, two layouts: every chain decodes with one layout, so a
        # second one would score a different reading of the same logits.
        assert ObjectiveSet([PwmEnergy.zeros(4, 6), MlpEnergy.random(hidden=2, L=4, A=6)]).sequence_dims() == (4, 6)
        with pytest.raises(ShapeError, match=re.escape("model 1 has (L, A)=(6, 4), expected (4, 6)")):
            ObjectiveSet([PwmEnergy.zeros(4, 6), PwmEnergy.zeros(6, 4)])

    def test_raw_set_has_no_sequence_layout(self):
        with pytest.raises(WrongKindError, match="no sequence layout"):
            ObjectiveSet([ShiftedQuadratic([1.0, 2.0])]).sequence_dims()

    @pytest.mark.parametrize(
        "models",
        [
            [MlpEnergy.random(hidden=64, d=1000, seed=1), MlpEnergy.random(hidden=64, d=1000, seed=2)],
            [MlpEnergy.random(hidden=6, d=8, seed=3, scale=0.4)],
            [ShiftedQuadratic([1.0, 0.0, -2.0]), ShiftedQuadratic([0.5, 0.5, 0.5]), ShiftedQuadratic([0.0, 3.0, 1.0])],
            [FonsecaFlemingBranch(1, 3), FonsecaFlemingBranch(-1, 3)],
            [Zdt3Branch(0, 4), Zdt3Branch(1, 4)],
            [PwmEnergy(np.random.default_rng(4).normal(size=(4, 3)))],
        ],
        ids=["mlp-d1000", "mlp-d8", "quadratic", "fonseca", "zdt3", "pwm"],
    )
    def test_eval_batch_rows_match_single_points_bit_for_bit(self, models):
        objs = ObjectiveSet(models)
        X = np.random.default_rng(9).standard_normal((64, objs.d)) * 2.0
        values, grads = objs.eval_batch(X)
        assert values.shape == (64, objs.m) and grads.shape == (64, objs.m, objs.d)
        for i, x in enumerate(X):
            for j, model in enumerate(models):
                value, grad = model.eval_batch(x[None])
                assert values[i, j] == value[0]
                assert np.array_equal(grads[i, j], grad[0])
        for j, model in enumerate(models):
            if isinstance(model, FonsecaFlemingBranch):
                # Some rows round differently under math.exp, and both paths
                # use np.exp: a path back on math.exp fails one of these checks.
                delta = X - model.center
                args = -np.vecdot(delta, delta)
                assert exp_differs_from_math_exp(args).any() or not EXP_LOOPS_DIFFER
                e = np.exp(args)
                assert np.array_equal(values[:, j], 1.0 - e)
                assert np.array_equal(grads[:, j], (2.0 * e)[:, None] * delta)


class TestTiledMatmul:
    def test_every_row_of_a_tile_equals_the_row_alone(self):
        # MlpEnergy's batch = solo rests on this property of the BLAS: a row
        # of a fixed-shape tile product rounds alike at any position in the
        # tile, whatever its sibling rows hold. The shapes are seq-sweep's
        # (d = 1000, H = 64), under the sampler's errstate.
        rng = np.random.default_rng(13)
        model = MlpEnergy.random(hidden=64, d=1000, seed=1)
        products = [("forward X @ w1.T", model.w1.T), ("backward Dz @ w1", model.w1)]
        sizes = [1, 8, 9, 40, *rng.integers(1, 41, size=296)]
        with np.errstate(over="ignore", invalid="ignore"):
            for batch, n in enumerate(sizes):
                name, B = products[batch % 2]
                k = B.shape[0]
                A = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-3, 4, size=(n, 1))
                if n > 1 and batch % 3 == 0:
                    # Siblings holding NaN and inf.
                    rows = rng.choice(n, size=rng.integers(1, n), replace=False)
                    A[rows, rng.integers(k, size=rows.size)] = rng.choice([np.nan, np.inf, -np.inf], size=rows.size)
                if batch % 5 == 0:
                    # A Fortran-ordered tile rounds unlike a C-ordered one, so
                    # the helper must copy such a batch to C order.
                    A = np.asfortranarray(A)
                tiled = _tiled_matmul(A, B)
                assert tiled.shape == (n, B.shape[1])
                finite = np.all(np.isfinite(A), axis=1)
                # Within the float64 error bound of a k-term dot product (k * eps <= 2.3e-13).
                bound = 1e-12 * (np.abs(A[finite]) @ np.abs(B))
                assert np.all(np.abs(tiled[finite] - A[finite] @ B) <= bound)
                for i in range(n):
                    alone = _tiled_matmul(A[i : i + 1], B)[0]
                    assert np.array_equal(tiled[i], alone, equal_nan=True), (
                        f"{name}: row {i} of a {n}-row batch differs from the row alone. This BLAS "
                        "does not round a fixed-shape tile row by row, so MlpEnergy's batch rows "
                        "are not its solo results; see the README on sequence energies."
                    )


class TestGradientStack:
    """ObjectiveSet.eval_batch writes each model's gradients into its (n, d)
    block of the caller's stack, the bits of the call without one."""

    SETS = {
        "mlp": lambda d: [MlpEnergy.random(16, d=d, seed=seed) for seed in range(3)],
        "pwm": lambda d: [PwmEnergy(np.arange(d, dtype=float).reshape(2, d // 2)), PwmEnergy(-np.ones((2, d // 2)))],
        "mixed": lambda d: [Zdt3Branch(0, d), Zdt3Branch(1, d), ShiftedQuadratic(np.ones(d)), FonsecaFlemingBranch(-1, d)],
        "fonseca": lambda d: [FonsecaFlemingBranch(1, d), FonsecaFlemingBranch(-1, d)],
    }

    @pytest.mark.parametrize("n", [1, 5, 8, 16])
    @pytest.mark.parametrize("layout", ["objective-major", "C", "rows of a larger stack"])
    @pytest.mark.parametrize("name", SETS)
    def test_written_gradients_are_the_gradients_of_a_call_without_a_stack(self, name, layout, n):
        d = 6
        objectives = ObjectiveSet(self.SETS[name](d))
        m = objectives.m
        X = np.random.default_rng(n).normal(size=(n, d))
        out = {
            "objective-major": lambda: gradient_stack(n, m, d),
            "C": lambda: np.empty((n, m, d)),
            "rows of a larger stack": lambda: gradient_stack(n + 3, m, d)[:n],
        }[layout]()
        out[...] = np.nan
        values, grads = objectives.eval_batch(X, out)
        alone_values, alone_grads = objectives.eval_batch(X)
        assert grads is out
        assert np.array_equal(values, alone_values) and np.array_equal(out, alone_grads)
        for i, model in enumerate(objectives.models):
            assert np.array_equal(model.eval_batch(X)[1], out[:, i])

    def test_mlp_set_allocates_less_than_one_block(self):
        # Three sequence MLPs as in the seq-sweep benchmark. Each model's
        # backward tile product writes into its block of the stack, so the
        # call allocates only (n, H) activations, not an (n, d) array.
        n, L, A = 32, 50, 20
        d = L * A
        objectives = ObjectiveSet([MlpEnergy.random(64, L=L, A=A, seed=seed) for seed in range(3)])
        X = np.random.default_rng(0).normal(scale=0.1, size=(n, d))
        out = gradient_stack(n, objectives.m, d)
        objectives.eval_batch(X, out)
        gc.collect()
        tracemalloc.start()
        try:
            objectives.eval_batch(X, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * d * 8, peak


class TestCenteredFamilyKernel:
    @pytest.mark.parametrize("family", ["quadratic", "fonseca"])
    def test_stacked_kernel_is_each_model_and_each_row_alone(self, family):
        # ObjectiveSet.eval_batch on a set of one centered family is the
        # family's kernel over the stacked centers. Each column must be that
        # model's own kernel bit for bit, and each row the row alone, at any
        # memory offset and whatever its sibling rows hold (NaN and inf
        # included), under the sampler's errstate.
        rng = np.random.default_rng(17)
        with np.errstate(over="ignore", invalid="ignore"):
            for batch in range(200):
                d = int(rng.choice([1, 2, 3, 5, 8, 1000]))
                k = int(rng.integers(1, 5))
                if family == "quadratic":
                    models = [ShiftedQuadratic(rng.standard_normal(d) * 10.0 ** rng.integers(-2, 3)) for _ in range(k)]
                else:
                    models = [FonsecaFlemingBranch(int(sign), d) for sign in rng.choice([1, -1], size=k)]
                objs = ObjectiveSet(models)
                assert objs._kernel is not None
                n = int(rng.integers(1, 41))
                X = rng.standard_normal((n + 3, d)) * 10.0 ** rng.integers(-3, 4, size=(n + 3, 1))
                if batch % 3 == 0:
                    rows = rng.choice(n + 3, size=rng.integers(1, n + 3), replace=False)
                    X[rows, rng.integers(d, size=rows.size)] = rng.choice([np.nan, np.inf, -np.inf], size=rows.size)
                offset = int(rng.integers(0, 4))
                values, grads = objs.eval_batch(X[offset : offset + n])
                assert values.shape == (n, k) and grads.shape == (n, k, d)
                for j, model in enumerate(models):
                    own_values, own_grads = model.eval_batch(X[offset : offset + n])
                    assert np.array_equal(values[:, j], own_values, equal_nan=True)
                    assert np.array_equal(grads[:, j], own_grads, equal_nan=True)
                for i in range(n):
                    alone_values, alone_grads = objs.eval_batch(X[offset + i : offset + i + 1])
                    assert np.array_equal(values[i], alone_values[0], equal_nan=True), (
                        f"{family}: row {i} of a {n}-row batch differs from the row alone"
                    )
                    assert np.array_equal(grads[i], alone_grads[0], equal_nan=True)

    def test_other_sets_take_one_pass_per_model(self):
        class TripledQuadratic(ShiftedQuadratic):
            def eval_batch(self, X, out=None):
                values, grads = super().eval_batch(X, out)
                grads *= 3.0
                return 3.0 * values, grads

        X = np.array([[0.0, 0.0, 0.0]])
        mixed = ObjectiveSet([ShiftedQuadratic([1.0, 0.0, 0.0]), FonsecaFlemingBranch(1, 3)])
        assert mixed._kernel is None
        assert np.array_equal(mixed.eval_batch(X)[0][0], [1.0, mixed.models[1].eval_batch(X)[0][0]])
        # A subclass is not the family: its own kernel runs.
        tripled = ObjectiveSet([TripledQuadratic([1.0, 0.0, 0.0]), TripledQuadratic([0.0, 2.0, 0.0])])
        assert tripled._kernel is None
        assert np.array_equal(tripled.eval_batch(X)[0][0], [3.0, 12.0])


def planted_pwm_data(rng, L=6, A=4, n=300):
    W = rng.normal(size=(L, A))
    probs = np.exp(-W)
    probs /= probs.sum(axis=1, keepdims=True)
    tokens = np.stack([rng.choice(A, size=n, p=probs[l]) for l in range(L)], axis=1)
    return W, [DiscreteSequence(t, alphabet_size=A) for t in tokens]


class TestCdTrain:
    def test_zero_lr_keeps_parameters(self):
        rng = np.random.default_rng(0)
        _, data = planted_pwm_data(rng)
        model = PwmEnergy(rng.normal(size=(6, 4)))
        cfg = CdTrainConfig(cd_steps=2, lr=0.0, epochs=3, batch_size=64, seed=1)
        trained, history = cd_train(model, data, cfg)
        assert np.array_equal(trained.weights, model.weights)
        assert len(history) == 3

    def test_same_seed_same_history(self):
        rng = np.random.default_rng(2)
        _, data = planted_pwm_data(rng)
        cfg = CdTrainConfig(cd_steps=3, lr=0.1, epochs=4, batch_size=50, l2=0.2, seed=9)
        _, h1 = cd_train(PwmEnergy.zeros(6, 4), data, cfg)
        _, h2 = cd_train(PwmEnergy.zeros(6, 4), data, cfg)
        assert h1 == h2

    def test_planted_pwm_separates_positives(self):
        rng = np.random.default_rng(4)
        _, data = planted_pwm_data(rng, n=400)
        held = data[300:]
        cfg = CdTrainConfig(cd_steps=5, lr=0.15, epochs=10, batch_size=300, l2=0.3, seed=0)
        trained, _ = cd_train(PwmEnergy.zeros(6, 4), data[:300], cfg)
        uniform = [
            DiscreteSequence(rng.integers(0, 4, 6), alphabet_size=4) for _ in range(100)
        ]
        e_pos = np.mean(trained.eval_batch(np.stack([relax(s).coords for s in held]))[0])
        e_unf = np.mean(trained.eval_batch(np.stack([relax(s).coords for s in uniform]))[0])
        assert e_pos < e_unf

    def test_mlp_training_runs_and_is_deterministic(self):
        rng = np.random.default_rng(6)
        _, data = planted_pwm_data(rng, n=120)
        model = MlpEnergy.random(hidden=5, L=6, A=4, seed=0)
        cfg = CdTrainConfig(cd_steps=2, lr=0.05, epochs=2, batch_size=60, seed=3)
        _, h1 = cd_train(model, data, cfg)
        _, h2 = cd_train(model, data, cfg)
        assert h1 == h2

    @pytest.mark.parametrize(
        "model", [PwmEnergy(np.full((6, 4), 0.5)), MlpEnergy.random(hidden=5, L=6, A=4, seed=0)], ids=["pwm", "mlp"]
    )
    def test_overflowing_update_raises(self, model):
        # l2 * theta is about 1e307, and lr = 1e308 takes the first update past the largest float.
        _, data = planted_pwm_data(np.random.default_rng(1))
        cfg = CdTrainConfig(cd_steps=1, lr=1e308, l2=1e308, epochs=1, batch_size=300)
        with np.errstate(over="ignore"), pytest.raises(ModelFormatError, match="must be finite"):
            cd_train(model, data, cfg)

    def test_rejects_length_mismatch(self):
        rng = np.random.default_rng(7)
        _, data = planted_pwm_data(rng, L=6)
        model = PwmEnergy.zeros(5, 4)
        cfg = CdTrainConfig(cd_steps=1, lr=0.1, epochs=1, batch_size=8)
        with pytest.raises(ShapeError):
            cd_train(model, data, cfg)

    def test_rejects_empty_data(self):
        cfg = CdTrainConfig(cd_steps=1, lr=0.1, epochs=1, batch_size=8)
        with pytest.raises(ValueError):
            cd_train(PwmEnergy.zeros(4, 4), [], cfg)

    def test_param_gradients_match_finite_differences(self):
        # Batch parameter gradients against central differences on theta.
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 8))
        model = MlpEnergy.random(hidden=4, d=8, seed=1, scale=0.5)
        grads = model.batch_param_gradient(X)
        params = model.params()
        h = 1e-6
        for name, grad in grads.items():
            flat = np.asarray(params[name], dtype=float).reshape(-1)
            fd = np.zeros_like(flat)
            for i in range(flat.size):
                for sign in (1, -1):
                    bumped = {k: np.array(v, dtype=float) for k, v in params.items()}
                    bumped[name].reshape(-1)[i] += sign * h
                    vals = model.with_params(bumped).eval_batch(X)[0]
                    fd[i] += sign * vals.mean() / (2 * h)
            assert rel_error(np.asarray(grad).reshape(-1), fd) < 1e-6


def model_file(path, n_params=8, **header):
    """A model file whose header is a valid 2 x 4 pwm header with ``header``
    written over it, followed by ``n_params`` zero parameters."""
    fields = {"format_version": 1, "kind": "pwm", "d": 8, "L": 2, "A": 4, "H": None, **header}
    blob = json.dumps(fields).encode()
    path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(blob)) + blob + np.zeros(n_params).tobytes())
    return path


def save_params(path, index, value) -> np.ndarray:
    """Overwrite parameter ``index`` of the model file at ``path`` with
    ``value``; returns the file's parameters as written."""
    model = load_model(path)
    params = np.concatenate([p.reshape(-1) for p in model.params().values()])
    params[index] = value
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - params.nbytes] + params.astype("<f8").tobytes())
    return params


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "build",
    [
        lambda bad: PwmEnergy([[0.0, bad]]),
        lambda bad: MlpEnergy([[bad, 0.0]], [0.0], [0.0], 0.0),
        lambda bad: MlpEnergy([[0.0, 0.0]], [bad], [0.0], 0.0),
        lambda bad: MlpEnergy([[0.0, 0.0]], [0.0], [bad], 0.0),
        lambda bad: MlpEnergy([[0.0, 0.0]], [0.0], [0.0], bad),
    ],
    ids=["pwm", "mlp-w1", "mlp-b1", "mlp-w2", "mlp-b2"],
)
def test_non_finite_parameters_are_refused_where_built(build, bad):
    # Refused at construction, so a library-built model cannot fail every chain at step 0.
    with pytest.raises(ModelFormatError, match="must be finite"):
        build(bad)


class TestPersistence:
    def test_pwm_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(10)
        model = PwmEnergy(rng.normal(size=(8, 20)))
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, PwmEnergy)
        assert np.array_equal(loaded.weights, model.weights)
        X = rng.standard_normal((100, 160))
        assert np.array_equal(loaded.eval_batch(X)[0], model.eval_batch(X)[0])

    def test_mlp_round_trip_bit_exact(self, tmp_path):
        model = MlpEnergy.random(hidden=6, L=4, A=5, seed=2)
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert isinstance(loaded, MlpEnergy)
        assert np.array_equal(loaded.w1, model.w1)
        assert np.array_equal(loaded.b1, model.b1)
        assert np.array_equal(loaded.w2, model.w2)
        assert loaded.b2 == model.b2
        assert loaded.L == 4 and loaded.A == 5

    def test_raw_mlp_round_trip(self, tmp_path):
        model = MlpEnergy.random(hidden=3, d=7, seed=5)
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.point_kind == "raw" and loaded.d == 7

    @pytest.mark.parametrize(
        "model,sha256",
        [
            (PwmEnergy(np.random.default_rng(10).normal(size=(8, 20))),
             "171bce9667b0527007bbfa40c9badfc8a569a7b84169872649b56b88c1fed6ee"),
            (MlpEnergy.random(hidden=6, L=4, A=5, seed=2),
             "dd99b8bbff022e3b90205d999256600c9ed9d7ba920e436358be357140052ef8"),
            (MlpEnergy.random(hidden=3, d=7, seed=5),
             "479cd457bc9f593ed9efeeb8d4d9f639e058df8c7708120b5ffbb0f6a1869e28"),
        ],
        ids=["pwm", "mlp", "raw-mlp"],
    )
    def test_saved_bytes_are_pinned(self, tmp_path, model, sha256):
        # The file format's bytes, header included, not only its round trip.
        path = tmp_path / "m.model"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_other_model_types_are_not_saved(self, tmp_path):
        path = tmp_path / "m.model"
        with pytest.raises(ModelFormatError, match="^cannot persist model type ShiftedQuadratic$"):
            save_model(ShiftedQuadratic([0.0, 1.0]), path)
        assert not path.exists()

    def test_truncated_file(self, tmp_path):
        model = PwmEnergy.zeros(4, 4)
        path = tmp_path / "m.model"
        save_model(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-9])
        with pytest.raises(ModelFormatError, match="truncated|parameters"):
            load_model(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(b"garbage data here")
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    @pytest.mark.parametrize(
        "header",
        [
            {"L": None}, {"L": 2.0}, {"A": True}, {"d": "8"}, {"d": 0}, {"d": 9},
            {"kind": "mlp", "H": "x"}, {"kind": "mlp", "H": -1}, {"kind": "mlp", "H": 0}, {"kind": "mlp", "H": True},
            {"kind": "mlp", "H": 1, "L": None},
        ],
    )
    def test_malformed_header_sizes_are_format_errors(self, tmp_path, header):
        # d, L, A and an mlp's H must be ints >= 1 with L * A = d; a raw mlp
        # has neither L nor A.
        assert isinstance(load_model(model_file(tmp_path / "pwm.model")), PwmEnergy)
        raw = model_file(tmp_path / "raw.model", 6, kind="mlp", d=3, L=None, A=None, H=1)
        assert load_model(raw).point_kind == "raw"
        path = model_file(tmp_path / "m.model", **header)
        with pytest.raises(ModelFormatError, match=re.escape(f"{path}: header ")):
            load_model(path)

    @pytest.mark.parametrize(
        "model,value",
        [(PwmEnergy.zeros(4, 6), math.nan), (MlpEnergy.random(hidden=3, L=4, A=5, seed=1), math.inf)],
        ids=["pwm-nan", "mlp-inf"],
    )
    def test_non_finite_parameter_is_a_format_error(self, tmp_path, model, value):
        path = tmp_path / "m.model"
        save_model(model, path)
        count = len(save_params(path, -2, value))
        message = f"{path}: 1 of {count} parameters are not finite (the first, at index {count - 2}, is {value})"
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            load_model(path)

    def test_header_that_is_not_an_object_is_a_format_error(self, tmp_path):
        blob = b"[1, 2]"
        path = tmp_path / "m.model"
        path.write_bytes(MODEL_MAGIC + struct.pack("<Q", len(blob)) + blob)
        with pytest.raises(ModelFormatError, match="not a JSON object"):
            load_model(path)

    def test_version_mismatch_mentions_version(self, tmp_path):
        model = PwmEnergy.zeros(4, 4)
        path = tmp_path / "m.model"
        save_model(model, path)
        blob = path.read_bytes()
        patched = blob.replace(b'"format_version": 1', b'"format_version": 9')
        path.write_bytes(patched)
        with pytest.raises(ModelFormatError, match="format_version"):
            load_model(path)
