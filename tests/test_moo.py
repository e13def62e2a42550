import math
from fractions import Fraction

import numpy as np
import pytest

from paretoebm.core import SIMPLEX_TOL, DesignPoint, ObjectiveVector, ShapeError, SimplexWeights
from paretoebm.energy import ObjectiveSet, ShiftedQuadratic
from paretoebm.moo import (
    FW_MAX_ITERS,
    FW_TOL,
    GradientBundle,
    dominates,
    mgd_direction,
    min_norm_2,
    min_norm_closed_form,
    min_norm_fw,
    pareto_filter,
    scalarize,
    solve_min_norm,
)


def obj(values):
    return ObjectiveVector(np.array(values, dtype=float))


def brute_force_front(points):
    keep = []
    for i, a in enumerate(points):
        if not any(j != i and dominates(b, a) for j, b in enumerate(points)):
            keep.append(i)
    return keep


class TestDominates:
    def test_strict_domination(self):
        assert dominates(obj([0, 0]), obj([1, 1]))

    def test_incomparable(self):
        assert not dominates(obj([0, 1]), obj([1, 0]))
        assert not dominates(obj([1, 0]), obj([0, 1]))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(obj([1, 1]), obj([1, 1]))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            dominates(obj([1, 1]), obj([1, 1, 1]))

    def test_irreflexive_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = obj(rng.normal(size=3))
            assert not dominates(v, v)

    def test_transitive_random(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 200:
            a, b, c = (obj(rng.normal(size=3)) for _ in range(3))
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)
                checked += 1
            else:
                # Build a guaranteed chain so the property actually fires.
                base = rng.normal(size=3)
                a = obj(base - 2.0)
                b = obj(base - 1.0)
                c = obj(base)
                assert dominates(a, b) and dominates(b, c) and dominates(a, c)
                checked += 1


class TestParetoFilter:
    def test_dominated_point_dropped(self):
        points = [obj([0, 1]), obj([1, 0]), obj([1, 1])]
        assert pareto_filter(points) == [0, 1]

    def test_identical_points_all_kept(self):
        points = [obj([2, 2])] * 4
        assert pareto_filter(points) == [0, 1, 2, 3]

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(2)
        points = [obj(rng.normal(size=3)) for _ in range(200)]
        assert pareto_filter(points) == brute_force_front(points)

    def test_matches_brute_force_many_shapes(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 4):
            pts = [obj(rng.integers(0, 4, size=m)) for _ in range(500)]
            assert pareto_filter(pts) == brute_force_front(pts)

    def test_matches_brute_force_with_nan_and_inf(self):
        rng = np.random.default_rng(30)
        for m in (1, 2, 3, 4):
            for _ in range(20):
                V = rng.integers(0, 3, size=(40, m)).astype(float)
                special = rng.random(V.shape)
                V[special < 0.05] = np.nan
                V[special > 0.92] = np.inf
                V[(special > 0.05) & (special < 0.1)] = -np.inf
                assert pareto_filter(V) == brute_force_front(list(V))

    def test_array_input_matches_vectors(self):
        rng = np.random.default_rng(31)
        V = rng.integers(0, 5, size=(300, 3)).astype(float)
        assert pareto_filter(V) == pareto_filter([obj(row) for row in V])

    def test_empty(self):
        assert pareto_filter([]) == []
        assert pareto_filter(np.empty((0, 2))) == []

    def test_non_matrix_array_rejected(self):
        with pytest.raises(ShapeError):
            pareto_filter(np.zeros((2, 2, 2)))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            pareto_filter([obj([1, 2]), obj([1, 2, 3])])


class TestScalarize:
    def _pair(self):
        return ObjectiveSet([ShiftedQuadratic([0.0]), ShiftedQuadratic([1.0])])

    def test_vertex_weight_matches_model(self):
        objs = ObjectiveSet(
            [ShiftedQuadratic([1.0, 2.0]), ShiftedQuadratic([-1.0, 0.5])]
        )
        composite = scalarize(objs, SimplexWeights([1.0, 0.0]))
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = DesignPoint(rng.normal(size=2))
            v, g = composite.value_and_gradient(p)
            v0, g0 = objs.models[0].value_and_gradient(p)
            assert v == pytest.approx(v0, rel=1e-12)
            assert np.allclose(g, g0, rtol=1e-12)

    def test_even_weights_give_midpoint_minimizer(self):
        composite = scalarize(self._pair(), SimplexWeights([0.5, 0.5]))
        _, g = composite.value_and_gradient(DesignPoint([0.5]))
        assert g[0] == pytest.approx(0.0, abs=1e-12)

    def test_even_weights_average_values(self):
        objs = self._pair()
        composite = scalarize(objs, SimplexWeights([0.5, 0.5]))
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = DesignPoint(rng.normal(size=1))
            vec = objs.evaluate_all(p)
            assert composite.value(p) == pytest.approx(vec.values.mean(), rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            scalarize(self._pair(), SimplexWeights([1.0]))


def grid_norms_2(g1, g2, step=1e-3):
    lam = np.arange(0.0, 1.0 + step / 2, step)
    combos = lam[:, None] * g1[None, :] + (1 - lam)[:, None] * g2[None, :]
    return np.linalg.norm(combos, axis=1)


class TestMinNorm2:
    def test_opposing_gradients_conflict(self):
        res = min_norm_2(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
        assert np.array_equal(res.lam, [0.5, 0.5])
        assert res.norm == 0.0

    def test_degenerate_equal_gradients(self):
        res = min_norm_2(np.array([3.0, 4.0]), np.array([3.0, 4.0]))
        assert np.array_equal(res.direction, [3.0, 4.0])
        assert res.norm == 5.0
        assert np.array_equal(res.lam, [0.5, 0.5])

    def test_known_interior_solution(self):
        res = min_norm_2(np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        assert res.lam[0] == pytest.approx(0.2, abs=1e-12)
        assert np.allclose(res.direction, [0.4, 0.8], atol=1e-12)
        grid_best = grid_norms_2(np.array([2.0, 0.0]), np.array([0.0, 1.0]), 1e-5).min()
        assert res.norm <= grid_best + 1e-9

    def test_optimal_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            g1, g2 = rng.standard_normal((2, 8))
            res = min_norm_2(g1, g2)
            assert res.norm <= grid_norms_2(g1, g2).min() + 1e-9

    def test_direction_recomputable_from_lambda(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g1, g2 = rng.standard_normal((2, 5))
            res = min_norm_2(g1, g2)
            rebuilt = res.lam[0] * g1 + res.lam[1] * g2
            assert np.allclose(res.direction, rebuilt, atol=1e-12)
            assert res.norm == pytest.approx(np.linalg.norm(res.direction), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            min_norm_2(np.array([1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradients_rejected(self, bad):
        with pytest.raises(ValueError, match="gradients must be finite"):
            min_norm_2(np.array([bad, 0.0]), np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="gradients must be finite"):
            solve_min_norm(np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_closed_form_rows_match_single_solves(self, m):
        # Interior, clipped (q outside [0, 1]) and coincident rows in one stack.
        rng = np.random.default_rng(21 + m)
        grads = rng.standard_normal((40, m, 5)) * 10.0 ** rng.uniform(-3, 3, size=(40, m, 1))
        grads[3] = grads[3, :1]
        grads[4, -1] = 10.0 * grads[4, 0]
        lam, direction, norm = min_norm_closed_form(grads)
        for i, g in enumerate(grads):
            res = solve_min_norm(g)
            assert np.array_equal(lam[i], res.lam)
            assert np.array_equal(direction[i], res.direction)
            assert norm[i] == res.norm
            assert np.array_equal(res.direction, res.lam @ g)
            assert res.norm == float(np.linalg.norm(res.direction))

    def test_underflowing_weight_is_positive_zero(self):
        # <g2 - g1, g2> / ||g1 - g2||^2 underflows to -0.0 here; the weight
        # is clipped to +0.0, as min(1, max(0, q)) gives.
        res = min_norm_2(np.array([2e-150, 1e154]), np.array([1e-150, 0.0]))
        assert np.array_equal(res.lam, [0.0, 1.0]) and not np.signbit(res.lam[0])


def grid_min_norm_3(grads, step=0.01):
    best = np.inf
    for a in np.arange(0.0, 1.0 + step / 2, step):
        b = np.arange(0.0, 1.0 - a + step / 2, step)
        lam = np.stack([np.full_like(b, a), b, np.clip(1.0 - a - b, 0.0, 1.0)], axis=1)
        best = min(best, np.linalg.norm(lam @ grads, axis=1).min())
    return best


def _solve_exact(A, rhs):
    """Gauss-Jordan elimination over Fractions; None if A is singular."""
    k = len(A)
    M = [list(row) + [r] for row, r in zip(A, rhs)]
    for c in range(k):
        pivot = next((r for r in range(c, k) if M[r][c] != 0), None)
        if pivot is None:
            return None
        M[c], M[pivot] = M[pivot], M[c]
        for r in range(k):
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[r][k] / M[r][r] for r in range(k)]


def brute_min_norm(grads):
    """Exact least norm over the simplex, by enumerating supports: for each
    support S, the KKT point of lam_S^T G_S lam_S subject to sum(lam_S) = 1,
    in rational arithmetic, kept if its weights are non-negative. A support
    with a singular KKT system has a minimizer on its boundary, which a
    smaller support covers."""
    m = grads.shape[0]
    rows = [[Fraction(float(x)) for x in g] for g in grads]
    G = [[sum((x * y for x, y in zip(a, b)), Fraction(0)) for b in rows] for a in rows]
    best = None
    for mask in range(1, 2**m):
        S = [i for i in range(m) if mask >> i & 1]
        k = len(S)
        kkt = [[G[i][j] for j in S] + [Fraction(1)] for i in S] + [[Fraction(1)] * k + [Fraction(0)]]
        sol = _solve_exact(kkt, [Fraction(0)] * k + [Fraction(1)])
        if sol is None or any(w < 0 for w in sol[:k]):
            continue
        sq = sum(sol[a] * sol[b] * G[i][j] for a, i in enumerate(S) for b, j in enumerate(S))
        best = sq if best is None else min(best, sq)
    return math.sqrt(best)


class TestMinNorm3:
    def test_matches_brute_force_and_tight_frank_wolfe(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            grads = rng.standard_normal((3, d)) * 10.0 ** rng.uniform(-3, 3, size=(3, 1))
            res = solve_min_norm(grads)
            scale = float(np.abs(grads).max())
            assert res.converged and res.iterations == 0
            assert abs(res.norm - brute_min_norm(grads)) <= 1e-14 * scale
            assert res.norm <= min_norm_fw(grads, tol=1e-14).norm + 1e-14 * scale

    def test_descent_property(self):
        # At the exact min-norm point d: <d, g_i> >= ||d||^2 for every i,
        # with the slack of the m = 2 closed form.
        rng = np.random.default_rng(41)
        for _ in range(1000):
            grads = rng.standard_normal((3, 8))
            res = solve_min_norm(grads)
            sq = res.norm**2
            for g in grads:
                assert res.direction @ g >= sq - 1e-9

    def test_conflict_spanning_origin_is_zero(self):
        grads = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
        res = solve_min_norm(grads)
        assert res.norm < 1e-15
        assert np.allclose(res.lam, [0.5, 0.25, 0.25], atol=1e-15)

    def test_coincident_gradients(self):
        res = solve_min_norm(np.tile([3.0, 4.0], (3, 1)))
        assert np.array_equal(res.lam, [0.5, 0.5, 0.0])
        assert np.array_equal(res.direction, [3.0, 4.0]) and res.norm == 5.0

    def test_collinear_gradients(self):
        base = np.array([1.0, -2.0, 0.5])
        res = solve_min_norm(np.stack([2.0 * base, -3.0 * base, 5.0 * base]))
        assert res.norm < 1e-15 and np.all(res.lam >= 0.0)
        assert np.array_equal(res.direction, res.lam @ np.stack([2.0 * base, -3.0 * base, 5.0 * base]))

    def test_one_dimension(self):
        res = solve_min_norm(np.array([[1.0], [2.0], [-4.0]]))
        assert res.norm < 1e-15 and np.all(res.lam >= 0.0)
        res = solve_min_norm(np.array([[3.0], [1.0], [2.0]]))
        assert np.array_equal(res.lam, [0.0, 1.0, 0.0]) and res.norm == 1.0

    def test_zero_gradient(self):
        res = solve_min_norm(np.array([[1.0, 2.0], [0.0, 0.0], [-3.0, 1.0]]))
        assert np.array_equal(res.lam, [0.0, 1.0, 0.0])
        assert res.norm == 0.0

    def test_dominated_vertex_gets_no_weight(self):
        grads = np.array([[1.0, 0.0], [0.0, 1.0], [10.0, 10.0]])
        res = solve_min_norm(grads)
        two = min_norm_2(grads[0], grads[1])
        assert res.lam[2] == 0.0
        assert np.array_equal(res.lam[:2], two.lam) and res.norm == two.norm

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(42)
        for _ in range(200):
            grads = rng.standard_normal((3, 5))
            unit, scaled = solve_min_norm(grads), solve_min_norm(scale * grads)
            assert np.allclose(scaled.lam, unit.lam, atol=1e-9)
            assert scaled.norm == pytest.approx(scale * unit.norm, rel=1e-9, abs=1e-15 * scale)


class TestMinNormFw:
    def test_sheds_dominated_vertex(self):
        grads = np.array([[1.0, 0.0], [0.0, 1.0], [10.0, 10.0]])
        res = min_norm_fw(grads)
        two = min_norm_2(grads[0], grads[1])
        assert abs(res.norm - two.norm) < 1e-3
        assert res.lam[2] < 1e-9

    def test_all_equal_gradients(self):
        grads = np.tile(np.array([2.0, -1.0]), (4, 1))
        res = min_norm_fw(grads)
        assert np.allclose(res.direction, [2.0, -1.0])
        assert res.norm == pytest.approx(np.sqrt(5.0))
        assert res.converged

    def test_conflict_spanning_origin(self):
        grads = np.array([[1.0, 0.0], [-1.0, 1.0], [-1.0, -1.0]])
        res = min_norm_fw(grads)
        assert res.norm < 1e-3
        assert grid_min_norm_3(grads) < 2e-2

    def test_m2_matches_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            grads = rng.standard_normal((2, 6))
            fw = min_norm_fw(grads)
            exact = min_norm_2(grads[0], grads[1])
            assert abs(fw.norm - exact.norm) <= 1e-6

    def test_never_worse_than_grid(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            grads = rng.standard_normal((3, 8))
            res = min_norm_fw(grads)
            assert res.norm <= grid_min_norm_3(grads) + 1e-3

    def test_direction_recomputable(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            grads = rng.standard_normal((3, 4))
            res = min_norm_fw(grads)
            rebuilt = res.lam @ grads
            assert np.allclose(res.direction, rebuilt, atol=1e-12)

    def test_descent_property_two_objectives(self):
        # At the exact min-norm point g: <g, g_i> >= ||g||^2 for every i.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            g1, g2 = rng.standard_normal((2, 8))
            res = min_norm_2(g1, g2)
            sq = res.norm**2
            assert res.direction @ g1 >= sq - 1e-9
            assert res.direction @ g2 >= sq - 1e-9

    def test_descent_property_fw(self):
        # The achieved duality gap shrinks quadratically with the improvement
        # tolerance and bottoms out near sqrt(machine eps) for unit-scale
        # gradients, so the iterative solver gets 1e-6 slack where the m=2
        # closed form gets 1e-9.
        rng = np.random.default_rng(12)
        for _ in range(200):
            grads = rng.standard_normal((3, 8))
            res = min_norm_fw(grads, tol=1e-12)
            sq = res.norm**2
            for g in grads:
                assert res.direction @ g >= sq - 5e-6

    def test_m1_rejected(self):
        with pytest.raises(ShapeError):
            min_norm_fw(np.array([[1.0, 2.0]]))

    def test_converged_only_on_the_certificate(self):
        # A solve reports convergence only once its duality gap is <= tol,
        # which bounds the squared norm's excess over the optimum by tol.
        rng = np.random.default_rng(43)
        for _ in range(200):
            grads = rng.standard_normal((4, 3))
            res = solve_min_norm(grads)
            if res.converged:
                assert res.norm**2 - brute_min_norm(grads) ** 2 <= FW_TOL
            else:
                assert res.iterations == FW_MAX_ITERS

    def test_no_stop_on_a_small_improvement(self):
        # The exact min norm of this bundle is 0. A stop on a squared-norm
        # improvement below tol once ended at norm 1.4e-9, duality gap 2.4e-8.
        grads = np.array([[8.4896, 0.0022451], [-12.550, -0.40471], [0.024941, 0.28280]])
        assert brute_min_norm(grads) == 0.0
        res = min_norm_fw(grads, tol=1e-14)
        assert res.converged and res.norm < 1e-12
        # The solver's own gap is <= tol; recomputed from the direction it
        # rounds differently, by about eps * max ||g_i||^2 = 3e-14.
        assert 2.0 * (res.norm**2 - float(np.min(grads @ res.direction))) <= 1e-13

    def test_accepts_bundle(self):
        bundle = GradientBundle(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        res = min_norm_fw(bundle)
        assert res.norm <= grid_min_norm_3(bundle.grads) + 1e-3


class TestMgdDirection:
    def _pair(self, a=(1.0, 0.0)):
        a = np.array(a)
        return ObjectiveSet([ShiftedQuadratic(a), ShiftedQuadratic(-a)])

    def test_pareto_point_gives_zero(self):
        objs = self._pair()
        res = mgd_direction(objs, DesignPoint([0.0, 0.0]))
        assert res.norm == pytest.approx(0.0, abs=1e-15)

    def test_aligned_gradients_pick_shorter(self):
        # At p = 2a the gradients are 2a and 6a; the min-norm point of the
        # segment is 2a itself.
        objs = self._pair()
        res = mgd_direction(objs, DesignPoint([2.0, 0.0]))
        assert np.allclose(res.direction, [2.0, 0.0], atol=1e-12)
        assert np.array_equal(res.lam, [1.0, 0.0])

    def test_single_objective_returns_gradient(self):
        objs = ObjectiveSet([ShiftedQuadratic([1.0, 1.0])])
        p = DesignPoint([3.0, 0.0])
        res = mgd_direction(objs, p)
        assert np.array_equal(res.direction, objs.models[0].gradient(p))
        assert np.array_equal(res.lam, [1.0])

    def test_solve_min_norm_dispatch(self):
        rng = np.random.default_rng(13)
        grads = rng.standard_normal((2, 4))
        assert solve_min_norm(grads).norm == min_norm_2(grads[0], grads[1]).norm

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    def test_weights_lie_on_the_simplex(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(200):
            d = int(rng.integers(1, 8))
            grads = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))
            lam = solve_min_norm(grads).lam
            assert lam.shape == (m,)
            assert np.all(lam >= 0.0)
            assert abs(float(lam.sum()) - 1.0) <= SIMPLEX_TOL
