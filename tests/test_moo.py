import math
from fractions import Fraction

import numpy as np
import pytest

from paretoebm.core import SIMPLEX_TOL, ConfigError, DesignPoint, ShapeError
from paretoebm.energy import ObjectiveSet, ShiftedQuadratic
from paretoebm.moo import (
    MIN_NORM_MAX_M,
    min_norm_closed_form,
    pareto_filter,
    solve_min_norm,
)


def brute_force_front(points):
    """Indices of the rows that no other row dominates (<= everywhere and <
    somewhere), by a pairwise check; a NaN compares false, so dominates nothing."""
    V = np.asarray(points, dtype=float)
    return [i for i, a in enumerate(V) if not any(np.all(b <= a) and np.any(b < a) for b in V)]


def dominates(a, b):
    """Whether pareto_filter drops b from the pair [a, b]: the dominance that
    nondominated_mask defines, read on two points."""
    return 1 not in pareto_filter([a, b])


class TestDominates:
    def test_strict_domination(self):
        assert dominates([0, 0], [1, 1])

    def test_incomparable(self):
        assert not dominates([0, 1], [1, 0])
        assert not dominates([1, 0], [0, 1])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([1, 1], [1, 1])

    def test_length_mismatch(self):
        # Rows of unequal length form no (n, m) array; numpy refuses them.
        with pytest.raises(ValueError):
            dominates(np.array([1.0, 1.0]), np.array([1.0, 1.0, 1.0]))

    def test_irreflexive_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            v = rng.normal(size=3)
            assert not dominates(v, v)

    def test_transitive_random(self):
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 200:
            a, b, c = (rng.normal(size=3) for _ in range(3))
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)
                checked += 1
            else:
                # Build a guaranteed chain so the property actually fires.
                base = rng.normal(size=3)
                a, b, c = base - 2.0, base - 1.0, base
                assert dominates(a, b) and dominates(b, c) and dominates(a, c)
                checked += 1


class TestParetoFilter:
    def test_dominated_point_dropped(self):
        assert pareto_filter(np.array([[0, 1], [1, 0], [1, 1]])) == [0, 1]

    def test_identical_points_all_kept(self):
        assert pareto_filter(np.full((4, 2), 2.0)) == [0, 1, 2, 3]

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(2)
        points = rng.normal(size=(200, 3))
        assert pareto_filter(points) == brute_force_front(points)

    def test_matches_brute_force_many_shapes(self):
        rng = np.random.default_rng(3)
        for m in (2, 3, 4):
            pts = rng.integers(0, 4, size=(500, m))
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
                assert pareto_filter(V) == brute_force_front(V)

    def test_array_input_matches_vectors(self):
        rng = np.random.default_rng(31)
        V = rng.integers(0, 5, size=(300, 3)).astype(float)
        assert pareto_filter(V) == pareto_filter(list(V)) == pareto_filter(V.tolist())

    def test_empty(self):
        assert pareto_filter([]) == []
        assert pareto_filter(np.empty((0, 2))) == []

    def test_non_matrix_array_rejected(self):
        with pytest.raises(ShapeError):
            pareto_filter(np.zeros((2, 2, 2)))

    def test_length_mismatch(self):
        # Ragged rows form no (n, m) array; numpy refuses them.
        with pytest.raises(ValueError):
            pareto_filter([np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])])


def grid_norms_2(g1, g2, step=1e-3):
    lam = np.arange(0.0, 1.0 + step / 2, step)
    combos = lam[:, None] * g1[None, :] + (1 - lam)[:, None] * g2[None, :]
    return np.linalg.norm(combos, axis=1)


class TestMinNorm2:
    def test_opposing_gradients_conflict(self):
        res = solve_min_norm(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        assert np.array_equal(res.lam, [0.5, 0.5])
        assert res.norm == 0.0

    def test_degenerate_equal_gradients(self):
        res = solve_min_norm(np.array([[3.0, 4.0], [3.0, 4.0]]))
        assert np.array_equal(res.direction, [3.0, 4.0])
        assert res.norm == 5.0
        assert np.array_equal(res.lam, [0.5, 0.5])

    def test_known_interior_solution(self):
        res = solve_min_norm(np.array([[2.0, 0.0], [0.0, 1.0]]))
        assert res.lam[0] == pytest.approx(0.2, abs=1e-12)
        assert np.allclose(res.direction, [0.4, 0.8], atol=1e-12)
        grid_best = grid_norms_2(np.array([2.0, 0.0]), np.array([0.0, 1.0]), 1e-5).min()
        assert res.norm <= grid_best + 1e-9

    def test_optimal_on_random_pairs(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            g1, g2 = rng.standard_normal((2, 8))
            res = solve_min_norm(np.stack([g1, g2]))
            assert res.norm <= grid_norms_2(g1, g2).min() + 1e-9

    def test_direction_recomputable_from_lambda(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g1, g2 = rng.standard_normal((2, 5))
            res = solve_min_norm(np.stack([g1, g2]))
            rebuilt = res.lam[0] * g1 + res.lam[1] * g2
            assert np.allclose(res.direction, rebuilt, atol=1e-12)
            assert res.norm == pytest.approx(np.linalg.norm(res.direction), abs=1e-15)

    def test_dimension_mismatch(self):
        # Gradients of unequal length make no (m, d) matrix.
        with pytest.raises(ShapeError):
            solve_min_norm(np.array([1.0, 1.0, 2.0]))
        with pytest.raises(ShapeError):
            solve_min_norm(np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradients_rejected(self, bad):
        with pytest.raises(ValueError, match="gradients must be finite"):
            solve_min_norm(np.array([[bad, 0.0], [1.0, 0.0]]))
        with pytest.raises(ValueError, match="gradients must be finite"):
            solve_min_norm(np.array([[1.0, 0.0], [0.0, bad]]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
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

    def test_descent_property_two_objectives(self):
        # At the exact min-norm point g: <g, g_i> >= ||g||^2 for every i.
        rng = np.random.default_rng(11)
        for _ in range(1000):
            g1, g2 = rng.standard_normal((2, 8))
            res = solve_min_norm(np.stack([g1, g2]))
            sq = res.norm**2
            assert res.direction @ g1 >= sq - 1e-9
            assert res.direction @ g2 >= sq - 1e-9

    def test_underflowing_weight_is_positive_zero(self):
        # <g2 - g1, g2> / ||g1 - g2||^2 underflows to -0.0 here; the weight
        # is clipped to +0.0, as min(1, max(0, q)) gives.
        res = solve_min_norm(np.array([[2e-150, 1e154], [1e-150, 0.0]]))
        assert np.array_equal(res.lam, [0.0, 1.0]) and not np.signbit(res.lam[0])


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


def random_bundle(rng, m, d):
    """m gradients in d dimensions, each scaled by its own factor in [1e-3, 1e3]."""
    return rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3, 3, size=(m, 1))


class TestMinNorm3:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            grads = random_bundle(rng, 3, int(rng.integers(1, 9)))
            res = solve_min_norm(grads)
            assert abs(res.norm - brute_min_norm(grads)) <= 1e-14 * float(np.abs(grads).max())

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
        two = solve_min_norm(grads[:2])
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


class TestMinNormEnumerated:
    """m >= 4: the least-norm candidate over every support of the weights."""

    def test_matches_brute_force(self):
        rng = np.random.default_rng(44)
        bundles = [random_bundle(rng, int(rng.integers(4, 7)), int(rng.integers(1, 9))) for _ in range(300)]
        # Up to MIN_NORM_MAX_M, which a sweep admits: five bundles each of 7 and 8 gradients.
        bundles += [random_bundle(rng, m, int(rng.integers(1, 9))) for m in (7, 8) for _ in range(5)]
        for grads in bundles:
            res = solve_min_norm(grads)
            assert abs(res.norm - brute_min_norm(grads)) <= 1e-14 * float(np.abs(grads).max())

    def test_descent_property(self):
        # At the exact min-norm point d: <d, g_i> >= ||d||^2 for every i.
        rng = np.random.default_rng(12)
        for _ in range(300):
            m = int(rng.integers(4, 7))
            grads = rng.standard_normal((m, 8))
            res = solve_min_norm(grads)
            sq = res.norm**2
            for g in grads:
                assert res.direction @ g >= sq - 1e-9

    def test_coincident_gradients(self):
        res = solve_min_norm(np.tile([3.0, 4.0], (5, 1)))
        assert np.array_equal(res.lam, [0.5, 0.5, 0.0, 0.0, 0.0])
        assert np.array_equal(res.direction, [3.0, 4.0]) and res.norm == 5.0

    def test_coincident_rows_among_others(self):
        rng = np.random.default_rng(45)
        for _ in range(100):
            grads = random_bundle(rng, 5, int(rng.integers(1, 5)))
            grads[3] = grads[1]
            grads[4] = grads[1]
            res = solve_min_norm(grads)
            assert abs(res.norm - brute_min_norm(grads)) <= 1e-14 * float(np.abs(grads).max())

    def test_collinear_gradients(self):
        base = np.array([1.0, -2.0, 0.5])
        grads = np.stack([2.0 * base, 5.0 * base, -3.0 * base, 0.5 * base])
        res = solve_min_norm(grads)
        assert res.norm < 1e-15 and np.all(res.lam >= 0.0)
        assert np.array_equal(res.direction, res.lam @ grads)
        res = solve_min_norm(np.stack([2.0 * base, 5.0 * base, 3.0 * base, 0.5 * base]))
        assert np.array_equal(res.lam, [0.0, 0.0, 0.0, 1.0])

    def test_zero_gradient(self):
        res = solve_min_norm(np.array([[1.0, 2.0], [3.0, 1.0], [0.0, 0.0], [-3.0, 1.0]]))
        assert np.array_equal(res.lam, [0.0, 0.0, 1.0, 0.0])
        assert res.norm == 0.0

    def test_sheds_dominated_vertex(self):
        grads = np.array([[1.0, 0.0], [0.0, 1.0], [10.0, 10.0], [4.0, 3.0]])
        res = solve_min_norm(grads)
        two = solve_min_norm(grads[:2])
        assert abs(res.norm - two.norm) <= 1e-15
        assert np.array_equal(res.lam[2:], [0.0, 0.0])

    def test_all_equal_gradients(self):
        res = solve_min_norm(np.tile(np.array([2.0, -1.0]), (4, 1)))
        assert np.array_equal(res.direction, [2.0, -1.0])
        assert res.norm == pytest.approx(np.sqrt(5.0))

    def test_conflict_spanning_origin(self):
        # The fourth gradient leaves the plane of the other three.
        grads = np.array([[1.0, 0.0, 0.0], [-1.0, 1.0, 0.0], [-1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
        res = solve_min_norm(grads)
        assert res.norm < 1e-15
        assert np.allclose(res.lam, [0.5, 0.25, 0.25, 0.0], atol=1e-15)

    def test_direction_recomputable(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            grads = rng.standard_normal((5, 4))
            res = solve_min_norm(grads)
            assert np.array_equal(res.direction, res.lam @ grads)
            assert res.norm == float(np.linalg.norm(res.direction))

    def test_more_objectives_than_the_limit_raise(self):
        grads = np.random.default_rng(46).standard_normal((MIN_NORM_MAX_M + 1, 3))
        message = f"at most {MIN_NORM_MAX_M} objectives, got m={MIN_NORM_MAX_M + 1}"
        with pytest.raises(ConfigError, match=message):
            solve_min_norm(grads)
        with pytest.raises(ConfigError, match=message):
            min_norm_closed_form(grads[None])
        assert solve_min_norm(grads[:MIN_NORM_MAX_M]).lam.shape == (MIN_NORM_MAX_M,)


class TestMinNormNearCoincident:
    @pytest.mark.parametrize("spread", [1e-6, 1e-9])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_matches_brute_force(self, m, spread):
        # g_j = g_1 (1 + spread * noise). From the gradients' own Gram matrix,
        # ||g_i - g_j||^2 = G_ii - 2 G_ij + G_jj cancels at spread 1e-9, and
        # such a solve's norms are off by about 1e-9 of the largest entry.
        rng = np.random.default_rng(47 + m)
        for _ in range(40):
            d = int(rng.integers(1, 9))
            g1 = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            grads = g1 * (1.0 + spread * rng.standard_normal((m, d)))
            grads[0] = g1
            res = solve_min_norm(grads)
            assert abs(res.norm - brute_min_norm(grads)) <= 1e-14 * float(np.abs(grads).max())


class TestMgdDirection:
    def _pair(self, a=(1.0, 0.0)):
        a = np.array(a)
        return ObjectiveSet([ShiftedQuadratic(a), ShiftedQuadratic(-a)])

    def test_pareto_point_gives_zero(self):
        objs = self._pair()
        res = solve_min_norm(objs.eval_batch(np.array([[0.0, 0.0]]))[1][0])
        assert res.norm == pytest.approx(0.0, abs=1e-15)

    def test_aligned_gradients_pick_shorter(self):
        # At p = 2a the gradients are 2a and 6a; the min-norm point of the
        # segment is 2a itself.
        objs = self._pair()
        res = solve_min_norm(objs.eval_batch(np.array([[2.0, 0.0]]))[1][0])
        assert np.allclose(res.direction, [2.0, 0.0], atol=1e-12)
        assert np.array_equal(res.lam, [1.0, 0.0])

    def test_single_objective_returns_gradient(self):
        objs = ObjectiveSet([ShiftedQuadratic([1.0, 1.0])])
        p = DesignPoint([3.0, 0.0])
        res = solve_min_norm(objs.eval_batch(p.coords[None])[1][0])
        assert np.array_equal(res.direction, objs.models[0].gradient(p))
        assert np.array_equal(res.lam, [1.0])

    def test_solve_min_norm_dispatch(self):
        rng = np.random.default_rng(13)
        grads = rng.standard_normal((2, 4))
        assert solve_min_norm(grads).norm == min_norm_closed_form(grads[None])[2][0]

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
