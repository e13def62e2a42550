import math

import numpy as np
import pytest

from paretoebm.core import (
    DiscreteSequence,
    ObjectiveVector,
    ShapeError,
    Trajectory,
)
from paretoebm.metrics import (
    NormalizationMap,
    ReferencePoint,
    convergence_stats,
    edit_distance,
    hypervolume_exact,
    hypervolume_mc,
    min_edit_to_set,
    normalize,
    summarize_edist,
    unit_reference,
)
from paretoebm.moo import pareto_filter


def obj(values):
    return ObjectiveVector(np.array(values, dtype=float))


def py_edit_distance(a, b):
    # Independent oracle: classic two-row dynamic program in plain Python.
    a, b = list(a), list(b)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, start=1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
        prev = cur
    return prev[-1]


class TestNormalization:
    def test_endpoints(self):
        nmap = NormalizationMap([0.0, 10.0], [2.0, 20.0])
        out = normalize([obj([0.0, 10.0]), obj([2.0, 20.0])], nmap)
        assert np.array_equal(out[0].values, [0.0, 0.0])
        assert np.array_equal(out[1].values, [1.0, 1.0])

    def test_clipping(self):
        nmap = NormalizationMap([0.0], [1.0])
        out = normalize([obj([5.0]), obj([-3.0])], nmap)
        assert out[0].values[0] == 1.0
        assert out[1].values[0] == 0.0

    def test_degenerate_objective_maps_to_half(self):
        nmap = NormalizationMap([1.0, 0.0], [1.0, 2.0])
        out = normalize([obj([1.0, 1.0])], nmap)
        assert out[0].values[0] == 0.5

    def test_fit(self):
        nmap = NormalizationMap.fit([obj([0.0, 5.0]), obj([2.0, 3.0])])
        assert np.array_equal(nmap.mins, [0.0, 3.0])
        assert np.array_equal(nmap.maxs, [2.0, 5.0])

    def test_length_mismatch(self):
        nmap = NormalizationMap([0.0], [1.0])
        with pytest.raises(ShapeError):
            normalize([obj([1.0, 2.0])], nmap)


class TestHypervolumeExact:
    def test_point_at_reference_is_zero(self):
        assert hypervolume_exact([obj([1.0, 1.0])], unit_reference(2)) == 0.0

    def test_single_rectangle(self):
        assert hypervolume_exact([obj([0.5, 0.5])], unit_reference(2)) == pytest.approx(0.25, abs=1e-15)

    def test_two_point_inclusion_exclusion(self):
        points = [obj([0.2, 0.8]), obj([0.8, 0.2])]
        assert hypervolume_exact(points, unit_reference(2)) == pytest.approx(0.28, abs=1e-12)

    def test_one_dimensional(self):
        ref = ReferencePoint([2.0])
        assert hypervolume_exact([obj([0.5]), obj([1.0])], ref) == 1.5

    def test_three_dimensional_cube(self):
        assert hypervolume_exact([obj([0.5] * 3)], unit_reference(3)) == pytest.approx(0.125, abs=1e-15)

    def test_three_dimensional_union(self):
        # 0.125 + 0.8*0.1*0.1 - 0.5*0.1*0.1 = 0.128
        points = [obj([0.5, 0.5, 0.5]), obj([0.2, 0.9, 0.9])]
        assert hypervolume_exact(points, unit_reference(3)) == pytest.approx(0.128, abs=1e-12)

    def test_empty(self):
        assert hypervolume_exact([], unit_reference(2)) == 0.0

    def test_dominated_and_duplicate_points_add_nothing(self):
        base = [obj([0.2, 0.3]), obj([0.6, 0.1])]
        hv = hypervolume_exact(base, unit_reference(2))
        padded = base + [obj([0.5, 0.5]), obj([0.2, 0.3])]
        assert hypervolume_exact(padded, unit_reference(2)) == hv

    def test_points_beyond_reference_clip_to_zero_volume(self):
        assert hypervolume_exact([obj([1.4, 2.0])], unit_reference(2)) == 0.0

    def test_monotone_in_points(self):
        rng = np.random.default_rng(0)
        ref = unit_reference(3)
        for _ in range(200):
            pts = [obj(rng.random(3)) for _ in range(rng.integers(1, 8))]
            hv = hypervolume_exact(pts, ref)
            bigger = pts + [obj(rng.random(3))]
            assert hypervolume_exact(bigger, ref) >= hv - 1e-15

    def test_dominated_removal_invariance(self):
        rng = np.random.default_rng(1)
        ref = unit_reference(2)
        for _ in range(200):
            pts = [obj(rng.random(2)) for _ in range(6)]
            keep = pareto_filter(pts)
            front_only = [pts[i] for i in keep]
            assert hypervolume_exact(front_only, ref) == hypervolume_exact(pts, ref)

    def test_upper_bound(self):
        rng = np.random.default_rng(2)
        ref = unit_reference(3)
        for _ in range(100):
            V = rng.random((5, 3))
            hv = hypervolume_exact(list(V), ref)
            assert 0.0 <= hv <= float(np.prod(1.0 - V.min(axis=0))) + 1e-12

    def test_m_above_three_rejected(self):
        with pytest.raises(ShapeError):
            hypervolume_exact([obj([0.1] * 4)], unit_reference(4))


class TestHypervolumeMc:
    def test_full_domination(self):
        est, err = hypervolume_mc([obj([0.0, 0.0, 0.0])], unit_reference(3), 10_000, seed=0)
        assert est == 1.0 and err == 0.0

    def test_empty_points(self):
        assert hypervolume_mc([], unit_reference(2), 100) == (0.0, 0.0)

    def test_degenerate_box(self):
        est, err = hypervolume_mc([obj([1.0, 1.0])], unit_reference(2), 100)
        assert est == 0.0 and err == 0.0

    def test_matches_exact_within_three_sigma(self):
        rng = np.random.default_rng(3)
        ref2, ref3 = unit_reference(2), unit_reference(3)
        for trial in range(10):
            m = 2 if trial % 2 == 0 else 3
            ref = ref2 if m == 2 else ref3
            pts = [obj(rng.random(m)) for _ in range(rng.integers(1, 10))]
            exact = hypervolume_exact(pts, ref)
            est, err = hypervolume_mc(pts, ref, 200_000, seed=trial)
            assert abs(est - exact) <= 3.0 * max(err, 1e-12)

    def test_works_above_three_objectives(self):
        pts = [obj([0.5] * 4)]
        est, err = hypervolume_mc(pts, unit_reference(4), 200_000, seed=1)
        assert abs(est - 0.5**4) <= 3.0 * max(err, 1e-12)


class TestEditDistance:
    def test_identical(self):
        s = DiscreteSequence(np.array([0, 1, 2]), alphabet_size=4)
        assert edit_distance(s, s) == 0

    def test_pure_insertions(self):
        assert edit_distance([], [3, 1]) == 2

    def test_kitten_sitting(self):
        assert edit_distance("kitten", "sitting") == 3

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a = rng.integers(0, 4, size=rng.integers(0, 65))
            b = rng.integers(0, 4, size=rng.integers(0, 65))
            assert edit_distance(a, b) == py_edit_distance(a, b)

    def test_metric_axioms(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = rng.integers(0, 3, size=rng.integers(1, 16))
            b = rng.integers(0, 3, size=rng.integers(1, 16))
            c = rng.integers(0, 3, size=rng.integers(1, 16))
            dab = edit_distance(a, b)
            assert dab == edit_distance(b, a)
            assert (dab == 0) == (len(a) == len(b) and np.array_equal(a, b))
            assert edit_distance(a, c) <= dab + edit_distance(b, c)


class TestMinEditToSet:
    def test_member_gives_zero(self):
        pool = [np.array([0, 1]), np.array([2, 2])]
        dist, idx = min_edit_to_set(np.array([2, 2]), pool)
        assert dist == 0 and idx == 1

    def test_singleton(self):
        dist, idx = min_edit_to_set("abc", ["abd"])
        assert dist == 1 and idx == 0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        pool = [rng.integers(0, 4, size=8) for _ in range(40)]
        for _ in range(100):
            x = rng.integers(0, 4, size=8)
            dists = [edit_distance(x, p) for p in pool]
            expect = (min(dists), int(np.argmin(dists)))
            assert min_edit_to_set(x, pool) == expect

    def test_tie_takes_lowest_index(self):
        pool = ["aa", "ab", "ba"]
        dist, idx = min_edit_to_set("ab", ["aa", "ab", "ab"])
        assert dist == 0 and idx == 1
        dist, idx = min_edit_to_set("bb", pool)
        assert dist == 1 and idx == 1

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            min_edit_to_set("abc", [])


class TestSummarizeEdist:
    def test_all_samples_in_training(self):
        pool = ["abc", "def"]
        assert summarize_edist(["abc", "def", "abc"], pool) == (0.0, 0.0)

    def test_single_sample_zero_std(self):
        mean, std = summarize_edist(["abc"], ["abd"])
        assert mean == 1.0 and std == 0.0

    def test_matches_hand_computation(self):
        samples = ["ab", "abcd", "xy"]
        training = ["ab", "cd"]
        dists = np.array([0.0, 2.0, 2.0])
        mean, std = summarize_edist(samples, training)
        assert mean == pytest.approx(dists.mean())
        assert std == pytest.approx(dists.std())

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            summarize_edist([], ["ab"])


def make_trajectory(series):
    # series: list of per-step objective tuples
    F = np.array(series, dtype=float)
    n, m = F.shape
    return Trajectory(
        steps=np.arange(n),
        X=np.arange(n, dtype=float)[:, None],
        F=F,
        lam=np.full((n, m), 1.0 / m),
        grad_norm=np.zeros(n),
    )


class TestConvergenceStats:
    def test_constant_series(self):
        t = make_trajectory([(2.0,), (2.0,), (2.0,)])
        assert convergence_stats(t).steps_to_eps == (0,)

    def test_geometric_series_closed_form(self):
        r, n = 0.8, 40
        series = [(r**k,) for k in range(n + 1)]
        t = make_trajectory(series)
        stats = convergence_stats(t, eps=0.05)
        # |r^k - r^n| <= 0.05 r^n  <=>  (1/r)^(n-k) <= 1.05
        lag = math.floor(math.log(1.05) / math.log(1.0 / r))
        assert stats.steps_to_eps == (n - lag,)

    def test_eps_zero_gives_last_change(self):
        t = make_trajectory([(3.0,), (5.0,), (3.0,)])
        assert convergence_stats(t, eps=0.0).steps_to_eps == (2,)

    def test_per_objective_independent(self):
        t = make_trajectory([(1.0, 9.0), (1.0, 5.0), (1.0, 5.0)])
        assert convergence_stats(t, eps=0.0).steps_to_eps == (0, 1)

    def test_negative_eps_rejected(self):
        t = make_trajectory([(1.0,)])
        with pytest.raises(ValueError):
            convergence_stats(t, eps=-0.1)
