import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

from paretoebm.core import (
    DiscreteSequence,
    ShapeError,
    Trajectory,
)
from paretoebm import metrics
from paretoebm.metrics import (
    NormalizationMap,
    ReferencePoint,
    convergence_stats,
    edit_distance,
    edit_distance_matrix,
    hypervolume_exact,
    hypervolume_mc,
    nondominated_mask,
    summarize_edist,
    unit_reference,
)
from paretoebm.moo import pareto_filter


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


def brute_nondominated(V):
    # Oracle: the quadratic pairwise test (an n x n x m comparison tensor).
    le = np.all(V[:, None, :] <= V[None, :, :], axis=-1)
    lt = np.any(V[:, None, :] < V[None, :, :], axis=-1)
    return ~np.any(le & lt, axis=0)


def brute_hypervolume(V, r):
    # The exact hypervolume as computed before the sort-based filter: the
    # brute-force filter, then the 2-D sweep (m = 2) or z-layers of it (m = 3).
    V = np.minimum(np.asarray(V, dtype=np.float64), r)
    V = V[brute_nondominated(V)]
    if V.shape[1] == 2:
        return float(metrics._hv_2d(V, r[0], r[1]))
    zs = np.unique(V[:, 2])
    total = 0.0
    for i, z in enumerate(zs):
        z_next = zs[i + 1] if i + 1 < zs.size else r[2]
        if z_next <= z:
            continue
        total += (z_next - z) * metrics._hv_2d(V[V[:, 2] <= z][:, :2], r[0], r[1])
    return float(total)


def grid_cells_covered(P, k):
    # Independent oracle for integer points P (n, m) with reference (k, ..., k):
    # the union of the boxes [p, r] is made of unit cells [c, c + 1]^m of
    # [0, k]^m, and it holds a cell exactly when some point weakly dominates
    # the cell's lower corner c. The count of such cells is the hypervolume.
    return sum(bool(np.any(np.all(P <= c, axis=1))) for c in product(range(k), repeat=P.shape[1]))


def brute_hypervolume_mc(V, r, samples, seed):
    # Monte-Carlo hypervolume as computed before: every input point against
    # blocks of 65,536 samples.
    V = np.minimum(np.asarray(V, dtype=np.float64), r)
    lo = V.min(axis=0)
    span = r - lo
    volume = float(np.prod(span))
    if volume <= 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    hits, remaining = 0, samples
    while remaining > 0:
        k = min(65536, remaining)
        q = lo + span * rng.random((k, r.size))
        hits += int(np.any(np.all(V[None, :, :] <= q[:, None, :], axis=-1), axis=-1).sum())
        remaining -= k
    frac = hits / samples
    return volume * frac, volume * float(np.sqrt(frac * (1.0 - frac) / samples))


def random_point_sets(rng, count):
    """Point sets for m = 1..4: continuous, integer grids (ties and duplicates),
    and grids with NaN and +/-inf entries scattered in."""
    for trial in range(count):
        m = 1 + trial % 4
        n = int(rng.integers(1, 60))
        kind = trial // 4 % 3
        if kind == 0:
            yield rng.normal(size=(n, m))
        else:
            V = rng.integers(0, 4, size=(n, m)).astype(np.float64)
            if kind == 2:
                special = rng.random((n, m))
                V[special < 0.05] = np.nan
                V[(special >= 0.05) & (special < 0.1)] = np.inf
                V[(special >= 0.1) & (special < 0.15)] = -np.inf
            yield V


class TestNondominatedMask:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(20)
        for V in random_point_sets(rng, 1200):
            assert np.array_equal(nondominated_mask(V), brute_nondominated(V)), V

    def test_large_random_sets(self):
        rng = np.random.default_rng(21)
        for m in (2, 3, 4):
            V = rng.random((1500, m))
            V[:, 0] = np.round(V[:, 0], 2)  # ties in the primary sort key
            assert np.array_equal(nondominated_mask(V), brute_nondominated(V))

    def test_nan_rows_kept_and_dominate_nothing(self):
        V = np.array([[np.nan, 0.0], [1.0, 1.0], [0.0, 0.0], [np.nan, np.nan]])
        assert nondominated_mask(V).tolist() == [True, False, True, True]

    def test_infinities(self):
        V = np.array([[np.inf, -np.inf], [np.inf, 0.0], [-np.inf, np.inf], [-np.inf, np.inf]])
        assert nondominated_mask(V).tolist() == [True, False, True, True]

    def test_duplicates_all_kept(self):
        assert nondominated_mask(np.full((5, 3), 0.5)).all()

    def test_empty(self):
        for m in (1, 2, 3):
            assert nondominated_mask(np.empty((0, m))).shape == (0,)

    def test_pareto_filter_agrees(self):
        rng = np.random.default_rng(22)
        for V in random_point_sets(rng, 200):
            assert pareto_filter(V) == np.flatnonzero(brute_nondominated(V)).tolist()
            assert pareto_filter(list(V)) == pareto_filter(V)

    @pytest.mark.parametrize("m", [2, 3])
    def test_memory_stays_linear(self, m):
        # 6,000 points: the pairwise tensor alone would take 36e6 * m bytes.
        V = np.random.default_rng(23).random((6000, m))
        tracemalloc.start()
        try:
            keep = pareto_filter(V)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert keep
        assert peak < 10 * 2**20


class TestNormalization:
    def test_endpoints(self):
        nmap = NormalizationMap([0.0, 10.0], [2.0, 20.0])
        out = nmap.apply_raw(np.array([[0.0, 10.0], [2.0, 20.0]]))
        assert np.array_equal(out[0], [0.0, 0.0])
        assert np.array_equal(out[1], [1.0, 1.0])

    def test_clipping(self):
        nmap = NormalizationMap([0.0], [1.0])
        out = nmap.apply_raw(np.array([[5.0], [-3.0]]))
        assert out[0, 0] == 1.0
        assert out[1, 0] == 0.0

    def test_degenerate_objective_maps_to_half(self):
        nmap = NormalizationMap([1.0, 0.0], [1.0, 2.0])
        out = nmap.apply_raw(np.array([[1.0, 1.0]]))
        assert out[0, 0] == 0.5

    def test_fit(self):
        nmap = NormalizationMap.fit(np.array([[0.0, 5.0], [2.0, 3.0]]))
        assert np.array_equal(nmap.mins, [0.0, 3.0])
        assert np.array_equal(nmap.maxs, [2.0, 5.0])

    def test_length_mismatch(self):
        nmap = NormalizationMap([0.0], [1.0])
        with pytest.raises(ShapeError):
            nmap.apply_raw(np.array([[1.0, 2.0]]))


class TestHypervolumeExact:
    def test_point_at_reference_is_zero(self):
        assert hypervolume_exact([[1.0, 1.0]], unit_reference(2)) == 0.0

    def test_single_rectangle(self):
        assert hypervolume_exact([[0.5, 0.5]], unit_reference(2)) == pytest.approx(0.25, abs=1e-15)

    def test_two_point_inclusion_exclusion(self):
        points = [[0.2, 0.8], [0.8, 0.2]]
        assert hypervolume_exact(points, unit_reference(2)) == pytest.approx(0.28, abs=1e-12)

    def test_one_dimensional(self):
        ref = ReferencePoint([2.0])
        assert hypervolume_exact([[0.5], [1.0]], ref) == 1.5

    def test_three_dimensional_cube(self):
        assert hypervolume_exact([[0.5] * 3], unit_reference(3)) == pytest.approx(0.125, abs=1e-15)

    def test_three_dimensional_union(self):
        # 0.125 + 0.8*0.1*0.1 - 0.5*0.1*0.1 = 0.128
        points = [[0.5, 0.5, 0.5], [0.2, 0.9, 0.9]]
        assert hypervolume_exact(points, unit_reference(3)) == pytest.approx(0.128, abs=1e-12)

    def test_empty(self):
        assert hypervolume_exact([], unit_reference(2)) == 0.0

    def test_dominated_and_duplicate_points_add_nothing(self):
        base = [[0.2, 0.3], [0.6, 0.1]]
        hv = hypervolume_exact(base, unit_reference(2))
        padded = base + [[0.5, 0.5], [0.2, 0.3]]
        assert hypervolume_exact(padded, unit_reference(2)) == hv

    def test_points_beyond_reference_clip_to_zero_volume(self):
        assert hypervolume_exact([[1.4, 2.0]], unit_reference(2)) == 0.0

    def test_monotone_in_points(self):
        rng = np.random.default_rng(0)
        ref = unit_reference(3)
        for _ in range(200):
            pts = [rng.random(3) for _ in range(rng.integers(1, 8))]
            hv = hypervolume_exact(pts, ref)
            bigger = pts + [rng.random(3)]
            assert hypervolume_exact(bigger, ref) >= hv - 1e-15

    def test_dominated_removal_invariance(self):
        rng = np.random.default_rng(1)
        ref = unit_reference(2)
        for _ in range(200):
            pts = [rng.random(2) for _ in range(6)]
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

    def test_equals_brute_filter_then_sweep(self):
        rng = np.random.default_rng(24)
        for trial in range(300):
            m = 2 + trial % 2
            n = int(rng.integers(1, 80))
            V = rng.random((n, m)) * 1.2
            if trial % 3 == 0:
                V = np.round(V, 1)  # ties and duplicates
            r = np.ones(m)
            assert hypervolume_exact(V, ReferencePoint(r)) == brute_hypervolume(V, r)
            assert hypervolume_exact(list(V), ReferencePoint(r)) == brute_hypervolume(V, r)

    def test_accepts_matrix_like_vectors(self):
        rng = np.random.default_rng(25)
        V = rng.random((40, 3))
        ref = unit_reference(3)
        assert hypervolume_exact(V, ref) == hypervolume_exact(list(V), ref)
        with pytest.raises(ShapeError):
            hypervolume_exact(V[None], ref)

    def test_m_above_three_rejected(self):
        with pytest.raises(ShapeError):
            hypervolume_exact([[0.1] * 4], unit_reference(4))


class TestHypervolumeGridOracle:
    """hypervolume_exact on integer points against grid_cells_covered. Every
    number either side computes is a small integer, exact in floating point,
    so the two must agree exactly."""

    @staticmethod
    def hv(P, k):
        return hypervolume_exact(np.asarray(P), ReferencePoint(np.full(np.shape(P)[1], float(k))))

    @pytest.mark.parametrize("m", [2, 3])
    def test_random_sets_with_ties_and_duplicates(self, m):
        rng = np.random.default_rng(50 + m)
        for _ in range(300):
            k = int(rng.integers(1, 7))
            P = rng.integers(0, k + 1, size=(int(rng.integers(1, 25)), m))
            P = np.concatenate([P, P[rng.integers(0, len(P), size=len(P) // 2 + 1)]])
            assert self.hv(P, k) == grid_cells_covered(P, k)

    @pytest.mark.parametrize("m", [2, 3])
    def test_one_point(self, m):
        k = 4
        for p in product(range(k + 1), repeat=m):
            P = np.array([p])
            assert self.hv(P, k) == grid_cells_covered(P, k) == math.prod(k - v for v in p)

    def test_every_point_in_one_z_plane(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            P = rng.integers(0, k + 1, size=(int(rng.integers(1, 20)), 3))
            P[:, 2] = rng.integers(0, k + 1)
            assert self.hv(P, k) == grid_cells_covered(P, k)

    @pytest.mark.parametrize("m", [2, 3])
    def test_points_on_the_reference_faces(self, m):
        rng = np.random.default_rng(53 + m)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            P = rng.integers(0, k + 1, size=(int(rng.integers(1, 20)), m))
            on_face = rng.random(len(P)) < 0.5
            P[on_face, rng.integers(0, m, size=on_face.sum())] = k
            assert self.hv(P, k) == grid_cells_covered(P, k)
        assert self.hv(np.full((3, m), 5), 5) == 0.0

    @pytest.mark.parametrize("m", [2, 3])
    def test_points_beyond_the_reference(self, m):
        rng = np.random.default_rng(55 + m)
        for _ in range(100):
            k = int(rng.integers(1, 7))
            P = rng.integers(0, k + 4, size=(int(rng.integers(1, 20)), m))
            assert self.hv(P, k) == grid_cells_covered(P, k)
        assert self.hv(np.full((2, m), 7), 5) == 0.0


class TestHypervolumeMc:
    def test_full_domination(self):
        est, err = hypervolume_mc([[0.0, 0.0, 0.0]], unit_reference(3), 10_000, seed=0)
        assert est == 1.0 and err == 0.0

    def test_empty_points(self):
        assert hypervolume_mc([], unit_reference(2), 100) == (0.0, 0.0)

    def test_degenerate_box(self):
        est, err = hypervolume_mc([[1.0, 1.0]], unit_reference(2), 100)
        assert est == 0.0 and err == 0.0

    def test_matches_exact_within_three_sigma(self):
        rng = np.random.default_rng(3)
        ref2, ref3 = unit_reference(2), unit_reference(3)
        for trial in range(10):
            m = 2 if trial % 2 == 0 else 3
            ref = ref2 if m == 2 else ref3
            pts = [rng.random(m) for _ in range(rng.integers(1, 10))]
            exact = hypervolume_exact(pts, ref)
            est, err = hypervolume_mc(pts, ref, 200_000, seed=trial)
            assert abs(est - exact) <= 3.0 * max(err, 1e-12)

    @pytest.mark.parametrize("m", [4, 5])
    def test_estimates_unchanged(self, m, monkeypatch):
        rng = np.random.default_rng(26 + m)
        r = np.ones(m)
        for trial in range(4):
            V = rng.random((int(rng.integers(1, 60)), m)) * 1.1
            # 70,000 samples: the old loop drew them in two blocks.
            expect = brute_hypervolume_mc(V, r, 70_000, seed=trial)
            assert hypervolume_mc(V, ReferencePoint(r), 70_000, seed=trial) == expect
        # Small sample blocks draw the same stream.
        monkeypatch.setattr(metrics, "_MC_BLOCK_BYTES", 5000)
        assert hypervolume_mc(V, ReferencePoint(r), 70_000, seed=trial) == expect

    def test_works_above_three_objectives(self):
        pts = [[0.5] * 4]
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

    @pytest.mark.parametrize("la", [0, 1, 63, 64, 65, 128, 129, 200])
    def test_word_boundaries_match_oracle(self, la):
        # The bit-vector kernel keeps one bit per pattern position in 64-bit
        # words; these lengths end a word, start one, or span several.
        rng = np.random.default_rng(la)
        for i, lb in enumerate((0, 1, 63, 64, 65, 128, 129, 200)):
            alphabet = 2 if i % 2 else 20
            a = rng.integers(0, alphabet, size=la)
            b = rng.integers(0, alphabet, size=lb)
            assert edit_distance(a, b) == py_edit_distance(a, b)
            assert edit_distance(b, a) == py_edit_distance(a, b)

    def test_strings_with_any_code_points_match_oracle(self):
        rng = np.random.default_rng(8)
        chars = ["a", "b", "\u00e9", "\u4e2d", "\U0001f600", "\U0010ffff", "\x00"]
        for la, lb in [(0, 3), (5, 5), (63, 65), (64, 64), (129, 70), (200, 130)]:
            a = "".join(rng.choice(chars, size=la))
            b = "".join(rng.choice(chars, size=lb))
            assert edit_distance(a, b) == py_edit_distance(a, b)

    def test_pairs_in_chunks_match_oracle(self, monkeypatch):
        # Pair sets larger than one state block run in chunks of set members.
        monkeypatch.setattr(metrics, "_EDIT_BLOCK_WORDS", 5)
        rng = np.random.default_rng(9)
        A = rng.integers(0, 3, size=(3, 70))
        B = rng.integers(0, 3, size=(7, 66))
        D = metrics._edit_pairs(A, B)
        assert D.shape == (3, 7)
        assert all(D[i, t] == py_edit_distance(A[i], B[t]) for i in range(3) for t in range(7))

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


def nearest(x, pool):
    """The least edit distance from x to the pool and the index of its first
    holder: one row of edit_distance_matrix and its argmin."""
    dists = edit_distance_matrix([x], pool)[0]
    best = int(np.argmin(dists))
    return int(dists[best]), best


class TestMinEditToSet:
    def test_member_gives_zero(self):
        pool = [np.array([0, 1]), np.array([2, 2])]
        assert nearest(np.array([2, 2]), pool) == (0, 1)

    def test_singleton(self):
        assert nearest("abc", ["abd"]) == (1, 0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(6)
        pool = [rng.integers(0, 4, size=8) for _ in range(40)]
        for _ in range(100):
            x = rng.integers(0, 4, size=8)
            dists = [edit_distance(x, p) for p in pool]
            assert nearest(x, pool) == (min(dists), int(np.argmin(dists)))

    def test_tie_takes_lowest_index(self):
        assert nearest("ab", ["aa", "ab", "ab"]) == (0, 1)
        assert nearest("bb", ["aa", "ab", "ba"]) == (1, 1)

    def test_empty_set_rejected(self):
        # An empty set gives an empty row, which has no nearest member.
        assert edit_distance_matrix(["abc"], []).shape == (1, 0)
        with pytest.raises(ValueError):
            nearest("abc", [])

    def test_ragged_lengths_match_pairwise(self):
        rng = np.random.default_rng(27)
        for _ in range(150):
            pool = [rng.integers(0, 3, size=int(rng.integers(0, 9))) for _ in range(int(rng.integers(1, 12)))]
            x = rng.integers(0, 3, size=int(rng.integers(0, 9)))
            dists = [py_edit_distance(x, p) for p in pool]
            assert nearest(x, pool) == (min(dists), int(np.argmin(dists)))

    def test_empty_sequences(self):
        assert nearest("", ["abc", "", "a"]) == (0, 1)
        assert nearest("", ["abc", "ab"]) == (2, 1)
        assert nearest("ab", ["", "xyz"]) == (2, 0)

    def test_tie_across_length_groups_takes_lowest_index(self):
        # "abcd" and "ab" are both at distance 1 from "abc"; "abcd" comes first.
        assert nearest("abc", ["xyzw", "abcd", "ab", "abd"]) == (1, 1)


class TestEditDistanceMatrix:
    def test_ragged_lengths_match_oracle(self):
        rng = np.random.default_rng(11)
        lengths = (0, 2, 63, 64, 65, 129)
        rows = [rng.integers(0, 4, size=int(rng.choice(lengths))) for _ in range(9)]
        cols = [rng.integers(0, 4, size=int(rng.choice(lengths))) for _ in range(13)]
        D = edit_distance_matrix(rows, cols)
        assert D.shape == (9, 13) and D.dtype == np.int64
        assert D.tolist() == [[py_edit_distance(a, b) for b in cols] for a in rows]

    def test_strings_and_empty_sides(self):
        assert edit_distance_matrix(["kitten", "", "sitting"], ["sitting", "kit"]).tolist() == [[3, 3], [7, 3], [0, 5]]
        assert edit_distance_matrix(["ab"], []).shape == (1, 0)
        assert edit_distance_matrix([], ["ab"]).shape == (0, 1)


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

    def test_ragged_lengths_match_pairwise_minimum(self):
        rng = np.random.default_rng(10)
        lengths = (0, 3, 64, 65, 130)
        training = [rng.integers(0, 4, size=int(rng.choice(lengths))) for _ in range(12)]
        samples = [rng.integers(0, 4, size=int(rng.choice(lengths))) for _ in range(15)]
        dists = np.array([min(py_edit_distance(x, t) for t in training) for x in samples], dtype=float)
        assert summarize_edist(samples, training) == (float(dists.mean()), float(dists.std()))


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
