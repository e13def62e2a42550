import re

import numpy as np
import pytest

from paretoebm.core import (
    AMINO_ALPHABET,
    ConfigError,
    DesignPoint,
    DiscreteSequence,
    InvalidSequenceError,
    InvalidSimplexError,
    SamplerConfig,
    ShapeError,
    SimplexWeights,
    Trajectory,
    WrongKindError,
    decode,
    decode_rows,
    read_sequences,
    relax,
    relax_rows,
    sequence_from_str,
    sequence_point,
    sequence_to_str,
)


def seq(tokens, A):
    return DiscreteSequence(np.array(tokens), alphabet_size=A)


class TestDesignPoint:
    def test_raw_point(self):
        p = DesignPoint([1.0, 2.0])
        assert p.d == 2 and p.kind == "raw"

    def test_coords_are_read_only(self):
        p = DesignPoint([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coords[0] = 3.0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DesignPoint([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            DesignPoint([np.inf, 0.0])

    def test_sequence_kind_needs_matching_dims(self):
        DesignPoint(np.zeros(6), kind="sequence-logits", L=3, A=2)
        with pytest.raises(ShapeError):
            DesignPoint(np.zeros(5), kind="sequence-logits", L=3, A=2)

    def test_raw_must_not_carry_dims(self):
        with pytest.raises(ShapeError):
            DesignPoint(np.zeros(4), kind="raw", L=2, A=2)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            DesignPoint(np.zeros(4), kind="fuzzy")


class TestDiscreteSequence:
    def test_token_out_of_range(self):
        with pytest.raises(InvalidSequenceError):
            seq([0, 2], A=2)
        with pytest.raises(InvalidSequenceError):
            seq([-1], A=2)

    def test_empty_rejected(self):
        with pytest.raises(InvalidSequenceError):
            seq([], A=2)

    def test_equality(self):
        assert seq([0, 1], 2) == seq([0, 1], 2)
        assert seq([0, 1], 2) != seq([1, 1], 2)


class TestRelaxDecode:
    def test_relax_one_hot(self):
        p = relax(seq([0], 2), on_value=1.0, off_value=0.0)
        assert np.array_equal(p.coords, [1.0, 0.0])

    def test_relax_two_positions(self):
        p = relax(seq([1, 0], 2), on_value=1.0, off_value=0.0)
        assert np.array_equal(p.coords, [0.0, 1.0, 1.0, 0.0])

    def test_relax_parameterized_fill(self):
        p = relax(seq([0], 2), on_value=2.0, off_value=-2.0)
        assert np.array_equal(p.coords, [2.0, -2.0])

    def test_relax_requires_on_above_off(self):
        with pytest.raises(ValueError):
            relax(seq([0], 2), on_value=0.0, off_value=1.0)

    def test_decode_argmax(self):
        p = DesignPoint([0.1, 0.9], kind="sequence-logits", L=1, A=2)
        assert decode(p) == seq([1], 2)

    def test_decode_tie_breaks_low(self):
        p = DesignPoint([0.5, 0.5], kind="sequence-logits", L=1, A=2)
        assert decode(p) == seq([0], 2)

    def test_decode_rejects_raw(self):
        with pytest.raises(WrongKindError):
            decode(DesignPoint([0.5, 0.5]))

    @pytest.mark.parametrize("ties", [False, True], ids=["random", "ties"])
    def test_rows_match_one_sequence_at_a_time(self, ties):
        # decode_rows and relax_rows against decode and relax on each row; with
        # ties most positions hold equal logits, and the lowest token wins.
        rng = np.random.default_rng(4 + ties)
        for _ in range(60):
            n, L, A = int(rng.integers(1, 12)), int(rng.integers(1, 9)), int(rng.choice([2, 4, 20]))
            if ties:
                X = rng.integers(0, 2, size=(n, L * A)).astype(float)
            else:
                X = rng.standard_normal((n, L * A))
            tokens = decode_rows(X, L, A)
            assert tokens.shape == (n, L)
            for x, row in zip(X, tokens):
                assert np.array_equal(row, decode(sequence_point(x, L, A)).tokens)
            assert np.array_equal(relax_rows(tokens, A), [relax(seq(row, A)).coords for row in tokens])
        assert np.array_equal(decode_rows(np.array([[0.5, 0.5, 0.2, 0.7, 0.7, 0.7]]), 2, 3), [[0, 0]])

    def test_round_trip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            A = int(rng.choice([4, 20]))
            L = int(rng.integers(1, 65))
            s = seq(rng.integers(0, A, L), A)
            on = float(rng.uniform(0.5, 3.0))
            off = on - float(rng.uniform(0.1, 2.0))
            assert decode(relax(s, on, off)) == s


class TestSimplexWeights:
    def test_valid(self):
        assert SimplexWeights([0.5, 0.5]).m == 2

    def test_vertex(self):
        SimplexWeights([1.0, 0.0, 0.0])

    def test_bad_sum(self):
        with pytest.raises(InvalidSimplexError):
            SimplexWeights([0.6, 0.6])

    def test_negative(self):
        with pytest.raises(InvalidSimplexError):
            SimplexWeights([1.5, -0.5])

    def test_fuzz_both_sides(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            lam = rng.dirichlet(np.ones(m))
            lam = lam / lam.sum()
            SimplexWeights(lam)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            lam = rng.dirichlet(np.ones(m))
            bad = rng.integers(0, 3)
            if bad == 0:
                lam = lam * float(rng.uniform(1.1, 2.0))
            elif bad == 1:
                lam = lam - 2.0 / m
            else:
                lam = lam + 1e-6
            if abs(lam.sum() - 1.0) <= 1e-9 and lam.min() >= 0:
                continue
            with pytest.raises(InvalidSimplexError):
                SimplexWeights(lam)


class TestSamplerConfig:
    def test_defaults_follow_eta(self):
        cfg = SamplerConfig(eta=0.04, steps=10)
        assert cfg.sigma == pytest.approx(0.2)
        assert cfg.alpha == pytest.approx(0.02)

    def test_overrides_stick(self):
        cfg = SamplerConfig(eta=0.04, steps=10, sigma=0.5, alpha=0.0)
        assert cfg.sigma == 0.5 and cfg.alpha == 0.0

    def test_zero_steps_accepted(self):
        assert SamplerConfig(eta=0.1, steps=0).steps == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(eta=0.0, steps=1),
            dict(eta=0.1, steps=-1),
            dict(eta=0.1, steps=1, sigma=-1.0),
            dict(eta=0.1, steps=1, alpha=-0.1),
            dict(eta=0.1, steps=1, noise_kind="pink"),
            dict(eta=0.1, steps=1, record_every=0),
            # NaN fails every ordered comparison, so "x < 0" would let it through.
            dict(eta=0.1, steps=1, sigma=float("nan")),
            dict(eta=0.1, steps=1, alpha=float("nan")),
            dict(eta=0.1, steps=1, grad_tol=float("nan")),
            dict(eta=0.1, steps=1, grad_tol=-1e-9),
            dict(eta=float("nan"), steps=1),
            dict(eta=0.1, steps=float("nan")),
            dict(eta=0.1, steps=1, record_every=float("nan")),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            SamplerConfig(**kwargs)


def _trajectory(steps, coords, values, lam):
    return Trajectory(
        steps=np.array(steps),
        X=np.array(coords, dtype=float),
        F=np.array(values, dtype=float),
        lam=np.array(lam, dtype=float),
        grad_norm=np.ones(len(steps)),
    )


class TestTrajectory:
    def test_terminated_early_follows_termination_step(self):
        cols = ([0, 2], [[0.0], [1.0]], [[1.0, 2.0], [0.5, 1.0]], [[0.5, 0.5], [1.0, 0.0]], np.ones(2))
        stopped = Trajectory(*cols, termination_step=2)
        assert stopped.terminated_early and stopped.termination_step == 2
        assert not Trajectory(*cols).terminated_early
        with pytest.raises(AttributeError):
            stopped.terminated_early = False

    def test_matrices(self):
        t = _trajectory([0, 3], [[0.0], [1.0]], [[1.0, 2.0], [0.5, 1.0]], [[0.5, 0.5], [1.0, 0.0]])
        assert np.array_equal(t.steps, [0, 3])
        assert t.F.shape == (2, 2)
        assert t.m == 2


class TestSequenceText:
    def test_render_default_alphabet(self):
        s = seq([0, 2, 1], 20)
        assert sequence_to_str(s) == "ADC"

    def test_parse_round_trip(self):
        s = sequence_from_str("ACDY")
        assert sequence_to_str(s) == "ACDY"

    def test_unknown_symbol_mentions_position(self):
        with pytest.raises(InvalidSequenceError, match="position 2"):
            sequence_from_str("AC1D")

    def test_file_round_trip(self, tmp_path):
        seqs = [sequence_from_str("ACDY"), sequence_from_str("WWWW")]
        path = tmp_path / "seqs.txt"
        path.write_text("".join(sequence_to_str(s) + "\n" for s in seqs))
        loaded = read_sequences(path)
        assert loaded == seqs

    def test_read_skips_blank_and_comments(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("# header\nACD\n\nWWW\n")
        assert len(read_sequences(path)) == 2
        path.write_text("# header\n\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}: no sequences")):
            read_sequences(path)

    def test_read_reports_location(self, tmp_path):
        path = tmp_path / "seqs.txt"
        path.write_text("ACD\nAXJ\n")
        with pytest.raises(InvalidSequenceError, match="seqs.txt:2"):
            read_sequences(path)

    def test_small_alphabet(self):
        s = seq([0, 1, 1, 3], 4)
        assert sequence_to_str(s, "ACGT") == "ACCT"
        assert sequence_from_str("ACCT", "ACGT") == s
