"""Procrustes alignment, aligned averaging, and the averaging tree."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from embedstab import (
    EmbeddingSpace,
    RunSet,
    Vocabulary,
    aligned_average_pair,
    aligned_average_tree,
    bias_variance_report,
    normalize,
    procrustes,
    sample_word_pairs,
)
from embedstab.align import _average_pair_raw

from helpers import (
    aligned_average_pair_oracle,
    pair_cosine_moments_oracle,
    random_normalized_space,
    random_rotation,
    rotated_copy,
    shuffled_words,
    words_for,
)


def _random_space(rng, words, d, counts):
    """A space over `words` in a random order, normalized or raw at random."""
    words = [words[i] for i in rng.permutation(len(words))]
    frequency = None if counts is None else {w: counts[w] for w in words}
    space = EmbeddingSpace(Vocabulary(tuple(words), frequency), rng.normal(size=(len(words), d)))
    return normalize(space) if rng.random() < 0.5 else space


class TestProcrustes:
    def test_recovers_a_planted_rotation(self):
        space = random_normalized_space(40, 6, seed=0)
        rotation = random_rotation(6, seed=1)
        rotated = EmbeddingSpace(space.vocab, space.matrix @ rotation,
                                 normalized=True)
        result = procrustes(space, rotated)
        assert_allclose(result.rotation, rotation, atol=1e-10)
        assert result.residual < 1e-10
        assert result.joint_vocab.words == space.vocab.words

    def test_recovers_a_planted_reflection(self):
        space = random_normalized_space(30, 4, seed=2)
        reflection = np.diag([1.0, -1.0, 1.0, 1.0])
        flipped = EmbeddingSpace(space.vocab, space.matrix @ reflection,
                                 normalized=True)
        result = procrustes(space, flipped)
        assert_allclose(result.rotation, reflection, atol=1e-10)
        assert_allclose(np.linalg.det(result.rotation), -1.0, atol=1e-10)

    def test_identity_for_identical_spaces(self):
        space = random_normalized_space(20, 5, seed=3)
        result = procrustes(space, space)
        assert_allclose(result.rotation, np.eye(5), atol=1e-10)
        assert result.residual < 1e-12

    def test_rotation_is_orthogonal_even_under_noise(self):
        space_a = random_normalized_space(50, 6, seed=4)
        space_b = random_normalized_space(50, 6, seed=5)
        result = procrustes(space_a, space_b)
        assert_allclose(result.rotation @ result.rotation.T, np.eye(6),
                        atol=1e-12)
        assert result.residual > 0.1  # unrelated spaces stay far apart

    def test_residual_is_minimal_among_rotations(self):
        space_a = random_normalized_space(25, 4, seed=6)
        space_b = random_normalized_space(25, 4, seed=7)
        best = procrustes(space_a, space_b).residual
        for seed in range(5):
            other = random_rotation(4, seed=100 + seed)
            residual = np.linalg.norm(space_a.matrix @ other - space_b.matrix)
            assert best <= residual + 1e-12

    def test_solved_over_joint_vocabulary_only(self):
        space = random_normalized_space(30, 5, seed=8)
        rotation = random_rotation(5, seed=9)
        # Second space: rotated copy of the first 20 words plus 5 fresh ones.
        extra_words = words_for(5, prefix="x")
        words = space.vocab.words[:20] + extra_words
        rng = np.random.default_rng(10)
        fresh = rng.normal(size=(5, 5))
        fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
        matrix = np.vstack([space.matrix[:20] @ rotation, fresh])
        other = EmbeddingSpace(Vocabulary(words), matrix, normalized=True)
        result = procrustes(space, other)
        assert result.joint_vocab.words == space.vocab.words[:20]
        assert_allclose(result.rotation, rotation, atol=1e-8)

    def test_requires_normalized_inputs(self):
        raw = EmbeddingSpace(Vocabulary(("a", "b")),
                             np.array([[2.0, 0.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="normalized"):
            procrustes(raw, normalize(raw))
        with pytest.raises(ValueError, match="normalized"):
            procrustes(normalize(raw), raw)


class TestAlignedAveragePair:
    def test_average_formula_on_joint_rows(self):
        space_a = random_normalized_space(20, 4, seed=11)
        space_b = random_normalized_space(20, 4, seed=12)
        rotation = procrustes(space_a, space_b).rotation
        averaged = aligned_average_pair(space_a, space_b)
        assert not averaged.normalized
        want = 0.5 * (space_a.matrix @ rotation + space_b.matrix)
        rows = [averaged.vocab.position(w) for w in space_b.vocab.words]
        assert_allclose(averaged.matrix[rows], want, atol=1e-12)

    def test_vocabulary_union_and_frequency_carry(self):
        freq_a = {w: 10 + i for i, w in enumerate(("shared", "only_a"))}
        freq_b = {w: 20 + i for i, w in enumerate(("shared", "only_b"))}
        rng = np.random.default_rng(13)

        def unit_rows(n):
            m = rng.normal(size=(n, 3))
            return m / np.linalg.norm(m, axis=1, keepdims=True)

        space_a = EmbeddingSpace(
            Vocabulary(("shared", "only_a"), freq_a), unit_rows(2), normalized=True
        )
        space_b = EmbeddingSpace(
            Vocabulary(("shared", "only_b"), freq_b), unit_rows(2), normalized=True
        )
        averaged = aligned_average_pair(space_a, space_b)
        # Frame order: second space's words first, then first-space-only words.
        assert averaged.vocab.words == ("shared", "only_b", "only_a")
        assert averaged.vocab.frequency == {
            "shared": 20, "only_b": 21, "only_a": 11,
        }
        rotation = procrustes(space_a, space_b).rotation
        assert_allclose(averaged.vector("only_b"), space_b.vector("only_b"))
        assert_allclose(averaged.vector("only_a"),
                        space_a.vector("only_a") @ rotation, atol=1e-12)

    def test_identical_spaces_average_to_themselves(self):
        space = random_normalized_space(15, 4, seed=14)
        averaged = aligned_average_pair(space, space)
        assert_allclose(averaged.matrix, space.matrix, atol=1e-10)

    def test_rotated_copies_average_to_the_frame_space(self):
        space = random_normalized_space(25, 5, seed=15)
        rotated = rotated_copy(space, seed=16)
        averaged = aligned_average_pair(rotated, space)
        # Aligning the rotated copy back undoes the rotation exactly, so the
        # average equals the unrotated frame space.
        assert_allclose(averaged.matrix, space.matrix, atol=1e-9)

    def test_averaged_rows_shrink(self):
        space_a = random_normalized_space(30, 5, seed=17)
        space_b = random_normalized_space(30, 5, seed=18)
        averaged = aligned_average_pair(space_a, space_b)
        norms = np.linalg.norm(averaged.matrix, axis=1)
        assert np.all(norms <= 1.0 + 1e-12)
        assert np.mean(norms) < 1.0

    @settings(max_examples=60)
    @given(st.data())
    def test_matches_the_per_word_oracle(self, data):
        # Vocabularies overlap in part, in different orders; the first space
        # may hold no word of its own.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        joint, only_a, only_b = (data.draw(st.integers(low, 8)) for low in (1, 0, 0))
        pool = shuffled_words(rng, joint + only_a + only_b)
        counts = None
        if data.draw(st.booleans()):
            counts = {w: int(c) for w, c in zip(pool, rng.integers(1, 100, size=len(pool)))}
        d = data.draw(st.integers(1, 6))
        space_a = _random_space(rng, pool[: joint + only_a], d, counts)
        space_b = _random_space(rng, pool[:joint] + pool[joint + only_a :], d, counts)
        got = _average_pair_raw(space_a, space_b)
        want = aligned_average_pair_oracle(space_a, space_b)
        assert got.vocab.words == want.vocab.words
        assert got.matrix.tobytes() == want.matrix.tobytes()
        if counts is None:
            assert got.vocab.frequency is None and want.vocab.frequency is None
        else:
            assert list(got.vocab.frequency.items()) == list(want.vocab.frequency.items())
        assert not got.normalized


class TestAlignedAverageTree:
    def test_single_space_is_returned_unchanged(self):
        space = random_normalized_space(10, 3, seed=19)
        assert aligned_average_tree([space]) is space

    def test_pair_matches_renormalized_pair_average(self):
        space_a = random_normalized_space(20, 4, seed=20)
        space_b = random_normalized_space(20, 4, seed=21)
        tree = aligned_average_tree([space_a, space_b])
        pair = normalize(aligned_average_pair(space_a, space_b))
        assert tree.normalized
        assert_allclose(tree.matrix, pair.matrix, atol=1e-12)

    def test_four_runs_reduce_to_one_normalized_space(self):
        spaces = [random_normalized_space(20, 4, seed=22 + i) for i in range(4)]
        tree = aligned_average_tree(spaces)
        assert tree.normalized
        assert len(tree) == 20
        assert_allclose(np.linalg.norm(tree.matrix, axis=1), 1.0, atol=1e-12)

    def test_odd_space_is_carried_up(self):
        spaces = [random_normalized_space(15, 3, seed=30 + i) for i in range(3)]
        tree = aligned_average_tree(spaces)
        # Level 1: avg(0, 1), carry 2; level 2: avg(avg01, 2).
        level1 = normalize(aligned_average_pair(spaces[0], spaces[1]))
        want = normalize(aligned_average_pair(level1, spaces[2]))
        assert_allclose(tree.matrix, want.matrix, atol=1e-12)

    def test_without_renormalization_result_is_raw(self):
        spaces = [random_normalized_space(12, 3, seed=40 + i) for i in range(2)]
        tree = aligned_average_tree(spaces, renormalize=False)
        assert not tree.normalized
        want = aligned_average_pair(spaces[0], spaces[1])
        assert_allclose(tree.matrix, want.matrix, atol=1e-12)

    def test_seeded_pairing_permutes_reproducibly(self):
        spaces = [random_normalized_space(18, 4, seed=50 + i) for i in range(4)]
        given = aligned_average_tree(spaces, pairing="given")
        seeded_1 = aligned_average_tree(spaces, pairing="seeded", seed=3)
        seeded_2 = aligned_average_tree(spaces, pairing="seeded", seed=3)
        assert_allclose(seeded_1.matrix, seeded_2.matrix, atol=0)
        order = np.random.default_rng(3).permutation(4)
        want = aligned_average_tree([spaces[i] for i in order], pairing="given")
        assert_allclose(seeded_1.matrix, want.matrix, atol=0)
        assert not np.allclose(given.matrix, seeded_1.matrix)

    def test_averaging_noisy_copies_recovers_the_source(self):
        # Independently perturbed copies of one space: the tree average must
        # land closer to the source than any single run is.
        rng = np.random.default_rng(60)
        source = random_normalized_space(40, 6, seed=61)
        runs = []
        for k in range(8):
            noisy = source.matrix + 0.15 * rng.normal(size=source.matrix.shape)
            noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
            runs.append(EmbeddingSpace(source.vocab, noisy, normalized=True))
        averaged = aligned_average_tree(runs)

        def distance(space):
            rotation = procrustes(space, source).rotation
            return np.linalg.norm(space.matrix @ rotation - source.matrix)

        avg_distance = distance(averaged)
        run_distances = [distance(r) for r in runs]
        assert avg_distance < 0.5 * min(run_distances)

    def test_empty_input_and_bad_pairing(self):
        with pytest.raises(ValueError, match="at least one"):
            aligned_average_tree([])
        space = random_normalized_space(5, 3, seed=62)
        with pytest.raises(ValueError, match="pairing"):
            aligned_average_tree([space], pairing="random")

    def test_zero_row_is_dropped_with_warning(self):
        # Two 1-D spaces whose shared word has opposite signs: the aligned
        # average of a row and its negation is the zero row.
        space_a = EmbeddingSpace(
            Vocabulary(("anchor", "flip")),
            np.array([[1.0], [-1.0]]), normalized=True,
        )
        space_b = EmbeddingSpace(
            Vocabulary(("anchor", "flip")),
            np.array([[1.0], [1.0]]), normalized=True,
        )
        with pytest.warns(UserWarning, match="zero-norm"):
            tree = aligned_average_tree([space_a, space_b])
        assert tree.vocab.words == ("anchor",)


class TestSampleWordPairs:
    def test_pairs_are_distinct_and_seeded(self):
        spaces = [random_normalized_space(12, 3, seed=70)]
        pairs = sample_word_pairs(spaces, 10, seed=1)
        assert len(pairs) == 10
        assert len({tuple(sorted(p)) for p in pairs}) == 10
        assert all(a != b for a, b in pairs)
        assert pairs == sample_word_pairs(spaces, 10, seed=1)
        assert pairs != sample_word_pairs(spaces, 10, seed=2)
        vocab = set(spaces[0].vocab.words)
        assert all(a in vocab and b in vocab for a, b in pairs)

    def test_count_limited_by_available_pairs(self):
        spaces = [random_normalized_space(4, 3, seed=71)]
        assert len(sample_word_pairs(spaces, 6, seed=0)) == 6
        with pytest.raises(ValueError, match="only 6 distinct pairs"):
            sample_word_pairs(spaces, 7)

    def test_needs_two_words(self):
        space = EmbeddingSpace(Vocabulary(("solo",)), np.eye(1, 3),
                               normalized=True)
        with pytest.raises(ValueError, match="at least 2 words"):
            sample_word_pairs([space], 1)


class TestBiasVarianceReport:
    def test_averaging_shrinks_sigma_and_inflates_mu(self):
        # Noisy copies of one source; averaged pairs must show sigma ratio
        # below 1. mu ratio is >= 1 for the averaging construction because
        # averaging pulls vectors toward shared directions.
        rng = np.random.default_rng(80)
        source = random_normalized_space(30, 5, seed=81)
        noisy = []
        for k in range(8):
            m = source.matrix + 0.3 * rng.normal(size=source.matrix.shape)
            m /= np.linalg.norm(m, axis=1, keepdims=True)
            noisy.append(EmbeddingSpace(source.vocab, m, normalized=True))
        runs = RunSet(tuple(noisy))
        averaged = RunSet((
            aligned_average_tree(noisy[:4]),
            aligned_average_tree(noisy[4:]),
        ))
        pairs = sample_word_pairs(noisy, 60, seed=82)
        sigma_ratio, mu_ratio = bias_variance_report(runs, averaged, pairs)
        assert sigma_ratio < 1.0
        assert mu_ratio >= 1.0

    def test_identical_run_sets_give_unit_ratios(self):
        spaces = tuple(random_normalized_space(20, 4, seed=90 + i) for i in range(3))
        runs = RunSet(spaces)
        pairs = sample_word_pairs(spaces, 30, seed=91)
        sigma_ratio, mu_ratio = bias_variance_report(runs, runs, pairs)
        assert_allclose((sigma_ratio, mu_ratio), (1.0, 1.0), rtol=1e-12)

    @settings(max_examples=40)
    @given(st.data())
    def test_matches_the_per_pair_oracle(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        pool = shuffled_words(rng, data.draw(st.integers(2, 12)))
        d = data.draw(st.integers(1, 6))
        runs, averaged = (
            RunSet(tuple(_random_space(rng, pool, d, None) for _ in range(count)))
            for count in (data.draw(st.integers(2, 5)), data.draw(st.integers(2, 4)))
        )
        count = data.draw(st.integers(1, min(12, len(pool) * (len(pool) - 1) // 2)))
        pairs = sample_word_pairs(runs.spaces, count, seed=data.draw(st.integers(0, 99)))
        mu_orig, sigma_orig = pair_cosine_moments_oracle(runs, pairs)
        mu_avg, sigma_avg = pair_cosine_moments_oracle(averaged, pairs)
        if sigma_orig == 0.0 or mu_orig == 0.0:
            with pytest.raises(ValueError, match="ratios are undefined"):
                bias_variance_report(runs, averaged, pairs)
        else:
            got = bias_variance_report(runs, averaged, pairs)
            assert got == (sigma_avg / sigma_orig, mu_avg / mu_orig)

    def test_validation(self):
        spaces = tuple(random_normalized_space(10, 3, seed=95 + i) for i in range(2))
        runs = RunSet(spaces)
        with pytest.raises(ValueError, match="at least 2 spaces"):
            bias_variance_report(RunSet((spaces[0],)), runs, [("w0000", "w0001")])
        with pytest.raises(ValueError, match="at least one word pair"):
            bias_variance_report(runs, runs, [])
