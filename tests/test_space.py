"""Vocabulary, embedding containers, vector I/O, neighbors, and analogies."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from embedstab import (
    AnalogyDataset,
    EmbeddingSpace,
    LoadError,
    RunSet,
    Vocabulary,
    analogy_score,
    cosine,
    joint_vocabulary,
    load_analogies,
    load_frequencies,
    load_text_vectors,
    nearest_neighbors,
    normalize,
    restrict,
    save_frequencies,
    save_text_vectors,
)

from helpers import random_normalized_space, words_for


class TestVocabulary:
    def test_order_and_positions(self):
        vocab = Vocabulary(("b", "a", "c"))
        assert vocab.words == ("b", "a", "c")
        assert [vocab.position(w) for w in "bac"] == [0, 1, 2]
        assert "a" in vocab and "z" not in vocab
        assert list(vocab) == ["b", "a", "c"]

    def test_duplicate_word_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(("a", "b", "a"))

    def test_missing_word_raises_keyerror(self):
        with pytest.raises(KeyError, match="'zz' not in vocabulary"):
            Vocabulary(("a",)).position("zz")

    def test_frequency_must_cover_every_word(self):
        with pytest.raises(ValueError, match="no frequency entry"):
            Vocabulary(("a", "b"), frequency={"a": 3})
        with pytest.raises(ValueError, match="must be >= 1"):
            Vocabulary(("a",), frequency={"a": 0})


class TestEmbeddingSpace:
    def test_matrix_is_read_only_float64(self):
        space = EmbeddingSpace(Vocabulary(("a", "b")), np.ones((2, 3), dtype=np.float32))
        assert space.matrix.dtype == np.float64
        with pytest.raises(ValueError):
            space.matrix[0, 0] = 5.0

    def test_shape_must_match_vocab(self):
        with pytest.raises(ValueError):
            EmbeddingSpace(Vocabulary(("a", "b")), np.ones((3, 2)))

    def test_vector_and_dim(self):
        space = EmbeddingSpace(Vocabulary(("a", "b")), np.arange(6.0).reshape(2, 3))
        assert space.dim == 3
        assert_allclose(space.vector("b"), [3.0, 4.0, 5.0])

    def test_normalize_gives_unit_rows_and_flag(self):
        space = random_normalized_space(7, 4, seed=0)
        assert space.normalized
        assert_allclose(np.linalg.norm(space.matrix, axis=1), 1.0, atol=1e-12)
        # idempotent
        again = normalize(space)
        assert_allclose(again.matrix, space.matrix)

    def test_normalize_rejects_zero_row(self):
        space = EmbeddingSpace(Vocabulary(("a", "b")), np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="zero"):
            normalize(space)


class TestRunSet:
    def test_requires_spaces_and_equal_dims(self):
        with pytest.raises(ValueError):
            RunSet(())
        a = random_normalized_space(4, 3, seed=1)
        b = random_normalized_space(4, 5, seed=2)
        with pytest.raises(ValueError, match="dimension"):
            RunSet((a, b))

    def test_len_and_iter(self):
        spaces = tuple(random_normalized_space(4, 3, seed=s) for s in range(3))
        runs = RunSet(spaces, mode="shuffled")
        assert len(runs) == 3
        assert list(runs) == list(spaces)


class TestTextVectorIO:
    def test_round_trip_preserves_order_and_values(self, tmp_path):
        space = random_normalized_space(9, 5, seed=3)
        path = tmp_path / "spc.vec"
        save_text_vectors(space, path)
        loaded = load_text_vectors(path)
        assert loaded.vocab.words == space.vocab.words
        assert not loaded.normalized
        assert_allclose(loaded.matrix, space.matrix, atol=1e-9)

    @settings(max_examples=60)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 5)),
            elements=st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    def test_save_load_save_is_byte_identical(self, matrix):
        # Any finite value, subnormals and -0 included, is written with 10
        # significant digits, and a value read back from them writes the same.
        space = EmbeddingSpace(Vocabulary(words_for(len(matrix))), matrix)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.vec", Path(tmp) / "second.vec"
            save_text_vectors(space, first)
            save_text_vectors(load_text_vectors(first), second)
            assert second.read_bytes() == first.read_bytes()

    def test_matches_the_per_value_format_oracle(self, tmp_path):
        # One format string per row must write the bytes of formatting every
        # value on its own, in both the 10-digit and the 17-digit form.
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(40, 7)) * 10.0 ** rng.integers(-300, 300, size=(40, 7))
        matrix[0, :4] = [-0.0, 1e-300, 1.2e11, 5e-324]
        huge = matrix.copy()
        huge[3, 2] = -1.7976931348623157e308
        for values, spec in ((matrix, ".10g"), (huge, ".17g")):
            space = EmbeddingSpace(Vocabulary(words_for(len(values))), values)
            path = tmp_path / "out.vec"
            save_text_vectors(space, path)
            rows = (
                f"{word} " + " ".join(format(x, spec) for x in row) + "\n"
                for word, row in zip(space.vocab.words, values)
            )
            want = f"{len(values)} {values.shape[1]}\n" + "".join(rows)
            assert path.read_bytes() == want.encode("utf-8")

    def test_header_and_row_errors(self, tmp_path):
        bad_header = tmp_path / "a.vec"
        bad_header.write_text("3\nfoo 1 2\n")
        with pytest.raises(LoadError, match="header"):
            load_text_vectors(bad_header)
        bad_row = tmp_path / "b.vec"
        bad_row.write_text("1 3\nfoo 1 2\n")
        with pytest.raises(LoadError):
            load_text_vectors(bad_row)
        short = tmp_path / "c.vec"
        short.write_text("2 2\nfoo 1 2\n")
        with pytest.raises(LoadError):
            load_text_vectors(short)

    def test_frequency_sidecar_round_trip(self, tmp_path):
        counts = {"foo": 12, "bar": 7}
        path = tmp_path / "f.freq"
        save_frequencies(counts, path)
        assert load_frequencies(path) == counts
        vec = tmp_path / "f.vec"
        vec.write_text("2 2\nfoo 1 0\nbar 0 1\n")
        space = load_text_vectors(vec, path)
        assert space.vocab.frequency == counts

    def test_sidecar_must_cover_vocabulary(self, tmp_path):
        path = tmp_path / "f.freq"
        save_frequencies({"foo": 1}, path)
        vec = tmp_path / "f.vec"
        vec.write_text("2 2\nfoo 1 0\nbar 0 1\n")
        with pytest.raises((LoadError, ValueError)):
            load_text_vectors(vec, path)


class TestCosineAndNeighbors:
    def test_cosine_matches_manual_value(self):
        space = EmbeddingSpace(
            Vocabulary(("x", "y")), np.array([[3.0, 4.0], [4.0, 3.0]])
        )
        assert_allclose(cosine(space, "x", "y"), 24.0 / 25.0)

    def test_neighbors_exclude_target_and_sort_by_cosine(self):
        space = planted = EmbeddingSpace(
            Vocabulary(("t", "a", "b", "c")),
            np.array(
                [
                    [1.0, 0.0, 0.0],
                    [0.9, np.sqrt(1 - 0.81), 0.0],
                    [0.5, np.sqrt(1 - 0.25), 0.0],
                    [0.7, 0.0, np.sqrt(1 - 0.49)],
                ]
            ),
            normalized=True,
        )
        got = nearest_neighbors(planted, "t", 3)
        assert [w for w, _ in got] == ["a", "c", "b"]
        assert_allclose([s for _, s in got], [0.9, 0.7, 0.5], atol=1e-12)
        assert nearest_neighbors(space, "t", 1)[0][0] == "a"

    def test_ties_break_lexicographically(self):
        space = EmbeddingSpace(
            Vocabulary(("t", "zz", "aa", "mm")),
            np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]),
            normalized=True,
        )
        got = [w for w, _ in nearest_neighbors(space, "t", 3)]
        assert got == ["aa", "mm", "zz"]

    def test_n_bounds(self):
        space = random_normalized_space(4, 3, seed=4)
        with pytest.raises(ValueError):
            nearest_neighbors(space, space.vocab.words[0], 4)
        with pytest.raises(ValueError):
            nearest_neighbors(space, space.vocab.words[0], 0)


class TestJointAndRestrict:
    def test_joint_vocabulary_keeps_first_space_order(self):
        a = EmbeddingSpace(Vocabulary(("x", "y", "z")), np.eye(3))
        b = EmbeddingSpace(Vocabulary(("z", "x")), np.eye(2, 3))
        joint = joint_vocabulary([a, b])
        assert joint.words == ("x", "z")

    def test_joint_requires_overlap(self):
        a = EmbeddingSpace(Vocabulary(("x",)), np.eye(1, 2))
        b = EmbeddingSpace(Vocabulary(("y",)), np.eye(1, 2))
        with pytest.raises(ValueError):
            joint_vocabulary([a, b])

    def test_restrict_preserves_rows(self):
        space = random_normalized_space(6, 4, seed=5)
        words = [space.vocab.words[3], space.vocab.words[1]]
        sub = restrict(space, words)
        assert sub.vocab.words == tuple(words)
        assert_allclose(sub.vector(words[0]), space.vector(words[0]))
        assert sub.normalized == space.normalized


class TestAnalogies:
    def test_loader_skips_sections_and_comments(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text(": capital-common\n# note\na b c d\ne f g h\n")
        dataset = load_analogies(path)
        assert len(dataset) == 2
        bad = tmp_path / "bad.txt"
        bad.write_text("a b c\n")
        with pytest.raises(LoadError, match="4 tokens"):
            load_analogies(bad)

    def test_3cosadd_solves_planted_offsets(self):
        # Word pairs arranged so relation vector (second - first) is shared:
        # king - man + woman should hit queen.
        vectors = {
            "man": [1.0, 0.0, 0.0],
            "woman": [0.0, 1.0, 0.0],
            "king": [1.0, 0.0, 1.0],
            "queen": [0.0, 1.0, 1.0],
            "noise": [0.3, -0.4, -0.2],
        }
        vocab = Vocabulary(tuple(vectors))
        space = normalize(EmbeddingSpace(vocab, np.array(list(vectors.values()))))
        dataset = AnalogyDataset((("man", "king", "woman", "queen"),))
        accuracy, coverage = analogy_score(space, dataset)
        assert (accuracy, coverage) == (1.0, 1.0)

    def test_oov_questions_lower_coverage_not_accuracy(self):
        space = random_normalized_space(5, 4, seed=6)
        w = space.vocab.words
        dataset = AnalogyDataset(
            ((w[0], w[1], w[2], w[3]), (w[0], "missing", w[2], w[3]))
        )
        accuracy, coverage = analogy_score(space, dataset)
        assert coverage == 0.5

    def test_restriction_shrinks_evaluation_vocabulary(self):
        # The true answer lies outside the restricted vocabulary, so the
        # restricted evaluation cannot answer the question correctly.
        vectors = {
            "man": [1.0, 0.0, 0.0],
            "king": [1.0, 0.0, 1.0],
            "woman": [0.0, 1.0, 0.0],
            "decoy": [0.1, 0.2, 0.3],
            "queen": [0.0, 1.0, 1.0],
        }
        space = normalize(
            EmbeddingSpace(Vocabulary(tuple(vectors)), np.array(list(vectors.values())))
        )
        dataset = AnalogyDataset((("man", "king", "woman", "queen"),))
        accuracy, coverage = analogy_score(space, dataset, restrict_to=list(vectors)[:4])
        assert coverage == 0.0
        full_accuracy, _ = analogy_score(space, dataset)
        assert full_accuracy == 1.0
