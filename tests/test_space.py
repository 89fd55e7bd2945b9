"""Vocabulary, embedding containers, vector I/O, neighbors, and analogies."""

import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose

from embedstab import space as space_module
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

from helpers import (
    analogy_score_oracle,
    load_text_vectors_oracle,
    nearest_neighbors_oracle,
    random_normalized_space,
    shuffled_words,
    tie_rich_rows,
    words_for,
)

BLOCK = space_module._LOAD_BLOCK_LINES


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

    def test_count_below_one_names_its_line(self, tmp_path):
        path = tmp_path / "f.freq"
        for count in ("0", "-3"):
            path.write_text(f"a\t3\nb\t{count}\n")
            with pytest.raises(LoadError) as caught:
                load_frequencies(path)
            assert str(caught.value) == f"{path}:2: count must be >= 1, got {count}"


def per_value_text(words, matrix: np.ndarray) -> bytes:
    """The oracle of `save_text_vectors`: every value formatted on its own."""
    spec = ".10g" if np.all(np.abs(matrix) < 1.797693134e308) else ".17g"
    rows = (
        f"{word} " + " ".join(format(x, spec) for x in row) + "\n"
        for word, row in zip(words, matrix.tolist())
    )
    return (f"{len(words)} {matrix.shape[1]}\n" + "".join(rows)).encode("utf-8")


def saved_text(matrix: np.ndarray, words=None) -> bytes:
    words = words_for(len(matrix)) if words is None else tuple(words)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.vec"
        save_text_vectors(EmbeddingSpace(Vocabulary(words), matrix), path)
        return path.read_bytes()


def _with_neighbours(values) -> list[float]:
    return [y for x in values for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf))]


class TestTextVectorWriter:
    """The vectorized writer against per-value `format(x, spec)`."""

    # Powers of ten, the doubles nearest decimal ties (and exact binary
    # ties, which `%` rounds half to even), values that round up across a
    # power, zeros, subnormals, and the edge of the 10-digit form.
    BOUNDARY = (
        _with_neighbours([10.0**p for p in range(-5, 11)])
        + _with_neighbours([0.12345678905, 1.2345678905, 0.00012345678905, 12345.678905])
        + [1000000000.5, 1000000001.5, 1234567890.5, 2.5, 0.125]
        + _with_neighbours([9.9999999995e-05, 0.99999999995, 9999999999.5, 9.9999999995e-14])
        + [0.0, -0.0, 5e-324, 2.5e-310, 1e-13, 1e32, np.nextafter(1.797693134e308, 0.0)]
    )

    @settings(max_examples=200)
    @given(hnp.arrays(np.uint64, st.tuples(st.integers(1, 5), st.integers(1, 6))))
    def test_raw_bit_patterns_match_the_oracle(self, bits):
        matrix = bits.view(np.float64)
        matrix[~np.isfinite(matrix)] = 1.0
        assert saved_text(matrix) == per_value_text(words_for(len(matrix)), matrix)

    @pytest.mark.parametrize(
        "extra", [[], [1.797693134e308], [-1.7976931348623157e308]], ids=["10g", "17g", "17g-max"]
    )
    def test_the_boundary_table_matches_the_oracle(self, extra):
        values = np.array(self.BOUNDARY + extra)
        matrix = np.concatenate([values, -values])[:, None]
        assert saved_text(matrix) == per_value_text(words_for(len(matrix)), matrix)
        # The same values as one wide row, so a chunk mixes them.
        assert saved_text(matrix.T) == per_value_text(words_for(1), matrix.T)

    @pytest.mark.parametrize("shape", [(0, 3), (4, 1), (1, 1)])
    def test_empty_and_single_column_spaces(self, shape):
        matrix = np.random.default_rng(2).normal(size=shape)
        assert saved_text(matrix) == per_value_text(words_for(shape[0]), matrix)

    def test_non_ascii_words_are_written_as_utf8(self):
        words = ["über", "日本語", "١٢", "naïve", "#"]
        matrix = np.random.default_rng(3).normal(0.0, 0.1, size=(5, 3))
        assert saved_text(matrix, words) == per_value_text(words, matrix)

    @pytest.mark.parametrize("d", [7, space_module._SAVE_CHUNK_VALUES + 3])
    def test_rows_straddling_chunk_boundaries(self, d):
        rng = np.random.default_rng(4)
        v = 3 * space_module._SAVE_CHUNK_VALUES // d + 2
        matrix = rng.normal(0.0, 0.1, size=(v, d)) * 10.0 ** rng.integers(-16, 12, size=(v, d))
        matrix[rng.integers(v, size=50), rng.integers(d, size=50)] = 0.0
        assert saved_text(matrix) == per_value_text(words_for(v), matrix)

    @pytest.mark.parametrize("wide", [False, True], ids=["normal", "scientific-and-large"])
    def test_the_fast_path_places_nearly_every_value(self, monkeypatch, wide):
        # Formatting everything through the fallback would still be correct,
        # only slow; this counts what the fallback formats.  The wide matrix
        # spans 1e-12 … 1e30, the scientific form and the divided scaling.
        formatted = []
        fallback = space_module._format_each

        def counting(values, spec):
            formatted.append(len(values))
            return fallback(values, spec)

        monkeypatch.setattr(space_module, "_format_each", counting)
        rng = np.random.default_rng(5)
        matrix = rng.normal(0.0, 0.1, size=(2000, 50))
        if wide:
            matrix *= 10.0 ** rng.integers(-11, 31, size=matrix.shape)
        assert saved_text(matrix) == per_value_text(words_for(2000), matrix)
        assert sum(formatted) < 0.01 * matrix.size

    def test_bytes_and_text_chunks_write_and_record_the_same(self, tmp_path):
        chunks = ["2 1\n", "über 0.5\n", "日本語 -1e-05\n"]
        written = {
            "text.vec": chunks,
            "bytes.vec": [chunk.encode("utf-8") for chunk in chunks],
            "mixed.vec": [chunks[0], chunks[1].encode("utf-8"), chunks[2]],
        }
        with space_module._recording_inputs():
            for name, parts in written.items():
                space_module._write_text(tmp_path / name, parts)
            digests = {space_module._recorded_digest(tmp_path / name) for name in written}
        data = "".join(chunks).encode("utf-8")
        for name in written:
            assert (tmp_path / name).read_bytes() == data
        assert digests == {hashlib.sha256(data).hexdigest()}


class TestBlockLoader:
    """The block loader against the per-value oracle, and every fault it names."""

    @staticmethod
    @st.composite
    def vector_files(draw):
        v = draw(st.one_of(st.just(0), st.integers(1, 6), st.integers(2 * BLOCK + 1, 3 * BLOCK + 7)))
        d = draw(st.integers(1, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        matrix = rng.normal(size=(v, d)) * 10.0 ** rng.integers(-320, 308, size=(v, d))
        spec = draw(st.sampled_from(["%.10g", "%.17g"]))
        # The largest float written with 10 digits would round up to infinity.
        largest = 1.7976931348623157e308 if spec == "%.17g" else 1.797693134e308
        specials = [-0.0, 5e-324, 2.5e-310, largest, 1.0, -3.25]
        for _ in range(draw(st.integers(0, 8)) if v else 0):
            matrix[rng.integers(v), rng.integers(d)] = specials[rng.integers(len(specials))]
        words = list(words_for(v))
        for i, word in zip(rng.permutation(v), ["#", "1990", "nan", "über", "日本語", "١٢"]):
            words[i] = word
        seps, ends = [" ", "\t", "   ", " \t "], ["\n", "\r\n", "  \n", "\t\r\n"]
        lines = [f"{v} {d}" + ends[rng.integers(4)]]
        for word, row in zip(words, matrix.tolist()):
            text = " " * int(rng.integers(2)) + word
            for x in row:
                text += seps[rng.integers(4)] + spec % x
            lines.append(text + ends[rng.integers(4)])
        text = "".join(lines)
        if draw(st.booleans()):
            text = text.rstrip("\r\n")
        return text

    @settings(max_examples=40)
    @given(vector_files())
    def test_matches_the_per_value_oracle(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "v.vec"
            with path.open("w", encoding="utf-8", newline="") as handle:
                handle.write(text)
            words, matrix = load_text_vectors_oracle(path)
            loaded = load_text_vectors(path)
        assert list(loaded.vocab.words) == words
        assert loaded.matrix.shape == matrix.shape
        assert loaded.matrix.tobytes() == matrix.tobytes()

    @staticmethod
    def rows(v, d=3):
        return [f"{w} " + " ".join(f"{r}.{c}5" for c in range(d)) + "\n"
                for r, w in enumerate(words_for(v))]

    @staticmethod
    def message(path, text):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(LoadError) as info:
            load_text_vectors(path)
        return str(info.value)

    @pytest.mark.parametrize("row", [1, BLOCK + 4])
    def test_row_faults_name_their_line(self, tmp_path, row):
        # Row `row` sits in the first block, or past the first block seam.
        v, path, lineno = BLOCK + 10, tmp_path / "bad.vec", row + 2
        word = words_for(v)[row]
        faults = {
            f"{word} 1 2\n": f"expected 3 values for {word!r}, got 2",
            f"{word} 1 2 3 4\n": f"expected 3 values for {word!r}, got 4",
            f"{word}\n": f"expected 3 values for {word!r}, got 0",
            f"{word} 1 x 3\n": "non-numeric value",
            f"{word} 1 1_0 3\n": "non-numeric value",
            f"{word} 1 \u0661 3\n": "non-numeric value",
            f"{word} 1 0x1 3\n": "non-numeric value",
            f"{word} 1 #2 3\n": "non-numeric value",
            f"{word} 1 inf 3\n": "non-finite value",
            f"{word} nan 2 3\n": "non-finite value",
            f"{word} 1 2 -1e400\n": "non-finite value",
            "w0000 1 2 3\n": "duplicate word 'w0000'",
            "\n": "blank line where a row was expected",
            " \t \n": "blank line where a row was expected",
        }
        for line, want in faults.items():
            rows = self.rows(v)
            rows[row] = line
            text = f"{v} 3\n" + "".join(rows)
            assert self.message(path, text) == f"{path}:{lineno}: {want}", line

    @pytest.mark.parametrize("kept", [1, BLOCK + 4])
    def test_file_ended_early(self, tmp_path, kept):
        path, v = tmp_path / "short.vec", BLOCK + 10
        text = f"{v} 3\n" + "".join(self.rows(v)[:kept])
        assert self.message(path, text) == f"{path}:{kept + 2}: expected {v} rows, file ended early"
        # A fault in the rows read comes before the early end.
        rows = self.rows(kept)
        rows[-1] = "x 1\n"
        assert self.message(path, f"{v} 3\n" + "".join(rows)) == (
            f"{path}:{kept + 1}: expected 3 values for 'x', got 1"
        )

    @pytest.mark.parametrize("v", [3, BLOCK + 4])
    def test_extra_rows_are_rejected_even_after_blank_lines(self, tmp_path, v):
        path, rows = tmp_path / "long.vec", self.rows(v + 2)
        want = f"{path}:{v + 2}: more rows than the header announced"
        assert self.message(path, f"{v} 3\n" + "".join(rows)) == want
        blank_first = "".join(rows[:v]) + "\n  \n" + rows[v]
        assert self.message(path, f"{v} 3\n" + blank_first) == (
            f"{path}:{v + 4}: more rows than the header announced"
        )
        assert self.message(path, "1 2\nw 1 2\n\nx 3 4\n") == (
            f"{path}:4: more rows than the header announced"
        )
        # Blank lines after the rows are allowed.
        path.write_text(f"{v} 3\n" + "".join(rows[:v]) + "\n \n\n", encoding="utf-8")
        assert len(load_text_vectors(path)) == v

    def test_bad_headers(self, tmp_path):
        path = tmp_path / "head.vec"
        assert self.message(path, "3\nfoo 1 2\n") == (
            f"{path}:1: header must be '<v> <d>', got '3\\n'"
        )
        assert self.message(path, "3 x\n") == (
            f"{path}:1: non-integer header fields '3 x\\n'"
        )
        assert self.message(path, "2 0\n") == f"{path}:1: invalid sizes v=2, d=0"
        assert self.message(path, "-1 2\n") == f"{path}:1: invalid sizes v=-1, d=2"

    def test_other_spellings_parse_as_float_does(self, tmp_path):
        path = tmp_path / "ok.vec"
        values = ["+1", "-1.", ".5", "1E-5", "-0", "007", "1e-400", "2.5e-310"]
        path.write_text(f"1 {len(values)}\nw  " + "\t".join(values) + " \r\n", encoding="utf-8")
        loaded = load_text_vectors(path).matrix[0]
        assert loaded.tobytes() == np.array([float(x) for x in values]).tobytes()
        # Non-finite spellings parse, and the loader rejects them by line.
        for value in ["INF", "-inf", "nan", "NaN", "1e400", "Infinity"]:
            path.write_text(f"1 2\nw 1 {value}\n", encoding="utf-8")
            assert self.message(path, path.read_text()) == f"{path}:2: non-finite value"
        # Within a block, the first faulty line is named, whatever its fault.
        assert self.message(path, "3 2\nw 1 inf\nx 1\ny 1 2\n") == (
            f"{path}:2: non-finite value"
        )
        assert self.message(path, "3 2\nw 1 2\nx 1\ny nan 2\n") == (
            f"{path}:3: expected 2 values for 'x', got 1"
        )


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


@st.composite
def tie_rich_spaces(draw):
    """Quantized spaces full of exact ties, or Gaussian ones; words stored
    out of lexicographic order; flagged normalized or not."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, d = draw(st.integers(2, 40)), draw(st.integers(1, 6))
    space = EmbeddingSpace(
        Vocabulary(tuple(shuffled_words(rng, v))),
        tie_rich_rows(rng, v, d, quantized=draw(st.booleans())),
    )
    return normalize(space) if draw(st.booleans()) else space


class TestTopKKernel:
    """The one neighbor kernel against the full-argsort oracle."""

    @settings(max_examples=60)
    @given(tie_rich_spaces(), st.data())
    def test_nearest_neighbors_match_the_oracle(self, space, data):
        for target in space.vocab.words:
            n = data.draw(st.integers(1, len(space) - 1))
            got = nearest_neighbors(space, target, n)
            want = nearest_neighbors_oracle(space, target, n)
            assert [w for w, _ in got] == [w for w, _ in want]
            assert_allclose([s for _, s in got], [s for _, s in want], rtol=0, atol=1e-14)
            assert target not in [w for w, _ in got]

    @pytest.mark.parametrize("quantized", [True, False])
    def test_a_normalized_space_ranked_over_its_own_vocabulary_is_read_in_place(
        self, monkeypatch, quantized
    ):
        # Over its own vocabulary a normalized space's matrix itself is the
        # operand of the kernel's product, not a gathered copy; the lists and
        # similarities, ties included, equal those over a copy bit for bit.
        rng = np.random.default_rng(21)
        space = normalize(EmbeddingSpace(
            Vocabulary(tuple(shuffled_words(rng, 200))), tie_rich_rows(rng, 200, 6, quantized)
        ))
        operands = []
        word_rows = space_module._word_rows

        def recorded(*args, **kwargs):
            operands.append(word_rows(*args, **kwargs))
            return operands[-1]

        monkeypatch.setattr(space_module, "_word_rows", recorded)
        queries = np.arange(len(space))[:, None]
        got = space_module._top_k(space, space.vocab.words, queries, 7)
        want = space_module._top_k(space, list(space.vocab.words), queries, 7)
        assert operands[0] is space.matrix
        assert operands[1] is not space.matrix and np.array_equal(operands[1], space.matrix)
        assert got[0].tolist() == want[0].tolist()
        assert got[1].tobytes() == want[1].tobytes()


@st.composite
def reader_cases(draw, zero_rows=False):
    """A space that is not normalized, with one or two zero rows if
    `zero_rows`, and a list of its words, repeats allowed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    v, d = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    rows = tie_rich_rows(rng, v, d, quantized=draw(st.booleans()))
    if zero_rows:
        rows[draw(st.lists(st.integers(0, v - 1), min_size=1, max_size=2))] = 0.0
    words = tuple(shuffled_words(rng, v))
    listed = draw(st.lists(st.sampled_from(words), max_size=2 * v))
    return EmbeddingSpace(Vocabulary(words), rows), listed


class TestWordRows:
    """The one row reader, `_word_rows`, over raw and normalized spaces."""

    @given(reader_cases())
    def test_unit_rows_are_the_normalized_space_s_rows_bit_for_bit(self, case):
        # A raw space's rows are scaled after the gather, yet give the bits
        # of the normalized space's rows; a normalized space's are read as
        # they are.
        raw, listed = case
        unit = normalize(raw)
        for words in (listed, raw.vocab.words):
            want = unit.matrix[space_module._positions(raw.vocab, words)].tobytes()
            for space in (raw, unit):
                assert space_module._word_rows(space, words, unit=True).tobytes() == want

    @given(reader_cases())
    def test_only_the_vocabulary_tuple_is_the_matrix_itself(self, case):
        raw, _ = case
        unit = normalize(raw)
        for space in (raw, unit):
            words = space.vocab.words
            assert restrict(space, words).matrix is space.matrix
            assert space_module._word_rows(space) is space.matrix
            assert space_module._word_rows(space, words) is space.matrix
            copy = space_module._word_rows(space, list(words))
            assert copy is not space.matrix and np.array_equal(copy, space.matrix)
            with pytest.raises(KeyError, match="word '\\?' not in vocabulary"):
                space_module._word_rows(space, [words[0], "?"])
        assert space_module._word_rows(unit, unit=True) is unit.matrix

    @given(reader_cases(zero_rows=True))
    def test_only_a_listed_zero_row_is_an_error_naming_its_word(self, case):
        space, listed = case
        dead = [w for w in listed if not space.vector(w).any()]
        if dead:
            with pytest.raises(ValueError, match=f"^zero vector for '{dead[0]}'$"):
                space_module._word_rows(space, listed, unit=True)
        else:
            unit = space_module._word_rows(space, listed, unit=True)
            assert_allclose(np.linalg.norm(unit, axis=1), 1.0, rtol=0, atol=1e-12)


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

    @pytest.mark.parametrize("counted", [False, True])
    def test_restrict_names_an_unknown_word(self, counted):
        counts = dict.fromkeys(words_for(4), 1) if counted else None
        space = random_normalized_space(4, 3, seed=2, frequency=counts)
        with pytest.raises(KeyError, match="word 'nope' not in vocabulary"):
            restrict(space, [space.vocab.words[0], "nope"])

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

    @settings(max_examples=60)
    @given(tie_rich_spaces(), st.data())
    def test_3cosadd_matches_the_per_question_oracle(self, space, data):
        words = list(space.vocab.words)
        word = st.sampled_from(words + ["oov"])
        questions = data.draw(st.lists(st.tuples(word, word, word, word), max_size=30))
        dataset = AnalogyDataset(tuple(questions))
        restrict_to = data.draw(st.none() | st.lists(st.sampled_from(words), unique=True))
        got = analogy_score(space, dataset, restrict_to)
        assert got == analogy_score_oracle(space, dataset, restrict_to)

    def test_tied_best_scores_go_to_the_first_word(self):
        # b - a + c = (1, 0) scores 1 for both "zed" and "bee"; "bee" wins.
        vectors = {"a": [0.0, 1.0], "b": [1.0, 0.0], "c": [0.0, 1.0],
                   "zed": [1.0, 0.0], "bee": [2.0, 0.0], "far": [-1.0, 0.0]}
        space = EmbeddingSpace(Vocabulary(tuple(vectors)), np.array(list(vectors.values())))
        for answer, accuracy in (("bee", 1.0), ("zed", 0.0)):
            dataset = AnalogyDataset((("a", "b", "c", answer),))
            assert analogy_score(space, dataset) == (accuracy, 1.0)
