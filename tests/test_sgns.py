"""Deterministic skip-gram negative-sampling trainer."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from embedstab import Corpus, SamplingMode, SgnsConfig, Vocabulary, normalize, sample, train
from embedstab import sgns
from embedstab.sgns import (
    _BLOCK_TOKENS,
    _CHUNK_TOKENS,
    _LR_FLOOR_FACTOR,
    _NOISE_BUCKETS,
    _block_bounds,
    _chunk_blocks,
    _noise_buckets,
    _noise_words,
    _shared_negatives,
    _sigmoid,
    _step_blocks,
    _window_pairs,
    build_vocab,
    noise_distribution,
    subsample_probability,
)

from helpers import (
    block_objective,
    block_step_oracle,
    block_update_oracle,
    finite_difference_gradients,
    stacked_step,
    train_per_block_oracle,
    two_topic_corpus,
)


def tiny_corpus():
    return Corpus((
        ("a", "b", "a", "c"),
        ("b", "a", "b"),
        ("c", "a"),
    ))


SMALL = SgnsConfig(dim=8, window=2, negatives=2, epochs=2, initial_lr=0.05,
                   subsample_t=1.0, min_count=1, seed=0)

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Trains 300 Zipfian documents of 48 tokens at dims 100 and 300 and prints
# the sha256 of each trained matrix.
_THREAD_PROBE = """
import hashlib
import numpy as np
from embedstab import Corpus, SgnsConfig, train

rng = np.random.default_rng(11)
weights = 1.0 / np.arange(1, 401)
draws = rng.choice(400, size=(300, 48), p=weights / weights.sum())
corpus = Corpus(tuple(tuple(f"w{i}" for i in row) for row in draws.tolist()))
for dim in (100, 300):
    config = SgnsConfig(dim=dim, window=4, negatives=5, epochs=2, initial_lr=0.025,
                        subsample_t=1e-3, min_count=1, seed=5)
    print(hashlib.sha256(train(corpus, config).matrix.tobytes()).hexdigest())
"""


class TestConfig:
    def test_defaults_and_validation(self):
        config = SgnsConfig()
        assert (config.dim, config.window, config.negatives) == (300, 5, 5)
        with pytest.raises(ValueError, match="dim"):
            SgnsConfig(dim=0)
        with pytest.raises(ValueError, match="epochs"):
            SgnsConfig(epochs=-1)
        for lr in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="initial_lr"):
                SgnsConfig(initial_lr=lr)
        with pytest.raises(ValueError, match="subsample_t"):
            SgnsConfig(subsample_t=0.0)
        with pytest.raises(ValueError, match="min_count"):
            SgnsConfig(min_count=0)


class TestBuildVocab:
    def test_orders_by_count_then_word(self):
        vocab = build_vocab(tiny_corpus(), min_count=1)
        # counts: a=4, b=3, c=2
        assert vocab.words == ("a", "b", "c")
        assert vocab.frequency == {"a": 4, "b": 3, "c": 2}

    def test_ties_break_lexicographically(self):
        corpus = Corpus((("z", "y", "z", "y", "m"),))
        vocab = build_vocab(corpus, min_count=1)
        assert vocab.words == ("y", "z", "m")

    def test_min_count_filters(self):
        vocab = build_vocab(tiny_corpus(), min_count=3)
        assert vocab.words == ("a", "b")
        with pytest.raises(ValueError, match="min_count=9"):
            build_vocab(tiny_corpus(), min_count=9)


class TestSubsampleProbability:
    def test_rare_words_are_never_discarded(self):
        assert subsample_probability(1e-6, 1e-5) == 0.0
        assert subsample_probability(1e-5, 1e-5) == 0.0

    def test_formula_above_threshold(self):
        assert_allclose(subsample_probability(0.1, 1e-3), 1.0 - 0.1, rtol=1e-12)
        assert_allclose(subsample_probability(4e-5, 1e-5), 0.5, rtol=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError, match="relative frequency"):
            subsample_probability(0.0, 1e-5)
        with pytest.raises(ValueError, match="relative frequency"):
            subsample_probability(1.5, 1e-5)
        with pytest.raises(ValueError, match="got 1.5"):
            subsample_probability(np.array([0.5, 1.5, 0.0]), 1e-5)

    def test_an_array_is_the_scalar_formula_per_entry(self):
        freq = np.array([1e-6, 1e-5, 4e-5, 0.1, 1.0, 3e-3])
        want = [0.0 if f <= 1e-5 else 1.0 - math.sqrt(1e-5 / f) for f in freq.tolist()]
        assert subsample_probability(freq, 1e-5).tolist() == want


class TestNoiseDistribution:
    def test_three_quarter_power_weights(self):
        vocab = Vocabulary(("a", "b"), {"a": 16, "b": 81})
        probs = noise_distribution(vocab)
        assert_allclose(probs, [8 / 35, 27 / 35], rtol=1e-12)

    def test_requires_frequencies(self):
        with pytest.raises(ValueError, match="no frequencies"):
            noise_distribution(Vocabulary(("a",)))

    def test_flatter_than_raw_counts(self):
        vocab = Vocabulary(("a", "b"), {"a": 10_000, "b": 10})
        probs = noise_distribution(vocab)
        assert probs[0] / probs[1] < 10_000 / 10


def noise_cdf(counts) -> np.ndarray:
    """The noise CDF `train` builds from these word counts."""
    weights = np.asarray(counts, dtype=float) ** 0.75
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    return cdf


def assert_noise_words_are_the_search(cdf: np.ndarray, draws: np.ndarray) -> None:
    got = _noise_words(cdf, _noise_buckets(cdf), draws)
    assert np.array_equal(got, np.searchsorted(cdf, draws, side="right"))


class TestNoiseLookup:
    """The bucketed lookup against `np.searchsorted`, draw for draw."""

    def test_bucket_edges_cdf_entries_and_their_neighbours(self):
        # A Zipfian vocabulary as large as the benchmark's: its head words
        # get buckets of their own, its tail shares buckets and falls back.
        cdf = noise_cdf(1e5 / np.arange(1, 5001) ** 1.05 + 2)
        entries = cdf[:-1]
        draws = np.concatenate((
            np.arange(_NOISE_BUCKETS) / _NOISE_BUCKETS,
            entries,
            np.nextafter(entries, 0.0),
            np.nextafter(entries, 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ))
        assert draws.max() < 1.0
        buckets = _noise_buckets(cdf)
        starts = buckets[(draws * _NOISE_BUCKETS).astype(np.intp)]
        assert 0 < np.count_nonzero(cdf[starts] <= draws) < draws.size
        assert_noise_words_are_the_search(cdf, draws)

    @settings(max_examples=200)
    @given(
        st.lists(st.integers(1, 10**6), min_size=1, max_size=400),
        st.integers(0, 2**32 - 1),
    )
    @example([7], 0)
    @example([3, 3, 3, 3], 1)
    @example([10**6] + [1] * 399, 2)
    def test_random_count_vectors(self, counts, seed):
        cdf = noise_cdf(counts)
        entries = cdf[:-1]
        draws = np.concatenate((
            np.random.default_rng(seed).random(2000),
            entries,
            np.nextafter(entries, 0.0),
            np.nextafter(entries, 1.0),
            [0.0, np.nextafter(1.0, 0.0)],
        ))
        assert_noise_words_are_the_search(cdf, draws[draws < 1.0])


class TestSigmoid:
    def test_midpoint_and_symmetry(self):
        assert _sigmoid(np.array(0.0)) == 0.5
        x = np.linspace(-5, 5, 11)
        assert_allclose(_sigmoid(x) + _sigmoid(-x), 1.0, rtol=1e-12)

    def test_clamp_freezes_the_tails(self):
        assert _sigmoid(np.array(100.0)) == _sigmoid(np.array(6.0))
        assert _sigmoid(np.array(-100.0)) == _sigmoid(np.array(-6.0))
        assert 0.0 < _sigmoid(np.array(-100.0)) < _sigmoid(np.array(100.0)) < 1.0


class TestGradientStep:
    def setup_buffers(self, seed=0, v=8, d=5):
        rng = np.random.default_rng(seed)
        input_vectors = 0.1 * rng.normal(size=(v, d))
        output_vectors = 0.1 * rng.normal(size=(v, d))
        return input_vectors, output_vectors

    def block(self):
        # Word 3 sits at two positions, word 2 is a center and also the
        # context of another center, and noise word 5 repeats within and
        # across windows.
        words = np.array([2, 3, 2, 3, 6])
        centers, contexts = _window_pairs(np.array([0, 0, 0, 1, 1]), np.array([1, 2, 1, 1, 1]))
        negatives = np.array([[5, 5], [1, 4], [0, 5], [7, 2], [5, 6]])
        return words, centers, contexts, negatives

    def test_matches_finite_difference_gradient(self):
        # The update must equal the gradient of the block objective, each
        # term scaled by its center's rate, evaluated at the incoming state.
        input_vectors, output_vectors = self.setup_buffers()
        words, centers, contexts, negatives = self.block()
        lr = np.array([1.0, 0.5, 2.0, 1.5, 0.25])
        stepped_in, stepped_out = input_vectors.copy(), output_vectors.copy()
        stacked_step(stepped_in, stepped_out, words, centers, contexts, negatives, lr)

        fd_in, fd_out = finite_difference_gradients(
            lambda a, b: block_objective(a, b, words, centers, contexts, negatives, lr),
            input_vectors,
            output_vectors,
        )
        assert_allclose(stepped_in - input_vectors, fd_in, atol=1e-8)
        assert_allclose(stepped_out - output_vectors, fd_out, atol=1e-8)

    def test_small_step_increases_the_objective(self):
        input_vectors, output_vectors = self.setup_buffers(seed=1)
        block = self.block()
        before = block_objective(input_vectors, output_vectors, *block)
        stacked_step(input_vectors, output_vectors, *block, np.full(5, 0.05))
        after = block_objective(input_vectors, output_vectors, *block)
        assert after > before

    def test_one_center_block_matches_the_per_pair_step(self):
        # One center whose window holds its own word: the block step must
        # equal the per-pair step, every pair with its own copy of the k
        # noise rows, all gradients at the incoming state.
        input_vectors, output_vectors = self.setup_buffers(seed=2)
        words = np.array([1, 4, 1, 6])
        centers, contexts = np.zeros(3, dtype=np.intp), np.array([1, 2, 3])
        negatives = np.array([[3, 7, 3], [0, 0, 0], [0, 0, 0], [0, 0, 0]])
        lr = np.array([0.3, 0.0, 0.0, 0.0])
        stepped_in, stepped_out = input_vectors.copy(), output_vectors.copy()
        stacked_step(stepped_in, stepped_out, words, centers, contexts, negatives, lr)

        rows = np.concatenate((words[1:], np.tile(negatives[0], 3)))
        labels = np.concatenate((np.ones(3), np.zeros(9)))
        center = input_vectors[1]
        g = 0.3 * (labels - _sigmoid(output_vectors[rows] @ center))
        want_in, want_out = input_vectors.copy(), output_vectors.copy()
        want_in[1] += g @ output_vectors[rows]
        np.add.at(want_out, rows, np.outer(g, center))
        assert_allclose(stepped_in, want_in, rtol=1e-13, atol=1e-16)
        assert_allclose(stepped_out, want_out, rtol=1e-13, atol=1e-16)


FLOOR_RATE = SgnsConfig().initial_lr * _LR_FLOOR_FACTOR


@st.composite
def step_blocks(draw):
    """A block as `train` hands it to the step, over a vocabulary of at most
    six words, so words recur at several positions and as noise draws, and
    noise draws repeat and hit context words and the position's own word.
    Each rate is either the floor rate or drawn from [1e-3, 1]."""
    v, d, m, k = (draw(st.integers(1, hi)) for hi in (6, 6, 12, 4))
    word = st.integers(0, v - 1)
    words = draw(st.lists(word, min_size=m, max_size=m))
    doc_of = sorted(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
    widths = draw(st.lists(st.integers(1, 4), min_size=m, max_size=m))
    negatives = draw(st.lists(st.lists(word, min_size=k, max_size=k), min_size=m, max_size=m))
    rate = st.one_of(st.just(FLOOR_RATE), st.floats(1e-3, 1.0))
    lr = draw(st.lists(rate, min_size=m, max_size=m))
    return v, d, draw(st.integers(0, 2**32 - 1)), words, doc_of, widths, negatives, lr


STEP_BLOCK_EXAMPLES = (
    # Word 2 at positions 0 and 2, word 3 at 1 and 3; position 0 draws its
    # context word 3 twice, position 2 its own word 2 twice.
    (5, 3, 1, [2, 3, 2, 3, 1], [0, 0, 0, 1, 1], [1, 2, 1, 1, 1],
     [[3, 3], [2, 4], [2, 2], [0, 3], [1, 0]], [0.5, 0.02, 1.0, 0.3, 0.7]),
    # One position, so no pairs: the noise draws carry weight 0.
    (3, 4, 2, [1], [0], [2], [[1, 0, 1]], [0.4]),
    # Every rate at the floor.
    (4, 5, 3, [0, 1, 0, 2], [0, 0, 0, 0], [2, 2, 2, 2],
     [[0, 1], [1, 3], [3, 3], [2, 0]], [FLOOR_RATE] * 4),
)


def each_step_block(test):
    """Runs `test` over `step_blocks()`, these examples always among them."""
    for block in STEP_BLOCK_EXAMPLES:
        test = example(block)(test)
    return settings(max_examples=150)(given(step_blocks())(test))


class TestStepOracle:
    """The stacked step against the gather/scatter oracle and, bit for bit,
    against the per-block step it replaced."""

    @each_step_block
    def test_matches_the_gather_scatter_oracle(self, block):
        v, d, seed, words, doc_of, widths, negatives, lr = block
        rng = np.random.default_rng(seed)
        input_vectors = rng.normal(0.0, 0.6, (v, d))
        output_vectors = rng.normal(0.0, 0.6, (v, d))
        words = np.array(words)
        centers, contexts = _window_pairs(np.array(doc_of), np.array(widths))
        args = (words, centers, contexts, np.array(negatives), np.array(lr))
        stepped_in, stepped_out = input_vectors.copy(), output_vectors.copy()
        stacked_step(stepped_in, stepped_out, *args)
        want_in, want_out = input_vectors.copy(), output_vectors.copy()
        block_update_oracle(want_in, want_out, *args)
        # 1e-12 of the largest step, plus one rounding of the stored value.
        for before, got, want in (
            (input_vectors, stepped_in, want_in),
            (output_vectors, stepped_out, want_out),
        ):
            bound = 1e-12 * np.abs(want - before).max() + np.spacing(np.abs(before))
            assert np.all(np.abs(got - want) <= bound)

    @staticmethod
    def assert_matches_the_unstacked_step(block, dtype):
        # As one block, and as one block per document stepped in turn.
        v, d, seed, words, doc_of, widths, negatives, lr = block
        rng = np.random.default_rng(seed)
        start = tuple(rng.normal(0.0, 0.6, (2, v, d)).astype(dtype))
        words, doc_of, negatives, lr = map(np.array, (words, doc_of, negatives, lr))
        centers, contexts = _window_pairs(doc_of, np.array(widths))
        documents = np.flatnonzero(np.diff(doc_of, prepend=-1, append=3)).tolist()
        for blocks in ([0, len(words)], documents):
            got = tuple(m.copy() for m in start)
            stacked_step(*got, words, centers, contexts, negatives, lr, blocks)
            want = tuple(m.copy() for m in start)
            for lo, hi in zip(blocks[:-1], blocks[1:]):
                inside = (lo <= centers) & (centers < hi)
                block_step_oracle(
                    *want, words[lo:hi], centers[inside] - lo, contexts[inside] - lo,
                    negatives[lo:hi], lr[lo:hi],
                )
            assert got[0].dtype == got[1].dtype == dtype
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()

    @each_step_block
    def test_matches_the_unstacked_step_bit_for_bit(self, block):
        # At the trainer's float32.
        self.assert_matches_the_unstacked_step(block, np.float32)

    @each_step_block
    def test_float64_tables_match_the_unstacked_step_bit_for_bit(self, block):
        self.assert_matches_the_unstacked_step(block, np.float64)

    @pytest.mark.parametrize("seed", range(4))
    def test_compiled_product_is_the_coo_array_product(self, seed):
        # `coo_array @ X` runs scipy's compiled `coo_matmat_dense`, which the
        # step calls directly; pin it to the bytes of the public product, with
        # repeated (row, column) entries that are summed in their given order.
        from scipy.sparse import coo_array
        from scipy.sparse._sparsetools import coo_matmat_dense
        rng = np.random.default_rng(seed)
        n, d, t = 12, 7, 300
        rows, cols = rng.integers(0, n, t), rng.integers(0, n, t)
        data, x = rng.normal(size=t), rng.normal(size=(n, d))
        got = np.zeros((n, d))
        coo_matmat_dense(t, d, rows, cols, data, x, got)
        assert got.tobytes() == (coo_array((data, (rows, cols)), shape=(n, n)) @ x).tobytes()


class TestSgnsStep:
    """The pieces of one block step, as `train` runs them."""

    def test_updates_in_place_and_touches_only_block_rows(self):
        # Input rows 0..5, output rows 6..11; the step buffer is all zero
        # again afterwards.
        rng = np.random.default_rng(2)
        table = 0.1 * rng.normal(size=(12, 3))
        step = np.zeros_like(table)
        before = table.copy()
        centers, contexts = _window_pairs(np.zeros(3, dtype=np.intp), np.ones(3, dtype=np.intp))
        result = _step_blocks(
            table, step, np.array([0, 1, 2]), centers, contexts,
            np.array([[3], [3], [4]]), np.full(3, 0.1), np.array([0, 3]),
        )
        assert result is None
        moved = np.flatnonzero(np.any(table != before, axis=1))
        assert moved.tolist() == [0, 1, 2, 6, 7, 8, 9, 10]
        assert not step.any()

    def test_validation(self):
        with pytest.raises(ValueError, match="min_count=9"):
            train(tiny_corpus(), SgnsConfig(**{**SMALL.__dict__, "min_count": 9}))
        with pytest.raises(ValueError, match="initial_lr"):
            SgnsConfig(**{**SMALL.__dict__, "initial_lr": -0.1})

    def test_state_validation(self):
        # The input vectors are checked at the end of every epoch; a rate
        # that overflows them stops training there.
        config = SgnsConfig(**{**SMALL.__dict__, "initial_lr": 1e300})
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="training diverged"):
                train(tiny_corpus(), config)

    def test_clash_redraw_keeps_one_retry(self):
        # Noise mass sits on the window's two context words, so nearly every
        # draw clashes; each clash is redrawn once and the redraw kept,
        # meaning context words appear among the negatives rather than the
        # draw looping forever.
        cdf = np.array([0.001, 0.5, 0.999, 1.0])
        words = np.array([0, 1, 2])
        centers, contexts = np.array([0, 0]), np.array([1, 2])
        negs = _shared_negatives(
            cdf, _noise_buckets(cdf), words, centers, contexts, 2000, np.random.default_rng(6)
        )
        assert negs.shape == (3, 2000)
        assert set(np.unique(negs)) <= {0, 1, 2, 3}
        assert np.mean(np.isin(negs[0], [1, 2])) > 0.9

        # Replaying the stream: first draws, then one redraw for each draw
        # equal to any context of its window (positions 1 and 2 have none).
        rng = np.random.default_rng(6)
        want = np.searchsorted(cdf, rng.random((3, 2000)), side="right")
        clash = np.zeros(want.shape, dtype=bool)
        clash[0] = np.isin(want[0], [1, 2])
        want[clash] = np.searchsorted(cdf, rng.random(int(clash.sum())), side="right")
        assert np.array_equal(negs, want)


    def test_a_chunk_draws_in_the_documented_order(self, monkeypatch):
        # One epoch of 520 tokens is one chunk.  Replaying the stream: the
        # initialization, the subsampling draws, the widths of the kept
        # positions, their noise words, then one redraw for each noise word
        # equal to a context word of its window.
        corpus, _, _ = two_topic_corpus(docs=40, doc_len=13, seed=12)
        config = SgnsConfig(dim=6, window=3, negatives=4, epochs=1, initial_lr=0.05,
                            subsample_t=1e-2, min_count=1, seed=21)
        calls = []
        kernel = sgns._step_blocks

        def recording(table, step, *args):
            calls.append(args)
            kernel(table, step, *args)

        monkeypatch.setattr(sgns, "_step_blocks", recording)
        train(corpus, config)
        assert len(calls) == 1
        words, centers, contexts, negatives, lr, blocks = calls[0]

        vocab = build_vocab(corpus, config.min_count)
        tokens = np.array([vocab.index[t] for doc in corpus.documents for t in doc])
        doc_of = np.repeat(np.arange(40), 13)
        discard = np.array([
            subsample_probability(vocab.frequency[w] / tokens.size, config.subsample_t)
            for w in vocab.words
        ])
        cdf = np.cumsum(noise_distribution(vocab))
        cdf[-1] = 1.0
        rng = np.random.default_rng(config.seed)
        rng.uniform(-0.5 / config.dim, 0.5 / config.dim, size=(len(vocab), config.dim))
        kept = np.flatnonzero(rng.random(tokens.size) >= discard[tokens])
        widths = rng.integers(1, config.window + 1, size=kept.size)
        pairs = [
            (i, j)
            for i in range(kept.size)
            for j in range(i - widths[i], i + widths[i] + 1)
            if 0 <= j < kept.size and j != i and doc_of[kept[j]] == doc_of[kept[i]]
        ]
        want = np.searchsorted(cdf, rng.random((kept.size, config.negatives)), side="right")
        window_words = [{tokens[kept[j]] for c, j in pairs if c == i} for i in range(kept.size)]
        clash = np.array([[w in window_words[i] for w in row] for i, row in enumerate(want)])
        assert 0 < clash.sum() < clash.size
        want[clash] = np.searchsorted(cdf, rng.random(int(clash.sum())), side="right")

        assert 0 < kept.size < tokens.size
        assert np.array_equal(words, tokens[kept])
        assert list(zip(centers.tolist(), contexts.tolist())) == pairs
        assert np.array_equal(negatives, want)
        decay = np.maximum(1.0 - kept / tokens.size, _LR_FLOOR_FACTOR)
        assert np.array_equal(lr, config.initial_lr * decay)
        assert np.array_equal(blocks, np.searchsorted(kept, _block_bounds([13] * 40)))

    def test_a_corpus_longer_than_a_chunk_trains_in_chunks(self, monkeypatch):
        # With a 200-token budget an epoch of 1,200 tokens takes several
        # chunks; nothing sampled outgrows its chunk, and training stays
        # deterministic.
        monkeypatch.setattr(sgns, "_CHUNK_TOKENS", 200)
        corpus, _, _ = two_topic_corpus(docs=60, doc_len=20, seed=13)
        config = SgnsConfig(**{**SMALL.__dict__, "subsample_t": 1e-2})
        sizes = []
        kernel = sgns._step_blocks

        def recording(table, step, words, centers, contexts, negatives, lr, blocks):
            sizes.append((words.size, centers.size, len(negatives), lr.size, blocks[-1]))
            kernel(table, step, words, centers, contexts, negatives, lr, blocks)

        monkeypatch.setattr(sgns, "_step_blocks", recording)
        first = train(corpus, config)
        assert len(sizes) >= config.epochs * 1200 // 200
        for m, pairs, rows, rates, end in sizes:
            assert 0 < m == rows == rates == end <= 200
            assert pairs <= 2 * config.window * m
        assert np.array_equal(train(corpus, config).matrix, first.matrix)


class TestBlocks:
    def test_blocks_hold_whole_documents(self):
        rng = np.random.default_rng(9)
        lengths = rng.integers(0, 40, size=300)
        lengths[[5, 50, 51]] = [200, _BLOCK_TOKENS, 0]
        bounds = _block_bounds(lengths.tolist())
        ends = np.concatenate(([0], np.cumsum(lengths)))
        assert bounds[0] == 0 and bounds[-1] == ends[-1]
        assert np.all(np.isin(bounds, ends))
        sizes = np.diff(bounds)
        assert np.all(sizes[:-1] >= _BLOCK_TOKENS) and sizes[-1] > 0
        # Each block closes at the first document end that fills it.
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            inner = ends[(ends > lo) & (ends < hi)]
            assert np.all(inner - lo < _BLOCK_TOKENS)
        assert _block_bounds([0, 0]) == [0]

    def test_chunks_hold_whole_blocks(self, monkeypatch):
        lengths = np.random.default_rng(14).integers(0, 90, size=400)
        bounds = _block_bounds(lengths.tolist())
        for budget in (1, 100, 1000, _CHUNK_TOKENS):
            monkeypatch.setattr(sgns, "_CHUNK_TOKENS", budget)
            chunks = _chunk_blocks(bounds)
            # Consecutive chunks share their cut and list every bound once.
            assert [c[0] for c in chunks[1:]] == [c[-1] for c in chunks[:-1]]
            assert np.concatenate([chunks[0]] + [c[1:] for c in chunks[1:]]).tolist() == bounds
            for chunk, following in zip(chunks, chunks[1:]):
                # A chunk closes at its last block end within the budget.
                assert chunk[-1] - chunk[0] <= budget or len(chunk) == 2
                assert following[1] - chunk[0] > budget
        assert len(chunks) == 1
        assert _chunk_blocks([0]) == []

    def test_window_pairs_are_the_in_document_windows(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            m = int(rng.integers(1, 30))
            doc_of = np.sort(rng.integers(0, 6, size=m))
            widths = rng.integers(1, 5, size=m)
            centers, contexts = _window_pairs(doc_of, widths)
            want = [
                (i, j)
                for i in range(m)
                for j in range(m)
                if i != j and doc_of[i] == doc_of[j] and abs(i - j) <= widths[i]
            ]
            assert list(zip(centers.tolist(), contexts.tolist())) == want

    def test_training_pairs_never_join_two_documents(self, monkeypatch):
        # 3-token documents of private words, with windows wider than a
        # document: a pair of words from two documents would be a crossing.
        corpus = Corpus(tuple((f"a{i}", f"b{i}", f"c{i}") for i in range(60)))
        config = SgnsConfig(dim=4, window=5, negatives=2, epochs=2, initial_lr=0.05,
                            subsample_t=1.0, min_count=1, seed=3)
        blocks = []
        kernel = sgns._step_blocks

        def recording(table, step, words, centers, contexts, negatives, lr, bounds):
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                inside = (lo <= centers) & (centers < hi)
                blocks.append((words[lo:hi], centers[inside] - lo, contexts[inside] - lo))
            kernel(table, step, words, centers, contexts, negatives, lr, bounds)

        monkeypatch.setattr(sgns, "_step_blocks", recording)
        space = train(corpus, config)
        doc = np.array([int(w[1:]) for w in space.vocab.words])
        assert len(blocks) == 2 * math.ceil(180 / (3 * math.ceil(_BLOCK_TOKENS / 3)))
        for words, centers, contexts in blocks:
            assert np.all((0 <= contexts) & (contexts < len(words)))
            assert np.all(doc[words[centers]] == doc[words[contexts]])
            # Every block holds all three words of each document it touches.
            assert set(np.unique(doc[words], return_counts=True)[1].tolist()) == {3}
        assert sum(len(words) for words, _, _ in blocks) == 2 * 180

    def test_long_documents_train_as_their_cut_pieces(self):
        # A document longer than a block is cut into documents of
        # _BLOCK_TOKENS in-vocabulary tokens before anything is drawn.
        corpus, _, _ = two_topic_corpus(docs=12, doc_len=30, seed=5)
        tokens = tuple(t for doc in corpus.documents for t in doc)
        pieces = tuple(
            tokens[i : i + _BLOCK_TOKENS] for i in range(0, len(tokens), _BLOCK_TOKENS)
        )
        assert len(pieces) > 4 and len(pieces[-1]) < _BLOCK_TOKENS
        config = SgnsConfig(**{**SMALL.__dict__, "subsample_t": 1e-2})
        whole = train(Corpus((tokens,)), config)
        cut = train(Corpus(pieces), config)
        assert np.array_equal(whole.matrix, cut.matrix)


class TestTrain:
    def test_bit_determinism(self):
        # The second corpus spans several blocks, with subsampling on.
        several_blocks, _, _ = two_topic_corpus(docs=24, doc_len=13, seed=4)
        assert several_blocks.token_count() > 4 * _BLOCK_TOKENS
        subsampled = SgnsConfig(**{**SMALL.__dict__, "subsample_t": 1e-2})
        for corpus, config in ((tiny_corpus(), SMALL), (several_blocks, subsampled)):
            space_1 = train(corpus, config)
            space_2 = train(corpus, config)
            assert space_1.vocab.words == space_2.vocab.words
            assert np.array_equal(space_1.matrix, space_2.matrix)

    def test_one_block_chunks_train_as_the_per_block_trainer(self, monkeypatch):
        # With one block per chunk the stream is consumed block by block, as
        # it was before chunks, and the stacked step trains the same float32
        # bits as the per-block step; the last document is cut into several.
        monkeypatch.setattr(sgns, "_CHUNK_TOKENS", 1)
        corpus, _, _ = two_topic_corpus(docs=30, doc_len=13, seed=4)
        joined = tuple(t for doc in corpus.documents[:12] for t in doc)
        corpus = Corpus(corpus.documents + (joined,))
        for changes in (
            {"subsample_t": 1e-2},
            {"dynamic_window": False, "epochs": 3, "dim": 5},
        ):
            config = SgnsConfig(**{**SMALL.__dict__, **changes})
            want = train_per_block_oracle(corpus, config, np.float32)
            got = train(corpus, config).matrix
            assert want.dtype == np.float32 and got.dtype == np.float64
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("resample", ["fixed", "bootstrapped"])
    def test_whole_array_set_up_trains_as_the_per_token_set_up(self, monkeypatch, resample):
        # Documents of 0, 1, 63, 64, 65, 128 and 129 in-vocabulary tokens,
        # with out-of-vocabulary tokens (each seen once, under min_count) at
        # the start, on both sides of every piece cut and at the end, and
        # documents with no in-vocabulary token at all; bootstrapped, the
        # documents repeat.  One block per chunk, so the per-block oracle
        # consumes the stream as `train` does.
        monkeypatch.setattr(sgns, "_CHUNK_TOKENS", 1)
        rng = np.random.default_rng(23)
        unseen = (f"x{i}" for i in range(10**6))
        documents = [(), (next(unseen),), (next(unseen), next(unseen))]
        for n in (0, 1, 63, 64, 65, 128, 129):
            doc = []
            for i, word in enumerate(rng.integers(0, 9, size=n).tolist()):
                if i % _BLOCK_TOKENS in (0, _BLOCK_TOKENS - 1):
                    doc.append(next(unseen))
                doc.append(f"w{word}")
            documents.insert(int(rng.integers(len(documents) + 1)), (*doc, next(unseen)))
        corpus = sample(Corpus(tuple(documents)), SamplingMode(resample, 4))
        assert (len(set(corpus.documents)) < len(corpus)) == (resample == "bootstrapped")
        for changes in ({}, {"subsample_t": 1e-2, "dynamic_window": False, "epochs": 1}):
            config = SgnsConfig(**{**SMALL.__dict__, "min_count": 2, **changes})
            want = train_per_block_oracle(corpus, config, np.float32)
            assert np.array_equal(train(corpus, config).matrix, want)

    def test_seed_changes_the_result(self):
        corpus = tiny_corpus()
        space_1 = train(corpus, SMALL)
        space_2 = train(corpus, SgnsConfig(**{**SMALL.__dict__, "seed": 1}))
        assert not np.allclose(space_1.matrix, space_2.matrix)

    def test_zero_epochs_returns_the_seeded_initialization(self):
        # The float64 draw rounded to the float32 table, returned as float64.
        corpus = tiny_corpus()
        config = SgnsConfig(**{**SMALL.__dict__, "epochs": 0})
        space = train(corpus, config)
        v, d = len(space.vocab), config.dim
        want = np.random.default_rng(config.seed).uniform(
            -0.5 / d, 0.5 / d, size=(v, d)
        )
        assert space.matrix.dtype == np.float64
        assert np.array_equal(space.matrix, want.astype(np.float32))
        assert not np.array_equal(space.matrix, want)

    def test_frequencies_and_order(self):
        space = train(tiny_corpus(), SMALL)
        assert space.vocab.words == ("a", "b", "c")
        assert space.vocab.frequency == {"a": 4, "b": 3, "c": 2}
        assert not space.normalized
        assert space.dim == 8

    def test_min_count_drops_rare_words(self):
        config = SgnsConfig(**{**SMALL.__dict__, "min_count": 3})
        space = train(tiny_corpus(), config)
        assert space.vocab.words == ("a", "b")

    def test_static_window_differs_from_dynamic(self):
        corpus = tiny_corpus()
        static = SgnsConfig(**{**SMALL.__dict__, "dynamic_window": False})
        space_dynamic = train(corpus, SMALL)
        space_static = train(corpus, static)
        assert not np.allclose(space_dynamic.matrix, space_static.matrix)

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        """Trained bytes are the same with one and with two BLAS threads.

        Each setting trains in its own interpreter, since BLAS reads its
        thread count at load time; no process starts more than two threads.
        A blocked matrix product may split its sums by thread and round them
        differently, which a step built on one would show here.  On a
        machine with one processor a second BLAS thread does not change how
        sums are split, so there the test passes without testing anything.
        """
        hashes = [
            subprocess.run(
                [sys.executable, "-c", _THREAD_PROBE],
                env={
                    **os.environ,
                    "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                    **{var: threads for var in _BLAS_THREAD_VARS},
                },
                capture_output=True,
                text=True,
                check=True,
                timeout=300,
            ).stdout.split()
            for threads in ("1", "2")
        ]
        assert len(hashes[0]) == 2
        assert hashes[0] == hashes[1]

    def test_two_topic_corpus_separates(self):
        corpus, topic_a, topic_b = two_topic_corpus(docs=200, doc_len=30, seed=7)
        config = SgnsConfig(dim=16, window=4, negatives=4, epochs=3,
                            initial_lr=0.05, subsample_t=1.0, min_count=1,
                            seed=8)
        space = normalize(train(corpus, config))

        def mean_cosine(words_x, words_y):
            mx = np.array([space.vector(w) for w in words_x])
            my = np.array([space.vector(w) for w in words_y])
            sims = mx @ my.T
            if words_x is words_y:
                off_diagonal = ~np.eye(len(words_x), dtype=bool)
                return float(sims[off_diagonal].mean())
            return float(sims.mean())

        within_a = mean_cosine(topic_a, topic_a)
        within_b = mean_cosine(topic_b, topic_b)
        across = mean_cosine(topic_a, topic_b)
        assert within_a > across + 0.2
        assert within_b > across + 0.2
