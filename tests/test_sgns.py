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

from embedstab import (
    Corpus,
    SgnsConfig,
    Vocabulary,
    build_vocab,
    noise_distribution,
    normalize,
    subsample_probability,
    train,
)
from embedstab import sgns
from embedstab.sgns import (
    _BLOCK_TOKENS,
    _LR_FLOOR_FACTOR,
    _block_bounds,
    _block_update,
    _shared_negatives,
    _sigmoid,
    _window_pairs,
)

from helpers import (
    block_objective,
    block_update_oracle,
    finite_difference_gradients,
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
        with pytest.raises(ValueError, match="initial_lr"):
            SgnsConfig(initial_lr=0.0)
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
        _block_update(stepped_in, stepped_out, words, centers, contexts, negatives, lr)

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
        _block_update(input_vectors, output_vectors, *block, np.full(5, 0.05))
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
        _block_update(stepped_in, stepped_out, words, centers, contexts, negatives, lr)

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


class TestStepOracle:
    """The sparse-product step against the gather/scatter oracle."""

    @settings(max_examples=150)
    @given(step_blocks())
    # Word 2 at positions 0 and 2, word 3 at 1 and 3; position 0 draws its
    # context word 3 twice, position 2 its own word 2 twice.
    @example((5, 3, 1, [2, 3, 2, 3, 1], [0, 0, 0, 1, 1], [1, 2, 1, 1, 1],
              [[3, 3], [2, 4], [2, 2], [0, 3], [1, 0]], [0.5, 0.02, 1.0, 0.3, 0.7]))
    # One position, so no pairs: the noise draws carry weight 0.
    @example((3, 4, 2, [1], [0], [2], [[1, 0, 1]], [0.4]))
    # Every rate at the floor.
    @example((4, 5, 3, [0, 1, 0, 2], [0, 0, 0, 0], [2, 2, 2, 2],
              [[0, 1], [1, 3], [3, 3], [2, 0]], [FLOOR_RATE] * 4))
    def test_matches_the_gather_scatter_oracle(self, block):
        v, d, seed, words, doc_of, widths, negatives, lr = block
        rng = np.random.default_rng(seed)
        input_vectors = rng.normal(0.0, 0.6, (v, d))
        output_vectors = rng.normal(0.0, 0.6, (v, d))
        words = np.array(words)
        centers, contexts = _window_pairs(np.array(doc_of), np.array(widths))
        args = (words, centers, contexts, np.array(negatives), np.array(lr))
        stepped_in, stepped_out = input_vectors.copy(), output_vectors.copy()
        _block_update(stepped_in, stepped_out, *args)
        want_in, want_out = input_vectors.copy(), output_vectors.copy()
        block_update_oracle(want_in, want_out, *args)
        # 1e-12 of the largest step, plus one rounding of the stored value.
        for before, got, want in (
            (input_vectors, stepped_in, want_in),
            (output_vectors, stepped_out, want_out),
        ):
            bound = 1e-12 * np.abs(want - before).max() + np.spacing(np.abs(before))
            assert np.all(np.abs(got - want) <= bound)


class TestSgnsStep:
    """The pieces of one block step, as `train` runs them."""

    def test_updates_in_place_and_touches_only_block_rows(self):
        rng = np.random.default_rng(2)
        input_vectors = 0.1 * rng.normal(size=(6, 3))
        output_vectors = 0.1 * rng.normal(size=(6, 3))
        before_in, before_out = input_vectors.copy(), output_vectors.copy()
        centers, contexts = _window_pairs(np.zeros(3, dtype=np.intp), np.ones(3, dtype=np.intp))
        result = _block_update(
            input_vectors, output_vectors, np.array([0, 1, 2]), centers, contexts,
            np.array([[3], [3], [4]]), np.full(3, 0.1),
        )
        assert result is None
        moved_in = np.flatnonzero(np.any(input_vectors != before_in, axis=1))
        moved_out = np.flatnonzero(np.any(output_vectors != before_out, axis=1))
        assert moved_in.tolist() == [0, 1, 2]
        assert moved_out.tolist() == [0, 1, 2, 3, 4]

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
        negs = _shared_negatives(cdf, words, centers, contexts, 2000, np.random.default_rng(6))
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
        calls = []
        kernel = sgns._block_update

        def recording(input_vectors, output_vectors, words, centers, contexts, *rest):
            calls.append((words.copy(), centers.copy(), contexts.copy()))
            kernel(input_vectors, output_vectors, words, centers, contexts, *rest)

        monkeypatch.setattr(sgns, "_block_update", recording)
        space = train(corpus, config)
        doc = np.array([int(w[1:]) for w in space.vocab.words])
        assert len(calls) == 2 * math.ceil(180 / (3 * math.ceil(_BLOCK_TOKENS / 3)))
        for words, centers, contexts in calls:
            assert np.all(doc[words[centers]] == doc[words[contexts]])
            # Every block holds all three words of each document it touches.
            assert set(np.unique(doc[words], return_counts=True)[1].tolist()) == {3}
        assert sum(len(words) for words, _, _ in calls) == 2 * 180

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

    def test_seed_changes_the_result(self):
        corpus = tiny_corpus()
        space_1 = train(corpus, SMALL)
        space_2 = train(corpus, SgnsConfig(**{**SMALL.__dict__, "seed": 1}))
        assert not np.allclose(space_1.matrix, space_2.matrix)

    def test_zero_epochs_returns_the_seeded_initialization(self):
        corpus = tiny_corpus()
        config = SgnsConfig(**{**SMALL.__dict__, "epochs": 0})
        space = train(corpus, config)
        v, d = len(space.vocab), config.dim
        want = np.random.default_rng(config.seed).uniform(
            -0.5 / d, 0.5 / d, size=(v, d)
        )
        assert np.array_equal(space.matrix, want)

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
