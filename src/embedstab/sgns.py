"""Minimal deterministic skip-gram negative-sampling trainer.

Trains word vectors by sliding a window over each document: every (center,
context) pair pushes the center's input vector toward the context's output
vector while sampled noise words are pushed away.  The trainer exists so
that run sets can be produced at desk scale under controlled seeds — it is
single-threaded and bit-deterministic given (corpus, config), which the
full-scale reference implementations are not.

Each step covers a block of whole documents of about `_BLOCK_TOKENS` tokens
("HogBatch", Ji et al., arXiv:1604.04661): its gradients are all evaluated
at the block's incoming vectors, so they are stale within the block.  Each
center's k noise words are shared by its window and weighted by its context
count, so the expected gradient is that of k noise words per pair.  All
random choices come from one PCG64 stream consumed in a fixed order: the
initialization, then per block the subsampling, the window widths, the
noise words and the clash redraws.

The step is written in NumPy plus one `scipy.sparse` product per block,
imported on first use.  It uses no BLAS call: a dense matrix product may
split its sums across BLAS threads and round them differently, while the
sparse product adds the terms one by one on a single thread.  So the
trained bits do not depend on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections import Counter

import numpy as np

from .corpus import Corpus
from .space import EmbeddingSpace, Vocabulary

__all__ = [
    "SgnsConfig",
    "build_vocab",
    "subsample_probability",
    "noise_distribution",
    "train",
]

_LR_FLOOR_FACTOR = 1e-4
_SIGMOID_CLAMP = 6.0
_BLOCK_TOKENS = 64


@dataclass(frozen=True)
class SgnsConfig:
    dim: int = 300
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    initial_lr: float = 0.025
    subsample_t: float = 1e-5
    min_count: int = 5
    seed: int = 0
    dynamic_window: bool = True

    def __post_init__(self) -> None:
        for name in ("dim", "window", "negatives", "min_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0.0 < self.initial_lr < math.inf:
            raise ValueError(f"initial_lr must be finite and > 0, got {self.initial_lr}")
        if not 0.0 < self.subsample_t <= 1.0:
            raise ValueError(f"subsample_t must be in (0, 1], got {self.subsample_t}")


def build_vocab(corpus: Corpus, min_count: int) -> Vocabulary:
    """Words with at least `min_count` occurrences, most frequent first.

    Ties in count are broken lexicographically so the order is stable.
    """
    counts = Counter(tok for doc in corpus.documents for tok in doc)
    kept = sorted(
        (w for w, c in counts.items() if c >= min_count),
        key=lambda w: (-counts[w], w),
    )
    if not kept:
        raise ValueError(f"no word reaches min_count={min_count}")
    return Vocabulary(tuple(kept), {w: counts[w] for w in kept})


def subsample_probability(freq: float, t: float) -> float:
    """Probability of discarding a token of relative frequency `freq`."""
    if freq <= 0.0 or freq > 1.0:
        raise ValueError(f"relative frequency must be in (0, 1], got {freq}")
    if freq <= t:
        return 0.0
    return 1.0 - math.sqrt(t / freq)


def noise_distribution(vocab: Vocabulary) -> np.ndarray:
    """Noise probabilities proportional to count^(3/4)."""
    if vocab.frequency is None:
        raise ValueError("vocabulary carries no frequencies")
    weights = np.array([vocab.frequency[w] for w in vocab.words], dtype=float) ** 0.75
    return weights / weights.sum()


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -_SIGMOID_CLAMP, _SIGMOID_CLAMP)))


def _block_bounds(lengths: list[int]) -> list[int]:
    """Token offsets that cut the documents into blocks of whole documents.

    A block closes at the first document end that brings it to at least
    `_BLOCK_TOKENS` tokens, so a longer document is a block of its own.
    """
    ends = np.cumsum(lengths, dtype=np.intp).tolist()
    bounds = [0]
    for end in ends:
        if end - bounds[-1] >= _BLOCK_TOKENS:
            bounds.append(end)
    if ends and ends[-1] > bounds[-1]:
        bounds.append(ends[-1])
    return bounds


def _window_pairs(doc_of: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, ...]:
    """(center, context) position pairs of a block, sorted by center.

    `doc_of` gives each position's document and is non-decreasing; position
    i pairs with every other position of its document within widths[i].
    """
    positions = np.arange(len(doc_of))
    first = np.searchsorted(doc_of, doc_of, side="left")
    stop = np.searchsorted(doc_of, doc_of, side="right")
    lo = np.maximum(first, positions - widths)
    span = np.minimum(stop, positions + widths + 1) - lo
    centers = np.repeat(positions, span)
    contexts = np.arange(int(span.sum())) - np.repeat(np.cumsum(span) - span - lo, span)
    keep = contexts != centers
    return centers[keep], contexts[keep]


def _shared_negatives(
    noise_cdf: np.ndarray,
    words: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k noise words per position, shared by all the pairs of its window.

    A draw equal to any context word of the window is redrawn once, and the
    redraw is kept whatever it is.
    """
    negatives = np.searchsorted(noise_cdf, rng.random((len(words), k)), side="right")
    hit = negatives[centers] == words[contexts][:, None]
    slots = (centers[:, None] * k + np.arange(k))[hit]
    clash = np.bincount(slots, minlength=negatives.size).reshape(negatives.shape) > 0
    redraws = rng.random(int(clash.sum()))
    negatives[clash] = np.searchsorted(noise_cdf, redraws, side="right")
    return negatives


def _block_update(
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    words: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    lr: np.ndarray,
) -> None:
    """One SGD ascent step on a block's objective, in place.

    Position i holds word words[i], rate lr[i] and noise words negatives[i].
    The objective sums lr[c] log sigma(in[c] . out[o]) over the position
    pairs (c, o) and lr[i] n_i log sigma(-in[i] . out[n]) over the noise
    words n of each position i with n_i pairs.  Gradients are evaluated at
    the incoming vectors; the contributions to a recurring row are summed.

    The block's distinct input rows U and output rows W are stacked into
    X = [in[U]; out[W]].  Each pair and noise draw is a term joining one row
    of U with one row of W, with the loss-gradient coefficient rate *
    (sigma(score) - label), label 1 for a pair and 0 for a noise draw.  The
    coefficients summed per (U, W) row pair form C, and the whole step is
    X -= M X with M = [[0, C], [C^T, 0]]: the top rows of M X are C out[W]
    and the bottom rows C^T in[U].  M is kept as COO: its product adds the
    terms one by one in their given order, with no sort or merge of the
    terms that share a row pair.
    """
    from scipy.sparse import coo_array
    m, k = negatives.shape
    v, p = len(input_vectors), len(centers)
    # Input word w is stacked row w and output word w is row v + w, so one
    # np.unique numbers both sides, the input rows first.
    rows, at = np.unique(
        np.concatenate((words, v + words[contexts], v + negatives.ravel())),
        return_inverse=True,
    )
    n_in = int(np.searchsorted(rows, v))
    in_rows, out_rows = rows[:n_in], rows[n_in:] - v
    stacked = np.concatenate((input_vectors[in_rows], output_vectors[out_rows]))
    # Term t joins stacked rows a[t] and b[t]: the pairs, then the k noise
    # draws of each position, which are weighted by its pair count.
    a = np.concatenate((at[centers], np.repeat(at[:m], k)))
    b = at[m:]
    coef = _sigmoid(np.einsum("td,td->t", stacked[a], stacked[b]))
    coef[:p] -= 1.0
    coef *= np.concatenate((lr[centers], np.repeat(lr * np.bincount(centers, minlength=m), k)))
    n = len(rows)
    step = coo_array(
        (np.concatenate((coef, coef)), (np.concatenate((a, b)), np.concatenate((b, a)))),
        shape=(n, n),
    ) @ stacked
    input_vectors[in_rows] -= step[:n_in]
    output_vectors[out_rows] -= step[n_in:]


def train(corpus: Corpus, config: SgnsConfig) -> EmbeddingSpace:
    """Train an embedding space; deterministic for a given (corpus, config).

    The learning rate decays linearly over all epochs x in-vocabulary token
    occurrences (counted before subsampling, one rate per token) down to a
    floor of initial_lr * 1e-4.  Documents longer than `_BLOCK_TOKENS`
    in-vocabulary tokens are cut into documents of that length, as word2vec
    cuts long lines into sentences.  Subsampling drops frequent tokens per
    occurrence per epoch before windows are formed, so windows reach across
    dropped tokens, never across documents.  Each block of whole documents
    takes one SGD step covering all its window pairs, evaluated at its
    incoming vectors, with each center's k noise words shared by its window.
    The returned space holds the input vectors, unnormalized, with corpus
    frequencies attached.  A run whose input vectors are not all finite at
    the end of an epoch has diverged and raises FloatingPointError there.
    """
    vocab = build_vocab(corpus, config.min_count)
    v, d = len(vocab.words), config.dim
    rng = np.random.default_rng(config.seed)
    input_vectors = rng.uniform(-0.5 / d, 0.5 / d, size=(v, d))
    output_vectors = np.zeros((v, d))
    noise_cdf = np.cumsum(noise_distribution(vocab))
    noise_cdf[-1] = 1.0

    index = vocab.index
    counts = np.array([vocab.frequency[w] for w in vocab.words], dtype=float)
    total_tokens = counts.sum()
    discard = np.array(
        [subsample_probability(c / total_tokens, config.subsample_t) for c in counts]
    )
    docs = [[index[t] for t in doc if t in index] for doc in corpus.documents]
    # One stale step over a whole long document would blur what it teaches.
    docs = [
        doc[i : i + _BLOCK_TOKENS]
        for doc in docs
        for i in range(0, len(doc), _BLOCK_TOKENS)
    ]
    lengths = [len(doc) for doc in docs]
    tokens = np.array([t for doc in docs for t in doc], dtype=np.intp)
    doc_of = np.repeat(np.arange(len(docs)), lengths)
    bounds = _block_bounds(lengths)
    total_steps = config.epochs * len(tokens)

    for epoch in range(config.epochs):
        for start, stop in zip(bounds[:-1], bounds[1:]):
            draws = rng.random(stop - start)
            kept = start + np.flatnonzero(draws >= discard[tokens[start:stop]])
            if len(kept) == 0:
                continue
            if config.dynamic_window:
                widths = rng.integers(1, config.window + 1, size=len(kept))
            else:
                widths = np.full(len(kept), config.window)
            words = tokens[kept]
            centers, contexts = _window_pairs(doc_of[kept], widths)
            negatives = _shared_negatives(
                noise_cdf, words, centers, contexts, config.negatives, rng
            )
            reads = epoch * len(tokens) + kept
            decay = np.maximum(1.0 - reads / total_steps, _LR_FLOOR_FACTOR)
            lr = config.initial_lr * decay
            _block_update(
                input_vectors, output_vectors, words, centers, contexts, negatives, lr
            )
        if not np.all(np.isfinite(input_vectors)):
            raise FloatingPointError(
                f"training diverged: non-finite input vectors after epoch {epoch + 1}"
            )
    return EmbeddingSpace(vocab, input_vectors, normalized=False)
