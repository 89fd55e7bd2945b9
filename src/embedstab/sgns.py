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
initialization, then per chunk of whole blocks of at most `_CHUNK_TOKENS`
tokens the subsampling of its tokens, the window widths of the kept ones,
their noise words and the clash redraws.  The blocks of a chunk then step
over slices of what was drawn.  A noise word is found from its uniform draw
through a table of 2^16 buckets that gives each bucket's first word, with
`np.searchsorted` only where the bucket start is not the answer; the word is
the search's result exactly.

The input and output vectors are one stacked float32 table, as word2vec
keeps them in single precision: the initialization is drawn in float64 and
rounded, and the scores, coefficients and per-term rates are float32, while
the learning-rate schedule is float64 up to the rates.  `train` returns the
input vectors as float64.  The step is written in NumPy plus scipy's
compiled COO product (`coo_matmat_dense`, the routine `coo_array @ dense`
runs), imported on first use, and computes in its table's dtype.  It uses
no BLAS call: a dense matrix product may split its sums across BLAS threads
and round them differently, while the COO product adds the terms one by one
on a single thread.  So the trained bits do not depend on the BLAS thread
count.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .corpus import Corpus
from .space import EmbeddingSpace, Vocabulary

__all__ = ["SgnsConfig", "train"]

_LR_FLOOR_FACTOR = 1e-4
_SIGMOID_CLAMP = 6.0
_BLOCK_TOKENS = 64
_CHUNK_TOKENS = 1 << 15
_NOISE_BUCKETS = 1 << 16


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
    counts = Counter(chain.from_iterable(corpus.documents))
    kept = sorted(w for w, c in counts.items() if c >= min_count)
    kept.sort(key=counts.__getitem__, reverse=True)  # stable: ties stay sorted
    if not kept:
        raise ValueError(f"no word reaches min_count={min_count}")
    return Vocabulary(tuple(kept), {w: counts[w] for w in kept})


def subsample_probability(freq: np.ndarray, t: float) -> np.ndarray:
    """Probability of discarding a token of each relative frequency `freq`."""
    freq = np.asarray(freq, dtype=float)
    bad = ~((freq > 0.0) & (freq <= 1.0))
    if bad.any():
        raise ValueError(f"relative frequency must be in (0, 1], got {freq[bad].flat[0]}")
    return np.where(freq <= t, 0.0, 1.0 - np.sqrt(t / freq))


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


def _chunk_blocks(bounds: list[int]) -> list[np.ndarray]:
    """The block bounds cut into chunks of whole blocks, each the block
    offsets from its start to its end.

    A chunk closes at the last block end that keeps it within
    `_CHUNK_TOKENS` tokens, so a longer block is a chunk of its own.
    """
    chunks, first = [], 0
    for i in range(1, len(bounds)):
        if bounds[i] - bounds[first] > _CHUNK_TOKENS and i - 1 > first:
            chunks.append(np.array(bounds[first:i]))
            first = i - 1
    if len(bounds) > 1:
        chunks.append(np.array(bounds[first:]))
    return chunks


def _window_pairs(doc_of: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, ...]:
    """(center, context) position pairs, sorted by center.

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


def _noise_buckets(noise_cdf: np.ndarray) -> np.ndarray:
    """For each bucket [k/B, (k+1)/B) of draws, B = `_NOISE_BUCKETS`, the
    number of CDF entries at most k/B: no draw of the bucket maps lower.

    B is a power of two, so cdf * B is exact and ceil(cdf * B) <= k holds
    exactly when cdf <= k/B.
    """
    ceil = np.ceil(noise_cdf * _NOISE_BUCKETS).astype(np.intp)
    return np.cumsum(np.bincount(ceil, minlength=_NOISE_BUCKETS + 1))[:_NOISE_BUCKETS]


def _noise_words(noise_cdf: np.ndarray, buckets: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """`np.searchsorted(noise_cdf, draws, side="right")` for draws in [0, 1).

    A draw starts at its bucket's first word, which is the answer unless the
    CDF entry there is at most the draw; only those draws are searched.
    """
    words = buckets[(draws * _NOISE_BUCKETS).astype(np.intp)]
    past = noise_cdf[words] <= draws
    words[past] = np.searchsorted(noise_cdf, draws[past], side="right")
    return words


def _shared_negatives(
    noise_cdf: np.ndarray,
    buckets: np.ndarray,
    words: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k noise words per position, shared by all the pairs of its window.

    A draw equal to any context word of the window is redrawn once, and the
    redraw is kept whatever it is.  `buckets` is `_noise_buckets(noise_cdf)`.
    """
    negatives = _noise_words(noise_cdf, buckets, rng.random((len(words), k)))
    hit = negatives[centers] == words[contexts][:, None]
    slots = (centers[:, None] * k + np.arange(k))[hit]
    clash = np.bincount(slots, minlength=negatives.size).reshape(negatives.shape) > 0
    redraws = rng.random(int(clash.sum()))
    negatives[clash] = _noise_words(noise_cdf, buckets, redraws)
    return negatives


def _step_blocks(
    table: np.ndarray,
    step: np.ndarray,
    words: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    lr: np.ndarray,
    blocks: np.ndarray,
) -> None:
    """One SGD ascent step per block of a chunk, in place, block after block.

    `table` stacks the input vectors (rows 0..v-1) over the output vectors
    (rows v..2v-1).  Position i holds word words[i], rate lr[i] and noise
    words negatives[i]; block j holds positions blocks[j]:blocks[j + 1], and
    no pair (centers, contexts), sorted by center, joins two blocks.  A
    block's objective sums lr[c] log sigma(in[c] . out[o]) over its pairs
    (c, o) and lr[i] n_i log sigma(-in[i] . out[n]) over the noise words n
    of each position i with n_i pairs.  Gradients are evaluated at the
    block's incoming vectors; the contributions to a recurring row are
    summed.

    Each pair and noise draw is a term joining an input row a with an
    output row b, with the loss-gradient coefficient rate * (sigma(score) -
    label), label 1 for a pair and 0 for a noise draw.  A block's terms are
    its pairs, then the k noise draws of each position, weighted by its pair
    count.  The step adds coef * table[b] to row a, then coef * table[a] to
    row b, term by term in that order, with scipy's compiled COO product
    into `step`, an all-zero buffer of the table's shape; the block's rows
    of the table then move by the step, and their buffer rows are cleared.
    Only the scores, the coefficients, the product and the row update run
    per block; the terms, their rates and each block's distinct rows are
    laid out once per chunk.  Everything but the row numbers is in the
    table's dtype, the rates rounded to it from `lr`.
    """
    from scipy.sparse._sparsetools import coo_matmat_dense
    v, d = len(table) // 2, table.shape[1]
    m, k = negatives.shape
    n = len(centers) + negatives.size
    block_of = np.repeat(np.arange(len(blocks) - 1), np.diff(blocks))
    pairs = np.searchsorted(centers, blocks)  # each block's first pair
    starts = pairs + k * blocks  # each block's first term
    # Pair t of block j is term t + k * blocks[j]: the noise terms of the
    # blocks before it come first.  Noise term t of block j follows all the
    # pairs of blocks 0..j.
    pair_at = np.arange(len(centers)) + k * blocks[block_of[centers]]
    noise_at = np.arange(negatives.size) + np.repeat(pairs[1:][block_of], k)
    a, b = np.empty(n, dtype=np.intp), np.empty(n, dtype=np.intp)
    rate = np.empty(n, dtype=table.dtype)
    a[pair_at], a[noise_at] = words[centers], np.repeat(words, k)
    b[pair_at], b[noise_at] = v + words[contexts], v + negatives.ravel()
    rate[pair_at] = lr[centers]
    rate[noise_at] = np.repeat(lr * np.bincount(centers, minlength=m), k)
    # Each block's distinct rows, from one sort over the chunk.
    span = np.repeat(2 * v * block_of, 2 + k)
    keys = np.sort(span + np.column_stack((words, v + words, v + negatives)).ravel())
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    touched = keys % (2 * v)
    touched_at = np.searchsorted(keys, 2 * v * np.arange(len(blocks)))
    for j in range(len(blocks) - 1):
        lo, hi = starts[j], starts[j + 1]
        ta, tb = a[lo:hi], b[lo:hi]
        coef = _sigmoid(np.einsum("td,td->t", table[ta], table[tb]))
        coef[: pairs[j + 1] - pairs[j]] -= 1.0
        coef *= rate[lo:hi]
        coo_matmat_dense(hi - lo, d, ta, tb, coef, table, step)
        coo_matmat_dense(hi - lo, d, tb, ta, coef, table, step)
        moved = touched[touched_at[j] : touched_at[j + 1]]
        table[moved] -= step[moved]
        step[moved] = 0.0


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
    A chunk's samples are drawn at once, before its first block steps.
    The vectors are trained in float32; the returned space holds the input
    vectors as float64, unnormalized, with corpus frequencies attached.  A
    run whose input vectors are not all finite at the end of an epoch has
    diverged and raises FloatingPointError there.
    """
    vocab = build_vocab(corpus, config.min_count)
    v, d = len(vocab.words), config.dim
    rng = np.random.default_rng(config.seed)
    table = np.zeros((2 * v, d), dtype=np.float32)
    table[:v] = rng.uniform(-0.5 / d, 0.5 / d, size=(v, d))
    step = np.zeros_like(table)
    noise_cdf = np.cumsum(noise_distribution(vocab))
    noise_cdf[-1] = 1.0
    buckets = _noise_buckets(noise_cdf)

    counts = np.fromiter(map(vocab.frequency.__getitem__, vocab.words), dtype=float, count=v)
    discard = subsample_probability(counts / counts.sum(), config.subsample_t)
    # Every token's word, -1 out of the vocabulary; then the in-vocabulary
    # tokens and each document's count of them.
    sizes = np.fromiter(map(len, corpus.documents), dtype=np.intp, count=len(corpus))
    codes = np.fromiter(
        map(vocab.index.get, chain.from_iterable(corpus.documents), repeat(-1)),
        dtype=np.intp,
        count=int(sizes.sum()),
    )
    known = codes >= 0
    tokens = codes[known]
    in_vocab = np.diff(np.concatenate(([0], np.cumsum(known)))[np.cumsum(sizes)], prepend=0)
    # One stale step over a whole long document would blur what it teaches,
    # so a piece starts every `_BLOCK_TOKENS` tokens of a document.
    offsets = np.arange(len(tokens)) - np.repeat(np.cumsum(in_vocab) - in_vocab, in_vocab)
    doc_of = np.cumsum(offsets % _BLOCK_TOKENS == 0) - 1
    lengths = np.bincount(doc_of)
    chunks = _chunk_blocks(_block_bounds(lengths.tolist()))
    total_steps = config.epochs * len(tokens)

    for epoch in range(config.epochs):
        for blocks in chunks:
            start, stop = blocks[0], blocks[-1]
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
                noise_cdf, buckets, words, centers, contexts, config.negatives, rng
            )
            reads = epoch * len(tokens) + kept
            decay = np.maximum(1.0 - reads / total_steps, _LR_FLOOR_FACTOR)
            lr = config.initial_lr * decay
            _step_blocks(
                table, step, words, centers, contexts, negatives, lr,
                np.searchsorted(kept, blocks),
            )
        if not np.all(np.isfinite(table[:v])):
            raise FloatingPointError(
                f"training diverged: non-finite input vectors after epoch {epoch + 1}"
            )
    return EmbeddingSpace(vocab, table[:v].astype(np.float64), normalized=False)
