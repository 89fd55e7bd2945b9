"""Minimal deterministic skip-gram negative-sampling trainer.

Trains word vectors by sliding a window over each document: every (center,
context) pair pushes the center's input vector toward the context's output
vector while k sampled noise words are pushed away.  The trainer exists so
that run sets can be produced at desk scale under controlled seeds — it is
single-threaded and bit-deterministic given (corpus, config), which the
full-scale reference implementations are not.

All random choices (initialization, subsampling, window widths, noise
draws) come from one PCG64 stream consumed in a fixed order.
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
    "TrainingState",
    "build_vocab",
    "subsample_probability",
    "noise_distribution",
    "sgns_step",
    "train",
]

_LR_FLOOR_FACTOR = 1e-4
_SIGMOID_CLAMP = 6.0


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
        if self.initial_lr <= 0.0:
            raise ValueError(f"initial_lr must be > 0, got {self.initial_lr}")
        if not 0.0 < self.subsample_t <= 1.0:
            raise ValueError(f"subsample_t must be in (0, 1], got {self.subsample_t}")


@dataclass
class TrainingState:
    """Mutable training buffers: input/output vectors and the noise CDF."""

    input_vectors: np.ndarray
    output_vectors: np.ndarray
    noise_cdf: np.ndarray

    def __post_init__(self) -> None:
        if self.input_vectors.shape != self.output_vectors.shape:
            raise ValueError("input and output matrices must share shape")
        diffs = np.diff(self.noise_cdf)
        if np.any(diffs < 0.0) or abs(self.noise_cdf[-1] - 1.0) > 1e-12:
            raise ValueError("noise_cdf must be monotone and end at 1")


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


def _pair_objective(
    input_row: np.ndarray, output_rows: np.ndarray, labels: np.ndarray
) -> float:
    """Objective one step ascends: sum of log sigma(+-dot) over the rows.

    `labels` is 1 for the true context row and 0 for noise rows; label-0
    rows contribute log sigma(-dot).
    """
    x = output_rows @ input_row
    signed = np.where(labels == 1, x, -x)
    return float(np.sum(np.log(_sigmoid(signed))))


def _gradient_step(
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    target: int,
    rows: np.ndarray,
    labels: np.ndarray,
    lr: float,
) -> None:
    """One SGD ascent step for (target; context+noise rows), in place.

    All gradients are evaluated at the incoming state: the input update is
    accumulated against the old output rows and vice versa.  `rows` may
    contain duplicates; their gradient contributions accumulate.
    """
    vi = input_vectors[target]
    x = output_vectors[rows] @ vi
    g = lr * (labels - _sigmoid(x))
    grad_vi = g @ output_vectors[rows]
    np.add.at(output_vectors, rows, np.outer(g, vi))
    input_vectors[target] += grad_vi


def _draw_negatives(
    noise_cdf: np.ndarray, context: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k noise draws; a draw equal to the context is redrawn once, then kept."""
    negs = np.searchsorted(noise_cdf, rng.random(k), side="right")
    clash = negs == context
    if np.any(clash):
        redraw = np.searchsorted(noise_cdf, rng.random(int(clash.sum())), side="right")
        negs[clash] = redraw
    return negs


def sgns_step(
    state: TrainingState,
    target: int,
    context: int,
    lr: float,
    k: int,
    rng: np.random.Generator,
) -> TrainingState:
    """One training step for a single (target, context) pair, in place."""
    v = state.input_vectors.shape[0]
    if not (0 <= target < v and 0 <= context < v):
        raise IndexError(f"word index out of range (vocabulary size {v})")
    if lr < 0.0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    negs = _draw_negatives(state.noise_cdf, context, k, rng)
    rows = np.concatenate(([context], negs))
    labels = np.zeros(1 + k)
    labels[0] = 1.0
    _gradient_step(state.input_vectors, state.output_vectors, target, rows, labels, lr)
    return state


def train(corpus: Corpus, config: SgnsConfig) -> EmbeddingSpace:
    """Train an embedding space; deterministic for a given (corpus, config).

    The learning rate decays linearly over all epochs x in-vocabulary token
    occurrences (counted before subsampling) down to a floor of
    initial_lr * 1e-4.  Subsampling drops frequent tokens per occurrence
    per epoch before windows are formed, so windows reach across dropped
    tokens.  Each center position takes one SGD step covering all its
    window pairs at once.  The returned space holds the input vectors,
    unnormalized, with corpus frequencies attached.  A run whose input
    vectors are not all finite at the end of an epoch has diverged and
    raises FloatingPointError there.
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
    docs = [
        np.array([index[t] for t in doc if t in index], dtype=np.intp)
        for doc in corpus.documents
    ]
    total_steps = config.epochs * int(sum(len(doc) for doc in docs))
    lr0 = config.initial_lr
    lr_floor = lr0 * _LR_FLOOR_FACTOR
    k = config.negatives
    window = config.window
    labels_by_count: dict[int, np.ndarray] = {}

    tokens_seen = 0
    for epoch in range(config.epochs):
        for doc in docs:
            if len(doc) == 0:
                continue
            u = rng.random(len(doc))
            kept_mask = u >= discard[doc]
            read_order = tokens_seen + np.arange(len(doc))
            tokens_seen += len(doc)
            sen = doc[kept_mask]
            reads = read_order[kept_mask]
            if len(sen) < 2:
                continue
            if config.dynamic_window:
                widths = rng.integers(1, window + 1, size=len(sen))
            else:
                widths = np.full(len(sen), window)
            for i in range(len(sen)):
                b = int(widths[i])
                lo = max(0, i - b)
                hi = min(len(sen), i + b + 1)
                n_ctx = hi - lo - 1
                if n_ctx == 0:
                    continue
                contexts = np.concatenate((sen[lo:i], sen[i + 1 : hi]))
                negs = np.searchsorted(
                    noise_cdf, rng.random(n_ctx * k), side="right"
                ).reshape(n_ctx, k)
                clash = negs == contexts[:, None]
                n_clash = int(clash.sum())
                if n_clash:
                    negs[clash] = np.searchsorted(
                        noise_cdf, rng.random(n_clash), side="right"
                    )
                rows = np.concatenate((contexts, negs.ravel()))
                labels = labels_by_count.get(n_ctx)
                if labels is None:
                    labels = np.zeros(n_ctx * (1 + k))
                    labels[:n_ctx] = 1.0
                    labels_by_count[n_ctx] = labels
                lr = max(lr0 * (1.0 - reads[i] / total_steps), lr_floor)
                _gradient_step(
                    input_vectors, output_vectors, int(sen[i]), rows, labels, lr
                )
        if not np.all(np.isfinite(input_vectors)):
            raise FloatingPointError(
                f"training diverged: non-finite input vectors after epoch {epoch + 1}"
            )
    return EmbeddingSpace(vocab, input_vectors, normalized=False)
