"""Orthogonal alignment of embedding spaces and aligned averaging.

Independently trained spaces agree only up to an orthogonal transform, so
they are compared and combined by first solving the orthogonal Procrustes
problem on their joint vocabulary.  Averaging a space with its aligned
partner cancels part of the run-to-run noise; repeating the construction
over many runs in a binary tree yields progressively more stable spaces.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import _pair_moments
from .space import (
    EmbeddingSpace, RunSet, Vocabulary, _positions, _row_dots, _word_rows, joint_vocabulary,
    normalize, restrict,
)

__all__ = [
    "AlignmentResult",
    "procrustes",
    "aligned_average_pair",
    "aligned_average_tree",
    "bias_variance_report",
    "sample_word_pairs",
]


@dataclass(frozen=True)
class AlignmentResult:
    """Orthogonal map `rotation` taking the first space onto the second."""

    rotation: np.ndarray
    residual: float
    joint_vocab: Vocabulary

    def __post_init__(self) -> None:
        self.rotation.setflags(write=False)


def _joint_rows(
    space_a: EmbeddingSpace, space_b: EmbeddingSpace
) -> tuple[Vocabulary, np.ndarray, np.ndarray]:
    joint = joint_vocabulary([space_a, space_b])
    return joint, _word_rows(space_a, joint.words), _word_rows(space_b, joint.words)


def _solve_rotation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Orthogonal matrix minimizing ||a R - b||_F (reflections permitted)."""
    u, _, wt = np.linalg.svd(a.T @ b)
    return u @ wt


def _require_normalized(space: EmbeddingSpace, name: str) -> None:
    if not space.normalized:
        raise ValueError(f"{name} must be normalized for alignment")


def procrustes(space_a: EmbeddingSpace, space_b: EmbeddingSpace) -> AlignmentResult:
    """Best orthogonal map from the first space onto the second.

    Solved over the joint vocabulary's rows; the returned residual is the
    Frobenius norm of the remaining difference on those rows.
    """
    _require_normalized(space_a, "first space")
    _require_normalized(space_b, "second space")
    joint, a, b = _joint_rows(space_a, space_b)
    rotation = _solve_rotation(a, b)
    residual = float(np.linalg.norm(a @ rotation - b))
    return AlignmentResult(rotation, residual, joint)


def _average_pair_raw(
    space_a: EmbeddingSpace, space_b: EmbeddingSpace
) -> EmbeddingSpace:
    """Aligned average without normalization preconditions (tree internal)."""
    joint, a, b = _joint_rows(space_a, space_b)
    rotation = _solve_rotation(a, b)
    # The second space is the fixed frame: its words keep their order and,
    # outside the joint vocabulary, their original rows; words only in the
    # first space are appended with their rows rotated into the frame, each
    # as a one-row product (a plain `rows @ rotation` rounds differently).
    only_a = [w for w in space_a.vocab.words if w not in space_b.vocab]
    matrix = np.empty((len(space_b) + len(only_a), space_b.dim), dtype=np.float64)
    matrix[: len(space_b)] = space_b.matrix
    matrix[_positions(space_b.vocab, joint.words)] = 0.5 * (a @ rotation + b)
    matrix[len(space_b) :] = (_word_rows(space_a, only_a)[:, None, :] @ rotation)[:, 0, :]
    frequency: dict[str, int] = {}
    for space, words in ((space_b, space_b.vocab.words), (space_a, only_a)):
        if space.vocab.frequency is not None:
            frequency.update((w, space.vocab.frequency[w]) for w in words)
    vocab = Vocabulary(space_b.vocab.words + tuple(only_a), frequency or None)
    return EmbeddingSpace(vocab, matrix, normalized=False)


def aligned_average_pair(
    space_a: EmbeddingSpace, space_b: EmbeddingSpace
) -> EmbeddingSpace:
    """Mean of the first space aligned onto the second and the second itself.

    Joint-vocabulary rows become (a_w R + b_w) / 2 and the result is flagged
    unnormalized (averaged unit rows shrink).  Words found in only one space
    keep a single row: the second space's as-is, the first space's rotated.
    """
    _require_normalized(space_a, "first space")
    _require_normalized(space_b, "second space")
    return _average_pair_raw(space_a, space_b)


def _renormalize_dropping(space: EmbeddingSpace) -> EmbeddingSpace:
    """Rescale rows to unit norm, dropping (with a warning) zero rows."""
    dead = np.linalg.norm(space.matrix, axis=1) == 0.0
    if np.any(dead):
        dropped = [space.vocab.words[i] for i in np.flatnonzero(dead)]
        warnings.warn(
            f"dropping {len(dropped)} zero-norm row(s) during averaging: "
            f"{dropped[:5]}{'...' if len(dropped) > 5 else ''}"
        )
        space = restrict(space, [w for w, d in zip(space.vocab.words, dead) if not d])
    return normalize(space)


def aligned_average_tree(
    spaces: Sequence[EmbeddingSpace],
    *,
    renormalize: bool = True,
    pairing: str = "given",
    seed: int = 0,
) -> EmbeddingSpace:
    """Average many spaces pairwise in a binary tree.

    At each level adjacent spaces are aligned-averaged; an odd space is
    carried up unchanged.  With `renormalize` (the default) every averaged
    space is rescaled to unit rows before the next level, and the final
    space is returned normalized; without it, intermediate averages enter
    the next level's alignment with their raw shrunken rows and the final
    space is returned unnormalized.  `pairing` is "given" (input order) or
    "seeded" (one seeded shuffle of the input order, for variance studies).
    """
    if not spaces:
        raise ValueError("need at least one space")
    if pairing not in ("given", "seeded"):
        raise ValueError(f"pairing must be 'given' or 'seeded', got {pairing!r}")
    level = list(spaces)
    if pairing == "seeded":
        order = np.random.default_rng(seed).permutation(len(level))
        level = [level[i] for i in order]
    if len(level) == 1:
        return level[0]
    while len(level) > 1:
        next_level = []
        for i in range(0, len(level) - 1, 2):
            averaged = _average_pair_raw(level[i], level[i + 1])
            if renormalize:
                averaged = _renormalize_dropping(averaged)
            next_level.append(averaged)
        if len(level) % 2 == 1:
            next_level.append(level[-1])
        level = next_level
    return level[0]


def sample_word_pairs(
    spaces: Sequence[EmbeddingSpace], count: int, seed: int = 0
) -> list[tuple[str, str]]:
    """Seeded distinct word pairs from the joint vocabulary."""
    words = joint_vocabulary(spaces).words
    if len(words) < 2:
        raise ValueError("joint vocabulary must have at least 2 words")
    rng = np.random.default_rng(seed)
    pairs: list[tuple[str, str]] = []
    seen: set[tuple[int, int]] = set()
    limit = len(words) * (len(words) - 1) // 2
    if count > limit:
        raise ValueError(f"only {limit} distinct pairs exist, asked for {count}")
    while len(pairs) < count:
        i, j = rng.integers(0, len(words), size=2)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        pairs.append((words[key[0]], words[key[1]]))
    return pairs


def _pair_cosine_moments(
    runs: RunSet, word_pairs: Sequence[tuple[str, str]]
) -> tuple[float, float]:
    """Mean over word pairs of the across-run (mu, sigma) of the cosine."""
    first, second = zip(*word_pairs)
    samples = np.empty((len(runs), len(word_pairs)))
    for i, space in enumerate(runs.spaces):
        a, b = (_word_rows(space, words, unit=True) for words in (first, second))
        samples[i] = np.clip(_row_dots(a, b), -1.0, 1.0)
    mu, sigma = _pair_moments(samples, unbiased=False)
    return float(mu.mean()), float(sigma.mean())


def bias_variance_report(
    runs: RunSet, averaged: RunSet, word_pairs: Sequence[tuple[str, str]]
) -> tuple[float, float]:
    """(sigma_ratio, mu_ratio) of averaged spaces relative to original runs.

    Cosines are measured on renormalized rows across both run sets for the
    given word pairs.  A sigma ratio below 1 means averaging reduced the
    across-run variance; a mu ratio above 1 means it increased the mean
    pairwise similarity (the bias the averaging construction introduces).
    """
    if len(runs) < 2 or len(averaged) < 2:
        raise ValueError("need at least 2 spaces in each run set")
    if not word_pairs:
        raise ValueError("need at least one word pair")
    mu_orig, sigma_orig = _pair_cosine_moments(runs, word_pairs)
    mu_avg, sigma_avg = _pair_cosine_moments(averaged, word_pairs)
    if sigma_orig == 0.0 or mu_orig == 0.0:
        raise ValueError(
            "original runs have zero mean cosine or zero variance on the "
            "sampled pairs; ratios are undefined"
        )
    return sigma_avg / sigma_orig, mu_avg / mu_orig
