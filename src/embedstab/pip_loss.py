"""Pairwise-inner-product (PIP) losses between normalized embedding spaces.

The PIP matrix of a normalized space is its Gram matrix, whose entries are
exactly the pairwise cosine similarities.  The PIP loss is the Frobenius
distance between two spaces' PIP matrices restricted to a proxy word set;
Gram matrices are invariant under orthogonal transforms, so the loss needs
no alignment to be defined.  The reduced variants rescale the loss into
[0, 1] so values are comparable across proxy sizes.

Every PIP quantity of a run pair comes from one kernel, `_pip_kernel`,
which works on d x d sketches of the two spaces rather than on their
proxy x proxy Gram matrices: O(|proxy| d^2) time and O(|proxy| d) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .align import _solve_rotation
from .space import EmbeddingSpace, _positions, joint_vocabulary
from .gaussian import StabilityProfile

__all__ = [
    "ProxySample",
    "sample_proxy",
    "pip_loss",
    "reduced_pip_loss",
    "wordwise_reduced_pip_loss",
    "expected_wordwise_pip",
    "chi_relative_width",
]

DEFAULT_PROXY_SIZE = 20_000


@dataclass(frozen=True)
class ProxySample:
    """A fixed word subset over which PIP losses are evaluated."""

    words: tuple[str, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("proxy must contain at least one word")
        if len(set(self.words)) != len(self.words):
            raise ValueError("proxy contains duplicate words")

    def __len__(self) -> int:
        return len(self.words)


def sample_proxy(
    spaces: Sequence[EmbeddingSpace],
    size: int = DEFAULT_PROXY_SIZE,
    seed: int = 0,
) -> ProxySample:
    """Seeded without-replacement proxy drawn from the joint vocabulary.

    When the joint vocabulary has at most `size` words the whole vocabulary
    is used.  Selected words keep the joint vocabulary's order, so the
    sample is stable under vocabulary reordering of later spaces.
    """
    if size < 1:
        raise ValueError(f"proxy size must be >= 1, got {size}")
    joint = joint_vocabulary(spaces).words
    if len(joint) <= size:
        return ProxySample(joint, seed)
    rng = np.random.default_rng(seed)
    picks = np.sort(rng.choice(len(joint), size=size, replace=False))
    return ProxySample(tuple(joint[i] for i in picks), seed)


def _rows(
    space: EmbeddingSpace, proxy: ProxySample, words: Sequence[str], name: str
) -> tuple[np.ndarray, np.ndarray]:
    """The proxy rows and the word rows of one normalized space."""
    if not space.normalized:
        raise ValueError(
            f"{name} is not normalized; PIP entries are cosines only for "
            "unit rows, so normalize explicitly first"
        )
    return tuple(space.matrix[_positions(space.vocab, w)] for w in (proxy.words, words))


def _pip_kernel(
    a: np.ndarray, words_a: np.ndarray, b: np.ndarray, words_b: np.ndarray
) -> tuple[float, np.ndarray]:
    """Squared PIP loss ||A A^T - B B^T||_F^2 over the proxy rows A and B, and
    the norm ||a A^T - b B^T|| of each word's rows (a, b).

    Both are invariant under an orthogonal map of B with its word rows, so B
    is first rotated onto A.  With D = A - B and S = A + B, the Gram matrix of
    [D S] holds D^T D, D^T S and S^T S, and

        ||A A^T - B B^T||^2 = (<S^T S, D^T D> + tr((D^T S)^2)) / 2,
        a A^T - b B^T = ((a - b) S^T + (a + b) D^T) / 2.

    Alignment makes this stable: D is then as small as the loss and
    D^T S = A^T A - B^T B is symmetric, so no terms cancel.  One
    Newton-Schulz step makes the rotation orthogonal within rounding, as any
    error in R R^T = I enters the loss divided by its size.  Identical proxy
    rows skip the rotation and score exactly zero.
    """
    if not np.array_equal(a, b):
        rotation = _solve_rotation(b, a)
        rotation = 1.5 * rotation - 0.5 * (rotation @ rotation.T) @ rotation
        b, words_b = b @ rotation, words_b @ rotation
    d = a.shape[1]
    halves = np.hstack((a - b, a + b))
    gram = halves.T @ halves
    dtd, dts, sts = gram[:d, :d], gram[:d, d:], gram[d:, d:]
    squared = 0.5 * float(np.einsum("ij,ij->", sts, dtd) + np.einsum("ij,ji->", dts, dts))
    u, v = words_a - words_b, words_a + words_b
    forms = (
        np.einsum("ij,ij->i", u @ sts, u)
        + 2.0 * np.einsum("ij,ij->i", u @ dts.T, v)
        + np.einsum("ij,ij->i", v @ dtd, v)
    )
    # Rounding may leave a sum of non-negative terms a few ulps below zero.
    return max(squared, 0.0), 0.5 * np.sqrt(np.maximum(forms, 0.0))


def _pair_rows(
    space_a: EmbeddingSpace,
    space_b: EmbeddingSpace,
    proxy: ProxySample,
    words: Sequence[str] = (),
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`_pip_kernel` arguments of one pair of spaces."""
    return (*_rows(space_a, proxy, words, "first space"),
            *_rows(space_b, proxy, words, "second space"))


def _pair_losses(
    a: np.ndarray, words_a: np.ndarray, b: np.ndarray, words_b: np.ndarray
) -> tuple[float, np.ndarray]:
    """Reduced PIP loss of one pair of proxy row sets and the word-wise
    reduced PIP loss of each word row, from one kernel call."""
    squared, norms = _pip_kernel(a, words_a, b, words_b)
    size = a.shape[0]
    return math.sqrt(squared) / (2.0 * size), norms / (2.0 * math.sqrt(size))


def pip_loss(
    space_a: EmbeddingSpace, space_b: EmbeddingSpace, proxy: ProxySample
) -> float:
    """Frobenius norm of the difference of the proxy-restricted PIP matrices."""
    return math.sqrt(_pip_kernel(*_pair_rows(space_a, space_b, proxy))[0])


def reduced_pip_loss(
    space_a: EmbeddingSpace, space_b: EmbeddingSpace, proxy: ProxySample
) -> float:
    """PIP loss rescaled by 1/(2 |proxy|) into [0, 1]."""
    return _pair_losses(*_pair_rows(space_a, space_b, proxy))[0]


def wordwise_reduced_pip_loss(
    word: str,
    space_a: EmbeddingSpace,
    space_b: EmbeddingSpace,
    proxy: ProxySample,
) -> float:
    """One word's share of the reduced PIP loss, rescaled by 1/(2 sqrt(|proxy|)).

    Compares the word's cosine profile against the proxy words between the
    two spaces; the word itself may appear in the proxy and contributes 0.
    Each call builds the whole O(|proxy| d^2) pair sketch, however few words
    it scores, so a loop over words repeats that work per word.  To score
    many words of one pair, pass all of them in one call, as
    `frequency_profile` and `embedstab instability --words` do.
    """
    return float(_pair_losses(*_pair_rows(space_a, space_b, proxy, [word]))[1][0])


def expected_wordwise_pip(profile: StabilityProfile) -> float:
    """Predicted mean word-wise reduced PIP loss from a stability profile.

    Under the Gaussian pair model the expected loss depends only on the
    pair standard deviations: sqrt(sum(sigma^2) / (2 N)) over the profile's
    N entries (the proxy vocabulary).
    """
    sigmas = np.array([e.sigma for e in profile.entries])
    return math.sqrt(float(sigmas @ sigmas) / (2.0 * len(sigmas)))


def chi_relative_width(v: int) -> float:
    """Relative width sigma/mu of the chi distribution with v degrees of freedom.

    The norm of a v-dimensional standard Gaussian vector follows this
    distribution; its relative width shrinks as 1/sqrt(v), which is why
    PIP-type losses concentrate for large proxy vocabularies.  mu and sigma
    come from the gamma function evaluated in log space, so large v does
    not overflow.
    """
    if v < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {v}")
    mu = math.sqrt(2.0) * math.exp(math.lgamma((v + 1) / 2.0) - math.lgamma(v / 2.0))
    variance = v - mu * mu
    if variance < 0.0:  # cancellation guard for very large v
        variance = 0.0
    return math.sqrt(variance) / mu
