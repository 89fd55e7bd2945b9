"""Intrinsic and extrinsic instability of repeated embedding runs.

Intrinsic instability is the mean reduced PIP loss over all pairs of runs
trained on reshuffled copies of one corpus: the noise floor of the training
procedure itself.  Extrinsic instability is the additional variation that
appears when the corpus is bootstrapped rather than merely reshuffled,
extracted as sqrt(bootstrapped-pair mean - intrinsic).  Word-level
analogues use the word-wise reduced PIP loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .pip_loss import ProxySample, _pair_losses, _rows
from .space import RunSet, joint_vocabulary
from .stats import spearman

__all__ = [
    "InstabilityReport",
    "intrinsic_instability",
    "extrinsic_instability",
    "wordwise_instability",
    "frequency_profile",
]


@dataclass(frozen=True)
class InstabilityReport:
    """Instability measurements; `extrinsic` is None when undefined.

    `pairs` and `boot_pairs` hold the reduced PIP loss of every run pair of
    each set, in `itertools.combinations` order.  The extrinsic value is
    undefined when the bootstrapped-pair mean falls below the intrinsic
    mean (the square root would be imaginary); both inputs stay reported
    so the condition is auditable.
    """

    intrinsic: float
    intrinsic_std: float
    proxy_size: int
    proxy_seed: int
    pairs: tuple[float, ...]
    boot_mean: float | None = None
    boot_std: float | None = None
    boot_pairs: tuple[float, ...] = ()
    extrinsic: float | None = None
    extrinsic_std: float | None = None

    @property
    def pair_count(self) -> int:
        return len(self.pairs)

    @property
    def boot_pair_count(self) -> int:
        return len(self.boot_pairs)

    @property
    def extrinsic_undefined(self) -> bool:
        return self.boot_pair_count > 0 and self.extrinsic is None


def _pairwise(
    runs: RunSet, proxy: ProxySample, words: Sequence[str] = ()
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced PIP loss per run pair and the (pair, word) matrix of word-wise
    reduced PIP losses: one gather of rows per run, one kernel call per pair."""
    if len(runs) < 2:
        raise ValueError(f"need at least 2 runs, got {len(runs)}")
    rows = [_rows(space, proxy, words, f"run {i}") for i, space in enumerate(runs.spaces)]
    values, wordwise = zip(*(_pair_losses(*a, *b) for a, b in combinations(rows, 2)))
    return np.array(values), np.array(wordwise)


def _root_of_excess(value: float, floor: float) -> float | None:
    """sqrt(value - floor), or None when value falls below floor."""
    return math.sqrt(value - floor) if value >= floor else None


def _report(
    proxy: ProxySample, values: np.ndarray, boot: np.ndarray | None = None
) -> InstabilityReport:
    intrinsic, intrinsic_std = float(values.mean()), float(values.std())
    extra: dict[str, object] = {}
    if boot is not None:
        boot_mean, boot_std = float(boot.mean()), float(boot.std())
        extrinsic = _root_of_excess(boot_mean, intrinsic)
        spread = None
        if extrinsic:
            # Delta method: d sqrt(b - i) = (db - di) / (2 sqrt(b - i)).
            spread = math.sqrt(boot_std**2 + intrinsic_std**2) / (2.0 * extrinsic)
        extra = dict(
            boot_mean=boot_mean,
            boot_std=boot_std,
            boot_pairs=tuple(boot.tolist()),
            extrinsic=extrinsic,
            extrinsic_std=spread,
        )
    return InstabilityReport(
        intrinsic, intrinsic_std, len(proxy), proxy.seed, tuple(values.tolist()), **extra
    )


def intrinsic_instability(shuffled: RunSet, proxy: ProxySample) -> InstabilityReport:
    """Mean and std of reduced PIP loss over all pairs of shuffled runs."""
    return _report(proxy, _pairwise(shuffled, proxy)[0])


def extrinsic_instability(
    shuffled: RunSet, bootstrapped: RunSet, proxy: ProxySample
) -> InstabilityReport:
    """Corpus-level instability beyond the training noise floor.

    Both run sets are evaluated on the same proxy so the two means are
    comparable.
    """
    return _extrinsic_and_words(shuffled, bootstrapped, proxy)[0]


def _extrinsic_and_words(
    shuffled: RunSet,
    bootstrapped: RunSet,
    proxy: ProxySample,
    words: Sequence[str] = (),
) -> tuple[InstabilityReport, list[tuple[float, float | None]]]:
    """Extrinsic report plus (intrinsic, extrinsic) per word of `words`,
    from one kernel call per run pair."""
    values, wordwise = _pairwise(shuffled, proxy, words)
    boot, boot_wordwise = _pairwise(bootstrapped, proxy, words)
    word_means = zip(wordwise.mean(axis=0).tolist(), boot_wordwise.mean(axis=0).tolist())
    parts = [(j_int, _root_of_excess(j_boot, j_int)) for j_int, j_boot in word_means]
    return _report(proxy, values, boot), parts


def wordwise_instability(
    word: str, shuffled: RunSet, bootstrapped: RunSet, proxy: ProxySample
) -> tuple[float, float | None]:
    """(intrinsic, extrinsic) instability of one word; extrinsic may be None."""
    return _extrinsic_and_words(shuffled, bootstrapped, proxy, [word])[1][0]


def frequency_profile(
    shuffled: RunSet, proxy: ProxySample, batches: int = 20
) -> tuple[list[tuple[int, float, float, int]], tuple[float, float]]:
    """Word-level intrinsic instability grouped into frequency batches.

    Words from the joint vocabulary (those with recorded frequencies) are
    sorted by frequency and cut into `batches` near-equal groups.  Returns
    per-batch rows (batch index, mean frequency, mean word-level intrinsic
    instability, word count) and the Spearman (rho, p) between batch mean
    frequency and batch mean instability.  This is a report, not a test:
    how flat the profile is depends on the corpus.
    """
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    joint = joint_vocabulary(shuffled.spaces)
    freq = shuffled.spaces[0].vocab.frequency
    if freq is None:
        raise ValueError("runs carry no word frequencies")
    words = [w for w in joint.words if w in freq]
    if len(words) < batches:
        raise ValueError(f"{len(words)} words cannot fill {batches} batches")
    words.sort(key=lambda w: (freq[w], w))
    values = _pairwise(shuffled, proxy, words)[1].mean(axis=0)
    bounds = np.linspace(0, len(words), batches + 1).astype(int).tolist()
    rows = []
    for b, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        mean_frequency = float(np.mean([freq[w] for w in words[lo:hi]]))
        rows.append((b, mean_frequency, float(values[lo:hi].mean()), hi - lo))
    rho, p = spearman([r[1] for r in rows], [r[2] for r in rows])
    return rows, (rho, p)
