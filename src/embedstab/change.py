"""Diachronic semantic change between two epoch corpora.

A word's change score is the cosine distance between its vector in the
first epoch's space, rotated onto the second epoch's space, and its vector
there.  Scores feed a threshold classifier (changed / unchanged), ranking
evaluation against gold annotations, and a mixed-effects regression that
tests whether change rates depend on word frequency.  A pooled-and-resplit
control condition separates genuine diachronic signal from training noise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .align import AlignmentResult, procrustes
from .corpus import Corpus
from .space import EmbeddingSpace, _read_map, _row_dots, _word_rows, joint_vocabulary
from .stats import spearman

__all__ = [
    "ChangeReport",
    "GoldData",
    "FrequencyEffectResult",
    "semantic_change",
    "build_change_report",
    "classify_targets",
    "evaluate",
    "frequency_effect",
    "control_condition",
    "load_gold_binary",
    "load_gold_graded",
]

DEFAULT_MIN_COUNT = 500


@dataclass(frozen=True)
class ChangeReport:
    """Per-word change scores with threshold classification.

    `deltas` covers the scored vocabulary plus the requested targets;
    `ranking` orders the targets by descending score; `labels` marks each
    target changed (True) or unchanged; `tau` is the classification
    threshold mean + std/2 computed over the scored vocabulary's scores.
    """

    deltas: dict[str, float]
    ranking: tuple[str, ...]
    labels: dict[str, bool]
    tau: float
    mean: float
    std: float
    scored_vocab: tuple[str, ...]


@dataclass(frozen=True)
class GoldData:
    binary: dict[str, int]
    graded: dict[str, float]


@dataclass(frozen=True)
class FrequencyEffectResult:
    beta_f: float
    beta_0: float
    var_explained: float
    n_observations: int
    n_words: int
    sigma_word: float
    sigma_resid: float
    fit_method: str = "profiled-ml"


def _change_scores(
    words: Sequence[str],
    space_t1: EmbeddingSpace,
    space_t2: EmbeddingSpace,
    alignment: AlignmentResult,
) -> np.ndarray:
    """Cosine distances of `words` between the aligned epoch-1 rows and the
    epoch-2 rows: one stacked product with the rotation, row norms and a
    row-wise dot."""
    rows1 = (_word_rows(space_t1, words)[:, None, :] @ alignment.rotation)[:, 0, :]
    rows2 = _word_rows(space_t2, words)
    norms1 = np.sqrt(_row_dots(rows1, rows1))
    norms2 = np.sqrt(_row_dots(rows2, rows2))
    zero = np.flatnonzero((norms1 == 0.0) | (norms2 == 0.0))
    if zero.size:
        raise ValueError(f"zero vector for {words[zero[0]]!r}")
    dots = _row_dots(rows1 / norms1[:, None], rows2 / norms2[:, None])
    return 1.0 - np.clip(dots, -1.0, 1.0)


def semantic_change(
    word: str,
    space_t1: EmbeddingSpace,
    space_t2: EmbeddingSpace,
    alignment: AlignmentResult,
) -> float:
    """Cosine distance between the aligned epoch-1 vector and the epoch-2 one."""
    return float(_change_scores([word], space_t1, space_t2, alignment)[0])


def classify_targets(
    target_deltas: Mapping[str, float], scored_deltas: Mapping[str, float]
) -> tuple[dict[str, bool], float]:
    """Label targets changed when their score strictly exceeds mean + std/2.

    The threshold is computed over the scored vocabulary's score
    distribution (population std), so an all-equal distribution yields
    tau = mean and labels everything unchanged.
    """
    if len(scored_deltas) < 2:
        raise ValueError("need at least 2 scored words for a threshold")
    values = np.fromiter(scored_deltas.values(), dtype=float)
    tau = float(values.mean() + values.std() / 2.0)
    labels = {w: d > tau for w, d in target_deltas.items()}
    return labels, tau


def build_change_report(
    space_t1: EmbeddingSpace,
    space_t2: EmbeddingSpace,
    targets: Sequence[str] = (),
    min_count: int = DEFAULT_MIN_COUNT,
) -> ChangeReport:
    """Full change pipeline for one epoch pair.

    The first space is rotated onto the second over their joint vocabulary.
    The scored vocabulary is every joint word occurring at least
    `min_count` times in both epochs (all joint words when frequencies are
    absent or min_count <= 1); it defines the classification threshold.
    Targets are scored regardless of their frequency but must exist in both
    epochs.
    """
    joint = joint_vocabulary([space_t1, space_t2]).words
    joint_set = set(joint)
    missing = [w for w in targets if w not in joint_set]
    if missing:
        raise ValueError(f"targets absent from an epoch vocabulary: {missing}")

    f1 = space_t1.vocab.frequency
    f2 = space_t2.vocab.frequency
    if min_count > 1 and (f1 is None or f2 is None):
        raise ValueError("min_count filter requires frequencies on both epochs")
    if min_count > 1:
        scored = tuple(
            w for w in joint if f1[w] >= min_count and f2[w] >= min_count
        )
    else:
        scored = tuple(joint)
    if len(scored) < 2:
        raise ValueError(
            f"only {len(scored)} words pass min_count={min_count} in both epochs"
        )

    alignment = procrustes(space_t1, space_t2)
    words = list(dict.fromkeys(list(scored) + list(targets)))
    deltas = dict(
        zip(words, _change_scores(words, space_t1, space_t2, alignment).tolist())
    )
    scored_deltas = {w: deltas[w] for w in scored}
    target_deltas = {w: deltas[w] for w in targets}
    labels, tau = classify_targets(target_deltas, scored_deltas)
    values = np.fromiter(scored_deltas.values(), dtype=float)
    ranking = tuple(sorted(targets, key=lambda w: (-deltas[w], w)))
    return ChangeReport(
        deltas=deltas,
        ranking=ranking,
        labels=labels,
        tau=tau,
        mean=float(values.mean()),
        std=float(values.std()),
        scored_vocab=scored,
    )


def evaluate(
    report: ChangeReport, gold: GoldData
) -> tuple[float | None, float | None]:
    """(binary accuracy, Spearman rho of scores against graded gold).

    Either element is None when the corresponding gold task is empty (rho
    additionally requires at least 3 graded words).  Gold words missing
    from the report are an error and are all listed.
    """
    missing = [w for w in list(gold.binary) + list(gold.graded) if w not in report.deltas]
    if missing:
        raise ValueError(f"gold targets missing from the report: {sorted(set(missing))}")
    accuracy = None
    if gold.binary:
        hits = sum(
            int(report.deltas[w] > report.tau) == label
            for w, label in gold.binary.items()
        )
        accuracy = hits / len(gold.binary)
    rho = None
    if len(gold.graded) >= 3:
        words = sorted(gold.graded)
        rho, _ = spearman(
            [report.deltas[w] for w in words], [gold.graded[w] for w in words]
        )
    return accuracy, rho


def _standardize(values: np.ndarray, name: str) -> np.ndarray:
    std = values.std()
    if std == 0.0:
        raise ValueError(f"{name} is constant; the regression design is degenerate")
    return (values - values.mean()) / std


def frequency_effect(
    observations: Sequence[tuple[str, int, float, float]],
) -> FrequencyEffectResult:
    """Frequency fixed effect on change scores with a per-word random intercept.

    Observations are (word, epoch-pair index, change score, frequency);
    scores and frequencies are log-transformed and standardized, then
    score~ = beta_0 + beta_f * freq~ + z(word) + noise is fitted by maximum
    likelihood profiled down to the single variance ratio
    lambda = var(z)/var(noise): a golden-section search over ln(lambda) in
    [ln 1e-6, ln 1e6] around a generalized-least-squares solve per lambda.
    var_explained is the fixed effect's share of the total fitted variance
    (marginal R^2).
    """
    if len(observations) < 3:
        raise ValueError("need at least 3 observations")
    words = [obs[0] for obs in observations]
    deltas = np.array([obs[2] for obs in observations], dtype=float)
    freqs = np.array([obs[3] for obs in observations], dtype=float)
    if np.any(deltas <= 0.0):
        bad = [observations[i][:2] for i in np.flatnonzero(deltas <= 0.0)[:5]]
        raise ValueError(f"change scores must be > 0 for the log transform: {bad}")
    if np.any(freqs <= 0.0):
        raise ValueError("frequencies must be > 0")
    if len(set(words)) < 2:
        raise ValueError("need at least 2 distinct words")

    y = _standardize(np.log(deltas), "log change score")
    f = _standardize(np.log(freqs), "log frequency")
    x = np.column_stack((np.ones_like(f), f))

    group_of = {w: i for i, w in enumerate(dict.fromkeys(words))}
    gid = np.array([group_of[w] for w in words])
    n_groups = len(group_of)
    n_obs = len(y)

    # Per-group sufficient statistics; only the shrinkage factor
    # c_g = lambda / (1 + lambda n_g) depends on lambda.
    sizes = np.bincount(gid, minlength=n_groups).astype(float)
    sum_f = np.bincount(gid, weights=f, minlength=n_groups)
    sum_ff = np.bincount(gid, weights=f * f, minlength=n_groups)
    sum_y = np.bincount(gid, weights=y, minlength=n_groups)
    sum_fy = np.bincount(gid, weights=f * y, minlength=n_groups)

    def gls(lam: float) -> tuple[np.ndarray, float]:
        c = lam / (1.0 + lam * sizes)
        a = np.array(
            [
                [sizes.sum() - c @ sizes**2, sum_f.sum() - c @ (sizes * sum_f)],
                [0.0, sum_ff.sum() - c @ sum_f**2],
            ]
        )
        a[1, 0] = a[0, 1]
        b = np.array(
            [
                sum_y.sum() - c @ (sizes * sum_y),
                sum_fy.sum() - c @ (sum_f * sum_y),
            ]
        )
        beta = np.linalg.solve(a, b)
        resid = y - x @ beta
        resid_sums = sum_y - beta[0] * sizes - beta[1] * sum_f
        rss = float(resid @ resid) - float(c @ resid_sums**2)
        return beta, rss

    def neg_profile_loglik(log_lam: float) -> float:
        lam = math.exp(log_lam)
        _, rss = gls(lam)
        logdet = float(np.sum(np.log1p(lam * sizes)))
        return n_obs * math.log(rss / n_obs) + logdet

    lo, hi = math.log(1e-6), math.log(1e6)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    p1 = hi - invphi * (hi - lo)
    p2 = lo + invphi * (hi - lo)
    f1, f2 = neg_profile_loglik(p1), neg_profile_loglik(p2)
    for _ in range(100):
        if f1 < f2:
            hi, p2, f2 = p2, p1, f1
            p1 = hi - invphi * (hi - lo)
            f1 = neg_profile_loglik(p1)
        else:
            lo, p1, f1 = p1, p2, f2
            p2 = lo + invphi * (hi - lo)
            f2 = neg_profile_loglik(p2)
        if hi - lo < 1e-10:
            break
    lam = math.exp(0.5 * (lo + hi))
    beta, rss = gls(lam)
    sigma_resid_sq = rss / n_obs
    sigma_word_sq = lam * sigma_resid_sq
    fixed_var = float(beta[1] ** 2 * f.var())
    var_explained = fixed_var / (fixed_var + sigma_word_sq + sigma_resid_sq)
    return FrequencyEffectResult(
        beta_f=float(beta[1]),
        beta_0=float(beta[0]),
        var_explained=var_explained,
        n_observations=n_obs,
        n_words=n_groups,
        sigma_word=math.sqrt(sigma_word_sq),
        sigma_resid=math.sqrt(sigma_resid_sq),
    )


def control_condition(
    corpora: Sequence[Corpus], batches: int, seed: int = 0
) -> list[Corpus]:
    """Pool all documents, shuffle with the seed, split into near-equal batches.

    The pooled document multiset is preserved exactly; batch sizes differ
    by at most one document.  Feeding the batches through the same change
    pipeline as genuine epochs yields the no-real-change baseline.
    """
    if not corpora:
        raise ValueError("need at least one corpus")
    if batches < 2:
        raise ValueError(f"need at least 2 batches, got {batches}")
    pooled = [doc for corpus in corpora for doc in corpus.documents]
    if len(pooled) < batches:
        raise ValueError(f"{len(pooled)} documents cannot fill {batches} batches")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pooled))
    shuffled = [pooled[i] for i in order]
    splits = np.array_split(np.arange(len(pooled)), batches)
    return [Corpus(tuple(shuffled[i] for i in part)) for part in splits]


def load_gold_binary(path: str) -> dict[str, int]:
    """Read "word<TAB>{0,1}" lines; a repeated word is an error."""
    # ("0", "1").index reads "0" and "1", and any other text is a ValueError.
    return _read_map(path, "label", ("0", "1").index, "0 or 1", 0, 1)


def load_gold_graded(path: str) -> dict[str, float]:
    """Read "word<TAB>score" lines (finite scores); a repeated word is an error."""
    return _read_map(path, "score", float, "finite", -sys.float_info.max, sys.float_info.max)
