"""Shared builders for synthetic spaces, run sets, and corpora."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from embedstab import (
    AlignmentResult,
    AnalogyDataset,
    Corpus,
    EmbeddingSpace,
    RunSet,
    Vocabulary,
    normalize,
)
from embedstab import gaussian
from embedstab.align import _solve_rotation
from embedstab.sgns import _sigmoid


def words_for(count: int, prefix: str = "w") -> tuple[str, ...]:
    return tuple(f"{prefix}{i:04d}" for i in range(count))


def random_normalized_space(
    v: int, d: int, seed: int, frequency: dict[str, int] | None = None
) -> EmbeddingSpace:
    rng = np.random.default_rng(seed)
    vocab = Vocabulary(words_for(v), frequency=frequency)
    return normalize(EmbeddingSpace(vocab, rng.normal(size=(v, d))))


def random_rotation(d: int, seed: int) -> np.ndarray:
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def rotated_copy(space: EmbeddingSpace, seed: int) -> EmbeddingSpace:
    rotation = random_rotation(space.dim, seed)
    return EmbeddingSpace(
        space.vocab, space.matrix @ rotation, normalized=space.normalized
    )


def planted_cosine_space(target: str, cosines: dict[str, float]) -> EmbeddingSpace:
    """A normalized space where cos(target, query_i) is exactly cosines[query_i].

    The target sits on the first axis; query i combines the first axis with
    its own private axis, so every target-query cosine is planted exactly and
    the queries are mutually near-orthogonal.
    """
    queries = list(cosines)
    dim = len(queries) + 1
    rows = np.zeros((len(queries) + 1, dim))
    rows[0, 0] = 1.0
    for i, query in enumerate(queries):
        c = cosines[query]
        if not -1.0 <= c <= 1.0:
            raise ValueError(f"cosine out of range for {query!r}: {c}")
        rows[i + 1, 0] = c
        rows[i + 1, i + 1] = np.sqrt(1.0 - c * c)
    vocab = Vocabulary((target, *queries))
    return EmbeddingSpace(vocab, rows, normalized=True)


def planted_profile_runs(
    target: str,
    mu: dict[str, float],
    sigma: dict[str, float],
    r: int,
    seed: int,
    mode: str = "shuffled",
) -> RunSet:
    """r spaces whose target-query cosines are independent clipped Gaussians."""
    rng = np.random.default_rng(seed)
    spaces = []
    for _ in range(r):
        cosines = {
            q: float(np.clip(rng.normal(mu[q], sigma[q]), -1.0, 1.0)) for q in mu
        }
        spaces.append(planted_cosine_space(target, cosines))
    return RunSet(tuple(spaces), mode=mode)


def two_topic_corpus(
    docs: int = 300, doc_len: int = 30, seed: int = 0
) -> tuple[Corpus, list[str], list[str]]:
    """Documents drawn from two disjoint topics plus shared filler words."""
    rng = np.random.default_rng(seed)
    topic_a = [f"alpha{i}" for i in range(20)]
    topic_b = [f"beta{i}" for i in range(20)]
    shared = [f"fill{i}" for i in range(20)]
    documents = []
    for index in range(docs):
        topic = topic_a if index % 2 == 0 else topic_b
        tokens = tuple(
            topic[rng.integers(len(topic))]
            if rng.random() < 0.7
            else shared[rng.integers(len(shared))]
            for _ in range(doc_len)
        )
        documents.append(tokens)
    return Corpus(tuple(documents)), topic_a, topic_b


def block_objective(
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    words: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    lr: np.ndarray | None = None,
) -> float:
    """The SGNS objective one block step ascends, summed term by term.

    Each (center, context) position pair adds log sigma(in . out); each
    position adds log sigma(-in . out) for each of its noise words, weighted
    by its number of pairs as center.  Every term is scaled by its center's
    `lr` (1 when omitted).
    """
    lr = np.ones(len(words)) if lr is None else lr

    def log_sigmoid(x: float) -> float:
        return -float(np.logaddexp(0.0, -x))

    total = 0.0
    for c, o in zip(centers.tolist(), contexts.tolist()):
        x = input_vectors[words[c]] @ output_vectors[words[o]]
        total += lr[c] * log_sigmoid(x)
    for i, noise in enumerate(negatives.tolist()):
        weight = lr[i] * np.count_nonzero(centers == i)
        for w in noise:
            total += weight * log_sigmoid(-(input_vectors[words[i]] @ output_vectors[w]))
    return total


def block_update_oracle(
    input_vectors: np.ndarray,
    output_vectors: np.ndarray,
    words: np.ndarray,
    centers: np.ndarray,
    contexts: np.ndarray,
    negatives: np.ndarray,
    lr: np.ndarray,
) -> None:
    """The SGNS block step as one gathered vector per pair and noise draw.

    Every pair and noise draw gets its own gradient row, and the rows of a
    recurring word are summed by a stable argsort and `np.add.reduceat`.
    """

    def scatter_add(matrix: np.ndarray, rows: np.ndarray, updates: np.ndarray) -> None:
        order = np.argsort(rows, kind="stable")
        rows = rows[order]
        starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
        matrix[rows[starts]] += np.add.reduceat(updates[order], starts, axis=0)

    inp, out = input_vectors[words], output_vectors[words]
    noise = output_vectors[negatives]
    inp_c, out_o = inp[centers], out[contexts]
    g_pos = lr[centers] * (1.0 - _sigmoid(np.einsum("pd,pd->p", inp_c, out_o)))
    weight = lr * np.bincount(centers, minlength=len(words))
    g_neg = -weight[:, None] * _sigmoid(np.einsum("md,mkd->mk", inp, noise))
    scatter_add(
        input_vectors,
        np.concatenate((words[centers], words)),
        np.concatenate((g_pos[:, None] * out_o, np.einsum("mk,mkd->md", g_neg, noise))),
    )
    noise_grads = (g_neg[:, :, None] * inp[:, None, :]).reshape(-1, inp.shape[1])
    scatter_add(
        output_vectors,
        np.concatenate((words[contexts], negatives.ravel())),
        np.concatenate((g_pos[:, None] * inp_c, noise_grads)),
    )


def finite_difference_gradients(
    objective, input_vectors: np.ndarray, output_vectors: np.ndarray, h: float = 1e-5
) -> tuple[np.ndarray, np.ndarray]:
    """Central differences of objective(input, output) in every entry of both."""
    grads = []
    for matrix in (input_vectors, output_vectors):
        grad = np.zeros_like(matrix)
        for index in np.ndindex(matrix.shape):
            saved = matrix[index]
            matrix[index] = saved + h
            up = objective(input_vectors, output_vectors)
            matrix[index] = saved - h
            down = objective(input_vectors, output_vectors)
            matrix[index] = saved
            grad[index] = (up - down) / (2 * h)
        grads.append(grad)
    return grads[0], grads[1]


def load_text_vectors_oracle(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Words and matrix of a well-formed text vector file, one float() per value."""
    with Path(path).open("r", encoding="utf-8") as handle:
        v, d = (int(x) for x in handle.readline().split())
        words = []
        matrix = np.empty((v, d), dtype=np.float64)
        for row in range(v):
            fields = handle.readline().split()
            assert len(fields) == d + 1
            words.append(fields[0])
            matrix[row] = [float(x) for x in fields[1:]]
    return words, matrix


def save_profile_oracle(profile: gaussian.StabilityProfile, path: str | Path) -> None:
    """A profile TSV written line by line with f-strings (floats by repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("target\tquery\tmu\tsigma\tr\n")
        for e in profile.entries:
            fh.write(f"{e.target}\t{e.query}\t{e.mu!r}\t{e.sigma!r}\t{e.r}\n")


def save_frequencies_oracle(counts: dict[str, int], path: str | Path) -> None:
    """A "word<TAB>count" sidecar written line by line with f-strings."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for word, count in counts.items():
            handle.write(f"{word}\t{count}\n")


def answer_files_oracle(
    labels: dict[str, bool], deltas: dict[str, float], targets: Sequence[str], out_dir: Path
) -> None:
    """SemEval-style answers-binary.tsv and answers-graded.tsv for a
    non-empty target list, sorted by word, floats by repr."""
    binary_lines = [f"{w}\t{int(labels[w])}" for w in sorted(targets)]
    (out_dir / "answers-binary.tsv").write_text("\n".join(binary_lines) + "\n", encoding="utf-8")
    graded_lines = [f"{w}\t{deltas[w]!r}" for w in sorted(targets)]
    (out_dir / "answers-graded.tsv").write_text("\n".join(graded_lines) + "\n", encoding="utf-8")


def semantic_change_oracle(
    word: str,
    space_t1: EmbeddingSpace,
    space_t2: EmbeddingSpace,
    alignment: AlignmentResult,
) -> float:
    """One word's change score, unit vectors and dot computed on their own."""

    def unit(vector: np.ndarray) -> np.ndarray:
        norm = np.linalg.norm(vector)
        if norm == 0.0:
            raise ValueError(f"zero vector for {word!r}")
        return vector / norm

    v1 = unit(space_t1.vector(word) @ alignment.rotation)
    v2 = unit(space_t2.vector(word))
    return 1.0 - float(np.clip(v1 @ v2, -1.0, 1.0))


def tie_rich_rows(rng: np.random.Generator, v: int, d: int, quantized: bool) -> np.ndarray:
    """v rows for ranking tests: quantized rows with exact ties, or Gaussian rows.

    A quantized row has one or four entries of +-1, scaled by 1, 2 or 3, and
    about a third of them repeat an earlier row.  Their unit rows hold 0,
    +-1/2 and +-1, so every cosine and every 3CosAdd score is a multiple of
    1/4, computed exactly in any summation order: ties are exact whatever the
    BLAS.  Duplicates of Gaussian rows would not be, since a matrix product
    may round two equal columns differently, so Gaussian rows are all distinct.
    """
    if not quantized:
        return rng.normal(size=(v, d))
    rows = np.zeros((v, d))
    for i in range(v):
        if i and rng.random() < 0.3:
            rows[i] = rows[rng.integers(i)] * rng.integers(1, 4)
        else:
            axes = rng.choice(d, size=1 if d < 4 or rng.random() < 0.3 else 4, replace=False)
            rows[i, axes] = rng.choice([-1.0, 1.0], size=len(axes)) * rng.integers(1, 4)
    return rows


def shuffled_words(rng: np.random.Generator, v: int) -> list[str]:
    """v distinct short words in random (not lexicographic) order."""
    letters = list("abcdefgzé")
    words: set[str] = set()
    while len(words) < v:
        words.add("".join(rng.choice(letters, size=rng.integers(1, 4))))
    return [str(w) for w in rng.permutation(sorted(words))]


def _unit_matrix(space: EmbeddingSpace) -> np.ndarray:
    if space.normalized:
        return space.matrix
    return space.matrix / np.linalg.norm(space.matrix, axis=1)[:, None]


def nearest_neighbors_oracle(
    space: EmbeddingSpace, target: str, n: int
) -> list[tuple[str, float]]:
    """Top-n (word, cosine) from one matrix-vector product and a full argsort,
    each run of equal similarities then sorted by word."""
    pos = space.vocab.position(target)
    sims = _unit_matrix(space) @ _unit_matrix(space)[pos]
    sims[pos] = -np.inf
    words = space.vocab.words
    order = list(np.argsort(-sims, kind="stable"))
    start = 0
    while start < len(order):
        end = start + 1
        while end < len(order) and sims[order[end]] == sims[order[start]]:
            end += 1
        order[start:end] = sorted(order[start:end], key=lambda i: words[i])
        start = end
    return [(words[i], float(np.clip(sims[i], -1.0, 1.0))) for i in order[:n]]


def analogy_score_oracle(
    space: EmbeddingSpace,
    dataset: AnalogyDataset,
    restrict_to: Iterable[str] | None = None,
) -> tuple[float, float]:
    """3CosAdd accuracy and coverage, one matrix-vector product per question."""
    allowed = set(space.vocab.words if restrict_to is None else restrict_to)
    eval_words: Sequence[str] = [w for w in space.vocab.words if w in allowed]
    positions = {w: i for i, w in enumerate(eval_words)}
    unit = _unit_matrix(space)[[space.vocab.position(w) for w in eval_words]]
    answered = correct = 0
    for a, b, c, d in dataset.questions:
        if any(w not in positions for w in (a, b, c, d)):
            continue
        answered += 1
        scores = unit @ (unit[positions[b]] - unit[positions[a]] + unit[positions[c]])
        for w in (a, b, c):
            scores[positions[w]] = -np.inf
        ties = np.flatnonzero(scores == scores.max())
        correct += min(eval_words[i] for i in ties) == d
    if answered == 0:
        return 0.0, 0.0
    return correct / answered, answered / len(dataset.questions)


def aligned_average_pair_oracle(
    space_a: EmbeddingSpace, space_b: EmbeddingSpace
) -> EmbeddingSpace:
    """Aligned average of two spaces without normalization checks, built one
    word at a time: the second space's words in its order (joint rows
    averaged), then the first space's other words rotated into its frame."""
    joint = [w for w in space_a.vocab.words if w in space_b.vocab]
    a = np.array([space_a.vector(w) for w in joint])
    b = np.array([space_b.vector(w) for w in joint])
    rotation = _solve_rotation(a, b)
    averaged = 0.5 * (a @ rotation + b)
    averaged_of = {w: averaged[i] for i, w in enumerate(joint)}
    words, rows, frequency = [], [], {}
    for space, own in ((space_b, True), (space_a, False)):
        for w in space.vocab.words:
            if own:
                row = averaged_of[w] if w in averaged_of else space.vector(w)
            elif w in averaged_of:
                continue
            else:
                row = space.vector(w) @ rotation
            words.append(w)
            rows.append(row)
            if space.vocab.frequency is not None:
                frequency[w] = space.vocab.frequency[w]
    vocab = Vocabulary(tuple(words), frequency or None)
    return EmbeddingSpace(vocab, np.array(rows), normalized=False)


def pair_cosine_moments_oracle(
    runs: RunSet, word_pairs: Sequence[tuple[str, str]]
) -> tuple[float, float]:
    """Mean over word pairs of the across-run (mu, sigma) of the cosine, one
    dot product per run and pair."""
    samples = np.empty((len(runs), len(word_pairs)))
    for i, space in enumerate(runs.spaces):
        unit = _unit_matrix(space)
        for j, (w1, w2) in enumerate(word_pairs):
            dot = unit[space.vocab.position(w1)] @ unit[space.vocab.position(w2)]
            samples[i, j] = np.clip(dot, -1.0, 1.0)
    mu = samples.mean(axis=0)
    sigma = np.sqrt(((samples - mu) ** 2).mean(axis=0))
    return float(mu.mean()), float(sigma.mean())


def _exclusive_products(f: np.ndarray) -> np.ndarray:
    """Per row i and column, the product of f over all rows except i."""
    before = np.ones_like(f)
    np.cumprod(f[:-1], axis=0, out=before[1:])
    after = np.ones_like(f)
    after[:-1] = np.cumprod(f[:0:-1], axis=0)[::-1]
    return before * after


def _leave_one_out(
    cdf: np.ndarray, first: np.ndarray, second: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per entry and node: P(no other `first` entry lies above the node),
    P(no other `second` entry lies above it) and P(exactly one does).

    Entries outside a mask count as always below.  The `second` mask runs
    a two-state (none above, one above) recurrence over the entries
    before i and another over those after i, and joins them.
    """
    none_first = _exclusive_products(np.where(first[:, None], cdf, 1.0))
    below = np.where(second[:, None], cdf, 1.0)
    above = 1.0 - below
    k, width = cdf.shape
    before_none, before_one = np.empty_like(cdf), np.empty_like(cdf)
    after_none, after_one = np.empty_like(cdf), np.empty_like(cdf)
    for order, none_out, one_out in (
        (range(k), before_none, before_one),
        (range(k - 1, -1, -1), after_none, after_one),
    ):
        none, one = np.ones(width), np.zeros(width)
        for i in order:
            none_out[i], one_out[i] = none, one
            none, one = none * below[i], one * below[i] + none * above[i]
    one_second = before_none * after_one + before_one * after_none
    return none_first, before_none * after_none, one_second


def rank_probabilities_oracle(
    mu: np.ndarray, sigma: np.ndarray, pruning_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """p#1 and p#2 of every entry from a leave-one-out product for rank 1
    and a two-state Python recurrence over the entries for rank 2.

    Runs on the rank kernel's grid.  p#1 keeps the entries likely enough to
    beat the highest mean, and the one-above term of p#2 those likely
    enough to beat the second highest; p#2 is p#1 plus that term.  With
    pruning the two masks differ, and the sum may count some cases twice;
    at `pruning_threshold=0.0` both masks hold every entry and the result
    is exact up to the quadrature.
    """
    order = np.argsort(-mu, kind="stable")

    def keep(rank: int) -> np.ndarray:
        ref = order[min(rank, len(order) - 1)]
        return gaussian._prob_greater_vs(mu, sigma, mu[ref], sigma[ref]) >= pruning_threshold

    first, second = keep(0), keep(1)
    p1_all, p2_all = np.zeros(mu.size), np.zeros(mu.size)
    active = np.flatnonzero(first | second)
    mu, sigma = mu[active], sigma[active]
    first, second = first[active], second[active]
    spread = sigma > 0.0
    scale = np.where(spread, sigma, 1.0)[:, None]
    x, w, owner = gaussian._quadrature_nodes(mu, sigma)
    ties = np.zeros(active.size)
    _, group, size = np.unique(mu[~spread], return_inverse=True, return_counts=True)
    ties[~spread] = size[group] - 1
    p1, above = np.zeros(active.size), np.zeros(active.size)
    block = max(1, gaussian._BLOCK_ELEMENTS // max(1, active.size))
    for start in range(0, x.size, block):
        xb, wb, ob = (a[start : start + block] for a in (x, w, owner))
        t = (xb - mu[:, None]) / scale
        density = np.exp(-0.5 * t * t) * (wb * gaussian._INV_SQRT_2PI) / scale
        weight = np.where(spread[:, None] & (ob < 0), density, 0.0)
        owned = np.flatnonzero(ob >= 0)
        weight[ob[owned], owned] = 1.0
        cdf = gaussian._cdf_matrix(xb, mu, sigma)
        none, none_second, one = _leave_one_out(cdf, first, second)
        mass = ob[owned]
        share = 1.0 / (ties[mass] + 1.0)
        tied_second = (ties[mass] > 0) * none_second[mass, owned]
        one[mass, owned] = (one[mass, owned] + tied_second) * share
        none[mass, owned] *= share
        p1 += np.einsum("ij,ij->i", weight, none)
        above += np.einsum("ij,ij->i", weight, one)
    p1_all[active] = np.where(first, np.clip(p1, 0.0, 1.0), 0.0)
    p2_all[active] = np.minimum(1.0, p1_all[active] + np.where(second, above, 0.0))
    return p1_all, p2_all
