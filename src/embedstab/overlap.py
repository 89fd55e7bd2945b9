"""Nearest-neighbor overlap between runs: the p@n and j@n family.

Both metrics are functions of the overlap count m of two top-n neighbor
lists: p@n = m/n and j@n = m/(2n - m), so j = p/(2 - p) holds exactly.
Neighbor lists are always computed over the joint vocabulary of the two
spaces, which keeps m well-defined when vocabularies differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .space import EmbeddingSpace, RunSet, _positions, _top_k, joint_vocabulary

__all__ = [
    "OverlapMeasurement",
    "OverlapSummary",
    "list_overlap",
    "p_at_n",
    "p_to_j",
    "mean_overlap",
]


@dataclass(frozen=True)
class OverlapMeasurement:
    target: str
    n: int
    m: int
    p_at_n: float
    j_at_n: float


@dataclass(frozen=True)
class OverlapSummary:
    target: str
    n: int
    mean_p: float
    mean_j: float
    pair_count: int


def _measure(target: str, n: int, m: int) -> OverlapMeasurement:
    if not 0 <= m <= n:
        raise ValueError(f"overlap count {m} outside [0, {n}]")
    return OverlapMeasurement(target, n, m, m / n, m / (2 * n - m))


def list_overlap(
    list_a: Sequence[str], list_b: Sequence[str], n: int, target: str = ""
) -> OverlapMeasurement:
    """Overlap metrics for two ranked word lists truncated to their top n."""
    if n < 1 or n > len(list_a) or n > len(list_b):
        raise ValueError(f"n={n} exceeds a list length ({len(list_a)}, {len(list_b)})")
    m = len(set(list_a[:n]) & set(list_b[:n]))
    return _measure(target, n, m)


def p_to_j(p: float) -> float:
    """Convert an overlap fraction to the equivalent Jaccard coefficient."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return p / (2.0 - p)


def _neighbor_lists(
    spaces: Sequence[EmbeddingSpace], targets: Sequence[str], n: int
) -> list[dict[str, list[str]]]:
    """Top-n neighbor words per (space, target), over the joint vocabulary."""
    joint = joint_vocabulary(spaces)
    if n > len(joint) - 1:
        raise ValueError(f"n={n} exceeds joint vocabulary size {len(joint)} minus 1")
    words = joint.words
    queries = _positions(joint, targets)[:, None]
    per_space = []
    for space in spaces:
        found, _ = _top_k(space, words, queries, n)
        per_space.append({t: [words[i] for i in row] for t, row in zip(targets, found)})
    return per_space


def p_at_n(
    space_a: EmbeddingSpace, space_b: EmbeddingSpace, target: str, n: int
) -> OverlapMeasurement:
    """Overlap of the two spaces' top-n neighbor lists for one target word."""
    lists = _neighbor_lists([space_a, space_b], [target], n)
    return list_overlap(lists[0][target], lists[1][target], n, target=target)


def _summaries(
    per_space: Sequence[dict[str, list[str]]], targets: Sequence[str], n: int
) -> list[OverlapSummary]:
    """Per-target mean p@n and j@n over all unordered pairs of neighbor lists.

    Only the top-n prefix of each list is read, so lists computed once for
    a larger n serve every smaller n: the ranking is a total order on
    (-similarity, word), and its top-n is the prefix of its top-(n + 1).
    """
    r = len(per_space)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    summaries = []
    for target in targets:
        p_total = j_total = 0.0
        for i, j in pairs:
            measured = list_overlap(per_space[i][target], per_space[j][target], n)
            p_total += measured.p_at_n
            j_total += measured.j_at_n
        summaries.append(
            OverlapSummary(target, n, p_total / len(pairs), j_total / len(pairs), len(pairs))
        )
    return summaries


def mean_overlap(
    runs: RunSet, targets: Sequence[str], n: int
) -> list[OverlapSummary]:
    """Per-target mean p@n and j@n over all unordered run pairs."""
    if len(runs) < 2:
        raise ValueError("need at least 2 runs")
    return _summaries(_neighbor_lists(runs.spaces, targets, n), targets, n)
