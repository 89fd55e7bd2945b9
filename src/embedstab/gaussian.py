"""Gaussian model of how word-pair cosine similarities vary across runs.

Across repeated runs the cosine of a fixed (target, query) pair is modeled
as an independent Gaussian with parameters (mu, sigma) estimated per pair.
From a target's full profile of pair statistics the model predicts the
probability that a query lands at rank 1 or within the top 2 of the
target's neighbor list in a fresh run, and from those the expected top-n
overlap between two fresh runs.

Both probabilities come for every query of a profile at once from one
quadrature pass: panel Gauss-Legendre nodes between the breakpoints
mu + k sigma of all entries, one matrix of competitor CDFs, and a
leave-one-out recurrence over the entries that gives, per entry and node,
the chance that no other entry, or exactly one other entry, lies above.
The grid is fixed by the entries' breakpoints, so there is no integration
tolerance to set; `pruning_threshold` is the only accuracy knob.  The
result is computed once per profile and pruning threshold and kept on the
profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import erfc as _erfc, ndtr as _ndtr, roots_legendre

from .space import RunSet, _positions, _unit_rows, joint_vocabulary

__all__ = [
    "PairStatistics",
    "StabilityProfile",
    "estimate_pair_stats",
    "estimate_profile",
    "prob_greater",
    "predict_p_hash1",
    "predict_p_hash2",
    "expected_overlap",
    "structure_factor",
    "save_profile",
    "load_profile",
]

DEFAULT_PRUNING_THRESHOLD = 1e-5
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Panel edges sit at these multiples of every entry's sigma around its mean,
# so each Gaussian is resolved on its own scale over mu +- 8 sigma.
_BREAKPOINT_SCALES = np.array([-8.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 8.0])
_NODES_PER_PANEL = 8
# Entries x nodes per block: bounds the kernel's working set to a few MB.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class PairStatistics:
    """Mean and standard deviation of one pair's cosine across runs."""

    target: str
    query: str
    mu: float
    sigma: float
    r: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.r < 1:
            raise ValueError(f"sample count must be >= 1, got {self.r}")
        if not -1.0 <= self.mu <= 1.0:
            raise ValueError(f"mean cosine {self.mu} outside [-1, 1]")


@dataclass(frozen=True)
class StabilityProfile:
    """Pair statistics of one target against a fixed query vocabulary."""

    target: str
    entries: tuple[PairStatistics, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)
    # (p#1, p#2) arrays per pruning threshold, filled on first use.
    _ranks: dict[float, tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("profile must have at least one entry")
        index: dict[str, int] = {}
        for i, entry in enumerate(self.entries):
            if entry.target != self.target:
                raise ValueError(
                    f"entry target {entry.target!r} != profile target {self.target!r}"
                )
            if entry.query == self.target:
                raise ValueError("target may not appear among its own queries")
            if entry.query in index:
                raise ValueError(f"duplicate query {entry.query!r}")
            index[entry.query] = i
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_ranks", {})

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def queries(self) -> tuple[str, ...]:
        return tuple(e.query for e in self.entries)

    def entry(self, query: str) -> PairStatistics:
        try:
            return self.entries[self._index[query]]
        except KeyError:
            raise KeyError(f"query {query!r} not in profile") from None


def _pair_moments(samples: np.ndarray, unbiased: bool) -> tuple[np.ndarray, np.ndarray]:
    r = samples.shape[0]
    mu = samples.mean(axis=0)
    centered = samples - mu
    denom = r - 1 if unbiased and r > 1 else r
    sigma = np.sqrt((centered * centered).sum(axis=0) / denom)
    return mu, sigma


def _cosine_samples(runs: RunSet, target: str, queries: Sequence[str]) -> np.ndarray:
    """(r, len(queries)) matrix of cosines, one row per run."""
    rows = []
    for space in runs.spaces:
        unit = _unit_rows(space)
        t = unit[space.vocab.position(target)]
        rows.append(np.clip(unit[_positions(space.vocab, queries)] @ t, -1.0, 1.0))
    return np.array(rows)


def estimate_pair_stats(
    runs: RunSet, target: str, query: str, *, unbiased: bool = False
) -> PairStatistics:
    """Per-pair moments across runs: the one entry of a one-query profile.

    `sigma` divides by r (maximum likelihood) by default; pass
    `unbiased=True` for the conventional r - 1 denominator.
    """
    if target == query:
        raise ValueError("target and query must differ")
    return estimate_profile(runs, target, [query], unbiased=unbiased).entries[0]


def estimate_profile(
    runs: RunSet,
    target: str,
    queries: Sequence[str] | None = None,
    *,
    unbiased: bool = False,
) -> StabilityProfile:
    """Pair statistics of `target` against every query word.

    `queries` defaults to the joint vocabulary minus the target.
    """
    if queries is None:
        queries = [w for w in joint_vocabulary(runs.spaces).words if w != target]
    elif target in queries:
        raise ValueError("target may not appear among its own queries")
    if not queries:
        raise ValueError("no query words")
    samples = _cosine_samples(runs, target, queries)
    mu, sigma = _pair_moments(samples, unbiased)
    r = len(runs)
    entries = tuple(
        PairStatistics(target, q, float(m), float(s), r)
        for q, m, s in zip(queries, mu, sigma)
    )
    return StabilityProfile(target, entries)


def prob_greater(a: PairStatistics, b: PairStatistics) -> float:
    """P(sample of a > sample of b) under independent Gaussians.

    Equals 0.5 by convention when both sigmas are zero and the means tie.
    """
    return float(_prob_greater_vs(np.array([a.mu]), np.array([a.sigma]), b.mu, b.sigma)[0])


def _prob_greater_vs(mu: np.ndarray, sigma: np.ndarray, mu0: float, sigma0: float) -> np.ndarray:
    """P(entry > reference) per entry under independent Gaussians."""
    variance = sigma * sigma + sigma0 * sigma0
    out = np.where(mu > mu0, 1.0, np.where(mu < mu0, 0.0, 0.5))
    positive = variance > 0.0
    if np.any(positive):
        arg = (mu[positive] - mu0) / np.sqrt(2.0 * variance[positive])
        # erfc keeps the far tails accurate (erf saturates past |x| ~ 6), and
        # the sign branch makes P(a > b) + P(b > a) = 1 exact.
        tail = 0.5 * _erfc(np.abs(arg))
        out[positive] = np.where(arg >= 0.0, 1.0 - tail, tail)
    return out


def _cdf_matrix(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """(entries, nodes) matrix of P(entry < x).

    Zero-sigma entries step at their mean and count as below on an exact
    tie; `_rank_kernel` shares the ranks of tied point masses.
    """
    point = sigma == 0.0
    z = (x[None, :] - mu[:, None]) / np.where(point, 1.0, sigma)[:, None]
    cdf = _ndtr(z)
    cdf[point] = z[point] >= 0.0
    return cdf


def _rank_reference(mu: np.ndarray, sigma: np.ndarray, rank: int) -> tuple[float, float]:
    """(mu, sigma) of the entry with the rank-th highest mean (0-based)."""
    order = np.argsort(-mu, kind="stable")
    ref = order[min(rank, len(order) - 1)]
    return float(mu[ref]), float(sigma[ref])


def _keep_mask(
    mu: np.ndarray, sigma: np.ndarray, threshold: float, rank: int
) -> np.ndarray:
    """Entries with a non-negligible chance of reaching the given rank.

    An entry whose probability of exceeding the rank-th highest mean falls
    below `threshold` can neither reach the top-(rank+1) list nor shift the
    survivors' integrals (its CDF factor is 1 there), so it is dropped.
    """
    mu0, sigma0 = _rank_reference(mu, sigma, rank)
    return _prob_greater_vs(mu, sigma, mu0, sigma0) >= threshold


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
    before i and another over those after i, and joins them; no division,
    so CDF values of exactly 0 or 1 are safe.
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


def _quadrature_nodes(
    mu: np.ndarray, sigma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes, weights and owning entry (-1 for shared nodes) of the grid.

    Shared nodes are Gauss-Legendre panels between the sorted breakpoints
    mu + k sigma of all entries, which include every mean, so no panel
    straddles the step of a zero-sigma entry.  A zero-sigma entry is a
    point mass and owns one node at its mean, of weight 1.
    """
    point = np.flatnonzero(sigma == 0.0)
    edges = np.unique((mu[:, None] + sigma[:, None] * _BREAKPOINT_SCALES).ravel())
    half = 0.5 * np.diff(edges)[:, None]
    nodes, weights = roots_legendre(_NODES_PER_PANEL)
    shared = (edges[:-1, None] + half * (1.0 + nodes)).ravel()
    x = np.concatenate((mu[point], shared))
    w = np.concatenate((np.ones(point.size), (half * weights).ravel()))
    owner = np.concatenate((point, np.full(shared.size, -1)))
    return x, w, owner


def _rank_kernel(
    mu: np.ndarray, sigma: np.ndarray, pruning_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """p#1 and p#2 of every entry of a profile.

    p#1 of entry i integrates its density against P(no other rank-0-kept
    entry lies above); p#2 adds the integral against P(exactly one other
    rank-1-kept entry lies above).  Entries kept for neither rank take no
    part.  Point masses tied at one mean share their ranks uniformly: at
    its own node, each of t + 1 tied masses is on top of the tie with
    chance 1 / (t + 1), and second in it with the same chance when t >= 1.
    Nodes are taken in blocks, so memory is O(entries x block).
    """
    first = _keep_mask(mu, sigma, pruning_threshold, rank=0)
    second = _keep_mask(mu, sigma, pruning_threshold, rank=1)
    p1_all, p2_all = np.zeros(mu.size), np.zeros(mu.size)
    active = np.flatnonzero(first | second)
    mu, sigma = mu[active], sigma[active]
    first, second = first[active], second[active]
    spread = sigma > 0.0
    scale = np.where(spread, sigma, 1.0)[:, None]
    x, w, owner = _quadrature_nodes(mu, sigma)
    ties = np.zeros(active.size)  # other point masses at each one's mean
    _, group, size = np.unique(mu[~spread], return_inverse=True, return_counts=True)
    ties[~spread] = size[group] - 1
    p1, above = np.zeros(active.size), np.zeros(active.size)
    block = max(1, _BLOCK_ELEMENTS // max(1, active.size))
    for start in range(0, x.size, block):
        xb, wb, ob = (a[start : start + block] for a in (x, w, owner))
        t = (xb - mu[:, None]) / scale
        density = np.exp(-0.5 * t * t) * (wb * _INV_SQRT_2PI) / scale
        weight = np.where(spread[:, None] & (ob < 0), density, 0.0)
        owned = np.flatnonzero(ob >= 0)
        weight[ob[owned], owned] = 1.0
        none, none_second, one = _leave_one_out(_cdf_matrix(xb, mu, sigma), first, second)
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


def _profile_arrays(profile: StabilityProfile) -> tuple[np.ndarray, np.ndarray]:
    mu = np.array([e.mu for e in profile.entries])
    sigma = np.array([e.sigma for e in profile.entries])
    return mu, sigma


def _rank_probabilities(
    profile: StabilityProfile, pruning_threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """(p#1, p#2) per entry, computed once per profile and threshold."""
    ranks = profile._ranks.get(pruning_threshold)
    if ranks is None:
        ranks = _rank_kernel(*_profile_arrays(profile), pruning_threshold)
        for values in ranks:
            values.setflags(write=False)
        profile._ranks[pruning_threshold] = ranks
    return ranks


def predict_p_hash1(
    profile: StabilityProfile,
    query: str,
    *,
    pruning_threshold: float = DEFAULT_PRUNING_THRESHOLD,
) -> float:
    """Probability that `query` is the target's nearest neighbor in one run.

    Integrates the query's similarity density against the product of the
    competitors' CDFs over mu +- 8 sigma.  Entries with probability below
    `pruning_threshold` of exceeding the highest-mean entry are pruned:
    as candidates they return 0 outright, and as competitors they are
    dropped from the CDF product.
    """
    profile.entry(query)
    p1, _ = _rank_probabilities(profile, pruning_threshold)
    return float(p1[profile._index[query]])


def predict_p_hash2(
    profile: StabilityProfile,
    query: str,
    *,
    pruning_threshold: float = DEFAULT_PRUNING_THRESHOLD,
) -> float:
    """Probability that `query` lands in the target's top-2 list in one run.

    Adds to the rank-1 probability the probability that exactly one other
    entry exceeds the query.  Pruning for that term is relative to the
    second-highest mean: an entry must have a non-negligible chance of
    cracking the top two to participate.
    """
    profile.entry(query)
    _, p2 = _rank_probabilities(profile, pruning_threshold)
    return float(p2[profile._index[query]])


def expected_overlap(
    profile: StabilityProfile,
    n: int,
    *,
    pruning_threshold: float = DEFAULT_PRUNING_THRESHOLD,
) -> float:
    """Expected top-n overlap fraction between two independent runs.

    Two runs agree on a top-n slot with probability p_#n(query) per query;
    summing the squares and dividing by the list size n gives the expected
    overlap fraction, which stays in [0, 1].
    """
    if n not in (1, 2):
        raise ValueError(f"n must be 1 or 2, got {n}")
    p = _rank_probabilities(profile, pruning_threshold)[n - 1]
    return min(1.0, float(p @ p) / n)


def structure_factor(
    profile: StabilityProfile,
    n: int,
    gamma: float | None = None,
    *,
    pruning_threshold: float = DEFAULT_PRUNING_THRESHOLD,
) -> float:
    """Expected overlap with every sigma replaced by the constant `gamma`.

    `gamma` defaults to the mean sigma of the profile.  The result isolates
    how much of the expected overlap is explained by the arrangement of the
    mean similarities alone, with the pair-level noise homogenized.
    """
    if gamma is None:
        gamma = float(np.mean([e.sigma for e in profile.entries]))
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    flattened = StabilityProfile(
        profile.target,
        tuple(
            PairStatistics(e.target, e.query, e.mu, gamma, e.r)
            for e in profile.entries
        ),
    )
    return expected_overlap(flattened, n, pruning_threshold=pruning_threshold)


def save_profile(profile: StabilityProfile, path: str) -> None:
    """Write a profile as TSV with columns: target query mu sigma r."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("target\tquery\tmu\tsigma\tr\n")
        for e in profile.entries:
            fh.write(f"{e.target}\t{e.query}\t{e.mu!r}\t{e.sigma!r}\t{e.r}\n")


def load_profile(path: str) -> StabilityProfile:
    """Read a profile written by save_profile."""
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line == "target\tquery\tmu\tsigma\tr":
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                raise ValueError(f"{path}:{lineno}: expected 5 columns, got {len(parts)}")
            target, query, mu, sigma, r = parts
            entries.append(PairStatistics(target, query, float(mu), float(sigma), int(r)))
    if not entries:
        raise ValueError(f"{path}: no profile rows")
    return StabilityProfile(entries[0].target, tuple(entries))
