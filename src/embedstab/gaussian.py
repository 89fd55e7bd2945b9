"""Gaussian model of how word-pair cosine similarities vary across runs.

Across repeated runs the cosine of a fixed (target, query) pair is modeled
as an independent Gaussian with parameters (mu, sigma) estimated per pair.
From a target's full profile of pair statistics the model predicts p#n,
the probability that a query lands within the top n of the target's
neighbor list in a fresh run, for any n >= 1, and from it the expected
top-n overlap between two fresh runs.

One kernel gives p#1 ... p#n for every query of a profile at once:
panel Gauss-Legendre nodes between the breakpoints mu + k sigma of all
entries, one matrix of competitor CDFs, and per entry and node the
distribution of how many other entries lie above, as a truncated product
of one polynomial per competitor.  The grid is fixed by the entries'
breakpoints, so there is no integration tolerance to set;
`pruning_threshold` is the only accuracy knob: an entry takes part in a
table of size n only if its chance of exceeding one of the n highest means
reaches it.  A table is computed once per profile, pruning threshold and
size and kept on the profile; p#1 and p#2 both read the size-2 table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import erfc as _erfc, ndtr as _ndtr, roots_legendre

from .space import (
    LoadError, RunSet, _positions, _read_lines, _unit_rows, _write_table, joint_vocabulary,
)

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
    # p#1 ... p#n tables per (pruning threshold, n), filled on first use.
    _ranks: dict[tuple[float, int], np.ndarray] = field(
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


def _prob_greater_vs(
    mu: np.ndarray, sigma: np.ndarray, mu0: np.ndarray | float, sigma0: np.ndarray | float
) -> np.ndarray:
    """P(entry > reference) under independent Gaussians, broadcast over the
    entries (mu, sigma) and the references (mu0, sigma0)."""
    mu, sigma, mu0, sigma0 = np.broadcast_arrays(mu, sigma, mu0, sigma0)
    variance = sigma * sigma + sigma0 * sigma0
    out = np.where(mu > mu0, 1.0, np.where(mu < mu0, 0.0, 0.5))
    positive = variance > 0.0
    if np.any(positive):
        arg = (mu[positive] - mu0[positive]) / np.sqrt(2.0 * variance[positive])
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


def _keep_mask(mu: np.ndarray, sigma: np.ndarray, threshold: float, n: int) -> np.ndarray:
    """Entries with a non-negligible chance of reaching the top n.

    An entry whose probability of exceeding each of the n highest means
    falls below `threshold` can neither reach the top-n list nor shift the
    survivors' integrals (its CDF factor is 1 there), so it is dropped.
    """
    ref = np.argsort(-mu, kind="stable")[:n]
    beats = _prob_greater_vs(mu[:, None], sigma[:, None], mu[ref], sigma[ref])
    return (beats >= threshold).any(axis=1)


def _poly_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of polynomials stacked along axis 0, truncated to their length."""
    out = a[0] * b
    for j in range(1, len(a)):
        out[j:] += a[j] * b[:-j]
    return out


def _others_above(cdf: np.ndarray, n: int) -> np.ndarray:
    """(n, entries, nodes) array: P(exactly c entries other than i lie above
    the node) for c < n.

    Entry j contributes the polynomial F_j + (1 - F_j) z, and entry i's
    distribution is the product over j != i, truncated at z^(n-1).  The
    inclusive prefix and suffix products come from a Hillis-Steele scan in
    log2(entries) steps, and entry i joins prefix(i - 1) with suffix(i + 1):
    no division, so CDF values of exactly 0 or 1 are safe.
    """
    poly = np.zeros((n, *cdf.shape))
    poly[0], poly[1:2] = cdf, 1.0 - cdf
    prefix, suffix = poly, poly.copy()
    step = 1
    while step < cdf.shape[0]:
        prefix[:, step:] = _poly_mul(prefix[:, :-step], prefix[:, step:])
        suffix[:, :-step] = _poly_mul(suffix[:, :-step], suffix[:, step:])
        step *= 2
    before, after = np.zeros_like(poly), np.zeros_like(poly)
    before[0, 0] = after[0, -1] = 1.0
    before[:, 1:], after[:, :-1] = prefix[:, :-1], suffix[:, 1:]
    return _poly_mul(before, after)


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
    mu: np.ndarray, sigma: np.ndarray, pruning_threshold: float, n: int
) -> np.ndarray:
    """(n, entries) table whose row m - 1 holds p#m of every entry.

    P(rank m) of entry i integrates its density against P(exactly m - 1
    other kept entries lie above); p#m sums ranks 1 to m.  Entries outside
    `_keep_mask` take no part and score 0.  Point masses tied at one mean
    share their ranks uniformly: at its own node, each of t + 1 tied masses
    with c others strictly above takes each rank c + 1 ... c + t + 1 with
    chance 1 / (t + 1).  Nodes are taken in blocks, so memory is
    O(n x entries x block).
    """
    table = np.zeros((n, mu.size))
    active = np.flatnonzero(_keep_mask(mu, sigma, pruning_threshold, n))
    mu, sigma = mu[active], sigma[active]
    spread = sigma > 0.0
    scale = np.where(spread, sigma, 1.0)[:, None]
    x, w, owner = _quadrature_nodes(mu, sigma)
    ties = np.zeros(active.size)  # other point masses at each one's mean
    _, group, size = np.unique(mu[~spread], return_inverse=True, return_counts=True)
    ties[~spread] = size[group] - 1
    lag = np.subtract.outer(np.arange(n), np.arange(n))[:, :, None]
    rank = np.zeros((n, active.size))
    block = max(1, _BLOCK_ELEMENTS // max(1, n * active.size))
    for start in range(0, x.size, block):
        xb, wb, ob = (a[start : start + block] for a in (x, w, owner))
        t = (xb - mu[:, None]) / scale
        density = np.exp(-0.5 * t * t) * (wb * _INV_SQRT_2PI) / scale
        weight = np.where(spread[:, None] & (ob < 0), density, 0.0)
        owned = np.flatnonzero(ob >= 0)
        mass = ob[owned]
        weight[mass, owned] = 1.0
        above = _others_above(_cdf_matrix(xb, mu, sigma), n)
        tied = ties[mass]
        window = ((lag >= 0) & (lag <= tied)) / (tied + 1.0)
        above[:, mass, owned] = np.einsum("cjm,jm->cm", window, above[:, mass, owned])
        rank += np.einsum("ij,cij->ci", weight, above)
    table[:, active] = np.clip(np.cumsum(rank, axis=0), 0.0, 1.0)
    return table


def _profile_arrays(profile: StabilityProfile) -> tuple[np.ndarray, np.ndarray]:
    mu = np.array([e.mu for e in profile.entries])
    sigma = np.array([e.sigma for e in profile.entries])
    return mu, sigma


def _rank_probabilities(
    profile: StabilityProfile, pruning_threshold: float, n: int = 2
) -> np.ndarray:
    """(max(n, 2), entries) table of p#1 ... p#max(n, 2), computed once per
    profile, threshold and size.

    p#1 and p#2 always come from the size-2 table, so p#1 <= p#2 holds
    exactly; tables of other sizes have other grids and may differ by ulps.
    """
    key = (pruning_threshold, max(n, 2))
    table = profile._ranks.get(key)
    if table is None:
        table = _rank_kernel(*_profile_arrays(profile), *key)
        table.setflags(write=False)
        profile._ranks[key] = table
    return table


def predict_p_hash1(
    profile: StabilityProfile,
    query: str,
    *,
    pruning_threshold: float = DEFAULT_PRUNING_THRESHOLD,
) -> float:
    """Probability that `query` is the target's nearest neighbor in one run.

    Integrates the query's similarity density against the product of the
    competitors' CDFs over mu +- 8 sigma.  Entries with probability below
    `pruning_threshold` of exceeding both of the two highest means are
    pruned: as candidates they return 0 outright, and as competitors they
    are dropped from the CDF product.
    """
    profile.entry(query)
    return float(_rank_probabilities(profile, pruning_threshold)[0, profile._index[query]])


def predict_p_hash2(
    profile: StabilityProfile,
    query: str,
    *,
    pruning_threshold: float = DEFAULT_PRUNING_THRESHOLD,
) -> float:
    """Probability that `query` lands in the target's top-2 list in one run.

    Adds to the rank-1 probability the probability that exactly one other
    entry exceeds the query, from the same kernel call, kept set and grid
    as `predict_p_hash1`, so p#2 >= p#1 exactly.
    """
    profile.entry(query)
    return float(_rank_probabilities(profile, pruning_threshold)[1, profile._index[query]])


def expected_overlap(
    profile: StabilityProfile,
    n: int,
    *,
    pruning_threshold: float = DEFAULT_PRUNING_THRESHOLD,
) -> float:
    """Expected top-n overlap fraction between two independent runs, n >= 1.

    Two runs agree on a top-n slot with probability p_#n(query) per query;
    summing the squares and dividing by the list size n gives the expected
    overlap fraction, which stays in [0, 1].  p_#n comes from the one rank
    kernel; pruning keeps the entries with a chance of at least
    `pruning_threshold` of exceeding one of the max(n, 2) highest means.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    p = _rank_probabilities(profile, pruning_threshold, n)[n - 1]
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


_PROFILE_COLUMNS = ["target", "query", "mu", "sigma", "r"]


def save_profile(profile: StabilityProfile, path: str) -> None:
    """Write a profile as TSV with columns: target query mu sigma r (floats by repr)."""
    rows = ((e.target, e.query, e.mu, e.sigma, e.r) for e in profile.entries)
    _write_table(path, rows, _PROFILE_COLUMNS)


def load_profile(path: str) -> StabilityProfile:
    """Read a profile written by save_profile, skipping header lines. Every
    fault is a LoadError naming the file, and the line if one is at fault."""
    entries = []
    for lineno, fields in _read_lines(path, "\t", 5, "5 columns"):
        if fields == _PROFILE_COLUMNS:
            continue
        target, query, mu, sigma, r = fields
        try:
            entries.append(PairStatistics(target, query, float(mu), float(sigma), int(r)))
        except ValueError as exc:
            raise LoadError(f"{path}:{lineno}: {exc}") from None
    if not entries:
        raise LoadError(f"{path}: no profile rows")
    try:
        return StabilityProfile(entries[0].target, tuple(entries))
    except ValueError as exc:
        raise LoadError(f"{path}: {exc}") from None
