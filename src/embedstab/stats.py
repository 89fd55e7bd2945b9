"""Rank correlation and normality tests used by the stability analyses.

Spearman is implemented here, with the t-approximation p-value on n - 2
degrees of freedom, because the `change` command ranks with it and must not
pay for importing `scipy.stats`.  Both tests import scipy on first use:
Spearman `scipy.special.stdtr`, and Shapiro-Wilk `scipy.stats.shapiro`
(Royston's AS R94 weights and normalizing transforms, valid for
3 <= n <= 5000), whose import takes longer than the rest of the package.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["average_ranks", "spearman", "shapiro_wilk"]


def average_ranks(xs: Sequence[float]) -> np.ndarray:
    """Ranks starting at 1; tied values share the average of their positions."""
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    order = np.argsort(xs, kind="stable")
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = np.arange(n)
    sorted_xs = xs[order]
    run_start = np.r_[True, sorted_xs[1:] != sorted_xs[:-1]]
    run_id = np.cumsum(run_start) - 1
    counts = np.bincount(run_id)
    starts = np.r_[0, np.cumsum(counts)[:-1]]
    mean_rank = starts + (counts - 1) / 2.0 + 1.0
    return mean_rank[run_id][inverse]


def spearman(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float]:
    """Spearman rank correlation and its two-sided t-approximation p-value.

    Returns (rho, p). Constant input leaves rho undefined; both values are
    returned as NaN in that case.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape:
        raise ValueError(f"length mismatch: {xs.size} vs {ys.size}")
    n = xs.size
    if n < 3:
        raise ValueError(f"need at least 3 observations, got {n}")
    rx = average_ranks(xs)
    ry = average_ranks(ys)
    dx = rx - rx.mean()
    dy = ry - ry.mean()
    denom = math.sqrt(float(dx @ dx) * float(dy @ dy))
    if denom == 0.0:
        return math.nan, math.nan
    rho = float(np.clip(float(dx @ dy) / denom, -1.0, 1.0))
    if abs(rho) == 1.0:
        return rho, 0.0
    from scipy.special import stdtr
    t = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return rho, min(p, 1.0)


def shapiro_wilk(xs: Sequence[float]) -> tuple[float, float]:
    """Shapiro-Wilk W statistic and p-value (`scipy.stats.shapiro`).

    Valid for sample sizes 3 <= n <= 5000; a constant sample is an error.
    """
    # Imported here: scipy.stats takes about a second to import, longer
    # than the rest of the package, and only this test needs it.
    from scipy.stats import shapiro

    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    if not 3 <= n <= 5000:
        raise ValueError(f"sample size must be in [3, 5000], got {n}")
    if xs.min() == xs.max():
        raise ValueError("all observations are equal; W is undefined")
    w, p = shapiro(xs)
    return float(w), float(p)
