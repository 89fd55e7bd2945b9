"""Gaussian pair model: moment estimates, rank probabilities, expected overlap."""

import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

import embedstab.gaussian as gaussian

from embedstab import (
    LoadError,
    PairStatistics,
    RunSet,
    StabilityProfile,
    estimate_pair_stats,
    estimate_profile,
    expected_overlap,
    load_profile,
    predict_p_hash1,
    predict_p_hash2,
    prob_greater,
    save_profile,
    structure_factor,
)

from helpers import planted_cosine_space, rank_probabilities_oracle


def pair(query, mu, sigma, target="t", r=10):
    return PairStatistics(target, query, mu, sigma, r)


def profile_of(*entries):
    return StabilityProfile("t", tuple(entries))


def mc_rank_probabilities(mus, sigmas, n=2, draws=400_000, seed=0):
    """Monte-Carlo p_#1 ... p_#n per entry from independent Gaussian draws."""
    rng = np.random.default_rng(seed)
    samples = rng.normal(mus, sigmas, size=(draws, len(mus)))
    order = np.argsort(-samples, axis=1)
    return np.array([
        np.bincount(order[:, :m].ravel(), minlength=len(mus)) / draws
        for m in range(1, n + 1)
    ])


def quad_p_first(mus, sigmas, idx):
    """P(entry idx is max) via scipy.integrate.quad, an independent oracle."""
    others = [k for k in range(len(mus)) if k != idx]

    def integrand(x):
        value = scipy.stats.norm.pdf(x, mus[idx], sigmas[idx])
        for k in others:
            value *= scipy.stats.norm.cdf(x, mus[k], sigmas[k])
        return value

    lo = mus[idx] - 10 * sigmas[idx]
    hi = mus[idx] + 10 * sigmas[idx]
    return scipy.integrate.quad(integrand, lo, hi, limit=200)[0]


def quad_p_top2(mus, sigmas, idx):
    """P(entry idx in top 2): p_first plus one-entry-above terms via quad."""
    total = quad_p_first(mus, sigmas, idx)
    for above in range(len(mus)):
        if above == idx:
            continue
        rest = [k for k in range(len(mus)) if k not in (idx, above)]

        def integrand(x):
            value = scipy.stats.norm.pdf(x, mus[idx], sigmas[idx])
            value *= scipy.stats.norm.sf(x, mus[above], sigmas[above])
            for k in rest:
                value *= scipy.stats.norm.cdf(x, mus[k], sigmas[k])
            return value

        lo = mus[idx] - 10 * sigmas[idx]
        hi = mus[idx] + 10 * sigmas[idx]
        total += scipy.integrate.quad(integrand, lo, hi, limit=200)[0]
    return total


def quad_p_not_last(mus, sigmas, idx):
    """p_#(K-1) of entry idx: one minus P(entry idx is the minimum), via quad."""
    others = [k for k in range(len(mus)) if k != idx]

    def integrand(x):
        value = scipy.stats.norm.pdf(x, mus[idx], sigmas[idx])
        for k in others:
            value *= scipy.stats.norm.sf(x, mus[k], sigmas[k])
        return value

    lo = mus[idx] - 10 * sigmas[idx]
    hi = mus[idx] + 10 * sigmas[idx]
    points = [mus[k] for k in others if lo < mus[k] < hi]
    return 1.0 - scipy.integrate.quad(integrand, lo, hi, points=points, limit=400)[0]


def profile_from(mus, sigmas):
    return profile_of(*(pair(f"q{k}", float(m), float(s))
                        for k, (m, s) in enumerate(zip(mus, sigmas))))


def quad_rank_probabilities(mus, sigmas):
    """p_#1 and p_#2 of every entry via scipy.integrate.quad, with the
    competitor CDFs vectorized and the one-above term summed directly."""
    mus, sigmas = np.asarray(mus), np.asarray(sigmas)
    p1, p2 = np.empty(len(mus)), np.empty(len(mus))
    for i in range(len(mus)):
        others = np.arange(len(mus)) != i
        mu_c, sigma_c = mus[others], sigmas[others]

        def density(x):
            return scipy.stats.norm.pdf(x, mus[i], sigmas[i])

        def none_above(x):
            return density(x) * np.prod(scipy.special.ndtr((x - mu_c) / sigma_c))

        def one_above(x):
            cdf = scipy.special.ndtr((x - mu_c) / sigma_c)
            factors = np.tile(cdf, (len(cdf), 1))
            np.fill_diagonal(factors, 1.0 - cdf)
            return density(x) * factors.prod(axis=1).sum()

        lo = mus[i] - 10 * sigmas[i]
        hi = mus[i] + 10 * sigmas[i]
        points = [m for m in mu_c if lo < m < hi]
        p1[i] = scipy.integrate.quad(none_above, lo, hi, points=points, limit=400)[0]
        p2[i] = p1[i] + scipy.integrate.quad(
            one_above, lo, hi, points=points, limit=400
        )[0]
    return p1, p2


@st.composite
def random_profiles(draw):
    """Up to 12 entries; means include exact ties, sigmas include zero."""
    k = draw(st.integers(2, 12))
    mean = st.one_of(st.sampled_from([0.2, 0.5, 0.55]), st.floats(-0.9, 0.9))
    sigma = st.one_of(st.just(0.0), st.floats(0.005, 0.2))
    mus = draw(st.lists(mean, min_size=k, max_size=k))
    sigmas = draw(st.lists(sigma, min_size=k, max_size=k))
    return profile_of(*(pair(f"q{i}", m, s) for i, (m, s) in enumerate(zip(mus, sigmas))))


class TestPairStatistics:
    def test_validation(self):
        with pytest.raises(ValueError, match="sigma"):
            pair("q", 0.5, -0.1)
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="sigma"):
                pair("q", 0.5, bad)
        with pytest.raises(ValueError, match="sample count"):
            PairStatistics("t", "q", 0.5, 0.1, 0)
        with pytest.raises(ValueError, match="outside"):
            pair("q", 1.5, 0.1)

    def test_profile_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            StabilityProfile("t", ())
        with pytest.raises(ValueError, match="duplicate query"):
            profile_of(pair("a", 0.5, 0.1), pair("a", 0.4, 0.1))
        with pytest.raises(ValueError, match="!= profile target"):
            StabilityProfile("t", (PairStatistics("u", "a", 0.5, 0.1, 3),))
        with pytest.raises(ValueError, match="own queries"):
            profile_of(pair("t", 0.5, 0.1))

    def test_entry_lookup(self):
        profile = profile_of(pair("a", 0.5, 0.1), pair("b", 0.4, 0.2))
        assert profile.queries == ("a", "b")
        assert profile.entry("b").sigma == 0.2
        with pytest.raises(KeyError, match="not in profile"):
            profile.entry("zz")


class TestEstimation:
    def build_runs(self, cos_a, cos_b):
        spaces = tuple(
            planted_cosine_space("t", {"a": ca, "b": cb})
            for ca, cb in zip(cos_a, cos_b)
        )
        return RunSet(spaces)

    def test_pair_moments_match_numpy(self):
        cos_a = [0.62, 0.70, 0.66, 0.58]
        cos_b = [0.20, 0.10, 0.15, 0.19]
        runs = self.build_runs(cos_a, cos_b)
        got = estimate_pair_stats(runs, "t", "a")
        assert got.r == 4
        assert_allclose(got.mu, np.mean(cos_a), atol=1e-12)
        assert_allclose(got.sigma, np.std(cos_a), atol=1e-12)
        unbiased = estimate_pair_stats(runs, "t", "a", unbiased=True)
        assert_allclose(unbiased.sigma, np.std(cos_a, ddof=1), atol=1e-12)

    def test_profile_covers_joint_vocabulary_minus_target(self):
        runs = self.build_runs([0.5, 0.6], [0.1, 0.2])
        profile = estimate_profile(runs, "t")
        assert profile.target == "t"
        assert profile.queries == ("a", "b")
        assert_allclose(profile.entry("b").mu, 0.15, atol=1e-12)

    def test_explicit_queries_and_errors(self):
        runs = self.build_runs([0.5, 0.6], [0.1, 0.2])
        profile = estimate_profile(runs, "t", ["b"])
        assert profile.queries == ("b",)
        with pytest.raises(ValueError, match="own queries"):
            estimate_profile(runs, "t", ["t", "a"])
        with pytest.raises(ValueError, match="target and query"):
            estimate_pair_stats(runs, "t", "t")

    def test_single_run_gives_zero_sigma(self):
        runs = self.build_runs([0.5], [0.1])
        got = estimate_pair_stats(runs, "t", "a")
        assert (got.mu, got.sigma, got.r) == (0.5, 0.0, 1)


class TestProbGreater:
    def test_matches_normal_cdf_oracle(self):
        cases = [
            (0.8, 0.05, 0.7, 0.12),
            (0.3, 0.2, 0.5, 0.1),
            (0.0, 1.0, 0.0, 1.0),
            (0.6, 0.02, 0.3, 0.02),
        ]
        for mu_a, s_a, mu_b, s_b in cases:
            got = prob_greater(pair("a", mu_a, s_a), pair("b", mu_b, s_b))
            want = scipy.stats.norm.sf(0.0, mu_a - mu_b, math.hypot(s_a, s_b))
            assert_allclose(got, want, rtol=1e-12, atol=1e-300)

    def test_complement_sums_to_one_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a = pair("a", rng.uniform(-1, 1), rng.uniform(0, 0.3))
            b = pair("b", rng.uniform(-1, 1), rng.uniform(0, 0.3))
            assert prob_greater(a, b) + prob_greater(b, a) == 1.0

    def test_far_tail_does_not_saturate(self):
        # 15 sigma apart: erf would round to 1.0; erfc keeps the mass.
        a = pair("a", 0.6, 0.02)
        b = pair("b", 0.3, 0.02)
        low = prob_greater(b, a)
        want = scipy.stats.norm.sf((0.6 - 0.3) / math.hypot(0.02, 0.02))
        assert 0.0 < low < 1e-25
        assert_allclose(low, want, rtol=1e-10)

    def test_zero_sigma_branches(self):
        assert prob_greater(pair("a", 0.5, 0.0), pair("b", 0.4, 0.0)) == 1.0
        assert prob_greater(pair("a", 0.4, 0.0), pair("b", 0.5, 0.0)) == 0.0
        assert prob_greater(pair("a", 0.4, 0.0), pair("b", 0.4, 0.0)) == 0.5
        # one-sided degenerate: reduces to the other Gaussian's CDF
        got = prob_greater(pair("a", 0.5, 0.1), pair("b", 0.4, 0.0))
        assert_allclose(got, scipy.stats.norm.cdf((0.5 - 0.4) / 0.1), rtol=1e-12)


class TestRankProbabilities:
    def test_exchangeable_queries_split_rank_one_evenly(self):
        entries = [pair(f"q{k}", 0.5, 0.1) for k in range(4)]
        profile = profile_of(*entries)
        for entry in entries:
            assert_allclose(predict_p_hash1(profile, entry.query), 0.25, atol=1e-5)

    def test_two_queries_always_fill_top_two(self):
        profile = profile_of(pair("a", 0.9, 0.01), pair("b", -0.5, 0.01))
        assert_allclose(predict_p_hash2(profile, "a"), 1.0, atol=1e-9)
        assert_allclose(predict_p_hash2(profile, "b"), 1.0, atol=1e-9)

    def test_three_exchangeable_queries_top_two(self):
        profile = profile_of(*(pair(f"q{k}", 0.4, 0.15) for k in range(3)))
        for k in range(3):
            assert_allclose(predict_p_hash2(profile, f"q{k}"), 2 / 3, atol=1e-4)

    def test_dominant_query_takes_rank_one(self):
        profile = profile_of(pair("big", 0.9, 0.01), pair("small", 0.2, 0.01))
        assert_allclose(predict_p_hash1(profile, "big"), 1.0, atol=1e-9)
        # big's CDF at small's nodes, 70 of its sigmas out, rounds to 0.
        assert predict_p_hash1(profile, "small") == 0.0

    def test_matches_quad_oracle(self):
        mus = [0.62, 0.60, 0.55, 0.50, 0.30]
        sigmas = [0.05, 0.04, 0.08, 0.03, 0.10]
        profile = profile_of(*(pair(f"q{k}", m, s) for k, (m, s) in
                               enumerate(zip(mus, sigmas))))
        for k in range(5):
            p1 = predict_p_hash1(profile, f"q{k}")
            p2 = predict_p_hash2(profile, f"q{k}")
            assert_allclose(p1, quad_p_first(mus, sigmas, k), atol=5e-6)
            assert_allclose(p2, quad_p_top2(mus, sigmas, k), atol=2e-5)

    def test_matches_monte_carlo(self):
        mus = [0.70, 0.65, 0.64, 0.40]
        sigmas = [0.06, 0.05, 0.07, 0.12]
        profile = profile_of(*(pair(f"q{k}", m, s) for k, (m, s) in
                               enumerate(zip(mus, sigmas))))
        p1_mc, p2_mc = mc_rank_probabilities(mus, sigmas, seed=7)
        for k in range(4):
            assert_allclose(predict_p_hash1(profile, f"q{k}"), p1_mc[k], atol=5e-3)
            assert_allclose(predict_p_hash2(profile, f"q{k}"), p2_mc[k], atol=5e-3)

    def test_probabilities_sum_to_counts(self):
        rng = np.random.default_rng(8)
        mus = rng.uniform(0.3, 0.7, size=6)
        sigmas = rng.uniform(0.02, 0.15, size=6)
        profile = profile_of(*(pair(f"q{k}", float(m), float(s)) for k, (m, s)
                               in enumerate(zip(mus, sigmas))))
        p1s = [predict_p_hash1(profile, q) for q in profile.queries]
        p2s = [predict_p_hash2(profile, q) for q in profile.queries]
        assert_allclose(sum(p1s), 1.0, atol=1e-4)
        assert_allclose(sum(p2s), 2.0, atol=1e-4)
        assert all(p2 >= p1 for p1, p2 in zip(p1s, p2s))
        for n in (3, 5):
            table = gaussian._rank_probabilities(profile, gaussian.DEFAULT_PRUNING_THRESHOLD, n)
            assert_allclose(table.sum(axis=1), np.arange(1, n + 1), atol=1e-4)
            assert np.all(np.diff(table, axis=0) >= 0.0)

    def test_rank_two_sums_to_two_when_the_masks_differ(self):
        # Pruning for rank 1 drops q6, which pruning for rank 2 keeps.  A p#2
        # built as p#1 over one kept set plus P(one above) over another
        # counts some cases twice and sums to 1.99998649; one kept set and
        # one polynomial product sum to 2.
        mus = [0.766, 0.794, 0.631, 0.700, 0.685, 0.612, 0.583, 0.735]
        sigmas = [0.0076, 0.0066, 0.0184, 0.0206, 0.0092, 0.0126, 0.0294, 0.0120]
        profile = profile_from(mus, sigmas)
        p2 = [predict_p_hash2(profile, q) for q in profile.queries]
        assert_allclose(sum(p2), 2.0, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("n", [5, 10])
    def test_top_n_matches_monte_carlo(self, n):
        rng = np.random.default_rng(n)
        mus = rng.uniform(0.45, 0.7, size=12)
        sigmas = rng.uniform(0.02, 0.1, size=12)
        profile = profile_from(mus, sigmas)
        mc = mc_rank_probabilities(mus, sigmas, n, seed=n)
        table = gaussian._rank_probabilities(profile, gaussian.DEFAULT_PRUNING_THRESHOLD, n)
        assert_allclose(table, mc, atol=5e-3)
        assert_allclose(expected_overlap(profile, n), mc[-1] @ mc[-1] / n, atol=5e-3)

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_all_but_last_matches_quad_oracle(self, k):
        rng = np.random.default_rng(100 + k)
        mus = rng.uniform(0.4, 0.6, size=k)
        sigmas = rng.uniform(0.02, 0.1, size=k)
        profile = profile_from(mus, sigmas)
        got = gaussian._rank_probabilities(profile, 0.0, k - 1)[k - 2]
        want = [quad_p_not_last(mus, sigmas, i) for i in range(k)]
        assert_allclose(got, want, atol=1e-6)

    def test_zero_sigma_query_integrates_as_point_mass(self):
        profile = profile_of(pair("fixed", 0.55, 0.0), pair("noisy", 0.5, 0.1))
        want = scipy.stats.norm.cdf((0.55 - 0.5) / 0.1)
        assert_allclose(predict_p_hash1(profile, "fixed"), want, rtol=1e-9)

    def test_unknown_query_raises(self):
        profile = profile_of(pair("a", 0.5, 0.1))
        with pytest.raises(KeyError):
            predict_p_hash1(profile, "zz")

    def test_matches_quad_oracle_without_pruning(self):
        # K = 40 with pruning off: every entry enters every integral, so the
        # quadrature alone must carry the accuracy.
        rng = np.random.default_rng(40)
        mus = rng.uniform(0.2, 0.8, 40)
        sigmas = rng.uniform(0.002, 0.08, 40)
        profile = profile_of(*(pair(f"q{k}", float(m), float(s)) for k, (m, s)
                               in enumerate(zip(mus, sigmas))))
        p1 = [predict_p_hash1(profile, q, pruning_threshold=0.0) for q in profile.queries]
        p2 = [predict_p_hash2(profile, q, pruning_threshold=0.0) for q in profile.queries]
        want1, want2 = quad_rank_probabilities(mus, sigmas)
        assert_allclose(p1, want1, atol=5e-6)
        assert_allclose(p2, want2, atol=2e-5)

    def test_pruning_threshold_changes_little(self):
        mus = [0.62, 0.60, 0.55, 0.50, 0.30, -0.2, -0.4]
        sigmas = [0.05, 0.04, 0.08, 0.03, 0.10, 0.05, 0.02]
        profile = profile_of(*(pair(f"q{k}", m, s) for k, (m, s) in
                               enumerate(zip(mus, sigmas))))
        loose = predict_p_hash1(profile, "q0")
        exact = predict_p_hash1(profile, "q0", pruning_threshold=0.0)
        assert_allclose(loose, exact, atol=2e-5)


class TestRankKernel:
    @settings(max_examples=150)
    @given(random_profiles(), st.sampled_from([0.0, gaussian.DEFAULT_PRUNING_THRESHOLD]))
    def test_probabilities_sum_to_counts(self, profile, threshold):
        p1 = np.array([predict_p_hash1(profile, q, pruning_threshold=threshold)
                       for q in profile.queries])
        p2 = np.array([predict_p_hash2(profile, q, pruning_threshold=threshold)
                       for q in profile.queries])
        # Pruning drops each entry whose chance of reaching a rank is below
        # the threshold, so it may move a sum by up to K times the threshold.
        atol = 1e-6 + len(profile) * threshold
        assert_allclose(p1.sum(), 1.0, atol=atol)
        assert_allclose(p2.sum(), 2.0, atol=atol)
        assert np.all(p2 >= p1)
        for n in (3, 5):
            table = gaussian._rank_probabilities(profile, threshold, n)
            counts = np.minimum(np.arange(1, n + 1), len(profile))
            assert_allclose(table.sum(axis=1), counts, atol=atol)
            assert np.all(np.diff(table, axis=0) >= 0.0)

    @settings(max_examples=150)
    @given(random_profiles())
    def test_rank_two_table_matches_the_two_state_oracle(self, profile):
        mu, sigma = gaussian._profile_arrays(profile)
        want = rank_probabilities_oracle(mu, sigma, 0.0)
        got = gaussian._rank_probabilities(profile, 0.0)
        assert_allclose(got, want, rtol=0.0, atol=1e-14)

    @settings(max_examples=50)
    @given(random_profiles())
    def test_per_query_reads_equal_the_batch(self, profile):
        twin = profile_of(*profile.entries)
        batch1, batch2 = gaussian._rank_probabilities(
            twin, gaussian.DEFAULT_PRUNING_THRESHOLD
        )
        assert [predict_p_hash1(profile, q) for q in profile.queries] == batch1.tolist()
        assert [predict_p_hash2(profile, q) for q in profile.queries] == batch2.tolist()
        for n, batch in ((1, batch1), (2, batch2)):
            assert expected_overlap(twin, n) == min(1.0, float(batch @ batch) / n)

    @pytest.mark.parametrize("m", [3, 4])
    @pytest.mark.parametrize("threshold", [0.0, gaussian.DEFAULT_PRUNING_THRESHOLD])
    def test_tied_point_masses_share_their_ranks(self, m, threshold):
        # m point masses at one mean over a point mass below them: each is
        # on top with chance 1/m and in the top two with chance 2/m.
        profile = profile_of(*(pair(f"q{i}", 0.5, 0.0) for i in range(m)),
                             pair("low", 0.1, 0.0))
        ties = [f"q{i}" for i in range(m)]
        p1 = [predict_p_hash1(profile, q, pruning_threshold=threshold) for q in ties]
        p2 = [predict_p_hash2(profile, q, pruning_threshold=threshold) for q in ties]
        assert_allclose(p1, 1.0 / m, rtol=1e-12)
        assert_allclose(p2, min(1.0, 2.0 / m), rtol=1e-12)
        assert predict_p_hash2(profile, "low", pruning_threshold=threshold) == 0.0
        assert_allclose(expected_overlap(profile, 1, pruning_threshold=threshold),
                        1.0 / m, rtol=1e-12)
        for n in (3, 5):
            p = gaussian._rank_probabilities(profile, threshold, n)[n - 1]
            assert_allclose(p[:m], min(1.0, n / m), rtol=1e-12)
            assert p[m] == (1.0 if n > m else 0.0)

    def test_tied_point_masses_beside_a_gaussian_at_their_mean(self):
        # N(0.5, 0.05) lies above the three masses at 0.5 half of the time;
        # then they share ranks 2 to 4, otherwise ranks 1 to 3.
        profile = profile_of(*(pair(f"q{i}", 0.5, 0.0) for i in range(3)),
                             pair("g", 0.5, 0.05))
        p1 = [predict_p_hash1(profile, q) for q in profile.queries]
        p2 = [predict_p_hash2(profile, q) for q in profile.queries]
        assert_allclose(p1, [1 / 6, 1 / 6, 1 / 6, 0.5], atol=1e-9)
        assert_allclose(p2, [0.5, 0.5, 0.5, 0.5], atol=1e-9)
        threshold = gaussian.DEFAULT_PRUNING_THRESHOLD
        p3 = gaussian._rank_probabilities(profile, threshold, 3)[2]
        assert_allclose(p3, [5 / 6, 5 / 6, 5 / 6, 0.5], atol=1e-9)
        p5 = gaussian._rank_probabilities(profile, threshold, 5)[4]
        assert_allclose(p5, 1.0, atol=1e-9)

    def test_kernel_runs_once_per_profile_and_threshold(self, monkeypatch):
        calls = []
        kernel = gaussian._rank_kernel

        def counting(*args):
            calls.append(args[2:])
            return kernel(*args)

        monkeypatch.setattr(gaussian, "_rank_kernel", counting)
        profile = profile_of(*(pair(f"q{k}", 0.5 - 0.05 * k, 0.04) for k in range(6)))
        for query in profile.queries:
            predict_p_hash1(profile, query)
            predict_p_hash2(profile, query)
        expected_overlap(profile, 1)
        expected_overlap(profile, 2)
        default = gaussian.DEFAULT_PRUNING_THRESHOLD
        assert calls == [(default, 2)]
        expected_overlap(profile, 3)
        expected_overlap(profile, 3)
        predict_p_hash1(profile, "q0", pruning_threshold=0.0)
        assert calls == [(default, 2), (default, 3), (0.0, 2)]


class TestExpectedOverlap:
    def test_exchangeable_closed_form(self):
        # k exchangeable queries: p_#1 = 1/k each, expected top-1 overlap 1/k.
        for k in (2, 4):
            profile = profile_of(*(pair(f"q{i}", 0.5, 0.1) for i in range(k)))
            assert_allclose(expected_overlap(profile, 1), 1 / k, atol=1e-4)

    def test_two_queries_top_two_is_certain(self):
        profile = profile_of(pair("a", 0.6, 0.05), pair("b", 0.2, 0.2))
        assert_allclose(expected_overlap(profile, 2), 1.0, atol=1e-8)

    def test_matches_sum_of_squares(self):
        mus = [0.62, 0.60, 0.55, 0.30]
        sigmas = [0.05, 0.04, 0.08, 0.10]
        profile = profile_of(*(pair(f"q{k}", m, s) for k, (m, s) in
                               enumerate(zip(mus, sigmas))))
        p1s = [predict_p_hash1(profile, q) for q in profile.queries]
        assert_allclose(expected_overlap(profile, 1), sum(p * p for p in p1s),
                        rtol=1e-12)
        p2s = [predict_p_hash2(profile, q) for q in profile.queries]
        assert_allclose(expected_overlap(profile, 2), sum(p * p for p in p2s) / 2,
                        rtol=1e-12)

    def test_deterministic_profile_gives_full_overlap(self):
        profile = profile_of(pair("a", 0.9, 0.0), pair("b", 0.5, 0.0),
                             pair("c", 0.1, 0.0))
        assert expected_overlap(profile, 1) == 1.0
        assert expected_overlap(profile, 2) == 1.0

    def test_list_size_below_one_rejected(self):
        profile = profile_of(pair("a", 0.5, 0.1), pair("b", 0.4, 0.1))
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be >= 1"):
                expected_overlap(profile, n)
            with pytest.raises(ValueError, match="n must be >= 1"):
                structure_factor(profile, n)


class TestStructureFactor:
    def test_flattening_to_constant_sigma(self):
        profile = profile_of(pair("a", 0.6, 0.10), pair("b", 0.5, 0.20),
                             pair("c", 0.4, 0.30))
        flattened = profile_of(pair("a", 0.6, 0.2), pair("b", 0.5, 0.2),
                               pair("c", 0.4, 0.2))
        assert_allclose(structure_factor(profile, 1),
                        expected_overlap(flattened, 1), rtol=1e-12)
        assert_allclose(structure_factor(profile, 1, gamma=0.05),
                        expected_overlap(profile_of(
                            pair("a", 0.6, 0.05), pair("b", 0.5, 0.05),
                            pair("c", 0.4, 0.05)), 1), rtol=1e-12)

    def test_already_constant_sigma_is_a_fixed_point(self):
        profile = profile_of(pair("a", 0.6, 0.1), pair("b", 0.5, 0.1),
                             pair("c", 0.55, 0.1), pair("d", 0.45, 0.1))
        for n in (1, 2, 3, 5):
            assert_allclose(structure_factor(profile, n),
                            expected_overlap(profile, n), rtol=1e-12)

    def test_gamma_zero_freezes_the_ranking(self):
        profile = profile_of(pair("a", 0.6, 0.3), pair("b", 0.5, 0.3))
        assert structure_factor(profile, 1, gamma=0.0) == 1.0

    def test_negative_gamma_rejected(self):
        profile = profile_of(pair("a", 0.6, 0.1))
        with pytest.raises(ValueError, match="gamma"):
            structure_factor(profile, 1, gamma=-0.5)


class TestProfileIO:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        entries = tuple(
            pair(f"q{k}", float(rng.uniform(-1, 1)), float(rng.uniform(0, 0.4)),
                 r=int(rng.integers(1, 50)))
            for k in range(20)
        )
        profile = profile_of(*entries)
        path = str(tmp_path / "profile.tsv")
        save_profile(profile, path)
        loaded = load_profile(path)
        assert loaded == profile  # dataclass equality: floats must round-trip

    def test_faults_name_file_and_line(self, tmp_path):
        path = tmp_path / "profile.tsv"
        header = "target\tquery\tmu\tsigma\tr\n"
        for body, message in (
            ("t\ta\tx\t0.1\t3\n", f"{path}:2: could not convert string to float: 'x'"),
            ("t\ta\t0.5\t-0.1\t3\n", f"{path}:2: sigma must be finite and >= 0, got -0.1"),
            ("t\ta\t0.5\t0.1\t3\nt\tb\t0.5\t0.1\t2.5\n", f"{path}:3: invalid literal for int()"),
            ("t\ta\t1.5\t0.1\t3\n", f"{path}:2: mean cosine 1.5 outside [-1, 1]"),
            ("t\ta\t0.5\t0.1\t0\n", f"{path}:2: sample count must be >= 1, got 0"),
            ("t\ta\t0.5\t0.1\t3\nt\ta\t0.4\t0.1\t3\n", f"{path}: duplicate query 'a'"),
            ("t\ta\t0.5\t0.1\t3\nu\tb\t0.4\t0.1\t3\n",
             f"{path}: entry target 'u' != profile target 't'"),
            ("t\tt\t0.5\t0.1\t3\n", f"{path}: target may not appear among its own queries"),
        ):
            path.write_text(header + body)
            with pytest.raises(LoadError) as caught:
                load_profile(str(path))
            assert str(caught.value).startswith(message)

    def test_malformed_rows(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("target\tquery\tmu\tsigma\tr\nt\ta\t0.5\n")
        with pytest.raises(ValueError, match="expected 5 columns"):
            load_profile(str(path))
        nan_sigma = tmp_path / "nan.tsv"
        nan_sigma.write_text("target\tquery\tmu\tsigma\tr\nt\ta\t0.5\tnan\t3\n")
        with pytest.raises(ValueError, match="sigma"):
            load_profile(str(nan_sigma))
        empty = tmp_path / "empty.tsv"
        empty.write_text("target\tquery\tmu\tsigma\tr\n")
        with pytest.raises(ValueError, match="no profile rows"):
            load_profile(str(empty))
