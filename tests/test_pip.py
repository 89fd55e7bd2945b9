"""PIP-loss family: Gram-matrix distances, concentration, and predictions."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from embedstab import (
    EmbeddingSpace,
    PairStatistics,
    ProxySample,
    StabilityProfile,
    Vocabulary,
    chi_relative_width,
    expected_wordwise_pip,
    normalize,
    pip_loss,
    reduced_pip_loss,
    sample_proxy,
    wordwise_reduced_pip_loss,
)

from helpers import (
    planted_profile_runs,
    random_normalized_space,
    random_rotation,
    rotated_copy,
    words_for,
)


def two_word_spaces():
    # Identical first rows; second rows parallel vs antiparallel to them.
    space_a = EmbeddingSpace(
        Vocabulary(("u", "v")), np.array([[1.0, 0.0], [1.0, 0.0]]), normalized=True
    )
    space_b = EmbeddingSpace(
        Vocabulary(("u", "v")), np.array([[1.0, 0.0], [-1.0, 0.0]]), normalized=True
    )
    return space_a, space_b


class TestProxySample:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ProxySample(())
        with pytest.raises(ValueError, match="duplicate"):
            ProxySample(("a", "a"))

    def test_small_joint_vocabulary_is_used_whole(self):
        spaces = [random_normalized_space(10, 3, seed=s) for s in (0, 1)]
        proxy = sample_proxy(spaces, size=100, seed=5)
        assert proxy.words == spaces[0].vocab.words

    def test_subsampling_is_seeded_and_order_preserving(self):
        spaces = [random_normalized_space(50, 3, seed=s) for s in (2, 3)]
        proxy = sample_proxy(spaces, size=10, seed=7)
        again = sample_proxy(spaces, size=10, seed=7)
        other = sample_proxy(spaces, size=10, seed=8)
        assert proxy.words == again.words
        assert proxy.words != other.words
        assert len(proxy) == 10
        positions = [spaces[0].vocab.position(w) for w in proxy.words]
        assert positions == sorted(positions)

    def test_size_must_be_positive(self):
        spaces = [random_normalized_space(5, 3, seed=4)]
        with pytest.raises(ValueError, match="proxy size"):
            sample_proxy(spaces, size=0)


class TestPipLoss:
    def test_two_word_hand_example(self):
        # Gram matrices [[1,1],[1,1]] vs [[1,-1],[-1,1]]: the difference is
        # [[0,2],[2,0]], whose Frobenius norm is 2*sqrt(2).
        space_a, space_b = two_word_spaces()
        proxy = ProxySample(("u", "v"))
        gram_a = space_a.matrix @ space_a.matrix.T
        gram_b = space_b.matrix @ space_b.matrix.T
        want = np.linalg.norm(gram_a - gram_b)
        got = pip_loss(space_a, space_b, proxy)
        assert_allclose(got, want, rtol=1e-12)
        assert_allclose(got, 2.0 * math.sqrt(2.0), rtol=1e-12)
        assert_allclose(reduced_pip_loss(space_a, space_b, proxy),
                        math.sqrt(2.0) / 2.0, rtol=1e-12)

    def test_identical_spaces_score_zero(self):
        space = random_normalized_space(30, 6, seed=10)
        proxy = sample_proxy([space], size=30)
        assert pip_loss(space, space, proxy) == 0.0

    def test_invariant_under_rotation_and_reflection(self):
        space = random_normalized_space(40, 7, seed=11)
        proxy = sample_proxy([space], size=40)
        rotated = rotated_copy(space, seed=12)
        assert pip_loss(space, rotated, proxy) < 1e-10
        flipped = EmbeddingSpace(space.vocab, -space.matrix, normalized=True)
        assert pip_loss(space, flipped, proxy) < 1e-10

    def test_blocked_equals_full_computation(self):
        # The direct Gram difference is the oracle for the d x d sketch the
        # kernel works on; 600 proxy words in 5 dimensions.
        space_a = random_normalized_space(600, 5, seed=13)
        space_b = random_normalized_space(600, 5, seed=14)
        proxy = sample_proxy([space_a, space_b], size=600)
        a = space_a.matrix
        b = space_b.matrix
        want = np.linalg.norm(a @ a.T - b @ b.T)
        assert_allclose(pip_loss(space_a, space_b, proxy), want, rtol=1e-10)

    def test_symmetry(self):
        space_a = random_normalized_space(25, 4, seed=15)
        space_b = random_normalized_space(25, 4, seed=16)
        proxy = sample_proxy([space_a, space_b], size=25)
        assert_allclose(pip_loss(space_a, space_b, proxy),
                        pip_loss(space_b, space_a, proxy), rtol=1e-12)

    def test_requires_normalized_spaces(self):
        vocab = Vocabulary(("a", "b"))
        raw = EmbeddingSpace(vocab, np.array([[2.0, 0.0], [0.0, 3.0]]))
        proxy = ProxySample(("a", "b"))
        with pytest.raises(ValueError, match="not normalized"):
            pip_loss(raw, normalize(raw), proxy)
        with pytest.raises(ValueError, match="not normalized"):
            pip_loss(normalize(raw), raw, proxy)

    def test_reduced_loss_is_bounded(self):
        rng = np.random.default_rng(17)
        for v in (2, 10, 40):
            space = random_normalized_space(v, 5, seed=int(rng.integers(1e6)))
            flipper = random_normalized_space(v, 5, seed=int(rng.integers(1e6)))
            proxy = sample_proxy([space, flipper], size=v)
            value = reduced_pip_loss(space, flipper, proxy)
            assert 0.0 <= value <= 1.0


class TestPipOracle:
    @pytest.mark.parametrize("rotate", [False, True])
    @pytest.mark.parametrize("scale", [1e-9, 1e-8, 1e-7, 1e-6, 1e-4, 1e-2, 1.0])
    def test_sweep_against_direct_gram_difference(self, scale, rotate):
        # The second space is the first with every row perturbed by `scale`
        # and renormalized, optionally rotated.  Down to scale 1e-6 the kernel
        # matches the direct form within 1e-9.  Below it both forms are
        # limited by rounding of O(1) entries whose differences are O(scale),
        # so the bound grows as 1/scale.
        v, d, p = 60, 7, 50
        space_a = random_normalized_space(v, d, seed=24)
        a = space_a.matrix
        b = a + scale * np.random.default_rng(25).normal(size=a.shape)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        if rotate:
            b = b @ random_rotation(d, seed=26)
        space_b = EmbeddingSpace(space_a.vocab, b, normalized=True)
        proxy = ProxySample(space_a.vocab.words[:p])
        tolerance = max(1e-9, 1e-15 / scale)
        want = np.linalg.norm(a[:p] @ a[:p].T - b[:p] @ b[:p].T)
        assert_allclose(pip_loss(space_a, space_b, proxy), want, rtol=tolerance)
        # Every fifth word, ten of them inside the proxy and two outside it.
        for k in range(0, v, 5):
            word = space_a.vocab.words[k]
            want = np.linalg.norm(a[k] @ a[:p].T - b[k] @ b[:p].T) / (2.0 * math.sqrt(p))
            got = wordwise_reduced_pip_loss(word, space_a, space_b, proxy)
            assert_allclose(got, want, rtol=tolerance)


class TestPipInvariance:
    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 10**6),
        d=st.integers(1, 8),
        reflect=st.booleans(),
    )
    def test_orthogonal_maps_leave_pip_and_wordwise_pip_unchanged(self, seed, d, reflect):
        space_a = random_normalized_space(30, d, seed=seed)
        space_b = random_normalized_space(30, d, seed=seed + 1)
        rotation = random_rotation(d, seed=seed + 2)
        if reflect:
            rotation[:, 0] *= -1.0
        mapped = EmbeddingSpace(space_b.vocab, space_b.matrix @ rotation, normalized=True)
        proxy = ProxySample(space_a.vocab.words[:20])
        assert_allclose(pip_loss(space_a, mapped, proxy),
                        pip_loss(space_a, space_b, proxy), rtol=1e-12)
        for word in (proxy.words[3], space_a.vocab.words[25]):
            assert_allclose(wordwise_reduced_pip_loss(word, space_a, mapped, proxy),
                            wordwise_reduced_pip_loss(word, space_a, space_b, proxy),
                            rtol=1e-12)


class TestWordwisePip:
    def test_rms_of_wordwise_equals_reduced_loss(self):
        space_a = random_normalized_space(30, 5, seed=18)
        space_b = random_normalized_space(30, 5, seed=19)
        proxy = sample_proxy([space_a, space_b], size=30)
        wordwise = np.array([
            wordwise_reduced_pip_loss(w, space_a, space_b, proxy)
            for w in proxy.words
        ])
        rms = math.sqrt(float(np.mean(wordwise**2)))
        assert_allclose(rms, reduced_pip_loss(space_a, space_b, proxy), rtol=1e-12)

    def test_identical_spaces_give_zero(self):
        space = random_normalized_space(12, 4, seed=20)
        proxy = sample_proxy([space], size=12)
        assert wordwise_reduced_pip_loss(proxy.words[3], space, space, proxy) == 0.0

    def test_word_outside_proxy_is_allowed(self):
        space_a = random_normalized_space(20, 4, seed=21)
        space_b = random_normalized_space(20, 4, seed=22)
        proxy = ProxySample(space_a.vocab.words[:10])
        outside = space_a.vocab.words[15]
        value = wordwise_reduced_pip_loss(outside, space_a, space_b, proxy)
        row_a = space_a.matrix[:10] @ space_a.vector(outside)
        row_b = space_b.matrix[:10] @ space_b.vector(outside)
        want = np.linalg.norm(row_a - row_b) / (2.0 * math.sqrt(10))
        assert_allclose(value, want, rtol=1e-12)


class TestExpectedWordwisePip:
    def test_depends_only_on_sigmas(self):
        entries_a = tuple(
            PairStatistics("t", f"q{k}", 0.1 * k - 0.3, 0.05 * (k + 1), 8)
            for k in range(4)
        )
        entries_b = tuple(
            PairStatistics("t", f"q{k}", 0.0, 0.05 * (k + 1), 8) for k in range(4)
        )
        got_a = expected_wordwise_pip(StabilityProfile("t", entries_a))
        got_b = expected_wordwise_pip(StabilityProfile("t", entries_b))
        assert got_a == got_b
        sigmas = np.array([0.05, 0.10, 0.15, 0.20])
        want = math.sqrt(float(sigmas @ sigmas) / (2 * 4))
        assert_allclose(got_a, want, rtol=1e-12)

    def test_constant_sigma_closed_form(self):
        entries = tuple(PairStatistics("t", f"q{k}", 0.0, 0.2, 5) for k in range(9))
        got = expected_wordwise_pip(StabilityProfile("t", entries))
        assert_allclose(got, 0.2 / math.sqrt(2.0), rtol=1e-12)

    def test_prediction_matches_planted_noise_measurement(self):
        # Runs whose pair cosines are Gaussian draws with known sigma; the
        # measured mean wordwise loss must land within a few standard errors
        # of the prediction sqrt(sigma^2/2).
        sigma = 0.05
        queries = words_for(60, prefix="q")
        mu = {q: 0.0 for q in queries}
        runs = planted_profile_runs(
            "t", mu, {q: sigma for q in queries}, r=40, seed=23
        )
        proxy = ProxySample(queries)
        losses = []
        spaces = runs.spaces
        for i in range(0, len(spaces) - 1, 2):
            losses.append(
                wordwise_reduced_pip_loss("t", spaces[i], spaces[i + 1], proxy)
            )
        measured = float(np.mean(losses))
        predicted = sigma / math.sqrt(2.0)
        stderr = float(np.std(losses, ddof=1)) / math.sqrt(len(losses))
        assert abs(measured - predicted) < 3.0 * stderr + 1e-4


class TestChiRelativeWidth:
    def test_one_degree_of_freedom(self):
        # Half-normal: mu = sqrt(2/pi), var = 1 - 2/pi.
        want = math.sqrt(1.0 - 2.0 / math.pi) / math.sqrt(2.0 / math.pi)
        assert_allclose(chi_relative_width(1), want, rtol=1e-12)
        assert_allclose(chi_relative_width(1), 0.7555106397628678, rtol=1e-12)

    def test_matches_scipy_chi_moments(self):
        # Tolerance is set by the v - mu^2 cancellation, which costs both
        # routes ~v * eps of absolute precision in the variance.
        for v in (1, 2, 3, 10, 100, 4000):
            mean, variance = scipy.stats.chi.stats(v, moments="mv")
            want = math.sqrt(float(variance)) / float(mean)
            assert_allclose(chi_relative_width(v), want, rtol=1e-7)

    def test_shrinks_like_inverse_sqrt(self):
        # Width ratio between v = 100 and v = 10^4 is ~sqrt(100) = 10; the
        # 1 + 1/(8v) correction pushes it to ~10.0124.
        ratio = chi_relative_width(100) / chi_relative_width(10_000)
        assert_allclose(ratio, 10.0, rtol=2e-3)
        assert_allclose(ratio, 10.01231, rtol=1e-5)

    def test_asymptotic_width_at_large_v(self):
        assert_allclose(chi_relative_width(10**6),
                        1.0 / math.sqrt(2.0 * 10**6), rtol=5e-3)

    def test_huge_v_does_not_overflow(self):
        # Catastrophic cancellation in v - mu^2 caps the precision here; the
        # contract is only that the value stays finite and near-zero.
        width = chi_relative_width(10**8)
        assert math.isfinite(width)
        assert 0.0 <= width < 1e-3

    def test_validation(self):
        with pytest.raises(ValueError, match="degrees of freedom"):
            chi_relative_width(0)
