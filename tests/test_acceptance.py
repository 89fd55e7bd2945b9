"""End-to-end acceptance suite: eleven numbered criteria, one line each under -v.

Each criterion exercises a headline behavior of the toolkit end to end —
analytic pins, planted-signal recovery, and statistical calibration — with
every seed and tolerance pinned.  Criterion 1 carries one strict-xfail test
documenting a reference value that disagrees with the exactly computed
probability (the companion test pins the attainable parts).
"""

import itertools
import math
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from helpers import (
    block_objective,
    finite_difference_gradients,
    planted_profile_runs,
    random_normalized_space,
    rotated_copy,
    two_topic_corpus,
)

from embedstab import (
    RunSet,
    SgnsConfig,
    aligned_average_tree,
    bias_variance_report,
    build_change_report,
    control_condition,
    frequency_effect,
    list_overlap,
    normalize,
    p_to_j,
    procrustes,
    prob_greater,
    reduced_pip_loss,
    sample,
    sample_proxy,
    sample_word_pairs,
    semantic_change,
    train,
)
from embedstab.corpus import Corpus, SamplingMode
from embedstab.gaussian import PairStatistics, StabilityProfile, predict_p_hash1
from embedstab.pip_loss import (
    ProxySample,
    chi_relative_width,
    expected_wordwise_pip,
    wordwise_reduced_pip_loss,
)
from embedstab.sgns import _block_update, _window_pairs
from embedstab.stats import shapiro_wilk, spearman


def _clone(config: SgnsConfig, seed: int) -> SgnsConfig:
    return SgnsConfig(**{**config.__dict__, "seed": seed})


def _shuffled_runs(corpus, config, seeds):
    """One normalized SGNS space per seed, each on a freshly shuffled corpus."""
    spaces = []
    for s in seeds:
        sampled = sample(corpus, SamplingMode("shuffled", s))
        spaces.append(normalize(train(sampled, _clone(config, s))))
    return spaces


def _ks_uniform(ps) -> float:
    """Kolmogorov-Smirnov distance between a sample and Uniform(0, 1)."""
    ps = np.sort(np.asarray(ps, dtype=float))
    n = len(ps)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - ps), np.max(ps - (i - 1) / n)))


# --- criterion 1: two-Gaussian exceedance probability worked example --------

_PG_A = dict(mu=0.489, sigma=0.009)
_PG_B = dict(mu=0.650, sigma=0.010)


@pytest.mark.xfail(
    strict=True,
    reason="the 2.74e-33 reference value comes from the rounded erf argument "
    "-8.46; the exactly computed probability is 2.6442e-33, 3.5% away "
    "(companion test pins both numbers)",
)
def test_criterion_01_reference_probability_within_two_percent():
    p = prob_greater(
        PairStatistics("t", "a", _PG_A["mu"], _PG_A["sigma"], 10),
        PairStatistics("t", "b", _PG_B["mu"], _PG_B["sigma"], 10),
    )
    assert abs(p - 2.74e-33) / 2.74e-33 <= 0.02


def test_criterion_01_exceedance_probability_and_erf_argument():
    start = time.perf_counter()
    a = PairStatistics("t", "a", _PG_A["mu"], _PG_A["sigma"], 10)
    b = PairStatistics("t", "b", _PG_B["mu"], _PG_B["sigma"], 10)
    p = prob_greater(a, b)
    elapsed = time.perf_counter() - start

    # Exactly computed probability, frozen; it sits 3.5% from the 2.74e-33
    # reference value, which is why the sibling test is a strict xfail.
    np.testing.assert_allclose(p, 2.6442208586858635e-33, rtol=1e-12)
    assert 0.03 < abs(p - 2.74e-33) / 2.74e-33 < 0.04

    # The erf argument hits the quoted -8.46 within 0.01 ...
    arg = (a.mu - b.mu) / math.hypot(a.sigma, b.sigma) / math.sqrt(2.0)
    assert abs(arg - (-8.46)) < 0.01
    # ... and re-deriving the probability from the ROUNDED argument lands on
    # the reference value within 2%, identifying its provenance.
    assert abs(math.erfc(8.46) / 2.0 - 2.74e-33) / 2.74e-33 <= 0.02

    assert elapsed < 1e-3


# --- criterion 2: overlap metrics on a fixed pair of ranked lists -----------


def test_criterion_02_overlap_metrics_on_fixed_ranked_lists():
    # Two 15-word rankings sharing 8 of the top 10 and 11 of the top 15.
    a_list = [f"a{i:02d}" for i in range(15)]
    b_list = (
        a_list[:8] + ["x0", "x1"] + a_list[8:11] + ["x2", "x3"]
    )
    at_10 = list_overlap(a_list, b_list, 10)
    at_15 = list_overlap(a_list, b_list, 15)

    assert at_10.m == 8 and at_15.m == 11
    assert at_10.p_at_n == 8 / 10 == 0.8
    assert at_10.j_at_n == 8 / 12
    assert at_15.p_at_n == 11 / 15
    assert at_15.j_at_n == 11 / 19
    assert f"{at_10.j_at_n:.4f}" == "0.6667"
    assert f"{at_15.p_at_n:.4f}" == "0.7333"
    assert f"{at_15.j_at_n:.4f}" == "0.5789"


# --- criterion 3: Jaccard/overlap conversion identity ------------------------


def test_criterion_03_jaccard_overlap_conversion_identity():
    for n in range(1, 51):
        shared = [f"s{i:02d}" for i in range(n)]
        for m in range(n + 1):
            a_list = shared[:m] + [f"a{i:02d}" for i in range(n - m)]
            b_list = shared[:m] + [f"b{i:02d}" for i in range(n - m)]
            measurement = list_overlap(a_list, b_list, n)
            assert measurement.m == m
            assert abs(measurement.j_at_n - p_to_j(measurement.p_at_n)) < 1e-12


# --- criterion 4: invariance of every comparison under a planted rotation ---


def test_criterion_04_rotation_invariance():
    start = time.perf_counter()
    for i in range(20):
        space = random_normalized_space(2000, 50, seed=400 + i)
        rotated = rotated_copy(space, seed=600 + i)
        proxy = sample_proxy([space, rotated], seed=i)

        assert reduced_pip_loss(space, rotated, proxy) < 1e-6
        alignment = procrustes(space, rotated)
        assert alignment.residual < 1e-6
        deltas = [
            semantic_change(word, space, rotated, alignment)
            for word in space.vocab.words
        ]
        assert max(deltas) < 1e-6
    assert time.perf_counter() - start < 10.0


# --- criterion 5: nearest-neighbor probability vs Monte Carlo ----------------


def _criterion_05_profile(
    k: int, mus: np.ndarray, sigmas: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted top-1 probabilities of profile k, their Monte-Carlo oracle
    and the top-1 frequencies observed over 128 simulated runs."""
    profile = StabilityProfile(
        "t",
        tuple(
            PairStatistics("t", f"q{i:02d}", float(mus[i]), float(sigmas[i]), 64)
            for i in range(50)
        ),
    )
    predicted = np.array([predict_p_hash1(profile, q) for q in profile.queries])

    # Monte-Carlo oracle: one million independent similarity draws per
    # profile, in chunks; the arg-max histogram estimates every query's
    # top-1 probability with standard error <= 5e-4.  Scaling standard
    # normals in place gives the draws of mc_rng.normal(mus, sigmas,
    # size=draws.shape) bit for bit, without a fresh array per chunk.
    mc_rng = np.random.default_rng(10_000 + k)
    counts = np.zeros(50, dtype=np.int64)
    draws = np.empty((100_000, 50))
    for _ in range(10):
        mc_rng.standard_normal(out=draws)
        draws *= sigmas
        draws += mus
        counts += np.bincount(np.argmax(draws, axis=1), minlength=50)

    # Small-sample "observed" frequencies over 128 simulated runs.
    run_rng = np.random.default_rng(77_000 + k)
    runs = run_rng.normal(mus, sigmas, size=(128, 50))
    measured = np.bincount(np.argmax(runs, axis=1), minlength=50) / 128.0
    return predicted, counts / 1e6, measured


def test_criterion_05_rank_probability_matches_monte_carlo():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    profiles = [(rng.uniform(0.2, 0.8, 50), rng.uniform(0.002, 0.08, 50)) for _ in range(100)]
    # The oracle's draws dominate the time; each profile's draws are seeded
    # by its index, so spreading profiles over processes changes no value.
    workers = min(4, len(os.sched_getaffinity(0)))
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        results = list(
            pool.map(_criterion_05_profile, range(100), *zip(*profiles), timeout=300.0)
        )
    predicted, oracle, measured = (np.concatenate(r) for r in zip(*results))
    max_err = float(np.max(np.abs(predicted - oracle)))

    assert max_err < 0.005  # frozen runs land at 0.00125
    pearson = float(np.corrcoef(predicted, measured)[0, 1])
    assert pearson > 0.95  # frozen runs land at 0.9867
    assert time.perf_counter() - start < 300.0


# --- criterion 6: word-wise PIP expectation and chi-width scaling ------------


def test_criterion_06_expected_wordwise_pip_and_width_scaling():
    for v, r, seed in ((100, 40, 60), (1000, 12, 61)):
        words = [f"q{i:04d}" for i in range(v)]
        rng = np.random.default_rng(seed)
        mu = dict(zip(words, rng.uniform(0.2, 0.6, v).tolist()))
        sigma = dict(zip(words, rng.uniform(0.01, 0.08, v).tolist()))
        runs = planted_profile_runs("tgt", mu, sigma, r, seed + 500)

        proxy = ProxySample(tuple(words))
        values = [
            wordwise_reduced_pip_loss(
                "tgt", runs.spaces[2 * k], runs.spaces[2 * k + 1], proxy
            )
            for k in range(r // 2)
        ]
        profile = StabilityProfile(
            "tgt",
            tuple(PairStatistics("tgt", w, mu[w], sigma[w], r) for w in words),
        )
        expected = expected_wordwise_pip(profile)
        mean = float(np.mean(values))
        se = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert abs(mean - expected) < 3.0 * se

    ratio = chi_relative_width(100) / chi_relative_width(10**4)
    assert abs(ratio - 10.0) < 2.0  # frozen value 10.0123


# --- criterion 7: SGNS gradients vs central finite differences ---------------


def test_criterion_07_sgns_gradient_matches_finite_differences():
    # Random blocks over a small vocabulary, so words recur at several
    # positions, as noise words, and as both center and context; every
    # fourth block has a single center.
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for trial in range(50):
        v = int(rng.integers(3, 9))
        d = int(rng.integers(2, 7))
        input_vectors = rng.normal(0.0, 0.6, (v, d))
        output_vectors = rng.normal(0.0, 0.6, (v, d))
        m = int(rng.integers(2, 8))
        words = rng.integers(0, v, size=m)
        if trial % 4 == 0:
            centers, contexts = np.zeros(m - 1, dtype=np.intp), np.arange(1, m)
        else:
            doc_of = np.sort(rng.integers(0, 3, size=m))
            centers, contexts = _window_pairs(doc_of, rng.integers(1, 4, size=m))
        negatives = rng.integers(0, v, size=(m, int(rng.integers(1, 6))))

        stepped_in, stepped_out = input_vectors.copy(), output_vectors.copy()
        _block_update(
            stepped_in, stepped_out, words, centers, contexts, negatives, np.ones(m)
        )
        fd_input, fd_output = finite_difference_gradients(
            lambda a, b: block_objective(a, b, words, centers, contexts, negatives),
            input_vectors,
            output_vectors,
        )
        for step, fd in (
            (stepped_in - input_vectors, fd_input),
            (stepped_out - output_vectors, fd_output),
        ):
            assert np.all(np.abs(step - fd) <= 1e-4 * np.maximum(np.abs(fd), 1e-4))
    assert time.perf_counter() - start < 10.0


# --- criterion 8: averaging beats individual runs on a synthetic corpus ------


def test_criterion_08_tree_averaging_reduces_instability():
    start = time.perf_counter()
    corpus, _, _ = two_topic_corpus(docs=2000, doc_len=30, seed=77)
    config = SgnsConfig(
        dim=25, window=4, negatives=5, epochs=2, initial_lr=0.025,
        subsample_t=1.0, min_count=5, seed=0,
    )
    spaces = _shuffled_runs(corpus, config, range(101, 109))

    proxy = sample_proxy(spaces, seed=0)
    pair_values = [
        reduced_pip_loss(spaces[i], spaces[j], proxy)
        for i, j in itertools.combinations(range(8), 2)
    ]
    mean_pair = float(np.mean(pair_values))

    average_a = normalize(aligned_average_tree(spaces[:4]))
    average_b = normalize(aligned_average_tree(spaces[4:]))
    average_distance = reduced_pip_loss(average_a, average_b, proxy)
    # Frozen runs land at a 0.392 ratio.
    assert average_distance < 0.6 * mean_pair

    word_pairs = sample_word_pairs(spaces, 600, seed=1)
    sigma_ratio, mu_ratio = bias_variance_report(
        RunSet(tuple(spaces), mode="shuffled"),
        RunSet((average_a, average_b), mode="shuffled"),
        word_pairs,
    )
    assert sigma_ratio < 1.0  # frozen runs land at 0.26
    assert mu_ratio >= 1.0  # frozen runs land at 1.012
    assert time.perf_counter() - start < 600.0


# --- criterion 9: planted context swap is detected and ranked first ----------

_PSEUDOWORD = "zvq"


def _with_pseudoword(corpus: Corpus, parity: int, seed: int) -> Corpus:
    """Replace one token with the pseudoword in every doc of one topic."""
    rng = np.random.default_rng(seed)
    documents = []
    for i, doc in enumerate(corpus.documents):
        doc = list(doc)
        if i % 2 == parity:
            doc[rng.integers(len(doc))] = _PSEUDOWORD
        documents.append(tuple(doc))
    return Corpus(tuple(documents))


def _swap_epoch_corpora(trial: int) -> tuple[Corpus, Corpus]:
    base_1, _, _ = two_topic_corpus(docs=300, doc_len=20, seed=900 + trial)
    base_2, _, _ = two_topic_corpus(docs=300, doc_len=20, seed=950 + trial)
    # The pseudoword lives in the even-parity topic in epoch 1 and in the
    # odd-parity topic in epoch 2: a full context swap.
    return (
        _with_pseudoword(base_1, 0, 10 + trial),
        _with_pseudoword(base_2, 1, 20 + trial),
    )


def test_criterion_09_context_swap_pseudoword_detection():
    start = time.perf_counter()
    config = SgnsConfig(
        dim=16, window=3, negatives=3, epochs=2, initial_lr=0.05,
        subsample_t=1.0, min_count=1, seed=0,
    )
    rank_first = 0
    for trial in range(5):
        corpus_1, corpus_2 = _swap_epoch_corpora(trial)
        base = 3000 + trial * 16
        epoch_1 = normalize(
            aligned_average_tree(_shuffled_runs(corpus_1, config, range(base, base + 8)))
        )
        epoch_2 = normalize(
            aligned_average_tree(
                _shuffled_runs(corpus_2, config, range(base + 8, base + 16))
            )
        )

        counts_1, counts_2 = epoch_1.vocab.frequency, epoch_2.vocab.frequency
        joint = [
            w
            for w in epoch_1.vocab.words
            if w in epoch_2.vocab and w != _PSEUDOWORD
        ]
        controls = sorted(joint, key=lambda w: -min(counts_1[w], counts_2[w]))[:30]
        report = build_change_report(
            epoch_1, epoch_2, targets=[_PSEUDOWORD] + controls, min_count=1
        )

        rank_first += report.ranking[0] == _PSEUDOWORD
        wanted = {w: w == _PSEUDOWORD for w in [_PSEUDOWORD] + controls}
        accuracy = float(
            np.mean([report.labels[w] == wanted[w] for w in wanted])
        )
        assert accuracy >= 0.9  # frozen runs land at 1.0 in every trial
    assert rank_first >= 4  # frozen runs land at 5/5
    assert time.perf_counter() - start < 600.0


# --- criterion 10: frequency-dependent change vs randomized control ----------

_CONFORMITY_COUNTS = np.geomspace(200, 1000, 40).astype(int)
# 8 pools of 8 context words; targets start in one of the first four pools
# and partially move to one of the last four, so planted movements point in
# many different directions and cannot be absorbed by one global rotation.
_CONFORMITY_POOLS = [[f"p{p}{k}" for k in range(8)] for p in range(8)]
_CONFORMITY_TRAINER = SgnsConfig(
    dim=16, window=2, negatives=3, epochs=2, initial_lr=0.05,
    subsample_t=1.0, min_count=1, seed=0,
)
_CONFORMITY_RUNS = 4  # runs per epoch, averaged in two 2-fold groups
_CONFORMITY_GROUPS = 2


def _swap_fractions() -> np.ndarray:
    """Planted per-target swap fraction, a power law in the target's count.

    The measured log-change responds to the planted log-fraction with a
    slope of only ~0.44 (training saturation), so hitting a standardized
    frequency effect of -0.6 takes a steeper planted exponent of -0.72.
    """
    n_ref = float(np.exp(np.mean(np.log(_CONFORMITY_COUNTS))))
    q = 0.27 * (_CONFORMITY_COUNTS / n_ref) ** -0.72
    return np.clip(q, 0.0, 0.9)


def _conformity_epoch(epoch: int, seed: int) -> Corpus:
    planted = _swap_fractions()
    rng = np.random.default_rng(seed)
    documents = []
    for i, n in enumerate(_CONFORMITY_COUNTS):
        target = f"t{i:02d}"
        source = _CONFORMITY_POOLS[i % 4]
        destination = _CONFORMITY_POOLS[4 + (i // 4) % 4]
        q = planted[i] if epoch == 1 else 0.0
        swapped = rng.random(n) < q
        for j in range(n):
            pool = destination if swapped[j] else source
            left, right = rng.choice(pool, size=2)
            documents.append((left, target, right))
    # Pure-pool anchor docs in BOTH epochs keep every pool tight and well
    # separated and give the alignment a large stable frame.
    for pool in _CONFORMITY_POOLS:
        for _ in range(800):
            documents.append(tuple(rng.choice(pool, size=4)))
    order = rng.permutation(len(documents))
    return Corpus(tuple(documents[k] for k in order))


def _conformity_observations(epoch_a: Corpus, epoch_b: Corpus, base_seed: int):
    per_group = _CONFORMITY_RUNS // _CONFORMITY_GROUPS
    runs_a = _shuffled_runs(
        epoch_a, _CONFORMITY_TRAINER, range(base_seed, base_seed + _CONFORMITY_RUNS)
    )
    runs_b = _shuffled_runs(
        epoch_b,
        _CONFORMITY_TRAINER,
        range(base_seed + _CONFORMITY_RUNS, base_seed + 2 * _CONFORMITY_RUNS),
    )
    observations = []
    for k in range(_CONFORMITY_GROUPS):
        block = slice(k * per_group, (k + 1) * per_group)
        space_a = normalize(aligned_average_tree(runs_a[block]))
        space_b = normalize(aligned_average_tree(runs_b[block]))
        alignment = procrustes(space_a, space_b)
        freq_a, freq_b = space_a.vocab.frequency, space_b.vocab.frequency
        for i in range(len(_CONFORMITY_COUNTS)):
            word = f"t{i:02d}"
            if word not in space_a.vocab or word not in space_b.vocab:
                continue
            delta = semantic_change(word, space_a, space_b, alignment)
            observations.append((word, k, delta, 0.5 * (freq_a[word] + freq_b[word])))
    return observations


def test_criterion_10_frequency_effect_beats_randomized_control():
    start = time.perf_counter()
    epoch_1 = _conformity_epoch(0, seed=500)
    epoch_2 = _conformity_epoch(1, seed=501)

    genuine = frequency_effect(_conformity_observations(epoch_1, epoch_2, 7000))
    # Frozen runs land at beta_f = -0.662.
    assert -0.7 <= genuine.beta_f <= -0.5

    batches = control_condition([epoch_1, epoch_2], 2, seed=500 + 999_983)
    control = frequency_effect(
        _conformity_observations(batches[0], batches[1], 7000 + 1_000_003)
    )
    # Frozen runs land at 0.438 (genuine) vs 0.005 (control).
    assert genuine.var_explained - control.var_explained >= 0.15
    assert time.perf_counter() - start < 900.0


# --- criterion 11: null p-values of both statistical tests are uniform -------


def test_criterion_11_null_p_values_are_uniform():
    rng = np.random.default_rng(2026)
    spearman_ps = [
        spearman(rng.normal(size=30), rng.normal(size=30))[1] for _ in range(5000)
    ]
    assert _ks_uniform(spearman_ps) < 0.05  # frozen runs land at 0.0150

    rng = np.random.default_rng(2027)
    shapiro_ps = [shapiro_wilk(rng.normal(size=25))[1] for _ in range(5000)]
    assert _ks_uniform(shapiro_ps) < 0.05  # frozen runs land at 0.0171
