"""Semantic-change scoring, classification, evaluation, and frequency effects."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from embedstab import (
    ChangeReport,
    Corpus,
    EmbeddingSpace,
    GoldData,
    LoadError,
    Vocabulary,
    build_change_report,
    classify_targets,
    control_condition,
    evaluate,
    frequency_effect,
    load_gold_binary,
    load_gold_graded,
    procrustes,
    semantic_change,
)

from helpers import (
    random_normalized_space,
    random_rotation,
    semantic_change_oracle,
    words_for,
)


def epoch_pair_with_one_change(theta=0.9, v=300, d=8, changed_index=5, seed=0):
    """Epoch spaces identical up to a global rotation, except one word that is
    additionally rotated by `theta` within a plane. Returns (t1, t2, word)."""
    space = random_normalized_space(v, d, seed=seed)
    matrix = space.matrix.copy()
    row = matrix[changed_index]
    rng = np.random.default_rng(seed + 1)
    u = rng.normal(size=d)
    u -= (u @ row) * row
    u /= np.linalg.norm(u)
    matrix[changed_index] = math.cos(theta) * row + math.sin(theta) * u
    global_rotation = random_rotation(d, seed=seed + 2)
    t2 = EmbeddingSpace(space.vocab, matrix @ global_rotation, normalized=True)
    return space, t2, space.vocab.words[changed_index]


class TestSemanticChange:
    def test_planted_rotation_is_recovered(self):
        theta = 0.9
        t1, t2, changed = epoch_pair_with_one_change(theta=theta)
        alignment = procrustes(t1, t2)
        delta = semantic_change(changed, t1, t2, alignment)
        # The Procrustes fit absorbs a little of the planted change, so the
        # recovery is approximate; the separation from controls is not.
        assert abs(delta - (1.0 - math.cos(theta))) < 0.05
        controls = [
            semantic_change(w, t1, t2, alignment)
            for w in t1.vocab.words
            if w != changed
        ]
        assert delta > 100.0 * max(controls)

    def test_identical_spaces_score_zero(self):
        space = random_normalized_space(20, 4, seed=3)
        alignment = procrustes(space, space)
        for w in space.vocab.words[:5]:
            assert semantic_change(w, space, space, alignment) < 1e-12

    def test_score_range(self):
        t1 = random_normalized_space(30, 5, seed=4)
        t2 = random_normalized_space(30, 5, seed=5)
        alignment = procrustes(t1, t2)
        for w in t1.vocab.words:
            delta = semantic_change(w, t1, t2, alignment)
            assert 0.0 <= delta <= 2.0


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_matches_the_per_word_oracle(self, seed):
        t1, t2, _ = epoch_pair_with_one_change(v=500, d=13, seed=seed)
        noisy = random_normalized_space(500, 13, seed=seed + 10)
        for second in (t2, noisy):
            alignment = procrustes(t1, second)
            report = build_change_report(t1, second, targets=t1.vocab.words[:7], min_count=1)
            for word, delta in report.deltas.items():
                want = semantic_change_oracle(word, t1, second, alignment)
                assert abs(delta - want) <= 1e-15
                assert abs(semantic_change(word, t1, second, alignment) - want) <= 1e-15

    def test_zero_vector_names_the_word(self):
        t1 = random_normalized_space(6, 3, seed=8)
        matrix = t1.matrix.copy()
        matrix[2] = 0.0
        t2 = EmbeddingSpace(t1.vocab, matrix)
        alignment = procrustes(t1, t1)
        with pytest.raises(ValueError, match="zero vector for 'w0002'"):
            semantic_change("w0002", t1, t2, alignment)
        with pytest.raises(ValueError, match="zero vector for 'w0002'"):
            semantic_change_oracle("w0002", t1, t2, alignment)

class TestClassifyTargets:
    def test_threshold_is_mean_plus_half_population_std(self):
        scored = {"a": 0.1, "b": 0.2, "c": 0.3, "d": 0.4}
        labels, tau = classify_targets({"x": 0.35, "y": 0.25}, scored)
        want_tau = 0.25 + math.sqrt(0.0125) / 2.0
        assert_allclose(tau, want_tau, rtol=1e-12)
        assert labels == {"x": True, "y": False}

    def test_threshold_exceeding_is_strict(self):
        scored = {"a": 0.2, "b": 0.2}
        labels, tau = classify_targets({"x": 0.2}, scored)
        assert tau == 0.2
        assert labels == {"x": False}

    def test_needs_two_scored_words(self):
        with pytest.raises(ValueError, match="at least 2 scored"):
            classify_targets({"x": 0.5}, {"a": 0.1})

    def test_empty_targets_allowed(self):
        labels, tau = classify_targets({}, {"a": 0.1, "b": 0.3})
        assert labels == {}


class TestBuildChangeReport:
    def test_end_to_end_planted_change(self):
        t1, t2, changed = epoch_pair_with_one_change()
        control = t1.vocab.words[0]
        report = build_change_report(t1, t2, targets=[changed, control],
                                     min_count=1)
        assert report.labels == {changed: True, control: False}
        assert report.ranking == (changed, control)
        assert report.deltas[changed] > report.tau
        assert report.scored_vocab == t1.vocab.words
        assert set(report.deltas) == set(t1.vocab.words)
        assert_allclose(report.tau, report.mean + report.std / 2.0, rtol=1e-12)

    def test_ranking_breaks_ties_by_word(self):
        space = random_normalized_space(10, 3, seed=6)
        report = build_change_report(space, space,
                                     targets=["w0003", "w0001", "w0002"],
                                     min_count=1)
        # all deltas are 0, so ranking falls back to ascending word order
        assert report.ranking == ("w0001", "w0002", "w0003")

    def test_min_count_filters_scored_vocab_but_not_targets(self):
        words = words_for(6)
        f1 = {w: (100 if i < 4 else 3) for i, w in enumerate(words)}
        f2 = {w: (100 if i != 1 else 3) for i, w in enumerate(words)}
        rng = np.random.default_rng(7)

        def space(freq, seed):
            m = np.random.default_rng(seed).normal(size=(6, 4))
            m /= np.linalg.norm(m, axis=1, keepdims=True)
            return EmbeddingSpace(Vocabulary(words, freq), m, normalized=True)

        t1, t2 = space(f1, 8), space(f2, 9)
        report = build_change_report(t1, t2, targets=[words[5]], min_count=10)
        # scored: at least 10 in both epochs -> indices 0, 2, 3
        assert report.scored_vocab == (words[0], words[2], words[3])
        assert words[5] in report.deltas  # target scored despite low count

    def test_min_count_requires_frequencies(self):
        t1 = random_normalized_space(5, 3, seed=10)
        t2 = random_normalized_space(5, 3, seed=11)
        with pytest.raises(ValueError, match="requires frequencies"):
            build_change_report(t1, t2, min_count=10)

    def test_missing_target_is_an_error(self):
        t1 = random_normalized_space(5, 3, seed=12)
        t2 = random_normalized_space(5, 3, seed=13)
        with pytest.raises(ValueError, match="absent from an epoch"):
            build_change_report(t1, t2, targets=["nope"], min_count=1)

    def test_too_few_scored_words(self):
        words = ("a", "b", "c")
        freq = {"a": 100, "b": 1, "c": 1}
        m = np.random.default_rng(14).normal(size=(3, 3))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        t1 = EmbeddingSpace(Vocabulary(words, freq), m, normalized=True)
        t2 = EmbeddingSpace(Vocabulary(words, freq), m, normalized=True)
        with pytest.raises(ValueError, match="pass min_count"):
            build_change_report(t1, t2, min_count=10)


class TestEvaluate:
    def build_report(self):
        deltas = {"a": 0.05, "b": 0.10, "c": 0.60, "d": 0.70, "e": 0.20}
        return ChangeReport(
            deltas=deltas,
            ranking=("d", "c", "e", "b", "a"),
            labels={w: d > 0.4 for w, d in deltas.items()},
            tau=0.4,
            mean=0.33,
            std=0.14,
            scored_vocab=tuple(deltas),
        )

    def test_binary_accuracy(self):
        report = self.build_report()
        gold = GoldData(binary={"a": 0, "c": 1, "d": 1, "b": 1}, graded={})
        accuracy, rho = evaluate(report, gold)
        assert_allclose(accuracy, 3 / 4)
        assert rho is None

    def test_graded_spearman(self):
        report = self.build_report()
        gold = GoldData(binary={}, graded={"a": 0.0, "b": 0.1, "c": 0.8,
                                           "d": 0.9, "e": 0.3})
        accuracy, rho = evaluate(report, gold)
        assert accuracy is None
        assert_allclose(rho, 1.0)  # gold order matches the deltas exactly

    def test_graded_needs_three_words(self):
        report = self.build_report()
        gold = GoldData(binary={}, graded={"a": 0.0, "b": 0.1})
        assert evaluate(report, gold) == (None, None)

    def test_missing_gold_words_listed_sorted(self):
        report = self.build_report()
        gold = GoldData(binary={"zz": 1}, graded={"aa": 0.5})
        with pytest.raises(ValueError, match=r"\['aa', 'zz'\]"):
            evaluate(report, gold)


def planted_lmm_observations(
    beta=-0.6, sigma_word=0.5, sigma_resid=0.5, n_words=1000, n_pairs=3, seed=11
):
    """Log-linear frequency effect with per-word random intercepts."""
    rng = np.random.default_rng(seed)
    log_f = rng.normal(0.0, 1.0, size=n_words)
    z = rng.normal(0.0, sigma_word, size=n_words)
    observations = []
    for w in range(n_words):
        for p in range(n_pairs):
            eps = rng.normal(0.0, sigma_resid)
            log_delta = beta * log_f[w] + z[w] + eps
            observations.append(
                (f"w{w:04d}", p, math.exp(log_delta), math.exp(log_f[w]))
            )
    return observations


class TestFrequencyEffect:
    def test_noiseless_log_linear_relation_is_recovered_exactly(self):
        # log delta = 2.0 - 0.7 log f with no noise: after standardization
        # the slope is exactly -1 and the fixed effect explains everything.
        rng = np.random.default_rng(15)
        observations = []
        for w in range(40):
            freq = float(rng.uniform(50, 5000))
            delta = math.exp(2.0 - 0.7 * math.log(freq))
            observations.append((f"w{w:02d}", 0, delta, freq))
        result = frequency_effect(observations)
        assert_allclose(result.beta_f, -1.0, atol=1e-6)
        assert result.var_explained > 1.0 - 1e-6
        assert_allclose(result.beta_0, 0.0, atol=1e-6)

    def test_null_relation_finds_no_effect(self):
        rng = np.random.default_rng(16)
        observations = [
            (f"w{w:03d}", p, float(rng.lognormal(-2.0, 0.4)),
             float(rng.uniform(100, 10_000)))
            for w in range(600)
            for p in range(2)
        ]
        result = frequency_effect(observations)
        assert abs(result.beta_f) < 0.1  # sampling SE is about 0.04 here
        assert result.var_explained < 0.005

    def test_planted_mixed_model_recovery(self):
        # Planted slope -0.6 with word and residual noise 0.5 each: the
        # response standardization rescales the slope to
        # -0.6 / sqrt(0.36 + 0.25 + 0.25) = -0.6470.
        observations = planted_lmm_observations()
        result = frequency_effect(observations)
        target = -0.6 / math.sqrt(0.86)
        assert abs(result.beta_f - target) < 0.05
        assert abs(result.beta_f - (-0.6)) < 0.1
        # Both planted noise scales were equal, so the fitted ones agree.
        assert 0.8 < result.sigma_word / result.sigma_resid < 1.25
        assert abs(result.var_explained - 0.36 / 0.86) < 0.05
        assert result.n_observations == 3000
        assert result.n_words == 1000
        assert result.fit_method == "profiled-ml"

    def test_result_is_scale_invariant(self):
        observations = planted_lmm_observations(n_words=100, seed=17)
        result = frequency_effect(observations)
        rescaled = [
            (w, p, 1000.0 * d, 7.0 * f) for w, p, d, f in observations
        ]
        other = frequency_effect(rescaled)
        # The variance-ratio search stops on a fixed bracket width, so the
        # rescaled fit agrees to optimizer precision rather than bit-exactly.
        assert_allclose(other.beta_f, result.beta_f, rtol=1e-6)
        assert_allclose(other.var_explained, result.var_explained, rtol=1e-6)

    def test_strong_word_intercepts_are_attributed_to_sigma_word(self):
        observations = planted_lmm_observations(
            beta=-0.3, sigma_word=1.0, sigma_resid=0.02, n_words=150,
            n_pairs=4, seed=18,
        )
        result = frequency_effect(observations)
        assert result.sigma_word / result.sigma_resid > 10.0

    def test_validation(self):
        good = [("a", 0, 0.1, 100.0), ("b", 0, 0.2, 200.0), ("a", 1, 0.15, 100.0)]
        with pytest.raises(ValueError, match="at least 3 observations"):
            frequency_effect(good[:2])
        with pytest.raises(ValueError, match="must be > 0 for the log"):
            frequency_effect([("a", 0, 0.0, 10.0)] + good[:2])
        with pytest.raises(ValueError, match="frequencies must be > 0"):
            frequency_effect([("a", 0, 0.1, 0.0)] + good[:2])
        with pytest.raises(ValueError, match="2 distinct words"):
            frequency_effect([("a", p, 0.1 * (p + 1), 100.0) for p in range(3)])
        with pytest.raises(ValueError, match="constant"):
            frequency_effect([
                ("a", 0, 0.1, 100.0), ("b", 0, 0.2, 100.0), ("c", 0, 0.3, 100.0)
            ])


class TestControlCondition:
    def corpora(self):
        return [
            Corpus((("a", "b"), ("c", "d"), ("e", "f"))),
            Corpus((("g", "h"), ("i", "j"), ("k", "l"), ("m", "n"))),
            Corpus((("o", "p"), ("q", "r"), ("s", "t"), ("u", "v"))),
        ]

    def test_preserves_the_pooled_document_multiset(self):
        corpora = self.corpora()
        batches = control_condition(corpora, 3, seed=0)
        pooled = sorted(doc for c in corpora for doc in c.documents)
        rebatched = sorted(doc for b in batches for doc in b.documents)
        assert rebatched == pooled

    def test_batch_sizes_differ_by_at_most_one(self):
        batches = control_condition(self.corpora(), 3, seed=1)
        sizes = [len(b) for b in batches]
        assert sum(sizes) == 11
        assert sizes == [4, 4, 3]

    def test_seeded_determinism(self):
        one = control_condition(self.corpora(), 3, seed=2)
        two = control_condition(self.corpora(), 3, seed=2)
        assert [b.documents for b in one] == [b.documents for b in two]
        other = control_condition(self.corpora(), 3, seed=3)
        assert [b.documents for b in one] != [b.documents for b in other]

    def test_shuffling_mixes_the_sources(self):
        batches = control_condition(self.corpora(), 2, seed=0)
        first_docs = set(self.corpora()[0].documents)
        # With this seed the first corpus is split across both batches.
        spread = [len(first_docs & set(b.documents)) for b in batches]
        assert all(s > 0 for s in spread)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one corpus"):
            control_condition([], 2)
        with pytest.raises(ValueError, match="at least 2 batches"):
            control_condition(self.corpora(), 1)
        with pytest.raises(ValueError, match="cannot fill"):
            control_condition([Corpus((("a", "b"),))], 2)


class TestGoldLoaders:
    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "binary.tsv"
        path.write_text("cell\t1\nplane\t0\n\nvirus\t1\n")
        assert load_gold_binary(str(path)) == {"cell": 1, "plane": 0, "virus": 1}

    def test_binary_validation(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("cell\t2\n")
        with pytest.raises(ValueError, match="0|1"):
            load_gold_binary(str(path))

    def test_repeated_word_is_an_error(self, tmp_path):
        # A later line used to override the earlier one silently.
        path = tmp_path / "gold.tsv"
        for loader, text in ((load_gold_binary, "bank\t1\nbank\t0\n"),
                             (load_gold_graded, "bank\t0.5\nbank\t0.25\n")):
            path.write_text(text)
            with pytest.raises(LoadError) as caught:
                loader(str(path))
            assert str(caught.value) == f"{path}:2: duplicate word 'bank'"

    def test_labels_are_exactly_0_or_1(self, tmp_path):
        path = tmp_path / "gold.tsv"
        for label in ("2", " 1", "01", "true"):
            path.write_text(f"cell\t1\nplane\t{label}\n")
            with pytest.raises(LoadError) as caught:
                load_gold_binary(str(path))
            assert str(caught.value) == f"{path}:2: bad label {label!r}"

    def test_whitespace_only_lines_are_skipped(self, tmp_path):
        binary = tmp_path / "binary.tsv"
        binary.write_text("cell\t1\n  \t \n\nplane\t0\n")
        assert load_gold_binary(str(binary)) == {"cell": 1, "plane": 0}
        graded = tmp_path / "graded.tsv"
        graded.write_text("  \ncell\t0.83\n\t\n")
        assert load_gold_graded(str(graded)) == {"cell": 0.83}

    def test_graded_round_trip(self, tmp_path):
        path = tmp_path / "graded.tsv"
        path.write_text("cell\t0.83\nplane\t0.1\n")
        got = load_gold_graded(str(path))
        assert got == {"cell": 0.83, "plane": 0.1}

    def test_graded_validation(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("cell\tx\n")
        with pytest.raises(ValueError, match="bad score"):
            load_gold_graded(str(bad))
        nan = tmp_path / "nan.tsv"
        nan.write_text("cell\tnan\n")
        with pytest.raises(ValueError, match="finite"):
            load_gold_graded(str(nan))
