"""Nearest-neighbor overlap metrics p@n and j@n."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from embedstab import (
    EmbeddingSpace,
    RunSet,
    Vocabulary,
    joint_vocabulary,
    list_overlap,
    mean_overlap,
    normalize,
    p_at_n,
    p_to_j,
    restrict,
)
from embedstab import space as space_module
from embedstab.overlap import _neighbor_lists, _summaries

from helpers import (
    nearest_neighbors_oracle,
    planted_cosine_space,
    random_normalized_space,
    rotated_copy,
    shuffled_words,
    tie_rich_rows,
    words_for,
)


class TestListOverlap:
    def test_counts_shared_members_ignoring_rank(self):
        got = list_overlap(["a", "b", "c", "d"], ["d", "c", "x", "y"], 4)
        assert got.m == 2
        assert_allclose(got.p_at_n, 0.5)
        assert_allclose(got.j_at_n, 2 / 6)

    def test_truncates_before_comparing(self):
        got = list_overlap(["a", "b", "c"], ["c", "b", "a"], 2)
        assert got.m == 1  # only "b" is shared between {a,b} and {c,b}
        assert_allclose(got.p_at_n, 0.5)

    def test_identical_and_disjoint_extremes(self):
        same = list_overlap(["a", "b"], ["b", "a"], 2)
        assert (same.m, same.p_at_n, same.j_at_n) == (2, 1.0, 1.0)
        none = list_overlap(["a", "b"], ["c", "d"], 2)
        assert (none.m, none.p_at_n, none.j_at_n) == (0, 0.0, 0.0)

    def test_worked_values(self):
        # m = 8 of n = 10: p = 0.8, j = 8/12
        got = list_overlap([f"s{i}" for i in range(10)],
                           [f"s{i}" for i in range(8)] + ["x", "y"], 10)
        assert_allclose((got.p_at_n, got.j_at_n), (0.8, 8 / 12))
        # m = 11 of n = 15: p = 11/15, j = 11/19
        got = list_overlap([f"s{i}" for i in range(15)],
                           [f"s{i}" for i in range(11)] + list("abcd"), 15)
        assert_allclose((got.p_at_n, got.j_at_n), (11 / 15, 11 / 19))

    def test_n_bounds(self):
        with pytest.raises(ValueError, match="exceeds"):
            list_overlap(["a"], ["a", "b"], 2)
        with pytest.raises(ValueError, match="exceeds"):
            list_overlap(["a"], ["a"], 0)


class TestPToJ:
    def test_exact_identity_for_all_counts(self):
        for n in range(1, 51):
            for m in range(0, n + 1):
                p = m / n
                j = m / (2 * n - m)
                assert abs(p_to_j(p) - j) < 1e-12

    @given(st.integers(1, 10**6).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_equals_jaccard_of_the_overlap_count(self, counts):
        n, m = counts
        assert_allclose(p_to_j(m / n), m / (2 * n - m), rtol=1e-14, atol=0.0)

    @given(st.integers(1, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))))
    def test_converts_measured_lists(self, counts):
        n, m = counts
        shared = [f"s{i}" for i in range(m)]
        list_a = shared + [f"a{i}" for i in range(n - m)]
        list_b = [f"b{i}" for i in range(n - m)] + shared[::-1]
        measured = list_overlap(list_a, list_b, n)
        assert measured.m == m
        assert_allclose(p_to_j(measured.p_at_n), measured.j_at_n, rtol=1e-14, atol=0.0)

    def test_monotone_and_bounded(self):
        ps = np.linspace(0.0, 1.0, 101)
        js = [p_to_j(p) for p in ps]
        assert js[0] == 0.0 and js[-1] == 1.0
        assert all(a < b for a, b in zip(js, js[1:]))
        assert all(j <= p for j, p in zip(js, ps))

    def test_domain(self):
        with pytest.raises(ValueError):
            p_to_j(1.5)
        with pytest.raises(ValueError):
            p_to_j(-0.1)


class TestPAtN:
    def test_planted_neighborhoods(self):
        # Two spaces agree on neighbors a,b,c for the target but disagree
        # afterwards: top-3 overlap is 3/3, top-5 overlap is 3/5.
        cos_a = {"a": 0.95, "b": 0.9, "c": 0.85, "d": 0.5, "e": 0.4,
                 "f": 0.1, "g": 0.05}
        cos_b = {"a": 0.94, "b": 0.91, "c": 0.86, "d": 0.1, "e": 0.05,
                 "f": 0.5, "g": 0.4}
        space_a = planted_cosine_space("t", cos_a)
        space_b = planted_cosine_space("t", cos_b)
        top3 = p_at_n(space_a, space_b, "t", 3)
        assert (top3.m, top3.p_at_n, top3.j_at_n) == (3, 1.0, 1.0)
        top5 = p_at_n(space_a, space_b, "t", 5)
        assert top5.m == 3
        assert_allclose(top5.p_at_n, 0.6)
        assert_allclose(top5.j_at_n, 3 / 7)

    def test_rotation_leaves_overlap_at_one(self):
        space = random_normalized_space(40, 8, seed=10)
        rotated = rotated_copy(space, seed=11)
        for target in space.vocab.words[:3]:
            got = p_at_n(space, rotated, target, 10)
            assert got.p_at_n == 1.0

    def test_uses_joint_vocabulary(self):
        # space_b lacks word "d"; neighbor lists must be computed over the
        # joint vocabulary, so "d" cannot appear on either list.
        cos_a = {"a": 0.9, "b": 0.8, "d": 0.99}
        space_a = planted_cosine_space("t", cos_a)
        full_b = planted_cosine_space("t", {"a": 0.9, "b": 0.8, "d": 0.7})
        space_b = restrict(full_b, ["t", "a", "b"])
        got = p_at_n(space_a, space_b, "t", 2)
        assert (got.m, got.p_at_n) == (2, 1.0)

    def test_overlap_independent_of_list_order(self):
        space_a = random_normalized_space(30, 6, seed=12)
        space_b = random_normalized_space(30, 6, seed=13)
        target = space_a.vocab.words[0]
        got = p_at_n(space_a, space_b, target, 7)
        mirror = p_at_n(space_b, space_a, target, 7)
        assert got.m == mirror.m

    def test_matches_nearest_neighbors_when_vocabs_align(self):
        space_a = random_normalized_space(25, 5, seed=14)
        space_b = random_normalized_space(25, 5, seed=15)
        target = space_a.vocab.words[3]
        lists = [
            [w for w, _ in nearest_neighbors_oracle(s, target, 6)]
            for s in (space_a, space_b)
        ]
        expected = len(set(lists[0]) & set(lists[1]))
        assert p_at_n(space_a, space_b, target, 6).m == expected

    def test_n_larger_than_joint_vocab_is_an_error(self):
        space_a = random_normalized_space(5, 3, seed=16)
        space_b = random_normalized_space(5, 3, seed=17)
        with pytest.raises(ValueError, match="joint vocabulary"):
            p_at_n(space_a, space_b, space_a.vocab.words[0], 5)


class TestMeanOverlap:
    def test_averages_all_unordered_pairs(self):
        spaces = tuple(random_normalized_space(20, 4, seed=s) for s in (20, 21, 22))
        runs = RunSet(spaces)
        target = spaces[0].vocab.words[0]
        summary = mean_overlap(runs, [target], 5)[0]
        assert summary.pair_count == 3
        pair_ps = [
            p_at_n(spaces[i], spaces[j], target, 5).p_at_n
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        pair_js = [
            p_at_n(spaces[i], spaces[j], target, 5).j_at_n
            for i, j in ((0, 1), (0, 2), (1, 2))
        ]
        assert_allclose(summary.mean_p, np.mean(pair_ps))
        assert_allclose(summary.mean_j, np.mean(pair_js))
        assert summary.n == 5 and summary.target == target

    def test_identical_runs_score_one(self):
        space = random_normalized_space(15, 4, seed=23)
        runs = RunSet((space, space, space))
        words = space.vocab.words[:2]
        for summary in mean_overlap(runs, words, 4):
            assert (summary.mean_p, summary.mean_j) == (1.0, 1.0)

    def test_prefixes_of_longer_lists_give_the_same_summaries(self):
        # The predict command reads its top-1 and top-2 overlaps off one
        # pass of longer neighbor lists.
        spaces = tuple(random_normalized_space(30, 4, seed=s) for s in (25, 26, 27))
        words = spaces[0].vocab.words[:5]
        longer = _neighbor_lists(spaces, words, 7)
        for n in (1, 2, 5):
            assert _summaries(longer, words, n) == mean_overlap(RunSet(spaces), words, n)

    @settings(max_examples=40)
    @given(st.data())
    def test_lists_match_the_oracle_over_the_joint_vocabulary(self, data):
        # Each space stores its own subset of a shared word pool in its own
        # order; the ranking block is shrunk so the targets span many blocks.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v, d = data.draw(st.integers(3, 30)), data.draw(st.integers(1, 6))
        pool, quantized = shuffled_words(rng, v), data.draw(st.booleans())
        spaces = []
        for _ in range(data.draw(st.integers(2, 4))):
            kept = pool[:2] + [w for w in pool[2:] if rng.random() < 0.8]
            words = [kept[i] for i in rng.permutation(len(kept))]
            space = EmbeddingSpace(
                Vocabulary(tuple(words)), tie_rich_rows(rng, len(words), d, quantized)
            )
            spaces.append(normalize(space) if rng.random() < 0.5 else space)
        joint = joint_vocabulary(spaces).words
        n = data.draw(st.integers(1, len(joint) - 1))
        targets = data.draw(st.lists(st.sampled_from(joint), min_size=1, max_size=12))
        block = data.draw(st.integers(1, 3 * len(joint)))
        with mock.patch.object(space_module, "_TOP_K_BLOCK_ENTRIES", block):
            got = _neighbor_lists(spaces, targets, n)
        for space, lists in zip(spaces, got):
            sub = restrict(space, joint)
            for target in targets:
                want = [w for w, _ in nearest_neighbors_oracle(sub, target, n)]
                assert lists[target] == want
                assert target not in lists[target]

    def test_needs_two_runs(self):
        space = random_normalized_space(10, 3, seed=24)
        with pytest.raises(ValueError, match="at least 2"):
            mean_overlap(RunSet((space,)), [space.vocab.words[0]], 2)

    def test_mean_j_uses_per_pair_counts_not_mean_p(self):
        # j is convex in m, so mean(j) != p_to_j(mean(p)) when counts differ
        # across pairs; planted lists: pair overlaps m = 2 and m = 0 at n = 2.
        lists = {
            0: ["a", "b"],
            1: ["a", "b"],
            2: ["x", "y"],
        }
        ms = []
        js = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            m = len(set(lists[i]) & set(lists[j]))
            ms.append(m / 2)
            js.append(m / (4 - m))
        assert_allclose(np.mean(ms), 1 / 3)
        assert_allclose(np.mean(js), 1 / 3)
        assert not np.isclose(p_to_j(np.mean(ms)), np.mean(js))
