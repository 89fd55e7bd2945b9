"""Intrinsic/extrinsic instability aggregation over run sets."""

import importlib
import math
from itertools import combinations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from embedstab import (
    EmbeddingSpace,
    ProxySample,
    RunSet,
    Vocabulary,
    extrinsic_instability,
    frequency_profile,
    intrinsic_instability,
    reduced_pip_loss,
    wordwise_instability,
    wordwise_reduced_pip_loss,
)

from helpers import planted_profile_runs, random_normalized_space, words_for

QUERIES = words_for(50, prefix="q")
MU = {q: 0.3 for q in QUERIES}


def noisy_runs(sigma, r, seed):
    return planted_profile_runs("t", MU, {q: sigma for q in QUERIES}, r=r, seed=seed)


def full_proxy():
    return ProxySample(("t",) + QUERIES)


class TestIntrinsic:
    def test_mean_and_std_over_all_pairs(self):
        runs = RunSet(tuple(random_normalized_space(20, 4, seed=s) for s in range(4)))
        proxy = ProxySample(runs.spaces[0].vocab.words)
        report = intrinsic_instability(runs, proxy)
        values = [
            reduced_pip_loss(a, b, proxy) for a, b in combinations(runs.spaces, 2)
        ]
        assert report.pair_count == 6
        assert_allclose(report.intrinsic, np.mean(values), rtol=1e-12)
        assert_allclose(report.intrinsic_std, np.std(values), rtol=1e-12)
        assert report.proxy_size == 20
        assert report.boot_pair_count == 0
        assert report.extrinsic is None
        assert not report.extrinsic_undefined  # no bootstrapped runs given

    def test_rows_are_gathered_once_per_run(self, monkeypatch):
        module = importlib.import_module("embedstab.instability")
        gathered = []
        rows = module._rows

        def counting(space, *args):
            gathered.append(space)
            return rows(space, *args)

        monkeypatch.setattr(module, "_rows", counting)
        runs = RunSet(tuple(random_normalized_space(20, 4, seed=s) for s in range(4)))
        report = intrinsic_instability(runs, ProxySample(runs.spaces[0].vocab.words))
        assert report.pair_count == 6
        assert [id(s) for s in gathered] == [id(s) for s in runs.spaces]

    def test_identical_runs_have_zero_instability(self):
        space = random_normalized_space(10, 3, seed=30)
        runs = RunSet((space, space, space))
        proxy = ProxySample(space.vocab.words)
        report = intrinsic_instability(runs, proxy)
        assert (report.intrinsic, report.intrinsic_std) == (0.0, 0.0)

    def test_needs_two_runs(self):
        space = random_normalized_space(10, 3, seed=31)
        with pytest.raises(ValueError, match="at least 2"):
            intrinsic_instability(RunSet((space,)), ProxySample(space.vocab.words))


class TestExtrinsic:
    def test_sqrt_of_excess_and_delta_method_spread(self):
        shuffled = noisy_runs(0.02, r=8, seed=40)
        boot = noisy_runs(0.05, r=8, seed=41)
        proxy = full_proxy()
        report = extrinsic_instability(shuffled, boot, proxy)
        assert report.boot_pair_count == 28
        assert report.boot_mean > report.intrinsic
        assert_allclose(
            report.extrinsic, math.sqrt(report.boot_mean - report.intrinsic),
            rtol=1e-12,
        )
        want_spread = math.sqrt(
            report.boot_std**2 + report.intrinsic_std**2
        ) / (2.0 * report.extrinsic)
        assert_allclose(report.extrinsic_std, want_spread, rtol=1e-12)

    def test_sigma_inflation_law(self):
        # If bootstrapping inflates every pair sigma by sqrt(2), the
        # bootstrapped-pair mean is sqrt(2) * intrinsic, so the extrinsic
        # value must come out at sqrt(intrinsic * (sqrt(2) - 1)).
        sigma = 0.02
        shuffled = noisy_runs(sigma, r=12, seed=42)
        boot = noisy_runs(sigma * math.sqrt(2.0), r=12, seed=43)
        proxy = full_proxy()
        report = extrinsic_instability(shuffled, boot, proxy)
        assert_allclose(report.boot_mean, math.sqrt(2.0) * report.intrinsic,
                        rtol=0.03)
        expected = math.sqrt(report.intrinsic * (math.sqrt(2.0) - 1.0))
        assert_allclose(report.extrinsic, expected, rtol=0.05)

    def test_undefined_when_boot_mean_below_intrinsic(self):
        shuffled = noisy_runs(0.05, r=6, seed=44)
        boot = noisy_runs(0.005, r=6, seed=45)
        report = extrinsic_instability(shuffled, boot, full_proxy())
        assert report.boot_mean < report.intrinsic
        assert report.extrinsic is None
        assert report.extrinsic_std is None
        assert report.extrinsic_undefined

    def test_identical_processes_agree_on_the_mean(self):
        shuffled = noisy_runs(0.03, r=10, seed=46)
        boot = noisy_runs(0.03, r=10, seed=47)
        report = extrinsic_instability(shuffled, boot, full_proxy())
        # Same generative process: the two means differ only by sampling noise.
        assert_allclose(report.boot_mean, report.intrinsic, rtol=0.1)


class TestWordwise:
    def test_intrinsic_part_matches_pairwise_mean(self):
        shuffled = noisy_runs(0.04, r=4, seed=48)
        boot = noisy_runs(0.08, r=4, seed=49)
        proxy = full_proxy()
        j_int, j_ext = wordwise_instability("t", shuffled, boot, proxy)
        values = [
            wordwise_reduced_pip_loss("t", a, b, proxy)
            for a, b in combinations(shuffled.spaces, 2)
        ]
        assert_allclose(j_int, np.mean(values), rtol=1e-12)
        boot_values = [
            wordwise_reduced_pip_loss("t", a, b, proxy)
            for a, b in combinations(boot.spaces, 2)
        ]
        assert_allclose(j_ext, math.sqrt(np.mean(boot_values) - j_int), rtol=1e-12)

    def test_extrinsic_none_when_boot_is_quieter(self):
        shuffled = noisy_runs(0.08, r=4, seed=50)
        boot = noisy_runs(0.01, r=4, seed=51)
        j_int, j_ext = wordwise_instability("t", shuffled, boot, full_proxy())
        assert j_int > 0.0
        assert j_ext is None

    def test_word_sigma_drives_the_wordwise_value(self):
        # One noisy word among quiet ones must dominate the wordwise values.
        # Planted means are zero so the noisy word's fluctuations do not leak
        # into other words' profiles through the query-query Gram entries.
        sigmas = {q: 0.002 for q in QUERIES}
        noisy = QUERIES[7]
        sigmas[noisy] = 0.08
        runs = planted_profile_runs("t", {q: 0.0 for q in QUERIES}, sigmas,
                                    r=30, seed=52)
        proxy = full_proxy()
        quiet = QUERIES[3]
        j_noisy = wordwise_instability(noisy, runs, runs, proxy)[0]
        j_quiet = wordwise_instability(quiet, runs, runs, proxy)[0]
        assert j_noisy > 10 * j_quiet
        direct = np.mean([
            wordwise_reduced_pip_loss(noisy, a, b, proxy)
            for a, b in combinations(runs.spaces, 2)
        ])
        assert_allclose(j_noisy, direct, rtol=1e-12)


class TestFrequencyProfile:
    def build_runs(self, v=20, r=3):
        frequency = {w: (i + 1) * 10 for i, w in enumerate(words_for(v))}
        spaces = tuple(
            random_normalized_space(v, 4, seed=60 + i, frequency=frequency)
            for i in range(r)
        )
        return RunSet(spaces), frequency

    def test_batches_partition_words_by_frequency(self):
        runs, frequency = self.build_runs(v=20)
        proxy = ProxySample(runs.spaces[0].vocab.words)
        rows, (rho, p) = frequency_profile(runs, proxy, batches=4)
        assert [r[0] for r in rows] == [0, 1, 2, 3]
        assert [r[3] for r in rows] == [5, 5, 5, 5]
        mean_freqs = [r[1] for r in rows]
        assert mean_freqs == sorted(mean_freqs)
        assert_allclose(mean_freqs, [30.0, 80.0, 130.0, 180.0])
        assert all(r[2] > 0.0 for r in rows)
        assert -1.0 <= rho <= 1.0 and 0.0 <= p <= 1.0

    def test_uneven_split_sizes(self):
        runs, _ = self.build_runs(v=10)
        proxy = ProxySample(runs.spaces[0].vocab.words)
        rows, _ = frequency_profile(runs, proxy, batches=3)
        assert [r[3] for r in rows] == [3, 3, 4]
        assert sum(r[3] for r in rows) == 10

    def test_requires_frequencies_and_enough_words(self):
        spaces = tuple(random_normalized_space(6, 3, seed=70 + i) for i in range(2))
        runs = RunSet(spaces)
        proxy = ProxySample(spaces[0].vocab.words)
        with pytest.raises(ValueError, match="no word frequencies"):
            frequency_profile(runs, proxy, batches=2)
        runs_f, _ = self.build_runs(v=6)
        with pytest.raises(ValueError, match="cannot fill"):
            frequency_profile(runs_f, ProxySample(runs_f.spaces[0].vocab.words),
                              batches=7)
        with pytest.raises(ValueError, match="at least 2 batches"):
            frequency_profile(runs_f, ProxySample(runs_f.spaces[0].vocab.words),
                              batches=1)
