"""End-to-end command-line tests, run in-process through `main`."""

import hashlib
import importlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from embedstab import (
    EmbeddingSpace,
    RunSet,
    Vocabulary,
    aligned_average_tree,
    build_change_report,
    estimate_profile,
    expected_overlap,
    intrinsic_instability,
    load_corpus,
    load_profile,
    load_text_vectors,
    mean_overlap,
    normalize,
    reduced_pip_loss,
    sample_proxy,
    save_frequencies,
    save_text_vectors,
    structure_factor,
)
from embedstab import gaussian
from embedstab.cli import main

from helpers import (
    answer_files_oracle, cli_inputs, keep_mask, quadrature_nodes, random_normalized_space,
    rotated_copy, two_topic_corpus, words_for,
)


def run_cli(*args):
    return main([str(a) for a in args])


def exit_code(*args):
    """`main`'s exit code, whether it returns one or argparse exits with it."""
    try:
        return run_cli(*args)
    except SystemExit as exc:
        return exc.code


def parse_report(path):
    """Report TSV -> (meta dict, list of row dicts keyed by column)."""
    meta, columns, rows = {}, None, []
    for line in Path(path).read_text().splitlines():
        if columns is None and line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split("\t")
        else:
            rows.append(dict(zip(columns, line.split("\t"))))
    return meta, rows


FAST_TRAINER = (
    "--dim", 8, "--window", 2, "--neg", 2, "--epochs", 2,
    "--lr", 0.05, "--sample", 1.0, "--min-count", 1,
)


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    corpus, _, _ = two_topic_corpus(docs=40, doc_len=10, seed=3)
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    path.write_text("\n".join(" ".join(doc) for doc in corpus.documents) + "\n")
    return path


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, corpus_file):
    """Three shuffled-mode training runs shared by the report-command tests."""
    out = tmp_path_factory.mktemp("runs")
    code = run_cli(
        "train", "--corpus", corpus_file, *FAST_TRAINER,
        "--mode", "shuffled", "--runs", 3, "--seed", 5, "--out-dir", out,
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_spaces(run_dir):
    files = sorted(run_dir.glob("*.vec"))
    return tuple(normalize(load_text_vectors(f, f"{f}.freq")) for f in files)


@pytest.fixture(scope="module")
def targets_file(tmp_path_factory, run_spaces):
    counts = run_spaces[0].vocab.frequency
    words = sorted(counts, key=lambda w: (-counts[w], w))[:3]
    path = tmp_path_factory.mktemp("words") / "targets.txt"
    path.write_text("\n".join(words) + "\n")
    return path


class TestTrain:
    def test_single_run_outputs_and_manifest(self, tmp_path, corpus_file):
        out = tmp_path / "single.vec"
        code = run_cli(
            "train", "--corpus", corpus_file, *FAST_TRAINER,
            "--mode", "fixed", "--seed", 9, "--out", out,
        )
        assert code == 0
        space = load_text_vectors(out, f"{out}.freq")
        assert space.matrix.shape[1] == 8
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["tool"] == "embedstab"
        assert manifest["command"] == "train"
        assert manifest["config"]["global_seed"] == 9
        digest = hashlib.sha256(corpus_file.read_bytes()).hexdigest()
        assert manifest["config"]["corpus_sha256"] == digest
        assert manifest["runs"][0]["sha256"] == hashlib.sha256(
            out.read_bytes()
        ).hexdigest()

    def test_single_run_is_byte_reproducible(self, tmp_path, corpus_file):
        outs = []
        for name in ("a.vec", "b.vec"):
            out = tmp_path / name
            assert run_cli(
                "train", "--corpus", corpus_file, *FAST_TRAINER,
                "--mode", "shuffled", "--seed", 4, "--out", out,
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_multi_run_directory(self, run_dir):
        files = sorted(p.name for p in run_dir.glob("*.vec"))
        assert files == ["run_000.vec", "run_001.vec", "run_002.vec"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert [e["seed"] for e in manifest["runs"]] == [5, 6, 7]
        for entry in manifest["runs"]:
            path = run_dir / entry["file"]
            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]
        blobs = [(run_dir / e["file"]).read_bytes() for e in manifest["runs"]]
        assert blobs[0] != blobs[1]  # different per-run seeds

    def test_out_and_out_dir_are_mutually_exclusive(self, tmp_path, corpus_file, capsys):
        code = run_cli(
            "train", "--corpus", corpus_file,
            "--out", tmp_path / "x.vec", "--out-dir", tmp_path,
        )
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        assert run_cli("train", "--corpus", corpus_file) == 2

    def test_runs_flag_needs_out_dir(self, tmp_path, corpus_file):
        code = run_cli(
            "train", "--corpus", corpus_file, "--runs", 2,
            "--out", tmp_path / "x.vec",
        )
        assert code == 2

    def test_missing_corpus_is_a_data_error(self, tmp_path, capsys):
        code = run_cli(
            "train", "--corpus", tmp_path / "nope.txt", "--out", tmp_path / "x.vec"
        )
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_failing_run_reports_its_index(self, tmp_path, corpus_file, capsys):
        code = run_cli(
            "train", "--corpus", corpus_file, "--min-count", 10_000, "--runs", 2,
            "--out-dir", tmp_path / "runs",
        )
        assert code == 3
        assert "data error: run 0 failed" in capsys.readouterr().err

    def test_train_runs_manifest_names_its_files(self, tmp_path, corpus_file):
        # The manifest of `train --runs` names the corpus read and every run
        # and sidecar written by the sha256 of their bytes.
        code = run_cli(
            "train", "--corpus", corpus_file, "--dim", 4, "--window", 2, "--neg", 2,
            "--epochs", 1, "--runs", 2, "--out-dir", tmp_path / "runs",
        )
        assert code == 0
        manifest = json.loads((tmp_path / "runs" / "manifest.json").read_text())
        assert manifest["config"]["corpus_sha256"] == sha256_of(corpus_file)
        assert [entry["file"] for entry in manifest["runs"]] == ["run_000.vec", "run_001.vec"]
        for entry in manifest["runs"]:
            path = tmp_path / "runs" / entry["file"]
            assert entry["sha256"] == sha256_of(path)
            assert entry["frequency_file"] == f"{entry['file']}.freq"
            assert entry["frequency_sha256"] == sha256_of(f"{path}.freq")

    def test_config_validation(self, tmp_path, corpus_file, capsys):
        # A run count below 1 or an unknown sampling mode is a usage error,
        # whether a flag or a --config key gives it, and stderr names which.
        cases = [(("--runs", 0), "--runs"), (("--mode", "sideways"), "--mode")]
        for key, body in (("runs", "runs=0\n"), ("mode", "mode=sideways\n")):
            config = tmp_path / f"{key}.cfg"
            config.write_text(body)
            cases.append((("--config", config), f"config key {key!r}"))
        for flags, named in cases:
            argv = ("train", "--corpus", corpus_file, *flags, "--out-dir", tmp_path / "runs")
            assert exit_code(*argv) == 2
            assert named in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--lr", -1), "--lr"), (("--lr", 0), "--lr"), (("--lr", "nan"), "--lr"),
            (("--lr", "inf"), "--lr"), (("--sample", 2), "--sample"),
            (("--sample", 0), "--sample"), (("--sample", "nan"), "--sample"),
            (("--config", "lr=-1\n"), "config key 'lr'"),
            (("--config", "sample=2\n"), "config key 'sample'"),
            (("conformity", "--train-lr", -1), "--train-lr"),
            (("conformity", "--train-sample", 0), "--train-sample"),
        ],
    )
    def test_a_bad_learning_rate_or_sampling_threshold_is_a_usage_error(
        self, tmp_path, corpus_file, capsys, flags, named
    ):
        # Each exits 2 naming its flag or config key, and writes nothing.
        if flags[0] == "--config":
            config = tmp_path / "bad.cfg"
            config.write_text(flags[1])
            flags = ("--config", config)
        if flags[0] == "conformity":
            argv = (*flags, "--epochs", tmp_path, "--out", tmp_path / "out.tsv")
        else:
            argv = ("train", "--corpus", corpus_file, *flags, "--out-dir", tmp_path / "runs")
        before = sorted(tmp_path.iterdir())
        assert exit_code(*argv) == 2
        assert named in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_numerical_failure_exit_code(self, tmp_path, corpus_file, monkeypatch, capsys):
        import embedstab.cli as cli

        def explode(corpus, config):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "train", explode)
        code = run_cli(
            "train", "--corpus", corpus_file, "--runs", 2,
            "--out-dir", tmp_path / "runs",
        )
        assert code == 4
        assert "numerical failure: run 0 failed" in capsys.readouterr().err

    def test_a_bug_in_a_run_is_not_a_data_error(self, tmp_path, corpus_file, monkeypatch):
        # Only a ValueError (a LoadError too) is a data error; a TypeError
        # raised while training is a bug, and it reaches the caller.
        import embedstab.cli as cli

        def broken(corpus, config):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(cli, "train", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            run_cli("train", "--corpus", corpus_file, "--out-dir", tmp_path / "runs")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_training_exit_code(self, tmp_path, corpus_file, capsys):
        code = run_cli(
            "train", "--corpus", corpus_file, "--out", tmp_path / "o.vec",
            "--lr", 1e300, "--min-count", 1, "--dim", 5,
        )
        assert code == 4
        assert "numerical failure: run 0 failed: training diverged" in capsys.readouterr().err


class TestSample:
    def test_fixed_mode_round_trips_the_corpus(self, tmp_path, corpus_file):
        out = tmp_path / "fixed.txt"
        assert run_cli(
            "sample", "--corpus", corpus_file, "--mode", "fixed", "--out", out
        ) == 0
        want = [
            " ".join(line.split())
            for line in corpus_file.read_text().splitlines()
            if line.strip()
        ]
        assert out.read_text().splitlines() == want
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["command"] == "sample"

    def test_shuffled_mode_permutes_deterministically(self, tmp_path, corpus_file):
        outs = []
        for name in ("s1.txt", "s2.txt", "s3.txt"):
            seed = 1 if name != "s3.txt" else 2
            out = tmp_path / name
            assert run_cli(
                "sample", "--corpus", corpus_file, "--mode", "shuffled",
                "--seed", seed, "--out", out,
            ) == 0
            outs.append(out.read_text().splitlines())
        assert outs[0] == outs[1]
        assert outs[0] != outs[2]
        assert sorted(outs[0]) == sorted(outs[2])

    def test_dedup_is_on_by_default(self, tmp_path):
        corpus = tmp_path / "dup.txt"
        corpus.write_text("a b\na b\nc d\n")
        out = tmp_path / "deduped.txt"
        assert run_cli(
            "sample", "--corpus", corpus, "--mode", "fixed", "--out", out
        ) == 0
        assert out.read_text().splitlines() == ["a b", "c d"]
        kept = tmp_path / "kept.txt"
        assert run_cli(
            "sample", "--corpus", corpus, "--mode", "fixed", "--no-dedup",
            "--out", kept,
        ) == 0
        assert kept.read_text().splitlines() == ["a b", "a b", "c d"]

    def test_lines_split_where_load_corpus_splits(self, tmp_path):
        # Form feed, NEL and CR LF: only the line ends (\n, \r\n) start a
        # new document, the others are whitespace inside one.
        corpus = tmp_path / "breaks.txt"
        corpus.write_bytes("a b\x0cc d\ne f g h\r\ni j\x85k l\n".encode("utf-8"))
        out = tmp_path / "fixed.txt"
        assert run_cli(
            "sample", "--corpus", corpus, "--mode", "fixed", "--no-dedup",
            "--out", out,
        ) == 0
        want = load_corpus(corpus).documents
        assert len(want) == 3
        assert load_corpus(out).documents == want

    def test_lowercase_flag(self, tmp_path):
        corpus = tmp_path / "case.txt"
        corpus.write_text("Apple Pie\n")
        out = tmp_path / "lower.txt"
        assert run_cli(
            "sample", "--corpus", corpus, "--mode", "fixed", "--lowercase",
            "--out", out,
        ) == 0
        assert out.read_text() == "apple pie\n"


class TestArgparseBehaviour:
    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "embedstab" in capsys.readouterr().out

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("transmogrify")
        assert exc.value.code == 2

    def test_missing_required_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("overlap", "--out", "x.tsv")
        assert exc.value.code == 2

    @pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
    @pytest.mark.parametrize(
        "command, key, expected",
        [
            ("train", "dim", "an integer >= 1"),
            ("train", "epochs", "an integer >= 0"),
            ("train", "lr", "a finite number > 0"),
            ("train", "sample", "a number in (0, 1]"),
            ("instability", "runs", "an integer >= 2 or 'all'"),
        ],
    )
    def test_a_non_number_names_what_is_expected(
        self, tmp_path, corpus_file, capsys, command, key, expected, by_config
    ):
        # Each converter's message, by flag and by config key: exit 2, and
        # nothing written.
        if command == "train":
            argv = ["train", "--corpus", corpus_file, "--out-dir", tmp_path / "runs"]
        else:
            argv = ["instability", "--shuffled", tmp_path, "--out", tmp_path / "i.tsv"]
        if by_config:
            config = tmp_path / "bad.cfg"
            config.write_text(f"{key}=abc\n")
            argv += ["--config", config]
            named = f"config key {key!r}"
        else:
            argv += [f"--{key}", "abc"]
            named = f"argument --{key}"
        before = sorted(tmp_path.iterdir())
        assert exit_code(*argv) == 2
        assert f"{named}: expected {expected}, got 'abc'" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before


class TestConfigFile:
    def test_config_fills_unset_flags(self, tmp_path, corpus_file):
        config = tmp_path / "train.cfg"
        config.write_text("# trainer\ndim=4\nepochs=1\nseed=7\n\nmode=fixed\n")
        out = tmp_path / "from_config.vec"
        assert run_cli(
            "train", "--corpus", corpus_file, "--config", config,
            "--sample", 1.0, "--min-count", 1, "--out", out,
        ) == 0
        assert load_text_vectors(out).matrix.shape[1] == 4

    def test_explicit_flag_beats_config(self, tmp_path, corpus_file):
        config = tmp_path / "train.cfg"
        config.write_text("dim=4\nepochs=1\nmode=fixed\n")
        out = tmp_path / "override.vec"
        assert run_cli(
            "train", "--corpus", corpus_file, "--config", config,
            "--dim", 6, "--sample", 1.0, "--min-count", 1, "--out", out,
        ) == 0
        assert load_text_vectors(out).matrix.shape[1] == 6

    def test_abbreviated_flag_beats_config(self, tmp_path, corpus_file):
        config = tmp_path / "train.cfg"
        config.write_text("dim=4\nepochs=1\nmode=fixed\n")
        out = tmp_path / "abbrev.vec"
        assert run_cli(
            "train", "--corpus", corpus_file, "--config", config,
            "--di", 6, "--sample", 1.0, "--min-count", 1, "--out", out,
        ) == 0
        assert load_text_vectors(out).matrix.shape[1] == 6
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["dim"] == 6
        assert manifest["config"]["epochs"] == 1

    def test_boolean_coercion(self, tmp_path):
        # argparse still enforces required flags (--mode, --out); the config
        # file fills only optional ones.
        corpus = tmp_path / "case.txt"
        corpus.write_text("Apple Pie\n")
        config = tmp_path / "sample.cfg"
        config.write_text("lowercase=yes\n")
        out = tmp_path / "out.txt"
        assert run_cli(
            "sample", "--corpus", corpus, "--config", config,
            "--mode", "fixed", "--out", out,
        ) == 0
        assert out.read_text() == "apple pie\n"

    def test_unknown_key_is_a_usage_error(self, tmp_path, corpus_file, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("dimension=4\n")
        code = run_cli(
            "train", "--corpus", corpus_file, "--config", config,
            "--out", tmp_path / "x.vec",
        )
        assert code == 2
        assert "unknown config key 'dimension'" in capsys.readouterr().err

    def test_malformed_line_is_a_usage_error(self, tmp_path, corpus_file):
        config = tmp_path / "bad.cfg"
        config.write_text("dim 4\n")
        assert run_cli(
            "train", "--corpus", corpus_file, "--config", config,
            "--out", tmp_path / "x.vec",
        ) == 2

    def test_bad_value_and_bad_choice(self, tmp_path, corpus_file):
        for body in ("dim=zero\n", "mode=banana\n"):
            config = tmp_path / "bad.cfg"
            config.write_text(body)
            assert run_cli(
                "train", "--corpus", corpus_file, "--config", config,
                "--out", tmp_path / "x.vec",
            ) == 2


class TestPipCommand:
    def test_matches_library_computation(self, tmp_path, run_dir, run_spaces):
        out = tmp_path / "pip.tsv"
        assert run_cli(
            "pip", "--inputs", *sorted(run_dir.glob("*.vec")),
            "--seed", 0, "--out", out,
        ) == 0
        meta, rows = parse_report(out)
        assert meta["tool"] == "embedstab 0.1.0"
        assert meta["command"] == "pip"
        assert [(r["run_a"], r["run_b"]) for r in rows] == [
            ("0", "1"), ("0", "2"), ("1", "2")
        ]
        proxy = sample_proxy(run_spaces, seed=0)
        assert int(meta["proxy_size"]) == len(proxy)
        for row in rows:
            i, j = int(row["run_a"]), int(row["run_b"])
            want = reduced_pip_loss(run_spaces[i], run_spaces[j], proxy)
            assert float(row["reduced_pip"]) == want  # repr round-trip is exact
            assert want > 0.0

    def test_byte_reproducible(self, tmp_path, run_dir):
        blobs = []
        for name in ("p1.tsv", "p2.tsv"):
            out = tmp_path / name
            assert run_cli(
                "pip", "--inputs", *sorted(run_dir.glob("*.vec")), "--out", out
            ) == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_wordwise_flags_must_pair(self, tmp_path, run_dir, targets_file):
        files = sorted(run_dir.glob("*.vec"))
        out = tmp_path / "pip.tsv"
        assert run_cli(
            "pip", "--inputs", *files, "--words", targets_file, "--out", out
        ) == 2
        assert run_cli(
            "pip", "--inputs", *files, "--wordwise-out", tmp_path / "w.tsv",
            "--out", out,
        ) == 2

    def test_wordwise_report(self, tmp_path, run_dir, targets_file):
        out = tmp_path / "pip.tsv"
        wordwise = tmp_path / "wordwise.tsv"
        assert run_cli(
            "pip", "--inputs", *sorted(run_dir.glob("*.vec")),
            "--words", targets_file, "--wordwise-out", wordwise, "--out", out,
        ) == 0
        words = targets_file.read_text().split()
        _, rows = parse_report(wordwise)
        assert len(rows) == 3 * len(words)  # 3 run pairs
        assert all(float(r["wordwise_pip"]) >= 0.0 for r in rows)

    def test_single_input_is_a_data_error(self, tmp_path, run_dir):
        first = sorted(run_dir.glob("*.vec"))[0]
        assert run_cli(
            "pip", "--inputs", first, "--out", tmp_path / "pip.tsv"
        ) == 3

    def test_sidecar_count_below_one_names_its_line(self, tmp_path, capsys):
        paths = [tmp_path / "a.vec", tmp_path / "b.vec"]
        for seed, path in enumerate(paths):
            save_text_vectors(random_normalized_space(3, 2, seed=seed), path)
        freq = tmp_path / "b.vec.freq"
        freq.write_text("w0000\t4\nw0001\t0\nw0002\t1\n")
        assert run_cli("pip", "--inputs", *paths, "--out", tmp_path / "pip.tsv") == 3
        assert capsys.readouterr().err == (
            f"embedstab: data error: {freq}:2: count must be >= 1, got 0\n"
        )


class TestOverlapCommand:
    def test_matches_library_computation(self, tmp_path, run_dir, run_spaces, targets_file):
        out = tmp_path / "overlap.tsv"
        assert run_cli(
            "overlap", "--inputs", *sorted(run_dir.glob("*.vec")),
            "--targets", targets_file, "--n", 3, "--out", out,
        ) == 0
        meta, rows = parse_report(out)
        runs = RunSet(run_spaces, mode="fixed")
        targets = targets_file.read_text().split()
        want = {s.target: s for s in mean_overlap(runs, targets, 3)}
        assert [r["target"] for r in rows] == targets
        for row in rows:
            summary = want[row["target"]]
            assert float(row["mean_p_at_n"]) == summary.mean_p
            assert float(row["mean_j_at_n"]) == summary.mean_j
            assert int(row["pairs"]) == summary.pair_count == 3

    def test_unknown_target_is_a_data_error(self, tmp_path, run_dir, capsys):
        targets = tmp_path / "targets.txt"
        targets.write_text("definitelynotaword\n")
        assert run_cli(
            "overlap", "--inputs", *sorted(run_dir.glob("*.vec")),
            "--targets", targets, "--out", tmp_path / "o.tsv",
        ) == 3
        assert "data error" in capsys.readouterr().err


class TestPredictCommand:
    def test_predictions_and_profiles(self, tmp_path, run_dir, run_spaces, targets_file):
        out = tmp_path / "predict.tsv"
        profiles = tmp_path / "profiles"
        assert run_cli(
            "predict", "--inputs", *sorted(run_dir.glob("*.vec")),
            "--targets", targets_file, "--candidates", 3,
            "--profiles", profiles, "--out", out,
        ) == 0
        _, rows = parse_report(out)
        targets = targets_file.read_text().split()
        assert [r["target"] for r in rows] == targets
        runs = RunSet(run_spaces, mode="fixed")
        measured_1 = {s.target: s.mean_p for s in mean_overlap(runs, targets, 1)}
        for row in rows:
            assert 0.0 <= float(row["predicted_p1"]) <= 1.0
            assert 0.0 <= float(row["predicted_p2"]) <= 1.0
            assert float(row["measured_p1"]) == measured_1[row["target"]]
            assert float(row["structure_factor"]) > 0.0
        saved = sorted(profiles.glob("profile_*.tsv"))
        assert len(saved) == len(targets)
        profile = load_profile(saved[0])
        assert profile.target == targets[0]

    def test_rows_are_the_library_values_from_one_kernel_call_per_grid_shape(
        self, tmp_path, monkeypatch
    ):
        inputs = cli_inputs(tmp_path)
        targets = tmp_path / "targets_20.txt"
        targets.write_text("\n".join(words_for(60)[::3]) + "\n")
        calls = []
        kernel = gaussian._rank_kernel

        def counting(mus, sigmas, *key):
            calls.append(len(mus))
            return kernel(mus, sigmas, *key)

        monkeypatch.setattr(gaussian, "_rank_kernel", counting)
        assert run_cli(
            "predict", "--inputs", *inputs, "--targets", targets, "--candidates", 3,
            "--profiles", tmp_path / "profiles", "--out", tmp_path / "predict.tsv",
        ) == 0
        monkeypatch.undo()
        _, rows = parse_report(tmp_path / "predict.tsv")
        saved = sorted((tmp_path / "profiles").glob("profile_*.tsv"))
        assert len(rows) == len(saved) == 20
        runs = RunSet(tuple(normalize(load_text_vectors(p)) for p in inputs), mode="fixed")
        shapes = set()
        for row, path in zip(rows, saved):
            profile = estimate_profile(runs, row["target"], load_profile(path).queries)
            assert float(row["predicted_p1"]) == expected_overlap(profile, 1)
            assert float(row["predicted_p2"]) == expected_overlap(profile, 2)
            assert float(row["structure_factor"]) == structure_factor(profile, 1)
            for table in (profile, gaussian._flattened(profile)):
                mu, sigma = gaussian._profile_arrays(table)
                kept = keep_mask(mu, sigma, gaussian.DEFAULT_PRUNING_THRESHOLD, 2)
                x, _, owner = quadrature_nodes(mu[kept], sigma[kept])
                shapes.add((kept.sum(), x.size, tuple(owner[owner >= 0])))
        # Every profile and flattened twin once, in at most one call per
        # grid shape, and there are fewer shapes than tables.
        assert sum(calls) == 2 * len(rows)
        assert len(calls) <= len(shapes) < 2 * len(rows)


class TestInstabilityCommand:
    def test_intrinsic_only(self, tmp_path, run_dir, run_spaces, capsys):
        out = tmp_path / "inst.tsv"
        assert run_cli(
            "instability", "--shuffled", run_dir, "--runs", "all",
            "--seed", 0, "--out", out,
        ) == 0
        meta, rows = parse_report(out)
        proxy = sample_proxy(list(run_spaces), seed=0)
        report = intrinsic_instability(RunSet(run_spaces, mode="shuffled"), proxy)
        assert float(meta["intrinsic"]) == report.intrinsic
        assert meta["extrinsic"] == "NA"
        assert meta["boot_mean"] == "NA"
        assert meta["extrinsic_undefined"] == "false"
        assert int(meta["pair_count"]) == 3
        assert len(rows) == 3
        assert all(r["set"] == "shuffled" for r in rows)

    def test_runs_two_uses_first_two_sorted_files(self, tmp_path, run_dir, run_spaces):
        out = tmp_path / "inst2.tsv"
        assert run_cli(
            "instability", "--shuffled", run_dir, "--runs", 2, "--out", out
        ) == 0
        meta, rows = parse_report(out)
        assert int(meta["pair_count"]) == 1
        proxy = sample_proxy(list(run_spaces[:2]), seed=0)
        report = intrinsic_instability(
            RunSet(run_spaces[:2], mode="shuffled"), proxy
        )
        assert float(meta["intrinsic"]) == report.intrinsic

    def test_with_bootstrapped_runs(self, tmp_path, corpus_file, run_dir):
        boot_dir = tmp_path / "boot"
        assert run_cli(
            "train", "--corpus", corpus_file, *FAST_TRAINER,
            "--mode", "bootstrapped", "--runs", 2, "--seed", 11,
            "--out-dir", boot_dir,
        ) == 0
        out = tmp_path / "ext.tsv"
        assert run_cli(
            "instability", "--shuffled", run_dir, "--bootstrapped", boot_dir,
            "--runs", 2, "--out", out,
        ) == 0
        meta, rows = parse_report(out)
        assert meta["boot_mean"] != "NA"
        undefined = meta["extrinsic_undefined"] == "true"
        assert (meta["extrinsic"] == "NA") == undefined
        labels = Counter(r["set"] for r in rows)
        assert labels == {"shuffled": 1, "bootstrapped": 1}

    def test_wordwise_needs_bootstrapped_and_out(self, tmp_path, run_dir, targets_file):
        out = tmp_path / "inst.tsv"
        assert run_cli(
            "instability", "--shuffled", run_dir, "--words", targets_file,
            "--wordwise-out", tmp_path / "w.tsv", "--out", out,
        ) == 2
        assert run_cli(
            "instability", "--shuffled", run_dir, "--words", targets_file,
            "--out", out,
        ) == 2

    def test_empty_directory_is_a_data_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert run_cli(
            "instability", "--shuffled", empty, "--out", tmp_path / "x.tsv"
        ) == 3

    def test_too_few_files_is_a_data_error(self, tmp_path, run_dir, capsys):
        assert run_cli(
            "instability", "--shuffled", run_dir, "--runs", 5,
            "--out", tmp_path / "x.tsv",
        ) == 3
        assert "5 runs requested" in capsys.readouterr().err


class TestPipKernelCalls:
    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        """Word row counts of the PIP kernel's calls, in call order."""
        # The package's `pip_loss` function shadows the module of that name.
        pip_module = importlib.import_module("embedstab.pip_loss")
        calls = []
        kernel = pip_module._pip_kernel

        def counting(a, words_a, b, words_b):
            calls.append(len(words_a))
            return kernel(a, words_a, b, words_b)

        monkeypatch.setattr(pip_module, "_pip_kernel", counting)
        return calls

    def test_instability_words_run_the_kernel_once_per_pair(
        self, tmp_path, run_dir, targets_file, kernel_calls
    ):
        # The run directory serves as both sets: 3 + 3 pairs.
        assert run_cli(
            "instability", "--shuffled", run_dir, "--bootstrapped", run_dir,
            "--runs", "all", "--words", targets_file,
            "--wordwise-out", tmp_path / "w.tsv", "--out", tmp_path / "i.tsv",
        ) == 0
        words = targets_file.read_text().split()
        assert kernel_calls == [len(words)] * 6

    def test_pip_words_run_the_kernel_once_per_pair(
        self, tmp_path, run_dir, targets_file, kernel_calls
    ):
        assert run_cli(
            "pip", "--inputs", *sorted(run_dir.glob("*.vec")),
            "--words", targets_file, "--wordwise-out", tmp_path / "w.tsv",
            "--out", tmp_path / "p.tsv",
        ) == 0
        assert kernel_calls == [len(targets_file.read_text().split())] * 3


class TestAverageCommand:
    def test_matches_library_tree_average(self, tmp_path, run_dir, run_spaces):
        out = tmp_path / "avg.vec"
        assert run_cli(
            "average", "--inputs", *sorted(run_dir.glob("*.vec")), "--out", out
        ) == 0
        averaged = load_text_vectors(out, f"{out}.freq")
        want = aligned_average_tree(run_spaces)
        assert averaged.vocab.words == want.vocab.words
        assert_allclose(averaged.matrix, want.matrix, atol=1e-9)
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["config"]["renormalize"] is True
        assert manifest["config"]["pairing"] == "given"

    def test_no_renorm_differs(self, tmp_path, run_dir):
        files = sorted(run_dir.glob("*.vec"))
        renormed = tmp_path / "renormed.vec"
        raw = tmp_path / "raw.vec"
        assert run_cli("average", "--inputs", *files, "--out", renormed) == 0
        assert run_cli(
            "average", "--inputs", *files, "--no-renorm", "--out", raw
        ) == 0
        a = load_text_vectors(renormed)
        b = load_text_vectors(raw)
        assert not np.allclose(a.matrix, b.matrix)

    def test_seeded_pairing(self, tmp_path, corpus_file, run_dir):
        extra_dir = tmp_path / "extra"
        assert run_cli(
            "train", "--corpus", corpus_file, *FAST_TRAINER,
            "--mode", "shuffled", "--runs", 4, "--seed", 21,
            "--out-dir", extra_dir,
        ) == 0
        files = sorted(extra_dir.glob("*.vec"))
        given = tmp_path / "given.vec"
        seeded = tmp_path / "seeded.vec"
        assert run_cli("average", "--inputs", *files, "--out", given) == 0
        # seed 2 shuffles the four runs into a different pairing (seed 1's
        # permutation of four elements happens to be the identity)
        assert run_cli(
            "average", "--inputs", *files, "--pairing", "seeded", "--seed", 2,
            "--out", seeded,
        ) == 0
        a = load_text_vectors(given)
        b = load_text_vectors(seeded)
        assert not np.allclose(a.matrix, b.matrix)
        spaces = tuple(normalize(load_text_vectors(f, f"{f}.freq")) for f in files)
        want = aligned_average_tree(spaces, pairing="seeded", seed=2)
        assert_allclose(b.matrix, want.matrix, atol=1e-9)


class TestAnalogyCommand:
    def test_planted_analogy(self, tmp_path):
        words = ("man", "king", "woman", "queen", "filler")
        matrix = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.6, 0.8, 0.0],
                [1.0, 0.0, 0.0],
                [0.6, 0.8, 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        # distinct rows for the pairs so the planted answer stays unique
        matrix[2] = [0.8, 0.0, 0.6]
        matrix[3] = [0.48, 0.8, 0.36]
        matrix[3] /= np.linalg.norm(matrix[3])
        space = EmbeddingSpace(
            Vocabulary(words, {w: 10 - i for i, w in enumerate(words)}),
            matrix,
            normalized=True,
        )
        vec = tmp_path / "toy.vec"
        save_text_vectors(space, vec)
        questions = tmp_path / "questions.txt"
        questions.write_text(
            ": planted\nman king woman queen\nman king woman missing\n"
        )
        out = tmp_path / "analogy.tsv"
        assert run_cli(
            "analogy", "--input", vec, "--analogies", questions, "--out", out
        ) == 0
        _, rows = parse_report(out)
        values = {r["metric"]: r["value"] for r in rows}
        assert float(values["accuracy"]) == 1.0
        assert float(values["coverage"]) == 0.5
        assert int(values["questions"]) == 2


def write_epoch_pair(tmp_path, theta=0.9, v=40, d=6, seed=0):
    """Two saved epoch spaces: identical but for one word rotated by theta."""
    space = random_normalized_space(v, d, seed=seed)
    matrix = space.matrix.copy()
    rng = np.random.default_rng(seed + 1)
    row = matrix[5]
    u = rng.normal(size=d)
    u -= (u @ row) * row
    u /= np.linalg.norm(u)
    matrix[5] = math.cos(theta) * row + math.sin(theta) * u
    t2 = EmbeddingSpace(space.vocab, matrix, normalized=True)
    p1, p2 = tmp_path / "t1.vec", tmp_path / "t2.vec"
    save_text_vectors(space, p1)
    save_text_vectors(t2, p2)
    return p1, p2, space.vocab.words[5], space.vocab.words[0]


class TestChangeCommand:
    def test_end_to_end(self, tmp_path):
        p1, p2, changed, control = write_epoch_pair(tmp_path)
        targets = tmp_path / "targets.txt"
        targets.write_text(f"{changed}\n{control}\n")
        gold = tmp_path / "gold.tsv"
        gold.write_text(f"{changed}\t1\n{control}\t0\n")
        out_dir = tmp_path / "change"
        assert run_cli(
            "change", "--t1", p1, "--t2", p2, "--targets", targets,
            "--gold-binary", gold, "--out", out_dir,
        ) == 0
        meta, rows = parse_report(out_dir / "report.tsv")
        assert rows[0]["word"] == changed  # ranked by descending delta
        assert rows[0]["is_target"] == "true"
        assert rows[0]["changed"] == "true"
        assert float(meta["tau"]) > 0.0

        answers = dict(
            line.split("\t")
            for line in (out_dir / "answers-binary.tsv").read_text().splitlines()
        )
        assert answers == {changed: "1", control: "0"}
        graded = dict(
            line.split("\t")
            for line in (out_dir / "answers-graded.tsv").read_text().splitlines()
        )
        assert float(graded[changed]) > float(graded[control])

        _, eval_rows = parse_report(out_dir / "evaluation.tsv")
        values = {r["metric"]: r["value"] for r in eval_rows}
        assert float(values["accuracy"]) == 1.0
        assert values["spearman_rho"] == "NA"
        assert int(values["binary_targets"]) == 2

    def test_answer_files_match_the_f_string_writer(self, tmp_path):
        p1, p2, changed, control = write_epoch_pair(tmp_path)
        targets = [changed, control, "w0011", "w0002"]
        (tmp_path / "targets.txt").write_text("\n".join(targets) + "\n")
        out_dir = tmp_path / "change"
        assert run_cli(
            "change", "--t1", p1, "--t2", p2, "--targets", tmp_path / "targets.txt",
            "--out", out_dir,
        ) == 0
        t1, t2 = (normalize(load_text_vectors(p)) for p in (p1, p2))
        report = build_change_report(t1, t2, targets=targets, min_count=1)
        want = tmp_path / "oracle"
        want.mkdir()
        answer_files_oracle(report.labels, report.deltas, targets, want)
        for name in ("answers-binary.tsv", "answers-graded.tsv"):
            assert (out_dir / name).read_bytes() == (want / name).read_bytes()

    def test_repeated_gold_word_is_a_data_error(self, tmp_path, capsys):
        p1, p2, changed, control = write_epoch_pair(tmp_path)
        targets = tmp_path / "targets.txt"
        targets.write_text(f"{changed}\n{control}\n")
        gold = tmp_path / "gold.tsv"
        gold.write_text(f"{changed}\t1\n \n{control}\t0\n{changed}\t0\n")
        assert run_cli(
            "change", "--t1", p1, "--t2", p2, "--targets", targets,
            "--gold-binary", gold, "--out", tmp_path / "change",
        ) == 3
        assert f"{gold}:4: duplicate word '{changed}'" in capsys.readouterr().err

    def test_missing_target_is_a_data_error(self, tmp_path, capsys):
        p1, p2, _, _ = write_epoch_pair(tmp_path)
        targets = tmp_path / "targets.txt"
        targets.write_text("notaword\n")
        assert run_cli(
            "change", "--t1", p1, "--t2", p2, "--targets", targets,
            "--out", tmp_path / "change",
        ) == 3
        assert "absent from an epoch" in capsys.readouterr().err

    def test_min_count_needs_frequency_sidecars(self, tmp_path, capsys):
        p1, p2, changed, _ = write_epoch_pair(tmp_path)
        targets = tmp_path / "targets.txt"
        targets.write_text(f"{changed}\n")
        assert run_cli(
            "change", "--t1", p1, "--t2", p2, "--targets", targets,
            "--min-count", 5, "--out", tmp_path / "change",
        ) == 3
        assert "frequency sidecar" in capsys.readouterr().err


@pytest.fixture(scope="module")
def epochs_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("epochs")
    words = [f"t{i:02d}" for i in range(10)]
    for name, seed in (("epoch0.txt", 0), ("epoch1.txt", 1)):
        docs = []
        local = np.random.default_rng(seed)
        for _ in range(30):
            # Zipf-ish draw: low-index words dominate, so counts vary.
            idx = np.minimum(local.geometric(0.25, size=8) - 1, 9)
            docs.append(" ".join(words[i] for i in idx))
        (root / name).write_text("\n".join(docs) + "\n")
    return root


class TestConformityCommand:
    def test_genuine_and_control_conditions(self, tmp_path, epochs_dir):
        out = tmp_path / "conformity.tsv"
        obs_out = tmp_path / "observations.tsv"
        code = run_cli(
            "conformity", "--epochs", epochs_dir, "--runs", 2, "--avg", 1,
            "--min-count", 1, "--control", 2, "--seed", 0,
            "--train-dim", 4, "--train-window", 2, "--train-neg", 2,
            "--train-epochs", 1, "--train-sample", 1.0, "--train-min-count", 1,
            "--observations-out", obs_out, "--out", out,
        )
        assert code == 0
        meta, rows = parse_report(out)
        assert [r["condition"] for r in rows] == ["genuine", "control"]
        for row in rows:
            float(row["beta_f"])  # parses
            assert 0.0 <= float(row["var_explained"]) <= 1.0
            assert row["fit_method"] == "profiled-ml"
            assert int(row["n_observations"]) > 0
        assert meta["control_batches"] == "2"
        _, obs_rows = parse_report(obs_out)
        by_condition = Counter(r["condition"] for r in obs_rows)
        assert by_condition["genuine"] == int(rows[0]["n_observations"])
        assert by_condition["control"] == int(rows[1]["n_observations"])

    def test_avg_must_divide_into_runs(self, tmp_path, epochs_dir):
        assert run_cli(
            "conformity", "--epochs", epochs_dir, "--runs", 2, "--avg", 3,
            "--out", tmp_path / "x.tsv",
        ) == 2

    def test_needs_two_epoch_files(self, tmp_path):
        lonely = tmp_path / "one"
        lonely.mkdir()
        (lonely / "epoch0.txt").write_text("a b c\n")
        assert run_cli(
            "conformity", "--epochs", lonely, "--out", tmp_path / "x.tsv"
        ) == 3


class TestReportCommand:
    def test_tsv_json_tsv_round_trip(self, tmp_path, run_dir):
        original = tmp_path / "pip.tsv"
        assert run_cli(
            "pip", "--inputs", *sorted(run_dir.glob("*.vec")), "--out", original
        ) == 0
        as_json = tmp_path / "pip.json"
        assert run_cli(
            "report", "--in", original, "--format", "json", "--out", as_json
        ) == 0
        payload = json.loads(as_json.read_text())
        assert set(payload) == {"meta", "columns", "rows"}
        assert payload["columns"] == ["run_a", "run_b", "reduced_pip"]
        back = tmp_path / "back.tsv"
        assert run_cli(
            "report", "--in", original, "--format", "tsv", "--out", back
        ) == 0
        assert back.read_bytes() == original.read_bytes()

    def test_malformed_reports_are_data_errors(self, tmp_path):
        bad_meta = tmp_path / "bad_meta.tsv"
        bad_meta.write_text("# tool embedstab\na\tb\n")
        assert run_cli(
            "report", "--in", bad_meta, "--format", "json",
            "--out", tmp_path / "x.json",
        ) == 3
        ragged = tmp_path / "ragged.tsv"
        ragged.write_text("a\tb\n1\t2\t3\n")
        assert run_cli(
            "report", "--in", ragged, "--format", "json",
            "--out", tmp_path / "y.json",
        ) == 3
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        assert run_cli(
            "report", "--in", empty, "--format", "json",
            "--out", tmp_path / "z.json",
        ) == 3


class TestNonUtf8Inputs:
    """A Latin-1 byte in any input is a data error naming its file and line."""

    @pytest.mark.parametrize("kind", ["targets", "vec", "freq"])
    def test_overlap_names_the_file_and_line(self, kind, tmp_path, run_dir, targets_file, capsys):
        inputs = []
        for src in sorted(run_dir.glob("*.vec"))[:2]:
            for suffix in ("", ".freq"):
                (tmp_path / f"{src.name}{suffix}").write_bytes(Path(f"{src}{suffix}").read_bytes())
            inputs.append(tmp_path / src.name)
        targets = tmp_path / "targets.txt"
        targets.write_bytes(targets_file.read_bytes())
        bad = {"targets": targets, "vec": inputs[1], "freq": Path(f"{inputs[0]}.freq")}[kind]
        lines = bad.read_bytes().split(b"\n")
        lines[2] = b"caf\xe9" + lines[2][len(lines[2].split()[0]):]  # Latin-1 "café"
        bad.write_bytes(b"\n".join(lines))
        assert run_cli(
            "overlap", "--inputs", *inputs, "--targets", targets, "--n", 2,
            "--out", tmp_path / "overlap.tsv",
        ) == 3
        assert f"data error: {bad}:3: not UTF-8" in capsys.readouterr().err


class TestFlagsBeforeInputs:
    """A bad flag combination is a usage error even when the inputs are
    missing: it is refused before any input is read."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("pip", "--inputs", "nope1.vec", "nope2.vec", "--words", "w.txt"),
             "--words requires --wordwise-out"),
            (("instability", "--shuffled", "nodir", "--words", "w.txt", "--wordwise-out", "x.tsv"),
             "word-level instability needs --bootstrapped runs"),
            (("conformity", "--epochs", "nodir", "--runs", 2, "--avg", 3),
             "--avg must be in [1, runs=2], got 3"),
        ],
        ids=["pip", "instability", "conformity"],
    )
    def test_is_a_usage_error(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv, "--out", "out.tsv") == 2
        assert f"embedstab: usage error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestInputCounts:
    @pytest.mark.parametrize("command", ["overlap", "predict", "pip"])
    def test_one_input_is_a_data_error(self, command, tmp_path, run_dir, targets_file, capsys):
        first = sorted(run_dir.glob("*.vec"))[0]
        extra = () if command == "pip" else ("--targets", targets_file)
        assert run_cli(
            command, "--inputs", first, *extra, "--out", tmp_path / "x.tsv"
        ) == 3
        assert "need at least 2 input spaces" in capsys.readouterr().err

    def test_average_of_one_input_is_that_space(self, tmp_path, run_dir, run_spaces):
        first = sorted(run_dir.glob("*.vec"))[0]
        out = tmp_path / "one.vec"
        assert run_cli("average", "--inputs", first, "--out", out) == 0
        averaged = load_text_vectors(out, f"{out}.freq")
        assert averaged.vocab.words == run_spaces[0].vocab.words
        assert averaged.vocab.frequency == run_spaces[0].vocab.frequency
        assert_allclose(averaged.matrix, run_spaces[0].matrix, atol=1e-9)


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def input_hashes(report):
    """(label, hex digest) of a report's `# input <label>: sha256:<hex>` lines."""
    pairs = []
    for line in Path(report).read_text().splitlines():
        if line.startswith("# input "):
            label, _, value = line[len("# input "):].partition(": ")
            assert value.startswith("sha256:")
            pairs.append((label, value[len("sha256:"):]))
    return pairs


def file_record(path, name=None):
    return {"file": str(path) if name is None else name, "sha256": sha256_of(path)}


class TestReportProvenance:
    """Every report names its inputs in argument order with their sha256,
    each frequency sidecar it read right after its vector file; every
    manifest records its files' sha256."""

    def test_space_list_reports(self, tmp_path, run_dir, targets_file):
        files = sorted(run_dir.glob("*.vec"))[::-1]  # argument order, not sorted
        want = [
            pair
            for i, f in enumerate(files)
            for pair in ((f"space {i}", sha256_of(f)),
                         (f"space {i} frequencies", sha256_of(f"{f}.freq")))
        ]
        # A word list that decides the rows is listed after the spaces.
        targets = [("targets", sha256_of(targets_file))]
        words = [("words", sha256_of(targets_file))]
        wordwise = tmp_path / "pip_words.tsv"
        for command, extra, listed in (
            ("overlap", ("--targets", targets_file), targets),
            ("predict", ("--targets", targets_file), targets),
            ("pip", (), []),
            ("pip", ("--words", targets_file, "--wordwise-out", wordwise), words),
        ):
            out = tmp_path / f"{command}.tsv"
            assert run_cli(command, "--inputs", *files, *extra, "--out", out) == 0
            assert input_hashes(out) == want + listed, command
        assert input_hashes(wordwise) == want + words

    def test_instability(self, tmp_path, run_dir):
        out = tmp_path / "inst.tsv"
        assert run_cli(
            "instability", "--shuffled", run_dir, "--bootstrapped", run_dir,
            "--runs", "all", "--out", out,
        ) == 0
        files = sorted(run_dir.glob("*.vec"))
        want = [
            pair
            for mode in ("shuffled", "bootstrapped")
            for f in files
            for pair in ((f"{mode} {f.name}", sha256_of(f)),
                         (f"{mode} {f.name} frequencies", sha256_of(f"{f}.freq")))
        ]
        assert input_hashes(out) == want

    def test_analogy(self, tmp_path, run_dir, targets_file):
        vec = sorted(run_dir.glob("*.vec"))[0]
        a, b, c = targets_file.read_text().split()
        questions = tmp_path / "questions.txt"
        questions.write_text(f"{a} {b} {c} {a}\n")
        out = tmp_path / "analogy.tsv"
        assert run_cli(
            "analogy", "--input", vec, "--analogies", questions, "--out", out
        ) == 0
        assert input_hashes(out) == [
            ("space", sha256_of(vec)),
            ("space frequencies", sha256_of(f"{vec}.freq")),
            ("analogies", sha256_of(questions)),
        ]

    def test_change_report_and_evaluation(self, tmp_path):
        p1, p2, changed, control = write_epoch_pair(tmp_path)
        targets = tmp_path / "targets.txt"
        targets.write_text(f"{changed}\n{control}\n")
        gold = tmp_path / "gold.tsv"
        gold.write_text(f"{changed}\t1\n{control}\t0\n")
        graded = tmp_path / "graded.tsv"
        graded.write_text(f"{changed}\t0.9\n{control}\t0.1\n")
        out_dir = tmp_path / "change"
        assert run_cli(
            "change", "--t1", p1, "--t2", p2, "--targets", targets,
            "--gold-binary", gold, "--out", out_dir,
        ) == 0
        want = [
            ("t1", sha256_of(p1)), ("t2", sha256_of(p2)), ("targets", sha256_of(targets))
        ]
        assert input_hashes(out_dir / "report.tsv") == want
        assert input_hashes(out_dir / "evaluation.tsv") == want + [("gold binary", sha256_of(gold))]

        # With sidecars, each is listed after its vector file; with both gold
        # files, binary comes before graded.
        words = load_text_vectors(p1).vocab.words
        for path in (p1, p2):
            save_frequencies({w: 600 for w in words}, f"{path}.freq")
        assert run_cli(
            "change", "--t1", p1, "--t2", p2, "--targets", targets, "--min-count", 5,
            "--gold-graded", graded, "--gold-binary", gold, "--out", out_dir,
        ) == 0
        want = [
            ("t1", sha256_of(p1)), ("t1 frequencies", sha256_of(f"{p1}.freq")),
            ("t2", sha256_of(p2)), ("t2 frequencies", sha256_of(f"{p2}.freq")),
            ("targets", sha256_of(targets)),
        ]
        assert input_hashes(out_dir / "report.tsv") == want
        assert input_hashes(out_dir / "evaluation.tsv") == want + [
            ("gold binary", sha256_of(gold)), ("gold graded", sha256_of(graded))
        ]

    def test_editing_only_a_sidecar_changes_the_input_lines(self, tmp_path):
        # The counts decide which words `--min-count` scores, so a report
        # must change when only a sidecar does.
        p1, p2, changed, _ = write_epoch_pair(tmp_path)
        targets = tmp_path / "targets.txt"
        targets.write_text(f"{changed}\n")
        words = load_text_vectors(p1).vocab.words
        lines = []
        for counts in ({w: 600 for w in words}, {w: 600 if i % 2 else 2 for i, w in enumerate(words)}):
            for path in (p1, p2):
                save_frequencies(counts, f"{path}.freq")
            out_dir = tmp_path / f"change{len(lines)}"
            assert run_cli(
                "change", "--t1", p1, "--t2", p2, "--targets", targets,
                "--min-count", 5, "--out", out_dir,
            ) == 0
            lines.append(input_hashes(out_dir / "report.tsv"))
        assert lines[0] != lines[1]
        assert [label for label, _ in lines[0]] == [label for label, _ in lines[1]]

    def test_conformity(self, tmp_path, epochs_dir):
        out = tmp_path / "conformity.tsv"
        assert run_cli(
            "conformity", "--epochs", epochs_dir, "--runs", 1, "--avg", 1,
            "--min-count", 1, "--train-dim", 4, "--train-window", 2,
            "--train-neg", 2, "--train-epochs", 1, "--train-sample", 1.0,
            "--train-min-count", 1, "--out", out,
        ) == 0
        files = sorted(epochs_dir.iterdir())
        assert input_hashes(out) == [(f"epoch {f.name}", sha256_of(f)) for f in files]

    def test_a_labelled_file_is_never_listed_as_a_sidecar(self, tmp_path, epochs_dir):
        # `conformity` reads every file of --epochs as a corpus, one named
        # like a sidecar too: it keeps its own label.
        epochs = tmp_path / "epochs"
        epochs.mkdir()
        for f in epochs_dir.iterdir():
            (epochs / f.name).write_bytes(f.read_bytes())
        (epochs / "epoch0.txt.freq").write_bytes((epochs / "epoch1.txt").read_bytes())
        out = tmp_path / "conformity.tsv"
        assert run_cli(
            "conformity", "--epochs", epochs, "--runs", 1, "--avg", 1,
            "--min-count", 1, "--train-dim", 4, "--train-window", 2,
            "--train-neg", 2, "--train-epochs", 1, "--train-sample", 1.0,
            "--train-min-count", 1, "--out", out,
        ) == 0
        files = sorted(epochs.iterdir())
        assert [f.name for f in files] == ["epoch0.txt", "epoch0.txt.freq", "epoch1.txt"]
        assert input_hashes(out) == [(f"epoch {f.name}", sha256_of(f)) for f in files]

    def test_train_manifests(self, tmp_path, corpus_file, run_dir):
        out = tmp_path / "single.vec"
        assert run_cli(
            "train", "--corpus", corpus_file, *FAST_TRAINER, "--out", out
        ) == 0
        for manifest_path, paths, names in (
            (Path(f"{out}.manifest.json"), [out], [str(out)]),
            (
                run_dir / "manifest.json",
                sorted(run_dir.glob("*.vec")),
                [f"run_{i:03d}.vec" for i in range(3)],
            ),
        ):
            manifest = json.loads(manifest_path.read_text())
            assert manifest["config"]["corpus_sha256"] == sha256_of(corpus_file)
            assert len(manifest["runs"]) == len(paths)
            for entry, path, name in zip(manifest["runs"], paths, names):
                assert (entry["file"], entry["sha256"]) == (name, sha256_of(path))
                assert entry["frequency_file"] == f"{name}.freq"
                assert entry["frequency_sha256"] == sha256_of(f"{path}.freq")

    def test_sample_and_average_manifests(self, tmp_path, corpus_file, run_dir):
        sampled = tmp_path / "sampled.txt"
        assert run_cli(
            "sample", "--corpus", corpus_file, "--mode", "shuffled", "--out", sampled
        ) == 0
        manifest = json.loads(Path(f"{sampled}.manifest.json").read_text())
        assert manifest["config"]["corpus_sha256"] == sha256_of(corpus_file)
        assert manifest["output"] == file_record(sampled)

        files = sorted(run_dir.glob("*.vec"))[::-1]
        averaged = tmp_path / "avg.vec"
        assert run_cli("average", "--inputs", *files, "--out", averaged) == 0
        manifest = json.loads(Path(f"{averaged}.manifest.json").read_text())
        assert manifest["config"]["inputs"] == [
            {**file_record(f), "frequency_file": f"{f}.freq",
             "frequency_sha256": sha256_of(f"{f}.freq")}
            for f in files
        ]
        assert manifest["output"] == {
            **file_record(averaged), "frequency_file": f"{averaged}.freq",
            "frequency_sha256": sha256_of(f"{averaged}.freq"),
        }


# Runs each command of a JSON list of argvs through `main`.
_COMMANDS_PROBE = """
import json, sys
from embedstab.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv):
        sys.exit(f"{argv[0]} failed")
"""


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="with one processor a second BLAS thread does not split any sum",
)
@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the d x d cross-covariance of a rotation and the 2d x 2d PIP Gram sum over "
    "vocabulary rows in BLAS, which splits those sums by thread (ROADMAP item 3)",
)
def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    """`pip --words`, `average` and `change` write the same bytes with one and
    with two BLAS threads.  Each setting runs in its own interpreter, since
    BLAS reads its thread count at load time; OpenBLAS threads only large
    products, so the runs hold 3,000 words of 50 dimensions."""
    v, d = 3000, 50
    counts = {w: 5000 - i for i, w in enumerate(words_for(v))}
    base = random_normalized_space(v, d, seed=30, frequency=counts)
    inputs = []
    for i in range(3):
        noisy = base.matrix + 0.05 * np.random.default_rng(31 + i).normal(size=(v, d))
        path = tmp_path / f"run_{i}.vec"
        save_text_vectors(rotated_copy(EmbeddingSpace(base.vocab, noisy), seed=i), path)
        save_frequencies(counts, f"{path}.freq")
        inputs.append(str(path))
    targets = tmp_path / "targets.txt"
    targets.write_text("".join(f"w{i:04d}\n" for i in range(0, v, 97)), encoding="utf-8")
    hashes = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        commands = [
            ["pip", "--inputs", *inputs, "--words", str(targets),
             "--wordwise-out", str(out / "wordwise.tsv"), "--out", str(out / "pip.tsv")],
            ["average", "--inputs", *inputs, "--out", str(out / "average.vec")],
            ["change", "--t1", inputs[0], "--t2", inputs[1], "--targets", str(targets),
             "--out", str(out / "change")],
        ]
        out.mkdir()
        subprocess.run(
            [sys.executable, "-c", _COMMANDS_PROBE, json.dumps(commands)],
            env={
                **os.environ,
                "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                "EMBEDSTAB_CACHE": str(tmp_path / "cache"),
                **{var: threads for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                            "MKL_NUM_THREADS")},
            },
            check=True,
            timeout=120,
        )
        hashes.append({
            str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()
        })
    assert len(hashes[0]) == 8
    assert hashes[0] == hashes[1]
