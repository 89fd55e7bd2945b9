"""End-to-end command-line tests, run in-process through `main`."""

import hashlib
import json
import math
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
    intrinsic_instability,
    load_profile,
    load_text_vectors,
    mean_overlap,
    normalize,
    reduced_pip_loss,
    sample_proxy,
    save_text_vectors,
)
from embedstab.cli import ExperimentConfig, main, run_experiment

from helpers import random_normalized_space, two_topic_corpus


def run_cli(*args):
    return main([str(a) for a in args])


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

    def test_failing_run_reports_its_index(self, tmp_path, corpus_file):
        config = ExperimentConfig(
            corpus=str(corpus_file),
            out_dir=str(tmp_path),
            trainer=__import__("embedstab").SgnsConfig(min_count=10_000),
        )
        with pytest.raises(ValueError, match="run 0 failed"):
            run_experiment(config)

    def test_config_validation(self, corpus_file):
        with pytest.raises(ValueError, match="runs must be >= 1"):
            ExperimentConfig(corpus=str(corpus_file), runs=0)
        with pytest.raises(ValueError, match="mode must be one of"):
            ExperimentConfig(corpus=str(corpus_file), mode="sideways")

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

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_diverging_training_exit_code(self, tmp_path, corpus_file, capsys):
        code = run_cli(
            "train", "--corpus", corpus_file, "--out", tmp_path / "o.vec",
            "--lr", 1e300, "--min-count", 1, "--dim", 5,
        )
        assert code == 4
        assert "numerical failure: training diverged" in capsys.readouterr().err


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
