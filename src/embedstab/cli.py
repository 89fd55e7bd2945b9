"""Command-line driver: seeded experiment orchestration and report emission.

Subcommands: train, sample, instability, overlap, predict, pip, average,
analogy, change, conformity, report.  Every emitted report embeds the tool
version, the seeds in play, and SHA-256 hashes of its inputs, and is
byte-reproducible from (inputs, config, seed).  Exit codes: 0 success,
2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import re
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .align import aligned_average_tree, procrustes
from .change import (
    GoldData,
    build_change_report,
    control_condition,
    evaluate,
    frequency_effect,
    load_gold_binary,
    load_gold_graded,
    semantic_change,
)
from .corpus import SAMPLING_MODES, Corpus, SamplingMode, dedup_lines, sample, tokenize
from .gaussian import (
    estimate_profile,
    expected_overlap,
    save_profile,
    structure_factor,
)
from .instability import (
    extrinsic_instability,
    intrinsic_instability,
    wordwise_instability,
)
from .overlap import _neighbor_lists, _summaries, mean_overlap
from .pip_loss import (
    DEFAULT_PROXY_SIZE,
    reduced_pip_loss,
    sample_proxy,
    wordwise_reduced_pip_loss,
)
from .sgns import SgnsConfig, train
from .space import (
    EmbeddingSpace,
    LoadError,
    RunSet,
    analogy_score,
    load_analogies,
    load_frequencies,
    load_text_vectors,
    normalize,
    save_frequencies,
    save_text_vectors,
)

__all__ = ["ExperimentConfig", "run_experiment", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# Seed offsets keeping the control condition's randomness disjoint from the
# genuine condition's per-run seeds (global_seed + run index).
_CONTROL_SHUFFLE_OFFSET = 999_983
_CONTROL_RUN_OFFSET = 1_000_003


class UsageError(Exception):
    """Bad flag/config combination detected after argparse."""


# ---------------------------------------------------------------------------
# small shared helpers


def _sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _fmt(value: object) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_report(
    path: str | Path,
    meta: Sequence[tuple[str, object]],
    columns: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> None:
    lines = [f"# {key}: {_fmt(value)}" for key, value in meta]
    lines.append("\t".join(columns))
    for row in rows:
        lines.append("\t".join(_fmt(cell) for cell in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _base_meta(command: str, inputs: Sequence[tuple[str, str | Path]]) -> list[tuple[str, object]]:
    meta: list[tuple[str, object]] = [
        ("tool", f"embedstab {__version__}"),
        ("command", command),
    ]
    for label, path in inputs:
        meta.append((f"input {label}", f"sha256:{_sha256(path)}"))
    return meta


def _read_corpus(path: str, lowercase: bool, dedup: bool) -> Corpus:
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.splitlines() if line.strip()]
    if dedup:
        lines = dedup_lines(lines)
    return Corpus(tuple(tokenize(line, lowercase=lowercase) for line in lines))


def _load_space(path: str | Path, require_frequencies: bool = False) -> EmbeddingSpace:
    freq_path = Path(f"{path}.freq")
    if freq_path.exists():
        return load_text_vectors(path, freq_path)
    if require_frequencies:
        raise LoadError(f"{path}: frequency sidecar {freq_path} not found")
    return load_text_vectors(path)


def _vec_files(directory: str) -> list[Path]:
    files = sorted(Path(directory).glob("*.vec"))
    if not files:
        raise LoadError(f"no .vec files in {directory}")
    return files


def _load_runs(directory: str, count: int | str, mode: str) -> tuple[RunSet, list[Path]]:
    """First `count` (sorted) .vec files of a directory, renormalized."""
    files = _vec_files(directory)
    if count != "all":
        if len(files) < int(count):
            raise LoadError(
                f"{directory}: {len(files)} .vec files but {count} runs requested"
            )
        files = files[: int(count)]
    spaces = tuple(normalize(_load_space(f)) for f in files)
    return RunSet(spaces, mode=mode), files


def _read_words(path: str) -> list[str]:
    words = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        word = line.strip()
        if word:
            words.append(word)
    if not words:
        raise LoadError(f"{path}: no words")
    return list(dict.fromkeys(words))


def _write_json(path: str | Path, payload: object) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _safe_name(word: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", word)


# ---------------------------------------------------------------------------
# experiment orchestration


@dataclass(frozen=True)
class ExperimentConfig:
    """One seeded multi-run training experiment."""

    corpus: str
    mode: str = "shuffled"
    runs: int = 1
    trainer: SgnsConfig = SgnsConfig()
    out_dir: str = "."
    seed: int = 0
    lowercase: bool = False
    dedup: bool = True

    def __post_init__(self) -> None:
        if self.runs < 1:
            raise ValueError(f"runs must be >= 1, got {self.runs}")
        if self.mode not in SAMPLING_MODES:
            raise ValueError(f"mode must be one of {SAMPLING_MODES}, got {self.mode!r}")


def run_experiment(config: ExperimentConfig) -> Path:
    """Train `runs` spaces with per-run seeds global_seed + run index.

    Writes run_###.vec plus .freq sidecars and a manifest.json echoing the
    configuration with content hashes; returns the manifest path.  A failing
    run aborts with its index in the error message.
    """
    corpus = _read_corpus(config.corpus, config.lowercase, config.dedup)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for index in range(config.runs):
        run_seed = config.seed + index
        try:
            sampled = sample(corpus, SamplingMode(config.mode, run_seed))
            space = train(sampled, replace(config.trainer, seed=run_seed))
        except (np.linalg.LinAlgError, ArithmeticError) as exc:
            raise ArithmeticError(f"run {index} failed: {exc}") from exc
        except Exception as exc:
            raise ValueError(f"run {index} failed: {exc}") from exc
        vec_path = out_dir / f"run_{index:03d}.vec"
        save_text_vectors(space, vec_path)
        freq_path = Path(f"{vec_path}.freq")
        save_frequencies(space.vocab.frequency, freq_path)
        entries.append(
            {
                "index": index,
                "seed": run_seed,
                "file": vec_path.name,
                "sha256": _sha256(vec_path),
                "frequency_file": freq_path.name,
                "frequency_sha256": _sha256(freq_path),
            }
        )
    trainer = config.trainer
    manifest = {
        "tool": "embedstab",
        "version": __version__,
        "command": "train",
        "config": {
            "corpus": config.corpus,
            "corpus_sha256": _sha256(config.corpus),
            "mode": config.mode,
            "runs": config.runs,
            "global_seed": config.seed,
            "lowercase": config.lowercase,
            "dedup": config.dedup,
            "dim": trainer.dim,
            "window": trainer.window,
            "negatives": trainer.negatives,
            "epochs": trainer.epochs,
            "initial_lr": trainer.initial_lr,
            "subsample_t": trainer.subsample_t,
            "min_count": trainer.min_count,
            "dynamic_window": trainer.dynamic_window,
        },
        "runs": entries,
    }
    manifest_path = out_dir / "manifest.json"
    _write_json(manifest_path, manifest)
    return manifest_path


# ---------------------------------------------------------------------------
# subcommand handlers


def _trainer_from_args(args: argparse.Namespace, prefix: str = "") -> SgnsConfig:
    get = lambda name: getattr(args, prefix + name)  # noqa: E731
    return SgnsConfig(
        dim=get("dim"),
        window=get("window"),
        negatives=get("neg"),
        epochs=get("epochs"),
        initial_lr=get("lr"),
        subsample_t=get("sample"),
        min_count=get("min_count"),
        dynamic_window=not get("static_window"),
    )


def _cmd_train(args: argparse.Namespace) -> int:
    if (args.out is None) == (args.out_dir is None):
        raise UsageError("exactly one of --out or --out-dir is required")
    trainer = _trainer_from_args(args)
    if args.out is not None:
        if args.runs != 1:
            raise UsageError("--runs needs --out-dir; --out writes a single run")
        corpus = _read_corpus(args.corpus, args.lowercase, args.dedup)
        sampled = sample(corpus, SamplingMode(args.mode, args.seed))
        space = train(sampled, replace(trainer, seed=args.seed))
        save_text_vectors(space, args.out)
        save_frequencies(space.vocab.frequency, f"{args.out}.freq")
        manifest = {
            "tool": "embedstab",
            "version": __version__,
            "command": "train",
            "config": {
                "corpus": args.corpus,
                "corpus_sha256": _sha256(args.corpus),
                "mode": args.mode,
                "runs": 1,
                "global_seed": args.seed,
                "lowercase": args.lowercase,
                "dedup": args.dedup,
                "dim": trainer.dim,
                "window": trainer.window,
                "negatives": trainer.negatives,
                "epochs": trainer.epochs,
                "initial_lr": trainer.initial_lr,
                "subsample_t": trainer.subsample_t,
                "min_count": trainer.min_count,
                "dynamic_window": trainer.dynamic_window,
            },
            "runs": [
                {
                    "index": 0,
                    "seed": args.seed,
                    "file": str(args.out),
                    "sha256": _sha256(args.out),
                    "frequency_file": f"{args.out}.freq",
                    "frequency_sha256": _sha256(f"{args.out}.freq"),
                }
            ],
        }
        _write_json(f"{args.out}.manifest.json", manifest)
        return EXIT_OK
    config = ExperimentConfig(
        corpus=args.corpus,
        mode=args.mode,
        runs=args.runs,
        trainer=trainer,
        out_dir=args.out_dir,
        seed=args.seed,
        lowercase=args.lowercase,
        dedup=args.dedup,
    )
    run_experiment(config)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.corpus, args.lowercase, args.dedup)
    sampled = sample(corpus, SamplingMode(args.mode, args.seed))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", encoding="utf-8") as fh:
        for doc in sampled.documents:
            fh.write(" ".join(doc) + "\n")
    manifest = {
        "tool": "embedstab",
        "version": __version__,
        "command": "sample",
        "config": {
            "corpus": args.corpus,
            "corpus_sha256": _sha256(args.corpus),
            "mode": args.mode,
            "seed": args.seed,
            "lowercase": args.lowercase,
            "dedup": args.dedup,
        },
        "output": {"file": str(out), "sha256": _sha256(out)},
    }
    _write_json(f"{out}.manifest.json", manifest)
    return EXIT_OK


def _cmd_instability(args: argparse.Namespace) -> int:
    shuffled, shuffled_files = _load_runs(args.shuffled, args.runs, "shuffled")
    if len(shuffled) < 2:
        raise ValueError("need at least 2 shuffled runs")
    boot = None
    boot_files: list[Path] = []
    if args.bootstrapped is not None:
        boot, boot_files = _load_runs(args.bootstrapped, args.runs, "bootstrapped")
        if len(boot) < 2:
            raise ValueError("need at least 2 bootstrapped runs")
    all_spaces = list(shuffled.spaces) + (list(boot.spaces) if boot else [])
    proxy = sample_proxy(all_spaces, size=args.proxy_size, seed=args.seed)
    if boot is None:
        report = intrinsic_instability(shuffled, proxy)
    else:
        report = extrinsic_instability(shuffled, boot, proxy)

    inputs = [(f"shuffled {p.name}", p) for p in shuffled_files]
    inputs += [(f"bootstrapped {p.name}", p) for p in boot_files]
    meta = _base_meta("instability", inputs)
    meta += [
        ("proxy_size", report.proxy_size),
        ("proxy_seed", report.proxy_seed),
        ("intrinsic", report.intrinsic),
        ("intrinsic_std", report.intrinsic_std),
        ("pair_count", report.pair_count),
        ("boot_mean", report.boot_mean),
        ("boot_std", report.boot_std),
        ("boot_pair_count", report.boot_pair_count),
        ("extrinsic", report.extrinsic),
        ("extrinsic_std", report.extrinsic_std),
        ("extrinsic_undefined", report.extrinsic_undefined),
    ]
    rows: list[tuple[object, ...]] = []
    for label, runs in (("shuffled", shuffled), ("bootstrapped", boot)):
        if runs is None:
            continue
        for i, j in itertools.combinations(range(len(runs)), 2):
            value = reduced_pip_loss(runs.spaces[i], runs.spaces[j], proxy)
            rows.append((label, i, j, value))
    _write_report(args.out, meta, ("set", "run_a", "run_b", "reduced_pip"), rows)

    if args.words is not None:
        if args.wordwise_out is None:
            raise UsageError("--words requires --wordwise-out")
        if boot is None:
            raise UsageError("word-level instability needs --bootstrapped runs")
        word_rows: list[tuple[object, ...]] = []
        for word in _read_words(args.words):
            j_int, j_ext = wordwise_instability(word, shuffled, boot, proxy)
            word_rows.append((word, j_int, j_ext))
        word_meta = _base_meta("instability", inputs)
        word_meta += [
            ("proxy_size", report.proxy_size),
            ("proxy_seed", report.proxy_seed),
        ]
        _write_report(
            args.wordwise_out,
            word_meta,
            ("word", "intrinsic", "extrinsic"),
            word_rows,
        )
    elif args.wordwise_out is not None:
        raise UsageError("--wordwise-out requires --words")
    return EXIT_OK


def _cmd_overlap(args: argparse.Namespace) -> int:
    spaces = tuple(normalize(_load_space(p)) for p in args.inputs)
    if len(spaces) < 2:
        raise ValueError("need at least 2 input spaces")
    runs = RunSet(spaces, mode="fixed")
    targets = _read_words(args.targets)
    summaries = mean_overlap(runs, targets, args.n)
    meta = _base_meta("overlap", [(f"space {i}", p) for i, p in enumerate(args.inputs)])
    meta.append(("n", args.n))
    rows = [(s.target, s.n, s.mean_p, s.mean_j, s.pair_count) for s in summaries]
    _write_report(
        args.out, meta, ("target", "n", "mean_p_at_n", "mean_j_at_n", "pairs"), rows
    )
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    spaces = tuple(normalize(_load_space(p)) for p in args.inputs)
    if len(spaces) < 2:
        raise ValueError("need at least 2 input spaces")
    runs = RunSet(spaces, mode="fixed")
    targets = _read_words(args.targets)
    if args.profiles is not None:
        Path(args.profiles).mkdir(parents=True, exist_ok=True)
    # One pass serves the candidate queries and both measured overlaps,
    # which read the top-1 and top-2 prefixes of the same lists.
    neighbor_lists = _neighbor_lists(spaces, targets, max(args.candidates, 2))
    measured_1 = {s.target: s.mean_p for s in _summaries(neighbor_lists, targets, 1)}
    measured_2 = {s.target: s.mean_p for s in _summaries(neighbor_lists, targets, 2)}
    rows = []
    for index, target in enumerate(targets):
        queries = sorted(
            set().union(*(lists[target][: args.candidates] for lists in neighbor_lists))
        )
        queries = [q for q in queries if q != target]
        profile = estimate_profile(runs, target, queries)
        if args.profiles is not None:
            name = f"profile_{index:03d}_{_safe_name(target)}.tsv"
            save_profile(profile, str(Path(args.profiles) / name))
        rows.append(
            (
                target,
                len(queries),
                expected_overlap(profile, 1),
                expected_overlap(profile, 2),
                structure_factor(profile, 1),
                measured_1[target],
                measured_2[target],
            )
        )
    meta = _base_meta("predict", [(f"space {i}", p) for i, p in enumerate(args.inputs)])
    meta.append(("candidates", args.candidates))
    _write_report(
        args.out,
        meta,
        (
            "target",
            "queries",
            "predicted_p1",
            "predicted_p2",
            "structure_factor",
            "measured_p1",
            "measured_p2",
        ),
        rows,
    )
    return EXIT_OK


def _cmd_pip(args: argparse.Namespace) -> int:
    spaces = tuple(normalize(_load_space(p)) for p in args.inputs)
    if len(spaces) < 2:
        raise ValueError("need at least 2 input spaces")
    proxy = sample_proxy(spaces, size=args.proxy_size, seed=args.seed)
    meta = _base_meta("pip", [(f"space {i}", p) for i, p in enumerate(args.inputs)])
    meta += [("proxy_size", len(proxy)), ("proxy_seed", proxy.seed)]
    rows = []
    for i, j in itertools.combinations(range(len(spaces)), 2):
        rows.append((i, j, reduced_pip_loss(spaces[i], spaces[j], proxy)))
    _write_report(args.out, meta, ("run_a", "run_b", "reduced_pip"), rows)
    if args.words is not None:
        if args.wordwise_out is None:
            raise UsageError("--words requires --wordwise-out")
        words = _read_words(args.words)
        word_rows = []
        for i, j in itertools.combinations(range(len(spaces)), 2):
            word_rows.extend(
                (i, j, word, wordwise_reduced_pip_loss(word, spaces[i], spaces[j], proxy))
                for word in words
            )
        _write_report(
            args.wordwise_out,
            meta,
            ("run_a", "run_b", "word", "wordwise_pip"),
            word_rows,
        )
    elif args.wordwise_out is not None:
        raise UsageError("--wordwise-out requires --words")
    return EXIT_OK


def _cmd_average(args: argparse.Namespace) -> int:
    spaces = tuple(normalize(_load_space(p)) for p in args.inputs)
    averaged = aligned_average_tree(
        spaces,
        renormalize=not args.no_renorm,
        pairing=args.pairing,
        seed=args.seed,
    )
    save_text_vectors(averaged, args.out)
    if averaged.vocab.frequency is not None:
        save_frequencies(averaged.vocab.frequency, f"{args.out}.freq")
    manifest = {
        "tool": "embedstab",
        "version": __version__,
        "command": "average",
        "config": {
            "inputs": [
                {"file": str(p), "sha256": _sha256(p)} for p in args.inputs
            ],
            "renormalize": not args.no_renorm,
            "pairing": args.pairing,
            "seed": args.seed,
        },
        "output": {"file": str(args.out), "sha256": _sha256(args.out)},
    }
    _write_json(f"{args.out}.manifest.json", manifest)
    return EXIT_OK


def _cmd_analogy(args: argparse.Namespace) -> int:
    space = _load_space(args.input)
    dataset = load_analogies(args.analogies)
    restrict_to = None
    if args.restrict > 0:
        restrict_to = space.vocab.words[: args.restrict]
    accuracy, coverage = analogy_score(space, dataset, restrict_to)
    meta = _base_meta(
        "analogy", [("space", args.input), ("analogies", args.analogies)]
    )
    meta.append(("restrict", args.restrict))
    rows = [
        ("accuracy", accuracy),
        ("coverage", coverage),
        ("questions", len(dataset)),
    ]
    _write_report(args.out, meta, ("metric", "value"), rows)
    return EXIT_OK


def _cmd_change(args: argparse.Namespace) -> int:
    need_freq = args.min_count > 1
    space_t1 = normalize(_load_space(args.t1, require_frequencies=need_freq))
    space_t2 = normalize(_load_space(args.t2, require_frequencies=need_freq))
    targets = _read_words(args.targets)
    report = build_change_report(
        space_t1, space_t2, targets=targets, min_count=args.min_count
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    inputs = [("t1", args.t1), ("t2", args.t2), ("targets", args.targets)]
    meta = _base_meta("change", inputs)
    meta += [
        ("min_count", args.min_count),
        ("tau", report.tau),
        ("delta_mean", report.mean),
        ("delta_std", report.std),
        ("scored_words", len(report.scored_vocab)),
    ]
    target_set = set(targets)
    rows = [
        (word, delta, word in target_set, report.labels.get(word))
        for word, delta in sorted(report.deltas.items(), key=lambda k: (-k[1], k[0]))
    ]
    _write_report(
        out_dir / "report.tsv", meta, ("word", "delta", "is_target", "changed"), rows
    )

    # SemEval-style plain answer files: no comment headers.
    binary_lines = [f"{w}\t{int(report.labels[w])}" for w in sorted(targets)]
    (out_dir / "answers-binary.tsv").write_text(
        "\n".join(binary_lines) + "\n", encoding="utf-8"
    )
    graded_lines = [f"{w}\t{report.deltas[w]!r}" for w in sorted(targets)]
    (out_dir / "answers-graded.tsv").write_text(
        "\n".join(graded_lines) + "\n", encoding="utf-8"
    )

    if args.gold_binary or args.gold_graded:
        gold = GoldData(
            binary=load_gold_binary(args.gold_binary) if args.gold_binary else {},
            graded=load_gold_graded(args.gold_graded) if args.gold_graded else {},
        )
        accuracy, rho = evaluate(report, gold)
        eval_meta = _base_meta("change", inputs)
        eval_rows = [
            ("accuracy", accuracy),
            ("spearman_rho", rho),
            ("binary_targets", len(gold.binary)),
            ("graded_targets", len(gold.graded)),
        ]
        _write_report(out_dir / "evaluation.tsv", eval_meta, ("metric", "value"), eval_rows)
    return EXIT_OK


def _epoch_observations(
    epochs: Sequence[Corpus],
    labels: Sequence[str],
    args: argparse.Namespace,
    base_seed: int,
) -> list[tuple[str, int, float, float]]:
    """Train per-epoch runs, tree-average them in groups, score adjacent pairs."""
    trainer = _trainer_from_args(args, prefix="train_")
    groups = args.runs // args.avg
    averaged: list[list[EmbeddingSpace]] = []
    for e, corpus in enumerate(epochs):
        spaces = []
        for r in range(args.runs):
            run_seed = base_seed + e * args.runs + r
            try:
                sampled = sample(corpus, SamplingMode("shuffled", run_seed))
                spaces.append(train(sampled, replace(trainer, seed=run_seed)))
            except (np.linalg.LinAlgError, ArithmeticError) as exc:
                raise ArithmeticError(
                    f"epoch {labels[e]} run {r} failed: {exc}"
                ) from exc
            except Exception as exc:
                raise ValueError(f"epoch {labels[e]} run {r} failed: {exc}") from exc
        averaged.append(
            [
                normalize(
                    aligned_average_tree(spaces[k * args.avg : (k + 1) * args.avg])
                )
                for k in range(groups)
            ]
        )
    observations: list[tuple[str, int, float, float]] = []
    for e in range(len(epochs) - 1):
        for k in range(groups):
            s1, s2 = averaged[e][k], averaged[e + 1][k]
            f1, f2 = s1.vocab.frequency, s2.vocab.frequency
            scored = [
                w
                for w in s1.vocab.words
                if w in s2.vocab
                and f1[w] >= args.min_count
                and f2[w] >= args.min_count
            ]
            if len(scored) < 2:
                raise ValueError(
                    f"epoch pair {labels[e]}->{labels[e + 1]}: only "
                    f"{len(scored)} words pass min_count={args.min_count}"
                )
            alignment = procrustes(s1, s2)
            for w in scored:
                delta = semantic_change(w, s1, s2, alignment)
                frequency = 0.5 * (f1[w] + f2[w])
                observations.append((w, e, delta, frequency))
    return observations


def _cmd_conformity(args: argparse.Namespace) -> int:
    epoch_files = sorted(p for p in Path(args.epochs).iterdir() if p.is_file())
    if len(epoch_files) < 2:
        raise LoadError(f"{args.epochs}: need at least 2 epoch files")
    if not 1 <= args.avg <= args.runs:
        raise UsageError(f"--avg must be in [1, runs={args.runs}], got {args.avg}")
    epochs = [
        _read_corpus(str(p), args.lowercase, args.dedup) for p in epoch_files
    ]
    labels = [p.name for p in epoch_files]

    genuine_obs = _epoch_observations(epochs, labels, args, args.seed)
    genuine = frequency_effect(genuine_obs)
    conditions = [("genuine", genuine, genuine_obs)]
    if args.control is not None:
        batches = control_condition(
            epochs, args.control, seed=args.seed + _CONTROL_SHUFFLE_OFFSET
        )
        control_labels = [f"batch_{i:03d}" for i in range(len(batches))]
        control_obs = _epoch_observations(
            batches, control_labels, args, args.seed + _CONTROL_RUN_OFFSET
        )
        control = frequency_effect(control_obs)
        conditions.append(("control", control, control_obs))

    meta = _base_meta("conformity", [(f"epoch {n}", p) for n, p in zip(labels, epoch_files)])
    meta += [
        ("seed", args.seed),
        ("runs", args.runs),
        ("avg", args.avg),
        ("min_count", args.min_count),
        ("control_batches", args.control),
    ]
    rows = [
        (
            name,
            fit.beta_f,
            fit.beta_0,
            fit.var_explained,
            fit.sigma_word,
            fit.sigma_resid,
            fit.n_observations,
            fit.n_words,
            fit.fit_method,
        )
        for name, fit, _ in conditions
    ]
    _write_report(
        args.out,
        meta,
        (
            "condition",
            "beta_f",
            "beta_0",
            "var_explained",
            "sigma_word",
            "sigma_resid",
            "n_observations",
            "n_words",
            "fit_method",
        ),
        rows,
    )
    if args.observations_out is not None:
        obs_rows = [
            (name, word, pair, delta, frequency)
            for name, _, obs in conditions
            for word, pair, delta, frequency in obs
        ]
        _write_report(
            args.observations_out,
            meta,
            ("condition", "word", "epoch_pair", "delta", "frequency"),
            obs_rows,
        )
    return EXIT_OK


def _parse_report_file(path: str) -> tuple[list[list[str]], list[str], list[list[str]]]:
    meta: list[list[str]] = []
    columns: list[str] | None = None
    rows: list[list[str]] = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if columns is None and line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if not sep:
                raise LoadError(f"{path}: bad meta line {line!r}")
            meta.append([key, value])
        elif columns is None:
            columns = line.split("\t")
        else:
            cells = line.split("\t")
            if len(cells) != len(columns):
                raise LoadError(
                    f"{path}: row has {len(cells)} cells, header has {len(columns)}"
                )
            rows.append(cells)
    if columns is None:
        raise LoadError(f"{path}: no header row")
    return meta, columns, rows


def _cmd_report(args: argparse.Namespace) -> int:
    meta, columns, rows = _parse_report_file(args.in_path)
    if args.format == "json":
        _write_json(args.out, {"meta": meta, "columns": columns, "rows": rows})
    else:
        lines = [f"# {key}: {value}" for key, value in meta]
        lines.append("\t".join(columns))
        lines.extend("\t".join(row) for row in rows)
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing, config files, dispatch


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _runs_count(text: str) -> int | str:
    if text == "all":
        return "all"
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"must be >= 2 or 'all', got {text}")
    return value


def _add_corpus_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lowercase", action="store_true", help="lowercase tokens")
    parser.add_argument(
        "--no-dedup",
        dest="dedup",
        action="store_false",
        help="skip duplicate-line removal (key: dedup)",
    )


def _add_trainer_flags(parser: argparse.ArgumentParser, prefix: str = "") -> None:
    d = SgnsConfig()
    p = f"--{prefix.replace('_', '-')}" if prefix else "--"
    parser.add_argument(f"{p}dim", type=_positive_int, default=d.dim, help="embedding dimension")
    parser.add_argument(f"{p}window", type=_positive_int, default=d.window, help="max context window")
    parser.add_argument(f"{p}neg", type=_positive_int, default=d.negatives, help="negative samples per pair")
    parser.add_argument(f"{p}epochs", type=_nonneg_int, default=d.epochs, help="training epochs")
    parser.add_argument(f"{p}lr", type=float, default=d.initial_lr, help="initial learning rate")
    parser.add_argument(f"{p}sample", type=float, default=d.subsample_t, help="subsampling threshold t")
    parser.add_argument(f"{p}min-count", type=_positive_int, default=d.min_count, help="vocabulary count floor")
    parser.add_argument(
        f"{p}static-window",
        action="store_true",
        help="use the full window instead of a per-position uniform draw",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embedstab",
        description=(
            "Quantify, predict, and reduce run-to-run instability of "
            "word-embedding training."
        ),
    )
    parser.add_argument("--version", action="version", version=f"embedstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def new(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument(
            "--config",
            default=None,
            help="flat key=value config file; explicit flags override its values",
        )
        return p

    p = new("train", "Train one or more embedding spaces from a corpus.")
    p.add_argument("--corpus", required=True, help="one document per line")
    _add_trainer_flags(p)
    _add_corpus_flags(p)
    p.add_argument("--seed", type=_nonneg_int, default=0, help="global seed; run i uses seed+i")
    p.add_argument("--mode", choices=SAMPLING_MODES, default="fixed", help="document sampling mode")
    p.add_argument("--runs", type=_positive_int, default=1, help="number of runs (needs --out-dir)")
    p.add_argument("--out", default=None, help="output .vec file (single run)")
    p.add_argument("--out-dir", default=None, help="output directory for run_###.vec files")
    p.set_defaults(func=_cmd_train)

    p = new("sample", "Materialize one sampled corpus (dedup + sampling mode).")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=SAMPLING_MODES, required=True)
    p.add_argument("--seed", type=_nonneg_int, default=0)
    _add_corpus_flags(p)
    p.add_argument("--out", required=True, help="output corpus file")
    p.set_defaults(func=_cmd_sample)

    p = new("instability", "Intrinsic (and extrinsic) instability from run directories.")
    p.add_argument("--shuffled", required=True, help="directory of shuffled-mode .vec runs")
    p.add_argument("--bootstrapped", default=None, help="directory of bootstrapped-mode .vec runs")
    p.add_argument(
        "--runs",
        type=_runs_count,
        default=2,
        help=(
            "vec files used per directory (sorted order), or 'all'. Two runs on "
            "independently shuffled corpora already give an unbiased intrinsic "
            "estimate (one pair), so the default is 2."
        ),
    )
    p.add_argument("--proxy-size", type=_positive_int, default=DEFAULT_PROXY_SIZE)
    p.add_argument("--seed", type=_nonneg_int, default=0, help="proxy sampling seed")
    p.add_argument("--words", default=None, help="word list for word-level instability")
    p.add_argument("--wordwise-out", default=None, help="word-level report path")
    p.add_argument("--out", required=True, help="report TSV path")
    p.set_defaults(func=_cmd_instability)

    p = new("overlap", "Mean nearest-neighbor overlap (p@n, j@n) across run pairs.")
    p.add_argument("--inputs", nargs="+", required=True, help=".vec files")
    p.add_argument("--targets", required=True, help="one target word per line")
    p.add_argument("--n", type=_positive_int, default=10, help="neighbor list length")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_overlap)

    p = new("predict", "Predict top-1/top-2 overlap from Gaussian profiles vs. measurement.")
    p.add_argument("--inputs", nargs="+", required=True, help=".vec files")
    p.add_argument("--targets", required=True, help="one target word per line")
    p.add_argument(
        "--candidates",
        type=_positive_int,
        default=10,
        help="profile queries = union of each run's top-candidates neighbors",
    )
    p.add_argument("--profiles", default=None, help="directory for per-target profile TSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = new("pip", "Pairwise (reduced) PIP distances between runs.")
    p.add_argument("--inputs", nargs="+", required=True, help=".vec files")
    p.add_argument("--proxy-size", type=_positive_int, default=DEFAULT_PROXY_SIZE)
    p.add_argument("--seed", type=_nonneg_int, default=0, help="proxy sampling seed")
    p.add_argument("--words", default=None, help="word list for word-level PIP")
    p.add_argument("--wordwise-out", default=None, help="word-level report path")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pip)

    p = new("average", "Tree-average aligned spaces into one space.")
    p.add_argument("--inputs", nargs="+", required=True, help=".vec files")
    p.add_argument("--out", required=True, help="output .vec file")
    p.add_argument(
        "--no-renorm",
        action="store_true",
        help="skip row renormalization between averaging levels",
    )
    p.add_argument("--pairing", choices=("given", "seeded"), default="given")
    p.add_argument("--seed", type=_nonneg_int, default=0, help="pairing shuffle seed")
    p.set_defaults(func=_cmd_average)

    p = new("analogy", "3CosAdd analogy accuracy of one space.")
    p.add_argument("--input", required=True, help=".vec file")
    p.add_argument("--analogies", required=True, help="analogy question file")
    p.add_argument(
        "--restrict",
        type=_nonneg_int,
        default=0,
        help="evaluate over the N most frequent words (0 = whole vocabulary)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_analogy)

    p = new("change", "Semantic change between two epoch spaces.")
    p.add_argument("--t1", required=True, help="earlier epoch .vec file")
    p.add_argument("--t2", required=True, help="later epoch .vec file")
    p.add_argument("--targets", required=True, help="one target word per line")
    p.add_argument("--gold-binary", default=None, help="gold 'word<TAB>0|1' file")
    p.add_argument("--gold-graded", default=None, help="gold 'word<TAB>score' file")
    p.add_argument(
        "--min-count",
        type=_positive_int,
        default=1,
        help="threshold vocabulary floor (1 = every joint word scores)",
    )
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_change)

    p = new("conformity", "Frequency-effect regression over adjacent epoch pairs.")
    p.add_argument("--epochs", required=True, help="directory with one corpus file per epoch")
    p.add_argument("--runs", type=_positive_int, default=8, help="trained runs per epoch")
    p.add_argument(
        "--avg",
        type=_positive_int,
        default=8,
        help="runs tree-averaged per epoch space (groups = runs // avg)",
    )
    p.add_argument("--control", type=_positive_int, default=None, help="control condition batch count")
    p.add_argument(
        "--min-count",
        type=_positive_int,
        default=500,
        help="a word scores only with at least this count in both epochs",
    )
    p.add_argument("--seed", type=_nonneg_int, default=0)
    _add_trainer_flags(p, prefix="train_")
    _add_corpus_flags(p)
    p.add_argument("--observations-out", default=None, help="per-observation TSV path")
    p.add_argument("--out", required=True, help="result TSV path")
    p.set_defaults(func=_cmd_conformity)

    p = new("report", "Re-emit a report TSV as JSON or TSV (lossless).")
    p.add_argument("--in", dest="in_path", required=True, help="report TSV path")
    p.add_argument("--format", choices=("tsv", "json"), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    return parser


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        values[key.strip()] = value.strip()
    return values


_TRUTHY = {"1": True, "true": True, "yes": True, "on": True}
_FALSY = {"0": False, "false": False, "no": False, "off": False}


def _coerce_config_value(action: argparse.Action, raw: str, key: str) -> object:
    if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
        value = {**_TRUTHY, **_FALSY}.get(raw.lower())
        if value is None:
            raise UsageError(f"config key {key!r}: expected a boolean, got {raw!r}")
        return value
    convert = action.type if callable(action.type) else str
    try:
        if action.nargs in ("+", "*"):
            value = [convert(item) for item in raw.split()]
        else:
            value = convert(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"config key {key!r}: {value!r} not in {sorted(action.choices)}"
        )
    return value


def _apply_config_file(
    args: argparse.Namespace, parser: argparse.ArgumentParser, argv: Sequence[str]
) -> None:
    """Fill any flag the user did not type from the key=value config file."""
    if getattr(args, "config", None) is None:
        return
    sub_actions = None
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            sub_actions = action.choices[args.command]._actions
    assert sub_actions is not None
    by_dest = {
        action.dest: action
        for action in sub_actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    explicit = set()
    for action in sub_actions:
        for option in action.option_strings:
            if any(tok == option or tok.startswith(f"{option}=") for tok in argv):
                explicit.add(action.dest)
    for key, raw in _read_config_file(args.config).items():
        dest = key.replace("-", "_")
        action = by_dest.get(dest)
        if action is None:
            raise UsageError(f"unknown config key {key!r} for command {args.command!r}")
        if dest in explicit:
            continue
        setattr(args, dest, _coerce_config_value(action, raw, key))


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args, parser, argv)
        return args.func(args)
    except UsageError as exc:
        print(f"embedstab: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"embedstab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (LoadError, OSError, ValueError, KeyError) as exc:
        print(f"embedstab: data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
