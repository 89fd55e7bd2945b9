"""Command-line driver: seeded experiment orchestration and report emission.

Subcommands: train, sample, instability, overlap, predict, pip, average,
analogy, change, conformity, report.  Every emitted report embeds the tool
version, the seeds in play, and SHA-256 hashes of its inputs, and is
byte-reproducible from (inputs, config, seed).  Every digest a report or
manifest prints is looked up in the record of the files its command read and
wrote (see `space`); a `--config` file is read before that record opens, as
flags, not data.  Exit codes: 0 success, 2 usage error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .align import aligned_average_tree
from .change import (
    GoldData,
    build_change_report,
    control_condition,
    evaluate,
    frequency_effect,
    load_gold_binary,
    load_gold_graded,
)
from .corpus import SAMPLING_MODES, Corpus, SamplingMode, dedup_lines, sample, save_corpus, tokenize
from .gaussian import (
    DEFAULT_PRUNING_THRESHOLD,
    _fill_rank_tables,
    _flattened,
    estimate_profile,
    expected_overlap,
    save_profile,
)
from .instability import _extrinsic_and_words, _pairwise, intrinsic_instability
from .overlap import _neighbor_lists, _summaries, mean_overlap
from .pip_loss import DEFAULT_PROXY_SIZE, sample_proxy
from .sgns import SgnsConfig, train
from .space import (
    EmbeddingSpace,
    LoadError,
    RunSet,
    _read_lines,
    _read_table,
    _recorded_digest,
    _recording_inputs,
    _write_table,
    _write_text,
    analogy_score,
    load_analogies,
    load_text_vectors,
    normalize,
    save_frequencies,
    save_text_vectors,
)

__all__ = ["main"]

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
    """The sha256 of the bytes this command last read from or wrote to `path`."""
    digest = _recorded_digest(path)
    if digest is None:
        raise RuntimeError(f"{path}: no digest recorded")
    return digest


def _base_meta(command: str, labelled: Sequence[tuple[str, str | Path]]) -> list[tuple[str, object]]:
    """The tool, the command, an `# input` line per labelled file, and after
    each one `<label> frequencies` for its recorded, unlabelled `.freq` sidecar."""
    meta: list[tuple[str, object]] = [("tool", f"embedstab {__version__}"), ("command", command)]
    own = {str(path) for _, path in labelled}
    for label, path in labelled:
        meta.append((f"input {label}", f"sha256:{_sha256(path)}"))
        if f"{path}.freq" not in own and (freq := _recorded_digest(f"{path}.freq")) is not None:
            meta.append((f"input {label} frequencies", f"sha256:{freq}"))
    return meta


def _space_inputs(paths: Sequence[str]) -> list[tuple[str, str]]:
    """Report inputs `space 0`, `space 1`, ... in argument order."""
    return [(f"space {i}", p) for i, p in enumerate(paths)]


def _file_entry(path: str | Path, name: str | None = None) -> dict[str, str]:
    """A manifest's record of a file, by its name (`path` by default), and of
    its `.freq` sidecar if one was recorded."""
    entry = {"file": str(path) if name is None else name, "sha256": _sha256(path)}
    if (freq := _recorded_digest(f"{path}.freq")) is not None:
        entry.update(frequency_file=f"{entry['file']}.freq", frequency_sha256=freq)
    return entry


def _write_manifest(
    path: str | Path, command: str, config: dict[str, object], **sections: object
) -> None:
    header = {"tool": "embedstab", "version": __version__, "command": command}
    _write_json(path, {**header, "config": config, **sections})


def _read_corpus(path: str, lowercase: bool, dedup: bool) -> Corpus:
    """One document per line, read as `load_corpus` reads it; dedup compares
    the raw line text."""
    lines = [line for _, (line,) in _read_lines(path, "\n")]
    lines = dedup_lines(lines) if dedup else lines
    return Corpus(tuple(tokenize(line, lowercase=lowercase) for line in lines))


def _corpus_config(path: str, mode: str, lowercase: bool, dedup: bool) -> dict[str, object]:
    return {
        "corpus": path,
        "corpus_sha256": _sha256(path),
        "mode": mode,
        "lowercase": lowercase,
        "dedup": dedup,
    }


def _load_space(
    path: str | Path, require_frequencies: bool = False, normalized: bool = False
) -> EmbeddingSpace:
    freq_path: Path | None = Path(f"{path}.freq")
    if not freq_path.exists():
        if require_frequencies:
            raise LoadError(f"{path}: frequency sidecar {freq_path} not found")
        freq_path = None
    return load_text_vectors(path, freq_path, normalized=normalized)


def _read_spaces(
    paths: Sequence[str | Path],
    minimum: int = 1,
    require_frequencies: bool = False,
    what: str = "input spaces",
) -> tuple[EmbeddingSpace, ...]:
    """Load each vector file (with its .freq sidecar, if any) with unit rows."""
    if len(paths) < minimum:
        raise ValueError(f"need at least {minimum} {what}")
    return tuple(_load_space(p, require_frequencies, normalized=True) for p in paths)


def _load_runs(directory: str, count: int | str, mode: str) -> tuple[RunSet, list[Path]]:
    """First `count` (sorted) .vec files of a directory, renormalized."""
    files = sorted(Path(directory).glob("*.vec"))
    if not files:
        raise LoadError(f"no .vec files in {directory}")
    if count != "all":
        if len(files) < int(count):
            raise LoadError(
                f"{directory}: {len(files)} .vec files but {count} runs requested"
            )
        files = files[: int(count)]
    return RunSet(_read_spaces(files, 2, what=f"{mode} runs"), mode=mode), files


def _read_words(path: str) -> list[str]:
    """The stripped non-blank lines of a file, first occurrences only."""
    words = [line.strip() for _, (line,) in _read_lines(path, "\n")]
    if not words:
        raise LoadError(f"{path}: no words")
    return list(dict.fromkeys(words))


def _write_json(path: str | Path, payload: object) -> None:
    _write_text(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _safe_name(word: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", word)


# ---------------------------------------------------------------------------
# experiment orchestration


def _train_run(
    corpus: Corpus, mode: str, seed: int, trainer: SgnsConfig, label: str
) -> EmbeddingSpace:
    """Sample and train one run with seed `seed`; a failure names `label`."""
    try:
        sampled = sample(corpus, SamplingMode(mode, seed))
        return train(sampled, replace(trainer, seed=seed))
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        raise ArithmeticError(f"{label} failed: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{label} failed: {exc}") from exc


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
    """Train and save run i with seed `--seed` + i, then the manifest.

    With `--out` the one run goes to that file (manifest `<out>.manifest.json`);
    with `--out-dir` runs go to run_###.vec there (manifest `manifest.json`).
    """
    if (args.out is None) == (args.out_dir is None):
        raise UsageError("exactly one of --out or --out-dir is required")
    if args.out is not None and args.runs != 1:
        raise UsageError("--runs needs --out-dir; --out writes a single run")
    trainer = _trainer_from_args(args)
    corpus = _read_corpus(args.corpus, args.lowercase, args.dedup)
    if args.out is None:
        out_dir = Path(args.out_dir)
        paths = [out_dir / f"run_{index:03d}.vec" for index in range(args.runs)]
        names = [path.name for path in paths]
        manifest_path = out_dir / "manifest.json"
    else:
        paths, names, manifest_path = [Path(args.out)], [args.out], Path(f"{args.out}.manifest.json")
    entries = []
    for index, (path, name) in enumerate(zip(paths, names)):
        seed = args.seed + index
        space = _train_run(corpus, args.mode, seed, trainer, f"run {index}")
        save_text_vectors(space, path)
        save_frequencies(space.vocab.frequency, f"{path}.freq")
        entries.append({"index": index, "seed": seed, **_file_entry(path, name)})
    # Every trainer setting but the seed, which each run entry records.
    settings = {
        **_corpus_config(args.corpus, args.mode, args.lowercase, args.dedup),
        **{k: v for k, v in asdict(trainer).items() if k != "seed"},
        "runs": args.runs,
        "global_seed": args.seed,
    }
    _write_manifest(manifest_path, "train", settings, runs=entries)
    return EXIT_OK


def _cmd_sample(args: argparse.Namespace) -> int:
    corpus = _read_corpus(args.corpus, args.lowercase, args.dedup)
    settings = _corpus_config(args.corpus, args.mode, args.lowercase, args.dedup)
    out = Path(args.out)
    save_corpus(sample(corpus, SamplingMode(args.mode, args.seed)), out)
    _write_manifest(
        f"{out}.manifest.json", "sample", {**settings, "seed": args.seed}, output=_file_entry(out)
    )
    return EXIT_OK


def _wordwise_flags(args: argparse.Namespace) -> None:
    if args.words is not None and args.wordwise_out is None:
        raise UsageError("--words requires --wordwise-out")
    if args.words is None and args.wordwise_out is not None:
        raise UsageError("--wordwise-out requires --words")


def _cmd_instability(args: argparse.Namespace) -> int:
    _wordwise_flags(args)
    if args.words is not None and args.bootstrapped is None:
        raise UsageError("word-level instability needs --bootstrapped runs")
    shuffled, shuffled_files = _load_runs(args.shuffled, args.runs, "shuffled")
    boot = None
    boot_files: list[Path] = []
    if args.bootstrapped is not None:
        boot, boot_files = _load_runs(args.bootstrapped, args.runs, "bootstrapped")
    words = _read_words(args.words) if args.words is not None else []
    all_spaces = list(shuffled.spaces) + (list(boot.spaces) if boot else [])
    proxy = sample_proxy(all_spaces, size=args.proxy_size, seed=args.seed)
    if boot is None:
        report = intrinsic_instability(shuffled, proxy)
    else:
        report, word_parts = _extrinsic_and_words(shuffled, boot, proxy, words)

    inputs = [(f"shuffled {p.name}", p) for p in shuffled_files]
    inputs += [(f"bootstrapped {p.name}", p) for p in boot_files]
    inputs += [("words", args.words)] if words else []
    proxy_meta = _base_meta("instability", inputs)
    proxy_meta += [("proxy_size", report.proxy_size), ("proxy_seed", report.proxy_seed)]
    meta = proxy_meta + [
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
    rows = [
        (label, i, j, value)
        for label, runs, values in (
            ("shuffled", shuffled, report.pairs),
            ("bootstrapped", boot, report.boot_pairs),
        )
        if runs is not None
        for (i, j), value in zip(itertools.combinations(range(len(runs)), 2), values)
    ]
    _write_table(args.out, rows, ("set", "run_a", "run_b", "reduced_pip"), meta)

    if words:
        _write_table(
            args.wordwise_out,
            [(word, *parts) for word, parts in zip(words, word_parts)],
            ("word", "intrinsic", "extrinsic"),
            proxy_meta,
        )
    return EXIT_OK


def _cmd_overlap(args: argparse.Namespace) -> int:
    spaces = _read_spaces(args.inputs, 2)
    runs = RunSet(spaces, mode="fixed")
    targets = _read_words(args.targets)
    summaries = mean_overlap(runs, targets, args.n)
    meta = _base_meta("overlap", _space_inputs(args.inputs) + [("targets", args.targets)])
    meta.append(("n", args.n))
    rows = [(s.target, s.n, s.mean_p, s.mean_j, s.pair_count) for s in summaries]
    _write_table(args.out, rows, ("target", "n", "mean_p_at_n", "mean_j_at_n", "pairs"), meta)
    return EXIT_OK


def _cmd_predict(args: argparse.Namespace) -> int:
    spaces = _read_spaces(args.inputs, 2)
    runs = RunSet(spaces, mode="fixed")
    targets = _read_words(args.targets)
    # One pass serves the candidate queries and both measured overlaps,
    # which read the top-1 and top-2 prefixes of the same lists.
    sizes = (1, 2)
    neighbor_lists = _neighbor_lists(spaces, targets, max(args.candidates, *sizes))
    measured = [
        {s.target: s.mean_p for s in _summaries(neighbor_lists, targets, n)}
        for n in sizes
    ]
    profiles = []
    for index, target in enumerate(targets):
        queries = sorted(
            set().union(*(lists[target][: args.candidates] for lists in neighbor_lists))
        )
        profiles.append(estimate_profile(runs, target, queries))
        if args.profiles is not None:
            name = f"profile_{index:03d}_{_safe_name(target)}.tsv"
            save_profile(profiles[-1], str(Path(args.profiles) / name))
    # A structure factor is the top-1 overlap of the flattened twin, and
    # one kernel call fills the tables of every profile and twin.
    twins = [_flattened(profile) for profile in profiles]
    _fill_rank_tables(profiles + twins, DEFAULT_PRUNING_THRESHOLD, max(sizes))
    rows = [
        (p.target, len(p), *(expected_overlap(p, n) for n in sizes), expected_overlap(twin, 1),
         *(by_target[p.target] for by_target in measured))
        for p, twin in zip(profiles, twins)
    ]
    meta = _base_meta("predict", _space_inputs(args.inputs) + [("targets", args.targets)])
    meta.append(("candidates", args.candidates))
    _write_table(
        args.out,
        rows,
        (
            "target",
            "queries",
            "predicted_p1",
            "predicted_p2",
            "structure_factor",
            "measured_p1",
            "measured_p2",
        ),
        meta,
    )
    return EXIT_OK


def _cmd_pip(args: argparse.Namespace) -> int:
    _wordwise_flags(args)
    spaces = _read_spaces(args.inputs, 2)
    words = _read_words(args.words) if args.words is not None else []
    proxy = sample_proxy(spaces, size=args.proxy_size, seed=args.seed)
    word_list = [("words", args.words)] if words else []
    meta = _base_meta("pip", _space_inputs(args.inputs) + word_list)
    meta += [("proxy_size", len(proxy)), ("proxy_seed", proxy.seed)]
    values, wordwise = _pairwise(RunSet(spaces, mode="fixed"), proxy, words)
    pairs = list(itertools.combinations(range(len(spaces)), 2))
    rows = [(i, j, value) for (i, j), value in zip(pairs, values.tolist())]
    _write_table(args.out, rows, ("run_a", "run_b", "reduced_pip"), meta)
    if words:
        word_rows = [
            (i, j, word, value)
            for (i, j), pair_values in zip(pairs, wordwise.tolist())
            for word, value in zip(words, pair_values)
        ]
        _write_table(args.wordwise_out, word_rows, ("run_a", "run_b", "word", "wordwise_pip"), meta)
    return EXIT_OK


def _cmd_average(args: argparse.Namespace) -> int:
    averaged = aligned_average_tree(
        _read_spaces(args.inputs),
        renormalize=not args.no_renorm,
        pairing=args.pairing,
        seed=args.seed,
    )
    settings = {
        "inputs": [_file_entry(p) for p in args.inputs],
        "renormalize": not args.no_renorm,
        "pairing": args.pairing,
        "seed": args.seed,
    }
    save_text_vectors(averaged, args.out)
    if averaged.vocab.frequency is not None:
        save_frequencies(averaged.vocab.frequency, f"{args.out}.freq")
    _write_manifest(
        f"{args.out}.manifest.json", "average", settings, output=_file_entry(args.out)
    )
    return EXIT_OK


def _cmd_analogy(args: argparse.Namespace) -> int:
    space = _load_space(args.input)
    dataset = load_analogies(args.analogies)
    restrict_to = None
    if args.restrict > 0:
        restrict_to = space.vocab.words[: args.restrict]
    accuracy, coverage = analogy_score(space, dataset, restrict_to)
    meta = _base_meta("analogy", [("space", args.input), ("analogies", args.analogies)])
    meta.append(("restrict", args.restrict))
    rows = [
        ("accuracy", accuracy),
        ("coverage", coverage),
        ("questions", len(dataset)),
    ]
    _write_table(args.out, rows, ("metric", "value"), meta)
    return EXIT_OK


def _cmd_change(args: argparse.Namespace) -> int:
    space_t1, space_t2 = _read_spaces(
        [args.t1, args.t2], require_frequencies=args.min_count > 1
    )
    targets = _read_words(args.targets)
    report = build_change_report(
        space_t1, space_t2, targets=targets, min_count=args.min_count
    )
    out_dir = Path(args.out)

    inputs = [("t1", args.t1), ("t2", args.t2), ("targets", args.targets)]
    meta = _base_meta("change", inputs) + [
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
    _write_table(out_dir / "report.tsv", rows, ("word", "delta", "is_target", "changed"), meta)

    # SemEval-style plain answer files: no comment headers.
    answers = sorted(targets)
    _write_table(out_dir / "answers-binary.tsv", [(w, int(report.labels[w])) for w in answers])
    _write_table(out_dir / "answers-graded.tsv", [(w, report.deltas[w]) for w in answers])

    if args.gold_binary or args.gold_graded:
        gold = GoldData(
            binary=load_gold_binary(args.gold_binary) if args.gold_binary else {},
            graded=load_gold_graded(args.gold_graded) if args.gold_graded else {},
        )
        gold_files = [("gold binary", args.gold_binary), ("gold graded", args.gold_graded)]
        eval_meta = _base_meta("change", inputs + [(label, p) for label, p in gold_files if p])
        accuracy, rho = evaluate(report, gold)
        eval_rows = [
            ("accuracy", accuracy),
            ("spearman_rho", rho),
            ("binary_targets", len(gold.binary)),
            ("graded_targets", len(gold.graded)),
        ]
        _write_table(out_dir / "evaluation.tsv", eval_rows, ("metric", "value"), eval_meta)
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
        seeds = range(base_seed + e * args.runs, base_seed + (e + 1) * args.runs)
        spaces = [
            _train_run(corpus, "shuffled", seed, trainer, f"epoch {labels[e]} run {r}")
            for r, seed in enumerate(seeds)
        ]
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
            try:
                report = build_change_report(s1, s2, min_count=args.min_count)
            except ValueError as exc:
                raise ValueError(
                    f"epoch pair {labels[e]}->{labels[e + 1]}: {exc}"
                ) from exc
            f1, f2 = s1.vocab.frequency, s2.vocab.frequency
            observations.extend(
                (w, e, report.deltas[w], 0.5 * (f1[w] + f2[w]))
                for w in report.scored_vocab
            )
    return observations


def _cmd_conformity(args: argparse.Namespace) -> int:
    if not 1 <= args.avg <= args.runs:
        raise UsageError(f"--avg must be in [1, runs={args.runs}], got {args.avg}")
    epoch_files = sorted(p for p in Path(args.epochs).iterdir() if p.is_file())
    if len(epoch_files) < 2:
        raise LoadError(f"{args.epochs}: need at least 2 epoch files")
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
    _write_table(
        args.out,
        rows,
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
        meta,
    )
    if args.observations_out is not None:
        obs_rows = [
            (name, word, pair, delta, frequency)
            for name, _, obs in conditions
            for word, pair, delta, frequency in obs
        ]
        _write_table(
            args.observations_out,
            obs_rows,
            ("condition", "word", "epoch_pair", "delta", "frequency"),
            meta,
        )
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    meta, columns, rows = _read_table(args.in_path)
    if args.format == "json":
        _write_json(args.out, {"meta": meta, "columns": columns, "rows": rows})
    else:
        _write_table(args.out, rows, columns, meta)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing, config files, dispatch


def _parsed(convert: Callable[[str], float], text: str, expected: str) -> float:
    """`convert(text)`, or a usage error saying what was expected."""
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None


def _positive_int(text: str) -> int:
    value = _parsed(int, text, "an integer >= 1")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _nonneg_int(text: str) -> int:
    value = _parsed(int, text, "an integer >= 0")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return value


def _learning_rate(text: str) -> float:
    value = _parsed(float, text, "a finite number > 0")
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _sampling_threshold(text: str) -> float:
    value = _parsed(float, text, "a number in (0, 1]")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _runs_count(text: str) -> int | str:
    if text == "all":
        return "all"
    value = _parsed(int, text, "an integer >= 2 or 'all'")
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
    parser.add_argument(f"{p}lr", type=_learning_rate, default=d.initial_lr, help="initial learning rate")
    parser.add_argument(f"{p}sample", type=_sampling_threshold, default=d.subsample_t, help="subsampling threshold t")
    parser.add_argument(f"{p}min-count", type=_positive_int, default=d.min_count, help="vocabulary count floor")
    parser.add_argument(
        f"{p}static-window",
        action="store_true",
        help="use the full window instead of a per-position uniform draw",
    )


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="embedstab",
        description=(
            "Quantify, predict, and reduce run-to-run instability of "
            "word-embedding training."
        ),
    )
    parser.add_argument("--version", action="version", version=f"embedstab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def new(name: str, help_text: str) -> argparse.ArgumentParser | None:
        p = sub.add_parser(name, help=help_text, description=help_text)
        if name not in argv:
            return None  # listed in the help, but only argv's command is filled
        p.add_argument("--config", default=None,
                       help="flat key=value config file; explicit flags override its values")
        return p

    if p := new("train", "Train one or more embedding spaces from a corpus."):
        p.add_argument("--corpus", required=True, help="one document per line")
        _add_trainer_flags(p)
        _add_corpus_flags(p)
        p.add_argument("--seed", type=_nonneg_int, default=0, help="global seed; run i uses seed+i")
        p.add_argument("--mode", choices=SAMPLING_MODES, default="fixed", help="document sampling mode")
        p.add_argument("--runs", type=_positive_int, default=1, help="number of runs (needs --out-dir)")
        p.add_argument("--out", default=None, help="output .vec file (single run)")
        p.add_argument("--out-dir", default=None, help="output directory for run_###.vec files")
        p.set_defaults(func=_cmd_train)

    if p := new("sample", "Materialize one sampled corpus (dedup + sampling mode)."):
        p.add_argument("--corpus", required=True)
        p.add_argument("--mode", choices=SAMPLING_MODES, required=True)
        p.add_argument("--seed", type=_nonneg_int, default=0)
        _add_corpus_flags(p)
        p.add_argument("--out", required=True, help="output corpus file")
        p.set_defaults(func=_cmd_sample)

    if p := new("instability", "Intrinsic (and extrinsic) instability from run directories."):
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

    if p := new("overlap", "Mean nearest-neighbor overlap (p@n, j@n) across run pairs."):
        p.add_argument("--inputs", nargs="+", required=True, help=".vec files")
        p.add_argument("--targets", required=True, help="one target word per line")
        p.add_argument("--n", type=_positive_int, default=10, help="neighbor list length")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_overlap)

    if p := new("predict", "Predict top-1/top-2 overlap from Gaussian profiles vs. measurement."):
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

    if p := new("pip", "Pairwise (reduced) PIP distances between runs."):
        p.add_argument("--inputs", nargs="+", required=True, help=".vec files")
        p.add_argument("--proxy-size", type=_positive_int, default=DEFAULT_PROXY_SIZE)
        p.add_argument("--seed", type=_nonneg_int, default=0, help="proxy sampling seed")
        p.add_argument("--words", default=None, help="word list for word-level PIP")
        p.add_argument("--wordwise-out", default=None, help="word-level report path")
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_pip)

    if p := new("average", "Tree-average aligned spaces into one space."):
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

    if p := new("analogy", "3CosAdd analogy accuracy of one space."):
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

    if p := new("change", "Semantic change between two epoch spaces."):
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

    if p := new("conformity", "Frequency-effect regression over adjacent epoch pairs."):
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

    if p := new("report", "Re-emit a report TSV as JSON or TSV (lossless)."):
        p.add_argument("--in", dest="in_path", required=True, help="report TSV path")
        p.add_argument("--format", choices=("tsv", "json"), required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_report)

    return parser


def _read_config_file(path: str) -> dict[str, str]:
    """key=value lines; blank and "#" lines are skipped, others are usage errors."""
    values: dict[str, str] = {}
    for lineno, (line,) in _read_lines(path, "\n", comments=("#",)):
        key, sep, value = line.strip().partition("=")
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
) -> argparse.Namespace:
    """Parse `argv` again with the key=value config file's values as the
    subcommand's defaults, so every flag the user typed wins."""
    if getattr(args, "config", None) is None:
        return args
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    subparser = commands.choices[args.command]
    by_dest = {
        action.dest: action
        for action in subparser._actions
        if action.option_strings and action.dest not in ("help", "config")
    }
    defaults = {}
    for key, raw in _read_config_file(args.config).items():
        dest = key.replace("-", "_")
        action = by_dest.get(dest)
        if action is None:
            raise UsageError(f"unknown config key {key!r} for command {args.command!r}")
        defaults[dest] = _coerce_config_value(action, raw, key)
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, parser, argv)
        with _recording_inputs():  # reports name the bytes this command read and wrote
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
