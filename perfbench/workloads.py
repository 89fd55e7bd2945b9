"""Seeded input generators, command lists and output checks for each workload.

A workload is a class with
  * ``sizes``: the sizes used, recorded in every run record;
  * ``generate(inputs)``: writes every input file from the seed alone;
  * ``commands()``: ``(name, argv, check)`` triples run through
    ``embedstab.cli.main`` with the work directory as the current directory;
    ``check(full)`` raises ``CheckError`` when an output is wrong, and does
    the expensive checks only when ``full`` is true, which the runner asks
    for once, after the last repetition;
  * ``values``: output values that track result quality, filled in by the
    checks;
  * ``corrupt(inputs)``: damages one generated input, for the smoke test.

Every path handed to the program is relative to the work directory, so
reports and manifests are byte-identical between iterations and runs.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy.stats import spearmanr

OUT = Path("out")
INPUTS = Path("inputs")


class CheckError(Exception):
    """An output of the program failed a check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# reading the program's outputs (independently of the package's own parsers)


def read_report(path: Path, columns: tuple[str, ...], rows: int | None = None):
    """Report TSV -> (meta dict, list of row dicts), checking its shape."""
    require(path.exists(), f"{path} missing")
    meta: dict[str, str] = {}
    header = None
    body = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if header is None and line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif header is None:
            header = tuple(line.split("\t"))
        else:
            cells = line.split("\t")
            require(len(cells) == len(columns), f"{path}: ragged row {line!r}")
            body.append(dict(zip(columns, cells)))
    require(header == columns, f"{path}: columns {header} != {columns}")
    if rows is not None:
        require(len(body) == rows, f"{path}: {len(body)} rows, expected {rows}")
    return meta, body


def read_vectors(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text(encoding="utf-8").splitlines()
    v, d = (int(x) for x in lines[0].split())
    require(len(lines) == v + 1, f"{path}: {len(lines) - 1} rows, header says {v}")
    words = [line.split(" ", 1)[0] for line in lines[1:]]
    matrix = np.array([line.split()[1:] for line in lines[1:]], dtype=np.float64)
    require(matrix.shape == (v, d), f"{path}: matrix shape {matrix.shape}")
    return words, matrix


def read_words(path: Path) -> list[str]:
    return [w for w in path.read_text(encoding="utf-8").split() if w]


def unit_float(value: str, what: str) -> float:
    x = float(value)
    require(0.0 <= x <= 1.0, f"{what} = {x} outside [0, 1]")
    return x


def direct_reduced_pip(a: np.ndarray, b: np.ndarray, block: int = 512) -> float:
    """||A A^T - B B^T||_F / (2 |proxy|) by explicit Gram blocks (the definition)."""
    a = a / np.linalg.norm(a, axis=1, keepdims=True)
    b = b / np.linalg.norm(b, axis=1, keepdims=True)
    total = 0.0
    for start in range(0, a.shape[0], block):
        diff = a[start : start + block] @ a.T - b[start : start + block] @ b.T
        total += float(np.sum(diff * diff))
    return math.sqrt(total) / (2.0 * a.shape[0])


# ---------------------------------------------------------------------------
# writing inputs


def fixed_width_vectors(words: list[str], matrix: np.ndarray) -> bytes:
    """Text vector file with every value written as "+0.dddddd".

    Built as one byte array so writing a 10k x 100 file costs milliseconds,
    which keeps set-up time a small, steady share of a run.  Values must lie
    in (-1, 1); callers scale their rows to guarantee it.
    """
    v, d = matrix.shape
    if np.max(np.abs(matrix)) >= 0.9999995:
        raise ValueError("fixed-width vector values must lie in (-1, 1)")
    width = len(words[0])
    if any(len(w) != width for w in words):
        raise ValueError("fixed-width vector files need equal-length words")
    q = np.rint(np.abs(matrix) * 1e6).astype(np.int64)
    field = np.empty((v, d, 10), dtype=np.uint8)
    field[:, :, 0] = ord(" ")
    field[:, :, 1] = np.where(matrix < 0, ord("-"), ord("+"))
    field[:, :, 2] = ord("0")
    field[:, :, 3] = ord(".")
    for k in range(6):
        field[:, :, 9 - k] = ord("0") + (q // 10**k) % 10
    rows = np.empty((v, width + 10 * d + 1), dtype=np.uint8)
    rows[:, :width] = np.frombuffer("".join(words).encode(), dtype=np.uint8).reshape(v, width)
    rows[:, width:-1] = field.reshape(v, 10 * d)
    rows[:, -1] = ord("\n")
    return f"{v} {d}\n".encode() + rows.tobytes()


def write_space(path: Path, words: list[str], matrix: np.ndarray, counts=None) -> None:
    path.write_bytes(fixed_width_vectors(words, matrix))
    if counts is not None:
        Path(f"{path}.freq").write_text(
            "".join(f"{w}\t{int(c)}\n" for w, c in zip(words, counts)), encoding="utf-8"
        )


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def noisy_run(rng, base: np.ndarray, noise: np.ndarray, scale: float = 0.5) -> np.ndarray:
    """One synthetic run: base rows plus per-word noise, rotated, at norm ~scale."""
    d = base.shape[1]
    rows = base + rng.normal(size=base.shape) * (noise[:, None] / math.sqrt(d))
    return scale * unit_rows(rows) @ random_rotation(rng, d)


def planted_change(rng, base: np.ndarray, targets: np.ndarray, grades: np.ndarray):
    """Copy of `base` whose target rows turn toward a random direction by grade."""
    moved = base.copy()
    d = base.shape[1]
    for row, g in zip(targets, grades):
        away = rng.normal(size=d)
        away -= (away @ base[row]) * base[row]
        away /= np.linalg.norm(away)
        angle = g * math.pi / 2.0
        moved[row] = math.cos(angle) * base[row] + math.sin(angle) * away
    return moved


def graded_gold(words, grades) -> tuple[list[str], list[str]]:
    graded = [f"{w}\t{g!r}" for w, g in zip(words, grades)]
    binary = [f"{w}\t{int(g >= 0.5)}" for w, g in zip(words, grades)]
    return graded, binary


def check_change(targets: list[str], rho_floor: float):
    """Check the change outputs; return the evaluation's Spearman rho."""
    meta, rows = read_report(OUT / "change" / "report.tsv", ("word", "delta", "is_target", "changed"))
    require(int(meta["scored_words"]) >= 2, "change scored fewer than 2 words")
    for row in rows:
        delta = float(row["delta"])
        require(0.0 <= delta <= 2.0, f"change delta {delta} outside [0, 2]")
    for name in ("answers-binary.tsv", "answers-graded.tsv"):
        lines = (OUT / "change" / name).read_text(encoding="utf-8").splitlines()
        require(sorted(l.split("\t")[0] for l in lines) == sorted(targets), f"{name}: wrong targets")
    _, evaluation = read_report(OUT / "change" / "evaluation.tsv", ("metric", "value"), rows=4)
    values = {r["metric"]: r["value"] for r in evaluation}
    unit_float(values["accuracy"], "change accuracy")
    rho = float(values["spearman_rho"])
    # The program's rho must match scipy's on its own graded answers.
    answers = dict(
        line.split("\t") for line in (OUT / "change" / "answers-graded.tsv").read_text(encoding="utf-8").splitlines()
    )
    gold = dict(line.split("\t") for line in (INPUTS / "gold_graded.tsv").read_text(encoding="utf-8").splitlines())
    words = sorted(gold)
    expected = spearmanr([float(answers[w]) for w in words], [float(gold[w]) for w in words])[0]
    require(abs(rho - expected) < 1e-9, f"change rho {rho} != scipy's {expected}")
    require(rho >= rho_floor, f"change Spearman rho {rho} below {rho_floor}")
    return rho


def check_average(inputs: list[Path]) -> None:
    """The averaged space reloads, covers the inputs' joint vocabulary and normalizes."""
    import embedstab

    space = embedstab.load_text_vectors(OUT / "average.vec")
    unit = embedstab.normalize(space)
    norms = np.linalg.norm(unit.matrix, axis=1)
    require(np.all(np.abs(norms - 1.0) < 1e-9), "averaged rows do not normalize")
    joint = set(read_vectors(inputs[0])[0])
    for path in inputs[1:]:
        joint &= set(read_vectors(path)[0])
    require(joint <= set(space.vocab.words), "averaged space lost joint-vocabulary words")


def check_overlap(targets: list[str], n: int, pairs: int) -> None:
    _, rows = read_report(
        OUT / "overlap.tsv", ("target", "n", "mean_p_at_n", "mean_j_at_n", "pairs"), rows=len(targets)
    )
    for row in rows:
        p = unit_float(row["mean_p_at_n"], "mean p@n")
        j = unit_float(row["mean_j_at_n"], "mean j@n")
        require(j <= p + 1e-12, f"mean j@n {j} exceeds mean p@n {p}")
        require(int(row["n"]) == n and int(row["pairs"]) == pairs, "overlap row sizes")


def check_predict(targets: list[str]) -> float:
    """Predicted p1/p2 lie in [0, 1]; return mean |predicted_p1 - measured_p1|."""
    columns = (
        "target", "queries", "predicted_p1", "predicted_p2", "structure_factor",
        "measured_p1", "measured_p2",
    )
    _, rows = read_report(OUT / "predict.tsv", columns, rows=len(targets))
    errors = []
    for row in rows:
        p1 = unit_float(row["predicted_p1"], "predicted p1")
        unit_float(row["predicted_p2"], "predicted p2")
        unit_float(row["structure_factor"], "structure factor")
        errors.append(abs(p1 - unit_float(row["measured_p1"], "measured p1")))
    profiles = sorted((OUT / "profiles").glob("profile_*.tsv"))
    require(len(profiles) == len(targets), f"{len(profiles)} profiles for {len(targets)} targets")
    return float(np.mean(errors))


def check_instability(runs: int, words: list[str]) -> dict[str, str]:
    pairs = runs * (runs - 1) // 2
    meta, rows = read_report(
        OUT / "instability.tsv", ("set", "run_a", "run_b", "reduced_pip"), rows=2 * pairs
    )
    for row in rows:
        unit_float(row["reduced_pip"], "reduced PIP")
    intrinsic = float(meta["intrinsic"])
    require(0.0 < intrinsic < 1.0, f"intrinsic instability {intrinsic} outside (0, 1)")
    _, word_rows = read_report(
        OUT / "wordwise.tsv", ("word", "intrinsic", "extrinsic"), rows=len(words)
    )
    require([r["word"] for r in word_rows] == words, "word-level rows out of order")
    return meta


# ---------------------------------------------------------------------------
# workloads


class Workload:
    SIZES: dict[str, dict] = {}

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.sizes = dict(self.SIZES[size])
        self.values: dict[str, float] = {}


class Pipeline(Workload):
    """The README experiment end to end on a Zipfian multi-topic corpus."""

    SIZES = {
        "full": dict(docs=300, doc_len=48, topics=12, topic_words=600, shared=900,
                     runs=3, dim=50, window=4, neg=5, epochs=1, min_count=2, sample=1e-3,
                     epoch_docs=300, epoch_sample=1e-2, swap_pairs=18, rho_floor=0.4,
                     words=20, targets=40, predict_targets=8, candidates=1),
        "tiny": dict(docs=60, doc_len=20, topics=3, topic_words=40, shared=40,
                     runs=2, dim=8, window=2, neg=2, epochs=1, min_count=2, sample=1e-2,
                     epoch_docs=60, epoch_sample=1e-2, swap_pairs=3, rho_floor=-1.0,
                     words=5, targets=5, predict_targets=2, candidates=2),
    }

    def _topic_model(self):
        s = self.sizes
        ranks = lambda n: 1.0 / np.arange(1, n + 1) ** 1.05  # noqa: E731
        topic_p = ranks(s["topic_words"])
        shared_p = ranks(s["shared"])
        topic_words = [[f"t{t:02d}w{i:04d}" for i in range(s["topic_words"])] for t in range(s["topics"])]
        shared = [f"s{i:04d}" for i in range(s["shared"])]
        return topic_words, shared, topic_p / topic_p.sum(), shared_p / shared_p.sum()

    def _documents(self, rng, count: int) -> list[list[str]]:
        topic_words, shared, topic_p, shared_p = self._topic_model()
        n = self.sizes["doc_len"]
        docs = []
        for _ in range(count):
            topic = topic_words[rng.integers(len(topic_words))]
            from_topic = rng.random(n) < 0.6
            t = rng.choice(len(topic_p), size=n, p=topic_p)
            u = rng.choice(len(shared_p), size=n, p=shared_p)
            docs.append([topic[t[k]] if from_topic[k] else shared[u[k]] for k in range(n)])
        return docs

    def generate(self, inputs: Path) -> None:
        s = self.sizes
        rng = np.random.default_rng([self.seed, 1])
        docs = self._documents(rng, s["docs"])
        write_lines(inputs / "corpus.txt", (" ".join(d) for d in docs))
        # Word-level instability needs its words in every bootstrapped
        # resample, so they are the words found in the most documents; the
        # neighbor targets are drawn from the next most widespread words.
        doc_freq: dict[str, int] = {}
        for doc in docs:
            for w in set(doc):
                doc_freq[w] = doc_freq.get(w, 0) + 1
        ranked = sorted(doc_freq, key=lambda w: (-doc_freq[w], w))
        write_lines(inputs / "words.txt", ranked[: s["words"]])
        needed = s["targets"] + s["predict_targets"]
        pool = ranked[s["words"] : s["words"] + 3 * needed]
        chosen = [pool[i] for i in rng.permutation(len(pool))[:needed]]
        write_lines(inputs / "targets.txt", chosen[: s["targets"]])
        write_lines(inputs / "predict_targets.txt", chosen[s["targets"] :])

        # Epoch corpora: pairs of frequent words from different topics swap
        # places in epoch 2 with a graded per-occurrence probability.
        topic_words, _, _, _ = self._topic_model()
        epoch1 = self._documents(rng, s["epoch_docs"])
        epoch2 = self._documents(rng, s["epoch_docs"])
        grades = np.linspace(0.0, 1.0, s["swap_pairs"])
        swap: dict[str, tuple[str, float]] = {}
        topics = rng.permutation(len(topic_words))
        gold_words, gold_grades = [], []
        for k, g in enumerate(grades):
            # Slot j is the (j // topics)-th most frequent word of topic j % topics.
            a, b = (topic_words[topics[j % len(topics)]][j // len(topics)] for j in (2 * k, 2 * k + 1))
            swap[a], swap[b] = (b, g), (a, g)
            gold_words += [a, b]
            gold_grades += [float(g), float(g)]
        for doc in epoch2:
            for i, w in enumerate(doc):
                if w in swap and rng.random() < swap[w][1]:
                    doc[i] = swap[w][0]
        write_lines(inputs / "epoch1.txt", (" ".join(d) for d in epoch1))
        write_lines(inputs / "epoch2.txt", (" ".join(d) for d in epoch2))
        write_lines(inputs / "change_targets.txt", gold_words)
        graded, binary = graded_gold(gold_words, gold_grades)
        write_lines(inputs / "gold_graded.tsv", graded)
        write_lines(inputs / "gold_binary.tsv", binary)

    def corrupt(self, inputs: Path) -> None:
        # A graded gold score that is not a number: `change` must fail.
        path = inputs / "gold_graded.tsv"
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[0] = lines[0].split("\t")[0] + "\tnot-a-number"
        write_lines(path, lines)

    def _trainer(self, sample: float) -> list[str]:
        s = self.sizes
        return ["--dim", str(s["dim"]), "--window", str(s["window"]), "--neg", str(s["neg"]),
                "--epochs", str(s["epochs"]), "--min-count", str(s["min_count"]), "--sample", str(sample)]

    def runs(self) -> list[Path]:
        return [OUT / "shuffled" / f"run_{i:03d}.vec" for i in range(self.sizes["runs"])]

    def commands(self):
        s = self.sizes
        runs = [str(p) for p in self.runs()]
        words = read_words(INPUTS / "words.txt")
        targets = read_words(INPUTS / "targets.txt")
        predict_targets = read_words(INPUTS / "predict_targets.txt")
        change_targets = read_words(INPUTS / "change_targets.txt")
        trainer = self._trainer(s["sample"])
        # The epoch corpora are small; a milder subsampling threshold keeps
        # enough occurrences of the swapped words for the change to show.
        epoch_trainer = self._trainer(s["epoch_sample"])
        self.values = {}

        def check_train(mode):
            def check(full):
                manifest = json.loads((OUT / mode / "manifest.json").read_text(encoding="utf-8"))
                require(len(manifest["runs"]) == s["runs"], f"{mode}: wrong run count")
                for entry in manifest["runs"]:
                    vec = OUT / mode / entry["file"]
                    count_tokens(vec)
                    if full:
                        require(np.all(np.isfinite(read_vectors(vec)[1])), f"{vec}: non-finite values")
            return check

        def check_instability_(full):
            meta = check_instability(s["runs"], words)
            self.values["intrinsic_pip"] = float(meta["intrinsic"])

        def check_predict_(full):
            self.values["p1_abs_err"] = check_predict(predict_targets)

        def count_tokens(vec: Path) -> None:
            """In-vocabulary tokens x epochs of one trained run, from its sidecar."""
            freq = Path(f"{vec}.freq")
            require(vec.exists() and freq.exists(), f"{vec} missing")
            counts = sum(int(line.split("\t")[1]) for line in freq.read_text(encoding="utf-8").splitlines())
            self.values["train_tokens"] = self.values.get("train_tokens", 0) + counts * s["epochs"]

        def check_epoch(name):
            return lambda full: count_tokens(OUT / name)

        def check_change_(full):
            self.values["change_rho"] = check_change(change_targets, rho_floor=s["rho_floor"])

        yield "train", ["train", "--corpus", "inputs/corpus.txt", "--mode", "shuffled", "--runs", str(s["runs"]),
                        "--out-dir", "out/shuffled", *trainer], check_train("shuffled")
        yield "train", ["train", "--corpus", "inputs/corpus.txt", "--mode", "bootstrapped", "--runs", str(s["runs"]),
                        "--out-dir", "out/bootstrapped", *trainer], check_train("bootstrapped")
        yield "instability", ["instability", "--shuffled", "out/shuffled", "--bootstrapped", "out/bootstrapped",
                              "--runs", "all", "--words", "inputs/words.txt", "--wordwise-out", "out/wordwise.tsv",
                              "--out", "out/instability.tsv"], check_instability_
        yield "overlap", ["overlap", "--inputs", *runs, "--targets", "inputs/targets.txt", "--n", "10",
                          "--out", "out/overlap.tsv"], lambda full: check_overlap(targets, 10, len(runs) * (len(runs) - 1) // 2)
        yield "average", ["average", "--inputs", *runs, "--out", "out/average.vec"], \
            lambda full: check_average(self.runs()) if full else None
        yield "predict", ["predict", "--inputs", *runs, "--targets", "inputs/predict_targets.txt",
                          "--candidates", str(s["candidates"]), "--profiles", "out/profiles",
                          "--out", "out/predict.tsv"], check_predict_
        yield "train", ["train", "--corpus", "inputs/epoch1.txt", "--out", "out/epoch1.vec", *epoch_trainer], check_epoch("epoch1.vec")
        yield "train", ["train", "--corpus", "inputs/epoch2.txt", "--out", "out/epoch2.vec", *epoch_trainer], check_epoch("epoch2.vec")
        yield "change", ["change", "--t1", "out/epoch1.vec", "--t2", "out/epoch2.vec",
                         "--targets", "inputs/change_targets.txt", "--gold-binary", "inputs/gold_binary.tsv",
                         "--gold-graded", "inputs/gold_graded.tsv", "--out", "out/change"], check_change_


def cluster_space(rng, vocab: int, dim: int, clusters: int) -> np.ndarray:
    """Unit rows grouped around `clusters` centres, so neighbor lists mean something."""
    centres = unit_rows(rng.normal(size=(clusters, dim)))
    rows = centres[rng.integers(clusters, size=vocab)] + 0.8 * rng.normal(size=(vocab, dim)) / math.sqrt(dim)
    return unit_rows(rows)


def zipf_counts(vocab: int) -> np.ndarray:
    return np.maximum(1, np.rint(2_000_000 / np.arange(1, vocab + 1))).astype(np.int64)


class Analyze(Workload):
    """Post-training analysis of synthetic runs: no training, heavy PIP and I/O."""

    SIZES = {
        "full": dict(vocab=7_000, dim=50, clusters=140, runs=3, words=4, targets=40, change_targets=40),
        "tiny": dict(vocab=300, dim=10, clusters=10, runs=2, words=4, targets=5, change_targets=6),
    }

    def runs(self, mode: str) -> list[Path]:
        return [INPUTS / mode / f"run_{i:03d}.vec" for i in range(self.sizes["runs"])]

    def generate(self, inputs: Path) -> None:
        s = self.sizes
        rng = np.random.default_rng([self.seed, 2])
        v = s["vocab"]
        words = [f"w{i:05d}" for i in range(v)]
        counts = zipf_counts(v)
        base = cluster_space(rng, v, s["dim"], s["clusters"])
        # Rare words move more between runs, as in trained spaces; bootstrapped
        # runs move more than shuffled ones, so extrinsic instability exists.
        noise = 0.15 + 0.35 * np.arange(v) / v
        for mode, factor in (("shuffled", 1.0), ("bootstrapped", 1.25)):
            (inputs / mode).mkdir()
            for path in self.runs(mode):
                write_space(inputs.parent / path, words, noisy_run(rng, base, factor * noise), counts)
        picks = rng.permutation(v // 4)[: s["words"] + s["targets"] + s["change_targets"]]
        chosen = [words[i] for i in picks]
        write_lines(inputs / "words.txt", chosen[: s["words"]])
        write_lines(inputs / "targets.txt", chosen[s["words"] : s["words"] + s["targets"]])
        gold_rows = picks[s["words"] + s["targets"] :]
        grades = np.linspace(0.0, 1.0, len(gold_rows))
        write_space(inputs / "epoch1.vec", words, noisy_run(rng, base, noise), counts)
        moved = planted_change(rng, base, gold_rows, grades)
        write_space(inputs / "epoch2.vec", words, noisy_run(rng, moved, noise), counts)
        gold_words = [words[i] for i in gold_rows]
        write_lines(inputs / "change_targets.txt", gold_words)
        graded, binary = graded_gold(gold_words, [float(g) for g in grades])
        write_lines(inputs / "gold_graded.tsv", graded)
        write_lines(inputs / "gold_binary.tsv", binary)

    def corrupt(self, inputs: Path) -> None:
        # A non-numeric value in one run: every command loading it must fail.
        path = inputs.parent / self.runs("shuffled")[0]
        data = bytearray(path.read_bytes())
        data[data.index(b"\n") + 10] = ord("x")
        path.write_bytes(bytes(data))

    def commands(self):
        s = self.sizes
        shuffled = [str(p) for p in self.runs("shuffled")]
        words = read_words(INPUTS / "words.txt")
        targets = read_words(INPUTS / "targets.txt")
        change_targets = read_words(INPUTS / "change_targets.txt")
        pairs = s["runs"] * (s["runs"] - 1) // 2
        self.values = {}

        def check_instability_(full):
            meta = check_instability(s["runs"], words)
            self.values["intrinsic_pip"] = float(meta["intrinsic"])
            require(int(meta["proxy_size"]) == s["vocab"], "proxy is not the full joint vocabulary")
            if full:
                # One run pair recomputed here by direct Gram difference.
                _, rows = read_report(OUT / "instability.tsv", ("set", "run_a", "run_b", "reduced_pip"))
                reported = float(rows[0]["reduced_pip"])
                expected = direct_reduced_pip(read_vectors(Path(shuffled[0]))[1], read_vectors(Path(shuffled[1]))[1])
                require(abs(reported - expected) <= 1e-9 * expected,
                        f"reduced PIP {reported!r} != direct Gram difference {expected!r}")

        def check_pip(full):
            _, rows = read_report(OUT / "pip.tsv", ("run_a", "run_b", "reduced_pip"), rows=pairs)
            _, inst = read_report(OUT / "instability.tsv", ("set", "run_a", "run_b", "reduced_pip"))
            for row, ref in zip(rows, inst):
                require(row["reduced_pip"] == ref["reduced_pip"], "pip and instability disagree on a pair")
            _, word_rows = read_report(OUT / "pip_words.tsv", ("run_a", "run_b", "word", "wordwise_pip"),
                                       rows=pairs * len(words))
            for row in word_rows:
                unit_float(row["wordwise_pip"], "word-wise PIP")

        def check_change_(full):
            self.values["change_rho"] = check_change(change_targets, rho_floor=0.5)

        yield "instability", ["instability", "--shuffled", "inputs/shuffled", "--bootstrapped", "inputs/bootstrapped",
                              "--runs", "all", "--words", "inputs/words.txt", "--wordwise-out", "out/wordwise.tsv",
                              "--out", "out/instability.tsv"], check_instability_
        yield "pip", ["pip", "--inputs", *shuffled, "--words", "inputs/words.txt", "--wordwise-out", "out/pip_words.tsv",
                      "--out", "out/pip.tsv"], check_pip
        yield "overlap", ["overlap", "--inputs", *shuffled, "--targets", "inputs/targets.txt", "--n", "10",
                          "--out", "out/overlap.tsv"], lambda full: check_overlap(targets, 10, pairs)
        yield "average", ["average", "--inputs", *shuffled, "--out", "out/average.vec"], \
            lambda full: check_average([Path(p) for p in shuffled]) if full else None
        yield "change", ["change", "--t1", "inputs/epoch1.vec", "--t2", "inputs/epoch2.vec",
                         "--targets", "inputs/change_targets.txt", "--gold-binary", "inputs/gold_binary.tsv",
                         "--gold-graded", "inputs/gold_graded.tsv", "--min-count", "2", "--out", "out/change"], check_change_


class Predict(Workload):
    """The Gaussian rank-probability model over planted neighborhoods."""

    SIZES = {
        "full": dict(vocab=5_000, dim=50, runs=5, targets=48, planted=11, candidates=7),
        "tiny": dict(vocab=200, dim=10, runs=3, targets=2, planted=4, candidates=3),
    }

    def runs(self) -> list[Path]:
        return [INPUTS / "runs" / f"run_{i:03d}.vec" for i in range(self.sizes["runs"])]

    def generate(self, inputs: Path) -> None:
        s = self.sizes
        rng = np.random.default_rng([self.seed, 3])
        v, d = s["vocab"], s["dim"]
        words = [f"w{i:05d}" for i in range(v)]
        base = unit_rows(rng.normal(size=(v, d)))
        # Each target gets the same ladder of planted neighbors: mean cosines
        # spread evenly from 0.8 down to 0.5, and noise levels in a fixed
        # order giving pair-cosine standard deviations of about 0.02-0.06.
        # The seed only draws directions and noise, so the rank-probability
        # work per repetition changes little from seed to seed.
        ladder = np.linspace(0.8, 0.5, s["planted"])
        levels = np.linspace(0.07, 0.21, s["planted"])[(np.arange(s["planted"]) * 3) % s["planted"]]
        noise = np.full(v, 0.14)
        rows = rng.permutation(v)
        targets = rows[: s["targets"]]
        noise[targets] = 0.1
        cursor = s["targets"]
        for t in targets:
            for c, level in zip(ladder, levels):
                row = rows[cursor]
                cursor += 1
                away = base[row] - (base[row] @ base[t]) * base[t]
                base[row] = c * base[t] + math.sqrt(1.0 - c * c) * away / np.linalg.norm(away)
                noise[row] = level
        (inputs / "runs").mkdir()
        for path in self.runs():
            write_space(inputs.parent / path, words, noisy_run(rng, base, noise))
        write_lines(inputs / "targets.txt", (words[t] for t in targets))

    def corrupt(self, inputs: Path) -> None:
        path = inputs.parent / self.runs()[-1]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    def commands(self):
        s = self.sizes
        targets = read_words(INPUTS / "targets.txt")
        self.values = {}

        def check(full):
            self.values["p1_abs_err"] = check_predict(targets)

        yield "predict", ["predict", "--inputs", *(str(p) for p in self.runs()), "--targets", "inputs/targets.txt",
                          "--candidates", str(s["candidates"]), "--profiles", "out/profiles",
                          "--out", "out/predict.tsv"], check


WORKLOADS = {"pipeline": Pipeline, "analyze": Analyze, "predict": Predict}
