"""Each input is read, hashed and mapped once.  Sidecar counts, parsed or
read from the cache, the vocabulary index, row positions and the joint
vocabulary agree with their loop oracles, faults and messages included.
Each CLI command reads every input path once, its reports and manifests name
the digests of the bytes it parsed for every file it read, and the record of
those digests ends with the command."""

import collections
import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from embedstab import (
    EmbeddingSpace, LoadError, Vocabulary, joint_vocabulary, load_frequencies, load_text_vectors,
    save_frequencies,
)
from embedstab import space as space_module
from embedstab.cli import main
from embedstab.space import _positions, _read_map

from helpers import cli_commands, cli_inputs


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def outcome(function, *args):
    """What `function` returns, or the message of the LoadError, ValueError
    or KeyError it raises."""
    try:
        return function(*args)
    except (LoadError, ValueError, KeyError) as exc:
        return f"{type(exc).__name__}: {exc}"


def walk_sidecar(path):
    """The line walker's count map of a sidecar: the oracle."""
    return _read_map(path, "count", int, ">= 1", 1)


# Sidecar text built to hit every fault and every case the walker treats
# specially: few distinct words (repeats), whitespace in words, blank and
# whitespace-only lines, bad counts, a missing or extra tab, all line ends.
SIDE_WORD = st.text(st.sampled_from("ab é\x0b"), max_size=2)
COUNT = st.one_of(
    st.integers(1, 10**6).map(str),
    st.sampled_from(["0", "-1", "x", "1_0", " 5", "", "+3", "٣", "2.0"]),
)
LINE = st.one_of(
    st.builds(lambda word, count: f"{word}\t{count}", SIDE_WORD, COUNT),
    st.sampled_from(["", " ", "a", "a\t1\t2"]),
)
END = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", ""])
# Words as vocabularies hold them: no whitespace or control characters.
WORD = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=6
)


def frequency_loads(path, frequency_path):
    """The frequency map of `load_text_vectors` with the cache off, cold and
    warm, each its value or the message of its error; after a cold load that
    gives a map, the warm one must not parse the sidecar."""
    with tempfile.TemporaryDirectory() as cache:
        loads = []
        for directory in ("off", cache, cache):
            with mock.patch.dict(os.environ, {"EMBEDSTAB_CACHE": directory}):
                if len(loads) == 2 and isinstance(loads[1], dict):
                    walker = mock.patch.object(space_module, "_read_map", side_effect=AssertionError)
                else:
                    walker = contextlib.nullcontext()
                with walker:
                    loads.append(outcome(lambda: load_text_vectors(path, frequency_path).vocab.frequency))
        return loads


class TestSidecars:
    @given(
        st.lists(st.tuples(LINE, END), max_size=8),
        st.one_of(st.none(), st.integers(0, 40)),
        st.booleans(),
    )
    @example([("a\t1", "\r\n"), ("b\t2", "\r\n")], None, False)  # CRLF
    @example([("a\t1", "\r"), ("b\t2", "\n")], None, False)  # a lone CR
    @example([("a\t1", "\n"), ("", "\n"), ("b\t2", "\n")], None, False)  # a blank line
    @example([("a\t1", "\n"), (" ", "\n")], None, False)  # a whitespace-only line
    @example([("a\t1", "\n"), ("a\t2", "\n")], None, False)  # a repeated word
    @example([("a\t0", "\n")], None, False)
    @example([("a\t-1", "\n")], None, False)
    @example([("a\tx", "\n")], None, False)
    @example([("a\t1_0", "\n")], None, False)  # int() reads it, so every load gives 10
    @example([("a\t 5", "\n")], None, False)  # int() reads it, so every load gives 5
    @example([("a", "\n"), ("b\t1\t2", "\n")], None, False)  # a missing tab, then an extra one
    @example([], None, False)  # an empty file
    @example([("a\t1", "\n"), ("b\t2", "\n")], 4, False)  # non-UTF-8 bytes
    @example([("a\t1", "\n"), ("b\t2", "\n")], None, True)  # a word the sidecar lacks
    def test_same_map_or_same_error_as_the_line_walker(self, lines, bad_byte_at, lacking):
        # A sidecar loaded alone or with a vector file of its words (and
        # perhaps one more), with the cache off, cold or warm: the walker's
        # map or its error, or the error naming the word it lacks.
        data = "".join(line + end for line, end in lines).encode("utf-8")
        if bad_byte_at is not None:
            at = min(bad_byte_at, len(data))
            data = data[:at] + b"\xff" + data[at:]
        with tempfile.TemporaryDirectory() as tmp:
            path, vectors = Path(tmp, "v.vec.freq"), Path(tmp, "v.vec")
            path.write_bytes(data)
            want = outcome(walk_sidecar, path)
            assert outcome(load_frequencies, path) == want
            words = sorted(w for w in want if w.split() == [w]) if isinstance(want, dict) else ["a"]
            if lacking:
                words.append("zz")
            vectors.write_text(f"{len(words)} 1\n" + "".join(f"{w} 1\n" for w in words), encoding="utf-8")
            if not isinstance(want, dict):
                with_words = want
            elif lacking:
                with_words = f"LoadError: {path}: no count for 'zz'"
            else:
                with_words = {w: want[w] for w in words}
            assert frequency_loads(vectors, path) == [with_words] * 3

    @given(st.dictionaries(WORD.filter(lambda w: w.split() == [w]), st.integers(1, 10**18), max_size=12))
    @example({"bank": 1, "naïve": 7, "漢字": 10**18})
    def test_a_saved_sidecar_loads_back_cold_and_warm(self, counts):
        with tempfile.TemporaryDirectory() as tmp:
            path, vectors = Path(tmp, "v.vec.freq"), Path(tmp, "v.vec")
            save_frequencies(counts, path)
            assert walk_sidecar(path) == counts
            assert load_frequencies(path) == counts
            vectors.write_text(f"{len(counts)} 1\n" + "".join(f"{w} 1\n" for w in counts), encoding="utf-8")
            assert frequency_loads(vectors, path) == [counts] * 3


def vocabulary_oracle(words, frequency):
    """The index the per-word loop built, or its ValueError."""
    index = {}
    for pos, word in enumerate(words):
        if word in index:
            raise ValueError(f"duplicate word {word!r}")
        index[word] = pos
    if frequency is not None:
        for word in words:
            count = frequency.get(word)
            if count is None:
                raise ValueError(f"no frequency entry for {word!r}")
            if count < 1:
                raise ValueError(f"frequency of {word!r} must be >= 1, got {count}")
    return index


def positions_oracle(vocab, words):
    return [vocab.position(w) for w in words]


def joint_oracle(spaces):
    common = set.intersection(*(set(space.vocab.words) for space in spaces))
    words = tuple(w for w in spaces[0].vocab.words if w in common)
    if not words:
        raise ValueError("spaces share no common words")
    return words


def space_of(words):
    return EmbeddingSpace(Vocabulary(tuple(words)), np.ones((len(words), 2)))


LETTERS = "abcdefg"


class TestWordMaps:
    @given(
        st.lists(st.sampled_from(LETTERS), max_size=6),
        st.one_of(st.none(), st.dictionaries(st.sampled_from(LETTERS), st.integers(-1, 3))),
    )
    @example(["a", "b", "a"], None)
    @example(["a", "b"], {"a": 1})
    @example(["a", "b"], {"a": 1, "b": 0})
    @example(["a", "b", "b"], {"a": 0})  # the duplicate is named first
    def test_vocabulary_matches_the_per_word_loop(self, words, frequency):
        want = outcome(vocabulary_oracle, words, frequency)
        got = outcome(lambda: Vocabulary(tuple(words), frequency).index)
        assert got == want

    @given(
        st.lists(st.sampled_from(LETTERS), unique=True, max_size=6),
        st.lists(st.sampled_from(LETTERS), max_size=6),
    )
    @example(["a", "b"], ["b", "z", "a"])
    def test_positions_match_the_lookup_loop(self, vocab_words, words):
        vocab = Vocabulary(tuple(vocab_words))
        # Other words, the vocabulary's words as an equal tuple, and its own tuple.
        for query in (words, tuple(vocab_words), vocab.words):
            want = outcome(positions_oracle, vocab, query)
            got = outcome(lambda: _positions(vocab, query).tolist())
            assert got == want
        assert _positions(vocab, vocab.words).dtype == np.intp

    @given(st.lists(st.sampled_from(LETTERS), unique=True, max_size=7), st.data())
    def test_joint_vocabulary_matches_the_set_intersection(self, first, data):
        others = []
        for kind in data.draw(st.lists(st.sampled_from(["equal", "permuted", "subset"]), max_size=3)):
            if kind == "equal":
                others.append(first)
            elif kind == "permuted":
                others.append(data.draw(st.permutations(first)))
            else:
                others.append(data.draw(st.lists(st.sampled_from(first or ["z"]), unique=True)))
        spaces = [space_of(words) for words in [first, *others]]
        want = outcome(joint_oracle, spaces)
        assert outcome(lambda: joint_vocabulary(spaces).words) == want


def input_digests(report):
    """The sha256 digests a report's `# input ...: sha256:<hex>` lines name."""
    lines = Path(report).read_text(encoding="utf-8").splitlines()
    return [line.rpartition("sha256:")[2] for line in lines if line.startswith("# input ")]


@pytest.fixture
def counted_reads(monkeypatch):
    """Counts of `_read_input` calls, by absolute path."""
    reads = collections.Counter()
    read = space_module._read_input

    def counting(path):
        reads[os.path.abspath(path)] += 1
        return read(path)

    monkeypatch.setattr(space_module, "_read_input", counting)
    return reads


def manifest_digests(path):
    """The digests a manifest names for files read (its inputs and corpus)
    and for files written (its runs and output), sidecars included."""
    manifest = json.loads(Path(path).read_text(encoding="utf-8"))
    config = manifest["config"]

    def of(entries):
        return [e[key] for e in entries for key in ("sha256", "frequency_sha256") if key in e]

    read = of(config.get("inputs", [])) + ([config["corpus_sha256"]] if "corpus_sha256" in config else [])
    return read, of(manifest.get("runs", []) + [manifest.get("output", {})])


TINY_TRAINER = ("--dim", 4, "--window", 2, "--neg", 2, "--epochs", 1, "--sample", 1.0, "--min-count", 1)


def every_command(root, inputs, out):
    """A run of each of the eleven commands over the `cli_inputs` files, by
    label, in an order where `report` finds a report to copy."""
    targets = root / "targets.txt"
    corpus, questions, epochs = root / "corpus.txt", root / "questions.txt", root / "epochs"
    corpus.write_text("".join(f"w{i % 7} w{i % 5} w{i % 3} w{i % 4}\n" for i in range(20)), encoding="utf-8")
    questions.write_text("w0001 w0002 w0003 w0004\nw0005 w0006 w0007 w0009\n", encoding="utf-8")
    epochs.mkdir()
    for e in range(2):
        (epochs / f"epoch{e}.txt").write_text(
            "".join(f"t{(i + e) % 6} t{i % 4} t{i % 5}\n" for i in range(30)), encoding="utf-8"
        )
    gold_binary, gold_graded = root / "gold_binary.tsv", root / "gold_graded.tsv"
    gold_binary.write_text("w0001\t1\nw0007\t0\nw0020\t1\n", encoding="utf-8")
    gold_graded.write_text("w0001\t0.9\nw0007\t0.1\nw0020\t0.5\n", encoding="utf-8")
    commands = {c[0]: c for c in cli_commands(root, inputs, out)}
    return {
        "train": ("train", "--corpus", corpus, *TINY_TRAINER, "--runs", 2, "--out-dir", out / "train"),
        "sample": ("sample", "--corpus", corpus, "--mode", "bootstrapped", "--out", out / "sampled.txt"),
        "instability --words": commands["instability"],
        "pip": commands["pip"],
        "pip --words": ("pip", "--inputs", *inputs, "--proxy-size", 40, "--words", targets,
                        "--wordwise-out", out / "pip_words.tsv", "--out", out / "pip_listed.tsv"),
        "overlap": commands["overlap"],
        "average": commands["average"],
        "change": (*commands["change"], "--gold-binary", gold_binary, "--gold-graded", gold_graded),
        "predict": commands["predict"],
        "analogy": ("analogy", "--input", inputs[0], "--analogies", questions, "--out", out / "analogy.tsv"),
        "conformity": ("conformity", "--epochs", epochs, "--runs", 1, "--avg", 1, "--min-count", 1,
                       "--train-dim", 4, "--train-window", 2, "--train-neg", 2, "--train-epochs", 1,
                       "--train-sample", 1.0, "--train-min-count", 1, "--out", out / "conformity.tsv"),
        "report": ("report", "--in", out / "overlap.tsv", "--format", "tsv", "--out", out / "report.tsv"),
    }


class TestEachInputIsReadOnce:
    def test_one_read_per_input_and_digests_of_the_bytes_read(self, tmp_path, counted_reads):
        # Each command reads each file once, and its reports and manifests
        # name by digest exactly the files it read: every vector file,
        # sidecar, corpus, word list and gold file.  Manifest digests of
        # the runs and outputs written are those of the bytes on disk.
        root, out = tmp_path / "in", tmp_path / "out"
        inputs = cli_inputs(root)
        out.mkdir()
        commands = every_command(root, inputs, out)
        assert len({command[0] for command in commands.values()}) == 11
        written, unlisted = set(), {}
        for label, command in commands.items():
            counted_reads.clear()
            assert main([str(a) for a in command]) == 0, label
            assert space_module._input_digests is None
            assert counted_reads and set(counted_reads.values()) == {1}, (label, counted_reads)
            read = {sha256_of(path) for path in counted_reads}
            new = sorted(p for p in out.rglob("*") if p.is_file() and p not in written)
            written.update(new)
            if label == "report":
                # TSV to TSV copies the source's header, so it lists no input.
                assert [p.name for p in new] == ["report.tsv"]
                assert new[0].read_bytes() == (out / "overlap.tsv").read_bytes()
                continue
            listed = [d for p in new if p.suffix == ".tsv" for d in input_digests(p)]
            outputs = []
            for manifest in (p for p in new if p.name.endswith("manifest.json")):
                names_read, names_written = manifest_digests(manifest)
                listed += names_read
                outputs += names_written
            assert listed and set(listed) <= read, label
            assert set(outputs) <= {sha256_of(p) for p in new}, label
            missing = sorted(Path(p).name for p in counted_reads if sha256_of(p) not in listed)
            if missing:
                unlisted[label] = missing
        assert unlisted == {}
        assert {p.name for p in written} >= {"evaluation.tsv", "average.vec.manifest.json"}

    def test_the_record_ends_with_every_exit(self, tmp_path):
        root = tmp_path / "in"
        inputs = [str(p) for p in cli_inputs(root)]
        bad = tmp_path / "bad.vec"
        bad.write_text("1 2\nw0000 1 x\n", encoding="utf-8")
        out = str(tmp_path / "pip.tsv")
        assert main(["pip", "--inputs", inputs[0], str(bad), "--out", out]) == 3
        assert space_module._input_digests is None
        usage = ["pip", "--inputs", *inputs, "--words", str(root / "targets.txt"), "--out", out]
        assert main(usage) == 2
        assert space_module._input_digests is None
        with pytest.raises(SystemExit):
            main(["pip", "--no-such-flag"])
        assert space_module._input_digests is None

    def test_a_report_names_the_bytes_parsed_not_the_file_after(self, tmp_path, monkeypatch):
        inputs = cli_inputs(tmp_path / "in")
        parsed = inputs[0].read_bytes()
        read = space_module._read_input

        def read_then_edit(path):
            result = read(path)
            if Path(path) == inputs[0]:
                inputs[0].write_bytes(parsed + b"\n")  # edited after the read
            return result

        monkeypatch.setattr(space_module, "_read_input", read_then_edit)
        out = tmp_path / "pip.tsv"
        assert main(["pip", "--inputs", *map(str, inputs), "--proxy-size", "40", "--out", str(out)]) == 0
        assert input_digests(out)[0] == hashlib.sha256(parsed).hexdigest() != sha256_of(inputs[0])

    def test_writing_over_an_input_names_the_bytes_read_and_the_bytes_written(self, tmp_path):
        inputs = cli_inputs(tmp_path / "in")
        target, freq = inputs[0], Path(f"{inputs[0]}.freq")
        vec_before, freq_before = sha256_of(target), sha256_of(freq)
        assert main(["average", "--inputs", *map(str, inputs), "--out", str(target)]) == 0
        manifest = json.loads(Path(f"{target}.manifest.json").read_text(encoding="utf-8"))
        entry = manifest["config"]["inputs"][0]
        assert (entry["sha256"], entry["frequency_sha256"]) == (vec_before, freq_before)
        assert manifest["output"]["sha256"] == sha256_of(target) != vec_before

        corpus = tmp_path / "corpus.txt"
        corpus.write_text("".join(f"line {i} of the corpus\n" for i in range(20)), encoding="utf-8")
        before = sha256_of(corpus)
        assert main(["sample", "--corpus", str(corpus), "--mode", "shuffled", "--out", str(corpus)]) == 0
        manifest = json.loads(Path(f"{corpus}.manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"]["corpus_sha256"] == before
        assert manifest["output"]["sha256"] == sha256_of(corpus) != before
