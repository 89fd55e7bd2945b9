"""The vector cache behind `load_text_vectors`, against its oracle: the text
parser with ``EMBEDSTAB_CACHE=off``.  A load files one record of its words,
rows and sidecar counts; hits are bit-identical to the parse, every cache
fault falls back to parsing, a faulty load files nothing, and CLI outputs
hash the same with the cache off, cold and warm."""

import contextlib
import hashlib
import io
import os
import shutil
import tempfile
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from embedstab import (
    LoadError, load_text_vectors, normalize, save_frequencies, save_text_vectors,
)
from embedstab import space as space_module
from embedstab.cli import main

from helpers import cli_commands, cli_inputs, random_normalized_space

SUFFIX = space_module._CACHE_SUFFIX


@contextmanager
def cache_at(directory):
    """EMBEDSTAB_CACHE set to `directory` ("off" for none) inside the block."""
    with mock.patch.dict(os.environ, {"EMBEDSTAB_CACHE": str(directory)}):
        yield


@contextmanager
def no_parse(scale=True):
    """Inside the block a load that parses a vector file or a sidecar, or
    with `scale` scales rows, fails the test: it must hit."""
    names = ["_parse_text_vectors", "_read_map"] + ["_scaled_rows"] * scale
    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(
                mock.patch.object(space_module, name, side_effect=AssertionError(f"{name} ran"))
            )
        yield


def oracle(path):
    """(words, matrix bytes) of the text parser, the cache off."""
    with cache_at("off"):
        space = load_text_vectors(path)
    return list(space.vocab.words), space.matrix.tobytes()


def loaded(space):
    return list(space.vocab.words), space.matrix.tobytes()


def entries(directory):
    """The records in a cache directory."""
    return sorted(Path(directory).glob(f"*{SUFFIX}"))


def record(directory, path, frequency_path=None, normalized=False):
    """The path of a load's record: the sha256 of the cache version, the
    kind ("unit" or "rows"), the vector file's hex digest and the sidecar's
    ("-" for none)."""
    sha = lambda p: hashlib.sha256(Path(p).read_bytes()).hexdigest()  # noqa: E731
    kind = "unit" if normalized else "rows"
    name = f"{kind} {sha(path)} {'-' if frequency_path is None else sha(frequency_path)}"
    key = hashlib.sha256(space_module._CACHE_VERSION + name.encode("ascii")).hexdigest()
    return Path(directory, key + SUFFIX)


def outcome(path, frequency_path=None, normalized=False):
    """(words, matrix bytes, normalized flag, frequency map) of a load, or
    the message of its error."""
    try:
        space = load_text_vectors(path, frequency_path, normalized=normalized)
    except (LoadError, ValueError, OSError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return list(space.vocab.words), space.matrix.tobytes(), space.normalized, space.vocab.frequency


def write_vectors(path, words, matrix, spec="%.17g"):
    lines = [f"{len(words)} {matrix.shape[1]}\n"]
    lines += [" ".join([w] + [spec % x for x in row]) + "\n" for w, row in zip(words, matrix.tolist())]
    Path(path).write_text("".join(lines), encoding="utf-8")


# Words as text vector files hold them: no whitespace or control characters.
WORD = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=6
).filter(lambda w: len(w.split()) == 1 and w.split()[0] == w)
VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308, 0.1 + 0.2, 1 / 3]),
)


class TestHitsMatchTheParser:
    @settings(max_examples=40)
    @given(
        st.lists(WORD, min_size=0, max_size=9, unique=True),
        st.integers(1, 4),
        st.data(),
    )
    @example(["#", "über", "日本語", "w"], 3, None)
    def test_a_warm_hit_is_bit_identical_to_the_parse(self, words, d, data):
        if data is None:  # the explicit example: every edge value at once
            values = np.array([[-0.0, 5e-324, 1e308], [0.1 + 0.2, -1e308, 1 / 3],
                               [2.5e-310, -5e-324, 1.7976931348623157e308], [1.0, -0.0, 0.0]])
        else:
            values = np.array(
                data.draw(st.lists(st.lists(VALUE, min_size=d, max_size=d),
                                   min_size=len(words), max_size=len(words))),
                dtype=np.float64,
            ).reshape(len(words), d)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "v.vec")
            write_vectors(path, words, values)  # %.17g: every value round-trips
            want = oracle(path)
            with cache_at(Path(tmp, "cache")):
                assert loaded(load_text_vectors(path)) == want  # cold: parsed, stored
                assert entries(Path(tmp, "cache")) == [record(Path(tmp, "cache"), path)]
                with no_parse():
                    assert loaded(load_text_vectors(path)) == want  # warm: a hit
        assert want[0] == words
        assert want[1] == values.tobytes()

    def test_editing_one_byte_misses_and_reads_the_new_values(self, tmp_path):
        path = tmp_path / "v.vec"
        path.write_text("2 2\na 1.5 2\nb 3 4\n", encoding="utf-8")
        with cache_at(tmp_path / "cache"):
            load_text_vectors(path)
            path.write_text("2 2\na 1.5 2\nb 3 5\n", encoding="utf-8")
            space = load_text_vectors(path)
        assert space.matrix.tolist() == [[1.5, 2.0], [3.0, 5.0]]
        assert loaded(space) == oracle(path)
        assert len(entries(tmp_path / "cache")) == 2

    def test_a_file_changed_while_loading_is_filed_under_the_bytes_parsed(self, tmp_path):
        path = tmp_path / "v.vec"
        old, new = "1 2\na 1 2\n", "1 2\na 3 4\n"
        path.write_text(old, encoding="utf-8")
        parse = space_module._parse_text_vectors

        def edit_then_parse(*args):
            path.write_text(new, encoding="utf-8")  # after the bytes were read and hashed
            return parse(*args)

        with cache_at(tmp_path / "cache"):
            with mock.patch.object(space_module, "_parse_text_vectors", edit_then_parse):
                assert load_text_vectors(path).matrix.tolist() == [[1.0, 2.0]]
            assert load_text_vectors(path).matrix.tolist() == [[3.0, 4.0]]
            path.write_text(old, encoding="utf-8")
            with no_parse():
                assert load_text_vectors(path).matrix.tolist() == [[1.0, 2.0]]

    def test_sidecars_are_read_on_every_load(self, tmp_path):
        # An edited sidecar next to an unchanged vector file names another
        # record: the load parses both files, gives the new counts and files
        # the new record; each warm load then hits its own.
        path = tmp_path / "v.vec"
        save_text_vectors(random_normalized_space(3, 2, seed=0), path)
        freq, cache = tmp_path / "v.vec.freq", tmp_path / "cache"
        filed = []
        with cache_at(cache):
            for counts in ({"w0000": 1, "w0001": 2, "w0002": 3}, {"w0000": 7, "w0001": 8, "w0002": 9}):
                save_frequencies(counts, freq)
                for normalized in (False, True):
                    assert load_text_vectors(path, freq, normalized=normalized).vocab.frequency == counts
                    filed.append(record(cache, path, freq, normalized))
                    with no_parse():
                        space = load_text_vectors(path, freq, normalized=normalized)
                    assert space.vocab.frequency == counts and space.normalized == normalized
        assert entries(cache) == sorted(filed)
        assert len(filed) == 4


COUNT = st.one_of(st.integers(1, 2**63 - 1), st.sampled_from([1, 2**53 + 1, 2**63 - 1]))


def write_sidecar(path, counts):
    Path(path).write_text("".join(f"{w}\t{c}\n" for w, c in counts), encoding="utf-8")


def corrupt(entry, fault, words, matrix, counts):
    """Make the record at `entry` faulty: truncated, one bit flipped, empty,
    a header claiming more rows than any file holds ("oversized"), or a
    whole record, checksum and all, with one word too few ("shape") or
    with counts of the wrong length ("length"): one short of a sidecar's,
    or counts where the load gave no sidecar."""
    blob = entry.read_bytes()
    if fault == "truncated":
        entry.write_bytes(blob[: len(blob) // 2])
    elif fault == "flipped":
        entry.write_bytes(blob[:200] + bytes([blob[200] ^ 1]) + blob[201:])
    elif fault == "empty":
        entry.write_bytes(b"")
    elif fault == "oversized":  # read before the checksum: it must not be allocated
        header = io.BytesIO()
        fields = {"descr": "<f8", "fortran_order": False, "shape": (10**15, matrix.shape[1])}
        np.lib.format.write_array_header_1_0(header, fields)
        entry.write_bytes(header.getvalue() + blob[128:])
    elif fault == "shape":
        space_module._cache_store(str(entry), words[:-1], matrix, counts)
    else:
        wrong = [1] * len(words) if counts is None else counts[:-1]
        space_module._cache_store(str(entry), words, matrix, wrong)
    assert entry.read_bytes() != blob


def check_a_bad_record_is_computed_again(tmp_path, fault, normalized, sidecar):
    """A faulty record of a load is computed again, as with the cache off,
    and rewritten byte for byte; the next load hits it."""
    path, freq, cache = tmp_path / "v.vec", tmp_path / "v.vec.freq", tmp_path / "cache"
    save_text_vectors(random_normalized_space(40, 3, seed=7), path)
    save_frequencies({f"w{i:04d}": 5 * i + 1 for i in range(40)}, freq)
    frequency = freq if sidecar else None
    with cache_at("off"):
        want = outcome(path, frequency, normalized)
    with cache_at(cache):
        assert outcome(path, frequency, normalized) == want
    entry = record(cache, path, frequency, normalized)
    assert entries(cache) == [entry]
    blob = entry.read_bytes()
    words, matrix = want[0], np.frombuffer(want[1]).reshape(40, 3)
    counts = None if want[3] is None else [want[3][w] for w in words]
    corrupt(entry, fault, words, matrix, counts)
    with cache_at(cache):
        assert outcome(path, frequency, normalized) == want
        assert entry.read_bytes() == blob  # computed again and rewritten
        with no_parse():
            assert outcome(path, frequency, normalized) == want
    shutil.rmtree(cache)


FAULTS = ["truncated", "flipped", "empty", "oversized", "shape", "length"]


class TestSidecarCounts:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(WORD, min_size=0, max_size=8, unique=True),
        st.data(),
        st.sampled_from([None, 2**63, 10**19]),
        st.booleans(),
    )
    def test_hit_miss_and_off_give_the_same_counts(self, words, data, too_big, normalized):
        # Sidecar lines in any order, words the vector file lacks too; counts
        # up to 2**63 - 1 are filed, a larger one loads and is never filed.
        counts = {w: data.draw(COUNT) for w in words}
        extra = data.draw(st.lists(WORD.filter(lambda w: w not in counts), max_size=2, unique=True))
        lines = data.draw(st.permutations([*counts.items(), *((w, 3) for w in extra)]))
        if too_big is not None and words:
            counts[words[-1]] = too_big
            lines = [(w, too_big if w == words[-1] else c) for w, c in lines]
        with tempfile.TemporaryDirectory() as tmp:
            path, freq, cache = Path(tmp, "v.vec"), Path(tmp, "v.vec.freq"), Path(tmp, "cache")
            write_vectors(path, words, np.ones((len(words), 2)))
            write_sidecar(freq, lines)
            with cache_at("off"):
                off = load_text_vectors(path, freq, normalized=normalized).vocab.frequency
            filed = max(counts.values(), default=1) < 2**63
            with cache_at(cache):
                cold = load_text_vectors(path, freq, normalized=normalized).vocab.frequency
                assert entries(cache) == [record(cache, path, freq, normalized)] * filed
                with no_parse() if filed else contextlib.nullcontext():
                    warm = load_text_vectors(path, freq, normalized=normalized).vocab.frequency
                assert len(entries(cache)) == filed  # a count past int64: parsed every load
        assert off == cold == warm == counts
        assert all(type(c) is int for c in warm.values())

    @pytest.mark.parametrize("fault", FAULTS)
    def test_a_bad_record_is_parsed_again_and_rewritten(self, tmp_path, fault):
        check_a_bad_record_is_computed_again(tmp_path, fault, normalized=False, sidecar=True)

    def test_a_sidecar_that_lacks_a_word_raises_cold_and_warm(self, tmp_path):
        path, freq, cache = tmp_path / "v.vec", tmp_path / "v.vec.freq", tmp_path / "cache"
        save_text_vectors(random_normalized_space(4, 2, seed=8), path)
        save_frequencies({"w0000": 1, "w0001": 2, "w0003": 4}, freq)
        want = f"LoadError: {freq}: no count for 'w0002'"
        for normalized in (False, True):
            for directory in ("off", cache, cache):
                with cache_at(directory):
                    assert outcome(path, freq, normalized) == want
        assert entries(cache) == []

    def test_a_malformed_sidecar_is_never_filed(self, tmp_path):
        path, freq, cache = tmp_path / "v.vec", tmp_path / "v.vec.freq", tmp_path / "cache"
        save_text_vectors(random_normalized_space(2, 2, seed=9), path)
        freq.write_text("w0000\t1\nw0001\t0\n", encoding="utf-8")
        want = f"LoadError: {freq}:2: count must be >= 1, got 0"
        for normalized in (False, True):
            for directory in ("off", cache, cache):
                with cache_at(directory):
                    assert outcome(path, freq, normalized) == want
        assert entries(cache) == []


# Rows as they come, or all zeros (signed too): a zero row is an error.
ROW = st.one_of(
    st.lists(VALUE, min_size=4, max_size=4),
    st.lists(st.sampled_from([0.0, -0.0]), min_size=4, max_size=4),
)


class TestUnitRecords:
    """A normalized load against its oracle: `normalize` of a raw load with
    the cache off."""

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.lists(WORD, min_size=0, max_size=8, unique=True),
        st.integers(1, 4),
        st.data(),
        st.booleans(),
    )
    def test_off_cold_and_warm_give_normalize_of_the_parse(self, words, d, data, sidecar):
        # Values past 1e154 or below 1e-154 square out of range: such a row
        # loads as a zero row or fails the unit check, the same way each time.
        values = np.array(
            [data.draw(ROW)[:d] for _ in words], dtype=np.float64
        ).reshape(len(words), d)
        with tempfile.TemporaryDirectory() as tmp:
            path, freq, cache = Path(tmp, "v.vec"), Path(tmp, "v.vec.freq"), Path(tmp, "cache")
            write_vectors(path, words, values)
            write_sidecar(freq, [(w, i + 1) for i, w in enumerate(words)])
            frequency = freq if sidecar else None
            with cache_at("off"):
                try:
                    space = normalize(load_text_vectors(path, frequency))
                    want = (list(space.vocab.words), space.matrix.tobytes(), True,
                            space.vocab.frequency)
                except (LoadError, ValueError) as exc:
                    want = f"{type(exc).__name__}: {exc}"
                off = outcome(path, frequency, normalized=True)
            with cache_at(cache):
                cold = outcome(path, frequency, normalized=True)
                filed = record(cache, path, frequency, normalized=True).exists()
                assert len(entries(cache)) == filed  # the one record of the load
                with no_parse() if filed else contextlib.nullcontext():
                    warm = outcome(path, frequency, normalized=True)
        assert off == cold == warm == want
        assert filed == (not isinstance(want, str))

    def test_a_zero_row_raises_the_same_error_and_files_nothing(self, tmp_path, capsys):
        path, freq, cache = tmp_path / "z.vec", tmp_path / "z.vec.freq", tmp_path / "cache"
        path.write_text("3 2\na 1 2\nb 0 -0\nc 3 4\n", encoding="utf-8")
        write_sidecar(freq, [("a", 1), ("b", 2), ("c", 3)])
        want = "ValueError: zero vector for 'b'"
        for frequency in (None, freq):
            with cache_at("off"):
                assert isinstance(outcome(path, frequency), tuple)  # loads raw
            for directory in ("off", cache, cache):
                with cache_at(directory):
                    assert outcome(path, frequency, normalized=True) == want
        assert entries(cache) == []
        freq.unlink()
        other, targets = tmp_path / "o.vec", tmp_path / "targets.txt"
        other.write_text("3 2\na 1 2\nb 1 0\nc 3 4\n", encoding="utf-8")
        targets.write_text("a\n", encoding="utf-8")
        command = ["overlap", "--inputs", str(other), str(path), "--targets", str(targets),
                   "--n", "1", "--out", str(tmp_path / "overlap.tsv")]
        with cache_at(cache):
            assert main(command) == 3
        assert capsys.readouterr().err == f"embedstab: data error: {want[12:]}\n"
        assert entries(cache) == [record(cache, other, normalized=True)]
        assert not (tmp_path / "overlap.tsv").exists()

    @pytest.mark.parametrize("fault", FAULTS)
    def test_a_bad_unit_record_is_computed_again_and_rewritten(self, tmp_path, fault):
        for sidecar in (False, True):
            check_a_bad_record_is_computed_again(tmp_path, fault, normalized=True, sidecar=sidecar)

    def test_a_raw_and_a_normalized_load_file_one_record_each(self, tmp_path):
        # Each kind of load parses the file once and then hits its own record.
        path, freq, cache = tmp_path / "v.vec", tmp_path / "v.vec.freq", tmp_path / "cache"
        save_text_vectors(random_normalized_space(30, 4, seed=12), path)
        save_frequencies({f"w{i:04d}": i + 1 for i in range(30)}, freq)
        with cache_at("off"):
            want = {n: outcome(path, freq, n) for n in (False, True)}
        parse = space_module._parse_text_vectors
        with cache_at(cache), mock.patch.object(
            space_module, "_parse_text_vectors", side_effect=parse
        ) as parses:
            for _ in range(3):
                for normalized in (False, True):
                    assert outcome(path, freq, normalized) == want[normalized]
        assert parses.call_count == 2
        assert entries(cache) == sorted(record(cache, path, freq, n) for n in (False, True))

    def test_unit_records_count_toward_the_bound_and_are_evicted(self, tmp_path, monkeypatch):
        check_least_recently_used_records_go_first(tmp_path, monkeypatch, normalized=True)


class TestFaultOrder:
    """A load that misses reports vector-file faults first, then sidecar
    faults, then a zero row; both files are read before either is parsed."""

    def test_vector_faults_then_sidecar_faults_then_a_zero_row(self, tmp_path):
        zero, bad, repeat = tmp_path / "zero.vec", tmp_path / "bad.vec", tmp_path / "repeat.vec"
        zero.write_text("2 2\na 1 2\nb 0 0\n", encoding="utf-8")
        bad.write_text("2 2\na 1 2\nb 3 x\n", encoding="utf-8")
        repeat.write_text("2 2\na 1 2\na 0 0\n", encoding="utf-8")
        ok, lacking, malformed = (tmp_path / f"{name}.freq" for name in ("ok", "lacking", "malformed"))
        write_sidecar(ok, [("a", 1), ("b", 2)])
        write_sidecar(lacking, [("a", 1)])
        malformed.write_text("a\t1\nb\t0\n", encoding="utf-8")
        cases = [
            (bad, malformed, f"LoadError: {bad}:3: non-numeric value"),
            (bad, lacking, f"LoadError: {bad}:3: non-numeric value"),
            (repeat, malformed, f"LoadError: {repeat}:3: duplicate word 'a'"),
            (zero, malformed, f"LoadError: {malformed}:2: count must be >= 1, got 0"),
            (zero, lacking, f"LoadError: {lacking}: no count for 'b'"),
            (zero, ok, "ValueError: zero vector for 'b'"),
        ]
        for directory in ("off", tmp_path / "cache", tmp_path / "cache"):
            with cache_at(directory):
                for path, freq, want in cases:
                    assert outcome(path, freq, normalized=True) == want, (path, freq)
        assert entries(tmp_path / "cache") == []

    def test_a_missing_sidecar_is_reported_before_a_malformed_vector_file(self, tmp_path):
        # A library call may name a sidecar that does not exist (the CLI
        # passes one only when it does): its OSError comes first.
        bad, missing = tmp_path / "bad.vec", tmp_path / "missing.freq"
        bad.write_text("1 2\na 1 x\n", encoding="utf-8")
        for directory in ("off", tmp_path / "cache"):
            with cache_at(directory):
                for normalized in (False, True):
                    with pytest.raises(FileNotFoundError):
                        load_text_vectors(bad, missing, normalized=normalized)
                    with pytest.raises(LoadError, match="non-numeric value"):
                        load_text_vectors(bad, normalized=normalized)
        assert entries(tmp_path / "cache") == []


class TestFaultsFallBackToParsing:
    @pytest.mark.parametrize("fault", FAULTS)
    def test_a_bad_entry_is_parsed_again_and_rewritten(self, tmp_path, fault):
        check_a_bad_record_is_computed_again(tmp_path, fault, normalized=False, sidecar=False)

    def test_a_malformed_file_is_never_cached(self, tmp_path):
        path, freq = tmp_path / "bad.vec", tmp_path / "bad.vec.freq"
        path.write_text("3 2\na 1 2\nb 1 x\nc 1 2\n", encoding="utf-8")
        write_sidecar(freq, [("a", 1), ("b", 2), ("c", 3)])
        cache = tmp_path / "cache"
        for frequency in (None, freq):
            for normalized in (False, True):
                for directory in ("off", cache, cache):
                    with cache_at(directory):
                        assert outcome(path, frequency, normalized) == (
                            f"LoadError: {path}:3: non-numeric value"
                        )
        assert list(cache.iterdir()) == []

    def test_a_directory_that_cannot_be_made_means_no_caching(self, tmp_path):
        path = tmp_path / "v.vec"
        save_text_vectors(random_normalized_space(5, 2, seed=2), path)
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        for directory in (blocker, blocker / "cache"):
            with cache_at(directory):
                assert loaded(load_text_vectors(path)) == oracle(path)
        assert blocker.read_text() == "not a directory"

    def test_an_unwritable_directory_still_loads(self, tmp_path, monkeypatch):
        # Permission bits do not stop every user (root), so the write fails here.
        path, freq = tmp_path / "v.vec", tmp_path / "v.vec.freq"
        save_text_vectors(random_normalized_space(5, 2, seed=3), path)
        save_frequencies({f"w{i:04d}": i + 1 for i in range(5)}, freq)
        with cache_at("off"):
            want = {n: outcome(path, freq, n) for n in (False, True)}
        cache = tmp_path / "cache"

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(space_module.os, "replace", refuse)
        with cache_at(cache):
            for _ in range(2):
                assert loaded(load_text_vectors(path)) == oracle(path)
                for normalized in (False, True):
                    assert outcome(path, freq, normalized) == want[normalized]
        assert list(cache.iterdir()) == []  # no record and no temporary file left

    def test_off_creates_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "v.vec"
        save_text_vectors(random_normalized_space(5, 2, seed=4), path)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        save_frequencies({f"w{i:04d}": i + 1 for i in range(5)}, tmp_path / "v.vec.freq")
        before = sorted(tmp_path.rglob("*"))
        with cache_at("off"):
            load_text_vectors(path)
            load_text_vectors(path, normalized=True)
            load_text_vectors(path, tmp_path / "v.vec.freq")
            load_text_vectors(path, tmp_path / "v.vec.freq", normalized=True)
        assert sorted(tmp_path.rglob("*")) == before

    def test_default_directories(self, tmp_path, monkeypatch):
        path = tmp_path / "v.vec"
        save_text_vectors(random_normalized_space(5, 2, seed=5), path)
        monkeypatch.delenv("EMBEDSTAB_CACHE")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        load_text_vectors(path)
        assert len(entries(tmp_path / "xdg" / "embedstab")) == 1
        assert (tmp_path / "xdg" / "embedstab").stat().st_mode & 0o777 == 0o700
        monkeypatch.delenv("XDG_CACHE_HOME")
        load_text_vectors(path)
        assert len(entries(tmp_path / "home" / ".cache" / "embedstab")) == 1


def check_least_recently_used_records_go_first(tmp_path, monkeypatch, normalized, sidecar=False):
    """Three loads' records under a bound that holds two and a half: a hit
    makes the older record the most recently used, so the other one goes.
    Files that are not records are neither counted nor removed."""
    cache, loads = tmp_path / "cache", []
    for seed in range(3):
        path, freq = tmp_path / f"v{seed}.vec", tmp_path / f"v{seed}.vec.freq"
        save_text_vectors(random_normalized_space(50, 4, seed=seed), path)
        save_frequencies({f"w{i:04d}": i + seed + 1 for i in range(50)}, freq)
        loads.append((path, freq if sidecar else None))
    with cache_at(cache):
        for load in loads[:2]:
            load_text_vectors(*load, normalized=normalized)
        records = [record(cache, *load, normalized) for load in loads]
        size = records[0].stat().st_size
        # Both records last used long ago, the first one first ...
        os.utime(records[0], (1_000_000, 1_000_000))
        os.utime(records[1], (2_000_000, 2_000_000))
        # ... then a hit makes the first the most recently used.
        with no_parse():
            load_text_vectors(*loads[0], normalized=normalized)
        foreign = cache / "notes.txt"
        foreign.write_bytes(b"x" * (10 * size))
        monkeypatch.setattr(space_module, "_CACHE_MAX_BYTES", 2 * size + size // 2)
        load_text_vectors(*loads[2], normalized=normalized)
    assert entries(cache) == sorted([records[0], records[2]])
    assert foreign.exists()


class TestEviction:
    def test_least_recently_used_entries_go_first(self, tmp_path, monkeypatch):
        check_least_recently_used_records_go_first(tmp_path, monkeypatch, normalized=False)

    def test_records_count_toward_the_bound_and_are_evicted(self, tmp_path, monkeypatch):
        # Records that hold counts: their counts count toward the bound too.
        for normalized in (False, True):
            root = tmp_path / f"normalized={normalized}"
            root.mkdir()
            check_least_recently_used_records_go_first(root, monkeypatch, normalized, sidecar=True)

    def test_an_entry_larger_than_the_bound_is_not_kept(self, tmp_path, monkeypatch):
        path = tmp_path / "v.vec"
        save_text_vectors(random_normalized_space(20, 3, seed=6), path)
        monkeypatch.setattr(space_module, "_CACHE_MAX_BYTES", 100)
        with cache_at(tmp_path / "cache"):
            assert loaded(load_text_vectors(path)) == oracle(path)
        assert entries(tmp_path / "cache") == []


def run_all(root, inputs, out):
    """sha256 of every file the commands write, by path under `out`."""
    out.mkdir()
    for command in cli_commands(root, inputs, out):
        assert main([str(a) for a in command]) == 0, command[0]
    hashes = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    shutil.rmtree(out)
    return hashes


class TestCommandOutputs:
    def test_outputs_are_byte_identical_with_the_cache_off_cold_and_warm(self, tmp_path, capsys):
        inputs = cli_inputs(tmp_path / "in")
        out, cache = tmp_path / "out", tmp_path / "cache"
        with cache_at("off"):
            off = run_all(tmp_path / "in", inputs, out)
        with cache_at(cache):
            cold = run_all(tmp_path / "in", inputs, out)
            assert len(entries(cache)) == 5  # one record per run file and its sidecar
            with no_parse(scale=False):  # `average` renormalizes its result
                warm = run_all(tmp_path / "in", inputs, out)
        assert sorted(off) == [
            "average.vec", "average.vec.freq", "average.vec.manifest.json",
            "change/answers-binary.tsv", "change/answers-graded.tsv", "change/report.tsv",
            "instability.tsv", "overlap.tsv", "pip.tsv", "predict.tsv",
            "profiles/profile_000_w0001.tsv", "profiles/profile_001_w0007.tsv",
            "profiles/profile_002_w0020.tsv", "wordwise.tsv",
        ]
        assert cold == off
        assert warm == off

        # A run file whose clean bytes are cached, now corrupt: the same error.
        lines = inputs[1].read_text(encoding="utf-8").split("\n")
        lines[4] = lines[4].split()[0] + " 1 2"
        inputs[1].write_text("\n".join(lines), encoding="utf-8")
        command = [str(a) for a in cli_commands(tmp_path / "in", inputs, out)[1]]
        errors = []
        for directory in (cache, "off"):
            with cache_at(directory):
                assert main(command) == 3
            errors.append(capsys.readouterr().err)
        want = f"embedstab: data error: {inputs[1]}:5: expected 6 values for 'w0003', got 2\n"
        assert errors == [want, want]
        assert len(entries(cache)) == 5
