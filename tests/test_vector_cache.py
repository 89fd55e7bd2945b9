"""The vector cache behind `load_text_vectors`, against its oracle: the text
parser with ``EMBEDSTAB_CACHE=off``.  Hits are bit-identical to it, and so
are the sidecar counts filed next to them; every cache fault falls back to
parsing, malformed files are never cached, and CLI outputs hash the same
with the cache off, cold and warm."""

import contextlib
import hashlib
import os
import shutil
import tempfile
import zlib
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from embedstab import (
    LoadError, load_text_vectors, save_frequencies, save_text_vectors,
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
def no_parse(sidecars=True):
    """Inside the block a load that parses a vector file, or with `sidecars`
    a sidecar, fails the test: it must hit."""
    with contextlib.ExitStack() as stack:
        for name in ("_parse_text_vectors", "_read_map")[: 1 + sidecars]:
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
    """The vector entries and counts records in a cache directory."""
    return sorted(Path(directory).glob(f"*{SUFFIX}"))


def record(directory, path, frequency_path):
    """The path of the counts record for a vector file and its sidecar: the
    sha256 of the cache version, "counts " and the two hex digests."""
    vec, freq = (hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in (path, frequency_path))
    name = f"counts {vec} {freq}".encode("ascii")
    return Path(directory, hashlib.sha256(space_module._CACHE_VERSION + name).hexdigest() + SUFFIX)


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
                assert len(entries(Path(tmp, "cache"))) == 1
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
        # An edited sidecar next to an unchanged vector file: the vector
        # entry hits, and the new counts are parsed and filed.
        path = tmp_path / "v.vec"
        save_text_vectors(random_normalized_space(3, 2, seed=0), path)
        freq = tmp_path / "v.vec.freq"
        with cache_at(tmp_path / "cache"):
            for i, counts in enumerate(({"w0000": 1, "w0001": 2, "w0002": 3},
                                        {"w0000": 7, "w0001": 8, "w0002": 9})):
                save_frequencies(counts, freq)
                with no_parse(sidecars=False) if i else contextlib.nullcontext():
                    assert load_text_vectors(path, freq).vocab.frequency == counts
                assert record(tmp_path / "cache", path, freq).exists()
                with no_parse():
                    assert load_text_vectors(path, freq).vocab.frequency == counts
        assert len(entries(tmp_path / "cache")) == 3  # one vector entry, two records


COUNT = st.one_of(st.integers(1, 2**63 - 1), st.sampled_from([1, 2**53 + 1, 2**63 - 1]))


def write_sidecar(path, counts):
    Path(path).write_text("".join(f"{w}\t{c}\n" for w, c in counts), encoding="utf-8")


class TestSidecarCounts:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(WORD, min_size=0, max_size=8, unique=True),
        st.data(),
        st.sampled_from([None, 2**63, 10**19]),
    )
    def test_hit_miss_and_off_give_the_same_counts(self, words, data, too_big):
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
                off = load_text_vectors(path, freq).vocab.frequency
            filed = max(counts.values(), default=1) < 2**63
            with cache_at(cache):
                cold = load_text_vectors(path, freq).vocab.frequency
                assert record(cache, path, freq).exists() == filed
                assert len(entries(cache)) == 1 + filed
                with no_parse(sidecars=filed):
                    warm = load_text_vectors(path, freq).vocab.frequency
        assert off == cold == warm == counts
        assert all(type(c) is int for c in warm.values())

    @pytest.mark.parametrize("fault", ["truncated", "flipped", "empty", "length"])
    def test_a_bad_record_is_parsed_again_and_rewritten(self, tmp_path, fault):
        path, freq, cache = tmp_path / "v.vec", tmp_path / "v.vec.freq", tmp_path / "cache"
        save_text_vectors(random_normalized_space(30, 2, seed=7), path)
        counts = {f"w{i:04d}": 5 * i + 1 for i in range(30)}
        save_frequencies(counts, freq)
        with cache_at(cache):
            load_text_vectors(path, freq)
        entry = record(cache, path, freq)
        blob = entry.read_bytes()
        assert len(blob) == 8 * 30 + 4
        if fault == "truncated":
            entry.write_bytes(blob[:-9])
        elif fault == "flipped":
            entry.write_bytes(blob[:100] + bytes([blob[100] ^ 1]) + blob[101:])
        elif fault == "empty":
            entry.write_bytes(b"")
        else:  # a whole record, checksum and all, one count short
            body = blob[8:-4]
            entry.write_bytes(body + zlib.crc32(body).to_bytes(4, "little"))
        with cache_at(cache):
            with no_parse(sidecars=False):
                assert load_text_vectors(path, freq).vocab.frequency == counts
            assert entry.read_bytes() == blob  # the parse rewrote the record
            with no_parse():
                assert load_text_vectors(path, freq).vocab.frequency == counts

    def test_a_sidecar_that_lacks_a_word_raises_cold_and_warm(self, tmp_path):
        path, freq, cache = tmp_path / "v.vec", tmp_path / "v.vec.freq", tmp_path / "cache"
        save_text_vectors(random_normalized_space(4, 2, seed=8), path)
        save_frequencies({"w0000": 1, "w0001": 2, "w0003": 4}, freq)
        want = f"{freq}: no count for 'w0002'"
        with cache_at("off"), pytest.raises(LoadError, match=want):
            load_text_vectors(path, freq)
        with cache_at(cache):
            with pytest.raises(LoadError, match=want):
                load_text_vectors(path, freq)  # cold: the vector file is filed
            assert len(entries(cache)) == 1
            with no_parse(sidecars=False), pytest.raises(LoadError, match=want):
                load_text_vectors(path, freq)  # the vector file hits
        assert not record(cache, path, freq).exists()
        assert len(entries(cache)) == 1

    def test_a_malformed_sidecar_is_never_filed(self, tmp_path):
        path, freq, cache = tmp_path / "v.vec", tmp_path / "v.vec.freq", tmp_path / "cache"
        save_text_vectors(random_normalized_space(2, 2, seed=9), path)
        freq.write_text("w0000\t1\nw0001\t0\n", encoding="utf-8")
        for directory in ("off", cache, cache):
            with cache_at(directory), pytest.raises(LoadError) as caught:
                load_text_vectors(path, freq)
            assert str(caught.value) == f"{freq}:2: count must be >= 1, got 0"
        assert len(entries(cache)) == 1


class TestFaultsFallBackToParsing:
    @staticmethod
    def setup_entry(tmp_path):
        path = tmp_path / "v.vec"
        save_text_vectors(random_normalized_space(40, 3, seed=1), path)
        cache = tmp_path / "cache"
        with cache_at(cache):
            load_text_vectors(path)
        (entry,) = entries(cache)
        return path, cache, entry

    @pytest.mark.parametrize("fault", ["truncated", "flipped", "empty", "shape"])
    def test_a_bad_entry_is_parsed_again_and_rewritten(self, tmp_path, fault):
        path, cache, entry = self.setup_entry(tmp_path)
        blob = entry.read_bytes()
        if fault == "truncated":
            entry.write_bytes(blob[: len(blob) // 2])
        elif fault == "flipped":
            entry.write_bytes(blob[:200] + bytes([blob[200] ^ 1]) + blob[201:])
        elif fault == "empty":
            entry.write_bytes(b"")
        else:  # a whole entry, checksum and all, with one word too few
            words, matrix = oracle(path)
            space_module._cache_store(
                str(entry), words[:-1], np.frombuffer(matrix).reshape(len(words), 3)
            )
            assert entry.read_bytes() != blob
        want = oracle(path)
        with cache_at(cache):
            assert loaded(load_text_vectors(path)) == want
            assert entry.read_bytes() == blob  # the parse rewrote the entry
            with no_parse():
                assert loaded(load_text_vectors(path)) == want

    def test_a_malformed_file_is_never_cached(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("3 2\na 1 2\nb 1 x\nc 1 2\n", encoding="utf-8")
        cache = tmp_path / "cache"
        with cache_at(cache), pytest.raises(LoadError) as caught:
            load_text_vectors(path)
        assert str(caught.value) == f"{path}:3: non-numeric value"
        assert list(cache.iterdir()) == []
        with cache_at("off"), pytest.raises(LoadError) as off:
            load_text_vectors(path)
        assert str(off.value) == str(caught.value)

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
        path = tmp_path / "v.vec"
        save_text_vectors(random_normalized_space(5, 2, seed=3), path)
        cache = tmp_path / "cache"

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", dst)

        monkeypatch.setattr(space_module.os, "replace", refuse)
        with cache_at(cache):
            for _ in range(2):
                assert loaded(load_text_vectors(path)) == oracle(path)
        assert list(cache.iterdir()) == []  # no entry and no temporary file left

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
            load_text_vectors(path, tmp_path / "v.vec.freq")
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


class TestEviction:
    def test_least_recently_used_entries_go_first(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        paths = []
        for seed in range(3):
            path = tmp_path / f"v{seed}.vec"
            save_text_vectors(random_normalized_space(50, 4, seed=seed), path)
            paths.append(path)
        with cache_at(cache):
            load_text_vectors(paths[0])
            load_text_vectors(paths[1])
            by_path = {}
            for path in paths[:2]:
                digest = hashlib.sha256(path.read_bytes()).hexdigest().encode("ascii")
                key = hashlib.sha256(space_module._CACHE_VERSION + digest).hexdigest()
                by_path[path] = cache / f"{key}{SUFFIX}"
            size = by_path[paths[0]].stat().st_size
            # Both entries last used long ago, the first one first ...
            os.utime(by_path[paths[0]], (1_000_000, 1_000_000))
            os.utime(by_path[paths[1]], (2_000_000, 2_000_000))
            # ... then a hit makes the first the most recently used.
            with no_parse():
                load_text_vectors(paths[0])
            foreign = cache / "notes.txt"
            foreign.write_bytes(b"x" * (10 * size))
            monkeypatch.setattr(space_module, "_CACHE_MAX_BYTES", 2 * size + size // 2)
            load_text_vectors(paths[2])
        assert not by_path[paths[1]].exists()
        assert by_path[paths[0]].exists()
        assert len(entries(cache)) == 2
        assert foreign.exists()  # only entries are counted or removed

    def test_records_count_toward_the_bound_and_are_evicted(self, tmp_path, monkeypatch):
        cache, loads = tmp_path / "cache", []
        for seed in range(2):
            path, freq = tmp_path / f"v{seed}.vec", tmp_path / f"v{seed}.vec.freq"
            save_text_vectors(random_normalized_space(50, 4, seed=seed), path)
            save_frequencies({f"w{i:04d}": i + seed + 1 for i in range(50)}, freq)
            loads.append((path, freq))
        with cache_at(cache):
            load_text_vectors(*loads[0])
            (vector,) = (e for e in entries(cache) if e != record(cache, *loads[0]))
            counts = record(cache, *loads[0])
            os.utime(counts, (1_000_000, 1_000_000))  # the least recently used
            size, record_size = vector.stat().st_size, counts.stat().st_size
            # Room for both vector entries and one record and a half: only
            # counting records takes the cache past its bound.
            monkeypatch.setattr(space_module, "_CACHE_MAX_BYTES", 2 * size + record_size * 3 // 2)
            load_text_vectors(*loads[1])
        assert not counts.exists()
        assert vector.exists() and record(cache, *loads[1]).exists()
        assert len(entries(cache)) == 3

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
            assert len(entries(cache)) == 10  # each run file and its sidecar parsed once
            with no_parse():
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
        assert len(entries(cache)) == 10
