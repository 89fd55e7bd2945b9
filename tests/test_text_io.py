"""The one line reader and the one table writer behind every text file but
vectors: line splitting, blank lines, field counts, undecodable bytes, and
byte-for-byte agreement of the table writer with per-line f-string writers."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from embedstab import (
    LoadError,
    PairStatistics,
    StabilityProfile,
    load_frequencies,
    load_gold_binary,
    load_gold_graded,
    load_profile,
    load_text_vectors,
    save_frequencies,
    save_profile,
)
from embedstab.space import _fmt, _read_lines, _read_table, _write_table

from helpers import answer_files_oracle, save_frequencies_oracle, save_profile_oracle

# Words as vocabularies hold them: no whitespace or control characters, but
# any other Unicode, so non-ASCII words are drawn.
WORD = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Zs", "Zl", "Zp")), min_size=1, max_size=6
)
FLOAT = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = (-0.0, 5e-324, 1e308)


def tmpdir() -> tempfile.TemporaryDirectory:
    # Hypothesis tests may not take the function-scoped tmp_path fixture.
    return tempfile.TemporaryDirectory()


class TestTableWriterMatchesFStringWriters:
    @given(st.dictionaries(WORD, st.integers(1, 10**18), max_size=12))
    @example({"bank": 1, "naïve": 7, "漢字": 10**18})
    def test_sidecars(self, counts):
        with tmpdir() as d:
            got, want = Path(d, "got.freq"), Path(d, "want.freq")
            save_frequencies(counts, got)
            save_frequencies_oracle(counts, want)
            assert got.read_bytes() == want.read_bytes()
            assert load_frequencies(got) == counts

    @given(
        WORD,
        st.lists(
            st.tuples(WORD, st.floats(-1.0, 1.0), st.floats(0.0, 1e308), st.integers(1, 10**6)),
            min_size=1, max_size=8, unique_by=lambda entry: entry[0],
        ),
    )
    @example("tärget", [("q", -0.0, 5e-324, 1), ("é", 5e-324, 1e308, 2), ("z", 1.0, -0.0, 3)])
    def test_profiles(self, target, rows):
        rows = [row for row in rows if row[0] != target] or [(target + "q", 0.5, 0.1, 3)]
        profile = StabilityProfile(
            target, tuple(PairStatistics(target, q, mu, sigma, r) for q, mu, sigma, r in rows)
        )
        with tmpdir() as d:
            got, want = Path(d, "got.tsv"), Path(d, "want.tsv")
            save_profile(profile, str(got))
            save_profile_oracle(profile, want)
            assert got.read_bytes() == want.read_bytes()
            loaded = load_profile(str(got))
            assert loaded == profile
            assert [repr(e.mu) for e in loaded.entries] == [repr(e.mu) for e in profile.entries]

    @given(st.dictionaries(WORD, st.tuples(st.booleans(), FLOAT), min_size=1, max_size=12))
    @example({w: (i % 2 == 0, x) for i, (w, x) in enumerate(zip("aéb", EDGE_FLOATS))})
    def test_answer_files(self, answers):
        labels = {w: label for w, (label, _) in answers.items()}
        deltas = {w: delta for w, (_, delta) in answers.items()}
        targets = sorted(answers)
        with tmpdir() as d:
            oracle = Path(d, "oracle")
            oracle.mkdir()
            answer_files_oracle(labels, deltas, targets, oracle)
            got_binary, got_graded = Path(d, "binary.tsv"), Path(d, "graded.tsv")
            _write_table(got_binary, [(w, int(labels[w])) for w in targets])
            _write_table(got_graded, [(w, deltas[w]) for w in targets])
            assert got_binary.read_bytes() == (oracle / "answers-binary.tsv").read_bytes()
            assert got_graded.read_bytes() == (oracle / "answers-graded.tsv").read_bytes()
            # Answer files have the gold files' format and read back exactly.
            assert load_gold_binary(str(got_binary)) == {w: int(b) for w, b in labels.items()}
            graded = load_gold_graded(str(got_graded))
            assert [repr(graded[w]) for w in targets] == [repr(deltas[w]) for w in targets]
            assert graded.keys() == deltas.keys()


CELL = st.one_of(st.none(), st.booleans(), st.integers(), FLOAT, WORD)


class TestReportRoundTrip:
    @given(
        st.lists(st.tuples(WORD, CELL), max_size=4),
        st.lists(WORD, min_size=1, max_size=4),
        st.data(),
    )
    def test_reports_read_back_as_written(self, meta, columns, data):
        rows = data.draw(st.lists(st.lists(CELL, min_size=len(columns), max_size=len(columns))))
        with tmpdir() as d:
            path = Path(d, "report.tsv")
            _write_table(path, rows, columns, meta)
            got_meta, got_columns, got_rows = _read_table(path)
        assert got_meta == [[key, _fmt(value)] for key, value in meta]
        assert got_columns == columns
        assert got_rows == [[_fmt(cell) for cell in row] for row in rows]

    def test_numpy_scalars_read_back_as_their_values(self, tmp_path):
        path = tmp_path / "report.tsv"
        cells = [np.float64(0.5), np.float32(0.1), np.int64(-7), np.bool_(True), np.bool_(False)]
        columns = ["f64", "f32", "i64", "yes", "no"]
        _write_table(path, [cells], columns, list(zip(columns, cells)))
        meta, _, rows = _read_table(path)
        assert rows == [["0.5", repr(float(np.float32(0.1))), "-7", "true", "false"]]
        assert meta == [list(pair) for pair in zip(columns, rows[0])]
        assert np.float32(float(rows[0][1])) == np.float32(0.1)
        assert [_fmt(cell) for cell in cells] == rows[0]

    def test_a_blank_line_is_a_row_of_empty_cells(self, tmp_path):
        path = tmp_path / "report.tsv"
        _write_table(path, [("",), ("x",), ("",)], ["word"], [("tool", "t")])
        assert path.read_text() == "# tool: t\nword\n\nx\n\n"
        assert _read_table(path) == ([["tool", "t"]], ["word"], [[""], ["x"], [""]])

    def test_faults_name_their_line(self, tmp_path):
        path = tmp_path / "r.tsv"
        for text, message in (
            ("# tool embedstab\na\tb\n", f"{path}:1: expected '# key: value'"),
            ("# k: v\na\tb\n1\t2\n1\t2\t3\n", f"{path}:4: expected 2 cells, got 3"),
            ("", f"{path}: no header row"),
        ):
            path.write_text(text)
            with pytest.raises(LoadError) as caught:
                _read_table(path)
            assert str(caught.value).startswith(message)


class TestLineReader:
    def test_lines_split_only_at_line_ends(self, tmp_path):
        # CR LF and a lone CR end lines as `read_text` translates them; form
        # feed and NEL stay inside their line.  Blank lines are skipped.
        path = tmp_path / "lines.tsv"
        path.write_bytes("a\tb\r\nc\x0cd\te\rf\x85g\th\n\n \t \nlast\tx".encode("utf-8"))
        assert list(_read_lines(path)) == [
            (1, ["a", "b"]), (2, ["c\x0cd", "e"]), (3, ["f\x85g", "h"]), (6, ["last", "x"]),
        ]
        assert [n for n, _ in _read_lines(path, "\n", blank=True)] == [1, 2, 3, 4, 5, 6]
        assert [fields for _, fields in _read_lines(path, "\n")][1] == ["c\x0cd\te"]

    def test_field_count_fault_names_its_line(self, tmp_path):
        path = tmp_path / "f.freq"
        path.write_text("a\t1\n\nb\t2\t3\n")
        with pytest.raises(LoadError) as caught:
            load_frequencies(path)
        assert str(caught.value) == f"{path}:3: expected 2 fields 'word<TAB>count', got 3"

    @pytest.mark.parametrize(
        "data, lineno",
        [
            (b"\xe9t\xe9\t1\n", 1),
            (b"ok\t1\r\nfine\t2\n\n caf\xe9\t3\n", 4),
            (b"ok\t1\rcaf\xc3", 2),  # lone CR line end; truncated sequence at the end
        ],
    )
    def test_undecodable_bytes_name_file_and_line(self, tmp_path, data, lineno):
        path = tmp_path / "latin1.freq"
        path.write_bytes(data)
        with pytest.raises(LoadError) as caught:
            load_frequencies(path)
        assert str(caught.value).startswith(f"{path}:{lineno}: not UTF-8")

    def test_undecodable_vector_row_names_its_line(self, tmp_path):
        # Far enough in that the text reader decodes it in a later chunk.
        rows = [f"w{i} 1 2".encode() for i in range(2000)]
        rows[1500] = b"caf\xe9 1 2"
        path = tmp_path / "latin1.vec"
        path.write_bytes(b"2000 2\n" + b"\n".join(rows) + b"\n")
        with pytest.raises(LoadError) as caught:
            load_text_vectors(path)
        assert str(caught.value).startswith(f"{path}:1502: not UTF-8")
