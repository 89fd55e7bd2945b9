"""Containers, I/O, and elementary geometry for word-embedding spaces.

The on-disk interchange format is the plain-text vector format: a header line
``"<v> <d>"`` followed by one ``"<word> <x1> ... <xd>"`` line per word. Word
frequencies travel in an optional tab-separated sidecar file.

Every input file is read once per load by ``_read_input`` and every output
file written by ``_write_text``; while a CLI command runs, both record the
sha256 of the bytes by path, the only digests its reports and manifests
print.  Every text file but vectors is split into lines by ``_read_lines``,
and every table is formatted by ``_write_table``.

Values are read by numpy's C text reader, correctly rounded like ``float()``.
Its number grammar is narrower than ``float()``'s: digit-group underscores
(``1_0``) and non-ASCII digits (``١``) are rejected as non-numeric. Signs,
leading or trailing points and exponents read as ``float()`` reads them;
``inf``/``nan`` in any case and values that overflow to infinity are rejected
as non-finite, naming their line. Blank lines are allowed only after the
announced rows.

Parsed vector files are cached by content: the sha256 of ``_CACHE_VERSION``
followed by the file's hex sha256 names a cache entry holding the parsed
matrix (``.npy``) and word list, checked by a CRC-32 and by shape on every
hit. A miss parses the same bytes and files the entry; a malformed file is
never filed. Entries are bit-identical to what the parser returns, so a hit
and a parse give the same space. A sidecar loaded with its vector file is
read and hashed on every load, and its counts, int64 in the vector file's
word order, are filed in a record keyed by both digests: a warm load parses
neither file. A sidecar that is malformed, lacks a word or holds a count
past int64 is never filed. The directory is
``$EMBEDSTAB_CACHE``, else ``$XDG_CACHE_HOME/embedstab``, else
``~/.cache/embedstab``; ``EMBEDSTAB_CACHE=off`` turns the cache off. Its size
is bounded by ``_CACHE_MAX_BYTES``, least recently used entries going first.
Cache faults are never errors: an entry that cannot be read is parsed again,
and a directory that cannot be written means no caching.

One kernel, ``_top_k``, ranks neighbors for `nearest_neighbors`,
`analogy_score` and the overlap metrics.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "LoadError",
    "Vocabulary",
    "EmbeddingSpace",
    "AnalogyDataset",
    "RunSet",
    "load_text_vectors",
    "save_text_vectors",
    "load_frequencies",
    "save_frequencies",
    "load_analogies",
    "normalize",
    "cosine",
    "nearest_neighbors",
    "analogy_score",
    "joint_vocabulary",
    "restrict",
]

_NORM_ATOL = 1e-9
# Rows parsed per np.loadtxt call when loading text vectors; sets peak memory.
_LOAD_BLOCK_LINES = 128
# Part of every vector cache key: change it when the parser or the entry
# layout changes, so that no entry written for another loader is read.
_CACHE_VERSION = b"embedstab vector cache 1\n"
# Bytes of entries the vector cache keeps; a store past it evicts the least
# recently used entries (by mtime, which a hit refreshes).
_CACHE_MAX_BYTES = 1 << 30
_CACHE_SUFFIX = ".vecc"
# An entry ends in the word list's byte length (8 bytes) and the CRC-32 of
# everything before them (4 bytes), both little-endian.
_CACHE_TRAILER = 12
# Similarities held at once by the top-k kernel (8 MB); sets its peak memory.
_TOP_K_BLOCK_ENTRIES = 1 << 20
# The sha256 of each file read or written inside `_recording_inputs`, by
# absolute path; None outside it, so no digest outlives the command.
_input_digests: dict[str, str] | None = None


class LoadError(ValueError):
    """Raised when an input file is malformed; the message names the file (and line)."""


@dataclass(frozen=True)
class Vocabulary:
    """Ordered set of unique tokens, optionally with per-word occurrence counts."""

    words: tuple[str, ...]
    frequency: Mapping[str, int] | None = None
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        index = dict(zip(self.words, range(len(self.words))))
        if len(index) != len(self.words):
            seen: set[str] = set()
            word = next(w for w in self.words if w in seen or seen.add(w))
            raise ValueError(f"duplicate word {word!r}")
        object.__setattr__(self, "index", index)
        counts = [] if self.frequency is None else list(map(self.frequency.get, self.words))
        if None in counts or min(counts, default=1) < 1:  # walk to name the first fault
            for word, count in zip(self.words, counts):
                if count is None:
                    raise ValueError(f"no frequency entry for {word!r}")
                if count < 1:
                    raise ValueError(f"frequency of {word!r} must be >= 1, got {count}")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: object) -> bool:
        return word in self.index

    def __iter__(self) -> Iterator[str]:
        return iter(self.words)

    def position(self, word: str) -> int:
        try:
            return self.index[word]
        except KeyError:
            raise KeyError(f"word {word!r} not in vocabulary") from None


@dataclass(frozen=True)
class EmbeddingSpace:
    """A vocabulary plus a dense v x d matrix whose row k embeds word k.

    The matrix is frozen at construction; all operations on a space are pure
    reads, so instances are safe to share between threads.
    """

    vocab: Vocabulary
    matrix: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=np.float64)
        if matrix.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {matrix.shape}")
        if matrix.shape[0] != len(self.vocab):
            raise ValueError(
                f"matrix has {matrix.shape[0]} rows for {len(self.vocab)} words"
            )
        if matrix.shape[1] < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("matrix contains non-finite entries")
        if self.normalized:
            # Row sums of squares in one pass, with no v x d temporary.
            norms = np.sqrt(np.einsum("ij,ij->i", matrix, matrix))
            if norms.size and np.max(np.abs(norms - 1.0)) > _NORM_ATOL:
                raise ValueError("normalized flag set but rows are not unit length")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.vocab)

    def vector(self, word: str) -> np.ndarray:
        return self.matrix[self.vocab.position(word)]


@dataclass(frozen=True)
class AnalogyDataset:
    """Word 4-tuples (a, b, c, d) posing "a is to b as c is to d" questions."""

    questions: tuple[tuple[str, str, str, str], ...]

    def __post_init__(self) -> None:
        for question in self.questions:
            if len(question) != 4:
                raise ValueError(f"analogy question must have 4 tokens: {question!r}")

    def __len__(self) -> int:
        return len(self.questions)


@dataclass(frozen=True)
class RunSet:
    """Embedding spaces from repeated runs of one (technique, corpus, sampling) setup."""

    spaces: tuple[EmbeddingSpace, ...]
    mode: str = "shuffled"
    label: str = ""

    def __post_init__(self) -> None:
        if not self.spaces:
            raise ValueError("a RunSet needs at least one space")
        dims = {space.dim for space in self.spaces}
        if len(dims) != 1:
            raise ValueError(f"all runs must share one dimension, got {sorted(dims)}")

    def __len__(self) -> int:
        return len(self.spaces)

    def __iter__(self) -> Iterator[EmbeddingSpace]:
        return iter(self.spaces)


def load_text_vectors(
    path: str | Path, frequency_path: str | Path | None = None
) -> EmbeddingSpace:
    """Load a text vector file; word order is preserved, normalized is False.

    With ``frequency_path`` given, counts from the sidecar are attached to the
    vocabulary; every loaded word must have an entry.  The file's bytes are
    read once and looked up in the vector cache (see the module docstring).
    """
    path = Path(path)
    data, digest = _read_input(path)
    entry = _cache_entry(digest)
    cached = None if entry is None else _cache_read(entry)
    if cached is None:
        words, matrix = _parse_text_vectors(path, data)
        if entry is not None:
            _cache_store(entry, words, matrix)
    else:
        words, matrix = cached
    frequency = None
    if frequency_path is not None:
        frequency = dict(zip(words, _sidecar_counts(frequency_path, words, digest)))
    return EmbeddingSpace(Vocabulary(tuple(words), frequency), matrix, normalized=False)


def _sidecar_counts(path: str | Path, words: list[str], digest: str) -> list[int]:
    """The counts the sidecar `path` gives `words`, the words of the vector
    file whose sha256 is `digest`: read and hashed, then looked up in the
    cache, or parsed by `_read_map` and filed if every count fits int64."""
    data, sidecar = _read_input(path)
    record = _cache_entry(digest, sidecar)
    counts = None if record is None else _counts_read(record, len(words))
    if counts is None:
        parsed = _read_map(path, "count", int, ">= 1", 1, data=data)
        try:
            counts = list(map(parsed.__getitem__, words))
        except KeyError as exc:
            raise LoadError(f"{path}: no count for {exc.args[0]!r}") from None
        if record is not None and max(counts, default=1) < 1 << 63:
            body = np.array(counts, dtype="<i8").tobytes()
            _cache_write(record, [body, zlib.crc32(body).to_bytes(4, "little")])
    return counts


def _parse_text_vectors(path: Path, data: bytes) -> tuple[list[str], np.ndarray]:
    """The words and matrix of the vector file `path` whose bytes are `data`.

    Lines end as in text-mode reading; the rows are parsed in blocks of
    ``_LOAD_BLOCK_LINES``.  Every fault is a LoadError naming its line.
    """
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as handle:
            header = handle.readline()
            parts = header.split()
            if len(parts) != 2:
                raise LoadError(f"{path}:1: header must be '<v> <d>', got {header!r}")
            try:
                v, d = int(parts[0]), int(parts[1])
            except ValueError:
                raise LoadError(f"{path}:1: non-integer header fields {header!r}") from None
            if v < 0 or d < 1:
                raise LoadError(f"{path}:1: invalid sizes v={v}, d={d}")
            words: list[str] = []
            matrix = np.empty((v, d), dtype=np.float64)
            for start in range(0, v, _LOAD_BLOCK_LINES):
                want = min(_LOAD_BLOCK_LINES, v - start)
                block = list(itertools.islice(handle, want))
                if block:
                    words.extend(_parse_block(path, block, start + 2, d, matrix[start:]))
                if len(block) < want:
                    raise LoadError(
                        f"{path}:{start + len(block) + 2}: expected {v} rows, file ended early"
                    )
            for lineno, line in enumerate(handle, start=v + 2):
                if line.strip():
                    raise LoadError(f"{path}:{lineno}: more rows than the header announced")
    except UnicodeDecodeError:
        raise _decode_error(path, data) from None
    if len(set(words)) != v:
        seen: set[str] = set()
        for lineno, word in enumerate(words, start=2):
            if word in seen:
                raise LoadError(f"{path}:{lineno}: duplicate word {word!r}")
            seen.add(word)
    return words, matrix


def _cache_entry(digest: str, sidecar: str | None = None) -> str | None:
    """The path of the cache entry for a vector file whose bytes have the
    sha256 `digest` (hex), or of its counts record with a sidecar of sha256
    `sidecar`, its directory made with mode 0o700 if missing; None when
    ``EMBEDSTAB_CACHE`` is ``off`` or the directory cannot be made."""
    directory = os.environ.get("EMBEDSTAB_CACHE") or os.path.join(
        os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache"),
        "embedstab",
    )
    if directory == "off":
        return None
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
    except OSError:
        return None
    # No vector file's key hashes a name holding "counts " and two digests.
    name = digest if sidecar is None else f"counts {digest} {sidecar}"
    key = hashlib.sha256(_CACHE_VERSION + name.encode("ascii")).hexdigest()
    return os.path.join(directory, key + _CACHE_SUFFIX)


def _cache_blob(entry: str, trailer: int) -> bytes | None:
    """The bytes of a cache entry whose CRC-32, in its last 4 bytes, is that
    of the bytes before its `trailer`, refreshing its mtime; None if the
    entry is missing, cannot be read or fails the check."""
    try:
        with open(entry, "rb") as handle:
            blob = handle.read()
    except OSError:
        return None
    body = len(blob) - trailer
    if body < 0 or zlib.crc32(memoryview(blob)[:body]) != int.from_bytes(blob[-4:], "little"):
        return None
    with contextlib.suppress(OSError):  # an entry another user owns is still read
        os.utime(entry)
    return blob


def _cache_read(entry: str) -> tuple[list[str], np.ndarray] | None:
    """The words and matrix a cache entry holds; None if the entry is
    missing, fails its checksum or shape check, or cannot be read."""
    blob = _cache_blob(entry, _CACHE_TRAILER)
    if blob is None:
        return None
    body = len(blob) - _CACHE_TRAILER
    try:
        text = blob[body - int.from_bytes(blob[body:-4], "little") : body].decode("utf-8")
        words = text.split("\n") if text else []
        # The .npy leads the entry.  Its matrix is read in place, not copied
        # out of the entry's bytes, and only a float64 matrix is read.
        npy = io.BytesIO(blob)
        if np.lib.format.read_magic(npy) != (1, 0):
            return None
        shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(npy)
        if dtype != np.float64 or fortran_order or len(shape) != 2 or shape[0] != len(words):
            return None
        matrix = np.frombuffer(blob, np.float64, shape[0] * shape[1], npy.tell()).reshape(shape)
    except ValueError:
        return None
    return words, matrix


def _counts_read(record: str, size: int) -> list[int] | None:
    """The `size` counts a counts record holds (int64, then their CRC-32);
    None if the record is missing, fails its checksum or has another length."""
    blob = _cache_blob(record, 4)
    if blob is None or len(blob) != 8 * size + 4:
        return None
    return np.frombuffer(blob, "<i8", size).tolist()


def _cache_store(entry: str, words: list[str], matrix: np.ndarray) -> None:
    """File a parsed space as a cache entry.  Words hold no whitespace, so
    "\n" separates them."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(matrix))
    text = "\n".join(words).encode("utf-8")
    # The .npy (header, then the matrix's bytes) and the words, written in
    # place rather than joined first: a miss should cost little more than a parse.
    parts = [header.getvalue(), matrix, text]
    checksum = 0
    for part in parts:
        checksum = zlib.crc32(part, checksum)
    parts.append(len(text).to_bytes(8, "little") + checksum.to_bytes(4, "little"))
    _cache_write(entry, parts)


def _cache_write(entry: str, parts: list) -> None:
    """Write the parts as the cache entry `entry`, then evict past the size
    bound.  The entry is written under a temporary name and renamed into
    place, so a reader sees a whole entry or none.  Any OSError just leaves
    the entry out."""
    temporary = f"{entry}.{os.urandom(8).hex()}.tmp"
    try:
        with open(temporary, "xb") as handle:
            for part in parts:
                handle.write(part)
        os.replace(temporary, entry)
        _cache_evict(os.path.dirname(entry))
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(temporary)


def _cache_evict(directory: str) -> None:
    """Remove the least recently used entries until the cache holds at most
    ``_CACHE_MAX_BYTES``.  Only entry files are counted or removed."""
    entries = []
    with os.scandir(directory) as scan:
        for item in scan:
            if item.name.endswith(_CACHE_SUFFIX):
                stat = item.stat()
                entries.append((stat.st_mtime_ns, item.path, stat.st_size))
    total = sum(size for _, _, size in entries)
    for _, path, size in sorted(entries):
        if total <= _CACHE_MAX_BYTES:
            break
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        total -= size


def _parse_values(rests: list[str]) -> np.ndarray:
    # comments=None: no character may start a comment, since "#" is a word.
    return np.loadtxt(rests, dtype=np.float64, comments=None, ndmin=2)


def _parse_block(
    path: Path, block: list[str], first_lineno: int, d: int, out: np.ndarray
) -> list[str]:
    """Parse a block of rows into the first len(block) rows of `out`.

    Returns the block's words.  The values of all rows are parsed by one C
    reader call; only a block that fails it, or holds a non-finite value, is
    walked line by line, to raise the first row's fault.
    """
    split = [line.split(None, 1) for line in block]
    if all(len(pair) == 2 for pair in split):
        try:
            values = _parse_values([pair[1] for pair in split])
        except ValueError:
            values = None
        if values is not None and values.shape == (len(block), d) and np.isfinite(values).all():
            out[: len(block)] = values
            return [pair[0] for pair in split]
    for lineno, line in enumerate(block, start=first_lineno):
        fields = line.split()
        if not fields:
            raise LoadError(f"{path}:{lineno}: blank line where a row was expected")
        if len(fields) != d + 1:
            raise LoadError(
                f"{path}:{lineno}: expected {d} values for {fields[0]!r}, "
                f"got {len(fields) - 1}"
            )
        try:
            values = _parse_values([line.split(None, 1)[1]])
        except ValueError:
            values = None
        if values is None or values.shape != (1, d):
            raise LoadError(f"{path}:{lineno}: non-numeric value")
        if not np.isfinite(values).all():
            raise LoadError(f"{path}:{lineno}: non-finite value")
    raise LoadError(f"{path}:{first_lineno}-{lineno}: rows do not parse as a block")


def save_text_vectors(space: EmbeddingSpace, path: str | Path) -> None:
    """Write the exact format `load_text_vectors` accepts (10 significant
    digits, or 17 if 10 would round the largest floats up to infinity)."""
    spec = "%.10g" if np.all(np.abs(space.matrix) < 1.797693134e308) else "%.17g"
    line = " ".join(["%s"] + [spec] * space.dim) + "\n"
    rows = (line % (word, *row.tolist()) for word, row in zip(space.vocab.words, space.matrix))
    _write_text(path, itertools.chain([f"{len(space)} {space.dim}\n"], rows))


def _decode_error(path: Path, data: bytes) -> LoadError:
    """The LoadError for a file whose bytes `data` are not UTF-8, naming its
    first bad line."""
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks at "\n", "\r\n" and "\r", as text reading does.
        lineno = len((data[: exc.start] + b".").splitlines())
        return LoadError(f"{path}:{lineno}: not UTF-8 ({exc.reason}, byte 0x{data[exc.start]:02x})")
    return LoadError(f"{path}: not UTF-8")


@contextlib.contextmanager
def _recording_inputs() -> Iterator[None]:
    """Record the digest of every file read or written inside the block."""
    global _input_digests
    outer, _input_digests = _input_digests, {}
    try:
        yield
    finally:
        _input_digests = outer


def _read_input(path: str | Path) -> tuple[bytes, str]:
    """The bytes of an input file and their sha256 (hex), recorded by path
    inside `_recording_inputs`.  Every input file is read here."""
    data = Path(path).read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if _input_digests is not None:
        _input_digests[os.path.abspath(path)] = digest
    return data, digest


def _recorded_digest(path: str | Path) -> str | None:
    """The digest of the bytes last read from or written to `path` inside
    `_recording_inputs`, if any."""
    return None if _input_digests is None else _input_digests.get(os.path.abspath(path))


def _write_text(path: str | Path, chunks: Iterable[str]) -> None:
    """Write the chunks to `path` as UTF-8, recording the sha256 of the bytes
    written inside `_recording_inputs`.  Every output file is written here."""
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for chunk in chunks:
            data = chunk.encode("utf-8")
            digest.update(data)
            handle.write(data)
    if _input_digests is not None:
        _input_digests[os.path.abspath(path)] = digest.hexdigest()


def _read_lines(
    path: str | Path, sep: str | None = "\t", width: int | None = None, expected: str = "",
    comments: tuple[str, ...] = (), blank: bool = False, data: bytes | None = None,
) -> Iterator[tuple[int, list[str]]]:
    """(line number, ``line.split(sep)``) of each line of a UTF-8 text file,
    whose bytes are `data` if the caller has read them already.

    Line ends are translated as by `Path.read_text`; lines split only at
    "\\n", so ``sep="\\n"`` gives the whole line.  Blank lines are skipped
    unless `blank` keeps them, and so are lines starting with one of
    `comments`.  Other than `width` fields is a LoadError
    ``path:lineno: expected <expected>, got <n>``.
    """
    path = Path(path)
    if data is None:
        data, _ = _read_input(path)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise _decode_error(path, data) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if not (blank or line.strip()) or comments and line.lstrip().startswith(comments):
            continue
        fields = line.split(sep)
        if width is not None and len(fields) != width:
            raise LoadError(f"{path}:{lineno}: expected {expected}, got {len(fields)}")
        yield lineno, fields


def _read_map(
    path: str | Path, what: str, convert: Callable[[str], float], rule: str, low: float,
    high: float | None = None, data: bytes | None = None,
) -> dict:
    """The map of a "word<TAB>value" file (whose bytes are `data`, if read
    already); each value is `convert`ed and must lie in [low, high] (`rule`
    says so in words).  Every fault, a repeated word too, is a LoadError
    naming its line."""
    values = {}
    rows = _read_lines(path, "\t", 2, f"2 fields 'word<TAB>{what}'", data=data)
    for lineno, (word, raw) in rows:
        try:
            value = convert(raw)
        except ValueError:
            raise LoadError(f"{path}:{lineno}: bad {what} {raw!r}") from None
        # Not `low <= value <= high`: an int compared with a float bound is
        # slow, and sidecars of every loaded space pass through here.
        if not low <= value or high is not None and not value <= high:
            raise LoadError(f"{path}:{lineno}: {what} must be {rule}, got {value!r}")
        if word in values:
            raise LoadError(f"{path}:{lineno}: duplicate word {word!r}")
        values[word] = value
    return values


def _fmt(value: object) -> str:
    if value is None:
        return "NA"
    if value is True or value is False:  # isinstance(value, bool), without a call per cell
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_table(
    path: str | Path, rows: Iterable[Sequence[object]], columns: Sequence[str] | None = None,
    meta: Sequence[tuple[str, object]] = (),
) -> None:
    """Write ``# key: value`` lines for `meta`, the tab-joined `columns` if
    given, then one tab-joined line per row.  Floats are written by repr, so
    they read back exactly; None is ``NA``, booleans ``true``/``false``."""
    lines = [f"# {key}: {_fmt(value)}" for key, value in meta]
    if columns is not None:
        lines.append("\t".join(columns))
    # `_fmt` inlined for exact str, float and int cells: a call per cell
    # doubles the time of a large table.
    lines.extend(
        "\t".join([
            c if type(c) is str else repr(c) if type(c) is float else str(c) if type(c) is int
            else _fmt(c)
            for c in row
        ])
        for row in rows
    )
    lines.append("")  # ends every line, and an empty table is an empty file
    _write_text(path, ["\n".join(lines)])


def _read_table(path: str | Path) -> tuple[list[list[str]], list[str], list[list[str]]]:
    """The ([key, value] meta, columns, rows) of a `_write_table` file as text.
    Every line after the header is a row; a blank one is a row of empty cells."""
    meta, columns, rows = [], None, []
    for lineno, (line,) in _read_lines(path, "\n", blank=True):
        if columns is None and line.startswith("# "):
            key, sep, value = line[2:].partition(": ")
            if not sep:
                raise LoadError(f"{path}:{lineno}: expected '# key: value', got {line!r}")
            meta.append([key, value])
        elif columns is None:
            columns = line.split("\t")
        else:
            cells = line.split("\t")
            if len(cells) != len(columns):
                raise LoadError(f"{path}:{lineno}: expected {len(columns)} cells, got {len(cells)}")
            rows.append(cells)
    if columns is None:
        raise LoadError(f"{path}: no header row")
    return meta, columns, rows


def load_frequencies(path: str | Path) -> dict[str, int]:
    """Read a "word<TAB>count" sidecar file (counts >= 1, each word once)."""
    return _read_map(path, "count", int, ">= 1", 1)


def save_frequencies(counts: Mapping[str, int], path: str | Path) -> None:
    """Write the "word<TAB>count" lines `load_frequencies` reads."""
    _write_table(path, counts.items())


def load_analogies(path: str | Path) -> AnalogyDataset:
    """Read "a b c d" lines; blank lines, "#" comments and ": section"
    headers are skipped."""
    rows = _read_lines(path, None, 4, "4 tokens", comments=("#", ":"))
    return AnalogyDataset(tuple((a, b, c, d) for _, (a, b, c, d) in rows))


def normalize(space: EmbeddingSpace) -> EmbeddingSpace:
    """Scale every row to unit L2 norm. Zero rows are an error naming the word."""
    return EmbeddingSpace(space.vocab, _scaled_rows(space), normalized=True)


def _scaled_rows(space: EmbeddingSpace, rows: np.ndarray | None = None) -> np.ndarray:
    """The space's rows (or the given rows) divided by their L2 norms."""
    matrix = space.matrix if rows is None else space.matrix[rows]
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        word = space.vocab.words[zero[0] if rows is None else rows[zero[0]]]
        raise ValueError(f"zero vector for {word!r}")
    return matrix / norms[:, None]


def _unit_rows(space: EmbeddingSpace, rows: np.ndarray | None = None) -> np.ndarray:
    """The space's rows (or the given rows) at unit length: read as they are
    from a normalized space, scaled otherwise."""
    if space.normalized:
        return space.matrix if rows is None else space.matrix[rows]
    return _scaled_rows(space, rows)


def _positions(vocab: Vocabulary, words: Sequence[str]) -> np.ndarray:
    """Row positions of `words` in `vocab`; an unknown word is a KeyError."""
    if isinstance(words, tuple) and words == vocab.words:
        return np.arange(len(words), dtype=np.intp)
    try:
        return np.fromiter(map(vocab.index.__getitem__, words), dtype=np.intp, count=len(words))
    except KeyError as exc:
        raise KeyError(f"word {exc.args[0]!r} not in vocabulary") from None


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # A stack of 1 x d by d x 1 products: one BLAS dot per row, the same
    # call, and so the same rounding, as `x[i] @ y[i]` on one row.
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def cosine(space: EmbeddingSpace, w1: str, w2: str) -> float:
    """Cosine similarity of two words' rows, clipped to [-1, 1]."""
    a, b = _unit_rows(space, _positions(space.vocab, [w1, w2]))
    return float(np.clip(a @ b, -1.0, 1.0))


def _top_k(
    space: EmbeddingSpace, words: Sequence[str], queries: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The n words of `words` nearest to each query, and their similarities.

    Row i of the (q, k) array `queries` holds positions in `words`; its query
    vector is the alternating sum u[0] - u[1] + u[2] ... of their unit rows
    (one word, or 3CosAdd's b - a + c), and those words are excluded from its
    list.  Each block of queries takes one matrix product; every row is
    partitioned at its n-th best similarity, and the pool at or above that
    cut is ordered by (-similarity, word), so lists are exact under ties and
    independent of storage order.  Returns (q, n) positions and similarities.
    """
    unit = _unit_rows(space, _positions(space.vocab, words))
    found = np.empty((len(queries), n), dtype=np.intp)
    sims_found = np.empty((len(queries), n))
    step = max(1, _TOP_K_BLOCK_ENTRIES // len(unit))
    for start in range(0, len(queries), step):
        block = queries[start : start + step]
        vectors = unit[block[:, 0]]
        for j in range(1, block.shape[1]):
            vectors = vectors - unit[block[:, j]] if j % 2 else vectors + unit[block[:, j]]
        sims = vectors @ unit.T
        sims[np.arange(len(block))[:, None], block] = -np.inf
        kth = len(unit) - n
        cut = np.take_along_axis(sims, np.argpartition(sims, kth, axis=1)[:, kth, None], axis=1)
        rows, cols = np.nonzero(sims >= cut)
        pool, inverse = np.unique(cols, return_inverse=True)
        rank = np.empty(len(pool), dtype=np.intp)
        rank[sorted(range(len(pool)), key=lambda i: words[pool[i]])] = np.arange(len(pool))
        pool_sims = sims[rows, cols]
        order = np.lexsort((rank[inverse], -pool_sims, rows))
        starts = np.searchsorted(rows, np.arange(len(block)))
        take = order[starts[:, None] + np.arange(n)]
        found[start : start + len(block)] = cols[take]
        sims_found[start : start + len(block)] = pool_sims[take]
    return found, sims_found


def nearest_neighbors(
    space: EmbeddingSpace, target: str, n: int
) -> list[tuple[str, float]]:
    """The n words closest to the target by cosine, target excluded.

    Ties are broken by ascending lexicographic word order so rankings are
    deterministic regardless of storage order.
    """
    pos = space.vocab.position(target)
    if not 1 <= n <= len(space) - 1:
        raise ValueError(f"n must be in [1, {len(space) - 1}], got {n}")
    words = space.vocab.words
    found, sims = _top_k(space, words, np.array([[pos]]), n)
    return [(words[i], float(np.clip(s, -1.0, 1.0))) for i, s in zip(found[0], sims[0])]


def analogy_score(
    space: EmbeddingSpace,
    dataset: AnalogyDataset,
    restrict_to: Iterable[str] | None = None,
) -> tuple[float, float]:
    """3CosAdd analogy accuracy and coverage.

    For each question (a, b, c, d) whose four words all lie in the evaluation
    vocabulary, predict argmax cosine of v(b) - v(a) + v(c) over that
    vocabulary minus {a, b, c}, ties going to the first word in lexicographic
    order; composition uses unit word vectors. Returns (correct/answered,
    answered/total); an empty or fully-skipped dataset scores (0.0, 0.0).
    """
    allowed = set(space.vocab.words if restrict_to is None else restrict_to)
    eval_words = [w for w in space.vocab.words if w in allowed]
    positions = {w: i for i, w in enumerate(eval_words)}
    answered = [q for q in dataset.questions if all(w in positions for w in q)]
    if not answered:
        return 0.0, 0.0
    queries = np.array([[positions[w] for w in (b, a, c)] for a, b, c, _ in answered])
    found, _ = _top_k(space, eval_words, queries, 1)
    correct = sum(eval_words[i] == q[3] for i, q in zip(found[:, 0], answered))
    return correct / len(answered), len(answered) / len(dataset.questions)


def joint_vocabulary(spaces: Sequence[EmbeddingSpace]) -> Vocabulary:
    """Intersection of all vocabularies, ordered by the first space's order."""
    if not spaces:
        raise ValueError("need at least one space")
    words = tuple(spaces[0].vocab.words)
    if any(space.vocab.words != words for space in spaces[1:]):
        common = set(words).intersection(*(space.vocab.words for space in spaces[1:]))
        words = tuple(w for w in words if w in common)
    if not words:
        raise ValueError("spaces share no common words")
    return Vocabulary(words)


def restrict(space: EmbeddingSpace, words: Sequence[str]) -> EmbeddingSpace:
    """Sub-space holding exactly `words`, in the given order."""
    frequency = None
    if space.vocab.frequency is not None:
        frequency = {w: space.vocab.frequency[w] for w in words}
    matrix = space.matrix[_positions(space.vocab, words)]
    return EmbeddingSpace(Vocabulary(tuple(words), frequency), matrix, space.normalized)
