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

Loads are cached by content, one record per load: the sha256 of
``_CACHE_VERSION``, the kind (``unit`` for a normalized load, else
``rows``), the vector file's hex sha256 and the sidecar's (``-`` for none)
names a record holding the rows (``.npy``; unit rows for a normalized load),
the sidecar's int64 counts in the file's word order, and the words, checked
by a CRC-32 and by shape on every hit.  Both files are read and hashed on
every load, so a warm load parses neither and makes no ``normalize`` pass.
A miss parses the vector file, then the sidecar, scales, and files the
record; nothing is filed for a malformed file or sidecar, a missing word, a
zero row or a count past int64.  Records are bit-identical to what the
parsers and ``_scaled_rows`` give, so a hit and a parse give the same space.
The directory is ``$EMBEDSTAB_CACHE``, else ``$XDG_CACHE_HOME/embedstab``,
else ``~/.cache/embedstab``; ``EMBEDSTAB_CACHE=off`` turns the cache off.
Its size is bounded by ``_CACHE_MAX_BYTES``, least recently used records
going first. Cache faults are never errors: a record that cannot be read is
computed again, and a directory that cannot be written means no caching.

Every kernel reads the rows of a word list, raw or at unit length, through
one reader, ``_word_rows``; only it reads a vocabulary's rows in place.  One
kernel, ``_top_k``, ranks neighbors for `nearest_neighbors`, `analogy_score`
and the overlap metrics.
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
# Part of every vector cache record's name: change it when the parsers, the
# record layout or the arithmetic of `_scaled_rows` changes (unit records
# hold its rows), so that no record written for another loader is read.
_CACHE_VERSION = b"embedstab vector cache 2\n"
# Bytes of records the vector cache keeps; a store past it evicts the least
# recently used records (by mtime, which a hit refreshes).
_CACHE_MAX_BYTES = 1 << 30
_CACHE_SUFFIX = ".vecc"
# A record ends in the word list's byte length (8 bytes) and the CRC-32 of
# everything before them (4 bytes), both little-endian.
_CACHE_TRAILER = 12
# Values formatted per `_format_lines` call when saving text vectors; its
# temporaries, about 340 bytes a value (2.8 MB), set the writer's peak memory.
_SAVE_CHUNK_VALUES = 1 << 13
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
    path: str | Path, frequency_path: str | Path | None = None, *, normalized: bool = False
) -> EmbeddingSpace:
    """Load a text vector file; word order is preserved.

    With ``frequency_path`` given, counts from the sidecar are attached to the
    vocabulary; every loaded word must have an entry.  With ``normalized``
    the rows are scaled to unit length: the space, and any error, is that of
    ``normalize(load_text_vectors(path, frequency_path))``.  Both files are
    read and hashed once, before either is parsed, and the load is looked up
    in the vector cache as one record of its words, rows and counts (see
    the module docstring).  A miss parses the vector file, then the sidecar,
    then scales, and files the record.
    """
    path = Path(path)
    data, digest = _read_input(path)
    sidecar, sidecar_digest = (None, "-") if frequency_path is None else _read_input(frequency_path)
    entry = _cache_entry(f"{'unit' if normalized else 'rows'} {digest} {sidecar_digest}")
    cached = None if entry is None else _cache_read(entry, frequency_path is not None)
    hit = cached is not None
    words, matrix, counts = cached if hit else (*_parse_text_vectors(path, data), None)
    # The file's bytes go before its words are checked for repeats and the
    # counts are listed, and the sidecar's bytes and map before the rows are
    # scaled: a load's peak memory stays that of its parse or of its record read.
    del data, cached
    if hit:
        counts = None if counts is None else counts.tolist()
    elif len(set(words)) != len(words):
        raise _repeat_error(path, words)
    elif frequency_path is not None:
        parsed = _read_map(frequency_path, "count", int, ">= 1", 1, data=sidecar)
        try:
            counts = list(map(parsed.__getitem__, words))
        except KeyError as exc:
            raise LoadError(f"{frequency_path}: no count for {exc.args[0]!r}") from None
        del parsed
    del sidecar
    vocab = Vocabulary(tuple(words), None if counts is None else dict(zip(words, counts)))
    if normalized and not hit:
        matrix = _scaled_rows(matrix, words)
    space = EmbeddingSpace(vocab, matrix, normalized=normalized)
    if not hit and entry is not None and max(counts or [1]) < 1 << 63:
        _cache_store(entry, words, matrix, counts)
    return space


def _parse_text_vectors(path: Path, data: bytes) -> tuple[list[str], np.ndarray]:
    """The words and matrix of the vector file `path` whose bytes are `data`.

    Lines end as in text-mode reading; the rows are parsed in blocks of
    ``_LOAD_BLOCK_LINES``.  Every fault is a LoadError naming its line; a
    repeated word is left to the caller (`_repeat_error`), which can drop
    the file's bytes first.
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
    return words, matrix


def _repeat_error(path: Path, words: list[str]) -> LoadError:
    """The LoadError naming the first row of the vector file `path` whose
    word an earlier row holds; `words`, its words, hold a repeat."""
    seen: set[str] = set()
    lineno = next(i for i, w in enumerate(words, start=2) if w in seen or seen.add(w))
    return LoadError(f"{path}:{lineno}: duplicate word {words[lineno - 2]!r}")


def _cache_entry(name: str) -> str | None:
    """The path of the cache record `name` names, its directory made with
    mode 0o700 if missing; None when ``EMBEDSTAB_CACHE`` is ``off`` or the
    directory cannot be made.  A load of a vector file whose bytes have the
    hex sha256 D, with a sidecar of sha256 S (``-`` for none), files its
    record as ``unit D S`` if normalized, else as ``rows D S``."""
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
    key = hashlib.sha256(_CACHE_VERSION + name.encode("ascii")).hexdigest()
    return os.path.join(directory, key + _CACHE_SUFFIX)


def _cache_read(
    entry: str, counted: bool
) -> tuple[list[str], np.ndarray, np.ndarray | None] | None:
    """The words, rows and (if `counted`) int64 counts a cache record holds,
    refreshing its mtime; None if the record is missing, cannot be read, or
    fails its checksum or a layout check."""
    try:
        with open(entry, "rb") as handle:
            # The .npy leads the record; only a float64 matrix the file can
            # hold is read, into an array of its own, so that a space keeps
            # none of the record's other bytes.
            if np.lib.format.read_magic(handle) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(handle)
            head = handle.tell()
            if dtype != np.float64 or fortran_order or len(shape) != 2 or (
                head + 8 * shape[0] * shape[1] + _CACHE_TRAILER > os.fstat(handle.fileno()).st_size
            ):
                return None
            matrix = np.empty(shape)
            handle.readinto(matrix)
            rest = handle.read()  # counts, words and trailer
            handle.seek(0)
            checksum = zlib.crc32(matrix, zlib.crc32(handle.read(head)))
        body = len(rest) - _CACHE_TRAILER
        checksum = zlib.crc32(memoryview(rest)[:body], checksum)
        if body < 0 or checksum != int.from_bytes(rest[-4:], "little"):
            return None
        start = body - int.from_bytes(rest[body:-4], "little")
        text = str(memoryview(rest)[start:body], "utf-8")
        words = text.split("\n") if text else []
    except (OSError, ValueError):
        return None
    if shape[0] != len(words) or start != 8 * len(words) * counted:
        return None
    with contextlib.suppress(OSError):  # a record another user owns is still read
        os.utime(entry)
    return words, matrix, np.frombuffer(rest, "<i8", len(words)) if counted else None


def _cache_store(
    entry: str, words: list[str], matrix: np.ndarray, counts: list[int] | None
) -> None:
    """File a load as a cache record: the .npy of its rows, its counts as
    little-endian int64 if a sidecar was given, its words, then the trailer.
    Words hold no whitespace, so "\n" separates them."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, np.lib.format.header_data_from_array_1_0(matrix))
    text = "\n".join(words).encode("utf-8")
    # The parts are written in place rather than joined first: a miss
    # should cost little more than a parse.
    parts = [header.getvalue(), matrix]
    if counts is not None:
        parts.append(np.array(counts, dtype="<i8"))
    parts.append(text)
    checksum = 0
    for part in parts:
        checksum = zlib.crc32(part, checksum)
    parts.append(len(text).to_bytes(8, "little") + checksum.to_bytes(4, "little"))
    _cache_write(entry, parts)


def _cache_write(entry: str, parts: list) -> None:
    """Write the parts as the cache record `entry`, then evict past the size
    bound.  The record is written under a temporary name and renamed into
    place, so a reader sees a whole record or none.  Any OSError just leaves
    the record out."""
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
    """Remove the least recently used records until the cache holds at most
    ``_CACHE_MAX_BYTES``.  Only record files are counted or removed."""
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
    digits, or 17 if 10 would round the largest floats up to infinity).

    Every value is written as ``spec % value`` would write it, byte for byte;
    the rows are formatted by `_format_lines` in chunks of about
    ``_SAVE_CHUNK_VALUES`` values and streamed to the file."""
    spec = "%.10g" if np.all(np.abs(space.matrix) < 1.797693134e308) else "%.17g"
    words, matrix = space.vocab.words, space.matrix
    step = max(1, _SAVE_CHUNK_VALUES // space.dim)
    lines = (
        _format_lines(words[i : i + step], matrix[i : i + step], spec)
        for i in range(0, len(words), step)
    )
    _write_text(path, itertools.chain([f"{len(space)} {space.dim}\n"], lines))


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII text of 0 … 9999 as four zero-padded digits, thousands in
    the lowest byte of a little-endian uint64 (so that its bytes read in
    order), and the count of trailing zeros of each (4 for 0000)."""
    ascii_digits = np.frombuffer(b"0123456789", dtype=np.uint8)
    text = np.zeros((10, 10, 10, 10, 8), dtype=np.uint8)
    for place in range(4):  # thousands first
        text[..., place] = ascii_digits.reshape((10,) + (1,) * (3 - place))
    zero = ascii_digits == ord("0")
    zeros = (
        (zero[:, None, None, None] & zero[:, None, None] & zero[:, None] & zero).astype(np.int8)
        + (zero[:, None, None] & zero[:, None] & zero)
        + (zero[:, None] & zero)
        + zero
    )
    return text.reshape(10000, 8).view("<u8").reshape(10000), zeros.reshape(10000)


def _layout_table() -> np.ndarray:
    """The masks that lay out a value's 16-byte text in `%g` form, as
    (mask, half, form): for each form 10 * (F + 4) + (K - 1), with the
    point after byte 6 + F of the text (-4 <= F <= 9) and K significant
    digits, the bytes taken from the text shifted down one byte (up to the
    point), the bytes taken from the text itself (after it), and the point,
    each cut to the bytes `%g` writes and split into little-endian uint64
    halves (`_format_lines` has the byte layout)."""
    fixed = np.repeat(np.arange(-4, 10), 10)[:, None]
    kept = np.tile(np.arange(1, 11), 14)[:, None]
    point = 6 + fixed
    end = np.where(kept - 1 > fixed, 6 + kept, point)
    byte = np.arange(16)
    keep = (byte >= 5 + np.minimum(fixed, 0)) & (byte < end)
    masks = np.stack([byte < point, byte > point, byte == point]) & keep
    masks = masks * np.array([0xFF, 0xFF, ord(".")], dtype=np.uint8)[:, None, None]
    return np.ascontiguousarray(masks.view("<u8").transpose(0, 2, 1))


_DIGITS4, _TRAILING_ZEROS4 = _digit_tables()
_LAYOUT = _layout_table()
# 10**0 … 10**22, every one exact in float64.
_EXACT_POW10 = np.array([float(10**p) for p in range(23)], dtype=np.float64)


def _format_each(values: np.ndarray, spec: str) -> np.ndarray:
    """``spec % value`` of each value, as a NUL-padded bytes array: the
    per-value fallback of `_format_lines`, and its only Python `%`."""
    return np.array([(spec % x).encode("ascii") for x in values.tolist()], dtype=bytes)


def _format_lines(words: Sequence[str], rows: np.ndarray, spec: str) -> bytes:
    """The UTF-8 lines ``"<word> <x1> ... <xd>\\n"`` of `words` and their
    `rows`, every value written as ``spec % value`` would write it.

    For "%.10g" a value is placed exactly when its decimal exponent E
    (guessed as floor(log10|x|)) has |9 - E| <= 22: |x| scaled by the exact
    power 10**(9 - E) is then off by at most 2**-20 (one rounding of a
    number below 2**34), so rounding it to the nearest integer gives the
    10 digits `%` gives whenever it lies in [1e9, 1e10) and its fraction is
    not within 1e-4 of one half.  Every other value (zero, |x| outside about
    [1e-13, 1e32), a near tie, a guess that misses the digit range, and
    every value for "%.17g") goes to `_format_each`.  The digits come from
    4-digit ASCII tables and are laid out in `%g`'s fixed (-4 <= E < 10) or
    scientific form by uint64 masks, in a NUL-padded row of words per value
    that also holds its separator; dropping the NULs joins the values.
    """
    n_rows, d = rows.shape
    x = rows.reshape(-1)
    size = x.size
    magnitude = np.abs(x)
    with np.errstate(divide="ignore"):
        exponent = np.floor(np.log10(magnitude))
    # Clipped shifts (zero, tiny or huge values) leave the scaled value
    # outside [1e9, 1e10), so the range check sends them to the fallback.
    shift = np.clip(9.0 - exponent, -22.0, 22.0).astype(np.int8)
    scaled = magnitude * np.take(_EXACT_POW10, np.maximum(shift, np.int8(0)).astype(np.intp))
    large = np.flatnonzero(shift < 0)
    if large.size:
        scaled[large] = magnitude[large] / _EXACT_POW10[-shift[large]]
    mantissa = np.rint(scaled)
    fast = (scaled >= 1e9) & (mantissa < 1e10) & (np.abs(scaled - mantissa) < 0.4999)
    if spec != "%.10g":
        fast[:] = False
    slow = np.flatnonzero(~fast)
    texts = _format_each(x[slow], spec)
    mantissa[slow] = 1e9
    shift[slow] = 9

    # The ten digits, as groups of 2, 4 and 4, fill bytes 6 … 15 of a
    # 16-byte text (two uint64 words) whose bytes 2 … 5 are "0", the zeros
    # of 0.000ddd.
    high = np.floor(mantissa / 1e8)
    rest = mantissa - high * 1e8
    middle = np.floor(rest / 1e4)
    high, middle, low = (a.astype(np.intp) for a in (high, middle, rest - middle * 1e4))
    text_low = (np.take(_DIGITS4, high) << np.uint64(32)) | np.uint64(0x303030300000)
    text_high = np.take(_DIGITS4, middle) | (np.take(_DIGITS4, low) << np.uint64(32))
    zeros = np.take(_TRAILING_ZEROS4, low)
    zeros += (low == 0) * (
        np.take(_TRAILING_ZEROS4, middle) + (middle == 0) * np.take(_TRAILING_ZEROS4, high)
    )

    # The point follows the text's byte 6 + F (F = E in the fixed form, 0
    # in the scientific).  Laid out, the bytes up to it move down one byte,
    # which frees byte 0 for the sign, so the value's text is bytes
    # 5 + min(F, 0) (the integer part, "0" below 1) up to its last
    # significant digit, or up to the point if no digit follows it.
    power = np.int8(9) - shift
    scientific = (power < -4) | (power >= 10)
    fixed = np.where(scientific, np.int8(0), power).astype(np.intp)
    form = 10 * fixed + (49 - zeros)
    (down_lo, down_hi), (same_lo, same_hi), (dot_lo, dot_hi) = (
        [np.take(half, form) for half in mask] for mask in _LAYOUT
    )
    body_low = ((text_low >> np.uint64(8)) | (text_high << np.uint64(56))) & down_lo
    body_low |= text_low & same_lo
    body_low |= dot_lo
    body_low |= (x < 0) * np.uint64(ord("-"))
    body_high = (text_high >> np.uint64(8)) & down_hi
    body_high |= text_high & same_hi
    body_high |= dot_hi

    # One NUL-padded row of uint64 words per value: the text, the exponent
    # "e±XX" in the next four bytes, room for a fallback text, and the
    # separator last.  No text holds a NUL, so dropping the NULs leaves the
    # values one after another.
    words_per_value = max(3, (texts.itemsize + 8) // 8)
    out = np.zeros((size, words_per_value), dtype="<u8")
    out[:, 0] = body_low
    out[:, 1] = body_high
    if scientific.any():
        where = np.flatnonzero(scientific)
        written = power[where]  # |E| < 100 on this path: two digits
        sign = np.where(written < 0, np.uint64(0x2D65), np.uint64(0x2B65))  # "e-", "e+"
        out[where, 2] = (np.take(_DIGITS4, np.abs(written)) & np.uint64(0xFFFF0000)) | sign
    row_bytes = 8 * words_per_value
    out_bytes = out.view(np.uint8)
    if slow.size:
        padded = np.zeros((slow.size, row_bytes - 1), dtype=np.uint8)
        padded[:, : texts.itemsize] = texts.view(np.uint8).reshape(slow.size, -1)
        out_bytes[slow, :-1] = padded
    separators = out_bytes.reshape(n_rows, d, row_bytes)[:, :, -1]
    separators[:] = ord(" ")
    separators[:, -1] = ord("\n")

    flat = out_bytes.reshape(-1)
    lines = np.compress(flat != 0, flat).tobytes().split(b"\n")
    return b"\n".join(map(b" ".join, zip(map(str.encode, words), lines))) + b"\n"


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


def _write_text(path: str | Path, chunks: Iterable[str | bytes]) -> None:
    """Write the chunks to `path`, text as UTF-8 and bytes as they are,
    making its parent directories, and record the sha256 of the bytes
    written inside `_recording_inputs`.  Every output file is written here."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for chunk in chunks:
            data = chunk if isinstance(chunk, bytes) else chunk.encode("utf-8")
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
    if isinstance(value, np.generic):  # a numpy scalar is written as its value
        value = value.item()
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
    they read back exactly; None is ``NA``, booleans ``true``/``false``, and
    a numpy scalar is written as its ``.item()``."""
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
    matrix = _scaled_rows(space.matrix, space.vocab.words)
    return EmbeddingSpace(space.vocab, matrix, normalized=True)


def _scaled_rows(matrix: np.ndarray, words: Sequence[str]) -> np.ndarray:
    """The rows, those of `words`, over their L2 norms; a zero row names its word."""
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"zero vector for {words[zero[0]]!r}")
    return matrix / norms[:, None]


def _word_rows(
    space: EmbeddingSpace, words: Sequence[str] | None = None, unit: bool = False
) -> np.ndarray:
    """The rows of `words`, or of the whole vocabulary when None; with `unit`
    at unit length: a normalized space's as they are, another's scaled after
    the gather, so only the listed rows are.  Only the space's own
    ``vocab.words`` tuple is read in place, as its matrix itself; any other
    list is gathered, an unknown word being a KeyError."""
    if words is None or isinstance(words, tuple) and words == space.vocab.words:
        words, rows = space.vocab.words, space.matrix
    else:
        rows = space.matrix[_positions(space.vocab, words)]
    return _scaled_rows(rows, words) if unit and not space.normalized else rows


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
    a, b = _word_rows(space, [w1, w2], unit=True)
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
    unit = _word_rows(space, words, unit=True)
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
        cut = np.partition(sims, kth, axis=1)[:, kth, None]
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
    matrix = _word_rows(space, words)  # first, so an unknown word is named as such
    frequency = None
    if space.vocab.frequency is not None:
        frequency = {w: space.vocab.frequency[w] for w in words}
    return EmbeddingSpace(Vocabulary(tuple(words), frequency), matrix, space.normalized)
