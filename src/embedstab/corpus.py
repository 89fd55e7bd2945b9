"""Corpus container, line deduplication, and document-sampling modes.

Sampling uses numpy's PCG64 generator (a documented, portable 64-bit PRNG);
shuffling is a Fisher-Yates permutation. Identical (corpus, mode, seed)
triples always produce identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .space import _read_lines

__all__ = [
    "Corpus",
    "SamplingMode",
    "SAMPLING_MODES",
    "dedup_lines",
    "sample",
    "load_corpus",
    "save_corpus",
]

SAMPLING_MODES = ("fixed", "shuffled", "bootstrapped")


@dataclass(frozen=True)
class Corpus:
    """An ordered sequence of documents, each an ordered sequence of tokens."""

    documents: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        for doc in self.documents:
            for token in doc:
                if not token:
                    raise ValueError("empty token in document")

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[tuple[str, ...]]:
        return iter(self.documents)

    def token_count(self) -> int:
        return sum(len(doc) for doc in self.documents)


@dataclass(frozen=True)
class SamplingMode:
    """One of fixed | shuffled | bootstrapped, with the seed that drives it."""

    mode: str
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in SAMPLING_MODES:
            raise ValueError(f"mode must be one of {SAMPLING_MODES}, got {self.mode!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit an unsigned 64-bit integer")


def dedup_lines(lines: Iterable[str]) -> list[str]:
    """Keep the first occurrence of each distinct line, preserving order."""
    seen: set[str] = set()
    kept: list[str] = []
    for line in lines:
        if line not in seen:
            seen.add(line)
            kept.append(line)
    return kept


def sample(corpus: Corpus, mode: SamplingMode) -> Corpus:
    """Resample documents: fixed = identity, shuffled = seeded permutation,
    bootstrapped = |documents| seeded draws with replacement."""
    if mode.mode == "fixed":
        return corpus
    if mode.mode == "bootstrapped" and len(corpus) == 0:
        raise ValueError("cannot bootstrap an empty corpus")
    rng = np.random.default_rng(mode.seed)
    if mode.mode == "shuffled":
        order = rng.permutation(len(corpus))
    else:
        order = rng.integers(0, len(corpus), size=len(corpus))
    return Corpus(tuple(corpus.documents[i] for i in order))


def tokenize(line: str, lowercase: bool = False) -> tuple[str, ...]:
    if lowercase:
        line = line.lower()
    return tuple(line.split())


def load_corpus(path: str | Path, lowercase: bool = False) -> Corpus:
    """Read one document per line, whitespace-tokenized; lines split only
    at line ends, and blank lines are skipped."""
    lines = _read_lines(path, "\n")
    return Corpus(tuple(tokenize(line, lowercase=lowercase) for _, (line,) in lines))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with Path(path).open("w", encoding="utf-8") as handle:
        for doc in corpus.documents:
            handle.write(" ".join(doc) + "\n")
