"""Dataset ingestion, vocabulary construction and pretrained word vectors."""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .graphs import SUPER_TOKEN, QueryGraph, build_graph
from .parser import SqlParseError, parse

PAD, BOS, EOS, UNK = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<bos>", "<eos>", "<unk>")

_PLACEHOLDER_TOKEN_RE = re.compile(r"val_\d+\Z")


class Vocabulary:
    """Token/id bijection with fixed specials at ids 0..3."""

    def __init__(self, tokens: list[str]):
        if tuple(tokens[:4]) != SPECIAL_TOKENS:
            raise ValueError(f"vocabulary must start with {', '.join(SPECIAL_TOKENS)}")
        self.tokens = list(tokens)
        self._index = {t: i for i, t in enumerate(self.tokens)}
        if len(self._index) != len(self.tokens):
            raise ValueError("duplicate tokens in vocabulary")

    @classmethod
    def from_counts(
        cls, counts: Counter, min_freq: int = 1, always_keep: tuple[str, ...] = ()
    ) -> "Vocabulary":
        """Deterministic id assignment: frequency desc, then lexicographic.

        Tokens below min_freq map to UNK, except placeholders (val_0,
        val_1, ...) and ``always_keep`` entries, which are retained
        regardless of frequency.
        """
        kept = {
            t
            for t, c in counts.items()
            if c >= min_freq or _PLACEHOLDER_TOKEN_RE.match(t)
        }
        kept.update(always_keep)
        kept.difference_update(SPECIAL_TOKENS)
        ordered = sorted(kept, key=lambda t: (-counts.get(t, 0), t))
        return cls(list(SPECIAL_TOKENS) + ordered)

    def id(self, token: str) -> int:
        return self._index.get(token, UNK)

    def ids(self, tokens) -> list[int]:
        return [self.id(t) for t in tokens]

    def token(self, idx: int) -> str:
        return self.tokens[idx]

    def words(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, Vocabulary) and self.tokens == other.tokens


@dataclass(frozen=True)
class ExamplePair:
    """One SQL query with its tokenized interpretation."""

    sql: str
    target: tuple[str, ...]

    def __post_init__(self):
        if not self.target:
            raise ValueError("target token list must be non-empty")


@dataclass
class IngestResult:
    pairs: list[ExamplePair] = field(default_factory=list)
    skipped: list[tuple[int, str]] = field(default_factory=list)  # (line number, reason)

    @property
    def skip_count(self) -> int:
        return len(self.skipped)


def tokenize_text(text: str) -> tuple[str, ...]:
    return tuple(text.lower().split())


def ingest_dataset(path) -> IngestResult:
    """Read a JSON Lines file of {"sql": ..., "text": ...} objects.

    Queries outside the dialect are counted and skipped; invalid UTF-8,
    malformed JSON, and missing or non-string fields raise ValueError
    with the offending line number.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"dataset not found: {path}")
    result = IngestResult()
    with path.open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {line_no} is not valid UTF-8") from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise ValueError(f"{path}: malformed JSON on line {line_no}: {exc}") from exc
            if not (
                isinstance(record, dict)
                and isinstance(record.get("sql"), str)
                and isinstance(record.get("text"), str)
            ):
                raise ValueError(
                    f"{path}: line {line_no} must be an object with string 'sql' and 'text' fields"
                )
            try:
                parse(record["sql"])
            except SqlParseError as exc:
                result.skipped.append((line_no, str(exc)))
                continue
            target = tokenize_text(record["text"])
            if not target:
                result.skipped.append((line_no, "empty interpretation text"))
                continue
            result.pairs.append(ExamplePair(record["sql"], target))
    return result


def build_vocab(
    pairs: list[ExamplePair], min_freq: int = 1, graphs: dict[str, QueryGraph] | None = None
) -> tuple[Vocabulary, Vocabulary]:
    """(source vocabulary over the node-text tokens of ``graphs[sql]``, or
    of each query's directed graph without ``graphs``, target vocabulary
    over interpretation tokens)."""
    src_counts: Counter = Counter()
    tgt_counts: Counter = Counter()
    for pair in pairs:
        graph = graphs[pair.sql] if graphs is not None else build_graph(parse(pair.sql))
        for node in graph.nodes:
            src_counts.update(node.text)
        tgt_counts.update(pair.target)
    src_vocab = Vocabulary.from_counts(src_counts, min_freq, always_keep=(SUPER_TOKEN,))
    tgt_vocab = Vocabulary.from_counts(tgt_counts, min_freq)
    return src_vocab, tgt_vocab


def load_pretrained_vectors(path, vocab: Vocabulary, matrix: np.ndarray) -> float:
    """Overwrite embedding rows from a whitespace text file of
    ``token v1 ... vD`` lines; returns the fraction of non-special
    vocabulary tokens covered.  A wrong value count, or a non-numeric or
    non-finite value in a copied row, raises ValueError naming the line."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"vector file not found: {path}")
    dim = matrix.shape[1]
    covered = 0
    with path.open(encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split()
            if not parts:
                continue
            token, values = parts[0], parts[1:]
            if len(values) != dim:
                raise ValueError(
                    f"{path}: line {line_no} has {len(values)} values, expected {dim}"
                )
            if token in vocab:
                idx = vocab.id(token)
                if idx >= len(SPECIAL_TOKENS):
                    try:
                        row = np.asarray([float(v) for v in values], dtype=matrix.dtype)
                    except ValueError as exc:
                        raise ValueError(f"{path}: line {line_no}: {exc}") from None
                    if not np.isfinite(row).all():
                        raise ValueError(f"{path}: line {line_no} has a non-finite value")
                    matrix[idx] = row
                    covered += 1
    denom = len(vocab) - len(SPECIAL_TOKENS)
    return covered / denom if denom else 0.0
