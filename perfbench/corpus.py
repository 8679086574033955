"""Seeded WikiSQL-shaped corpus generator for the benchmark.

Queries are built as SQL text and round-tripped through ``parse``; the
interpretation is ``template_interpret`` of the parsed query, so every
pair is one the program's own dialect accepts.  The shape of a corpus is
stratified rather than sampled: conditions per query, aggregation, words
per column and comparators follow fixed cycles, whatever the seed, so two
seeds cost nearly the same to train on and differ only in the words and
placeholders drawn.

The column pool is the vocabulary knob.  ``small`` draws column words
from a fixed list of 48 words (about 80 source and 80 target types in
all); ``large`` draws them from a fixed pool of pseudo-words so large
that nearly every example adds new types.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

from sql2text.data import build_vocab, ingest_dataset
from sql2text.graphs import build_graph, template_interpret
from sql2text.parser import COMPARATORS, parse

SMALL_POOL = (
    "company assets sales industry profits player team position school "
    "country city population area capital year round pick college name "
    "height weight age score points goals wins losses rank title artist "
    "album genre label track length date venue attendance opponent result "
    "record season league party district state county office election vote"
).split()

_ONSETS = "b c d f g h j k l m n p r s t v w z".split()
_NUCLEI = "a e i o u".split()
# Three-syllable words: 90**3 = 729,000 candidates, none a dialect keyword.
_SYLLABLES = [o + n for o in _ONSETS for n in _NUCLEI]

# Aggregation slots, cycled; WikiSQL selects a plain column most often.
_AGGREGATIONS = (None, "count", None, "max", None, "min", None, "sum", None, "avg")
MAX_CONDITIONS = 4
# Words per column name, cycled over the columns of a corpus.
_WORD_COUNTS = (1, 2, 1, 3, 2)


def _large_word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(3))


class _QueryMaker:
    """Draws words and placeholders at random and cycles everything that
    sets the cost of an example: conditions, aggregation, words per column
    and comparator (whose interpretation is one to five words)."""

    def __init__(self, seed: int, pool: str):
        if pool not in ("small", "large"):
            raise ValueError(f"unknown column pool {pool!r}")
        self.rng = random.Random(f"{pool}:{seed}")
        self.pool = pool
        self.columns = itertools.count()
        self.comparators = itertools.count()

    def column(self) -> str:
        n_words = _WORD_COUNTS[next(self.columns) % len(_WORD_COUNTS)]
        if self.pool == "small":
            words = self.rng.sample(SMALL_POOL, n_words)
        else:
            words = [_large_word(self.rng) for _ in range(n_words)]
        name = " ".join(words)
        return f'"{name}"' if n_words > 1 else name

    def query(self, index: int) -> str:
        n_conditions = 1 + index % MAX_CONDITIONS
        aggregation = _AGGREGATIONS[(index // MAX_CONDITIONS) % len(_AGGREGATIONS)]
        select = self.column()
        head = f"SELECT {aggregation.upper()} {select}" if aggregation else f"SELECT {select}"
        conditions = []
        for j in range(n_conditions):
            # Values reuse an earlier placeholder one time in four, so some
            # constraint nodes are shared between conditions.
            value = self.rng.randrange(j) if j and self.rng.random() < 0.25 else j
            comparator = COMPARATORS[next(self.comparators) % len(COMPARATORS)]
            conditions.append(f"{self.column()} {comparator} val_{value}")
        return f"{head} WHERE {' AND '.join(conditions)}"


def make_pairs(
    seed: int, n: int, pool: str, exclude: frozenset[str] = frozenset()
) -> list[dict]:
    """``n`` distinct {"sql", "text"} records; the same seed gives the same
    records.  Queries in ``exclude`` are skipped, which keeps held-out sets
    disjoint from a training corpus."""
    maker = _QueryMaker(seed, pool)
    records: list[dict] = []
    seen = set(exclude)
    while len(records) < n:
        sql = maker.query(len(records))
        if sql in seen:
            continue
        seen.add(sql)
        records.append({"sql": sql, "text": template_interpret(parse(sql))})
    return records


def write_jsonl(path: Path, records: list[dict]) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return path


def shape(path: Path) -> dict:
    """Workload shape of a JSON Lines corpus, read the way the program
    reads it."""
    pairs = ingest_dataset(path).pairs
    src_vocab, tgt_vocab = build_vocab(pairs)
    graphs = [build_graph(parse(p.sql)) for p in pairs]
    return {
        "examples": len(pairs),
        "target_tokens": sum(len(p.target) for p in pairs),
        "src_vocab": len(src_vocab),
        "tgt_vocab": len(tgt_vocab),
        "mean_nodes": sum(len(g.nodes) for g in graphs) / len(graphs),
        "mean_edges": sum(len(g.edges) for g in graphs) / len(graphs),
    }
