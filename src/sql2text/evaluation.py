"""Corpus-level BLEU-4 and batch model evaluation."""

from __future__ import annotations

import hashlib
import json
import math
from collections import Counter
from dataclasses import dataclass, field

from . import __version__
from .data import ExamplePair
from .model import GraphToSequenceModel


@dataclass
class ExampleRecord:
    sql: str
    reference: list[str]
    hypothesis: list[str]
    sentence_bleu4: float
    error: str | None = None


@dataclass
class EvalReport:
    corpus_bleu4: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int
    examples: list[ExampleRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "corpus_bleu4": self.corpus_bleu4,
            "corpus_bleu4_x100": self.corpus_bleu4 * 100.0,
            "precisions": list(self.precisions),
            "brevity_penalty": self.brevity_penalty,
            "hyp_length": self.hyp_length,
            "ref_length": self.ref_length,
            "examples": [
                {
                    "sql": r.sql,
                    "reference": r.reference,
                    "hypothesis": r.hypothesis,
                    "sentence_bleu4": r.sentence_bleu4,
                    **({"error": r.error} if r.error else {}),
                }
                for r in self.examples
            ],
        }


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _pooled_counts(hypotheses, references) -> tuple[list[int], list[int], int, int]:
    matches = [0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            hyp_counts = _ngram_counts(hyp, n)
            ref_counts = _ngram_counts(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matches[n - 1] += sum(
                min(count, ref_counts[gram]) for gram, count in hyp_counts.items()
            )
    return matches, totals, hyp_len, ref_len


def _combine(precisions, bp: float) -> float:
    if any(p == 0.0 for p in precisions):
        return 0.0
    return bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)


def sentence_bleu4_smoothed(hypothesis, reference) -> float:
    """Diagnostic sentence score with add-one smoothing on the n-gram
    precisions."""
    matches, totals, hyp_len, ref_len = _pooled_counts([hypothesis], [reference])
    precisions = [(m + 1.0) / (t + 1.0) for m, t in zip(matches, totals)]
    if hyp_len == 0:
        return 0.0
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return _combine(precisions, bp)


def bleu4_corpus(hypotheses, references) -> EvalReport:
    """Corpus BLEU-4: modified n-gram precision with clipping, pooled over
    the corpus before the ratio, geometric mean of p1..p4 and the brevity
    penalty exp(1 - r/c) when c <= r.  Single reference per hypothesis."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference count mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("empty corpus")
    matches, totals, hyp_len, ref_len = _pooled_counts(hypotheses, references)
    precisions = tuple(
        (m / t if t > 0 else 0.0) for m, t in zip(matches, totals)
    )
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len > ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    return EvalReport(
        corpus_bleu4=_combine(precisions, bp),
        precisions=precisions,
        brevity_penalty=bp,
        hyp_length=hyp_len,
        ref_length=ref_len,
    )


def evaluate_model(
    model: GraphToSequenceModel,
    pairs: list[ExamplePair],
    beam_size: int | None = None,
) -> EvalReport:
    """Generate (beam search) for every pair and score the corpus.

    A generation failure is recorded on the example and scored as an
    empty hypothesis.
    """
    if not pairs:
        raise ValueError("no evaluation pairs")

    def generate(pair: ExamplePair) -> tuple[list[str], str | None]:
        try:
            return model.generate(pair.sql, beam_size=beam_size), None
        except Exception as exc:  # scored as empty, but kept in the report
            return [], f"{type(exc).__name__}: {exc}"

    outcomes = [generate(p) for p in pairs]
    hypotheses = [h for h, _ in outcomes]
    references = [list(p.target) for p in pairs]
    report = bleu4_corpus(hypotheses, references)
    report.examples = [
        ExampleRecord(
            sql=pair.sql,
            reference=list(pair.target),
            hypothesis=hyp,
            sentence_bleu4=sentence_bleu4_smoothed(hyp, list(pair.target)),
            error=err,
        )
        for pair, (hyp, err) in zip(pairs, outcomes)
    ]
    return report


def config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True).encode("utf-8")
    return hashlib.sha256(canonical).hexdigest()[:16]


def write_report(path, report: EvalReport, config: dict) -> None:
    payload = report.to_dict()
    payload["tool_version"] = __version__
    payload["config"] = config
    payload["config_hash"] = config_hash(config)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
