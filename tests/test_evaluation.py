import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sql2text.data import ExamplePair, build_vocab, tokenize_text
from sql2text.evaluation import (
    bleu4_corpus,
    config_hash,
    evaluate_model,
    sentence_bleu4_smoothed,
    write_report,
)
from sql2text.model import GraphToSequenceModel
from sql2text.training import TrainConfig


def reference_bleu(hypotheses, references):
    """Second, independent implementation of the scoring formula."""
    log_precisions = []
    for n in range(1, 5):
        clipped = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_ngrams = [tuple(hyp[i : i + n]) for i in range(len(hyp) - n + 1)]
            ref_ngrams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
            ref_counts = Counter(ref_ngrams)
            used = Counter()
            for gram in hyp_ngrams:
                total += 1
                if used[gram] < ref_counts[gram]:
                    used[gram] += 1
                    clipped += 1
        if total == 0 or clipped == 0:
            return 0.0
        log_precisions.append(math.log(clipped / total))
    c = sum(len(h) for h in hypotheses)
    r = sum(len(r_) for r_ in references)
    if c == 0:
        return 0.0
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * math.exp(sum(log_precisions) / 4.0)


def random_corpus(rng, n_pairs, vocab_size=12, min_len=1, max_len=15):
    tokens = [f"w{i}" for i in range(vocab_size)]
    hyps, refs = [], []
    for _ in range(n_pairs):
        hyps.append([tokens[rng.integers(vocab_size)] for _ in range(rng.integers(min_len, max_len + 1))])
        refs.append([tokens[rng.integers(vocab_size)] for _ in range(rng.integers(min_len, max_len + 1))])
    return hyps, refs


class TestBleuCorpus:
    def test_perfect_match_scores_one(self):
        refs = [["a", "b", "c", "d"], ["x", "y", "z", "w", "v"]]
        report = bleu4_corpus([list(r) for r in refs], refs)
        assert report.corpus_bleu4 == 1.0
        assert report.brevity_penalty == 1.0
        assert report.precisions == (1.0, 1.0, 1.0, 1.0)

    def test_no_shared_unigram_scores_zero(self):
        report = bleu4_corpus([["a", "b"]], [["c", "d"]])
        assert report.corpus_bleu4 == 0.0
        assert report.precisions[0] == 0.0

    def test_matches_independent_implementation(self):
        rng = np.random.default_rng(42)
        hyps, refs = random_corpus(rng, 50)
        report = bleu4_corpus(hyps, refs)
        assert report.corpus_bleu4 == pytest.approx(reference_bleu(hyps, refs), abs=1e-9)

    def test_brevity_penalty_hand_case(self):
        report = bleu4_corpus([["a", "b", "c"]], [["a", "b", "c", "d"]])
        assert report.brevity_penalty == pytest.approx(math.exp(1.0 - 4.0 / 3.0), abs=1e-12)

    def test_empty_hypothesis_scores_zero(self):
        report = bleu4_corpus([[]], [["a", "b"]])
        assert report.corpus_bleu4 == 0.0
        assert report.brevity_penalty == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu4_corpus([["a"]], [["a"], ["b"]])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu4_corpus([], [])

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        hyps, refs = random_corpus(rng, 8)
        base = bleu4_corpus(hyps, refs).corpus_bleu4
        order = rng.permutation(len(hyps))
        shuffled = bleu4_corpus([hyps[i] for i in order], [refs[i] for i in order]).corpus_bleu4
        assert shuffled == pytest.approx(base, abs=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000))
    def test_monotone_under_perfecting(self, seed):
        # Holds for a hypothesis no longer than its reference: each pooled
        # n-gram precision (M - m + t') / (T - t + t') stays >= M / T when
        # t' >= t, and the corpus gets no shorter, so the brevity penalty
        # cannot fall.
        rng = np.random.default_rng(seed)
        hyps, refs = random_corpus(rng, 6, min_len=4)
        base = bleu4_corpus(hyps, refs).corpus_bleu4
        for i in range(len(hyps)):
            if len(hyps[i]) > len(refs[i]):
                continue
            perfected = list(hyps)
            perfected[i] = list(refs[i])
            assert bleu4_corpus(perfected, refs).corpus_bleu4 >= base - 1e-12

    def test_perfecting_a_long_hypothesis_can_lower_bleu(self):
        # Seed 827, i=4: a 15-token hypothesis of a 4-token reference.
        # Perfecting it shortens a corpus that is already too short, so the
        # brevity penalty falls from 0.622 to 0.355.
        hyps, refs = random_corpus(np.random.default_rng(827), 6, min_len=4)
        assert (len(hyps[4]), len(refs[4])) == (15, 4)
        perfected = list(hyps)
        perfected[4] = list(refs[4])
        before, after = bleu4_corpus(hyps, refs), bleu4_corpus(perfected, refs)
        assert after.brevity_penalty < before.brevity_penalty
        assert after.corpus_bleu4 < before.corpus_bleu4
        assert before.corpus_bleu4 == pytest.approx(reference_bleu(hyps, refs), abs=1e-12)
        assert after.corpus_bleu4 == pytest.approx(reference_bleu(perfected, refs), abs=1e-12)

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 10_000))
    def test_components_recombine(self, seed):
        rng = np.random.default_rng(seed)
        hyps, refs = random_corpus(rng, 5)
        report = bleu4_corpus(hyps, refs)
        if all(p > 0 for p in report.precisions):
            recombined = report.brevity_penalty * math.exp(
                sum(math.log(p) for p in report.precisions) / 4.0
            )
        else:
            recombined = 0.0
        assert report.corpus_bleu4 == pytest.approx(recombined, abs=1e-12)


class TestSentenceBleu:
    def test_smoothed_score_positive_for_partial_match(self):
        score = sentence_bleu4_smoothed(["a", "b"], ["a", "c"])
        assert 0.0 < score < 1.0

    def test_empty_hypothesis_zero(self):
        assert sentence_bleu4_smoothed([], ["a"]) == 0.0


def tiny_model(pairs, seed=0):
    src, tgt = build_vocab(pairs)
    cfg = TrainConfig(word_dim=8, hidden=8, hop_size=1, dropout=0.0, max_decode_len=8, seed=seed)
    return GraphToSequenceModel(src, tgt, cfg)


class TestEvaluateModel:
    def test_report_structure(self, tmp_path):
        pairs = [
            ExamplePair("SELECT a", tokenize_text("which a")),
            ExamplePair("SELECT b WHERE c = val0", tokenize_text("which b where c equals val_0")),
        ]
        model = tiny_model(pairs)
        report = evaluate_model(model, pairs)
        assert len(report.examples) == 2
        assert 0.0 <= report.corpus_bleu4 <= 1.0
        out = tmp_path / "report.json"
        write_report(out, report, {"seed": 0})
        payload = json.loads(out.read_text())
        assert payload["config_hash"] == config_hash({"seed": 0})
        assert payload["corpus_bleu4_x100"] == pytest.approx(payload["corpus_bleu4"] * 100)
        assert {"sql", "reference", "hypothesis", "sentence_bleu4"} <= set(payload["examples"][0])

    def test_empty_pairs_rejected(self):
        pairs = [ExamplePair("SELECT a", tokenize_text("which a"))]
        model = tiny_model(pairs)
        with pytest.raises(ValueError):
            evaluate_model(model, [])

    def test_generation_failure_recorded_as_empty(self):
        pairs = [
            ExamplePair("SELECT a", tokenize_text("which a")),
            ExamplePair("SELECT b", tokenize_text("which b")),
        ]
        model = tiny_model(pairs)
        original = model.generate

        def flaky(sql, beam_size=None, greedy=False):
            if "b" in sql:
                raise RuntimeError("boom")
            return original(sql, beam_size=beam_size, greedy=greedy)

        model.generate = flaky
        report = evaluate_model(model, pairs)
        assert report.examples[1].hypothesis == []
        assert "boom" in report.examples[1].error

    def test_identical_inputs_give_identical_report_bytes(self, tmp_path):
        pairs = [ExamplePair("SELECT a", tokenize_text("which a"))]
        model = tiny_model(pairs)
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        write_report(p1, evaluate_model(model, pairs), {"seed": 1})
        write_report(p2, evaluate_model(model, pairs), {"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()
