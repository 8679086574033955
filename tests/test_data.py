import json
from collections import Counter

import numpy as np
import pytest

from sql2text.data import (
    BOS,
    EOS,
    PAD,
    SPECIAL_TOKENS,
    UNK,
    Vocabulary,
    build_vocab,
    ExamplePair,
    ingest_dataset,
    load_pretrained_vectors,
    tokenize_text,
)
from sql2text.graphs import SUPER_TOKEN, build_graph
from sql2text.parser import _MAX_DEPTH, parse


def write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


class TestIngest:
    def test_valid_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [
            {"sql": "SELECT a WHERE b = val0", "text": "Which A where B equals val_0"},
            {"sql": "SELECT name", "text": "which name"},
        ])
        result = ingest_dataset(path)
        assert len(result.pairs) == 2
        assert result.skip_count == 0
        assert result.pairs[0].target == ("which", "a", "where", "b", "equals", "val_0")

    def test_unsupported_sql_skipped_with_count(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [
            {"sql": "SELECT a JOIN b", "text": "nope"},
            {"sql": "SELECT name", "text": "which name"},
        ])
        result = ingest_dataset(path)
        assert len(result.pairs) == 1
        assert result.skip_count == 1
        assert result.skipped[0][0] == 1

    def test_too_deeply_nested_sql_skipped_with_reason(self, tmp_path):
        path = tmp_path / "data.jsonl"
        deep = "SELECT a WHERE " + "(" * (_MAX_DEPTH + 1) + "b = 1" + ")" * (_MAX_DEPTH + 1)
        write_jsonl(path, [
            {"sql": "SELECT name", "text": "which name"},
            {"sql": deep, "text": "which a where b equals 1"},
        ])
        result = ingest_dataset(path)
        assert len(result.pairs) == 1
        (line_no, reason), = result.skipped
        assert line_no == 2
        assert f"nested deeper than {_MAX_DEPTH} levels" in reason

    def test_sql_with_a_lone_surrogate_skipped_with_reason(self, tmp_path):
        # JSON's \ud800 escape decodes to a lone surrogate.
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [
            {"sql": 'SELECT "\ud800" WHERE', "text": "x"},
            {"sql": "SELECT name", "text": "which name"},
        ])
        assert "\\ud800" in path.read_text(encoding="utf-8")
        result = ingest_dataset(path)
        assert len(result.pairs) == 1
        (line_no, reason), = result.skipped
        assert line_no == 1
        assert reason.startswith("expected a column name, found 'end of input' at byte 18")

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"sql": "SELECT a", "text": "x"}\nnot json\n', encoding="utf-8")
        with pytest.raises(ValueError) as err:
            ingest_dataset(path)
        assert "line 2" in str(err.value)

    def test_missing_fields_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"sql": "SELECT a"}])
        with pytest.raises(ValueError) as err:
            ingest_dataset(path)
        assert "line 1" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ingest_dataset(tmp_path / "absent.jsonl")

    def test_empty_text_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [{"sql": "SELECT a", "text": "   "}])
        result = ingest_dataset(path)
        assert result.pairs == []
        assert result.skip_count == 1

    def test_example_pair_flows_through_pipeline(self, tmp_path):
        path = tmp_path / "data.jsonl"
        sql = ("SELECT company WHERE assets > val0 AND sales > val0 "
               "AND industry <= val1 AND profits = val2")
        write_jsonl(path, [{"sql": sql, "text": "which company where assets more than val_0"}])
        (pair,) = ingest_dataset(path).pairs
        graph = build_graph(parse(pair.sql))
        assert len(graph.nodes) == 10


class TestVocabulary:
    def test_specials_fixed(self):
        vocab = Vocabulary.from_counts(Counter({"a": 3}))
        assert vocab.tokens[:4] == list(SPECIAL_TOKENS)
        assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)

    @pytest.mark.parametrize(
        "tokens",
        [["a", "b"], ["<bos>", "<pad>", "<eos>", "<unk>", "a"], list(SPECIAL_TOKENS[:3])],
    )
    def test_tokens_must_start_with_the_specials(self, tokens):
        with pytest.raises(ValueError):
            Vocabulary(tokens)

    def test_min_freq_drops_rare_tokens(self):
        vocab = Vocabulary.from_counts(Counter({"a": 2, "b": 1}), min_freq=2)
        assert "a" in vocab
        assert "b" not in vocab
        assert vocab.id("b") == UNK

    def test_placeholders_always_kept(self):
        vocab = Vocabulary.from_counts(Counter({"val_3": 1, "rare": 1, "val_3\n": 1}), min_freq=5)
        assert "val_3" in vocab
        assert "rare" not in vocab
        assert "val_3\n" not in vocab

    def test_deterministic_assignment(self):
        counts = Counter({"b": 2, "a": 2, "c": 5})
        v1 = Vocabulary.from_counts(counts)
        v2 = Vocabulary.from_counts(Counter(dict(reversed(list(counts.items())))))
        assert v1.tokens == v2.tokens
        assert v1.tokens[4:] == ["c", "a", "b"]  # freq desc, then lexicographic

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary.from_counts(Counter({"a": 1}))
        assert vocab.id("zzz") == UNK
        assert vocab.words(vocab.ids(["a", "zzz"])) == ["a", "<unk>"]


class TestBuildVocab:
    def test_source_covers_node_tokens_and_super(self):
        pairs = [ExamplePair("SELECT a WHERE b > val0", tokenize_text("which a where b more than val_0"))]
        src, tgt = build_vocab(pairs)
        for token in ("select", "a", "b", ">", "val_0", SUPER_TOKEN):
            assert token in src, token
        for token in ("which", "more", "val_0"):
            assert token in tgt

    def test_identical_corpora_identical_ids(self):
        pairs = [
            ExamplePair("SELECT a WHERE b > val0", tokenize_text("which a where b more than val_0")),
            ExamplePair("SELECT c", tokenize_text("which c")),
        ]
        s1, t1 = build_vocab(pairs)
        s2, t2 = build_vocab(list(pairs))
        assert s1.tokens == s2.tokens
        assert t1.tokens == t2.tokens

    def test_placeholders_survive_min_freq(self):
        pairs = [ExamplePair("SELECT a WHERE b > val0", tokenize_text("which a"))]
        src, _ = build_vocab(pairs, min_freq=10)
        assert "val_0" in src


class TestPretrainedVectors:
    def test_zero_coverage_leaves_matrix(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("stranger 1.0 2.0\n", encoding="utf-8")
        vocab = Vocabulary.from_counts(Counter({"a": 1}))
        matrix = np.zeros((len(vocab), 2), dtype=np.float32)
        coverage = load_pretrained_vectors(path, vocab, matrix)
        assert coverage == 0.0
        assert not matrix.any()

    def test_full_coverage(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 3.0 4.0\n", encoding="utf-8")
        vocab = Vocabulary.from_counts(Counter({"a": 1, "b": 1}))
        matrix = np.zeros((len(vocab), 2), dtype=np.float32)
        assert load_pretrained_vectors(path, vocab, matrix) == 1.0

    def test_rows_copied_exactly(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.5 -2.5 0.25\nb 0.0 1.0 2.0\nc 9.0 8.0 7.0\n", encoding="utf-8")
        vocab = Vocabulary.from_counts(Counter({"a": 1, "b": 1, "c": 1}))
        matrix = np.zeros((len(vocab), 3), dtype=np.float32)
        coverage = load_pretrained_vectors(path, vocab, matrix)
        assert coverage == 1.0
        assert np.allclose(matrix[vocab.id("a")], [1.5, -2.5, 0.25])
        assert np.allclose(matrix[vocab.id("c")], [9.0, 8.0, 7.0])

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\n", encoding="utf-8")
        vocab = Vocabulary.from_counts(Counter({"a": 1}))
        matrix = np.zeros((len(vocab), 3), dtype=np.float32)
        with pytest.raises(ValueError) as err:
            load_pretrained_vectors(path, vocab, matrix)
        assert "expected 3" in str(err.value)

    def test_non_numeric_value_names_file_and_line(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\nb 3.0 x\n", encoding="utf-8")
        vocab = Vocabulary.from_counts(Counter({"a": 1, "b": 1}))
        matrix = np.zeros((len(vocab), 2), dtype=np.float32)
        with pytest.raises(ValueError) as err:
            load_pretrained_vectors(path, vocab, matrix)
        assert f"{path}: line 2" in str(err.value)
        assert "'x'" in str(err.value)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e39"])
    def test_non_finite_value_rejected(self, tmp_path, value):
        # 1e39 is finite as a Python float but overflows float32.
        path = tmp_path / "vec.txt"
        path.write_text(f"a 1.0 2.0\nb {value} 4.0\n", encoding="utf-8")
        vocab = Vocabulary.from_counts(Counter({"a": 1, "b": 1}))
        matrix = np.zeros((len(vocab), 2), dtype=np.float32)
        with pytest.raises(ValueError) as err, np.errstate(over="ignore"):
            load_pretrained_vectors(path, vocab, matrix)
        assert f"{path}: line 2" in str(err.value)
        assert "non-finite" in str(err.value)
        assert np.isfinite(matrix).all()

    def test_uncovered_rows_keep_initialization(self, tmp_path):
        path = tmp_path / "vec.txt"
        path.write_text("a 1.0 2.0\n", encoding="utf-8")
        vocab = Vocabulary.from_counts(Counter({"a": 1, "b": 1}))
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(len(vocab), 2)).astype(np.float32)
        before = matrix.copy()
        load_pretrained_vectors(path, vocab, matrix)
        b_row = vocab.id("b")
        assert np.array_equal(matrix[b_row], before[b_row])
        assert np.allclose(matrix[vocab.id("a")], [1.0, 2.0])
