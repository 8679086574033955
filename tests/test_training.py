import warnings
from collections import Counter

import numpy as np
import pytest

from sql2text.checkpoint import (
    CheckpointError,
    ModelCheckpoint,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from sql2text.data import ExamplePair, build_vocab, tokenize_text
from sql2text.graphs import template_interpret
from sql2text.optim import clip_engages
from sql2text.parser import parse
from sql2text.training import (
    TrainConfig,
    TrainingDivergedError,
    train,
    write_metrics_csv,
)

SQLS = [
    "SELECT a WHERE b > val0",
    "SELECT c",
    "SELECT COUNT d WHERE e = val0 AND f < val1",
    "SELECT g WHERE h <= val0",
]


def toy_pairs():
    return [ExamplePair(s, tokenize_text(template_interpret(parse(s)))) for s in SQLS]


def small_config(**kwargs):
    defaults = dict(word_dim=8, hidden=8, hop_size=1, epochs=2, seed=0, batch_size=2)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


class TestTrainLoop:
    def test_loss_decreases_on_repeated_example(self):
        pairs = [toy_pairs()[0]]
        result = train(small_config(epochs=50, batch_size=1), pairs)
        assert result.metrics[-1].train_loss < result.metrics[0].train_loss

    def test_loss_decreases_monotonically_over_first_20_steps(self):
        pair = toy_pairs()[0]
        result = train(
            small_config(epochs=20, batch_size=1, dropout=0.0, seed=0), [pair]
        )
        losses = [m.train_loss for m in result.metrics]
        assert all(later < earlier for earlier, later in zip(losses, losses[1:]))

    def test_fixed_seed_is_reproducible(self):
        r1 = train(small_config(epochs=3), toy_pairs())
        r2 = train(small_config(epochs=3), toy_pairs())
        assert r1.metrics[0].train_loss == r2.metrics[0].train_loss
        assert [m.train_loss for m in r1.metrics] == [m.train_loss for m in r2.metrics]
        for name, arr in r1.checkpoint.arrays.items():
            assert np.array_equal(arr, r2.checkpoint.arrays[name])

    def test_empty_dev_set_skips_dev_metrics(self):
        result = train(small_config(), toy_pairs(), [])
        assert all(m.dev_bleu is None for m in result.metrics)
        assert result.best_dev_bleu is None

    def test_dev_tracking_keeps_best(self):
        pairs = toy_pairs()
        result = train(small_config(epochs=4), pairs, pairs[:2])
        logged = [m.dev_bleu for m in result.metrics if m.dev_bleu is not None]
        assert result.best_dev_bleu == max(logged)

    def test_empty_train_set_rejected(self):
        with pytest.raises(ValueError):
            train(small_config(), [])

    def test_duplicated_example_keeps_token_averaged_loss(self):
        pair = toy_pairs()[0]
        base = train(small_config(epochs=1, dropout=0.0, batch_size=30), [pair])
        doubled = train(small_config(epochs=1, dropout=0.0, batch_size=30), [pair, pair])
        assert base.metrics[0].train_loss == pytest.approx(
            doubled.metrics[0].train_loss, rel=1e-6
        )

    def test_divergence_guard(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingDivergedError) as err:
                train(
                    small_config(epochs=4, batch_size=1, lr=1e30, clip_norm=1e35),
                    toy_pairs(),
                )
        assert "epoch" in str(err.value)

    def test_clip_engagement_matches_logged_norms(self):
        result = train(small_config(epochs=3, clip_norm=0.05), toy_pairs())
        assert result.batch_logs, "expected per-batch norm logs"
        for log in result.batch_logs:
            assert log.clipped == clip_engages(log.grad_norm, 0.05)
        assert any(log.clipped for log in result.batch_logs)

    def test_vocab_stable_across_runs(self):
        r1 = train(small_config(epochs=1), toy_pairs())
        r2 = train(small_config(epochs=1), toy_pairs())
        assert r1.checkpoint.src_tokens == r2.checkpoint.src_tokens
        assert r1.checkpoint.tgt_tokens == r2.checkpoint.tgt_tokens

    def test_pretrained_vectors_wire_in(self, tmp_path):
        vec = tmp_path / "vectors.txt"
        dims = " ".join(["0.5"] * 8)
        vec.write_text(f"select {dims}\nwhich {dims}\n", encoding="utf-8")
        result = train(small_config(epochs=1, pretrained_vectors=str(vec)), toy_pairs())
        assert result.vector_coverage > 0.0


class TestOneGraphPath:
    DEV_SQLS = ["SELECT zeta WHERE omega > val0", "SELECT c"]

    def dev_pairs(self):
        texts = ["which zeta where omega more than val_0 unseen", "show c novel"]
        return [ExamplePair(s, tokenize_text(t)) for s, t in zip(self.DEV_SQLS, texts)]

    def test_each_distinct_query_is_parsed_once(self, monkeypatch):
        import sql2text.data
        import sql2text.model

        calls = Counter()
        for module in (sql2text.model, sql2text.data):
            def counting(sql, *args, _parse=module.parse, **kwargs):
                calls[sql] += 1
                return _parse(sql, *args, **kwargs)

            monkeypatch.setattr(module, "parse", counting)
        pairs = toy_pairs() + toy_pairs()[:2]
        train(small_config(epochs=2, min_freq=2), pairs, self.dev_pairs())
        assert calls == Counter(set(SQLS) | set(self.DEV_SQLS))

    @pytest.mark.parametrize("overrides", [{"undirected": True}, {"ge_method": "supernode"}])
    def test_dev_data_stays_out_of_the_vocabulary(self, overrides):
        pairs = toy_pairs()
        result = train(small_config(epochs=1, **overrides), pairs, self.dev_pairs())
        src_vocab, tgt_vocab = build_vocab(pairs, 1)
        assert result.model.src_vocab == src_vocab
        assert result.model.tgt_vocab == tgt_vocab
        assert "zeta" not in src_vocab and "unseen" not in tgt_vocab


class TestMetricsCsv:
    def test_columns_and_config_echo(self, tmp_path):
        result = train(small_config(epochs=2), toy_pairs(), toy_pairs()[:1])
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, result.metrics, small_config(epochs=2))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "epoch,train_loss,dev_bleu,grad_norm_mean"
        assert len(lines) == 2 + len(result.metrics)


class TestCheckpoint:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        result = train(small_config(epochs=1), toy_pairs())
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, result.checkpoint)
        save_checkpoint(p2, load_checkpoint(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_roundtrip_preserves_generation(self, tmp_path):
        result = train(small_config(epochs=2), toy_pairs())
        probe = SQLS[0]
        before = result.model.generate(probe)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.checkpoint)
        restored = restore_model(load_checkpoint(path))
        assert restored.generate(probe) == before

    def test_arrays_roundtrip_bitwise(self, tmp_path):
        result = train(small_config(epochs=1), toy_pairs())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.checkpoint)
        loaded = load_checkpoint(path)
        assert set(loaded.arrays) == set(result.checkpoint.arrays)
        for name, arr in result.checkpoint.arrays.items():
            assert np.array_equal(arr, loaded.arrays[name])
            assert arr.dtype == loaded.arrays[name].dtype

    def test_inconsistent_config_rejected(self, tmp_path):
        result = train(small_config(epochs=1), toy_pairs())
        ckpt = result.checkpoint
        tampered = ModelCheckpoint(
            config={**ckpt.config, "word_dim": 16},
            src_tokens=ckpt.src_tokens,
            tgt_tokens=ckpt.tgt_tokens,
            arrays=ckpt.arrays,
        )
        with pytest.raises(CheckpointError):
            restore_model(tampered)

    def test_negative_length_norm_alpha_rejected(self):
        ckpt = train(small_config(epochs=1), toy_pairs()).checkpoint
        tampered = ModelCheckpoint(
            config={**ckpt.config, "length_norm_alpha": -1.0},
            src_tokens=ckpt.src_tokens,
            tgt_tokens=ckpt.tgt_tokens,
            arrays=ckpt.arrays,
        )
        with pytest.raises(CheckpointError, match="length_norm_alpha"):
            restore_model(tampered)

    def test_corrupt_file_detected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "none.ckpt")

    def test_truncated_payload_detected(self, tmp_path):
        result = train(small_config(epochs=1), toy_pairs())
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, result.checkpoint)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 64])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
