"""The one run configuration: validation on every route that builds it,
immutability, the estimator's parameters and older checkpoint configs."""

import hashlib
import json
import math
from dataclasses import FrozenInstanceError, asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from sql2text.checkpoint import (
    CheckpointError,
    ModelCheckpoint,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from sql2text.cli import CONFIG_ENV_VAR, main
from sql2text.config import TrainConfig
from sql2text.data import ExamplePair, build_vocab, tokenize_text
from sql2text.estimator import SqlToTextGenerator
from sql2text.graphs import template_interpret
from sql2text.model import GraphToSequenceModel
from sql2text.parser import parse

FIXTURE = Path(__file__).resolve().parents[1] / "perfbench" / "fixture"
SQLS = ["SELECT a WHERE b > val0", "SELECT c", "SELECT COUNT d WHERE e = val0"]
TEXTS = [template_interpret(parse(s)) for s in SQLS]
SMALL = dict(word_dim=4, hidden=4, hop_size=1, epochs=1, batch_size=2)
# The fields GraphToSequenceModel's own config held, and so the only keys
# of a config stored by ModelCheckpoint.from_model before it held them all.
MODEL_KEYS = (
    "word_dim", "hidden", "hop_size", "ge_method", "undirected",
    "dropout", "beam_size", "max_decode_len", "length_norm_alpha", "precision",
)
# Options that are no longer config fields, with the values every stored
# config that can still restore holds for them.
REMOVED_KEYS = {"attention": "additive", "share_direction_weights": False}

INVALID = [
    ("precision", "bogus"),
    ("precision", "float16"),
    ("hidden", 2.5),
    ("epochs", 1.5),
    ("epochs", True),
    ("dropout", 1.5),
    ("dropout", -0.5),
    ("ge_method", "x"),
    ("beam_size", 0),
    ("patience", -1),
    ("min_freq", 0),
    ("seed", -1),
    ("lr", math.nan),
    ("lr", math.inf),  # a JSON config holds it as Infinity
    ("undirected", 1),
    ("pretrained_vectors", 5),
]


@pytest.fixture(scope="module")
def model():
    src, tgt = build_vocab([ExamplePair(s, tokenize_text(t)) for s, t in zip(SQLS, TEXTS)])
    return GraphToSequenceModel(src, tgt, TrainConfig(**SMALL, length_norm_alpha=0.5, seed=3))


@pytest.mark.parametrize("key, value", INVALID, ids=[f"{k}={v!r}" for k, v in INVALID])
class TestInvalidValueRejected:
    def test_config(self, key, value):
        with pytest.raises(ValueError, match=key):
            TrainConfig(**{key: value})

    def test_cli_exits_2_before_reading_data(self, key, value, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(CONFIG_ENV_VAR, raising=False)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: value}))
        code = main([
            "train", "--config", str(config), "--train", str(tmp_path / "missing.jsonl"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "invalid configuration" in err and key in err
        assert "Traceback" not in err

    def test_restore_model(self, key, value, model):
        ckpt = ModelCheckpoint.from_model(model)
        tampered = ModelCheckpoint(
            {**ckpt.config, key: value}, ckpt.src_tokens, ckpt.tgt_tokens, ckpt.arrays
        )
        with pytest.raises(CheckpointError, match=key):
            restore_model(tampered)

    def test_fit(self, key, value):
        with pytest.raises(ValueError, match=key):
            SqlToTextGenerator(**{**SMALL, key: value}).fit(SQLS, TEXTS)


def test_fields_cannot_be_assigned():
    config = TrainConfig()
    with pytest.raises(FrozenInstanceError):
        config.hidden = 8


def test_estimator_params_are_the_config_fields_in_order():
    assert list(SqlToTextGenerator().get_params().items()) == list(asdict(TrainConfig()).items())


def test_unknown_estimator_argument_is_type_error():
    with pytest.raises(TypeError, match="bogus"):
        SqlToTextGenerator(bogus=1)


def test_checkpoint_stores_all_config_keys(model):
    assert ModelCheckpoint.from_model(model).config == asdict(model.config)


def test_initial_weights_come_from_the_config_seed(model):
    def weights(config):
        store = GraphToSequenceModel(model.src_vocab, model.tgt_vocab, config).store
        return store.state_arrays()

    same, other = weights(model.config), weights(replace(model.config, seed=4))
    assert all(np.array_equal(same[k], v) for k, v in model.store.state_arrays().items())
    assert any(not np.array_equal(other[k], v) for k, v in same.items())
    assert ModelCheckpoint.from_model(model).config["seed"] == 3


def test_model_keys_only_checkpoint_restores(model, tmp_path):
    ckpt = ModelCheckpoint.from_model(model)
    path = tmp_path / "model-keys.ckpt"
    stored = {**{k: ckpt.config[k] for k in MODEL_KEYS}, **REMOVED_KEYS}
    save_checkpoint(path, ModelCheckpoint(stored, ckpt.src_tokens, ckpt.tgt_tokens, ckpt.arrays))
    restored = restore_model(load_checkpoint(path))
    want = {**asdict(TrainConfig()), **{k: ckpt.config[k] for k in MODEL_KEYS}}
    assert asdict(restored.config) == want
    for sql in SQLS:
        assert restored.generate(sql) == model.generate(sql)


def test_benchmark_fixture_checkpoint_restores():
    expected = json.loads((FIXTURE / "expected.json").read_text())
    path = FIXTURE / expected["checkpoint"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == expected["sha256"]
    ckpt = load_checkpoint(path)
    model = restore_model(ckpt)
    names = [f.name for f in fields(TrainConfig)]
    assert asdict(model.config) == {name: ckpt.config[name] for name in names}
    assert set(ckpt.config) == set(names) | set(REMOVED_KEYS)
    assert {key: ckpt.config[key] for key in REMOVED_KEYS} == REMOVED_KEYS
    for probe in expected["probe"]:
        assert model.generate(probe["sql"], beam_size=5) == probe["beam5"]
