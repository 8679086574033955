"""Both loaders are total: any malformed checkpoint ends in
CheckpointError and any malformed dataset in a ValueError naming the
line, never in another exception."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sql2text.checkpoint import (
    MAGIC,
    CheckpointError,
    ModelCheckpoint,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from sql2text.cli import main
from sql2text.config import TrainConfig
from sql2text.data import SPECIAL_TOKENS, ExamplePair, Vocabulary, ingest_dataset, tokenize_text
from sql2text.graphs import template_interpret
from sql2text.model import GraphToSequenceModel
from sql2text.parser import parse
from sql2text.training import train

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("loaders")


def checkpoint_bytes(header, payload: bytes = b"") -> bytes:
    body = json.dumps(header).encode("utf-8")
    return MAGIC + f"{len(body):012d}\n".encode("ascii") + body + payload


def load_bytes(scratch: Path, blob: bytes):
    path = scratch / "fuzz.ckpt"
    path.write_bytes(blob)
    return load_checkpoint(path)


@pytest.fixture(scope="module")
def valid_blob(scratch) -> bytes:
    vocab = Vocabulary([*SPECIAL_TOKENS, "a", "b"])
    config = TrainConfig(word_dim=2, hidden=2, hop_size=1, dropout=0.0)
    model = GraphToSequenceModel(vocab, vocab, config)
    path = scratch / "valid.ckpt"
    save_checkpoint(path, ModelCheckpoint.from_model(model))
    return path.read_bytes()


def per_gate(arrays: dict) -> dict:
    """``arrays`` in the layout of files written before LSTM gates were
    stored joined: each gate of node_lstm and dec_lstm as its own .w and .b
    array, in the order the parameter store then held them."""
    out = {}
    for name, array in arrays.items():
        prefix, _, kind = name.rpartition(".")
        if prefix not in ("node_lstm", "dec_lstm"):
            out[name] = array
        elif kind == "w":
            blocks = zip("ifoc", np.split(array, 4, axis=1), np.split(arrays[f"{prefix}.b"], 4))
            for gate, w, b in blocks:
                out[f"{prefix}.{gate}.w"], out[f"{prefix}.{gate}.b"] = w, b
    return out


@pytest.fixture(scope="module")
def per_gate_blob(scratch, valid_blob) -> bytes:
    ckpt = load_bytes(scratch, valid_blob)
    ckpt.arrays = per_gate(ckpt.arrays)
    path = scratch / "per-gate.ckpt"
    save_checkpoint(path, ckpt)
    return path.read_bytes()


def good_header(**entry):
    array = {"name": "w", "dtype": "float32", "shape": [2], "offset": 0, "nbytes": 8}
    array.update(entry)
    return {"config": {}, "src_vocab": [], "tgt_vocab": [], "arrays": [array]}


class TestCheckpointLoader:
    def test_well_formed_entry_loads(self, scratch):
        ckpt = load_bytes(scratch, checkpoint_bytes(good_header(), np.arange(2, dtype=np.float32).tobytes()))
        assert np.array_equal(ckpt.arrays["w"], [0.0, 1.0])

    @pytest.mark.parametrize(
        "header",
        [
            {"config": {}, "src_vocab": [], "tgt_vocab": []},  # no arrays
            [],  # a list, not an object
            good_header(offset=-8),
            good_header(nbytes=4),  # shape says 8 bytes
            good_header(shape=[3]),
            good_header(dtype="object", shape=[1]),  # 8 bytes, like the payload slot
            good_header(dtype="<U2"),
            good_header(dtype="no-such-dtype"),
            good_header(dtype=["float32"]),
            good_header(shape=[True, 2]),
            {**good_header(), "src_vocab": [1, 2]},
            {**good_header(), "arrays": [good_header()["arrays"][0]] * 2},  # duplicate name
        ],
    )
    def test_malformed_header_is_checkpoint_error(self, scratch, header):
        with pytest.raises(CheckpointError):
            load_bytes(scratch, checkpoint_bytes(header, bytes(64)))

    @pytest.mark.parametrize("length", [b"-00000000001\n", b"00000000001x\n", b"  0000000002\n"])
    def test_malformed_length_field_is_checkpoint_error(self, scratch, length):
        with pytest.raises(CheckpointError):
            load_bytes(scratch, MAGIC + length + b"{}")

    def test_cli_reports_error_without_traceback(self, scratch, capsys):
        path = scratch / "no-arrays.ckpt"
        path.write_bytes(checkpoint_bytes({"config": {}, "src_vocab": [], "tgt_vocab": []}))
        code = main(["generate", "--checkpoint", str(path), "SELECT a"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("vocab", ["src_tokens", "tgt_tokens"])
    def test_swapped_specials_are_checkpoint_error(self, scratch, valid_blob, capsys, vocab):
        # A vocabulary whose specials are out of place would remap every id.
        ckpt = load_bytes(scratch, valid_blob)
        tokens = getattr(ckpt, vocab)
        tokens[0], tokens[1] = tokens[1], tokens[0]
        path = scratch / "swapped.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError, match=f"{vocab[:3]} vocabulary"):
            restore_model(load_checkpoint(path))
        code = main(["generate", "--checkpoint", str(path), "SELECT a"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{vocab[:3]} vocabulary" in err

    # Arrays of the model options that no longer exist: dot-product
    # attention (attn_dot in place of attn_s, attn_h and attn_v) and one
    # output projection per hop shared by both directions.
    @pytest.mark.parametrize(
        "option, removed, added",
        [
            (
                {"attention": "dot"},
                ("attn_s.w", "attn_s.b", "attn_h.w", "attn_h.b", "attn_v"),
                {"attn_dot.w": (2, 4), "attn_dot.b": (4,)},
            ),
            (
                {"share_direction_weights": True},
                ("hop1.fwd.out.w", "hop1.fwd.out.b", "hop1.bwd.out.w", "hop1.bwd.out.b"),
                {"hop1.out.w": (4, 2), "hop1.out.b": (2,)},
            ),
        ],
        ids=["dot_attention", "shared_direction_weights"],
    )
    def test_removed_option_checkpoint_is_checkpoint_error(
        self, scratch, valid_blob, capsys, option, removed, added
    ):
        ckpt = load_bytes(scratch, valid_blob)
        ckpt.config.update(option)
        for name in removed:
            del ckpt.arrays[name]
        ckpt.arrays.update({name: np.zeros(shape, np.float32) for name, shape in added.items()})
        path = scratch / "removed-option.ckpt"
        save_checkpoint(path, ckpt)
        unexpected = next(iter(added))
        with pytest.raises(CheckpointError, match=unexpected):
            restore_model(load_checkpoint(path))
        code = main(["generate", "--checkpoint", str(path), "SELECT a"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert unexpected in err

    @settings(max_examples=200, deadline=None)
    @given(header=json_values, payload=st.binary(max_size=64))
    def test_fuzzed_header(self, scratch, header, payload):
        try:
            load_bytes(scratch, checkpoint_bytes(header, payload))
        except CheckpointError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(header=json_values, payload=st.binary(max_size=64))
    def test_fuzzed_array_entries(self, scratch, header, payload):
        # Keep the top level valid so the fuzz reaches the array table.
        entries = header if isinstance(header, list) else [header]
        try:
            load_bytes(scratch, checkpoint_bytes({**good_header(), "arrays": entries}, payload))
        except CheckpointError:
            pass

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_mutated_valid_file(self, scratch, valid_blob, per_gate_blob, data):
        blob = bytearray(data.draw(st.sampled_from([valid_blob, per_gate_blob])))
        for _ in range(data.draw(st.integers(1, 4))):
            blob[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
        blob = bytes(blob[: data.draw(st.integers(0, len(blob)))])
        try:
            restore_model(load_bytes(scratch, blob))
        except CheckpointError:
            pass


class TestPerGateLayout:
    """Files written before the LSTM gates were stored joined hold each gate
    as its own array (perfbench/fixture/desk.ckpt is one); restoring joins
    them, and saving writes the joined layout."""

    def test_round_trip_is_bitwise(self, scratch):
        sqls = ["SELECT a WHERE b > val0", "SELECT c", "SELECT COUNT d WHERE e = val0"]
        pairs = [ExamplePair(sql, tokenize_text(template_interpret(parse(sql)))) for sql in sqls]
        config = TrainConfig(word_dim=4, hidden=4, hop_size=1, epochs=2, batch_size=2, seed=7)
        model = train(config, pairs).model
        path = scratch / "trained-per-gate.ckpt"
        ckpt = ModelCheckpoint.from_model(model)
        save_checkpoint(path, ModelCheckpoint(ckpt.config, ckpt.src_tokens, ckpt.tgt_tokens, per_gate(ckpt.arrays)))
        stored = load_checkpoint(path)
        assert "dec_lstm.i.w" in stored.arrays and "dec_lstm.w" not in stored.arrays
        restored = restore_model(stored)
        want = model.store.state_arrays()
        got = restored.store.state_arrays()
        assert list(got) == list(want)
        for name, array in want.items():
            assert got[name].dtype == array.dtype and got[name].tobytes() == array.tobytes(), name
        for sql in sqls:
            assert restored.generate(sql) == model.generate(sql)
            assert restored.generate(sql, greedy=True) == model.generate(sql, greedy=True)
        assert list(ModelCheckpoint.from_model(restored).arrays) == list(ckpt.arrays)

    # valid_blob's gate weights are (4, 2) blocks for node_lstm and (8, 2) for dec_lstm.
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda a: [a.pop("dec_lstm.o.w"), a.pop("dec_lstm.o.b")], "'dec_lstm.o.w': None"),
            (lambda a: a.pop("node_lstm.c.b"), "'node_lstm.c.b': None"),
            (lambda a: a.update({"node_lstm.f.w": a["node_lstm.f.w"][:, :1]}), "'node_lstm.f.w': (4, 1)"),
            (lambda a: a.update({"dec_lstm.i.b": a["dec_lstm.i.b"][:1]}), "'dec_lstm.i.b': (1,)"),
            (lambda a: a.update({"dec_lstm.c.w": a["dec_lstm.c.w"].ravel()}), "'dec_lstm.c.w': (16,)"),
            (lambda a: a.update({"dec_lstm.w": np.zeros((10, 8), np.float32)}), "'dec_lstm.w': (10, 8)"),
        ],
        ids=["three_of_four_gates", "bias_missing", "narrow_block", "short_bias", "flat_block", "both_layouts"],
    )
    def test_malformed_set_is_checkpoint_error(self, scratch, per_gate_blob, capsys, edit, named):
        ckpt = load_bytes(scratch, per_gate_blob)
        edit(ckpt.arrays)
        path = scratch / "malformed-per-gate.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(CheckpointError, match=re.escape(named)):
            restore_model(load_checkpoint(path))
        code = main(["generate", "--checkpoint", str(path), "SELECT a"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert named in err


def write_lines(scratch: Path, lines: bytes) -> Path:
    path = scratch / "fuzz.jsonl"
    path.write_bytes(lines)
    return path


class TestDatasetLoader:
    @pytest.mark.parametrize(
        "line",
        [
            b'{"sql": 5, "text": "x"}',
            b'{"sql": "SELECT a", "text": 5}',
            b'{"sql": null, "text": "x"}',
            b'{"sql": "SELECT a", "text": ["x"]}',
            b'\xff\xfe{"sql": "SELECT a", "text": "x"}',
            b"[" * 100000,
        ],
    )
    def test_malformed_record_names_its_line(self, scratch, line):
        path = write_lines(scratch, b'{"sql": "SELECT a", "text": "which a"}\n' + line + b"\n")
        with pytest.raises(ValueError) as err:
            ingest_dataset(path)
        assert "line 2" in str(err.value)

    @settings(max_examples=200, deadline=None)
    @given(sql=json_values, text=json_values)
    def test_fuzzed_fields(self, scratch, sql, text):
        path = write_lines(scratch, json.dumps({"sql": sql, "text": text}).encode("utf-8") + b"\n")
        try:
            ingest_dataset(path)
        except ValueError as exc:
            assert "line 1" in str(exc)

    @settings(max_examples=200, deadline=None)
    @given(sql=st.text(max_size=40), text=st.text(max_size=20))
    def test_fuzzed_query_text_is_parsed_or_skipped(self, scratch, sql, text):
        path = write_lines(scratch, json.dumps({"sql": sql, "text": text}).encode("utf-8") + b"\n")
        result = ingest_dataset(path)
        assert len(result.pairs) + result.skip_count == 1

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=80))
    def test_fuzzed_bytes(self, scratch, blob):
        try:
            ingest_dataset(write_lines(scratch, blob))
        except ValueError as exc:
            assert "line " in str(exc)
