"""Versioned checkpoint container: config, vocabularies and named
parameter arrays in one file that round-trips bitwise."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .config import TrainConfig
from .data import Vocabulary
from .model import GraphToSequenceModel

MAGIC = b"SQL2TEXT-CKPT/1\n"


class CheckpointError(ValueError):
    pass


@dataclass
class ModelCheckpoint:
    config: dict
    src_tokens: list[str]
    tgt_tokens: list[str]
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    @classmethod
    def from_model(cls, model: GraphToSequenceModel) -> "ModelCheckpoint":
        return cls(
            config=asdict(model.config),
            src_tokens=list(model.src_vocab.tokens),
            tgt_tokens=list(model.tgt_vocab.tokens),
            arrays=model.store.state_arrays(),
        )


def save_checkpoint(path, ckpt: ModelCheckpoint) -> None:
    entries = []
    offset = 0
    for name, arr in ckpt.arrays.items():
        arr = np.ascontiguousarray(arr)
        entries.append(
            {
                "name": name,
                "dtype": arr.dtype.name,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        offset += arr.nbytes
    header = {
        "config": ckpt.config,
        "src_vocab": ckpt.src_tokens,
        "tgt_vocab": ckpt.tgt_tokens,
        "arrays": entries,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(f"{len(header_bytes):012d}\n".encode("ascii"))
        fh.write(header_bytes)
        for arr in ckpt.arrays.values():
            fh.write(np.ascontiguousarray(arr).tobytes())


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _read_array(path, entry, payload: bytes) -> tuple[str, np.ndarray]:
    """One array-table entry as (name, array); CheckpointError on anything
    malformed or inconsistent with the payload."""
    try:
        name, shape, start, nbytes = (entry[k] for k in ("name", "shape", "offset", "nbytes"))
        dtype = np.dtype(entry["dtype"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: malformed array entry {entry!r:.80}") from exc
    if not (
        isinstance(name, str)
        and isinstance(shape, list)
        and all(map(_is_count, [*shape, start, nbytes]))
        and dtype.kind in "biuf"  # no object, string or structured arrays
        and nbytes == math.prod(shape) * dtype.itemsize
    ):
        raise CheckpointError(f"{path}: malformed array entry {entry!r:.80}")
    if start + nbytes > len(payload):
        raise CheckpointError(f"{path}: truncated payload for {name!r}")
    arr = np.frombuffer(payload[start : start + nbytes], dtype=dtype)
    return name, arr.reshape(shape).copy()


def load_checkpoint(path) -> ModelCheckpoint:
    """Read a checkpoint file.  A missing file raises FileNotFoundError;
    any malformed content raises CheckpointError."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    blob = path.read_bytes()
    if not blob.startswith(MAGIC):
        raise CheckpointError(f"{path}: not a recognized checkpoint (bad magic)")
    cursor = len(MAGIC)
    length_field = blob[cursor : cursor + 13]
    if not (len(length_field) == 13 and length_field[:12].isdigit() and length_field[12:] == b"\n"):
        raise CheckpointError(f"{path}: corrupt header length")
    header_len = int(length_field[:12])
    cursor += 13  # 12 digits + newline
    try:
        header = json.loads(blob[cursor : cursor + header_len])
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise CheckpointError(f"{path}: corrupt header JSON") from exc
    cursor += header_len
    if not (
        isinstance(header, dict)
        and isinstance(header.get("config"), dict)
        and isinstance(header.get("arrays"), list)
        and all(
            isinstance(vocab, list) and all(isinstance(token, str) for token in vocab)
            for vocab in (header.get("src_vocab"), header.get("tgt_vocab"))
        )
    ):
        raise CheckpointError(
            f"{path}: header must be an object with config, src_vocab, tgt_vocab and arrays"
        )
    payload = blob[cursor:]
    arrays: dict[str, np.ndarray] = {}
    for entry in header["arrays"]:
        name, arr = _read_array(path, entry, payload)
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate array {name!r}")
        arrays[name] = arr
    return ModelCheckpoint(
        config=header["config"],
        src_tokens=header["src_vocab"],
        tgt_tokens=header["tgt_vocab"],
        arrays=arrays,
    )


def _join_gates(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``arrays`` with each LSTM's gates joined where they are stored one
    array per gate ({prefix}.{i,f,o,c}.{w,b}), as older files hold them."""
    arrays = dict(arrays)
    for prefix in ("node_lstm", "dec_lstm"):
        names = [f"{prefix}.{gate}.{kind}" for kind in "wb" for gate in "ifoc"]
        parts = [arrays.pop(name, None) for name in names]
        if all(part is None for part in parts):
            continue
        shapes = {name: getattr(part, "shape", None) for name, part in zip(names, parts)}
        w = shapes[names[0]] or ()
        joined = {name: arrays[name].shape for name in (f"{prefix}.w", f"{prefix}.b") if name in arrays}
        if joined or len(w) != 2 or list(shapes.values()) != [w] * 4 + [w[1:]] * 4:
            raise CheckpointError(f"checkpoint's {prefix} gate arrays do not join: {shapes | joined}")
        arrays[f"{prefix}.w"], arrays[f"{prefix}.b"] = np.concatenate(parts[:4], axis=1), np.concatenate(parts[4:])
    return arrays


def restore_model(ckpt: ModelCheckpoint) -> GraphToSequenceModel:
    """Rebuild a model from a checkpoint; parameter shapes derived from the
    stored config must match the stored arrays exactly.

    Keys the stored config lacks take their defaults, so configs that
    hold only the model's fields still load; unknown keys are ignored.
    """
    names = {f.name for f in fields(TrainConfig)}
    try:
        config = TrainConfig(**{k: v for k, v in ckpt.config.items() if k in names})
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc
    vocabs = []
    for side, tokens in (("src", ckpt.src_tokens), ("tgt", ckpt.tgt_tokens)):
        try:
            vocabs.append(Vocabulary(list(tokens)))
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint {side} vocabulary is invalid: {exc}") from exc
    model = GraphToSequenceModel(*vocabs, config)
    arrays = _join_gates(ckpt.arrays)  # before the try, which would re-word its errors
    try:
        model.store.load_arrays(arrays)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint arrays do not match its config: {exc}") from exc
    return model
