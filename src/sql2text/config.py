"""The one configuration of a run: model shape, training and decoding.

The model, encoder and decoder read the fields they need from it; the
node embedding dimension is always ``2 * hidden`` (both directions).
Every value is checked once, here, with plain comparisons, because
restoring a checkpoint builds a config too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Integer fields and their least valid value.
_INT_MINIMUM = {
    "batch_size": 1,
    "word_dim": 1,
    "hidden": 1,
    "hop_size": 0,
    "epochs": 1,
    "patience": 0,
    "seed": 0,
    "min_freq": 1,
    "beam_size": 1,
    "max_decode_len": 1,
}
_CHOICES = {
    "ge_method": ("pooling", "supernode"),
    "precision": ("float32", "float64"),
}


@dataclass(frozen=True)
class TrainConfig:
    """Every hyperparameter of a run, validated on construction."""

    lr: float = 0.001
    batch_size: int = 30
    dropout: float = 0.5
    clip_norm: float = 20.0
    word_dim: int = 300
    hidden: int = 300
    hop_size: int = 6
    epochs: int = 20
    patience: int = 5
    seed: int = 0
    min_freq: int = 1
    ge_method: str = "pooling"
    undirected: bool = False
    beam_size: int = 5
    max_decode_len: int = 60
    length_norm_alpha: float = 0.0
    precision: str = "float32"
    pretrained_vectors: str | None = None

    def __post_init__(self):
        """Raise ValueError on any value outside its field's range."""
        for name, least in _INT_MINIMUM.items():
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
        for name in ("lr", "dropout", "clip_norm", "length_norm_alpha"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a number, got {value!r}")
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if not self.clip_norm > 0:
            raise ValueError(f"clip_norm must be positive, got {self.clip_norm!r}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")
        try:  # beam search divides by max_decode_len ** length_norm_alpha
            norm_cap = math.pow(self.max_decode_len, self.length_norm_alpha)
        except OverflowError:
            norm_cap = math.inf
        if not (0 <= self.length_norm_alpha < math.inf and norm_cap < math.inf):
            raise ValueError(
                "length_norm_alpha must be finite and >= 0 with max_decode_len ** length_norm_alpha finite,"
                f" got max_decode_len={self.max_decode_len!r}, length_norm_alpha={self.length_norm_alpha!r}"
            )
        if not isinstance(self.undirected, bool):
            raise ValueError(f"undirected must be true or false, got {self.undirected!r}")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {getattr(self, name)!r}")
        if not (self.pretrained_vectors is None or isinstance(self.pretrained_vectors, str)):
            raise ValueError(f"pretrained_vectors must be a path, got {self.pretrained_vectors!r}")
