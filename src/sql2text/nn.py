"""Shared neural building blocks: linear layers and the weights of a gated
recurrent cell, its four gates side by side in one matrix and one bias."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, affine, get_default_dtype
from .optim import INIT_RANGE, ParameterStore


def create_linear(store: ParameterStore, prefix: str, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
    store.create(f"{prefix}.w", (in_dim, out_dim), rng)
    store.create_zeros(f"{prefix}.b", (out_dim,))


def linear(store: ParameterStore, prefix: str, x: Tensor) -> Tensor:
    return affine(x, store[f"{prefix}.w"], store[f"{prefix}.b"])


def create_lstm(store: ParameterStore, prefix: str, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
    """Gates i, f, o and candidate side by side in one weight and bias; each
    weight block is drawn as ``ParameterStore.create`` draws a weight."""
    blocks = [rng.uniform(-INIT_RANGE, INIT_RANGE, (input_dim + hidden_dim, hidden_dim)) for _ in range(4)]
    store.add(f"{prefix}.w", Tensor(np.concatenate(blocks, axis=1, dtype=get_default_dtype())))
    store.create_zeros(f"{prefix}.b", (4 * hidden_dim,))
