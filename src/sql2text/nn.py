"""Shared neural building blocks: linear layers and a gated recurrent cell."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, affine, concat, mul, sigmoid, tanh
from .optim import ParameterStore

LSTM_GATES = ("i", "f", "o", "c")


def create_linear(store: ParameterStore, prefix: str, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
    store.create(f"{prefix}.w", (in_dim, out_dim), rng)
    store.create_zeros(f"{prefix}.b", (out_dim,))


def linear(store: ParameterStore, prefix: str, x: Tensor) -> Tensor:
    return affine(x, store[f"{prefix}.w"], store[f"{prefix}.b"])


def create_lstm(store: ParameterStore, prefix: str, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
    for gate in LSTM_GATES:
        create_linear(store, f"{prefix}.{gate}", input_dim + hidden_dim, hidden_dim, rng)


def lstm_step(
    store: ParameterStore, prefix: str, x: Tensor, h: Tensor, c: Tensor
) -> tuple[Tensor, Tensor]:
    """One step of a standard LSTM cell on a batch of rows: x is (n, in),
    h and c are (n, hidden); returns (h', c')."""
    z = concat([x, h])
    i = sigmoid(linear(store, f"{prefix}.i", z))
    f = sigmoid(linear(store, f"{prefix}.f", z))
    o = sigmoid(linear(store, f"{prefix}.o", z))
    cand = tanh(linear(store, f"{prefix}.c", z))
    c2 = mul(f, c) + mul(i, cand)
    h2 = mul(o, tanh(c2))
    return h2, c2
