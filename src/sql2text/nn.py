"""Shared neural building blocks: linear layers and the weights of a gated
recurrent cell, whose per-gate weights a forward pass joins once so that
each step's four gates are one matrix product."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, affine, concat
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


def lstm_weights(store: ParameterStore, prefix: str) -> tuple[Tensor, Tensor]:
    """The gate weights and biases of an LSTM, joined in LSTM_GATES order:
    (in + hidden, 4 * hidden) and (4 * hidden,)."""
    return (
        concat([store[f"{prefix}.{gate}.w"] for gate in LSTM_GATES], axis=1),
        concat([store[f"{prefix}.{gate}.b"] for gate in LSTM_GATES]),
    )

