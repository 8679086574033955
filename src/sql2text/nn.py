"""Shared neural building blocks: linear layers and a gated recurrent cell,
whose per-gate weights a forward pass joins once so that each step's four
gates are one ``affine``."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, affine, concat, lstm_cell
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


def lstm_step(weights: tuple[Tensor, Tensor], inputs: list[Tensor], c: Tensor) -> tuple[Tensor, Tensor]:
    """One step of a standard LSTM cell on a batch of rows: ``inputs`` are
    the (n, *) input blocks followed by the (n, hidden) state h, c is the
    (n, hidden) cell state and ``weights`` come from :func:`lstm_weights`;
    returns (h', c')."""
    return lstm_cell(affine(concat(inputs), *weights), c)
