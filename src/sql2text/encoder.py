"""Bidirectional K-hop graph encoder, run on a whole minibatch at once.

Each node starts from a recurrent reading of its text tokens.  For K
rounds, a node's forward representation is refreshed from the nodes it
directs to and its backward representation from the nodes directing to
it: neighbor vectors pass through a per-hop, per-direction fully
connected layer, are max-pooled coordinatewise, concatenated with the
node's previous representation and projected back to the hidden size
with a ReLU.  The final node embedding concatenates both directions.

Two graph-level readouts are provided: max-pooling over projected node
embeddings, or the embedding of an added super node that every other
node points at.

A batch of graphs is encoded as their disjoint union, so each of these
steps is a few whole-matrix operations over all nodes of the batch: the
text recurrence is one op (``autodiff.lstm``) over the batch's distinct
node texts, each hop aggregates through a padded neighbor-index array,
and the readouts are segment maxima (or row picks) per graph.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig
from .data import Vocabulary
from .graphs import QueryGraph, add_super_node, disjoint_union
from .nn import create_linear, create_lstm, linear
from .optim import ParameterStore


def build_encoder_params(
    store: ParameterStore, src_vocab_size: int, cfg: TrainConfig, rng: np.random.Generator
) -> None:
    d = cfg.hidden
    store.create("src_embed", (src_vocab_size, cfg.word_dim), rng)
    create_lstm(store, "node_lstm", cfg.word_dim, d, rng)
    for k in range(1, cfg.hop_size + 1):
        for layer, fan_in in (("agg", d), ("out", 2 * d)):
            for direction in ("fwd", "bwd"):
                create_linear(store, f"hop{k}.{direction}.{layer}", fan_in, d, rng)
    if cfg.ge_method == "pooling":
        create_linear(store, "ge_pool", 2 * d, 2 * d, rng)


def padded_index(groups: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Row-number lists as a (len(groups), longest) index array padded with
    0, plus the mask of its real entries.  There is always at least one
    column, so that groups which are all empty still give a valid array."""
    sizes = np.array([len(group) for group in groups], dtype=np.intp)
    valid = np.arange(max(1, sizes.max(initial=0))) < sizes[:, None]
    index = np.zeros(valid.shape, dtype=np.intp)
    index[valid] = [i for group in groups for i in group]
    return index, valid


def init_node_features(graph: QueryGraph, vocab: Vocabulary, store: ParameterStore) -> Tensor:
    """(N, d) initial features: per node, the final hidden state of the
    shared recurrent encoder run over the node's token embeddings.  One
    ``ad.lstm`` op runs it over the distinct texts as rows, longest first,
    so each step runs on the prefix of rows still being read and no
    padding is computed."""
    texts = sorted(dict.fromkeys(node.text for node in graph.nodes), key=len, reverse=True)
    steps = [[vocab.id(text[t]) for text in texts if len(text) > t] for t in range(len(texts[0]))]
    states = ad.lstm(store["src_embed"], steps, (store["node_lstm.w"], store["node_lstm.b"]))
    # Text r's last state is row r of step len(text) - 1 in the step-major stack.
    starts = np.cumsum([0] + [len(ids) for ids in steps])
    last = {text: starts[len(text) - 1] + r for r, text in enumerate(texts)}
    return ad.gather(states, [last[node.text] for node in graph.nodes])


def aggregate_direction(
    h: Tensor, neighbors: tuple, store: ParameterStore, hop: int, direction: str
) -> Tensor:
    """Per node, the coordinatewise max over ReLU(FC(h_u)) of its neighbors u
    (:func:`padded_index` arrays); zero for an empty neighborhood."""
    transformed = ad.relu(linear(store, f"hop{hop}.{direction}.agg", h))
    return ad.segment_max(transformed, *neighbors)


def propagate(
    graph: QueryGraph, feats: Tensor, store: ParameterStore, cfg: TrainConfig
) -> Tensor:
    """Run K rounds of bidirectional neighbor aggregation from the (N, d)
    initial features; returns the (N, 2d) final node embeddings, forward
    half first.  With K = 0 both halves are the initial features."""
    halves = []
    for direction, adjacency in zip(("fwd", "bwd"), graph.adjacency()):
        neighbors = padded_index(adjacency)
        h = feats
        for k in range(1, cfg.hop_size + 1):
            nbh = aggregate_direction(h, neighbors, store, k, direction)
            h = ad.relu(linear(store, f"hop{k}.{direction}.out", ad.concat([h, nbh])))
        halves.append(h)
    return ad.concat(halves)


def graph_embedding_pooling(node_matrix: Tensor, segments: tuple, store: ParameterStore) -> Tensor:
    """Per graph, the coordinatewise max over a learned projection of its
    rows of ``node_matrix`` (``segments``, :func:`padded_index` arrays)."""
    return ad.segment_max(linear(store, "ge_pool", node_matrix), *segments)


def encode(
    graphs: list[QueryGraph], vocab: Vocabulary, store: ParameterStore, cfg: TrainConfig
) -> tuple[Tensor, tuple, Tensor]:
    """Encode a batch of graphs as one disjoint union: the (N, 2d) node
    embeddings of the union, each graph's rows in them as
    :func:`padded_index` segments, and the (B, 2d) graph embeddings.  With
    the supernode readout each graph is augmented first, so the node rows
    cover the super node too (the decoder attends over all of them)."""
    if not graphs or any(not graph.nodes for graph in graphs):
        raise ValueError("cannot encode an empty batch or an empty graph")
    if cfg.ge_method == "supernode":
        graphs = [add_super_node(graph) for graph in graphs]
    union = disjoint_union(graphs)
    ends = np.cumsum([len(graph.nodes) for graph in graphs])
    segments = padded_index([range(end - len(g.nodes), end) for g, end in zip(graphs, ends)])
    node_rows = propagate(union, init_node_features(union, vocab, store), store, cfg)
    if cfg.ge_method == "supernode":
        graph_emb = ad.gather(node_rows, ends - 1)  # each super node is appended last
    else:
        graph_emb = graph_embedding_pooling(node_rows, segments, store)
    return node_rows, segments, graph_emb
