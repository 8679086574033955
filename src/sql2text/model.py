"""End-to-end model: query graph in, interpretation tokens out."""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, default_dtype, no_grad
from .config import TrainConfig
from .data import EOS, Vocabulary
from .decoder import beam_search, build_decoder_params, greedy_decode, sequence_loss
from .encoder import build_encoder_params, encode
from .graphs import QueryGraph, build_graph, to_undirected
from .optim import ParameterStore
from .parser import SqlQuery, parse


def query_graph(query: SqlQuery | str, undirected: bool) -> QueryGraph:
    """The graph the model reads for a query: the one path from SQL to graph."""
    graph = build_graph(parse(query) if isinstance(query, str) else query)
    return to_undirected(graph) if undirected else graph


class GraphToSequenceModel:
    """Graph encoder plus attention decoder over one parameter store."""

    def __init__(
        self,
        src_vocab: Vocabulary,
        tgt_vocab: Vocabulary,
        config: TrainConfig,
    ):
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.config = config
        self.store = ParameterStore()
        rng = np.random.default_rng(config.seed)
        with default_dtype(config.precision):
            build_encoder_params(self.store, len(src_vocab), config, rng)
            build_decoder_params(self.store, len(tgt_vocab), config, rng)

    def encode_graphs(self, graphs: list[QueryGraph]) -> tuple[Tensor, tuple, Tensor]:
        """Node rows, per-graph segments and graph embeddings of a batch
        (:func:`encoder.encode`)."""
        return encode(graphs, self.src_vocab, self.store, self.config)

    def loss(
        self,
        graphs: list[QueryGraph],
        targets: list[tuple[str, ...]],
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, int]:
        """Summed teacher-forced NLL of a batch and its token count, from
        one batched forward pass; dropout applies exactly when ``rng`` is
        given."""
        target_ids = [self.tgt_vocab.ids(tokens) + [EOS] for tokens in targets]
        return sequence_loss(*self.encode_graphs(graphs), target_ids, self.store, self.config, rng)

    def generate(
        self,
        query: SqlQuery | str | QueryGraph,
        beam_size: int | None = None,
        greedy: bool = False,
    ) -> list[str]:
        if not isinstance(query, QueryGraph):
            query = query_graph(query, self.config.undirected)
        with no_grad():
            encoded = self.encode_graphs([query])
            if greedy:
                ids = greedy_decode(*encoded, self.store, self.config)
            else:
                ids = beam_search(*encoded, self.store, self.config, beam_size)
        return self.tgt_vocab.words(ids)
