"""End-to-end model: query graph in, interpretation tokens out."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .autodiff import Tensor, default_dtype, no_grad
from .data import EOS, Vocabulary
from .decoder import (
    DecoderConfig,
    beam_search,
    build_decoder_params,
    greedy_decode,
    sequence_loss,
)
from .encoder import EncoderConfig, build_encoder_params, encode
from .graphs import QueryGraph, build_graph, to_undirected
from .optim import ParameterStore
from .parser import SqlQuery, parse


@dataclass
class ModelConfig:
    word_dim: int = 300
    hidden: int = 300
    hop_size: int = 6
    ge_method: str = "pooling"
    share_direction_weights: bool = False
    undirected: bool = False
    attention: str = "additive"
    dropout: float = 0.5
    beam_size: int = 5
    max_decode_len: int = 60
    length_norm_alpha: float = 0.0
    precision: str = "float32"

    def encoder_config(self) -> EncoderConfig:
        return EncoderConfig(
            hop_size=self.hop_size,
            hidden_dim=self.hidden,
            word_dim=self.word_dim,
            share_direction_weights=self.share_direction_weights,
            ge_method=self.ge_method,
        )

    def decoder_config(self) -> DecoderConfig:
        return DecoderConfig(
            hidden_size=self.hidden,
            word_dim=self.word_dim,
            node_dim=2 * self.hidden,
            max_decode_len=self.max_decode_len,
            beam_size=self.beam_size,
            length_norm_alpha=self.length_norm_alpha,
            dropout=self.dropout,
            attention=self.attention,
        )


class GraphToSequenceModel:
    """Graph encoder plus attention decoder over one parameter store."""

    def __init__(
        self,
        src_vocab: Vocabulary,
        tgt_vocab: Vocabulary,
        config: ModelConfig,
        seed: int = 0,
    ):
        self.src_vocab = src_vocab
        self.tgt_vocab = tgt_vocab
        self.config = config
        self.store = ParameterStore()
        rng = np.random.default_rng(seed)
        with default_dtype(config.precision):
            build_encoder_params(
                self.store, len(src_vocab), config.encoder_config(), rng
            )
            build_decoder_params(
                self.store, len(tgt_vocab), config.decoder_config(), rng
            )

    def prepare(self, query: SqlQuery | str) -> QueryGraph:
        if isinstance(query, str):
            query = parse(query)
        graph = build_graph(query)
        if self.config.undirected:
            graph = to_undirected(graph)
        return graph

    def encode_graphs(self, graphs: list[QueryGraph]) -> tuple[Tensor, np.ndarray, Tensor]:
        """Padded node embeddings, node mask and graph embeddings of a batch."""
        return encode(graphs, self.src_vocab, self.store, self.config.encoder_config())

    def loss(
        self,
        graphs: list[QueryGraph],
        targets: list[tuple[str, ...]],
        train: bool = True,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, int]:
        """Summed teacher-forced NLL of a batch and its token count, from
        one batched forward pass."""
        nodes, mask, graph_emb = self.encode_graphs(graphs)
        target_ids = [self.tgt_vocab.ids(tokens) + [EOS] for tokens in targets]
        return sequence_loss(
            nodes,
            mask,
            graph_emb,
            target_ids,
            self.store,
            self.config.decoder_config(),
            train=train,
            rng=rng,
        )

    def generate(
        self,
        query: SqlQuery | str | QueryGraph,
        beam_size: int | None = None,
        greedy: bool = False,
    ) -> list[str]:
        graph = query if isinstance(query, QueryGraph) else self.prepare(query)
        with no_grad():
            encoded = self.encode_graphs([graph])
        cfg = self.config.decoder_config()
        if greedy:
            ids = greedy_decode(*encoded, self.store, cfg)
        else:
            ids = beam_search(*encoded, self.store, cfg, beam_size)
        return self.tgt_vocab.words(ids)

    def config_dict(self) -> dict:
        return asdict(self.config)
