"""Attention decoder: a single-layer gated recurrent cell initialized from
the graph embedding, additive attention over node embeddings,
teacher-forced negative log-likelihood, and greedy plus beam decoding.

Every step works on rows, one per sequence being decoded: teacher
forcing runs a whole minibatch, greedy decoding one row and beam search
one row per live hypothesis, all through :func:`decoder_step`.  The
sequences attend over node embeddings padded to the largest graph, with
a mask over the padding, gathered once per call by
:func:`attention_memory` from the encoder's node rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig
from .data import BOS, EOS
from .nn import create_linear, create_lstm, linear, lstm_step, lstm_weights
from .optim import ParameterStore


@dataclass
class DecoderState:
    """Decoder state of n sequences, one row each."""

    h: Tensor  # (n, hidden)
    c: Tensor  # (n, hidden)
    context: Tensor  # (n, 2 * hidden) attention context
    prev: np.ndarray  # (n,) token ids fed to the next step


@dataclass
class Memory:
    """What every decoder step reads, row-aligned with the sequences (a
    state of n rows attends over the first n rows)."""

    nodes: Tensor  # (rows, Nmax, 2 * hidden) node embeddings, padded
    mask: np.ndarray  # (rows, Nmax), True at real nodes
    proj: Tensor  # (rows, Nmax, hidden) node-side additive projection
    lstm: tuple[Tensor, Tensor]  # dec_lstm's gate weights, joined once


def build_decoder_params(
    store: ParameterStore, tgt_vocab_size: int, cfg: TrainConfig, rng: np.random.Generator
) -> None:
    h, nd = cfg.hidden, 2 * cfg.hidden
    store.create("tgt_embed", (tgt_vocab_size, cfg.word_dim), rng)
    create_linear(store, "dec_init_h", nd, h, rng)
    create_linear(store, "dec_init_c", nd, h, rng)
    create_lstm(store, "dec_lstm", cfg.word_dim + nd, h, rng)
    create_linear(store, "attn_s", h, h, rng)
    create_linear(store, "attn_h", nd, h, rng)
    store.create("attn_v", (h,), rng)
    create_linear(store, "dec_readout", h + nd, h, rng)
    create_linear(store, "dec_out", h, tgt_vocab_size, rng)


def attention_memory(
    node_rows: Tensor, segments: tuple, graph_of_row, store: ParameterStore
) -> Memory:
    """Memory for sequences whose row r reads graph ``graph_of_row[r]``:
    that graph's ``segments`` row (:func:`encoder.padded_index` arrays)
    of ``node_rows``, padded, in one gather.  The node-side attention
    projection and the joined LSTM weights are computed once for every
    step."""
    index, valid = segments
    nodes = ad.gather(node_rows, index[graph_of_row])
    proj = linear(store, "attn_h", nodes)
    return Memory(nodes, valid[graph_of_row], proj, lstm_weights(store, "dec_lstm"))


def attention_context(s: Tensor, memory: Memory, store: ParameterStore) -> tuple[Tensor, Tensor]:
    """(context, attention weights) for the (n, hidden) decoder states s:
    (n, 2 * hidden) and (n, Nmax), with weight 0 on padding."""
    n = s.data.shape[0]
    nodes = ad.slice_rows(memory.nodes, 0, n)
    proj = ad.slice_rows(memory.proj, 0, n)
    scores = ad.additive_scores(linear(store, "attn_s", s), proj, store["attn_v"])
    return ad.attend(scores, memory.mask[:n], nodes)


def init_state(
    graph_emb: Tensor, memory: Memory, store: ParameterStore, cfg: TrainConfig
) -> DecoderState:
    """Initial state projected from the (n, 2 * hidden) graph embeddings."""
    if graph_emb.data.ndim != 2 or graph_emb.data.shape[1] != 2 * cfg.hidden:
        raise ValueError(
            f"graph embedding shape {graph_emb.data.shape} does not match 2 * hidden"
        )
    h0 = ad.tanh(linear(store, "dec_init_h", graph_emb))
    c0 = ad.tanh(linear(store, "dec_init_c", graph_emb))
    context, _ = attention_context(h0, memory, store)
    return DecoderState(h0, c0, context, np.full(graph_emb.data.shape[0], BOS))


def decoder_step(state: DecoderState, memory: Memory, store: ParameterStore) -> DecoderState:
    """Feed ``state.prev`` to the first len(prev) rows, which go on; the
    others are dropped.  The returned state keeps ``prev`` for the caller
    to replace."""
    n = len(state.prev)
    x = [ad.gather(store["tgt_embed"], state.prev), ad.slice_rows(state.context, 0, n)]
    h, c = lstm_step(memory.lstm, x + [ad.slice_rows(state.h, 0, n)], ad.slice_rows(state.c, 0, n))
    context, _ = attention_context(h, memory, store)
    return DecoderState(h, c, context, state.prev)


def _readout(h: Tensor, context: Tensor, store: ParameterStore) -> Tensor:
    return ad.tanh(linear(store, "dec_readout", ad.concat([h, context])))


def next_token_logits(state: DecoderState, store: ParameterStore) -> Tensor:
    """(n, vocab) logits of the token each row emits after its last step."""
    return linear(store, "dec_out", _readout(state.h, state.context, store))


def sequence_loss(
    node_rows: Tensor,
    segments: tuple,
    graph_emb: Tensor,
    targets: list[list[int]],
    store: ParameterStore,
    cfg: TrainConfig,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, int]:
    """Teacher-forced negative log-likelihood of a batch encoded by
    :func:`encoder.encode`, summed over all target tokens; ``targets[b]``
    are example b's token ids, non-empty and ending with EOS.  Returns
    (loss sum, token count); batch averaging is the caller's concern.

    Rows are sorted longest target first, so each step runs on the prefix
    of rows still running.  Dropout applies exactly when ``rng`` is given:
    masks are drawn per example in batch order, a (length, hidden) draw
    each, so ``rng`` is consumed exactly as by decoding the examples one
    by one.
    """
    for target in targets:
        if not target:
            raise ValueError("empty target sequence")
        if target[-1] != EOS:
            raise ValueError("target sequence must end with EOS")
    order = sorted(range(len(targets)), key=lambda b: -len(targets[b]))
    lengths = np.array([len(targets[b]) for b in order])
    inputs = np.full((len(order), lengths[0]), BOS)
    for row, b in enumerate(order):
        inputs[row, 1 : lengths[row]] = targets[b][:-1]

    memory = attention_memory(node_rows, segments, order, store)
    state = init_state(ad.gather(graph_emb, order), memory, store, cfg)
    hs, contexts = [], []
    for step in range(lengths[0]):
        state.prev = inputs[: np.count_nonzero(lengths > step), step]
        state = decoder_step(state, memory, store)
        hs.append(state.h)
        contexts.append(state.context)

    # Step t's rows start at starts[t] in the step-major stack; regather
    # them example by example, in batch order, for the dropout draw.
    starts = np.cumsum([0] + [h.data.shape[0] for h in hs])
    position = np.argsort(order)
    rows = np.concatenate([starts[: len(t)] + position[b] for b, t in enumerate(targets)])
    readout = ad.gather(_readout(ad.concat(hs, axis=0), ad.concat(contexts, axis=0), store), rows)
    if rng is not None:
        readout = ad.dropout(readout, cfg.dropout, rng)
    flat = np.concatenate(targets)
    return ad.cross_entropy(linear(store, "dec_out", readout), flat), len(flat)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log of the softmax over the last axis, outside the autodiff graph."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def greedy_decode(
    node_rows: Tensor,
    segments: tuple,
    graph_emb: Tensor,
    store: ParameterStore,
    cfg: TrainConfig,
) -> list[int]:
    """Argmax decoding of one example (an encoded batch of 1) until EOS or
    the length cap; returns token ids without BOS/EOS."""
    with ad.no_grad():
        memory = attention_memory(node_rows, segments, [0], store)
        state = init_state(graph_emb, memory, store, cfg)
        out: list[int] = []
        for _ in range(cfg.max_decode_len):
            state = decoder_step(state, memory, store)
            token = int(np.argmax(next_token_logits(state, store).data[0]))
            if token == EOS:
                break
            out.append(token)
            state.prev = np.array([token])
    return out


def beam_search(
    node_rows: Tensor,
    segments: tuple,
    graph_emb: Tensor,
    store: ParameterStore,
    cfg: TrainConfig,
    beam_size: int | None = None,
) -> list[int]:
    """Beam decoding of one example (an encoded batch of 1); returns token
    ids without BOS/EOS.

    Each step runs the live hypotheses as the rows of one decoder state.
    Candidates are each row's top ``width`` tokens (a tie goes to the
    lower id), taken row by row; the ``width`` best-scoring non-EOS ones
    stay live, by a stable sort.  A hypothesis of n tokens with log-prob
    log p scores log p / n^alpha (an empty one log p).  The search keeps
    the best EOS-terminated hypothesis found so far, the first one found
    winning ties; a hypothesis still live at the end replaces it only by
    scoring higher.

    The search stops once the best finished score reaches
    max(live log p) / max_decode_len^alpha.  This is exact for every
    alpha >= 0: log-probs are <= 0 and a continuation only lowers log p
    and adds tokens up to the cap, so no live hypothesis can end above
    that bound.
    """
    width = beam_size if beam_size is not None else cfg.beam_size
    if width < 1:
        raise ValueError("beam_size must be >= 1")
    alpha = cfg.length_norm_alpha
    cap_norm = cfg.max_decode_len**alpha
    with ad.no_grad():
        memory = attention_memory(node_rows, segments, np.zeros(width, np.intp), store)
        state = init_state(graph_emb, memory, store, cfg)
        log_p = np.zeros(1)  # (live,) running log-probs, float64
        history = np.zeros((1, 0), dtype=np.intp)  # (live, t) tokens so far
        best_score, best = -np.inf, None  # best finished hypothesis so far
        for t in range(cfg.max_decode_len):
            state = decoder_step(state, memory, store)
            step = log_softmax(next_token_logits(state, store).data)
            # Stable sort keeps ties at the lowest token id, matching argmax.
            top = np.argsort(-step, axis=1, kind="stable")[:, :width]
            rows = np.repeat(np.arange(len(log_p)), top.shape[1])
            tokens = top.reshape(-1)
            cand = log_p[rows] + step[rows, tokens]
            ended = np.flatnonzero(tokens == EOS)
            if ended.size:
                scores = cand[ended] / max(t, 1) ** alpha
                i = int(np.argmax(scores))  # the first of equal scores
                if scores[i] > best_score:
                    best_score, best = scores[i], history[rows[ended[i]]]
            going = np.flatnonzero(tokens != EOS)
            keep = going[np.argsort(-(cand[going] / (t + 1) ** alpha), kind="stable")[:width]]
            log_p = cand[keep]
            history = np.concatenate([history[rows[keep]], tokens[keep, None]], axis=1)
            if not keep.size or best_score >= log_p.max() / cap_norm:
                break
            parents = rows[keep]
            state = DecoderState(
                ad.gather(state.h, parents),
                ad.gather(state.c, parents),
                ad.gather(state.context, parents),
                tokens[keep],
            )
        live = log_p / history.shape[1] ** alpha
        if best is None or (live.size and live.max() > best_score):
            best = history[np.argmax(live)]
    return best.tolist()
