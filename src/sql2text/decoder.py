"""Attention decoder: a single-layer gated recurrent cell initialized from
the graph embedding, additive attention over node embeddings,
teacher-forced negative log-likelihood, and greedy plus beam decoding.

Every step works on rows, one per sequence being decoded, and runs
``autodiff.attention_lstm_step``: teacher forcing over a whole minibatch
inside the one ``attention_lstm`` op, greedy decoding on one row and beam
search on one row per live hypothesis, directly on arrays.  Sequences
attend over node embeddings padded to the largest graph, with a mask
over the padding, laid out once per call from the encoder's node rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import TrainConfig
from .data import BOS, EOS
from .nn import create_linear, create_lstm, linear
from .optim import ParameterStore


@dataclass
class DecoderState:
    """Decoder state of n sequences, one row each."""

    h: np.ndarray  # (n, hidden)
    c: np.ndarray  # (n, hidden)
    context: np.ndarray  # (n, 2 * hidden) attention context
    prev: np.ndarray  # (n,) token ids fed to the next step


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


def step_weights(store: ParameterStore) -> tuple[Tensor, ...]:
    """The decoder step's weights in the order of ``autodiff``'s attention
    ops: dec_lstm's gates, attn_s, attn_v and attn_h."""
    names = ("dec_lstm.w", "dec_lstm.b", "attn_s.w", "attn_s.b", "attn_v", "attn_h.w", "attn_h.b")
    return tuple(store[name] for name in names)


def attention_memory(node_rows: np.ndarray, segments: tuple, graph_of_row, store: ParameterStore) -> tuple:
    """What decoding steps read when row r reads graph ``graph_of_row[r]`` of
    the encoder's ``node_rows`` and ``segments``: the step weights as arrays,
    the padded node rows, their attention projection and the mask of real
    nodes, row-aligned with the sequences (a state of n rows reads the first n)."""
    index, valid = segments
    weights = tuple(t.data for t in step_weights(store))
    return weights, *ad.attention_memory(node_rows, index[graph_of_row], weights), valid[graph_of_row]


def _affine(x: np.ndarray, store: ParameterStore, prefix: str) -> np.ndarray:
    out = x @ store[f"{prefix}.w"].data
    out += store[f"{prefix}.b"].data
    return out


def init_state(graph_emb: np.ndarray, memory: tuple, store: ParameterStore, cfg: TrainConfig) -> DecoderState:
    """Initial state projected from the (n, 2 * hidden) graph embeddings."""
    if graph_emb.ndim != 2 or graph_emb.shape[1] != 2 * cfg.hidden:
        raise ValueError(f"graph embedding shape {graph_emb.shape} does not match 2 * hidden")
    h = np.tanh(_affine(graph_emb, store, "dec_init_h"))
    c = np.tanh(_affine(graph_emb, store, "dec_init_c"))
    return DecoderState(h, c, ad.additive_attention(h, *memory)[0], np.full(len(graph_emb), BOS))


def next_token_logits(state: DecoderState, store: ParameterStore) -> np.ndarray:
    """(n, vocab) logits of the token each row emits after its last step."""
    readout = np.tanh(_affine(np.concatenate([state.h, state.context], axis=-1), store, "dec_readout"))
    return _affine(readout, store, "dec_out")


def sequence_loss(
    node_rows: Tensor, segments: tuple, graph_emb: Tensor, targets: list[list[int]], store: ParameterStore,
    cfg: TrainConfig, rng: np.random.Generator | None = None,
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
    inputs = [[BOS] + targets[b][:-1] for b in order]
    steps = [[ids[t] for ids in inputs if len(ids) > t] for t in range(len(inputs[0]))]
    graph_emb = ad.gather(graph_emb, order)
    h0 = ad.tanh(linear(store, "dec_init_h", graph_emb))
    c0 = ad.tanh(linear(store, "dec_init_c", graph_emb))
    slots, mask = (part[order] for part in segments)
    out = ad.attention_lstm(store["tgt_embed"], steps, h0, c0, step_weights(store), node_rows, slots, mask)

    # Step t's rows start at starts[t] in the step-major stack; regather
    # them example by example, in batch order, for the dropout draw.
    starts = np.cumsum([0] + [len(ids) for ids in steps])
    position = np.argsort(order)
    rows = np.concatenate([starts[: len(t)] + position[b] for b, t in enumerate(targets)])
    readout = ad.gather(ad.tanh(linear(store, "dec_readout", out)), rows)
    if rng is not None:
        readout = ad.dropout(readout, cfg.dropout, rng)
    flat = np.concatenate(targets)
    return ad.cross_entropy(linear(store, "dec_out", readout), flat), len(flat)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log of the softmax over the last axis, outside the autodiff graph."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def greedy_decode(
    node_rows: Tensor, segments: tuple, graph_emb: Tensor, store: ParameterStore, cfg: TrainConfig
) -> list[int]:
    """Argmax decoding of one example (an encoded batch of 1) until EOS or
    the length cap; returns token ids without BOS/EOS."""
    memory = attention_memory(node_rows.data, segments, [0], store)
    state = init_state(graph_emb.data, memory, store, cfg)
    out: list[int] = []
    for _ in range(cfg.max_decode_len):
        state.h, state.c, state.context, _, _ = ad.attention_lstm_step(
            store["tgt_embed"].data[state.prev], state.context, state.h, state.c, *memory
        )
        token = int(np.argmax(next_token_logits(state, store)[0]))
        if token == EOS:
            break
        out.append(token)
        state.prev = np.array([token])
    return out


def beam_search(
    node_rows: Tensor, segments: tuple, graph_emb: Tensor, store: ParameterStore, cfg: TrainConfig,
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
    memory = attention_memory(node_rows.data, segments, np.zeros(width, np.intp), store)
    state = init_state(graph_emb.data, memory, store, cfg)
    log_p = np.zeros(1)  # (live,) running log-probs, float64
    history = np.zeros((1, 0), dtype=np.intp)  # (live, t) tokens so far
    best_score, best = -np.inf, None  # best finished hypothesis so far
    for t in range(cfg.max_decode_len):
        state.h, state.c, state.context, _, _ = ad.attention_lstm_step(
            store["tgt_embed"].data[state.prev], state.context, state.h, state.c, *memory
        )
        step = log_softmax(next_token_logits(state, store))
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
        state = DecoderState(state.h[parents], state.c[parents], state.context[parents], tokens[keep])
    live = log_p / history.shape[1] ** alpha
    if best is None or (live.size and live.max() > best_score):
        best = history[np.argmax(live)]
    return best.tolist()
