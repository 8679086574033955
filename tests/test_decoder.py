import math
from dataclasses import dataclass

import numpy as np
import pytest

from sql2text import autodiff as ad
from sql2text.autodiff import Tensor, default_dtype
from sql2text.config import TrainConfig
from sql2text.data import BOS, EOS
from sql2text.decoder import (
    DecoderState,
    attention_memory,
    beam_search,
    build_decoder_params,
    greedy_decode,
    init_state,
    log_softmax,
    next_token_logits,
    sequence_loss,
)
from sql2text.optim import ParameterStore, randomize_parameters

VOCAB = 9
HIDDEN = 3
NODE_DIM = 2 * HIDDEN  # both directions of a node embedding


def make_store(cfg: TrainConfig, seed=0, randomize=None) -> ParameterStore:
    store = ParameterStore()
    build_decoder_params(store, VOCAB, cfg, np.random.default_rng(seed))
    if randomize is not None:
        randomize_parameters(store, np.random.default_rng(randomize))
    return store


def small_cfg(**kwargs) -> TrainConfig:
    defaults = dict(hidden=HIDDEN, word_dim=3, dropout=0.0, max_decode_len=8)
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def random_nodes(n, seed=0) -> Tensor:
    return Tensor(np.random.default_rng(seed).normal(size=(n, NODE_DIM)))


def one(nodes: Tensor, graph_emb: Tensor):
    # A batch of one example: node rows, their segment, and the (d,) graph
    # embedding as a (1, d) row, gathered so that gradients reach it.
    n, d = nodes.data.shape
    return (
        nodes,
        (np.arange(n)[None, :], np.ones((1, n), dtype=bool)),
        ad.gather(graph_emb, np.arange(d)[None, :]),
    )


def memory_of(nodes: Tensor, store):
    node_rows, segments, _ = one(nodes, Tensor(np.zeros((nodes.data.shape[1],))))
    return attention_memory(node_rows.data, segments, [0], store)


def decode_step(state, memory, store) -> DecoderState:
    # The step greedy and beam search run: state.prev in, prev kept.
    x = store["tgt_embed"].data[state.prev]
    h, c, context, _, _ = ad.attention_lstm_step(x, state.context, state.h, state.c, *memory)
    return DecoderState(h, c, context, state.prev)


def attention(s: Tensor, memory):
    # (context, attention weights) of decoder states s over the memory.
    context, weights, _ = ad.additive_attention(s.data, *memory)
    return context, weights


def first_distribution(state, memory, store) -> np.ndarray:
    state = decode_step(state, memory, store)
    logits = next_token_logits(state, store)[0]
    e = np.exp(logits - logits.max())
    return e / e.sum(), state


class TestInitState:
    def test_zero_embedding_zero_weights_gives_zero_state(self):
        cfg = small_cfg()
        store = make_store(cfg)
        for name in ("dec_init_h.w", "dec_init_h.b", "dec_init_c.w", "dec_init_c.b"):
            store[name].data = np.zeros_like(store[name].data)
        state = init_state(Tensor(np.zeros((1, NODE_DIM))).data, memory_of(random_nodes(2), store), store, cfg)
        assert np.array_equal(state.h[0], np.zeros(3, dtype=np.float32))
        assert np.array_equal(state.c[0], np.zeros(3, dtype=np.float32))
        assert state.prev.tolist() == [BOS]

    def test_distinct_embeddings_give_distinct_states(self):
        cfg = small_cfg()
        store = make_store(cfg, randomize=1)
        memory = memory_of(random_nodes(2), store)
        s1 = init_state(Tensor([[1.0, 0.0, 0.0, 0.0, 0.0, 0.0]]).data, memory, store, cfg)
        s2 = init_state(Tensor([[0.0, 1.0, 0.0, 0.0, 0.0, 0.0]]).data, memory, store, cfg)
        assert not np.allclose(s1.h, s2.h)

    def test_deterministic(self):
        cfg = small_cfg()
        store = make_store(cfg, randomize=2)
        memory = memory_of(random_nodes(3), store)
        ge = Tensor([[0.1, -0.2, 0.3, 0.4, -0.5, 0.6]]).data
        a = init_state(ge, memory, store, cfg)
        b = init_state(ge, memory, store, cfg)
        assert np.array_equal(a.h, b.h)
        assert np.array_equal(a.context, b.context)

    def test_dimension_mismatch_rejected(self):
        cfg = small_cfg()
        store = make_store(cfg)
        with pytest.raises(ValueError):
            init_state(Tensor([[1.0, 2.0]]).data, memory_of(random_nodes(2), store), store, cfg)


class TestAttention:
    def test_single_node_gets_full_weight(self):
        cfg = small_cfg()
        store = make_store(cfg, randomize=3)
        nodes = random_nodes(1, seed=5)
        memory = memory_of(nodes, store)
        context, weights = attention(Tensor([[0.3, -0.1, 0.6]]), memory)
        assert np.array_equal(weights[0], np.array([1.0], dtype=np.float32))
        assert np.allclose(context[0], nodes.data[0])

    def test_identical_nodes_get_uniform_weights(self):
        cfg = small_cfg()
        store = make_store(cfg, randomize=4)
        row = np.array([0.5, 1.0, -0.5, 0.25, 0.0, 0.0], dtype=np.float32)
        memory = memory_of(Tensor(np.stack([row] * 4)), store)
        _, weights = attention(Tensor([[0.3, -0.1, 0.6]]), memory)
        assert np.allclose(weights, 0.25, atol=1e-6)

    def test_weights_nonnegative_and_sum_to_one(self):
        cfg = small_cfg()
        store = make_store(cfg, randomize=5)
        memory = memory_of(random_nodes(6, seed=6), store)
        for seed in range(10):
            s = Tensor(np.random.default_rng(seed).normal(size=(1, 3)))
            _, weights = attention(s, memory)
            assert (weights >= 0).all()
            assert abs(float(weights.sum()) - 1.0) < 1e-6


class TestDecodeStep:
    def test_distribution_sums_to_one(self):
        cfg = small_cfg()
        store = make_store(cfg, randomize=6)
        memory = memory_of(random_nodes(3, seed=7), store)
        state = init_state(Tensor(np.zeros((1, NODE_DIM))).data, memory, store, cfg)
        dist, _ = first_distribution(state, memory, store)
        assert dist.shape == (VOCAB,)
        assert abs(float(dist.sum()) - 1.0) < 1e-6
        assert (dist > 0).all()

    def test_inference_mode_is_deterministic(self):
        cfg = small_cfg(dropout=0.5)
        store = make_store(cfg, randomize=7)
        batch = one(random_nodes(3, seed=8), Tensor(np.zeros((NODE_DIM,))))
        l1, _ = sequence_loss(*batch, [[4, 5, EOS]], store, cfg)
        l2, _ = sequence_loss(*batch, [[4, 5, EOS]], store, cfg)
        assert np.array_equal(l1.data, l2.data)

    def test_train_mode_applies_dropout(self):
        cfg = small_cfg(dropout=0.5)
        store = make_store(cfg, randomize=7)
        batch = one(random_nodes(3, seed=8), Tensor(np.zeros((NODE_DIM,))))
        rng = np.random.default_rng(0)
        draws = {float(sequence_loss(*batch, [[4, EOS]], store, cfg, rng=rng)[0].data) for _ in range(4)}
        assert len(draws) > 1

    def test_two_step_unroll_matches_hand_recurrence(self):
        with default_dtype(np.float64):
            cfg = small_cfg(hidden=2, word_dim=2)
            store = make_store(cfg, randomize=8)
            nodes = Tensor(np.random.default_rng(9).normal(size=(2, 4)))  # 2 * hidden columns
            memory = memory_of(nodes, store)
            state = init_state(Tensor([[0.2, -0.4, 0.1, 0.3]]).data, memory, store, cfg)
            tokens = [4, 7]
            dists = []
            for token in tokens:
                dist, state = first_distribution(state, memory, store)
                dists.append(dist.copy())
                state.prev = np.array([token])
            expected = _oracle_decode(store, nodes.data, np.array([0.2, -0.4, 0.1, 0.3]), tokens)
            for got, want in zip(dists, expected):
                assert np.allclose(got, want, atol=1e-12)


def _oracle_decode(store, nodes, graph_emb, tokens):
    # Literal numpy transcription of the decode recurrence.
    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    def lin(prefix, x):
        return x @ store[f"{prefix}.w"].data + store[f"{prefix}.b"].data

    def gate(k, z):  # dec_lstm's gate k column block: input, forget, output, candidate
        w, b = store["dec_lstm.w"].data, store["dec_lstm.b"].data
        block = slice(k * len(b) // 4, (k + 1) * len(b) // 4)
        return z @ w[:, block] + b[block]

    def attn(s):
        scores = np.tanh(lin("attn_h", nodes) + lin("attn_s", s)) @ store["attn_v"].data
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        return w @ nodes

    h = np.tanh(lin("dec_init_h", graph_emb))
    c = np.tanh(lin("dec_init_c", graph_emb))
    ctx = attn(h)
    prev = BOS
    dists = []
    for token in tokens:
        x = np.concatenate([store["tgt_embed"].data[prev], ctx])
        z = np.concatenate([x, h])
        i, f = sig(gate(0, z)), sig(gate(1, z))
        o, g = sig(gate(2, z)), np.tanh(gate(3, z))
        c = f * c + i * g
        h = o * np.tanh(c)
        ctx = attn(h)
        readout = np.tanh(lin("dec_readout", np.concatenate([h, ctx])))
        logits = lin("dec_out", readout)
        e = np.exp(logits - logits.max())
        dists.append(e / e.sum())
        prev = token
    return dists


class TestSequenceLoss:
    def test_uniform_init_gives_log_vocab_per_token(self):
        with default_dtype(np.float64):
            cfg = small_cfg()
            store = make_store(cfg)
            for name, t in store.items():
                t.data = np.zeros_like(t.data)
            nodes = Tensor(np.zeros((2, NODE_DIM)))
            target = [4, 5, 4, EOS]
            loss, count = sequence_loss(*one(nodes, Tensor(np.zeros(NODE_DIM))), [target], store, cfg)
            assert count == 4
            assert float(loss.data) / count == pytest.approx(math.log(VOCAB), abs=1e-9)

    def test_single_eos_target(self):
        cfg = small_cfg()
        store = make_store(cfg, randomize=9)
        nodes = random_nodes(2, seed=10)
        ge = Tensor(np.zeros(NODE_DIM))
        loss, count = sequence_loss(*one(nodes, ge), [[EOS]], store, cfg)
        assert count == 1
        memory = memory_of(nodes, store)
        state = init_state(ge.data[None, :], memory, store, cfg)
        dist, _ = first_distribution(state, memory, store)
        assert float(loss.data) == pytest.approx(-math.log(float(dist[EOS])), abs=1e-5)

    def test_empty_target_rejected(self):
        cfg = small_cfg()
        store = make_store(cfg)
        with pytest.raises(ValueError):
            sequence_loss(*one(random_nodes(2), Tensor(np.zeros(NODE_DIM))), [[]], store, cfg)

    def test_target_must_end_with_eos(self):
        cfg = small_cfg()
        store = make_store(cfg)
        with pytest.raises(ValueError):
            sequence_loss(*one(random_nodes(2), Tensor(np.zeros(NODE_DIM))), [[4, 5]], store, cfg)

    def test_gradients_flow_to_every_parameter_group(self):
        cfg = small_cfg()
        store = make_store(cfg, randomize=10)
        nodes = Tensor(np.random.default_rng(11).normal(size=(3, NODE_DIM)), requires_grad=True)
        pooled = ad.segment_max(nodes, np.array([[0, 1, 2]]), np.ones((1, 3), dtype=bool))
        loss, _ = sequence_loss(*one(nodes, ad.gather(pooled, 0)), [[4, EOS]], store, cfg)
        loss.backward()
        touched = [name for name, t in store.items() if t.grad is not None]
        assert "tgt_embed" in touched
        assert "dec_out.w" in touched
        assert "attn_v" in touched
        assert nodes.grad is not None


class TestDecoding:
    def test_beam_one_equals_greedy_on_random_probes(self):
        cfg = small_cfg(max_decode_len=10)
        store = make_store(cfg)
        for seed in range(50):
            randomize_parameters(store, np.random.default_rng(seed), scale=1.0)
            nodes = random_nodes(3, seed=seed)
            ge = Tensor(np.random.default_rng(seed + 500).normal(size=NODE_DIM))
            greedy = greedy_decode(*one(nodes, ge), store, cfg)
            beamed = beam_search(*one(nodes, ge), store, cfg, beam_size=1)
            assert greedy == beamed, f"seed {seed}: {greedy} vs {beamed}"

    def test_forced_token_returned_for_any_beam_size(self):
        cfg = small_cfg(max_decode_len=3)
        store = make_store(cfg)
        for name, t in store.items():
            t.data = np.zeros_like(t.data)
        bias = np.zeros(VOCAB, dtype=np.float32)
        bias[5] = 50.0
        store["dec_out.b"].data = bias
        outputs = {
            beam: beam_search(*one(random_nodes(2), Tensor(np.zeros(NODE_DIM))), store, cfg, beam_size=beam)
            for beam in (1, 2, 5)
        }
        assert all(out == [5, 5, 5] for out in outputs.values())

    def test_forced_eos_gives_empty_output(self):
        cfg = small_cfg(max_decode_len=5)
        store = make_store(cfg)
        for name, t in store.items():
            t.data = np.zeros_like(t.data)
        bias = np.zeros(VOCAB, dtype=np.float32)
        bias[EOS] = 50.0
        store["dec_out.b"].data = bias
        for beam in (1, 3):
            assert beam_search(*one(random_nodes(2), Tensor(np.zeros(NODE_DIM))), store, cfg, beam_size=beam) == []

    def test_length_cap_truncates(self):
        cfg = small_cfg(max_decode_len=3)
        store = make_store(cfg)
        for name, t in store.items():
            t.data = np.zeros_like(t.data)
        bias = np.zeros(VOCAB, dtype=np.float32)
        bias[4] = 50.0
        store["dec_out.b"].data = bias
        assert greedy_decode(*one(random_nodes(2), Tensor(np.zeros(NODE_DIM))), store, cfg) == [4, 4, 4]

    def test_wider_beam_never_scores_worse(self):
        cfg = small_cfg(max_decode_len=8)
        checked = 0
        for seed in range(30):
            store = make_store(cfg, randomize=seed)
            # Random decoders rarely emit EOS; nudge it so probes terminate.
            store["dec_out.b"].data[EOS] += 1.5
            nodes = random_nodes(3, seed=seed)
            ge = Tensor(np.random.default_rng(seed + 900).normal(size=NODE_DIM))

            def hyp_score(tokens):
                loss, _ = sequence_loss(*one(nodes, ge), [list(tokens) + [EOS]], store, cfg)
                return -float(loss.data)

            prev_score = None
            for beam in (1, 2, 3, 4):
                out = beam_search(*one(nodes, ge), store, cfg, beam_size=beam)
                if len(out) >= cfg.max_decode_len:
                    prev_score = None
                    break  # unterminated; score comparison not meaningful
                score = hyp_score(out)
                if prev_score is not None:
                    assert score >= prev_score - 1e-6
                    checked += 1
                prev_score = score
        assert checked >= 30


@dataclass
class Hypothesis:
    tokens: tuple[int, ...]
    log_prob: float
    parent: int  # row of the decoder state the hypothesis continues
    terminated: bool

    def score(self, alpha: float) -> float:
        if alpha == 0.0 or not self.tokens:
            return self.log_prob
        return self.log_prob / (len(self.tokens) ** alpha)


def reference_beam_search(node_rows, segments, graph_emb, store, cfg, beam_size=None):
    """List-based beam search, the reference the array search must match
    token for token: one Hypothesis per candidate, a per-row argsort, a
    keyed sort, and an early stop only when alpha is 0."""
    width = beam_size if beam_size is not None else cfg.beam_size
    alpha = cfg.length_norm_alpha
    copies = np.zeros(width, dtype=np.intp)
    memory = attention_memory(node_rows.data, segments, copies, store)
    state = init_state(graph_emb.data, memory, store, cfg)
    live = [Hypothesis((), 0.0, 0, False)]
    done: list[Hypothesis] = []
    for _ in range(cfg.max_decode_len):
        state = decode_step(state, memory, store)
        log_probs = log_softmax(next_token_logits(state, store))
        candidates: list[Hypothesis] = []
        for row, hyp in enumerate(live):
            top = np.argsort(-log_probs[row], kind="stable")[:width]
            for token in top:
                token = int(token)
                lp = hyp.log_prob + float(log_probs[row, token])
                if token == EOS:
                    candidates.append(Hypothesis(hyp.tokens, lp, row, True))
                else:
                    candidates.append(Hypothesis(hyp.tokens + (token,), lp, row, False))
        done.extend(h for h in candidates if h.terminated)
        alive = [h for h in candidates if not h.terminated]
        alive.sort(key=lambda h: -h.score(alpha))
        live = alive[:width]
        if not live:
            break
        if alpha == 0.0 and done:
            if max(h.score(alpha) for h in done) >= live[0].score(alpha):
                break
        parents = [h.parent for h in live]
        state = DecoderState(
            state.h[parents],
            state.c[parents],
            state.context[parents],
            np.array([h.tokens[-1] for h in live]),
        )
    best = max(done + live, key=lambda h: h.score(alpha))
    return list(best.tokens)


def probe(seed: int, cfg: TrainConfig):
    """A random store with EOS nudged by 0 to 1.5, so that some probes
    terminate and some run to the cap, and a random one-example batch."""
    store = make_store(cfg)
    randomize_parameters(store, np.random.default_rng(seed), scale=1.0)
    store["dec_out.b"].data[EOS] += 0.5 * (seed % 4)
    ge = Tensor(np.random.default_rng(seed + 900).normal(size=NODE_DIM))
    return store, one(random_nodes(3, seed=seed), ge)


def eos_probe(seed: int, cfg: TrainConfig, rate: float = 0.25, eos_weight: float = 4.0):
    """A probe whose EOS logit depends on the decoder state: LSTM unit 0
    counts steps (its cell gains ``rate`` a step from a random start
    below 0), readout unit 0 follows it, and the EOS column of ``dec_out.w``
    reads only that unit.  EOS turns likely after a few tokens, so at any
    alpha many outputs end by EOS before the cap."""
    store, batch = probe(seed, cfg)
    w, b = store["dec_lstm.w"].data, store["dec_lstm.b"].data
    hd = b.shape[0] // 4
    w[:, ::hd] = 0.0  # column 0 of each gate's block
    b[::hd] = 10.0
    b[3 * hd] = np.arctanh(rate)  # the candidate gate's
    store["dec_init_c.w"].data[:, 0] = 0.0
    store["dec_init_c.b"].data[0] = np.random.default_rng(seed + 1700).uniform(-1.5, 0.0)
    store["dec_readout.w"].data[:, 0] = 0.0
    store["dec_readout.w"].data[0, 0] = 3.0
    store["dec_readout.b"].data[0] = 0.0
    store["dec_out.w"].data[0, :] = 0.0
    store["dec_out.w"].data[:, EOS] = 0.0
    store["dec_out.w"].data[0, EOS] = eos_weight
    store["dec_out.b"].data[EOS] = 0.0
    return store, batch


class TestBeamSearchMatchesReference:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
    def test_token_identical_on_random_stores(self, alpha):
        cfg = small_cfg(max_decode_len=6, length_norm_alpha=alpha)
        lengths = []
        # At alpha >= 1 an output ended by EOS before the cap is rare on
        # these probes (1 in 100 seeds), so 100 seeds are run.
        for seed in range(100):
            store, batch = probe(seed, cfg)
            for width in (1, 2, 3, 5):
                want = reference_beam_search(*batch, store, cfg, beam_size=width)
                got = beam_search(*batch, store, cfg, beam_size=width)
                assert got == want, f"seed {seed}, width {width}: {got} vs {want}"
                lengths.append(len(want))
        # Outputs cut by the length cap and ended by EOS are both covered.
        assert cfg.max_decode_len in lengths
        assert any(0 < n < cfg.max_decode_len for n in lengths)

    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    def test_token_identical_when_eos_depends_on_the_state(self, alpha):
        cfg = small_cfg(max_decode_len=6, length_norm_alpha=alpha)
        early = 0
        for seed in range(20):
            store, batch = eos_probe(seed, cfg)
            for width in (1, 2, 3, 5):
                want = reference_beam_search(*batch, store, cfg, beam_size=width)
                got = beam_search(*batch, store, cfg, beam_size=width)
                assert got == want, f"seed {seed}, width {width}: {got} vs {want}"
                early += 0 < len(want) < cfg.max_decode_len
        # Ended by EOS after at least one token and before the cap.
        assert early >= 20

    def test_stops_before_the_cap_under_length_normalisation(self, monkeypatch):
        cfg = small_cfg(max_decode_len=30, length_norm_alpha=1.0)
        steps = []

        def counted(*args):
            steps[-1] += 1
            return step(*args)

        step = ad.attention_lstm_step
        monkeypatch.setattr(ad, "attention_lstm_step", counted)
        for seed in range(10):
            store, batch = probe(seed, cfg)
            steps.append(0)
            beam_search(*batch, store, cfg, beam_size=5)
        assert min(steps) < cfg.max_decode_len

    @pytest.mark.parametrize("alpha", [0.0, 1.0])
    def test_all_tied_logits_pick_the_lowest_token_ids(self, alpha):
        cfg = small_cfg(max_decode_len=4, length_norm_alpha=alpha)
        store = make_store(cfg)
        for name, t in store.items():
            t.data = np.zeros_like(t.data)
        batch = one(random_nodes(2), Tensor(np.zeros(NODE_DIM)))
        for width in (1, 2, 3, 5):
            got = beam_search(*batch, store, cfg, beam_size=width)
            assert got == reference_beam_search(*batch, store, cfg, beam_size=width)
            # Below EOS's id only PAD and BOS tie with it; PAD wins every
            # step, and once EOS is in the beam the empty output ties and
            # was found first.
            assert got == ([0] * cfg.max_decode_len if width <= EOS else [])
