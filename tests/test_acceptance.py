"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with ``pytest -s`` to see them)."""

import itertools
import time

import numpy as np
import pytest

from sql2text import autodiff as ad
from sql2text.autodiff import Tensor, default_dtype
from sql2text.checkpoint import load_checkpoint, restore_model, save_checkpoint
from sql2text.cli import main
from sql2text.data import SPECIAL_TOKENS, ExamplePair, Vocabulary, build_vocab, tokenize_text
from sql2text.decoder import attention_memory, init_state, next_token_logits
from sql2text.encoder import build_encoder_params, init_node_features, propagate
from sql2text.evaluation import bleu4_corpus, evaluate_model
from sql2text.graphs import GraphNode, QueryGraph, build_graph, template_interpret, to_undirected
from sql2text.model import GraphToSequenceModel, query_graph
from sql2text.optim import ParameterStore, finite_difference_check, randomize_parameters
from sql2text.parser import parse
from sql2text.training import TrainConfig, train

from test_evaluation import random_corpus, reference_bleu

GOLDEN_QUERY = (
    "SELECT company WHERE assets > val0 AND sales > val0 "
    "AND industry <= val1 AND profits = val2"
)

GOLDEN_SENTENCE = (
    "which company where assets more than val_0 and sales more than val_0 "
    "and industry less than or equal to val_1 and profits equals val_2"
)


def announce(criterion: str, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_01_graph_construction_golden():
    start = time.perf_counter()
    runs = [build_graph(parse(GOLDEN_QUERY)) for _ in range(10)]
    graph = runs[0]
    assert len(graph.nodes) == 10
    assert len(graph.edges) == 10
    merged = [n for n in graph.nodes if n.text == (">", "val_0")]
    assert len(merged) == 1
    in_degree = sum(1 for _, dst in graph.edges if dst == merged[0].id)
    assert in_degree == 2
    for other in runs[1:]:
        assert [(n.kind, n.text) for n in other.nodes] == [(n.kind, n.text) for n in graph.nodes]
        assert other.edges == graph.edges
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce("1", f"10 nodes / 10 edges, merged constraint in-degree 2, 10 identical runs in {elapsed:.3f}s")


def test_criterion_02_template_fidelity(capsys):
    start = time.perf_counter()
    code = main(["template", GOLDEN_QUERY])
    out = capsys.readouterr().out.strip()
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out == GOLDEN_SENTENCE
    assert elapsed < 1.0
    with capsys.disabled():
        announce("2", f"verbatim template sentence in {elapsed:.3f}s")


def _gradcheck_fixture(precision: str):
    sql = "SELECT a, b"  # select + two column nodes: a 3-node graph
    target = tokenize_text("which a b")
    src, tgt = build_vocab([ExamplePair(sql, target)])
    config = TrainConfig(
        word_dim=6, hidden=6, hop_size=2, dropout=0.0, precision=precision
    )
    model = GraphToSequenceModel(src, tgt, config)
    randomize_parameters(model.store, np.random.default_rng(1))
    graph = query_graph(sql, config.undirected)
    assert len(graph.nodes) == 3

    def loss_fn(store):
        return model.loss([graph], [target])[0]

    return model, loss_fn


def test_criterion_03_gradient_oracle():
    start = time.perf_counter()
    model32, loss32 = _gradcheck_fixture("float32")
    err32 = finite_difference_check(
        loss32, model32.store, samples=220, rng=np.random.default_rng(2)
    )
    model64, loss64 = _gradcheck_fixture("float64")
    err64 = finite_difference_check(
        loss64, model64.store, samples=220, rng=np.random.default_rng(2)
    )
    elapsed = time.perf_counter() - start
    assert err32 < 1e-3
    assert err64 < 1e-6
    assert elapsed < 120.0
    announce("3", f"max rel err {err32:.2e} (float32) / {err64:.2e} (float64), 220 coords each, {elapsed:.1f}s")


# A ragged batch: three targets of different lengths, so sequence_loss
# sorts the rows and the active rows shrink, and one nested condition.
ORACLE_QUERIES = (
    "SELECT a WHERE NOT (b = val_0 OR c > val_1) AND d < val_2",
    "SELECT MAX(e)",
    "SELECT f, g WHERE h = val_0",
)


# The ids spell out the additive attention and per-direction hop weights
# the model always uses, as the golden trajectories' keys do.
BRANCHES = list(itertools.product(("pooling", "supernode"), (False, True)))
BRANCH_IDS = [f"{ge_method}-additive-False-{undirected}" for ge_method, undirected in BRANCHES]


@pytest.mark.parametrize("ge_method, undirected", BRANCHES, ids=BRANCH_IDS)
def test_gradient_oracle_every_branch(ge_method, undirected):
    """The float64 finite-difference oracle on every combination of the
    two model switches, over a ragged batch of three queries."""
    config = TrainConfig(
        word_dim=5, hidden=4, hop_size=2, dropout=0.0, precision="float64",
        ge_method=ge_method, undirected=undirected,
    )
    pairs = [ExamplePair(sql, tokenize_text(template_interpret(parse(sql)))) for sql in ORACLE_QUERIES]
    assert len({len(pair.target) for pair in pairs}) == len(pairs)
    model = GraphToSequenceModel(*build_vocab(pairs), config)
    randomize_parameters(model.store, np.random.default_rng(1))
    graphs = [query_graph(pair.sql, config.undirected) for pair in pairs]

    def loss_fn(store):
        return model.loss(graphs, [pair.target for pair in pairs])[0]

    err = finite_difference_check(loss_fn, model.store, samples=150, rng=np.random.default_rng(2))
    assert err < 1e-6


def test_criterion_04_propagation_hand_oracle():
    start = time.perf_counter()

    # Two-node fixture u -> v with fold-and-add weights; frozen hand values.
    cfg = TrainConfig(hop_size=1, hidden=2, word_dim=2)
    store = ParameterStore()
    build_encoder_params(store, 8, cfg, np.random.default_rng(0))
    fold = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
    for direction in ("fwd", "bwd"):
        store[f"hop1.{direction}.agg.w"].data = np.eye(2, dtype=np.float32)
        store[f"hop1.{direction}.agg.b"].data = np.zeros(2, dtype=np.float32)
        store[f"hop1.{direction}.out.w"].data = fold.copy()
        store[f"hop1.{direction}.out.b"].data = np.zeros(2, dtype=np.float32)
    graph = QueryGraph(
        nodes=[GraphNode(0, "column", ("u",)), GraphNode(1, "column", ("v",))],
        edges=[(0, 1)],
    )
    feats = Tensor([[1.0, 2.0], [3.0, -1.0]])
    final = propagate(graph, feats, store, cfg)
    assert np.allclose(final.data[0], [4.0, 2.0, 1.0, 2.0], atol=1e-6)
    assert np.allclose(final.data[1], [3.0, 0.0, 4.0, 1.0], atol=1e-6)

    # Three-node fixture vs an independent plain-numpy transcription.
    with default_dtype(np.float64):
        cfg3 = TrainConfig(hop_size=2, hidden=3, word_dim=3)
        store3 = ParameterStore()
        build_encoder_params(store3, 8, cfg3, np.random.default_rng(3))
        randomize_parameters(store3, np.random.default_rng(4))
        edges = [(0, 1), (1, 2), (0, 2)]
        raw = np.random.default_rng(5).normal(size=(3, 3))
        graph3 = QueryGraph(
            nodes=[GraphNode(i, "column", (f"n{i}",)) for i in range(3)], edges=edges
        )
        final3 = propagate(graph3, Tensor(raw), store3, cfg3)
        expected = _oracle_propagate(raw, edges, store3, cfg3)
        for v in range(3):
            assert np.allclose(final3.data[v], expected[v], atol=1e-6)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    announce("4", f"2-node frozen values and 3-node oracle agree within 1e-6 in {elapsed:.3f}s")


def _oracle_propagate(feats, edges, store, cfg):
    n = len(feats)
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for s, d in edges:
        fwd[s].append(d)
        bwd[d].append(s)
    h_f = [np.asarray(f, dtype=np.float64) for f in feats]
    h_b = [np.asarray(f, dtype=np.float64) for f in feats]

    def agg(vectors, w, b):
        if not vectors:
            return np.zeros(cfg.hidden)
        return np.maximum(np.stack(vectors) @ w + b, 0.0).max(axis=0)

    for k in range(1, cfg.hop_size + 1):
        new_f, new_b = [], []
        for v in range(n):
            nbh = agg([h_f[u] for u in fwd[v]],
                      store[f"hop{k}.fwd.agg.w"].data, store[f"hop{k}.fwd.agg.b"].data)
            ow, ob = store[f"hop{k}.fwd.out.w"].data, store[f"hop{k}.fwd.out.b"].data
            new_f.append(np.maximum(np.concatenate([h_f[v], nbh]) @ ow + ob, 0.0))
            nbh = agg([h_b[u] for u in bwd[v]],
                      store[f"hop{k}.bwd.agg.w"].data, store[f"hop{k}.bwd.agg.b"].data)
            ow, ob = store[f"hop{k}.bwd.out.w"].data, store[f"hop{k}.bwd.out.b"].data
            new_b.append(np.maximum(np.concatenate([h_b[v], nbh]) @ ow + ob, 0.0))
        h_f, h_b = new_f, new_b
    return [np.concatenate([f, b]) for f, b in zip(h_f, h_b)]


def test_criterion_05_permutation_invariance():
    cfg = TrainConfig(hop_size=3, hidden=4, word_dim=4)
    store = ParameterStore()
    build_encoder_params(store, 8, cfg, np.random.default_rng(6))
    randomize_parameters(store, np.random.default_rng(7))
    graph = build_graph(parse(GOLDEN_QUERY))
    feats_raw = np.random.default_rng(8).normal(size=(len(graph.nodes), 4))
    base = propagate(graph, Tensor(feats_raw), store, cfg)
    rng = np.random.default_rng(9)
    for _ in range(100):
        edges = list(graph.edges)
        rng.shuffle(edges)
        out = propagate(QueryGraph(list(graph.nodes), edges), Tensor(feats_raw), store, cfg)
        for v in range(len(graph.nodes)):
            assert np.array_equal(base.data[v], out.data[v])
    announce("5", "100 adjacency permutations, all node embeddings bitwise identical")


def test_criterion_06_hop_locality():
    cfg = TrainConfig(hop_size=2, hidden=4, word_dim=4)
    store = ParameterStore()
    build_encoder_params(store, 16, cfg, np.random.default_rng(10))
    randomize_parameters(store, np.random.default_rng(11))
    vocab = Vocabulary(list(SPECIAL_TOKENS) + ["t0", "t1", "t2", "original", "mutated"])

    def far_endpoint(last_text):
        graph = QueryGraph(
            nodes=[
                GraphNode(0, "column", ("t0",)),
                GraphNode(1, "column", ("t1",)),
                GraphNode(2, "column", ("t2",)),
                GraphNode(3, "column", (last_text,)),
            ],
            edges=[(0, 1), (1, 2), (2, 3)],
        )
        feats = init_node_features(graph, vocab, store)
        return propagate(graph, feats, store, cfg).data[0]

    assert np.array_equal(far_endpoint("original"), far_endpoint("mutated"))
    announce("6", "K=2 path graph: distance-3 text mutation leaves endpoint bitwise unchanged")


def test_criterion_07_decoder_equivalences():
    target = tokenize_text(GOLDEN_SENTENCE)
    src, tgt = build_vocab([ExamplePair(GOLDEN_QUERY, target)])
    config = TrainConfig(word_dim=6, hidden=6, hop_size=1, dropout=0.0, max_decode_len=12)
    model = GraphToSequenceModel(src, tgt, config)
    graph = query_graph(GOLDEN_QUERY, config.undirected)
    for seed in range(50):
        randomize_parameters(model.store, np.random.default_rng(seed), scale=1.0)
        greedy = model.generate(graph, greedy=True)
        beamed = model.generate(graph, beam_size=1)
        assert greedy == beamed, f"probe {seed}: {greedy} vs {beamed}"

    # Attention weights along a decode rollout sum to 1 at every step.
    randomize_parameters(model.store, np.random.default_rng(123))
    node_rows, segments, graph_emb = model.encode_graphs([graph])
    memory = attention_memory(node_rows.data, segments, [0], model.store)
    state = init_state(graph_emb.data, memory, model.store, config)
    embed = model.store["tgt_embed"].data
    for _ in range(10):
        _, weights, _ = ad.additive_attention(state.h, *memory)
        assert (weights >= 0).all()
        assert abs(float(weights.sum()) - 1.0) < 1e-6
        state.h, state.c, state.context, _, _ = ad.attention_lstm_step(
            embed[state.prev], state.context, state.h, state.c, *memory
        )
        state.prev = np.argmax(next_token_logits(state, model.store), axis=1)
    announce("7", "beam-1 equals greedy on 50 probes; attention weights sum to 1 at every step")


def _toy_template_corpus(n_pairs=20, seed=7):
    rng = np.random.default_rng(seed)
    cols = ["name", "age", "city", "team", "year", "score", "rank", "wins"]
    aggs = [None, "count", "max", "min", "sum", "avg"]
    cmps = [">", "<", ">=", "<=", "=", "!="]
    pairs = []
    for _ in range(n_pairs):
        sel = cols[int(rng.integers(0, len(cols)))]
        agg = aggs[int(rng.integers(0, len(aggs)))]
        used = [c for c in cols if c != sel]
        rng.shuffle(used)
        conds = [
            f"{used[j]} {cmps[int(rng.integers(0, len(cmps)))]} val_{j}"
            for j in range(int(rng.integers(1, 3)))
        ]
        head = f"select {agg} {sel}" if agg else f"select {sel}"
        sql = head + " where " + " and ".join(conds)
        pairs.append(ExamplePair(sql, tokenize_text(template_interpret(parse(sql)))))
    return pairs


@pytest.mark.slow
def test_criterion_08_overfit_smoke(tmp_path, capsys):
    start = time.perf_counter()
    pairs = _toy_template_corpus()
    assert len(pairs) == 20
    # batch_size=1: a 20-pair corpus at batch 30 would give one optimizer
    # step per epoch, too few to fit within the 300-epoch budget.
    config = TrainConfig(
        word_dim=64, hidden=64, hop_size=3, epochs=300, batch_size=1,
        lr=0.001, dropout=0.5, clip_norm=20.0, seed=0, patience=0,
    )
    result = train(config, pairs)
    report = evaluate_model(result.model, pairs)
    elapsed = time.perf_counter() - start
    assert report.corpus_bleu4 >= 0.90
    assert elapsed < 600.0

    # The memorized model also clears the batch-evaluation surface.
    import json

    ckpt_path = tmp_path / "memorized.ckpt"
    save_checkpoint(ckpt_path, result.checkpoint)
    data_path = tmp_path / "toy.jsonl"
    with data_path.open("w") as fh:
        for pair in pairs:
            fh.write(json.dumps({"sql": pair.sql, "text": " ".join(pair.target)}) + "\n")
    report_path = tmp_path / "report.json"
    code = main([
        "evaluate", "--checkpoint", str(ckpt_path), "--test", str(data_path),
        "--report", str(report_path),
    ])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["corpus_bleu4"] >= 0.99
    announce("8", f"train BLEU-4 {report.corpus_bleu4:.4f} after {len(result.metrics)} epochs in {elapsed:.0f}s; report BLEU {payload['corpus_bleu4']:.4f}")


def test_criterion_09_bleu_oracle():
    rng = np.random.default_rng(40)
    hyps, refs = random_corpus(rng, 50)
    report = bleu4_corpus(hyps, refs)
    expected = reference_bleu(hyps, refs)
    assert report.corpus_bleu4 == pytest.approx(expected, abs=1e-9)
    identical = [["the", "query", "selects", "rows", "where", "x"] for _ in range(5)]
    assert bleu4_corpus(identical, [list(r) for r in identical]).corpus_bleu4 == 1.0
    announce("9", f"independent-formula agreement |Δ| ≤ 1e-9 on 50 pairs; identical corpus scores exactly 1.0")


def test_criterion_10_ablation_levers():
    target = tokenize_text(GOLDEN_SENTENCE)
    src, tgt = build_vocab([ExamplePair(GOLDEN_QUERY, target)])

    directed_model = GraphToSequenceModel(
        src, tgt, TrainConfig(word_dim=6, hidden=6, hop_size=2, dropout=0.0)
    )
    randomize_parameters(directed_model.store, np.random.default_rng(21))
    graph = build_graph(parse(GOLDEN_QUERY))
    directed_nodes, _, directed_ge = directed_model.encode_graphs([graph])
    undirected_nodes, _, _ = directed_model.encode_graphs([to_undirected(graph)])
    assert not np.array_equal(directed_nodes.data, undirected_nodes.data)

    supernode_model = GraphToSequenceModel(
        src, tgt,
        TrainConfig(word_dim=6, hidden=6, hop_size=2, dropout=0.0, ge_method="supernode"),
    )
    randomize_parameters(supernode_model.store, np.random.default_rng(21))
    *_, supernode_ge = supernode_model.encode_graphs([graph])
    assert not np.allclose(directed_ge.data, supernode_ge.data)
    announce("10", "undirected flag changes node embeddings; pooling vs supernode embeddings differ")


def test_criterion_11_determinism_and_persistence(tmp_path):
    pairs = _toy_template_corpus(n_pairs=4, seed=3)
    config = TrainConfig(word_dim=8, hidden=8, hop_size=1, epochs=2, batch_size=2, seed=5)
    first = train(config, pairs)
    second = train(config, pairs)
    assert first.metrics[0].train_loss == second.metrics[0].train_loss

    probe = pairs[0].sql
    before = first.model.generate(probe)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, first.checkpoint)
    restored = restore_model(load_checkpoint(path))
    assert restored.generate(probe) == before
    announce("11", "identical epoch-1 losses across seeded runs; checkpoint round-trip reproduces generation")
