import numpy as np

from sql2text import autodiff as ad
from sql2text.autodiff import Tensor, default_dtype
from sql2text.data import SPECIAL_TOKENS, Vocabulary
from sql2text.config import TrainConfig
from sql2text.encoder import (
    aggregate_direction,
    build_encoder_params,
    encode,
    graph_embedding_pooling,
    init_node_features,
    padded_index,
    propagate,
)
from sql2text.graphs import GraphNode, QueryGraph, build_graph, to_undirected
from sql2text.optim import ParameterStore, randomize_parameters
from sql2text.parser import parse


def make_graph(n_nodes, edges, texts=None):
    texts = texts or [(f"t{i}",) for i in range(n_nodes)]
    return QueryGraph(
        nodes=[GraphNode(i, "column", texts[i]) for i in range(n_nodes)],
        edges=list(edges),
    )


def hop_store(cfg: TrainConfig, seed=0) -> ParameterStore:
    store = ParameterStore()
    build_encoder_params(store, 16, cfg, np.random.default_rng(seed))
    return store


def vocab_over(tokens) -> Vocabulary:
    return Vocabulary(list(SPECIAL_TOKENS) + sorted(set(tokens)))


def all_rows(n):
    # One segment holding rows 0..n-1.
    return padded_index([range(n)])


# Independent plain-numpy transcription of the propagation recurrence.
def oracle_propagate(feats, edges, store, cfg):
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
        transformed = np.maximum(np.stack(vectors) @ w + b, 0.0)
        return transformed.max(axis=0)

    def out_params(k, direction):
        return store[f"hop{k}.{direction}.out.w"].data, store[f"hop{k}.{direction}.out.b"].data

    for k in range(1, cfg.hop_size + 1):
        new_f, new_b = [], []
        for v in range(n):
            aw, ab = store[f"hop{k}.fwd.agg.w"].data, store[f"hop{k}.fwd.agg.b"].data
            nbh = agg([h_f[u] for u in fwd[v]], aw, ab)
            ow, ob = out_params(k, "fwd")
            new_f.append(np.maximum(np.concatenate([h_f[v], nbh]) @ ow + ob, 0.0))
            aw, ab = store[f"hop{k}.bwd.agg.w"].data, store[f"hop{k}.bwd.agg.b"].data
            nbh = agg([h_b[u] for u in bwd[v]], aw, ab)
            ow, ob = out_params(k, "bwd")
            new_b.append(np.maximum(np.concatenate([h_b[v], nbh]) @ ow + ob, 0.0))
        h_f, h_b = new_f, new_b
    return [np.concatenate([f, b]) for f, b in zip(h_f, h_b)]


class TestTwoNodeHandFixture:
    """u -> v, K=1, d=2, identity-style weights; values derived by hand."""

    def setup_method(self):
        self.cfg = TrainConfig(hop_size=1, hidden=2, word_dim=2)
        self.store = hop_store(self.cfg)
        eye = np.eye(2)
        fold = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        for direction in ("fwd", "bwd"):
            self.store[f"hop1.{direction}.agg.w"].data = eye.copy()
            self.store[f"hop1.{direction}.agg.b"].data = np.zeros(2)
            self.store[f"hop1.{direction}.out.w"].data = fold.copy()
            self.store[f"hop1.{direction}.out.b"].data = np.zeros(2)
        self.graph = make_graph(2, [(0, 1)])
        self.feats = Tensor([[1.0, 2.0], [3.0, -1.0]])

    def test_frozen_hand_values(self):
        # K=1: the forward half of each row is hop 1's forward state, the
        # backward half hop 1's backward state.
        final = propagate(self.graph, self.feats, self.store, self.cfg).data
        assert np.allclose(final[0, :2], [4.0, 2.0], atol=1e-6)
        assert np.allclose(final[1, :2], [3.0, 0.0], atol=1e-6)
        assert np.allclose(final[0, 2:], [1.0, 2.0], atol=1e-6)
        assert np.allclose(final[1, 2:], [4.0, 1.0], atol=1e-6)
        assert np.allclose(final[0], [4.0, 2.0, 1.0, 2.0], atol=1e-6)
        assert np.allclose(final[1], [3.0, 0.0, 4.0, 1.0], atol=1e-6)

    def test_base_case_is_initial_features(self):
        # Hop 0 is the initial feature vector for both directions.
        cfg0 = TrainConfig(hop_size=0, hidden=2, word_dim=2)
        final = propagate(self.graph, self.feats, self.store, cfg0).data
        for v in range(2):
            assert np.array_equal(final[v, :2], self.feats.data[v])
            assert np.array_equal(final[v, 2:], self.feats.data[v])


class TestPropagate:
    def test_k0_concatenates_features_and_ignores_edges(self):
        cfg = TrainConfig(hop_size=0, hidden=3, word_dim=3)
        store = hop_store(cfg)
        feats = Tensor([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        final = propagate(make_graph(2, [(0, 1)]), feats, store, cfg)
        assert np.allclose(final.data[0], [1, 2, 3, 1, 2, 3])
        assert np.allclose(final.data[1], [4, 5, 6, 4, 5, 6])
        no_edges = propagate(make_graph(2, []), feats, store, cfg)
        for v in range(2):
            assert np.array_equal(final.data[v], no_edges.data[v])

    def test_three_node_matches_oracle(self):
        with default_dtype(np.float64):
            cfg = TrainConfig(hop_size=2, hidden=3, word_dim=3)
            store = hop_store(cfg, seed=5)
            randomize_parameters(store, np.random.default_rng(9))
            edges = [(0, 1), (1, 2), (0, 2)]
            rng = np.random.default_rng(3)
            raw = rng.normal(size=(3, 3))
            final = propagate(make_graph(3, edges), Tensor(raw), store, cfg)
            expected = oracle_propagate(raw, edges, store, cfg)
            for v in range(3):
                assert np.allclose(final.data[v], expected[v], atol=1e-6)

    def test_isolated_node_uses_zero_neighborhoods(self):
        cfg = TrainConfig(hop_size=2, hidden=3, word_dim=3)
        store = hop_store(cfg, seed=2)
        feats = np.array([[0.5, -0.5, 1.0], [1.0, 1.0, 1.0], [0.1, 0.2, 0.3]])
        final = propagate(make_graph(3, [(1, 2)]), Tensor(feats), store, cfg)
        alone = propagate(make_graph(1, []), Tensor(feats[:1]), store, cfg)
        assert np.array_equal(final.data[0], alone.data[0])

    def test_permutation_of_adjacency_storage_is_exact(self):
        cfg = TrainConfig(hop_size=3, hidden=4, word_dim=4)
        store = hop_store(cfg, seed=7)
        graph = build_graph(parse(
            "SELECT company WHERE assets > val0 AND sales > val0 AND industry <= val1 AND profits = val2"
        ))
        rng = np.random.default_rng(0)
        feats_raw = rng.normal(size=(len(graph.nodes), 4))
        base = propagate(graph, Tensor(feats_raw), store, cfg)
        perm_rng = np.random.default_rng(123)
        for _ in range(100):
            edges = list(graph.edges)
            perm_rng.shuffle(edges)
            shuffled = QueryGraph(list(graph.nodes), edges)
            out = propagate(shuffled, Tensor(feats_raw), store, cfg)
            for v in range(len(graph.nodes)):
                assert np.array_equal(base.data[v], out.data[v])

    def test_hop_locality_on_path_graph(self):
        cfg = TrainConfig(hop_size=2, hidden=4, word_dim=4)
        store = hop_store(cfg, seed=1)
        vocab = vocab_over(["t0", "t1", "t2", "original", "mutated"])

        def endpoint_embedding(last_text):
            graph = make_graph(4, [(0, 1), (1, 2), (2, 3)],
                               texts=[("t0",), ("t1",), ("t2",), (last_text,)])
            feats = init_node_features(graph, vocab, store)
            return propagate(graph, feats, store, cfg).data[0]

        assert np.array_equal(endpoint_embedding("original"), endpoint_embedding("mutated"))

    def test_distance_two_node_does_affect_with_k2(self):
        # Locality is tight: the same mutation two hops away must show up.
        cfg = TrainConfig(hop_size=2, hidden=4, word_dim=4)
        store = hop_store(cfg, seed=1)
        randomize_parameters(store, np.random.default_rng(20))
        vocab = vocab_over(["t0", "t1", "original", "mutated"])

        def endpoint_embedding(text):
            graph = make_graph(3, [(0, 1), (1, 2)], texts=[("t0",), ("t1",), (text,)])
            feats = init_node_features(graph, vocab, store)
            return propagate(graph, feats, store, cfg).data[0]

        assert not np.array_equal(endpoint_embedding("original"), endpoint_embedding("mutated"))

    def test_direction_matters(self):
        cfg = TrainConfig(hop_size=1, hidden=4, word_dim=4)
        store = hop_store(cfg, seed=3)
        randomize_parameters(store, np.random.default_rng(10))
        vocab = vocab_over(["u", "v"])
        graph = make_graph(2, [(0, 1)], texts=[("u",), ("v",)])
        feats = init_node_features(graph, vocab, store)
        directed = propagate(graph, feats, store, cfg)
        assert not np.allclose(directed.data[0], directed.data[1])
        undirected = propagate(to_undirected(graph), feats, store, cfg)
        changed = any(
            not np.array_equal(directed.data[v], undirected.data[v])
            for v in range(2)
        )
        assert changed


class TestAggregateDirection:
    def test_empty_neighborhood_gives_zero(self):
        cfg = TrainConfig(hop_size=1, hidden=3, word_dim=3)
        store = hop_store(cfg)
        out = aggregate_direction(Tensor(np.ones((1, 3))), padded_index([[]]), store, 1, "fwd")
        assert np.array_equal(out.data[0], np.zeros(3, dtype=np.float32))

    def test_singleton_is_transformed_vector(self):
        with default_dtype(np.float64):
            cfg = TrainConfig(hop_size=1, hidden=3, word_dim=3)
            store = hop_store(cfg, seed=4)
            h = np.array([0.3, -0.7, 1.1])
            out = aggregate_direction(Tensor(h[None, :]), padded_index([[0]]), store, 1, "fwd")
            w, b = store["hop1.fwd.agg.w"].data, store["hop1.fwd.agg.b"].data
            assert np.allclose(out.data[0], np.maximum(h @ w + b, 0.0))

    def test_identity_weights_three_neighbors(self):
        cfg = TrainConfig(hop_size=1, hidden=3, word_dim=3)
        store = hop_store(cfg)
        store["hop1.fwd.agg.w"].data = np.eye(3, dtype=np.float32)
        store["hop1.fwd.agg.b"].data = np.zeros(3, dtype=np.float32)
        rows = Tensor([[1.0, -2.0, 0.5], [-0.5, 3.0, 0.25], [0.0, 0.0, 4.0]])
        out = aggregate_direction(rows, padded_index([[0, 1, 2]]), store, 1, "fwd")
        expected = np.maximum(rows.data, 0.0).max(axis=0)
        assert np.allclose(out.data[0], expected)


class TestNodeFeatures:
    def test_single_token_is_one_recurrent_step(self):
        with default_dtype(np.float64):
            cfg = TrainConfig(hop_size=1, hidden=2, word_dim=2)
            store = hop_store(cfg, seed=6)
            randomize_parameters(store, np.random.default_rng(2))
            vocab = vocab_over(["select"])
            graph = make_graph(1, [], texts=[("select",)])
            feats = init_node_features(graph, vocab, store)
            assert np.allclose(feats.data[0], _oracle_lstm(store, vocab, ("select",)), atol=1e-12)

    def test_two_token_node_matches_hand_recurrence(self):
        with default_dtype(np.float64):
            cfg = TrainConfig(hop_size=1, hidden=2, word_dim=2)
            store = hop_store(cfg, seed=6)
            randomize_parameters(store, np.random.default_rng(3))
            vocab = vocab_over([">", "val_0"])
            graph = make_graph(1, [], texts=[(">", "val_0")])
            feats = init_node_features(graph, vocab, store)
            assert np.allclose(feats.data[0], _oracle_lstm(store, vocab, (">", "val_0")), atol=1e-12)

    def test_identical_texts_share_features(self):
        cfg = TrainConfig(hop_size=1, hidden=3, word_dim=3)
        store = hop_store(cfg, seed=8)
        vocab = vocab_over(["dup"])
        graph = make_graph(2, [], texts=[("dup",), ("dup",)])
        feats = init_node_features(graph, vocab, store)
        assert np.array_equal(feats.data[0], feats.data[1])

    def test_unknown_tokens_map_to_unk(self):
        cfg = TrainConfig(hop_size=1, hidden=3, word_dim=3)
        store = hop_store(cfg, seed=8)
        vocab = vocab_over(["known"])
        known = make_graph(1, [], texts=[("mystery",)])
        also_unknown = make_graph(1, [], texts=[("enigma",)])
        f1 = init_node_features(known, vocab, store)
        f2 = init_node_features(also_unknown, vocab, store)
        assert np.array_equal(f1.data[0], f2.data[0])


def _oracle_lstm(store, vocab, text):
    # Direct transcription of the gate equations, outside the autodiff path.
    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    d = store["node_lstm.i.b"].data.shape[0]
    h = np.zeros(d)
    c = np.zeros(d)
    for token in text:
        x = store["src_embed"].data[vocab.id(token)]
        z = np.concatenate([x, h])
        i = sig(z @ store["node_lstm.i.w"].data + store["node_lstm.i.b"].data)
        f = sig(z @ store["node_lstm.f.w"].data + store["node_lstm.f.b"].data)
        o = sig(z @ store["node_lstm.o.w"].data + store["node_lstm.o.b"].data)
        g = np.tanh(z @ store["node_lstm.c.w"].data + store["node_lstm.c.b"].data)
        c = f * c + i * g
        h = o * np.tanh(c)
    return h


class TestGraphEmbedding:
    def test_pooling_single_node(self):
        with default_dtype(np.float64):
            cfg = TrainConfig(hop_size=0, hidden=2, word_dim=2)
            store = hop_store(cfg, seed=11)
            randomize_parameters(store, np.random.default_rng(4))
            final = Tensor(np.array([[0.5, -1.0, 2.0, 0.0]]))
            out = graph_embedding_pooling(final, all_rows(1), store)
            w, b = store["ge_pool.w"].data, store["ge_pool.b"].data
            assert np.allclose(out.data[0], final.data[0] @ w + b)

    def test_pooling_equal_rows(self):
        cfg = TrainConfig(hop_size=0, hidden=2, word_dim=2)
        store = hop_store(cfg, seed=11)
        row = np.array([0.5, -1.0, 2.0, 0.0], dtype=np.float32)
        out = graph_embedding_pooling(Tensor(np.stack([row, row, row])), all_rows(3), store)
        single = graph_embedding_pooling(Tensor(row.reshape(1, 4)), all_rows(1), store)
        # BLAS may group the two matmul shapes differently; equality is
        # mathematical, not bitwise.
        assert np.allclose(out.data, single.data, atol=1e-6)

    def test_pooling_matches_brute_force(self):
        with default_dtype(np.float64):
            cfg = TrainConfig(hop_size=0, hidden=3, word_dim=3)
            store = hop_store(cfg, seed=12)
            randomize_parameters(store, np.random.default_rng(5))
            rows = np.random.default_rng(6).normal(size=(5, 6))
            out = graph_embedding_pooling(Tensor(rows), all_rows(5), store)
            w, b = store["ge_pool.w"].data, store["ge_pool.b"].data
            assert np.allclose(out.data[0], (rows @ w + b).max(axis=0))

    def test_supernode_k0_independent_of_graph(self):
        cfg = TrainConfig(hop_size=0, hidden=3, word_dim=3, ge_method="supernode")
        store = hop_store(cfg, seed=13)
        vocab = vocab_over(["a", "b", "c", "<super>"])
        *_, ge1 = encode([build_graph(parse("SELECT a"))], vocab, store, cfg)
        *_, ge2 = encode([build_graph(parse("SELECT b, c"))], vocab, store, cfg)
        assert np.array_equal(ge1.data, ge2.data)

    def test_supernode_three_node_matches_oracle(self):
        with default_dtype(np.float64):
            from sql2text.graphs import add_super_node

            cfg = TrainConfig(hop_size=1, hidden=3, word_dim=3, ge_method="supernode")
            store = hop_store(cfg, seed=14)
            randomize_parameters(store, np.random.default_rng(7))
            vocab = vocab_over(["a", "b", "c", "<super>"])
            graph = make_graph(3, [(0, 1), (0, 2)], texts=[("a",), ("b",), ("c",)])
            *_, ge = encode([graph], vocab, store, cfg)
            augmented = add_super_node(graph)
            feats = init_node_features(augmented, vocab, store)
            expected = oracle_propagate(list(feats.data), augmented.edges, store, cfg)
            assert np.allclose(ge.data[0], expected[-1], atol=1e-9)

    def test_pooling_and_supernode_differ(self):
        cfg_pool = TrainConfig(hop_size=1, hidden=3, word_dim=3, ge_method="pooling")
        store = hop_store(cfg_pool, seed=15)
        randomize_parameters(store, np.random.default_rng(8))
        vocab = vocab_over(["a", "b", "<super>"])
        graph = build_graph(parse("SELECT a, b"))
        *_, ge_pool = encode([graph], vocab, store, cfg_pool)
        cfg_super = TrainConfig(hop_size=1, hidden=3, word_dim=3, ge_method="supernode")
        *_, ge_super = encode([graph], vocab, store, cfg_super)
        assert not np.allclose(ge_pool.data, ge_super.data)


def test_encoder_gradients_match_finite_differences():
    from sql2text.optim import finite_difference_check

    cfg = TrainConfig(hop_size=2, hidden=3, word_dim=3)
    store = hop_store(cfg, seed=16)
    randomize_parameters(store, np.random.default_rng(11))
    vocab = vocab_over(["a", "b"])
    graph = build_graph(parse("SELECT a, b"))

    def loss(s):
        # A scalar that every entry of both outputs moves: cross-entropy over their rows.
        nodes, _, ge = encode([graph], vocab, s, cfg)
        rows = ad.concat([ge, nodes], axis=0)
        return ad.cross_entropy(rows, np.arange(len(rows.data)) % rows.data.shape[1])

    err = finite_difference_check(loss, store, samples=60, rng=np.random.default_rng(12))
    assert err < 1e-3
