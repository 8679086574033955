"""One batched forward over a minibatch equals the sum of its
single-example forwards, in float64, for every model variant."""

import numpy as np
import pytest

from sql2text.autodiff import default_dtype
from sql2text.config import TrainConfig
from sql2text.data import ExamplePair, build_vocab, tokenize_text
from sql2text.graphs import template_interpret
from sql2text.model import GraphToSequenceModel, query_graph
from sql2text.optim import randomize_parameters
from sql2text.parser import parse

# 2, 8, 5 and 11 nodes; targets of 2 to 20 tokens.
SQLS = [
    "SELECT a",
    "SELECT COUNT d WHERE e = val0 AND f < val1",
    "SELECT b, c WHERE g > val0",
    "SELECT h WHERE NOT (i <= val0 AND j = val1) OR k > val2",
]

VARIANTS = {
    "pooling_additive": {},
    "supernode": {"ge_method": "supernode"},
    "undirected": {"undirected": True},
}

TOL = 1e-10


@pytest.fixture(autouse=True)
def f64():
    with default_dtype(np.float64):
        yield


def make_model(dropout=0.0, **overrides):
    pairs = [ExamplePair(s, tokenize_text(template_interpret(parse(s)))) for s in SQLS]
    src, tgt = build_vocab(pairs)
    config = TrainConfig(
        word_dim=5, hidden=4, hop_size=2, dropout=dropout, precision="float64", **overrides
    )
    model = GraphToSequenceModel(src, tgt, config)
    randomize_parameters(model.store, np.random.default_rng(1))
    graphs = [query_graph(s, config.undirected) for s in SQLS]
    return model, graphs, [p.target for p in pairs]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_batch_loss_and_gradients_equal_single_example_sums(variant):
    model, graphs, targets = make_model(**VARIANTS[variant])
    loss, tokens = model.loss(graphs, targets)
    loss.backward()
    batched = {name: t.grad for name, t in model.store.items()}
    model.store.zero_grad()

    total, count = 0.0, 0
    for graph, target in zip(graphs, targets):
        single, n = model.loss([graph], [target])
        single.backward()  # gradients accumulate over the calls
        total += single.item()
        count += n

    assert tokens == count == sum(len(t) + 1 for t in targets)
    assert abs(loss.item() - total) < TOL
    for name, t in model.store.items():
        assert (batched[name] is None) == (t.grad is None), name
        if t.grad is not None:
            np.testing.assert_allclose(batched[name], t.grad, rtol=0, atol=TOL, err_msg=name)


def test_dropout_masks_follow_batch_order():
    model, graphs, targets = make_model(dropout=0.5)
    batch, _ = model.loss(graphs, targets, rng=np.random.default_rng(7))
    rng = np.random.default_rng(7)
    singles = sum(
        model.loss([graph], [target], rng=rng)[0].item()
        for graph, target in zip(graphs, targets)
    )
    assert abs(batch.item() - singles) < TOL
    no_dropout, _ = model.loss(graphs, targets)
    assert abs(batch.item() - no_dropout.item()) > 1e-3
