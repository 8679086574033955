"""Seeded float64 training trajectories on every model branch, compared
with a golden recorded once.

For each of the 4 ``ge_method`` x ``undirected`` combinations, a small
``train()`` with dropout takes three Adam steps (one whole-batch step per
epoch), and the trained model decodes each query greedily and with a
beam of 3.  The per-step loss and gradient norm, a checksum of the final
parameters and the decoded ids must match ``golden_trajectories.json``
at a relative tolerance of 1e-9 (BLAS summation order differs between
machines, so the comparison is not bitwise).

The golden was recorded at commit 86445cb by running this file as a
script.  It is never re-recorded to make a change pass: a change that
moves a trajectory changes the model's numerics, and says so.
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from sql2text.data import ExamplePair, tokenize_text
from sql2text.graphs import template_interpret
from sql2text.parser import parse
from sql2text.training import TrainConfig, train

GOLDEN_PATH = Path(__file__).with_name("golden_trajectories.json")
REL_TOL = 1e-9

# Flat queries only: template text of nested conditions may still change.
QUERIES = (
    "SELECT a WHERE b > val0",
    "SELECT c",
    "SELECT COUNT d WHERE e = val0 AND f < val1",
    "SELECT g, h WHERE i <= val0",
    "SELECT MAX j WHERE k = val0 AND b >= val1 AND e != val2",
)
# Decoded after training: the training queries plus one with unseen words.
DECODE_QUERIES = QUERIES + ("SELECT m WHERE n = val0",)

BRANCHES = list(itertools.product(("pooling", "supernode"), (False, True)))


def branch_key(ge_method, undirected) -> str:
    # Keys and test ids still spell out the additive attention and the
    # per-direction hop weights that every branch uses.
    return f"{ge_method}-additive-share=False-undirected={undirected}"


def trajectory(ge_method, undirected) -> dict:
    config = TrainConfig(
        word_dim=5, hidden=4, hop_size=2, dropout=0.3, precision="float64",
        lr=0.1, epochs=3, batch_size=len(QUERIES), patience=0, seed=3,
        max_decode_len=12, length_norm_alpha=1.0,
        ge_method=ge_method, undirected=undirected,
    )
    pairs = [ExamplePair(sql, tokenize_text(template_interpret(parse(sql)))) for sql in QUERIES]
    result = train(config, pairs)
    model = result.model
    return {
        "loss": [m.train_loss for m in result.metrics],
        "grad_norm": [log.grad_norm for log in result.batch_logs],
        "param_abs_sum": sum(float(np.abs(t.data).sum()) for _, t in model.store.items()),
        "greedy": [model.generate(sql, greedy=True) for sql in DECODE_QUERIES],
        "beam3": [model.generate(sql, beam_size=3) for sql in DECODE_QUERIES],
    }


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    "ge_method, undirected", BRANCHES, ids=[f"{g}-additive-False-{u}" for g, u in BRANCHES]
)
def test_trajectory_matches_golden(ge_method, undirected):
    want = load_golden()["branches"][branch_key(ge_method, undirected)]
    got = trajectory(ge_method, undirected)
    assert len(got["loss"]) == len(got["grad_norm"]) == 3
    for name in ("loss", "grad_norm"):
        np.testing.assert_allclose(got[name], want[name], rtol=REL_TOL, atol=0, err_msg=name)
    np.testing.assert_allclose(got["param_abs_sum"], want["param_abs_sum"], rtol=REL_TOL, atol=0)
    assert got["greedy"] == want["greedy"]
    assert got["beam3"] == want["beam3"]


def record(path: Path, commit: str) -> None:
    branches = {branch_key(*branch): trajectory(*branch) for branch in BRANCHES}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"recorded_at": commit, "branches": branches}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    # Usage: python tests/test_golden_trajectories.py OUT.json COMMIT
    record(Path(sys.argv[1]), sys.argv[2])
