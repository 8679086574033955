"""The benchmark's workloads and the fixed inputs they share.

Every workload runs both phases a user of the program waits on: a
training phase (``train()`` for one epoch on a generated corpus) and a
generate phase (greedy and beam-5 ``generate()`` with the fixed desk
checkpoint on held-out queries, scored with ``bleu4_corpus``).  The
phases are interleaved over the measuring window, so every end-to-end
metric exists on every workload and both phases sample the same stretch
of machine time.  The workloads differ in the model dims and vocabulary
of the training phase; the generate phase is the same on both, so a
change to training only should leave its metrics where they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from sql2text import TrainConfig, ingest_dataset, train

import corpus

DIMS = {
    "desk": {"word_dim": 64, "hidden": 64, "hop_size": 3},
    "paper": {"word_dim": 300, "hidden": 300, "hop_size": 6},
}
BATCH_SIZE = 30

# Seeds of the fixed inputs; run seeds only choose the measured corpora.
FIXTURE_SEED = 1_000_003
PROBE_SEED = 1_000_033
GATE_SEED = 1_000_037
FIXTURE_TRAIN_EXAMPLES = 900
PROBE_QUERIES = 20
GATE_EXAMPLES = {"desk": 30, "paper": 10}
# The gate corpus is trained for several epochs of small batches, with a
# clip norm low enough to engage on every step, so the loss of its last
# epoch depends on backward, clip_gradients and adam_step, not only on the
# forward pass at the initial weights.
GATE_BATCH_SIZE = 5
GATE_EPOCHS = 3
GATE_LR = 0.01
GATE_CLIP_NORM = 0.1

# Held-out queries decoded greedy and beam-5 in every run, and scored.
GENERATE_QUERIES = 200
# Distinct held-out queries the generate phase cycles over.
HELDOUT_QUERIES = 800


@dataclass(frozen=True)
class Workload:
    name: str  # also the key of the training phase's model dims in DIMS
    pool: str  # column pool of the training corpus
    train_examples: int  # examples per train() call
    train_share: float  # share of the window given to the training phase


WORKLOADS = {
    w.name: w
    for w in (
        # Desk dims, small vocab: per-op Python dispatch dominates training
        # and vocab-scaled costs are near zero.
        Workload("desk", "small", 90, 0.5),
        # Paper dims, large vocab: backward is BLAS- and allocation-bound,
        # and embedding gradients scale with a vocabulary that grows with
        # nearly every example.  Two batches per call, so the loss of the
        # second reflects one Adam step; training gets the larger share of
        # the window because each call takes several seconds.
        Workload("paper", "large", 60, 0.65),
    )
}


def train_config(dims: str) -> TrainConfig:
    return TrainConfig(**DIMS[dims], batch_size=BATCH_SIZE, epochs=1)


def fixture_training_records() -> list[dict]:
    return corpus.make_pairs(FIXTURE_SEED, FIXTURE_TRAIN_EXAMPLES, "small")


def heldout_records(seed: int, n: int) -> list[dict]:
    """Small-pool queries the fixture checkpoint never trained on."""
    seen = frozenset(r["sql"] for r in fixture_training_records())
    return corpus.make_pairs(seed, n, "small", exclude=seen)


def probe_queries() -> list[str]:
    return [r["sql"] for r in heldout_records(PROBE_SEED, PROBE_QUERIES)]


def gate_train(dims: str, work_dir: Path) -> dict:
    """Last-epoch loss and pre-clip gradient norms of ``train()`` on the
    fixed gate corpus at ``dims``.

    The benchmark calls this first in every run, so it is also the
    warm-up: the first ``train()`` in a process is slower than later ones.
    """
    records = corpus.make_pairs(GATE_SEED, GATE_EXAMPLES[dims], WORKLOADS[dims].pool)
    pairs = ingest_dataset(corpus.write_jsonl(work_dir / f"gate-{dims}.jsonl", records)).pairs
    config = TrainConfig(
        **DIMS[dims],
        batch_size=GATE_BATCH_SIZE,
        epochs=GATE_EPOCHS,
        lr=GATE_LR,
        clip_norm=GATE_CLIP_NORM,
    )
    result = train(config, pairs)
    return {
        "train_loss": result.metrics[-1].train_loss,
        "grad_norms": [log.grad_norm for log in result.batch_logs],
        "clipped_steps": sum(log.clipped for log in result.batch_logs),
    }
