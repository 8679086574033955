"""Train the fixed desk-dims checkpoint that the generate phase decodes
with, and record what the benchmark checks it against.

    python3 perfbench/make_fixture.py

Writes ``perfbench/fixture/desk.ckpt`` and ``perfbench/fixture/expected.json``:
the checkpoint's SHA-256, the beam-5 outputs of a fixed set of probe
queries, and the last-epoch loss and per-step gradient norms of ``train()``
on each gate corpus.  Run it once; the benchmark must keep reading the
same checkpoint on every commit, because decode length, and so decode
cost, follows the weights.

On one core of a 2.1 GHz x86-64 VM it trains for about 12 minutes and
reaches greedy dev BLEU-4 0.41.  On the probe queries, greedy outputs come
out at 98% of the reference length and beam-5 outputs, length-normalised,
at 96% (BLEU-4 0.39 for both).
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sql2text import (  # noqa: E402
    TrainConfig,
    bleu4_corpus,
    ingest_dataset,
    load_checkpoint,
    restore_model,
    save_checkpoint,
    train,
)

import corpus  # noqa: E402
import workloads  # noqa: E402

# Small batches give the many Adam steps the copy-like mapping from column
# words to output words needs; the dev set picks the best epoch.
FIXTURE_EPOCHS = 24
FIXTURE_BATCH = 5
FIXTURE_LR = 0.003
FIXTURE_DROPOUT = 0.1
# Beam search divides each hypothesis's log-probability by its length to
# this power.  Decoding only reads it, so the trained weights do not depend
# on it.  Without it (0.0) beam-5 outputs of this checkpoint come out at
# about 56% of the reference length, with 9 in 100 empty; with 1.0 at
# about the reference length.
FIXTURE_LENGTH_NORM_ALPHA = 1.0
DEV_EXAMPLES = 60


def main() -> int:
    out_dir = HERE / "fixture"
    out_dir.mkdir(exist_ok=True)
    train_records = workloads.fixture_training_records()
    dev_records = corpus.make_pairs(
        workloads.FIXTURE_SEED + 1, DEV_EXAMPLES, "small",
        exclude=frozenset(r["sql"] for r in train_records),
    )
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        train_pairs = ingest_dataset(corpus.write_jsonl(Path(tmp) / "train.jsonl", train_records)).pairs
        dev_pairs = ingest_dataset(corpus.write_jsonl(Path(tmp) / "dev.jsonl", dev_records)).pairs
    config = TrainConfig(
        **workloads.DIMS["desk"],
        batch_size=FIXTURE_BATCH,
        lr=FIXTURE_LR,
        dropout=FIXTURE_DROPOUT,
        length_norm_alpha=FIXTURE_LENGTH_NORM_ALPHA,
        epochs=FIXTURE_EPOCHS,
        patience=0,
        seed=workloads.FIXTURE_SEED,
    )
    start = time.perf_counter()
    result = train(config, train_pairs, dev_pairs)
    print(f"trained {len(train_pairs)} examples in {time.perf_counter() - start:.1f}s; "
          f"best epoch {result.best_epoch}, dev BLEU-4 {result.best_dev_bleu:.4f}")

    ckpt_path = out_dir / "desk.ckpt"
    save_checkpoint(ckpt_path, result.checkpoint)
    model = restore_model(load_checkpoint(ckpt_path))

    probe = workloads.probe_queries()
    hyps = [model.generate(sql, beam_size=5) for sql in probe]
    refs = [r["text"].split() for r in workloads.heldout_records(workloads.PROBE_SEED, len(probe))]
    greedy = [model.generate(sql, greedy=True) for sql in probe]
    for name, out in (("beam-5", hyps), ("greedy", greedy)):
        print(f"probe {name} BLEU-4 {bleu4_corpus(out, refs).corpus_bleu4:.4f}, output/reference "
              f"tokens {sum(map(len, out))}/{sum(map(len, refs))}")

    gate = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for dims in workloads.DIMS:
            gate[dims] = workloads.gate_train(dims, Path(tmp))
            print(f"gate at {dims} dims: last-epoch train_loss {gate[dims]['train_loss']!r}, "
                  f"{gate[dims]['clipped_steps']}/{len(gate[dims]['grad_norms'])} steps clipped")

    expected = {
        "checkpoint": ckpt_path.name,
        "sha256": hashlib.sha256(ckpt_path.read_bytes()).hexdigest(),
        "probe": [{"sql": sql, "beam5": hyp} for sql, hyp in zip(probe, hyps)],
        "gate_train": {
            dims: {"train_loss": g["train_loss"], "grad_norms": g["grad_norms"]}
            for dims, g in gate.items()
        },
    }
    (out_dir / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
