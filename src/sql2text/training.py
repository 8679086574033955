"""Training loop: seeded shuffling, token-averaged teacher-forced loss,
gradient clipping, Adam, dev-set BLEU tracking and checkpointing."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .checkpoint import ModelCheckpoint
from .config import TrainConfig
from .data import ExamplePair, build_vocab, load_pretrained_vectors
from .evaluation import bleu4_corpus
from .model import GraphToSequenceModel, query_graph
from .optim import AdamState, adam_step, clip_engages, clip_gradients


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    dev_bleu: float | None
    grad_norm_mean: float


@dataclass
class BatchLog:
    epoch: int
    grad_norm: float
    clipped: bool


@dataclass
class TrainResult:
    checkpoint: ModelCheckpoint
    model: GraphToSequenceModel
    metrics: list[EpochMetrics]
    batch_logs: list[BatchLog]
    best_epoch: int | None
    best_dev_bleu: float | None
    vector_coverage: float | None = None


def _dev_bleu(model: GraphToSequenceModel, pairs: list[ExamplePair], graphs: dict) -> float:
    hyps, refs = [], []
    for pair in pairs:
        hyps.append(model.generate(graphs[pair.sql], greedy=True))
        refs.append(list(pair.target))
    return bleu4_corpus(hyps, refs).corpus_bleu4


def train(
    config: TrainConfig,
    train_pairs: list[ExamplePair],
    dev_pairs: list[ExamplePair] = (),
) -> TrainResult:
    """Run the full loop and return the best-dev (or final) checkpoint.

    Raises TrainingDivergedError on a non-finite loss.
    """
    if not train_pairs:
        raise ValueError("training set is empty")

    sqls = dict.fromkeys(pair.sql for pair in [*train_pairs, *dev_pairs])
    graphs = {sql: query_graph(sql, config.undirected) for sql in sqls}
    src_vocab, tgt_vocab = build_vocab(train_pairs, config.min_freq, graphs)
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    model = GraphToSequenceModel(src_vocab, tgt_vocab, config)
    coverage = None
    if config.pretrained_vectors:
        coverage = load_pretrained_vectors(
            config.pretrained_vectors, src_vocab, model.store["src_embed"].data
        )
        load_pretrained_vectors(
            config.pretrained_vectors, tgt_vocab, model.store["tgt_embed"].data
        )

    shuffle_rng = np.random.default_rng(seeds[0])
    dropout_rng = np.random.default_rng(seeds[1])
    adam = AdamState(lr=config.lr)

    metrics: list[EpochMetrics] = []
    batch_logs: list[BatchLog] = []
    best_bleu: float | None = None
    best_epoch: int | None = None
    best_arrays: dict | None = None
    stale = 0

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train_pairs))
        epoch_nll = 0.0
        epoch_tokens = 0
        norms: list[float] = []
        for start in range(0, len(order), config.batch_size):
            batch = [train_pairs[int(i)] for i in order[start : start + config.batch_size]]
            total, tokens = model.loss(
                [graphs[pair.sql] for pair in batch],
                [pair.target for pair in batch],
                rng=dropout_rng,
            )
            value = float(total.data * (1.0 / tokens))
            if not math.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss {value} at epoch {epoch}, batch {start // config.batch_size}"
                )
            epoch_nll += value * tokens
            epoch_tokens += tokens
            total.backward(1.0 / tokens)  # the gradient of the token-mean loss
            norm = clip_gradients(model.store, config.clip_norm)
            batch_logs.append(BatchLog(epoch, norm, clip_engages(norm, config.clip_norm)))
            norms.append(norm)
            adam_step(model.store, adam)

        dev_bleu = _dev_bleu(model, list(dev_pairs), graphs) if dev_pairs else None
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                train_loss=epoch_nll / epoch_tokens,
                dev_bleu=dev_bleu,
                grad_norm_mean=float(np.mean(norms)) if norms else 0.0,
            )
        )
        if dev_bleu is not None:
            if best_bleu is None or dev_bleu > best_bleu:
                best_bleu = dev_bleu
                best_epoch = epoch
                best_arrays = model.store.state_arrays()
                stale = 0
            else:
                stale += 1
                if config.patience and stale >= config.patience:
                    break

    if best_arrays is not None:
        model.store.load_arrays(best_arrays)
    return TrainResult(
        checkpoint=ModelCheckpoint.from_model(model),
        model=model,
        metrics=metrics,
        batch_logs=batch_logs,
        best_epoch=best_epoch,
        best_dev_bleu=best_bleu,
        vector_coverage=coverage,
    )


def write_metrics_csv(path, metrics: list[EpochMetrics], config: TrainConfig) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config {json.dumps(asdict(config), sort_keys=True)}\n")
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "dev_bleu", "grad_norm_mean"])
        for row in metrics:
            writer.writerow(
                [
                    row.epoch,
                    f"{row.train_loss:.6f}",
                    "" if row.dev_bleu is None else f"{row.dev_bleu:.6f}",
                    f"{row.grad_norm_mean:.6f}",
                ]
            )
