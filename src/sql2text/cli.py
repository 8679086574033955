"""Batch command-line interface.

Commands: parse, graphify, template, train, generate, evaluate,
gradcheck.  Configuration comes from defaults, then an optional JSON
config file (--config or the SQL2TEXT_CONFIG environment variable), then
command-line flags; later layers win.  Exit codes: 0 success, 1 runtime
failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from .config import TrainConfig
from .data import ExamplePair, build_vocab, ingest_dataset, tokenize_text
from .evaluation import evaluate_model, write_report
from .graphs import template_interpret, to_dot, to_json_dict
from .model import GraphToSequenceModel, query_graph
from .optim import finite_difference_check, randomize_parameters
from .parser import SqlParseError, parse
from .training import TrainingDivergedError, train, write_metrics_csv

CONFIG_ENV_VAR = "SQL2TEXT_CONFIG"

_CONFIG_FIELDS = {f.name: f for f in fields(TrainConfig)}

_GRADCHECK_DEFAULTS = {"word_dim": 6, "hidden": 6, "hop_size": 2, "dropout": 0.0}


class UsageError(ValueError):
    pass


def _config_defaults(overrides: dict | None = None) -> dict:
    return {**asdict(TrainConfig()), **(overrides or {})}


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR) or None
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(values, dict):
        raise UsageError(f"{path}: config file must hold a JSON object")
    unknown = set(values) - set(_CONFIG_FIELDS)
    if unknown:
        raise UsageError(
            f"unknown config keys in {path}: {', '.join(sorted(unknown))}"
        )
    return values


def _add_config_flags(
    cmd: argparse.ArgumentParser, exclude: tuple[str, ...] = (), overrides: dict | None = None
) -> None:
    defaults = _config_defaults(overrides)
    for name, f in _CONFIG_FIELDS.items():
        if name in exclude:
            continue
        if isinstance(f.default, bool):
            kind = {"action": argparse.BooleanOptionalAction}
        else:
            kind = {"type": type(f.default) if f.default is not None else str}
        help_text = f"(default {defaults[name]})"  # the default this command runs with
        cmd.add_argument("--" + name.replace("_", "-"), dest=name, default=None, help=help_text, **kind)


def _effective_config(args: argparse.Namespace, overrides: dict | None = None) -> TrainConfig:
    values = _config_defaults(overrides)
    values.update(_load_config_file(getattr(args, "config", None)))
    for name in _CONFIG_FIELDS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    try:
        return TrainConfig(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid configuration: {exc}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _iter_queries(args: argparse.Namespace) -> list[str]:
    if args.sql is not None:
        return [args.sql]
    lines = Path(args.file).read_text(encoding="utf-8").splitlines()
    return [line for line in lines if line.strip()]


def cmd_parse(args: argparse.Namespace) -> int:
    for sql in _iter_queries(args):
        query = parse(sql, anonymize=args.anonymize)
        print(json.dumps(asdict(query), sort_keys=True))
    return 0


def cmd_graphify(args: argparse.Namespace) -> int:
    for sql in _iter_queries(args):
        graph = query_graph(parse(sql, anonymize=args.anonymize), args.undirected)
        if args.format == "dot":
            print(to_dot(graph))
        else:
            print(json.dumps(to_json_dict(graph), sort_keys=True))
    return 0


def cmd_template(args: argparse.Namespace) -> int:
    for sql in _iter_queries(args):
        print(template_interpret(parse(sql, anonymize=args.anonymize)))
    return 0


def _ingest(path, kind: str = "") -> list[ExamplePair]:
    """The dataset's pairs, after a warning for each skipped line."""
    ingest = ingest_dataset(path)
    for line_no, reason in ingest.skipped:
        print(f"warning: skipped {kind}line {line_no}: {reason}", file=sys.stderr)
    return ingest.pairs


def cmd_train(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    train_pairs = _ingest(args.train)
    dev_pairs = _ingest(args.dev, "dev ") if args.dev else []
    result = train(config, train_pairs, dev_pairs)
    save_checkpoint(args.out, result.checkpoint)
    if args.metrics:
        write_metrics_csv(args.metrics, result.metrics, config)
    last = result.metrics[-1]
    dev_note = f", dev_bleu {result.best_dev_bleu:.4f}" if result.best_dev_bleu is not None else ""
    print(
        f"trained {len(result.metrics)} epochs, final train_loss {last.train_loss:.4f}{dev_note}; "
        f"checkpoint written to {args.out}"
    )
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    model = restore_model(load_checkpoint(args.checkpoint))
    for sql in _iter_queries(args):
        print(" ".join(model.generate(sql, beam_size=args.beam, greedy=args.greedy)))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    model = restore_model(ckpt)
    report = evaluate_model(model, _ingest(args.test), beam_size=args.beam)
    if args.report:
        write_report(args.report, report, ckpt.config)
    print(f"corpus BLEU-4: {report.corpus_bleu4:.6f} ({report.corpus_bleu4 * 100.0:.2f} x100)")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    config = _effective_config(args, overrides=_GRADCHECK_DEFAULTS)
    sql = "select name where age > val_0 and salary > val_1"
    text = template_interpret(parse(sql))
    pair = ExamplePair(sql, tokenize_text(text))
    graph = query_graph(sql, config.undirected)
    src_vocab, tgt_vocab = build_vocab([pair], graphs={sql: graph})
    precisions = (
        ["float32", "float64"] if args.precision_mode == "both" else [args.precision_mode]
    )
    tolerances = {"float32": 1e-3, "float64": 1e-6}
    status = 0
    for precision in precisions:
        model = GraphToSequenceModel(src_vocab, tgt_vocab, replace(config, precision=precision))
        randomize_parameters(model.store, np.random.default_rng(config.seed + 1))

        def loss_fn(store):
            return model.loss([graph], [pair.target])[0]

        err = finite_difference_check(
            loss_fn,
            model.store,
            samples=args.samples,
            rng=np.random.default_rng(config.seed),
        )
        tolerance = tolerances[precision]
        ok = err < tolerance
        status = status if ok else 1
        print(
            f"gradcheck [{precision}]: max relative error {err:.3e} "
            f"(tolerance {tolerance:.0e}) -> {'PASS' if ok else 'FAIL'}"
        )
    return status


def _config_epilog(overrides: dict | None = None) -> str:
    lines = ["configuration keys (JSON config file and per-key flags on train/gradcheck):"]
    for name, value in _config_defaults(overrides).items():
        lines.append(f"  {name} (default {value!r})")
    lines.append(f"environment: {CONFIG_ENV_VAR} points at a default config file")
    return "\n".join(lines)


def build_arg_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="sql2text",
        description="SQL-to-text: query graphs, graph-encoder training and generation.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    root.add_argument("--version", action="version", version=f"sql2text {__version__}")
    sub = root.add_subparsers(dest="command", required=True)

    def add_query_source(cmd):
        group = cmd.add_mutually_exclusive_group(required=True)
        group.add_argument("sql", nargs="?", help="a single query")
        group.add_argument("--file", help="file with one query per line")
        cmd.add_argument(
            "--anonymize", action="store_true", help="replace literal values with val_k"
        )

    p = sub.add_parser("parse", help="parse queries and print the AST as JSON")
    add_query_source(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("graphify", help="emit the directed query graph")
    add_query_source(p)
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--undirected", action="store_true", help="mirror every edge")
    p.set_defaults(func=cmd_graphify)

    p = sub.add_parser("template", help="rule-based baseline interpretation")
    add_query_source(p)
    p.set_defaults(func=cmd_template)

    p = sub.add_parser(
        "train",
        help="train on a JSON Lines dataset of {sql, text} pairs",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", help="JSON config file (flags win)")
    p.add_argument("--train", required=True, help="training JSONL path")
    p.add_argument("--dev", help="development JSONL path")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--metrics", help="per-epoch metrics CSV path")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="generate interpretations from a checkpoint")
    p.add_argument("--checkpoint", required=True)
    add_query_source(p)
    decoding = p.add_mutually_exclusive_group()
    decoding.add_argument("--beam", type=_positive_int, default=None, help="beam size override")
    decoding.add_argument("--greedy", action="store_true", help="greedy decoding")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="corpus BLEU-4 of a checkpoint on a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="test JSONL path")
    p.add_argument("--report", help="write the JSON evaluation report here")
    p.add_argument("--beam", type=_positive_int, default=None)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser(
        "gradcheck",
        help="finite-difference check of end-to-end gradients",
        epilog=_config_epilog(_GRADCHECK_DEFAULTS),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    p.add_argument("--config", help="JSON config file (flags win)")
    p.add_argument(
        "--precision",
        dest="precision_mode",
        choices=("float32", "float64", "both"),
        default="float32",
    )
    p.add_argument("--samples", type=_positive_int, default=200)
    _add_config_flags(p, exclude=("precision",), overrides=_GRADCHECK_DEFAULTS)
    p.set_defaults(func=cmd_gradcheck)

    return root


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SqlParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        FileNotFoundError,
        CheckpointError,
        TrainingDivergedError,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
