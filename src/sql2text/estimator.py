"""Estimator-style front end so the pipeline composes with fit/predict
tooling: hyperparameters as keyword arguments, get_params/set_params,
fitted state on trailing-underscore attributes."""

from __future__ import annotations

from dataclasses import asdict, fields

from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .config import TrainConfig
from .data import ExamplePair, tokenize_text
from .evaluation import bleu4_corpus
from .graphs import template_interpret
from .parser import SqlParseError, SqlQuery, parse
from .training import train


def check_sql_list(X) -> tuple[list[str], list[SqlQuery]]:
    """Validate a list of SQL strings and return it with the parsed
    queries; raises ValueError naming the first offending index."""
    if isinstance(X, str):
        raise ValueError("X must be a sequence of SQL strings, not a single string")
    X = list(X)
    if not X:
        raise ValueError("X is empty")
    queries = []
    for i, sql in enumerate(X):
        if not isinstance(sql, str):
            raise ValueError(f"X[{i}] is not a string")
        try:
            queries.append(parse(sql))
        except SqlParseError as exc:
            raise ValueError(f"X[{i}] does not parse: {exc}") from exc
    return X, queries


def check_paired_text(X, y) -> tuple[list[str], list[str]]:
    X, _ = check_sql_list(X)
    y = list(y)
    if len(X) != len(y):
        raise ValueError(f"X and y length mismatch: {len(X)} vs {len(y)}")
    for i, text in enumerate(y):
        if not isinstance(text, str) or not text.strip():
            raise ValueError(f"y[{i}] must be a non-empty string")
    return X, y


class _ParamsMixin:
    """get_params/set_params/repr over the hyperparameter names in
    ``_defaults``, each stored as an attribute of the same name."""

    _defaults: dict = {}

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._defaults}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._defaults:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters: {sorted(self._defaults)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class SqlToTextGenerator(_ParamsMixin):
    """Trainable SQL-to-text generator.

    Its parameters are the fields of :class:`TrainConfig`, with the same
    names and defaults: graph-encoder sizes (word_dim, hidden, hop_size),
    the graph-embedding method ("pooling" or "supernode"), optimizer
    settings and decoding options.  They are validated by ``fit``.

    After ``fit(X, y)`` the trained model lives on ``model_`` and
    ``checkpoint_``; ``predict`` returns one generated interpretation per
    query and ``score`` is corpus BLEU-4 in [0, 1].
    """

    _defaults = {f.name: f.default for f in fields(TrainConfig)}

    def __init__(self, **params):
        for name in params:
            if name not in self._defaults:
                raise TypeError(
                    f"{type(self).__name__}() got an unexpected keyword argument {name!r}"
                )
        for name, default in self._defaults.items():
            setattr(self, name, params.get(name, default))

    def fit(self, X, y, dev_X=None, dev_y=None) -> "SqlToTextGenerator":
        X, y = check_paired_text(X, y)
        pairs = [ExamplePair(sql, tokenize_text(text)) for sql, text in zip(X, y)]
        dev_pairs: list[ExamplePair] = []
        if dev_X is not None and dev_y is not None:
            dev_X, dev_y = check_paired_text(dev_X, dev_y)
            dev_pairs = [ExamplePair(s, tokenize_text(t)) for s, t in zip(dev_X, dev_y)]
        result = train(TrainConfig(**self.get_params()), pairs, dev_pairs)
        self.model_ = result.model
        self.checkpoint_ = result.checkpoint
        self.metrics_ = result.metrics
        return self

    def _require_fitted(self) -> None:
        if not hasattr(self, "model_"):
            raise RuntimeError("this SqlToTextGenerator instance is not fitted yet")

    def predict(self, X) -> list[str]:
        self._require_fitted()
        _, queries = check_sql_list(X)
        return [" ".join(self.model_.generate(q, beam_size=self.beam_size)) for q in queries]

    def score(self, X, y) -> float:
        self._require_fitted()
        X, y = check_paired_text(X, y)
        hyps = [h.split() for h in self.predict(X)]
        refs = [list(tokenize_text(t)) for t in y]
        return bleu4_corpus(hyps, refs).corpus_bleu4

    def save(self, path) -> None:
        self._require_fitted()
        save_checkpoint(path, self.checkpoint_)

    @classmethod
    def from_checkpoint(cls, path) -> "SqlToTextGenerator":
        ckpt = load_checkpoint(path)
        model = restore_model(ckpt)
        est = cls(**asdict(model.config))
        est.model_ = model
        est.checkpoint_ = ckpt
        est.metrics_ = []
        return est


class TemplateInterpreter(_ParamsMixin):
    """Rule-based baseline with the same predict surface; fit is a no-op."""

    def fit(self, X=None, y=None) -> "TemplateInterpreter":
        return self

    def predict(self, X) -> list[str]:
        _, queries = check_sql_list(X)
        return [template_interpret(query) for query in queries]

    def score(self, X, y) -> float:
        X, y = check_paired_text(X, y)
        hyps = [h.split() for h in self.predict(X)]
        refs = [list(tokenize_text(t)) for t in y]
        return bleu4_corpus(hyps, refs).corpus_bleu4
