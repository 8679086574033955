"""SQL-to-text generation.

Restricted SQL queries are parsed into an AST, represented as directed
graphs, encoded with a bidirectional K-hop neighbor-aggregation graph
encoder and decoded into natural-language interpretations by an attention
decoder.
Everything trains end to end on CPU through a small numpy-backed autodiff
engine.
"""

__version__ = "0.1.0"

from .autodiff import Tensor, default_dtype, no_grad
from .checkpoint import (
    ModelCheckpoint,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from .config import TrainConfig
from .data import (
    ExamplePair,
    Vocabulary,
    build_vocab,
    ingest_dataset,
    load_pretrained_vectors,
    tokenize_text,
)
from .estimator import SqlToTextGenerator, TemplateInterpreter
from .evaluation import EvalReport, bleu4_corpus, evaluate_model
from .graphs import (
    QueryGraph,
    add_super_node,
    build_graph,
    template_interpret,
    to_undirected,
)
from .model import GraphToSequenceModel, query_graph
from .optim import (
    AdamState,
    ParameterStore,
    adam_step,
    clip_gradients,
    finite_difference_check,
    randomize_parameters,
)
from .parser import (
    BoolOp,
    Condition,
    SqlParseError,
    SqlQuery,
    UnsupportedSyntaxError,
    ValueToken,
    parse,
    render,
)
from .training import TrainingDivergedError, train

__all__ = [
    "__version__",
    "Tensor",
    "default_dtype",
    "no_grad",
    "ModelCheckpoint",
    "load_checkpoint",
    "restore_model",
    "save_checkpoint",
    "ExamplePair",
    "Vocabulary",
    "build_vocab",
    "ingest_dataset",
    "load_pretrained_vectors",
    "tokenize_text",
    "SqlToTextGenerator",
    "TemplateInterpreter",
    "EvalReport",
    "bleu4_corpus",
    "evaluate_model",
    "QueryGraph",
    "add_super_node",
    "build_graph",
    "template_interpret",
    "to_undirected",
    "GraphToSequenceModel",
    "query_graph",
    "AdamState",
    "ParameterStore",
    "adam_step",
    "clip_gradients",
    "finite_difference_check",
    "randomize_parameters",
    "BoolOp",
    "Condition",
    "SqlParseError",
    "SqlQuery",
    "UnsupportedSyntaxError",
    "ValueToken",
    "parse",
    "render",
    "TrainConfig",
    "TrainingDivergedError",
    "train",
]
