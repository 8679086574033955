#!/usr/bin/env python3
"""sql2text benchmark: training throughput and generation latency, end to
end and layer by layer.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run is one process and one closed loop with a single client: the
next call into the program starts when the previous one has returned.
The workload seed picks the generated corpora; the program sees them only
as JSON Lines files read through ``ingest_dataset``.  Every workload runs
a training phase and a generate phase (see ``workloads.py``), interleaved
over the ``--seconds`` window.

Order of a run, the same on every commit:

1. Generate the inputs and record their shape.
2. Set up 25 times (ingest both files, load and restore the fixed
   checkpoint) and keep the median as ``setup_s``.
3. Warm up, which doubles as a gate: ``train()`` for three epochs of
   small, clipped batches on the fixed gate corpus at the workload's dims,
   whose last-epoch loss and per-step gradient norms must match the
   recorded values, and beam-5 decoding of the probe queries, whose
   token-match rate against the recorded outputs is reported.
4. Measure both phases with tracing off, then check that greedy output
   equals beam-1 output on the first held-out queries.
5. With ``--trace 1``, repeat exactly the same calls with spans on and
   report per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A failed gate or operation
makes ``correct`` false and the exit code 1.
"""

import os

# Fixed run conditions: BLAS threads are set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = HERE / "fixture"
SETUP_REPEATS = 25
BEAM = 5
# Held-out queries per generate unit.
CHUNK = 20
# Held-out queries on which greedy output must equal beam-1 output.
GATE_QUERIES = 100
# Share of probe-query tokens that must match the recorded beam-5 outputs;
# below 1 so that a change in float summation order may flip a near tie.
MIN_TOKEN_MATCH = 0.9
# Relative tolerance of the gate's loss and gradient norms.  They repeat
# exactly on one machine; float32 and float64 runs of the gate differ by
# under 1e-6, so a change in float summation order stays far inside.
GATE_REL_TOL = 1e-4
# Share of train() wall time its traced child spans must cover.
MIN_COVERAGE = 0.9
# Span names wrapped inside the program, at the name their caller looks
# them up by, with the work count taken from the call's result.
TRACE_TARGETS = (
    ("sql2text.training", "build_vocab", "data.build_vocab", None),
    ("sql2text.model", "GraphToSequenceModel.__init__", "model.init", None),
    ("sql2text.model", "parse", "parser.parse", None),
    ("sql2text.model", "build_graph", "graphs.build_graph", None),
    ("sql2text.model", "encode", "encoder.encode", None),
    ("sql2text.model", "sequence_loss", "decoder.sequence_loss", lambda r: r[1]),
    ("sql2text.model", "greedy_decode", "decoder.greedy_decode", len),
    ("sql2text.model", "beam_search", "decoder.beam_search", len),
    ("sql2text.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("sql2text.training", "clip_gradients", "optim.clip_gradients", None),
    ("sql2text.training", "adam_step", "optim.adam_step", None),
)

if not (SRC / "sql2text" / "__init__.py").is_file():
    sys.exit(f"benchmark: program source not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import sql2text  # noqa: E402
from sql2text import (  # noqa: E402
    bleu4_corpus,
    ingest_dataset,
    load_checkpoint,
    restore_model,
    train,
)

import corpus  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

if not Path(sql2text.__file__).resolve().is_relative_to(SRC):
    sys.exit(f"benchmark: imported sql2text from {sql2text.__file__}, not from {SRC}")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_conditions(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "sql2text").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "warmup": "three-epoch train() on the gate corpus at the workload's dims, then beam-5 on the probe queries",
    }


def quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Counts of operations attempted and failed, and the gates checked,
    for one workload run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gates: dict[str, bool] = {}

    def gate(self, name: str, ok: bool, detail: str) -> None:
        self.gates[name] = bool(ok)
        print(f"gate {name}: {'ok' if ok else 'FAILED'} ({detail})")

    @property
    def correct(self) -> bool:
        return all(self.gates.values()) and self.failed == 0


def setup(inputs: dict, tracer: spans.Tracer | None = None):
    """Ingest both corpora and load the fixed checkpoint: what a run pays
    before its first call."""
    span = tracer.span if tracer else _no_span
    train_pairs = ingest_dataset(inputs["train"]).pairs
    heldout = ingest_dataset(inputs["heldout"]).pairs
    with span("checkpoint.load"):
        ckpt = load_checkpoint(inputs["checkpoint"])
    with span("checkpoint.restore"):
        model = restore_model(ckpt)
    return train_pairs, heldout, model


def _no_span(name):
    return contextlib.nullcontext()


class Phases:
    """The two phases of a workload, run in units: one ``train()`` call
    for one epoch on the training corpus, or greedy then beam-5
    ``generate()`` on the next ``CHUNK`` held-out queries (cycling)."""

    def __init__(self, run: Run, wl, train_pairs, model, heldout, tracer=None):
        self.run = run
        self.config = workloads.train_config(wl.name)
        self.train_share = wl.train_share
        self.train_pairs = train_pairs
        self.model = model
        self.heldout = heldout
        self.span = tracer.span if tracer else _no_span
        self.train_s: list[float] = []
        self.losses: list[float] = []
        self.chunk_s: list[float] = []
        self.greedy_ms: list[float] = []
        self.beam_ms: list[float] = []
        self.greedy_out: list[list[str]] = []
        self.beam_out: list[list[str]] = []

    def train_call(self) -> None:
        batches = math.ceil(len(self.train_pairs) / workloads.BATCH_SIZE)
        self.run.attempted += batches
        gc.collect()  # every call starts from the same collector state
        t0 = time.perf_counter()
        try:
            with self.span("training.train"):
                result = train(self.config, self.train_pairs)
            self.losses.append(result.metrics[-1].train_loss)
        except Exception as exc:  # counted as failed batches, the run goes on
            self.run.failed += batches
            self.run.errors.append(f"train: {type(exc).__name__}: {exc}")
        self.train_s.append(time.perf_counter() - t0)

    def generate_chunk(self) -> None:
        t0 = time.perf_counter()
        for _ in range(CHUNK):
            sql = self.heldout[len(self.greedy_ms) % len(self.heldout)].sql
            greedy, g_ms = self._generate(sql, greedy=True)
            beam, b_ms = self._generate(sql, beam_size=BEAM)
            self.greedy_ms.append(g_ms)
            self.beam_ms.append(b_ms)
            if len(self.greedy_out) < workloads.GENERATE_QUERIES:
                self.greedy_out.append(greedy)
                self.beam_out.append(beam)
        self.chunk_s.append(time.perf_counter() - t0)

    def _generate(self, sql: str, **kwargs):
        self.run.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.span("model.generate"):
                out = self.model.generate(sql, **kwargs)
        except Exception as exc:  # scored as empty, as evaluate_model does
            self.run.failed += 1
            self.run.errors.append(f"generate: {type(exc).__name__}: {exc}")
            out = []
        return out, (time.perf_counter() - t0) * 1000.0

    def run_unit(self, unit: str) -> None:
        {"train": self.train_call, "generate": self.generate_chunk}[unit]()

    def bleu(self) -> float:
        refs = [list(p.target) for p in self.heldout[: len(self.beam_out)]]
        with self.span("evaluation.bleu4_corpus"):
            return bleu4_corpus(self.beam_out, refs).corpus_bleu4


def measure(phases: Phases, seconds: float) -> list[str]:
    """Interleave the phases over the window so both sample the same
    stretch of machine time, giving training the workload's share of it.

    Each phase first runs its minimum (one ``train()`` call;
    ``GENERATE_QUERIES`` queries, the set BLEU-4 is scored on).  After
    that, a unit starts only if it is expected to end inside the window.
    Returns the units in order, so that a traced run can repeat them.
    """
    done = {"train": phases.train_s, "generate": phases.chunk_s}
    share = {"train": phases.train_share, "generate": 1.0 - phases.train_share}
    minimum = {"train": 1, "generate": -(-workloads.GENERATE_QUERIES // CHUNK)}
    plan: list[str] = []
    started = time.perf_counter()
    while True:
        behind = min(done, key=lambda p: sum(done[p]) / share[p])
        pending = [p for p in done if len(done[p]) < minimum[p]]
        elapsed = time.perf_counter() - started
        if pending:
            unit = behind if behind in pending else pending[0]
        elif elapsed + statistics.median(done[behind]) <= seconds:
            unit = behind
        else:
            return plan
        phases.run_unit(unit)
        plan.append(unit)


def token_match(got: list[list[str]], expected: list[list[str]]) -> float:
    """Share of positions, over the longer of each pair, where the tokens agree."""
    matched = sum(sum(a == b for a, b in zip(g, e)) for g, e in zip(got, expected))
    total = sum(max(len(g), len(e)) for g, e in zip(got, expected))
    return matched / total if total else 1.0


def end_to_end(setup_s: list[float], ph: Phases, bleu: float) -> dict:
    per_call = [len(ph.train_pairs) / d for d in ph.train_s]
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "train_examples_per_s": (statistics.median(per_call), "1/s", len(per_call)),
        "train_loss": (ph.losses[0] if ph.losses else math.nan, "nats", len(ph.losses)),
        "greedy_ms_p50": (quantile(ph.greedy_ms, 50), "ms", len(ph.greedy_ms)),
        "greedy_ms_p90": (quantile(ph.greedy_ms, 90), "ms", len(ph.greedy_ms)),
        "beam5_ms_p50": (quantile(ph.beam_ms, 50), "ms", len(ph.beam_ms)),
        "beam5_ms_p90": (quantile(ph.beam_ms, 90), "ms", len(ph.beam_ms)),
        "beam5_bleu4": (bleu, "bleu", len(ph.beam_out)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }


def per_layer(tracer: spans.Tracer, overhead: float) -> dict:
    """Per-layer metrics from the traced repeat.  Training layers are per
    ``train()`` call; generate layers are per call of the layer."""
    train_roots = [s for s in tracer.spans if s.name == "training.train" and s.parent is None]
    tl = spans.layer_totals(tracer, "training.train")
    gl = spans.layer_totals(tracer, "model.generate")
    n = len(train_roots)

    def layer(totals, name):
        if name not in totals:
            raise RuntimeError(f"layer {name!r} recorded no spans")
        return totals[name]

    out: dict[str, tuple[float, str, int]] = {}
    for name, keys in (
        ("parser.parse", ("calls", "s")),
        ("graphs.build_graph", ("calls", "s")),
        ("encoder.encode", ("calls", "s")),
        ("decoder.sequence_loss", ("s", "tokens")),
        ("autodiff.backward", ("calls", "s")),
        ("optim.clip_gradients", ("s",)),
        ("optim.adam_step", ("s",)),
        ("data.build_vocab", ("s",)),
        ("model.init", ("s",)),
    ):
        t = layer(tl, name)
        for key in keys:
            value = t["count"] if key == "tokens" else t[key]
            unit = {"calls": "count", "s": "s", "tokens": "count"}[key]
            out[f"train.{name}.{key}"] = (value / n, unit, n)
    out["train.training.self_s"] = (
        statistics.fmean(tracer.self_time(r) for r in train_roots), "s", n
    )
    covered = sum(tracer.children_time(r) for r in train_roots)
    out["trace.coverage"] = (covered / sum(r.duration for r in train_roots), "ratio", n)
    out["trace.overhead"] = (overhead, "ratio", 1)

    for name in ("checkpoint.load", "checkpoint.restore", "evaluation.bleu4_corpus"):
        durations = [s.duration for s in tracer.spans if s.name == name and s.parent is None]
        if not durations:
            raise RuntimeError(f"layer {name!r} recorded no spans")
        out[f"{name}.s"] = (statistics.median(durations), "s", len(durations))
    encode = layer(gl, "encoder.encode")
    out["generate.encoder.encode.s"] = (encode["s"] / encode["calls"], "s", encode["calls"])
    for name in ("decoder.greedy_decode", "decoder.beam_search"):
        t = layer(gl, name)
        out[f"generate.{name}.s"] = (t["s"] / t["calls"], "s", t["calls"])
        out[f"generate.{name}.tokens"] = (t["count"] / t["calls"], "count", t["calls"])
    return out


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    wl = workloads.WORKLOADS[name]
    expected = json.loads((FIXTURE / "expected.json").read_text(encoding="utf-8"))
    ckpt_path = FIXTURE / expected["checkpoint"]
    run = Run()
    print("conditions " + json.dumps(run_conditions(seed), sort_keys=True))

    with tempfile.TemporaryDirectory(dir=HERE, prefix=".run-") as tmp:
        work = Path(tmp)
        inputs = {
            "train": corpus.write_jsonl(
                work / "train.jsonl", corpus.make_pairs(seed, wl.train_examples, wl.pool)
            ),
            "heldout": corpus.write_jsonl(
                work / "heldout.jsonl", workloads.heldout_records(seed, workloads.HELDOUT_QUERIES)
            ),
            "checkpoint": ckpt_path,
        }
        print(f"shape {name} train " + json.dumps(corpus.shape(inputs["train"]), sort_keys=True))
        print(f"shape {name} heldout " + json.dumps(corpus.shape(inputs["heldout"]), sort_keys=True))

        digest = hashlib.sha256(ckpt_path.read_bytes()).hexdigest()
        run.gate("fixture_sha256", digest == expected["sha256"], digest[:16])

        setup_s = []
        for _ in range(SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            train_pairs, heldout, model = setup(inputs)
            setup_s.append(time.perf_counter() - t0)

        got = workloads.gate_train(wl.name, work)
        want = expected["gate_train"][wl.name]
        values = list(zip([got["train_loss"], *got["grad_norms"]], [want["train_loss"], *want["grad_norms"]]))
        run.gate(
            "gate_train",
            len(got["grad_norms"]) == len(want["grad_norms"])
            and got["clipped_steps"] == len(got["grad_norms"])
            and all(math.isclose(g, w, rel_tol=GATE_REL_TOL) for g, w in values),
            f"last-epoch loss {got['train_loss']!r} vs recorded {want['train_loss']!r}; "
            f"{got['clipped_steps']}/{len(got['grad_norms'])} steps clipped; largest relative "
            f"difference in loss and gradient norms {max(abs(g - w) / w for g, w in values):.1e}",
        )
        probe = [model.generate(p["sql"], beam_size=BEAM) for p in expected["probe"]]
        match = token_match(probe, [p["beam5"] for p in expected["probe"]])
        run.gate("fixture_token_match", match >= MIN_TOKEN_MATCH, f"{match:.4f} of probe tokens")

        phases = Phases(run, wl, train_pairs, model, heldout)
        t0 = time.perf_counter()
        plan = measure(phases, seconds)
        untraced_s = time.perf_counter() - t0
        bleu = phases.bleu()

        losses = phases.losses
        run.gate(
            "train_loss_finite_and_repeatable",
            bool(losses) and math.isfinite(losses[0]) and len(set(losses)) == 1,
            f"{len(losses)} calls, losses {sorted(set(losses))}",
        )
        checked = heldout[:GATE_QUERIES]
        beam1 = [model.generate(p.sql, beam_size=1) for p in checked]
        same = sum(b == g for b, g in zip(beam1, phases.greedy_out))
        run.gate("greedy_equals_beam1", same == len(checked), f"{same}/{len(checked)} queries")

        metrics = end_to_end(setup_s, phases, bleu)
        if trace:
            tracer = spans.Tracer()
            for target in TRACE_TARGETS:
                tracer.wrap(*target)
            try:
                for _ in range(SETUP_REPEATS):
                    setup(inputs, tracer)
                traced = Phases(run, wl, train_pairs, model, heldout, tracer)
                t0 = time.perf_counter()
                for unit in plan:
                    traced.run_unit(unit)
                traced_s = time.perf_counter() - t0
                traced.bleu()
            finally:
                tracer.unwrap_all()
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{name}-seed{seed}.jsonl")
            for key, value in metrics.items():
                print(f"untraced {key} = {value[0]!r} {value[1]} (n={value[2]})")
            metrics = per_layer(tracer, traced_s / untraced_s - 1.0)
            coverage = metrics["trace.coverage"][0]
            run.gate("trace_coverage", coverage >= MIN_COVERAGE, f"{coverage:.4f} of train() wall time")

    for key, (value, unit, n) in metrics.items():
        print(f"{name} {key} = {value!r} {unit} (n={n})")
    for error in run.errors[:10]:
        print(f"error {error}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if run.correct else 1


def run_all(seed: int, seconds: int, trace: int) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            check=False,
        )
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
